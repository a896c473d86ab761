"""Finite-dimensional normed spaces and vector-valued function wrappers.

Elements are plain Python floats (scalar space) or numpy arrays (everything
else); the space object supplies the norm and the zero element.  All
reductions over elements happen in a fixed left-to-right order so repeated
runs are bit-identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ._simpson import check_finite

__all__ = [
    "NormedSpace",
    "ScalarSpace",
    "EuclideanSpace",
    "MaxNormSpace",
    "ComplexEuclideanSpace",
    "MatrixSpace",
    "VectorFunction",
]

Element = Any

_FAR = 2.0 ** 500


def _far(top):
    """Whether an element whose largest entry modulus is ``top`` (a float,
    or an array of them) has squares that could overflow or underflow:
    ``top`` finite and outside [2**-500, 2**500].  Such an element is
    scaled by an even power of two, exactly, before its 2-norm is taken,
    and the root scaled back; every other element keeps np.linalg.norm's
    bits."""
    return ((top > _FAR) & (top < math.inf)) | ((top > 0.0) & (top < 1.0 / _FAR))


class NormedSpace:
    """Base class for the two concrete spaces below.

    Subclasses define ``label`` (the name used in reports and on the
    command line), ``zero``, ``norm`` and ``norms``, and flat real
    coordinates (used for building sample elements and for report output).
    ``add``/``scale`` default to the numeric operators, which cover floats
    and numpy arrays alike.
    """

    label: str

    @property
    def flat_dim(self) -> int:
        """Number of real coordinates of an element."""
        raise NotImplementedError

    def zero(self) -> Element:
        raise NotImplementedError

    def norm(self, x: Element) -> float:
        raise NotImplementedError

    def norms(self, stack) -> np.ndarray:
        """``norm`` of each element of ``stack``, an array of elements
        stacked along axis 0; entry ``k`` equals ``norm(stack[k])`` bit for
        bit."""
        raise NotImplementedError

    def add(self, x: Element, y: Element) -> Element:
        return x + y

    def scale(self, lam: float, x: Element) -> Element:
        return lam * x

    def subtract(self, x: Element, y: Element) -> Element:
        return self.add(x, self.scale(-1.0, y))

    def from_flat(self, coords) -> Element:
        """Build an element from ``flat_dim`` real coordinates."""
        raise NotImplementedError

    def to_components(self, x: Element):
        """Nested list of plain floats for report serialisation."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarSpace(NormedSpace):
    """The real line with the absolute value."""

    @property
    def label(self) -> str:
        return "scalar"

    @property
    def flat_dim(self) -> int:
        return 1

    def zero(self) -> float:
        return 0.0

    def norm(self, x) -> float:
        return abs(float(x))

    def norms(self, stack) -> np.ndarray:
        return np.abs(np.asarray(stack, dtype=float))

    def from_flat(self, coords) -> float:
        return float(coords[0])

    def to_components(self, x):
        return [float(x)]


@dataclass(frozen=True)
class ArraySpace(NormedSpace):
    """Numpy arrays of one shape: R^n, C^n or real matrices.

    ``kind`` is the dtype kind of the entries, ``"f"`` (real) or ``"c"``
    (complex).  The norm is the Euclidean norm of the entries (Frobenius
    for matrices), or their largest modulus when ``sup`` is set.  Flat
    coordinates run over the entries in C order, a complex entry giving
    its real then its imaginary part.  Built by the constructors below.
    """

    label: str
    shape: tuple[int, ...]
    kind: str = "f"
    sup: bool = False

    def __post_init__(self) -> None:
        if min(self.shape) < 1:
            raise ValueError(f"dimensions must be >= 1, got {self.shape}")

    @property
    def flat_dim(self) -> int:
        return math.prod(self.shape) * (2 if self.kind == "c" else 1)

    def zero(self):
        return np.zeros(self.shape, dtype=complex if self.kind == "c" else float)

    def norm(self, x) -> float:
        # one element: np.linalg.norm costs a fifth of norms() per call
        x = np.asarray(x)
        top = float(abs(x).max())
        if self.sup or not top < math.inf:  # inf or nan without squaring what may overflow
            return top
        if not _far(top):  # ravel: C order, as norms takes each row
            return float(np.linalg.norm(np.ravel(x)))
        return float(self.norms(x[None])[0])

    def norms(self, stack) -> np.ndarray:
        rows = np.asarray(stack).reshape(len(stack), -1)
        if rows.dtype.kind not in "fc":
            rows = rows.astype(float)
        if rows.strides[1] != rows.itemsize:  # as in a component-major stack: the
            rows = np.ascontiguousarray(rows)  # matmul would add in another order
        # each row's largest modulus: np.max's bits at a tenth of its cost on short rows
        tops = functools.reduce(np.maximum, np.abs(rows).T)
        if self.sup:
            return tops
        # np.linalg.norm flattens and takes sqrt(dot(x, x)), or for complex
        # entries sqrt(dot(re, re) + dot(im, im)); rows scaled as _far says
        parts = [rows.real, rows.imag] if rows.dtype.kind == "c" else [rows]
        far = _far(tops)
        exps = None
        if far.any():
            exps = np.where(far, 2 * ((np.frexp(tops)[1] + 1) // 2), 0)
            parts = [np.ldexp(part, -exps[:, None]) for part in parts]
        # the stacked matmul adds each row's products as dot does; an
        # elementwise sum of products or einsum rounds differently.  Squares
        # overflow only beside an inf entry, norms only past the float range
        with np.errstate(over="ignore"):
            squares = (parts[0][:, None, :] @ parts[0][:, :, None]).ravel()
            if len(parts) == 2:
                squares = squares + (parts[1][:, None, :] @ parts[1][:, :, None]).ravel()
            norms = np.sqrt(squares)
            return norms if exps is None else np.ldexp(norms, exps)

    def from_flat(self, coords):
        c = np.asarray(coords, dtype=float)
        if self.kind == "c":
            return (c[0::2] + 1j * c[1::2]).reshape(self.shape)
        return c.reshape(self.shape).copy()

    def to_components(self, x):
        if self.kind == "c":
            x = np.stack([x.real, x.imag], axis=-1)
        return x.astype(float).tolist()


def EuclideanSpace(dim: int) -> ArraySpace:
    """R^dim with the Euclidean norm."""
    return ArraySpace(f"r{dim}", (dim,))


def MaxNormSpace(dim: int) -> ArraySpace:
    """R^dim with the max (sup) norm."""
    return ArraySpace(f"r{dim}max", (dim,), sup=True)


def ComplexEuclideanSpace(dim: int) -> ArraySpace:
    """C^dim with the Euclidean norm of the moduli."""
    return ArraySpace(f"c{dim}", (dim,), kind="c")


def MatrixSpace(rows: int, cols: int) -> ArraySpace:
    """Real rows x cols matrices with the Frobenius norm."""
    return ArraySpace(f"m{rows}{cols}", (rows, cols))


@dataclass(eq=False)
class VectorFunction:
    """A function ``f: R -> space`` with optional derivative information.

    A batched form left out gets a fallback that reads this instance's
    one-point form, in a ``dataclasses.replace`` copy too.  A copy keeps
    every form it does not replace.  A registry function's ``f``, ``df``
    and ``df_sup`` are row 0 of its batched forms at one-point arrays, so
    a copy replacing a form on either side should replace its partner too
    (``None`` for a batched form's fallback).

    Parameters
    ----------
    space : NormedSpace
        Codomain of the function.
    f : callable
        Evaluates ``f(t)`` and returns an element of ``space``.
    f_many : callable, optional
        Batched form of ``f``: maps a float array ``ts`` of shape ``(N,)``
        to an array of shape ``(N, *element_shape)`` whose row ``k`` is
        ``f(ts[k])`` bit for bit (shape ``(N,)`` in the scalar space), in
        any memory layout; it is read, never written.  The rule pass
        (``apply_rule`` and both drivers) and the reference oracle sample
        through it, by way of the one sampler, ``_simpson.samples``: where
        a batch raises, it is redone one point at a time (through ``f`` in
        the rule pass), so that the error raised is the first failing
        point's.  Rows that differ from ``f`` move rule values by as much
        as the rows do.  When omitted, a fallback calls ``f`` once per
        sample.
    df : callable, optional
        Analytic derivative ``f'(t)``.  Preferred derivative source.
    df_many : callable, optional
        Batched form of the derivative, with ``f_many``'s shape contract:
        row ``k`` of ``df_many(ts)`` is ``df(ts[k])`` bit for bit.  The
        L1/Lp and sampled sup seminorms and level 1 sample through it, so
        it is a derivative source without ``df``.  When omitted, a
        fallback takes one derivative sample per point (``df``, else
        finite differences).  So ``VectorFunction(space=fn.space, f=fn.f,
        df=fn.df)`` of a registry function ``fn`` samples through the
        fallbacks, at 3-9 us a sample, its one-point forms being calls of
        the batched ones; pass ``f_many`` and ``df_many`` too, or copy
        ``fn`` with ``dataclasses.replace``.
    df_sup : callable, optional
        ``df_sup(lo, hi)`` returns an upper bound for the sup of
        ``norm(f'(t))`` over ``[lo, hi]``.  The only source that yields
        certified sup-norm seminorms.
    df_sup_many : callable, optional
        Batched ``df_sup`` over arrays ``lo``, ``hi`` of shape ``(N,)``:
        entry ``k`` is ``df_sup(lo[k], hi[k])`` bit for bit (unread where
        ``lo[k] == hi[k]``).  When omitted, a fallback calls ``df_sup`` once
        per segment in order; giving it without ``df_sup`` is an error.
    fd_step : float, optional
        Step for the central finite-difference fallback used when no
        analytic derivative is supplied.  Samples from this source are not
        certified and the function must be evaluable slightly outside the
        integration interval.
    name : str
        Display name used in reports.
    """

    space: NormedSpace
    f: Callable[[float], Element]
    df: Callable[[float], Element] | None = None
    df_sup: Callable[[float, float], float] | None = None
    fd_step: float | None = None
    name: str = ""
    f_many: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    df_many: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    df_sup_many: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        for name in ("f_many", "df_many", "df_sup_many"):
            fallback = getattr(self, f"_{name}_fallback")
            # one copied by dataclasses.replace reads the original's forms
            if getattr(getattr(self, name), "__func__", None) is fallback.__func__:
                setattr(self, name, None)
            if getattr(self, name) is None and (name != "df_sup_many" or self.df_sup is not None):
                setattr(self, name, fallback)
        if self.df_sup is None and self.df_sup_many is not None:
            raise ValueError("df_sup_many needs df_sup, its one-segment form")
        if self.fd_step is not None:
            step = float(self.fd_step)
            if not math.isfinite(step) or step <= 0.0:
                raise ValueError(f"fd_step must be a positive float, got {self.fd_step!r}")
            self.fd_step = step

    def _f_many_fallback(self, ts: np.ndarray) -> np.ndarray:
        return _stacked([self.f(t) for t in ts.tolist()])

    def _df_many_fallback(self, ts: np.ndarray) -> np.ndarray:
        return _stacked([self.df_at(t) for t in ts.tolist()])

    def _df_sup_many_fallback(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # one call per segment in order, each value checked as it is met
        values = []
        for a, b in zip(lo.tolist(), hi.tolist()):
            value = 0.0 if a == b else float(self.df_sup(a, b))
            if not 0.0 <= value < math.inf:
                raise ValueError(f"sup-envelope of {self.name or '<anonymous>'} returned {value!r}")
            values.append(value)
        return np.array(values, dtype=float)

    @property
    def has_derivative_source(self) -> bool:
        return (self.df is not None or self.fd_step is not None
                or getattr(self.df_many, "__func__", None) is not self._df_many_fallback.__func__)

    def df_at(self, t: float) -> Element:
        """Derivative sample at ``t``: analytic if available, else central
        finite differences with ``fd_step``."""
        if self.df is not None:
            return self.df(t)
        if self.fd_step is not None:
            h = self.fd_step
            return self.space.scale(
                1.0 / (2.0 * h), self.space.subtract(self.f(t + h), self.f(t - h))
            )
        raise ValueError(
            f"function {self.name or '<anonymous>'} has no derivative source "
            "(neither df nor fd_step supplied)"
        )

    def df_norms(self, ts: np.ndarray) -> np.ndarray:
        """``norm(f'(t))`` at each point of ``ts``, from ``df_many``.  A
        value that is not finite raises ``ValueError`` naming the first
        point that gives one (``_simpson.check_finite``)."""
        values = self.space.norms(self.df_many(ts))
        check_finite(values, ts, f"nonfinite derivative sample for {self.name or '<anonymous>'}")
        return values


def _stacked(samples: list) -> np.ndarray:
    out = np.array(samples)
    return out if out.dtype.kind in "fc" else out.astype(float)
