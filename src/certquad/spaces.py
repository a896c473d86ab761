"""Finite-dimensional normed spaces and vector-valued function wrappers.

Elements are plain Python floats (scalar space) or numpy arrays (everything
else); the space object supplies the norm and the zero element.  All
reductions over elements happen in a fixed left-to-right order so repeated
runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "Element",
    "NormedSpace",
    "ScalarSpace",
    "EuclideanSpace",
    "MaxNormSpace",
    "ComplexEuclideanSpace",
    "MatrixSpace",
    "VectorFunction",
]

Element = Any


class NormedSpace:
    """Base class for the two concrete spaces below.

    Subclasses define ``label`` (the name used in reports and on the
    command line), ``zero``, ``norm``, membership, and flat real
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

    def add(self, x: Element, y: Element) -> Element:
        return x + y

    def scale(self, lam: float, x: Element) -> Element:
        return lam * x

    def subtract(self, x: Element, y: Element) -> Element:
        return self.add(x, self.scale(-1.0, y))

    def is_element(self, x: Element) -> bool:
        raise NotImplementedError

    def from_flat(self, coords) -> Element:
        """Build an element from ``flat_dim`` real coordinates."""
        raise NotImplementedError

    def to_components(self, x: Element):
        """Nested list of plain floats for report serialisation."""
        raise NotImplementedError

    def random(self, rng: np.random.Generator) -> Element:
        """Element with coordinates uniform in [-1, 1]; used by tests."""
        return self.from_flat(rng.uniform(-1.0, 1.0, self.flat_dim))


def _is_real_scalar(x) -> bool:
    return isinstance(x, (int, float, np.floating, np.integer)) and not isinstance(
        x, bool
    )


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

    def is_element(self, x) -> bool:
        return _is_real_scalar(x)

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
        if self.sup:
            return float(np.max(np.abs(x)))
        return float(np.linalg.norm(x))

    def is_element(self, x) -> bool:
        return (isinstance(x, np.ndarray) and x.shape == self.shape
                and x.dtype.kind == self.kind)

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

    Parameters
    ----------
    space : NormedSpace
        Codomain of the function.
    f : callable
        Evaluates ``f(t)`` and returns an element of ``space``.
    f_many : callable, optional
        Batched form of ``f``: maps a float array ``ts`` of shape ``(N,)``
        to an array of shape ``(N, *element_shape)`` whose row ``k`` is
        ``f(ts[k])`` (shape ``(N,)`` in the scalar space).  When omitted,
        a fallback calls ``f`` once per sample.
    df : callable, optional
        Analytic derivative ``f'(t)``.  Preferred derivative source.
    df_sup : callable, optional
        ``df_sup(lo, hi)`` returns an upper bound for the sup of
        ``norm(f'(t))`` over ``[lo, hi]``.  The only source that yields
        certified sup-norm seminorms.
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

    def __post_init__(self) -> None:
        if self.f_many is None:
            self.f_many = self._f_many_fallback
        if self.fd_step is not None:
            step = float(self.fd_step)
            if not math.isfinite(step) or step <= 0.0:
                raise ValueError(f"fd_step must be a positive float, got {self.fd_step!r}")
            self.fd_step = step

    def _f_many_fallback(self, ts: np.ndarray) -> np.ndarray:
        out = np.array([self.f(t) for t in ts.tolist()])
        return out if out.dtype.kind in "fc" else out.astype(float)

    @property
    def has_derivative_source(self) -> bool:
        return self.df is not None or self.fd_step is not None

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

    def df_norm_at(self, t: float) -> float:
        """``norm(f'(t))`` with a finiteness check on the sample."""
        value = self.space.norm(self.df_at(t))
        if not math.isfinite(value):
            raise ValueError(
                f"nonfinite derivative sample for {self.name or '<anonymous>'} at t={t!r}"
            )
        return value
