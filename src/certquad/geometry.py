"""Interval geometry, norm regimes, and the weighted-distance integral ``mu``.

``mu`` is the single geometric primitive behind every certificate in this
package: for an exponent s in [1, inf] it measures the distance function
|t - c| over an interval [a, b], integrated for finite s and maximised for
s = inf (``INF``, which is ``float("inf")``). All values come from closed
forms; nothing here integrates numerically.

Every form of ``mu`` lives here: ``_mu_arrays``, which the certificate
levels call on many segments at once, :func:`mu`, which validates one
segment and reads it back from ``_mu_arrays``, and the logarithm
``_mu_log`` (for q > 30).  Powers go through Python floats and overflow
to inf.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._simpson import sample_points

__all__ = [
    "INF",
    "Interval",
    "NormRegime",
    "Partition",
    "L1",
    "LINF",
    "lp",
    "conjugate_exponent",
    "mu",
    "uniform_partition",
]


#: The exponent selecting the max(|t - c|) branch of :func:`mu`: it is
#: ``float("inf")``, and no arithmetic is done with it.
INF = math.inf


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval ``[a, b]`` with ``a <= b``.

    ``a == b`` is allowed and treated as the degenerate case throughout the
    package (zero length, zero certificates).
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if self.a > self.b:
            raise ValueError(
                f"interval endpoints out of order: a={self.a!r} > b={self.b!r}"
            )


@dataclass(frozen=True)
class Partition:
    """Ordered breakpoints ``a = t_0 <= t_1 <= ... <= t_m = b`` of an interval.

    The first and last breakpoints must equal the interval endpoints exactly
    (bitwise); construct breakpoints accordingly, e.g. via
    :func:`uniform_partition`.
    """

    interval: Interval
    breakpoints: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(t) for t in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2:
            raise ValueError("a partition needs at least two breakpoints")
        if pts[0] != self.interval.a or pts[-1] != self.interval.b:
            raise ValueError("partition breakpoints must start at a and end at b")
        for lo, hi in zip(pts, pts[1:]):
            if hi < lo:
                raise ValueError("partition breakpoints must be nondecreasing")

    @property
    def panels(self) -> tuple[Interval, ...]:
        return tuple(
            Interval(lo, hi) for lo, hi in zip(self.breakpoints, self.breakpoints[1:])
        )


def uniform_partition(interval: Interval, panels: int) -> Partition:
    """Split ``interval`` into ``panels`` equal panels.

    The last breakpoint is set to ``interval.b`` exactly rather than
    accumulated, so the partition always validates.  The others are the
    points ``a + k*h`` of ``_simpson.sample_points``, which stay finite
    where ``b - a`` overflows.
    """
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    a, b = interval.a, interval.b
    pts = sample_points(a, b, panels)[1](np.arange(panels)).tolist()
    pts[0] = a + 0.0  # a itself, with -0.0 as 0.0, as a + 0*h gives
    pts.append(b)
    return Partition(interval, tuple(pts))


@dataclass(frozen=True)
class NormRegime:
    """Which derivative seminorm a certificate is stated against.

    ``kind`` is one of ``"l1"``, ``"lp"`` (with finite ``p > 1``) or
    ``"linf"``.  The conjugate exponent ``q = p/(p-1)`` is exposed for the
    ``lp`` regime only.
    """

    kind: str
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("l1", "lp", "linf"):
            raise ValueError(f"unknown regime kind: {self.kind!r}")
        if self.kind == "lp":
            if self.p is None:
                raise ValueError("lp regime needs an exponent p")
            p = float(self.p)
            if not math.isfinite(p) or p <= 1.0:
                raise ValueError(f"lp regime needs finite p > 1, got {self.p!r}")
            object.__setattr__(self, "p", p)
        elif self.p is not None:
            raise ValueError(f"regime {self.kind!r} takes no exponent parameter")

    @property
    def q(self) -> float:
        """Conjugate exponent of ``p`` (lp regime only)."""
        if self.kind != "lp":
            raise ValueError(f"conjugate exponent undefined for regime {self.kind!r}")
        return conjugate_exponent(self.p)

    @property
    def label(self) -> str:
        if self.kind == "lp":
            return f"lp:{self.p:g}"
        return self.kind

    @property
    def integral_exponent(self) -> float:
        """Power applied to the derivative norm in L1/Lp seminorm integrals."""
        if self.kind == "l1":
            return 1.0
        if self.kind == "lp":
            return float(self.p)
        raise ValueError("the linf regime has no integral exponent")


L1 = NormRegime("l1")
LINF = NormRegime("linf")


def lp(p: float) -> NormRegime:
    """Regime stated against the Lp norm of the derivative, ``1 < p < inf``."""
    return NormRegime("lp", p)


def conjugate_exponent(p: float) -> float:
    """Return ``q`` with ``1/p + 1/q = 1`` for finite ``p > 1``."""
    p = float(p)
    if not math.isfinite(p) or p <= 1.0:
        raise ValueError(f"conjugate exponent needs finite p > 1, got {p!r}")
    return p / (p - 1.0)


def _validate_mu_exponent(exponent):
    try:
        p = float(exponent)
    except (TypeError, ValueError):
        raise ValueError(f"mu exponent must be a real >= 1 or INF, got {exponent!r}")
    if not p >= 1.0:  # nan, -inf and p < 1
        raise ValueError(f"mu exponent must be >= 1, got {exponent!r}")
    return p


def mu(exponent, a: float, c: float, b: float) -> float:
    """Closed-form weighted distance of ``c`` to the interval ``[a, b]``.

    For a finite exponent ``p >= 1`` this is the integral over [a, b] of
    ``|t - c|**p``::

        (1/(p+1)) * ((b-c)**(p+1) - (a-c)**(p+1))   if c < a
        (1/(p+1)) * ((c-a)**(p+1) + (b-c)**(p+1))   if a <= c <= b
        (1/(p+1)) * ((c-a)**(p+1) - (c-b)**(p+1))   if c > b

    For ``INF``, which is ``float("inf")``, it is the maximum of ``|t - c|``
    over [a, b]: ``b - c`` below the interval, ``c - a`` above it, and
    ``(b-a)/2 + |c - (a+b)/2|`` inside.

    The degenerate interval ``a == b`` returns 0 for every exponent.  The
    branch boundaries ``c == a`` and ``c == b`` resolve to the middle form;
    the branches agree there, so the choice is only a tie-break.
    """
    p = _validate_mu_exponent(exponent)
    a = float(a)
    c = float(c)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError("mu arguments must be finite")
    if a > b:
        raise ValueError(f"mu needs a <= b, got a={a!r}, b={b!r}")
    with np.errstate(all="ignore"):
        return _mu_arrays(p, np.array(a), np.array(c), np.array(b)).item()


def _exp(x: float) -> float:
    """``math.exp(x)``, overflowing to inf instead of raising."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _logaddexp(u: float, v: float) -> float:
    if u == -math.inf:
        return v
    if v == -math.inf:
        return u
    hi, lo = (u, v) if u >= v else (v, u)
    return hi + math.log1p(math.exp(lo - hi))


def _logsubexp(u: float, v: float) -> float:
    # log(exp(u) - exp(v)) for u > v
    if v == -math.inf:
        return u
    return u + math.log1p(-math.exp(v - u))


def _mu_log(q: float, a: float, c: float, b: float) -> float:
    """log(mu(q, a, c, b)) computed without forming q-th powers."""
    if a == b:
        return -math.inf
    r = q + 1.0
    log_r = math.log(r)
    if c < a:
        return _logsubexp(r * math.log(b - c), r * math.log(a - c)) - log_r
    if c > b:
        return _logsubexp(r * math.log(c - a), r * math.log(c - b)) - log_r
    u = r * math.log(c - a) if c > a else -math.inf
    v = r * math.log(b - c) if c < b else -math.inf
    return _logaddexp(u, v) - log_r


def _libm_map(func, x: np.ndarray, *args: float) -> np.ndarray:
    """``func(v, *args)`` from ``math`` at each entry ``v`` of ``x``, in
    ``x``'s shape: libm's bits, which numpy's ``exp`` and ``power`` do not
    give, and inf where ``math`` raises ``OverflowError``; its other errors
    (``ValueError`` for ``sin`` at an infinity) pass through."""
    values = x.ravel().tolist()
    try:
        out = np.fromiter(map(func, values, *map(itertools.repeat, args)), float, len(values))
    except OverflowError:  # rare, so only then a call per element
        out = np.empty(len(values))
        for k, v in enumerate(values):
            try:
                out[k] = func(v, *args)
            except OverflowError:
                out[k] = math.inf
    return out.reshape(x.shape)


def _powers(x: np.ndarray, y: float) -> np.ndarray:
    """``x ** y`` element by element for ``x >= 0`` or nan, by ``math.pow``
    (``_libm_map``): Python's ``**`` bit for bit, overflowing to inf.
    Squares are ``x * x``, correctly rounded as ``pow`` is not always;
    callers silence numpy's overflow warning."""
    return x * x if y == 2.0 else _libm_map(math.pow, x, y)


def _mu_arrays(p, lo: np.ndarray, c: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`mu` element by element, for ``p`` INF or a float >= 1 and
    finite ``lo <= hi`` and ``c`` of one shape (the kernels pass segment-major
    rows, one per piece), unchecked; callers silence numpy's overflow
    warnings.  Outside the segment the two powers' difference is inf once
    they overflow, never nan (``lo - c`` is ``-(c - lo)`` exactly, so each
    branch's powers are those of the distances)."""
    below, above = c < lo, c > hi
    left, right = c - lo, hi - c
    if p == INF:
        inside = 0.5 * (hi - lo) + np.abs(c - 0.5 * (lo + hi))
        out = np.where(below, right, np.where(above, left, inside))
    else:
        r = p + 1.0
        left, right = _powers(np.abs(left), r), _powers(np.abs(right), r)
        out = np.where(below, right - left, np.where(above, left - right, left + right)) / r
        # outside the segment both powers can overflow: the gap is inf,
        # not inf - inf
        out = np.where(np.isnan(out), math.inf, out)
    return np.where(lo == hi, 0.0, out)
