"""Derivative seminorm estimates consumed by the certificate formulas.

For a function f with derivative f' the bounds need, per segment or
globally, one of

    L1:   integral of norm(f'(t)) dt
    Lp:   (integral of norm(f'(t))**p dt) ** (1/p)
    Linf: ess sup of norm(f'(t))

L1/Lp values are estimated by composite Simpson on ``resolution`` panels
and are therefore never certified.  Linf values come from the function's
analytic sup-envelope when it has one (certified), otherwise from the
maximum over ``resolution + 1`` equispaced samples (not certified; the
sample grids are nested under doubling, so estimates grow monotonically
with resolution).

Derivative samples, ``VectorFunction.df_norms`` (``df_many``, then the
space's ``norms``), go through the one sampler, ``_simpson.samples``, in
calls of at most ``SAMPLE_CHUNK`` points.  Under L1 and Lp all segments of
a call are sampled together (``_simpson.simpson_rows``), each folded in
the one-sample loop's order, so every value is the one that loop gives,
bit for bit; a call that fails is redone segment by segment, and a batch
that fails there one point at a time, so the error raised is the first
one that loop meets.  p-th powers for p > 1 are
``geometry._powers``, inf past the float range.  When their Simpson sum
overflows to inf, the integral is taken again with every sample divided
by the largest on the grid, and that scale is undone after the root.
Where the sum still overflows, as on an interval whose length passes the
float range, the interval is scaled by a power of two, also undone.

One estimator, :func:`segment_seminorms`, serves the segments of many
panels at once; the level-2 and level-3 kernels call it, and
:func:`seminorm` for one interval.  Only it reads and checks the
sup-envelope, ``VectorFunction.df_sup_many``, once for all its segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._simpson import sample_grid, sample_points, samples, simpson_rows, simpson_scalar
from .geometry import LINF, Interval, NormRegime, _powers
from .rules import QuadratureRule, _cut_points
from .spaces import VectorFunction

__all__ = [
    "DEFAULT_RESOLUTION",
    "SeminormEstimate",
    "SeminormProfile",
    "seminorm",
    "seminorm_profile",
]

DEFAULT_RESOLUTION = 4096


@dataclass(frozen=True)
class SeminormEstimate:
    """One derivative-seminorm value on one interval.

    ``certified`` is True only when the value is a rigorous upper bound:
    sup-envelope output or the exact zero of a degenerate interval.
    """

    value: float
    regime: NormRegime
    interval: Interval
    certified: bool
    resolution: int


@dataclass(frozen=True)
class SeminormProfile:
    """Per-segment seminorms for a rule.

    ``segments`` holds n+1 estimates aligned with [a, x_1], [x_i, x_{i+1}]
    for i = 1..n-1, and [x_n, b], all in one norm regime.
    """

    segments: tuple[SeminormEstimate, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a profile needs at least one segment")
        for seg in self.segments:
            if seg.regime != self.regime:
                raise ValueError("profile segments disagree on the norm regime")

    @property
    def regime(self) -> NormRegime:
        return self.segments[0].regime


def seminorm(
    fn: VectorFunction,
    interval: Interval,
    regime: NormRegime,
    resolution: int = DEFAULT_RESOLUTION,
) -> SeminormEstimate:
    """Estimate the derivative seminorm of ``fn`` on ``interval``.

    See the module docstring for the estimator used per regime.  Degenerate
    intervals yield 0 for every regime (certified; the exact value).
    """
    values, exact = segment_seminorms(fn, regime, [interval.a], [interval.b], resolution)
    return SeminormEstimate(float(values[0]), regime, interval, bool(exact[0]), resolution)


def seminorm_profile(
    fn: VectorFunction,
    rule: QuadratureRule,
    interval: Interval,
    regime: NormRegime,
    resolution: int = DEFAULT_RESOLUTION,
) -> SeminormProfile:
    """Per-segment estimates for ``rule`` on ``interval``."""
    cuts = _cut_points(rule, interval.a, interval.b).tolist()
    return SeminormProfile(tuple(
        seminorm(fn, Interval(lo, hi), regime, resolution)
        for lo, hi in zip(cuts, cuts[1:])
    ))


def segment_seminorms(
    fn: VectorFunction, regime: NormRegime, los, his, resolution: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(values, exact)``: the seminorm on each segment ``[los[k],
    his[k]]`` and its certified flag, a float and a bool array of their
    shape.  Envelopes come from one ``df_sup_many`` call and are all
    certified.  Under L1 and Lp one Simpson sweep samples all the other
    segments, then each is finished in order, overflows rescued; when the
    sweep fails the segments are redone one at a time, so a failing
    segment raises what it raises when met alone.  Only the degenerate
    segments, exactly 0, are certified."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    name = fn.name or "<anonymous>"
    if regime.kind == "linf" and fn.df_sup_many is not None:
        values = np.asarray(fn.df_sup_many(los.ravel(), his.ravel()), dtype=float)
        if values.shape != (los.size,):
            raise ValueError(f"df_sup_many of {name} gave shape {values.shape}, not {(los.size,)}")
        values = np.where(los == his, 0.0, values.reshape(los.shape))
        bad = ~((values >= 0.0) & (values < math.inf))
        if bad.any():
            raise ValueError(f"sup-envelope of {name} returned {float(values[bad][0])!r}")
        return values, np.ones(los.shape, dtype=bool)
    lo, hi = los.ravel(), his.ravel()
    integrals = [None] * lo.size
    if regime.kind != "linf":
        power = regime.integral_exponent
        try:
            integrals = simpson_rows(
                lambda ts, rows: samples(lambda t: _integrand(fn, power, t), ts), lo, hi, resolution
            ).tolist()
        except Exception:
            # the per-segment loop, rescues included, raises its first error
            for x, y in zip(lo.tolist(), hi.tolist()):
                _estimate(fn, x, y, regime, resolution)
            raise
    values = np.array([
        _estimate(fn, x, y, regime, resolution, integral)
        for x, y, integral in zip(lo.tolist(), hi.tolist(), integrals)
    ], dtype=float).reshape(los.shape)
    return values, los == his


def _integrand(fn: VectorFunction, power: float, ts: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``(norm(f'(t)) / scale) ** power`` at each point of ``ts``."""
    # x / 1.0 and x ** 1.0 are x exactly: L1 takes the norms as they are.
    # Other powers are _powers': a square is one multiply, the rest Python's
    # ** per sample (np.power rounds differently), inf past the float range
    norms = fn.df_norms(ts) / scale
    return norms if power == 1.0 else _powers(norms, power)


def _estimate(
    fn: VectorFunction, lo: float, hi: float, regime: NormRegime, resolution: int,
    integral: float | None = None,
) -> float:
    """The seminorm on [lo, hi] from derivative samples, for finite ``lo
    <= hi``, ``resolution >= 2`` and no sup-envelope under linf; exact only
    where ``lo == hi``.  Under L1 and Lp, ``integral``, if given, is the
    first Simpson integral of the p-th powers, already taken."""
    if lo == hi:
        return 0.0

    if regime.kind == "linf":
        if not fn.has_derivative_source:
            raise ValueError(
                f"function {fn.name or '<anonymous>'} has neither a sup-envelope "
                "nor a derivative source for the linf seminorm"
            )
        best = 0.0
        points = sample_points(lo, hi, resolution)[1]
        with np.errstate(all="ignore"):  # df_norms raises on overflow
            for ts in sample_grid(points, hi, resolution, range(resolution + 1)):
                best = max(best, float(np.max(samples(fn.df_norms, ts))))
        return best

    power = regime.integral_exponent
    scale = 1.0
    if integral is None:
        integral = simpson_scalar(lambda ts: _integrand(fn, power, ts), lo, hi, resolution)
    if not integral < math.inf:  # nan where a step of 0 meets an inf sum
        # a power or the sum past the float range: divide each sample by the
        # largest on Simpson's grid, so that no scaled sample passes 1 and
        # no power overflows, and undo after the root
        scale = _estimate(fn, lo, hi, LINF, 2 * resolution)
        integral = simpson_scalar(lambda ts: _integrand(fn, power, ts, scale), lo, hi, resolution)
    length = 1.0
    if integral == math.inf:
        # the length past the float range too: integrate over [lo, hi] / L,
        # L = 2**k within a factor 4 of hi - lo, at the points scaled back
        # by L, and undo L after the root
        length = math.ldexp(1.0, math.frexp(hi / 2.0 - lo / 2.0)[1] - 1)
        integral = simpson_scalar(
            lambda us: _integrand(fn, power, us * length, scale), lo / length, hi / length,
            resolution,
        )
    # tiny negative values can appear for an identically-zero integrand
    integral = max(integral, 0.0)
    value = integral if power == 1.0 else integral ** (1.0 / power)
    return value * scale * length ** (1.0 / power)
