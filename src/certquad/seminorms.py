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

Derivative samples are taken in batches of at most ``SAMPLE_CHUNK``
points through ``VectorFunction.df_norms`` (``df_many``, then the space's
``norms``) and folded in the one-sample loop's order, so every value is
the one that loop gives, bit for bit; a batch that fails is redone one
point at a time, so the error raised is the first one that loop meets.
p-th powers for p > 1 are Python ``**`` per sample.  When one raises
``OverflowError`` or the Simpson sum of the powers overflows to inf, the
integral is taken again with every sample scaled by a power of two, and
the scale is undone after the root.  Where that sum still overflows, as
on an interval whose length passes the float range, the interval is
scaled by a power of two as well, and that too is undone after the root.

One estimator, :func:`segment_seminorms`, serves the segments of many
panels at once; the level-2 kernel calls it, and :func:`seminorm` for one
interval.  Only it calls and checks the sup-envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._simpson import SAMPLE_CHUNK, sample_batch, sample_points, simpson_scalar
from .geometry import LINF, Interval, NormRegime
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
    return SeminormEstimate(values[0], regime, interval, exact is True or exact[0], resolution)


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


def _bad_envelope(fn: VectorFunction, value: float) -> ValueError:
    return ValueError(f"sup-envelope of {fn.name or '<anonymous>'} returned {value!r}")


def segment_seminorms(
    fn: VectorFunction, regime: NormRegime, los: list, his: list, resolution: int
) -> tuple[list[float], object]:
    """``(values, exact)``: the seminorm on each segment ``[los[k],
    his[k]]`` (Python floats), with the certified flags as a list, or True
    when every value is certified.  Segments are visited in order, so a
    failing segment raises what it raises when met alone.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    sup = fn.df_sup
    if regime.kind == "linf" and sup is not None:
        values = []
        append, inf = values.append, math.inf
        for lo, hi in zip(los, his):
            if lo == hi:
                append(0.0)
                continue
            value = float(sup(lo, hi))
            if not 0.0 <= value < inf:
                raise _bad_envelope(fn, value)
            append(value)
        return values, True
    pairs = [_estimate(fn, lo, hi, regime, resolution) for lo, hi in zip(los, his)]
    return [value for value, _ in pairs], [exact for _, exact in pairs]


def _estimate(
    fn: VectorFunction, lo: float, hi: float, regime: NormRegime, resolution: int
) -> tuple[float, bool]:
    """``(value, certified)`` of the seminorm on [lo, hi] from derivative
    samples, for finite ``lo <= hi``, ``resolution >= 2`` and no
    sup-envelope under linf."""
    if lo == hi:
        return 0.0, True

    if regime.kind == "linf":
        if not fn.has_derivative_source:
            raise ValueError(
                f"function {fn.name or '<anonymous>'} has neither a sup-envelope "
                "nor a derivative source for the linf seminorm"
            )
        points = sample_points(lo, hi, resolution)[1]
        best = 0.0
        with np.errstate(all="ignore"):  # df_norms raises on overflow
            for start in range(0, resolution + 1, SAMPLE_CHUNK):
                k = np.arange(start, min(start + SAMPLE_CHUNK, resolution + 1))
                ts = points(k)
                if k[-1] == resolution:
                    ts[-1] = hi
                best = max(best, float(np.max(sample_batch(fn.df_norms, ts))))
        return best, False

    power = regime.integral_exponent

    def integrand(ts, scale=1.0):
        # x / 1.0 and x ** 1.0 are x exactly: L1 takes the norms as they are.
        # Other powers are Python's ** per sample, as the one-sample loop took
        # them (np.power rounds differently; ** raises OverflowError past range)
        norms = fn.df_norms(ts) / scale
        return norms if power == 1.0 else np.array([v ** power for v in norms.tolist()])

    scale = 1.0
    try:
        integral = simpson_scalar(integrand, lo, hi, resolution)
    except OverflowError:
        integral = math.inf
    if integral == math.inf:
        # a power or the sum past the float range: scale each sample by
        # 2**-e, e the exponent of the largest on Simpson's grid, and undo
        # after the root
        top = _estimate(fn, lo, hi, LINF, 2 * resolution)[0]
        scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
        integral = simpson_scalar(lambda ts: integrand(ts, scale), lo, hi, resolution)
    length = 1.0
    if integral == math.inf:
        # the length past the float range too: integrate over [lo, hi] / L,
        # L = 2**k within a factor 4 of hi - lo, at the points scaled back
        # by L, and undo L after the root
        length = math.ldexp(1.0, math.frexp(hi / 2.0 - lo / 2.0)[1] - 1)
        integral = simpson_scalar(
            lambda us: integrand(us * length, scale), lo / length, hi / length, resolution
        )
    # tiny negative values can appear for an identically-zero integrand
    integral = max(integral, 0.0)
    value = integral if power == 1.0 else integral ** (1.0 / power)
    return value * scale * length ** (1.0 / power), False
