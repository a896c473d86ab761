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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._simpson import simpson_scalar
from .geometry import Interval, NormRegime
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
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    value, certified = _estimate(fn, interval.a, interval.b, regime, resolution)
    return SeminormEstimate(value, regime, interval, certified, resolution)


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


def _estimate(
    fn: VectorFunction, lo: float, hi: float, regime: NormRegime, resolution: int
) -> tuple[float, bool]:
    """``(value, certified)`` of the seminorm on [lo, hi], for finite
    ``lo <= hi`` and ``resolution >= 2``."""
    if lo == hi:
        return 0.0, True

    if regime.kind == "linf":
        if fn.df_sup is not None:
            value = float(fn.df_sup(lo, hi))
            if not math.isfinite(value) or value < 0.0:
                raise _bad_envelope(fn, value)
            return value, True
        if not fn.has_derivative_source:
            raise ValueError(
                f"function {fn.name or '<anonymous>'} has neither a sup-envelope "
                "nor a derivative source for the linf seminorm"
            )
        h = (hi - lo) / resolution
        best = 0.0
        for k in range(resolution + 1):
            t = lo + k * h if k < resolution else hi
            v = fn.df_norm_at(t)
            if v > best:
                best = v
        return best, False

    power = regime.integral_exponent
    integral = simpson_scalar(lambda t: fn.df_norm_at(t) ** power, lo, hi, resolution)
    # tiny negative values can appear for an identically-zero integrand
    integral = max(integral, 0.0)
    value = integral if power == 1.0 else integral ** (1.0 / power)
    return value, False
