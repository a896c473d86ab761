"""Error certificates for convex-combination rules: a three-level hierarchy.

All levels bound ``norm(integral of f - (b-a) * sum(p_i f(x_i)))`` on an
interval [a, b] with nodes x_i and comparison points xi_i
(:mod:`certquad.rules`).  They trade tightness against the amount of
derivative information consumed:

- level 1 integrates the exact weighted-derivative terms numerically:
  ``(t-a)`` against ``norm(f')`` on [a, x_1], ``|t - xi_i|`` on each
  interior segment, ``(b-t)`` on [x_n, b].  Tightest, never certified.
- level 2 applies Hoelder on each segment, pairing a closed-form geometry
  factor with that segment's seminorm.
- level 3 collapses everything to one geometry factor times the global
  seminorm over [a, b].  Coarsest, cheapest, and the one with closed-form
  constants for the named rules.

Mathematically level1 <= level2 <= level3 for every regime; the levels are
computed by independent code paths (level 3 does not reuse level 2's
per-segment factors), so the inequality doubles as a cross-check in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._simpson import simpson_scalar
from .geometry import INF, Interval, NormRegime, _mu, mu
from .rules import QuadratureRule, _comparison_points, _cut_points, cumulative, nodes_abs
from .seminorms import DEFAULT_RESOLUTION, SeminormEstimate, SeminormProfile, _estimate
from .spaces import VectorFunction

__all__ = [
    "ErrorCertificate",
    "bound_level1",
    "bound_level2",
    "bound_level3",
    "level2_certificate",
    "level3_factor",
    "closed_form_constant",
    "interval_exponent",
]

# above this conjugate exponent, q-th powers go through logarithms so that
# wide intervals cannot overflow the intermediate bracket
_LOG_SPACE_Q = 30.0


@dataclass(frozen=True)
class ErrorCertificate:
    """A rigorous-form error bound together with its provenance.

    ``regime`` is None only for the level-1 majorant, which does not depend
    on a norm regime (callers may stamp one for reporting).  ``certified``
    is True when every seminorm the bound consumed was itself certified;
    level-1 certificates are always uncertified because they integrate
    sampled derivative norms directly.
    """

    bound: float
    level: int
    regime: NormRegime | None
    segment_contributions: tuple[float, ...]
    certified: bool
    rule_name: str
    interval: Interval


def _check_alignment(estimate_interval: Interval, lo: float, hi: float, what: str) -> None:
    # relative to the segment's length (scaled first, so it cannot overflow)
    # plus a few ulps: on a tiny panel a far longer segment must not pass
    tol = (1e-12 * hi - 1e-12 * lo) + 4.0 * math.ulp(max(abs(lo), abs(hi)))
    if abs(estimate_interval.a - lo) > tol or abs(estimate_interval.b - hi) > tol:
        raise ValueError(
            f"{what} interval [{estimate_interval.a}, {estimate_interval.b}] "
            f"does not match the expected segment [{lo}, {hi}]"
        )


def bound_level1(
    fn: VectorFunction,
    rule: QuadratureRule,
    interval: Interval,
    resolution: int = DEFAULT_RESOLUTION,
    regime: NormRegime | None = None,
) -> ErrorCertificate:
    """Level-1 certificate: per-segment weighted-derivative integrals.

    Each segment integral is estimated with composite Simpson on
    ``resolution`` panels.  Interior segments split at their comparison
    point first, so the integrand seen by Simpson has no kink from the
    ``|t - xi_i|`` weight and converges at full order.  The value does not
    depend on ``regime``; the parameter only stamps the certificate.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    a, b = interval.a, interval.b
    xs = nodes_abs(rule, interval)
    cum = cumulative(rule, interval)

    def piece(lo: float, hi: float, center: float) -> float:
        # integral of |t - center| * norm(f'(t)); callers split segments at
        # the comparison point, so the weight keeps one sign per piece and
        # abs() introduces no kink
        if hi <= lo:
            return 0.0
        return simpson_scalar(
            lambda t: abs(t - center) * fn.df_norm_at(t), lo, hi, resolution
        )

    contribs: list[float] = []
    contribs.append(piece(a, xs[0], a))
    for i in range(rule.n - 1):
        lo, hi = xs[i], xs[i + 1]
        point = cum.xi[i]
        if lo < point < hi:
            value = piece(lo, point, point) + piece(point, hi, point)
        else:
            value = piece(lo, hi, point)
        contribs.append(value)
    contribs.append(piece(xs[-1], b, b))

    bound = 0.0
    for c in contribs:
        bound += c
    return ErrorCertificate(
        bound=bound,
        level=1,
        regime=regime,
        segment_contributions=tuple(contribs),
        certified=False,
        rule_name=rule.name,
        interval=interval,
    )


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


def _level2(
    rule: QuadratureRule, interval: Interval, regime: NormRegime, cuts: list, estimates: list
) -> ErrorCertificate:
    """The level-2 arithmetic: one geometry factor per segment of ``cuts``
    (``[a, x_1, ..., x_n, b]``) times that segment's seminorm, the first
    item of its ``(value, certified)`` pair in ``estimates``, summed left
    to right."""
    ends = (cuts[1] - cuts[0], cuts[-1] - cuts[-2])
    mids = zip(cuts[1:-2], _comparison_points(rule, interval.a, interval.b), cuts[2:-1])
    if regime.kind == "l1":
        outer = ends
        inner = [_mu(INF, lo, c, hi) for lo, c, hi in mids]
    elif regime.kind == "linf":
        outer = [0.5 * d ** 2 for d in ends]
        inner = [_mu(1.0, lo, c, hi) for lo, c, hi in mids]
    elif regime.q <= _LOG_SPACE_Q:
        q = regime.q
        outer = [d ** (1.0 + 1.0 / q) / (q + 1.0) ** (1.0 / q) if d > 0.0 else 0.0 for d in ends]
        inner = [_mu(q, lo, c, hi) ** (1.0 / q) if hi > lo else 0.0 for lo, c, hi in mids]
    else:
        q = regime.q
        outer = [math.exp((1.0 + 1.0 / q) * math.log(d) - math.log(q + 1.0) / q)
                 if d > 0.0 else 0.0 for d in ends]
        inner = [math.exp(_mu_log(q, lo, c, hi) / q) if hi > lo else 0.0 for lo, c, hi in mids]
    contribs = tuple(f * v for f, (v, _) in zip((outer[0], *inner, outer[1]), estimates))
    bound = 0.0
    for term in contribs:
        bound += term
    return ErrorCertificate(
        bound=bound,
        level=2,
        regime=regime,
        segment_contributions=contribs,
        certified=all(exact for _, exact in estimates),
        rule_name=rule.name,
        interval=interval,
    )


def bound_level2(
    profile: SeminormProfile, rule: QuadratureRule, interval: Interval
) -> ErrorCertificate:
    """Level-2 certificate: per-segment geometry factors times per-segment
    seminorms.

    The profile must align with the rule's segments on ``interval`` (same
    regime throughout; intervals matching [a, x_1], [x_i, x_{i+1}],
    [x_n, b]).  Factors per regime, with q the conjugate exponent:

    - l1: segment length outside, ``mu(INF, x_i, xi_i, x_{i+1})`` inside.
    - lp: ``len**(1+1/q) / (q+1)**(1/q)`` outside,
      ``mu(q, ...)**(1/q)`` inside.
    - linf: ``len**2 / 2`` outside, ``mu(1, ...)`` inside.
    """
    cuts = _cut_points(rule, interval.a, interval.b)
    if len(profile.segments) != rule.n + 1:
        raise ValueError(
            f"profile has {len(profile.segments)} segments, rule needs {rule.n + 1}"
        )
    for seg, lo, hi in zip(profile.segments, cuts, cuts[1:]):
        _check_alignment(seg.interval, lo, hi, "profile segment")
    estimates = [(seg.value, seg.certified) for seg in profile.segments]
    return _level2(rule, interval, profile.regime, cuts, estimates)


def level2_certificate(
    fn: VectorFunction,
    rule: QuadratureRule,
    interval: Interval,
    regime: NormRegime,
    resolution: int = DEFAULT_RESOLUTION,
) -> ErrorCertificate:
    """Level-2 certificate of ``rule`` on ``interval`` in one pass.

    Equal, field for field, to ``bound_level2(seminorm_profile(fn, rule,
    interval, regime, resolution), rule, interval)``, without building the
    profile: the cut points are computed once and each segment's seminorm
    goes straight into the level-2 arithmetic.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    cuts = _cut_points(rule, interval.a, interval.b)
    estimates = [_estimate(fn, lo, hi, regime, resolution) for lo, hi in zip(cuts, cuts[1:])]
    return _level2(rule, interval, regime, cuts, estimates)


def level3_factor(rule: QuadratureRule, interval: Interval, regime: NormRegime) -> float:
    """Global geometry factor of the level-3 bound.

    The level-3 bound is this factor times the global seminorm.  It is
    computed directly from the rule geometry (independent of the level-2
    path): a max of segment reaches for l1, a single collapsed bracket for
    lp (q-th powers through logarithms once q > 30) and linf.
    """
    a, b = interval.a, interval.b
    xs = nodes_abs(rule, interval)
    cum = cumulative(rule, interval)

    if regime.kind == "l1":
        best = xs[0] - a
        for i in range(rule.n - 1):
            v = mu(INF, xs[i], cum.xi[i], xs[i + 1])
            if v > best:
                best = v
        return max(best, b - xs[-1])

    if regime.kind == "linf":
        total = 0.5 * (xs[0] - a) ** 2
        for i in range(rule.n - 1):
            total += mu(1.0, xs[i], cum.xi[i], xs[i + 1])
        total += 0.5 * (b - xs[-1]) ** 2
        return total

    if regime.kind == "lp":
        q = regime.q
        r = q + 1.0
        if q <= _LOG_SPACE_Q:
            total = (xs[0] - a) ** r / r
            for i in range(rule.n - 1):
                total += mu(q, xs[i], cum.xi[i], xs[i + 1])
            total += (b - xs[-1]) ** r / r
            return total ** (1.0 / q) if total > 0.0 else 0.0
        logs: list[float] = []
        if xs[0] > a:
            logs.append(r * math.log(xs[0] - a) - math.log(r))
        for i in range(rule.n - 1):
            if xs[i + 1] > xs[i]:
                logs.append(_mu_log(q, xs[i], cum.xi[i], xs[i + 1]))
        if b > xs[-1]:
            logs.append(r * math.log(b - xs[-1]) - math.log(r))
        if not logs:
            return 0.0
        top = max(logs)
        acc = 0.0
        for value in logs:
            acc += math.exp(value - top)
        return math.exp((top + math.log(acc)) / q)

    raise ValueError(f"unknown regime kind {regime.kind!r}")  # pragma: no cover


def bound_level3(
    global_estimate: SeminormEstimate, rule: QuadratureRule, interval: Interval
) -> ErrorCertificate:
    """Level-3 certificate: one geometry factor times the global seminorm."""
    _check_alignment(global_estimate.interval, interval.a, interval.b, "global seminorm")
    regime = global_estimate.regime
    factor = level3_factor(rule, interval, regime)
    return ErrorCertificate(
        bound=factor * global_estimate.value,
        level=3,
        regime=regime,
        segment_contributions=(),
        certified=global_estimate.certified,
        rule_name=rule.name,
        interval=interval,
    )


def interval_exponent(regime: NormRegime) -> float:
    """Power of the interval length carried by the level-3 closed forms."""
    if regime.kind == "l1":
        return 1.0
    if regime.kind == "linf":
        return 2.0
    return 1.0 + 1.0 / regime.q


# Closed-form level-3 coefficients of (b-a)**interval_exponent * seminorm
# for the named rules.  The qs/lp entry is the sharp table value; the
# general machinery in level3_factor aggregates the two halves by a
# discrete Hoelder step and therefore returns 2**(1/q) times this number
# for qs, and exactly this number for the other rules (see tests).
_CLOSED_L1 = {
    "trapezoid": 0.5,
    "qt": 0.25,
    "qs": 0.25,
    "simpson": 1.0 / 3.0,
}
_CLOSED_LINF = {
    "trapezoid": 0.25,
    "qt": 0.125,
    "qs": 0.125,
    "simpson": 5.0 / 36.0,
}


def _closed_lp(rule_name: str, q: float) -> float:
    root = (q + 1.0) ** (1.0 / q)
    if rule_name == "trapezoid":
        return 1.0 / (2.0 * root)
    if rule_name == "qt":
        return 1.0 / (4.0 * root)
    if rule_name == "qs":
        return 1.0 / (2.0 ** (2.0 + 1.0 / q) * root)
    if rule_name == "simpson":
        return (2.0 ** (q + 1.0) + 1.0) ** (1.0 / q) / (
            2.0 * 3.0 ** (1.0 + 1.0 / q) * root
        )
    raise ValueError(f"no closed-form constant for rule {rule_name!r}")


def closed_form_constant(rule_name: str, regime: NormRegime) -> float:
    """Tabulated level-3 coefficient for a named rule.

    Multiply by ``(b-a) ** interval_exponent(regime)`` and the global
    seminorm to obtain the bound.  Known rules: trapezoid, qt, qs, simpson.
    """
    if regime.kind == "l1":
        table = _CLOSED_L1
    elif regime.kind == "linf":
        table = _CLOSED_LINF
    else:
        return _closed_lp(rule_name, regime.q)
    try:
        return table[rule_name]
    except KeyError:
        raise ValueError(f"no closed-form constant for rule {rule_name!r}") from None

