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
  seminorm over [a, b].  Coarsest and cheapest; its factor on [0, 1],
  ``level3_factor(rule, Interval(0, 1), regime)``, is the rule's constant.

Mathematically level1 <= level2 <= level3 for every regime; the levels are
computed by independent code paths (level 3 does not reuse level 2's
per-segment factors), so the inequality doubles as a cross-check in tests.

Each level has one array form over N panels, ``_level1_rows``,
``_level2_rows`` and ``_level3_rows``, returning the arrays
``(contributions, bounds, certified)``; ``_certificate_rows`` picks one by
level, and every one-interval function here is a one-row call.  They
work segment-major, on contiguous rows that each hold one piece of every panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._simpson import samples, simpson_rows, simpson_scalar
from .geometry import INF, Interval, NormRegime, _exp, _mu_arrays, _mu_log, _powers
from .rules import QuadratureRule, _pieces
from .seminorms import DEFAULT_RESOLUTION, SeminormEstimate, SeminormProfile, segment_seminorms
from .spaces import VectorFunction

__all__ = [
    "ErrorCertificate",
    "bound_level1",
    "bound_level2",
    "bound_level3",
    "level2_certificate",
    "level3_factor",
]

# above this conjugate exponent, q-th powers go through logarithms so that
# wide intervals cannot overflow the intermediate bracket
_LOG_SPACE_Q = 30.0


@dataclass(frozen=True, slots=True)
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
    rows = _level1_rows(fn, rule, regime, [interval.a], [interval.b], resolution)
    return _certificates(rule, regime, 1, [interval], rows)[0]


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Each column of the segment-major ``rows`` summed from 0.0, a row at a
    time, as a running ``+=`` over one panel's pieces; callers silence numpy's warnings."""
    sums = np.zeros(rows.shape[1])
    for row in rows:
        sums += row
    return sums


def _level1_rows(fn, rule, regime, a, b, resolution=DEFAULT_RESOLUTION) -> tuple:
    """Level-1 certificates of ``rule`` on the panels ``[a[k], b[k]]``, as
    the arrays ``(contributions, bounds, certified)``: one Simpson integral
    per Peano-kernel piece (two where its centre lies inside), the pieces
    of all panels sampled together by one :func:`simpson_rows` call, and
    redone one at a time in panel order when that call fails; none certified,
    and ``regime`` unread."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    # |t - center| * norm(f'(t)) over (lo, mid) and (mid, hi), mid the centre
    # where it lies inside, so the weight keeps one sign and abs() adds no
    # kink; elsewhere mid = hi, and (hi, hi) gives 0.0; parts by (half, piece, panel)
    los, his, centers = (x.T for x in _pieces(rule, a, b))
    mids = np.where((los < centers) & (centers < his), centers, his)
    lo, hi, c = np.stack((los, mids)), np.stack((mids, his)), np.stack((centers, centers))
    try:
        parts = simpson_rows(
            lambda ts, rows: np.abs(ts - c.ravel()[rows, None]) * samples(fn.df_norms, ts),
            lo.ravel(), hi.ravel(), resolution,
        )
    except Exception:
        # the parts in panel order, so that the error raised is the first one met
        for x, y, center in zip(*(x.transpose(2, 1, 0).ravel().tolist() for x in (lo, hi, c))):
            simpson_scalar(lambda ts: np.abs(ts - center) * fn.df_norms(ts), x, y, resolution)
        raise
    with np.errstate(all="ignore"):
        parts = parts.reshape(lo.shape)
        contribs = parts[0] + parts[1]
        bounds = _row_sums(contribs)
    return contribs.T, bounds, np.zeros(len(bounds), dtype=bool)


def _level2(
    regime: NormRegime, pieces: tuple, values: np.ndarray, exact
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The level-2 arithmetic for N panels at once.

    ``pieces`` is ``(lo, hi, center)`` from ``rules._pieces``, ``values``
    their seminorms and ``exact`` their certified flags, each (N, n+1) and
    read through its transpose: row j, piece j of every panel, contiguous.
    The factors are written into n+1 such rows (the end pieces' rows 0 and
    n), times the seminorms, and summed row by row.  Returns ``(contributions,
    bounds, certified)``, contributions the (N, n+1) view of those rows.  Each
    operation is the scalar formula's, so each panel gets what it gives alone.
    """
    (los, his, centers), values, n = (x.T for x in pieces), values.T, values.shape[1] - 1
    lo, hi, c, factors = los[1:-1], his[1:-1], centers[1:-1], np.empty(values.shape)
    with np.errstate(all="ignore"):
        ends = his[::n] - los[::n]  # rows 0 and n: the two end pieces' lengths
        if regime.kind == "l1":
            factors[::n], factors[1:-1] = ends, _mu_arrays(INF, lo, c, hi)
        elif regime.kind == "linf":
            factors[::n], factors[1:-1] = 0.5 * _powers(ends, 2.0), _mu_arrays(1.0, lo, c, hi)
        elif regime.q <= _LOG_SPACE_Q:
            q = regime.q
            factors[::n] = np.where(
                ends > 0.0, _powers(ends, 1.0 + 1.0 / q) / (q + 1.0) ** (1.0 / q), 0.0
            )
            factors[1:-1] = np.where(hi > lo, _powers(_mu_arrays(q, lo, c, hi), 1.0 / q), 0.0)
        else:
            q = regime.q
            k1, k2 = 1.0 + 1.0 / q, math.log(q + 1.0) / q
            factors[::n].flat = [_exp(k1 * math.log(d) - k2) if d > 0.0 else 0.0
                                 for d in ends.ravel().tolist()]
            factors[1:-1].flat = [_exp(_mu_log(q, l, m, h) / q) if h > l else 0.0
                                  for l, m, h in zip(*(x.ravel().tolist() for x in (lo, c, hi)))]
        # a segment with seminorm 0 contributes 0 even where its factor
        # overflowed (inf * 0 is nan); a finite factor >= 0 times +-0 gives
        # that same zero
        contribs = np.where(values == 0.0, values, factors * values)
        bounds = _row_sums(contribs)
    certified = (bounds == bounds) & exact.T.all(axis=0)  # a nan bound certifies nothing
    return contribs.T, bounds, certified


def _level2_rows(fn, rule, regime, a, b, resolution=DEFAULT_RESOLUTION) -> tuple:
    """Level-2 certificates of ``rule`` on the panels ``[a[k], b[k]]``, as
    the arrays ``(contributions, bounds, certified)`` of :func:`_level2`.

    Row k equals the fields of ``level2_certificate(fn, rule,
    Interval(a[k], b[k]), regime, resolution)`` bit for bit; a failure
    raises what panel order meets first.
    """
    pieces = _pieces(rule, a, b)
    values, exact = segment_seminorms(fn, regime, pieces[0], pieces[1], resolution)
    return _level2(regime, pieces, values, exact)


def _certificates(rule, regime, level, intervals, rows) -> list[ErrorCertificate]:
    """The level-``level`` certificates of the arrays ``rows``, row k on
    ``intervals[k]``."""
    contribs, bounds, certified = (column.tolist() for column in rows)
    return [
        ErrorCertificate(bound, level, regime, tuple(terms), ok, rule.name, interval)
        for interval, bound, terms, ok in zip(intervals, bounds, contribs, certified)
    ]


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
    pieces = _pieces(rule, [interval.a], [interval.b])
    if len(profile.segments) != rule.n + 1:
        raise ValueError(
            f"profile has {len(profile.segments)} segments, rule needs {rule.n + 1}"
        )
    for seg, lo, hi in zip(profile.segments, pieces[0][0].tolist(), pieces[1][0].tolist()):
        _check_alignment(seg.interval, lo, hi, "profile segment")
    values = np.array([[seg.value for seg in profile.segments]], dtype=float)
    exact = np.array([[seg.certified for seg in profile.segments]], dtype=bool)
    rows = _level2(profile.regime, pieces, values, exact)
    return _certificates(rule, profile.regime, 2, [interval], rows)[0]


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
    rows = _level2_rows(fn, rule, regime, [interval.a], [interval.b], resolution)
    return _certificates(rule, regime, 2, [interval], rows)[0]


def level3_factor(rule: QuadratureRule, interval: Interval, regime: NormRegime) -> float:
    """Global geometry factor of the level-3 bound.

    The level-3 bound is this factor times the global seminorm.  It is
    computed directly from the rule geometry (independent of the level-2
    path): a max of segment reaches for l1, a single collapsed bracket for
    lp (q-th powers through logarithms once q > 30) and linf.
    """
    return _level3_factors(rule, regime, [interval.a], [interval.b]).item()


def _level3_factors(rule: QuadratureRule, regime: NormRegime, a, b) -> np.ndarray:
    """:func:`level3_factor` on the panels ``[a[k], b[k]]``.

    l1 takes the largest of the two outer lengths and the interior
    ``mu(INF)``; linf and lp sum ``mu(q)`` over the n+1 pieces left to
    right (linf pairs with q = 1, and at an outer piece, centred on its
    end, ``mu(q)`` is ``length**(q+1) / (q+1)``), then lp takes the q-th
    root.  Past q = 30 each row collapses the pieces' ``_mu_log`` by
    log-sum-exp.
    """
    pieces = _pieces(rule, a, b)
    lo, hi, c = (x.T for x in pieces)  # segment-major rows, as in _level2
    with np.errstate(all="ignore"):
        if regime.kind == "l1":
            reach = hi - lo  # the end pieces' lengths in rows 0 and n
            reach[1:-1] = _mu_arrays(INF, lo[1:-1], c[1:-1], hi[1:-1])
            return reach.max(axis=0)
        q = 1.0 if regime.kind == "linf" else regime.q
        if q > _LOG_SPACE_Q:  # panel by panel
            return np.array([_log_collapse(q, *row) for row in zip(*(x.tolist() for x in pieces))])
        total = _row_sums(_mu_arrays(q, lo, c, hi))
        if regime.kind == "linf":
            return total
        return np.where(total > 0.0, _powers(total, 1.0 / q), 0.0)


def _log_collapse(q: float, lo: list, hi: list, c: list) -> float:
    """The q-th root of the sum of ``mu(q)`` over one panel's pieces."""
    logs = [_mu_log(q, l, m, h) for l, h, m in zip(lo, hi, c) if h > l]
    if not logs:
        return 0.0
    top = max(logs)
    acc = 0.0
    for value in logs:
        acc += math.exp(value - top)
    return _exp((top + math.log(acc)) / q)


def _level3(factors: np.ndarray, values: np.ndarray, exact: np.ndarray) -> tuple:
    """The level-3 arithmetic for N panels at once, as :func:`_level2`'s
    arrays: each panel's factor times its global seminorm in ``values``,
    certified where ``exact`` is and the bound is not nan; no contributions."""
    with np.errstate(all="ignore"):
        # a seminorm 0 bounds the error by 0 even where the factor overflowed
        bounds = np.where(values == 0.0, values, factors * values)
    return np.zeros((len(bounds), 0)), bounds, (bounds == bounds) & exact


def bound_level3(
    global_estimate: SeminormEstimate, rule: QuadratureRule, interval: Interval
) -> ErrorCertificate:
    """Level-3 certificate: one geometry factor times the global seminorm."""
    _check_alignment(global_estimate.interval, interval.a, interval.b, "global seminorm")
    regime = global_estimate.regime
    factors = _level3_factors(rule, regime, [interval.a], [interval.b])
    exact = np.array([global_estimate.certified], dtype=bool)
    rows = _level3(factors, np.array([global_estimate.value]), exact)
    return _certificates(rule, regime, 3, [interval], rows)[0]


def _level3_rows(fn, rule, regime, a, b, resolution=DEFAULT_RESOLUTION) -> tuple:
    """Level-3 certificates of ``rule`` on the panels ``[a[k], b[k]]``, as
    the arrays of :func:`_level3`.  Row k equals the fields of
    ``bound_level3(seminorm(fn, panel, regime, resolution), rule, panel)``
    bit for bit, ``panel`` being ``Interval(a[k], b[k])``."""
    values, exact = segment_seminorms(fn, regime, a, b, resolution)
    return _level3(_level3_factors(rule, regime, a, b), values, exact)


def _certificate_rows(fn, rule, regime, level, a, b, resolution) -> tuple:
    """The level-``level`` certificates of ``rule`` on the panels ``[a[k],
    b[k]]``, as the arrays ``(contributions, bounds, certified)``."""
    if level not in (1, 2, 3):
        raise ValueError(f"certificate level must be 1, 2 or 3, got {level}")
    rows = (_level1_rows, _level2_rows, _level3_rows)[int(level) - 1]
    return rows(fn, rule, regime, a, b, resolution)
