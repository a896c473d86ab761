"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own closed forms: mu is checked
against a dense midpoint Riemann sum, the collapsed kernel against the
direct sum of elementary kernels, and weighted derivative integrals
against dense sampling.  The array certificates are checked against
frozen one-panel, one-piece copies of the scalar code: :func:`reference_mu`,
:func:`reference_level1`, :func:`reference_level2` (the profile-then-bound
arithmetic) and :func:`reference_level3_factor`, all on geometry formed
here from the rule's nodes and weights.  The batched rule pass is checked
against :func:`reference_rule_value`, a per-panel fold, and within a
rounding bound of :func:`exact_rule_sum`, an mpmath sum, and the adaptive
driver against :func:`reference_adaptive`, which forms the ordered sum of
panel bounds before every split.  The oracle's blocked sum is checked
against :func:`simpson_fold`, which makes the same additions one at a
time in Python.  :func:`closed_form_constant` and :func:`interval_exponent`
are hand-derived level-3 factors of the named rules on [0, 1] and their
scale law.  Squares in these references are :func:`correctly_rounded_square`,
the exact square rounded once, as the library's ``x * x`` is.

Three checks that no library code reads live here too.
:func:`identity_residual` is the residual of the rule-error identity in
batched form, checked bit for bit against :func:`reference_identity_residual`,
which samples one point at a time.  :func:`corollary_condition_holds` says
whether a rule is well-placed, and :func:`is_element` whether a value is an
element of a space.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

import mpmath
import numpy as np

from certquad import (
    INF,
    ErrorCertificate,
    Interval,
    QuadratureResult,
    QuadratureRule,
    make_rule,
    nodes_abs,
)
from certquad._simpson import ROW, SAMPLE_CHUNK, samples, simpson_element
from certquad.rules import _pieces

# rules whose Peano-kernel pieces are degenerate (coincident nodes), sit
# at both ends of the interval, or are centred outside their segment
PIECE_RULES = {
    "coincident": make_rule((0.3, 0.3, 0.7), (0.2, 0.3, 0.5)),
    "ends": make_rule((0.0, 0.0, 0.5, 1.0, 1.0), (0.1, 0.15, 0.5, 0.15, 0.1)),
    "outside": make_rule((0.1, 0.2, 0.9), (0.6, 0.2, 0.2)),
}


def riemann_mu(exponent, a: float, c: float, b: float, n: int = 1 << 16) -> float:
    """Dense numerical value of mu: midpoint Riemann sum, or a grid max."""
    if a == b:
        return 0.0
    if exponent is INF or (isinstance(exponent, float) and math.isinf(exponent)):
        grid = np.linspace(a, b, n + 1)
        return float(np.max(np.abs(grid - c)))
    h = (b - a) / n
    mids = a + (np.arange(n) + 0.5) * h
    return float(np.sum(np.abs(mids - c) ** float(exponent)) * h)


def kernel_direct_sum(rule: QuadratureRule, interval: Interval, t: float) -> float:
    """sum(p_i * k(x_i, t)) with the elementary kernel k(x, t) = t - a for
    t <= x and t - b for t > x."""
    a, b = interval.a, interval.b
    total = 0.0
    for x, w in zip(nodes_abs(rule, interval), rule.weights):
        total += w * ((t - a) if t <= x else (t - b))
    return total


def reference_norm(space, x) -> float:
    """The space's norm by the formulas the spaces used before batching:
    ``abs``, the largest modulus, or ``np.linalg.norm``."""
    if space.label == "scalar":
        return abs(float(x))
    if space.sup:
        return float(np.max(np.abs(x)))
    return float(np.linalg.norm(x))


def df_norm_at(fn, t: float) -> float:
    """``norm(f'(t))`` from one derivative sample, with a finiteness check:
    the per-sample form of ``VectorFunction.df_norms``."""
    value = reference_norm(fn.space, fn.df_at(t))
    if not math.isfinite(value):
        raise ValueError(
            f"nonfinite derivative sample for {fn.name or '<anonymous>'} at t={t!r}"
        )
    return value


def reference_simpson_scalar(g, a: float, b: float, panels: int) -> float:
    """Composite Simpson one sample at a time: ``g`` maps a float to a
    float, and the odd and then the even samples are each added to a
    running Python float from 0.0."""
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    if a == b:
        return 0.0
    m = 2 * panels
    h = (b - a) / m
    first = g(a)
    last = g(b)
    odd = 0.0
    for k in range(1, m, 2):
        odd += g(a + k * h)
    even = 0.0
    for k in range(2, m, 2):
        even += g(a + k * h)
    return (h / 3.0) * (first + last + 4.0 * odd + 2.0 * even)


def riemann_weighted_df(fn, lo: float, hi: float, center: float, n: int = 200_000) -> float:
    """Dense midpoint value of the integral of |t - center| * norm(f'(t))."""
    if hi <= lo:
        return 0.0
    h = (hi - lo) / n
    total = 0.0
    for k in range(n):
        t = lo + (k + 0.5) * h
        total += abs(t - center) * df_norm_at(fn, t)
    return total * h


def riemann_scalar(g, lo: float, hi: float, n: int = 200_000) -> float:
    """Dense midpoint Riemann sum of a scalar function."""
    if hi <= lo:
        return 0.0
    h = (hi - lo) / n
    total = 0.0
    for k in range(n):
        total += g(lo + (k + 0.5) * h)
    return total * h



def simpson_points(a: float, b: float, panels: int) -> tuple[list[float], float]:
    """The ``2*panels + 1`` Simpson sample points ``a + k*h`` (the last is
    ``b`` itself) and the half-step ``h``."""
    m = 2 * panels
    h = (b - a) / m
    return [a + k * h for k in range(m)] + [b], h


def reference_batch_sum(space, batch):
    """The oracle's sum of one batch of samples, one addition at a time:
    rows of ``ROW`` consecutive samples added elementwise in turn (the
    short last row into the first columns), then the column sums left to
    right."""
    columns = list(batch[:ROW])
    for start in range(ROW, len(batch), ROW):
        for j, x in enumerate(batch[start:start + ROW]):
            columns[j] = space.add(columns[j], x)
    total = columns[0]
    for x in columns[1:]:
        total = space.add(total, x)
    return total


def simpson_fold(space, values, h: float):
    """Composite Simpson from samples at :func:`simpson_points`, in the
    oracle's pinned order: ``ends = f(a) + f(b)``; ``odd``, the odd samples
    in batches of ``SAMPLE_CHUNK``, each summed by
    :func:`reference_batch_sum` and the batch sums added left to right from
    the space's zero; ``even`` likewise; then
    ``(h/3) * ((ends + 4*odd) + 2*even)``."""
    m = len(values) - 1
    ends = space.add(values[0], values[m])
    sums = []
    for first in (1, 2):
        picked = values[first:m:2]
        total = space.zero()
        for lo in range(0, len(picked), SAMPLE_CHUNK):
            total = space.add(total, reference_batch_sum(space, picked[lo:lo + SAMPLE_CHUNK]))
        sums.append(total)
    odd, even = sums
    total = space.add(space.add(ends, space.scale(4.0, odd)), space.scale(2.0, even))
    return space.scale(h / 3.0, total)


def identity_residual(fn, rule, interval, oracle_resolution):
    """Norm of the defect of the rule-error identity at a finite reference
    resolution.

    For a rule with absolute nodes x_1 <= ... <= x_n on [a, b] and
    comparison points xi_i, the weighted sum of the elementary kernels
    collapses to S(t) = t - a on [a, x_1], t - xi_i on (x_i, x_{i+1}] and
    t - b on (x_n, b], and for absolutely continuous f

        sum(p_i f(x_i)) - mean(f) = mean(S * f'),

    where mean(g) = (1/(b-a)) * integral of g over [a, b].  Both integrals
    are evaluated with the oracle's composite Simpson; the rule's node
    samples come from one ``fn.f_many`` call, as in the rule pass, and are
    folded here in node order.  The kernel side is integrated piecewise
    between rule nodes because S is only piecewise smooth; the
    ``oracle_resolution`` panel budget is split across pieces
    proportionally to length.  For smooth ``fn`` the residual decays like
    the reference quadrature error and tends to zero under refinement.
    """
    if oracle_resolution < 2:
        raise ValueError(f"oracle_resolution must be >= 2, got {oracle_resolution}")
    if interval.a == interval.b:
        raise ValueError("identity residual needs a nondegenerate interval")
    space = fn.space
    a, b = interval.a, interval.b
    los, his, centers = (column[0].tolist() for column in _pieces(rule, [a], [b]))
    length = b - a

    with np.errstate(all="ignore"):  # an overflowing sample is inf, as in the rule pass
        values = samples(fn.f_many, np.array(los[1:]), np.shape(space.zero()), fn.f)
    rule_mean = space.zero()
    for x, w in zip(values.tolist() if values.ndim == 1 else list(values), rule.weights):
        rule_mean = space.add(rule_mean, space.scale(w, x))
    mean_integral = space.scale(
        1.0 / length, simpson_element(space, fn.f_many, a, b, oracle_resolution)
    )
    lhs = space.subtract(rule_mean, mean_integral)

    kernel_side = space.zero()
    for lo, hi, center in zip(los, his, centers):
        if hi <= lo:
            continue
        panels = max(1, math.ceil(oracle_resolution * (hi - lo) / length))

        def integrand(ts, c=center):
            # S(t) f'(t): row k is scale(ts[k] - c, f'(ts[k]))
            slopes = fn.df_many(ts)
            return (ts - c).reshape((-1,) + (1,) * (np.ndim(slopes) - 1)) * slopes

        piece = simpson_element(space, integrand, lo, hi, panels)
        kernel_side = space.add(kernel_side, piece)
    rhs = space.scale(1.0 / length, kernel_side)

    return space.norm(space.subtract(lhs, rhs))


def reference_identity_residual(fn, rule, interval, oracle_resolution):
    """:func:`identity_residual` from :func:`simpson_fold` over samples taken
    one point at a time, on pieces from :func:`reference_pieces`."""
    space = fn.space
    a, b = interval.a, interval.b
    length = b - a
    rule_mean = space.zero()
    for x, w in zip(reference_nodes(rule, interval), rule.weights):
        rule_mean = space.add(rule_mean, space.scale(w, fn.f(x)))
    points, h = simpson_points(a, b, oracle_resolution)
    mean = simpson_fold(space, [fn.f(t) for t in points], h)
    lhs = space.subtract(rule_mean, space.scale(1.0 / length, mean))
    kernel_side = space.zero()
    for lo, hi, center in reference_pieces(rule, interval):
        if hi <= lo:
            continue
        panels = max(1, math.ceil(oracle_resolution * (hi - lo) / length))
        points, h = simpson_points(lo, hi, panels)
        samples = [space.scale(t - center, fn.df(t)) for t in points]
        kernel_side = space.add(kernel_side, simpson_fold(space, samples, h))
    rhs = space.scale(1.0 / length, kernel_side)
    return space.norm(space.subtract(lhs, rhs))


def reference_f_many(fn, ts):
    """``fn.f_many(ts)`` for a registry function, in the forms the registry
    used before its batches were built component by component: a
    broadcast over the element's last axis for ``affine``, and
    ``np.stack(..., axis=-1)`` for the fixed-space functions, poly_r3's
    cube taken as ``(ts * ts) * ts``."""
    name = fn.name
    if name == "affine":
        # f(0) is base exactly, and df is the slope
        return fn.f(0.0) + np.multiply.outer(ts, fn.df(0.0))
    if name == "trig_circle":
        return np.stack([np.cos(ts), np.sin(ts)], axis=-1)
    if name == "poly_r3":
        return np.stack([ts, ts * ts, (ts * ts) * ts], axis=-1)
    if name == "matrix_path":
        c, s = np.cos(ts), np.sin(ts)
        return np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    raise ValueError(f"no frozen f_many for {name!r}")


def mu_well_placed(exponent, lo: float, point: float, hi: float) -> float:
    """Simplified mu for a comparison point inside its segment.

    Valid only for ``lo <= point <= hi``; agrees with :func:`certquad.mu`
    there and exists as an independent cross-check of the general branch
    logic.  For ``INF`` this is the half-length plus midpoint offset; for
    finite exponents the two-sided power form.
    """
    if not lo <= point <= hi:
        raise ValueError(
            f"comparison point {point!r} outside segment [{lo!r}, {hi!r}]"
        )
    if exponent is INF or (isinstance(exponent, float) and math.isinf(exponent)):
        return 0.5 * (hi - lo) + abs(point - 0.5 * (lo + hi))
    p = float(exponent)
    if p < 1.0:
        raise ValueError(f"exponent must be >= 1, got {exponent!r}")
    r = p + 1.0
    return ((point - lo) ** r + (hi - point) ** r) / r


def is_element(space, x) -> bool:
    """Whether ``x`` is an element of ``space``: a real number that is not
    a bool in the scalar space, else a numpy array of the space's shape and
    dtype kind."""
    if space.label == "scalar":
        return isinstance(x, (int, float, np.floating, np.integer)) and not isinstance(
            x, bool
        )
    return isinstance(x, np.ndarray) and x.shape == space.shape and x.dtype.kind == space.kind


def linear_combination(space, terms):
    """Fold ``sum(lam_k * x_k)`` strictly left to right.

    ``terms`` is an iterable of ``(coefficient, element)`` pairs; an empty
    iterable returns the zero element.  Elements that do not belong to
    ``space`` raise ``ValueError``.
    """
    acc = space.zero()
    for k, (lam, x) in enumerate(terms):
        if not is_element(space, x):
            raise ValueError(
                f"term {k} is not an element of the {space.label} space: {x!r}"
            )
        acc = space.add(acc, space.scale(float(lam), x))
    return acc


def _reference_seminorm(fn, lo, hi, regime, resolution):
    """``(value, certified)``: the per-segment seminorm estimator, frozen."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if lo == hi:
        return 0.0, True
    if regime.kind == "linf":
        if fn.df_sup is not None:
            value = float(fn.df_sup(lo, hi))
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(
                    f"sup-envelope of {fn.name or '<anonymous>'} returned {value!r}"
                )
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
            v = df_norm_at(fn, t)
            if v > best:
                best = v
        return best, False
    power = regime.integral_exponent
    integral = reference_simpson_scalar(
        lambda t: _reference_pow(df_norm_at(fn, t), power), lo, hi, resolution
    )
    integral = max(integral, 0.0)
    return (integral if power == 1.0 else integral ** (1.0 / power)), False


def reference_pieces(rule, interval):
    """The Peano-kernel pieces ``(lo, hi, center)`` on ``interval``, formed
    from :func:`reference_nodes` and the running sums of the weights:
    [a, x_1] about a, [x_i, x_{i+1}] about xi_i, [x_n, b] about b."""
    a, b = interval.a, interval.b
    cuts = [a] + reference_nodes(rule, interval) + [b]
    centers = [a] + reference_comparison_points(rule, interval) + [b]
    return list(zip(cuts, cuts[1:], centers))


def reference_level1(fn, rule, interval, resolution):
    """``(bound, contributions)`` of the level-1 certificate, one derivative
    sample at a time: each Peano-kernel piece, split at its centre when the
    centre lies inside, integrated by :func:`reference_simpson_scalar`."""
    def piece(lo, hi, center):
        if hi <= lo:
            return 0.0
        return reference_simpson_scalar(
            lambda t: abs(t - center) * df_norm_at(fn, t), lo, hi, resolution
        )

    contribs = []
    for lo, hi, center in reference_pieces(rule, interval):
        if lo < center < hi:
            contribs.append(piece(lo, center, center) + piece(center, hi, center))
        else:
            contribs.append(piece(lo, hi, center))
    bound = 0.0
    for c in contribs:
        bound += c
    return bound, tuple(contribs)


def correctly_rounded_square(x: float) -> float:
    """``x**2`` rounded once from the exact square of ``x``, inf past the
    float range: the library's squares, formed here without a float
    multiply or libm's ``pow``."""
    try:
        return float(Fraction(x) ** 2)
    except OverflowError:
        return math.inf


def _reference_pow(x, y):
    if y == 2.0:
        return correctly_rounded_square(x)
    try:
        return x ** y
    except OverflowError:
        return math.inf


def reference_mu(p, a, c, b):
    """The scalar ``mu`` for ``p`` INF or a float >= 1 and finite ``a <= b``
    and ``c``, branch by branch with Python floats; powers overflow to inf,
    and a difference of two overflowing powers is inf."""
    if a == b:
        return 0.0
    if p is INF:
        if c < a:
            return b - c
        if c > b:
            return c - a
        return 0.5 * (b - a) + abs(c - 0.5 * (a + b))
    r = p + 1.0

    def gap(x, y):
        big = _reference_pow(x, r)
        return math.inf if big == math.inf else (big - _reference_pow(y, r)) / r

    if c < a:
        return gap(b - c, a - c)
    if c > b:
        return gap(c - a, c - b)
    return (_reference_pow(c - a, r) + _reference_pow(b - c, r)) / r


def reference_level3_factor(rule, interval, regime):
    """The level-3 geometry factor one piece at a time with Python floats:
    the largest reach for l1, else the sum of :func:`reference_mu` over
    the pieces (outer pieces as ``length**r / r``) and its q-th root, or
    past q = 30 a log-sum-exp of :func:`_reference_log_mu`."""
    pieces = reference_pieces(rule, interval)
    (a, x_1, _), *inner, (x_n, b, _) = pieces
    first, last = x_1 - a, b - x_n
    if regime.kind == "l1":
        return max([first, *(reference_mu(INF, lo, c, hi) for lo, hi, c in inner), last])
    q = 1.0 if regime.kind == "linf" else regime.q
    r = q + 1.0
    if q > 30.0:
        logs = [_reference_log_mu(q, lo, c, hi) for lo, hi, c in pieces if hi > lo]
        if not logs:
            return 0.0
        top = max(logs)
        acc = 0.0
        for value in logs:
            acc += math.exp(value - top)
        try:
            return math.exp((top + math.log(acc)) / q)
        except OverflowError:
            return math.inf
    total = _reference_pow(first, r) / r
    for lo, hi, c in inner:
        total += reference_mu(q, lo, c, hi)
    total += _reference_pow(last, r) / r
    if regime.kind == "linf":
        return total
    return total ** (1.0 / q) if total > 0.0 else 0.0


def interval_exponent(regime) -> float:
    """Power of the interval length in the level-3 factor: the factor on
    [a, b] is its value on [0, 1] times ``(b - a) ** interval_exponent``."""
    if regime.kind == "l1":
        return 1.0
    if regime.kind == "linf":
        return 2.0
    return 1.0 + 1.0 / regime.q


# Hand-derived level-3 factors on [0, 1] of the named rules.  Under lp,
# qs's Peano kernel is a rearrangement of qt's (four unit-slope ramps of
# length 1/4), so both have the entry 1/(4 (q+1)^(1/q)); f' equal to qs's
# kernel attains it (error 1/48 at p = 2).
_CLOSED_L1 = {"trapezoid": 0.5, "qt": 0.25, "qs": 0.25, "simpson": 1.0 / 3.0}
_CLOSED_LINF = {"trapezoid": 0.25, "qt": 0.125, "qs": 0.125, "simpson": 5.0 / 36.0}


def closed_form_constant(rule_name: str, regime) -> float:
    """The closed-form level-3 factor of a named rule on [0, 1], a reference
    for ``level3_factor(preset(rule_name), Interval(0, 1), regime)``."""
    if regime.kind == "l1":
        return _CLOSED_L1[rule_name]
    if regime.kind == "linf":
        return _CLOSED_LINF[rule_name]
    q = regime.q
    root = (q + 1.0) ** (1.0 / q)
    if rule_name == "trapezoid":
        return 1.0 / (2.0 * root)
    if rule_name in ("qt", "qs"):
        return 1.0 / (4.0 * root)
    if rule_name == "simpson":
        return (2.0 ** (q + 1.0) + 1.0) ** (1.0 / q) / (2.0 * 3.0 ** (1.0 + 1.0 / q) * root)
    raise KeyError(rule_name)


def reference_level3(fn, rule, interval, regime, resolution):
    """The level-3 certificate from the frozen seminorm estimator and
    :func:`reference_level3_factor`."""
    value, exact = _reference_seminorm(fn, interval.a, interval.b, regime, resolution)
    bound = value if value == 0.0 else reference_level3_factor(rule, interval, regime) * value
    return ErrorCertificate(bound, 3, regime, (), exact and bound == bound, rule.name, interval)


def _reference_log_mu(q, a, c, b):
    # log(mu(q, a, c, b)) through log-sum-exp, for q > 30
    if a == b:
        return -math.inf
    r = q + 1.0

    def add(u, v):
        if u == -math.inf:
            return v
        if v == -math.inf:
            return u
        hi, lo = (u, v) if u >= v else (v, u)
        return hi + math.log1p(math.exp(lo - hi))

    def sub(u, v):
        return u if v == -math.inf else u + math.log1p(-math.exp(v - u))

    if c < a:
        return sub(r * math.log(b - c), r * math.log(a - c)) - math.log(r)
    if c > b:
        return sub(r * math.log(c - a), r * math.log(c - b)) - math.log(r)
    u = r * math.log(c - a) if c > a else -math.inf
    v = r * math.log(b - c) if c < b else -math.inf
    return add(u, v) - math.log(r)


def _reference_lp_factors(q):
    def outer(length):
        if length <= 0.0:
            return 0.0
        if q <= 30.0:
            return length ** (1.0 + 1.0 / q) / (q + 1.0) ** (1.0 / q)
        return math.exp((1.0 + 1.0 / q) * math.log(length) - math.log(q + 1.0) / q)

    def inner(lo, point, hi):
        if hi <= lo:
            return 0.0
        if q <= 30.0:
            return reference_mu(q, lo, point, hi) ** (1.0 / q)
        return math.exp(_reference_log_mu(q, lo, point, hi) / q)

    return outer, inner


def reference_nodes(rule, interval):
    """Absolute nodes ``a + u*(b - a)``, exact at u = 0 and 1 and clamped
    into [a, b]."""
    a, b = interval.a, interval.b
    return [a if u == 0.0 else b if u == 1.0 else min(max(a + u * (b - a), a), b)
            for u in rule.nodes_rel]


def reference_comparison_points(rule, interval):
    """``xi_i = P_i b + (1 - P_i) a`` from the running sums ``P_i`` of the
    weights, clamped into [a, b]."""
    a, b = interval.a, interval.b
    xi, running = [], 0.0
    for w in rule.weights[:-1]:
        running += w
        xi.append(min(max(running * b + (1.0 - running) * a, a), b))
    return xi


def corollary_condition_holds(rule, interval) -> bool:
    """True when every comparison point xi_i lies in [x_i, x_{i+1}], that
    is when the rule is well-placed on ``interval``.  No bound reads it,
    and bounds are valid either way."""
    lo, hi, centers = (x[1:-1] for x in _pieces(rule, interval.a, interval.b))
    return bool(np.all((lo <= centers) & (centers <= hi)))


def reference_rule_value(fn, rule, interval):
    """The rule on one panel as a per-panel fold: ``fn.f`` at each node,
    ``acc = add(acc, scale(w, f(x)))`` in node order from the space's zero,
    then ``scale(b - a, acc)``."""
    space = fn.space
    acc = space.zero()
    for x, w in zip(reference_nodes(rule, interval), rule.weights):
        acc = space.add(acc, space.scale(w, fn.f(x)))
    return space.scale(interval.b - interval.a, acc)


def n_gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2**-53."""
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


# the exact components of registry functions, for mpmath
EXACT_COMPONENTS = {
    "exp": lambda x: [mpmath.exp(x)],
    "poly_r3": lambda x: [x, x * x, x * x * x],
}


def exact_rule_sum(name, rule, interval, ulps):
    """The rule on one panel in exact arithmetic, and its error budget in
    floats, one pair ``(value, budget)`` per real component.

    The value is ``(b - a) * sum(w_i f(x_i))`` in mpmath, with the exact f
    of registry function ``name`` (see ``EXACT_COMPONENTS``) at
    :func:`reference_nodes` and the rule's stored weights.  A float rule
    pass whose samples ``s_i`` lie within ``d_i`` of ``f_i``, that folds
    ``acc + w_i * s_i`` in node order and scales by the rounded ``b - a``,
    lies within

        |b - a| * (gamma_(n+2) * sum |w_i| (|f_i| + d_i) + sum |w_i| d_i)

    of it: the recursive dot product of n terms is within gamma_n of
    ``sum |w_i s_i|``, and the rounding of the length and of the last
    product add two more (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., sections 3.1 and 4.2).  ``d_i`` is ``ulps``
    ulps of ``f_i``.
    """
    gamma = n_gamma(rule.n + 2)
    xs = reference_nodes(rule, interval)
    with mpmath.workprec(200):
        length = abs(mpmath.mpf(interval.b) - mpmath.mpf(interval.a))
        samples = [EXACT_COMPONENTS[name](mpmath.mpf(x)) for x in xs]
        out = []
        for j in range(len(samples[0])):
            fs = [row[j] for row in samples]
            ds = [ulps * math.ulp(float(v)) for v in fs]
            value = length * mpmath.fsum(w * v for w, v in zip(rule.weights, fs))
            size = mpmath.fsum(abs(w) * (abs(v) + d) for w, v, d in zip(rule.weights, fs, ds))
            slack = mpmath.fsum(abs(w) * d for w, d in zip(rule.weights, ds))
            out.append((value, length * (gamma * size + slack)))
        return out


def reference_level2(fn, rule, interval, regime, resolution):
    """The level-2 certificate as the profile-then-bound path computed it:
    one seminorm per segment, then the per-regime factors with
    :func:`reference_mu`, summed left to right.  Nodes and
    comparison points are formed here too, from the rule's nodes and
    weights."""
    a, b = interval.a, interval.b
    xs = reference_nodes(rule, interval)
    xi = reference_comparison_points(rule, interval)
    cuts = [a] + xs + [b]
    estimates = [
        _reference_seminorm(fn, lo, hi, regime, resolution)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    values = [value for value, _ in estimates]
    if regime.kind == "l1":
        outer = lambda length: length  # noqa: E731
        inner = lambda lo, point, hi: reference_mu(INF, lo, point, hi)  # noqa: E731
    elif regime.kind == "lp":
        outer, inner = _reference_lp_factors(regime.q)
    else:
        outer = lambda length: 0.5 * correctly_rounded_square(length)  # noqa: E731
        inner = lambda lo, point, hi: reference_mu(1.0, lo, point, hi)  # noqa: E731
    contribs = [outer(xs[0] - a) * values[0]]
    for i in range(rule.n - 1):
        contribs.append(inner(xs[i], xi[i], xs[i + 1]) * values[i + 1])
    contribs.append(outer(b - xs[-1]) * values[-1])
    bound = 0.0
    for c in contribs:
        bound += c
    return ErrorCertificate(
        bound=bound,
        level=2,
        regime=regime,
        segment_contributions=tuple(contribs),
        certified=all(certified for _, certified in estimates),
        rule_name=rule.name,
        interval=interval,
    )


def reference_adaptive(fn, rule, interval, regime, tol, max_panels, resolution):
    """Worst-first bisection that forms the ordered sum of panel bounds
    (left to right by panel) before every split and once more at the end.

    Returns a :class:`certquad.QuadratureResult` whose ``panels`` pair each
    final panel, left to right, with its level-2 certificate; values,
    approximation and the aggregate certificate are per-panel folds.
    """

    def cert_for(panel):
        return reference_level2(fn, rule, panel, regime, resolution)

    def total_bound():
        total = 0.0
        for entry in sorted(heap, key=lambda e: e[1]):
            total += entry[3].bound
        return total

    first = cert_for(interval)
    heap = [(-first.bound, interval.a, interval.b, first)]
    while total_bound() > tol and len(heap) < max_panels:
        entry = heapq.heappop(heap)
        _, lo, hi, _cert = entry
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            heapq.heappush(heap, entry)
            break
        for panel in (Interval(lo, mid), Interval(mid, hi)):
            cert = cert_for(panel)
            heapq.heappush(heap, (-cert.bound, panel.a, panel.b, cert))
    panels = [(Interval(lo, hi), cert) for _, lo, hi, cert in sorted(heap, key=lambda e: e[1])]
    values = [reference_rule_value(fn, rule, panel) for panel, _ in panels]
    approx = fn.space.zero()
    for value in values:
        approx = fn.space.add(approx, value)
    total = total_bound()
    certificate = ErrorCertificate(
        total, 2, regime, tuple(cert.bound for _, cert in panels),
        all(cert.certified for _, cert in panels) and bool(np.isfinite(approx).all()),
        rule.name, interval,
    )
    return QuadratureResult(
        approx, certificate, tuple(panels), tuple(values), rule.n * len(panels), total <= tol
    )
