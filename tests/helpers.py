"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own closed forms: mu is checked
against a dense midpoint Riemann sum, the collapsed kernel against the
direct sum of elementary kernels, and weighted derivative integrals
against dense sampling.  The array certificates are checked against
frozen one-panel, one-piece copies of the scalar code: :func:`reference_mu`,
:func:`reference_level1`, :func:`reference_level2` (the profile-then-bound
arithmetic) and :func:`reference_level3_factor`, all on geometry formed
here from the rule's nodes and weights.  The batched rule pass is checked
against :func:`reference_rule_value`, a per-panel fold, and the adaptive
driver against :func:`reference_adaptive`, which forms the ordered sum of
panel bounds before every split.
"""

from __future__ import annotations

import heapq
import math

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


def simpson_fold(space, values, h: float):
    """Composite Simpson from samples at :func:`simpson_points`, added one
    at a time in the library's pinned order: ``f(a) + f(b)``, then
    ``4 f(t_k)`` for odd ``k`` ascending, then ``2 f(t_k)`` for even ``k``
    ascending, with ``h/3`` applied once at the end."""
    m = len(values) - 1
    acc = space.add(values[0], values[m])
    for k in range(1, m, 2):
        acc = space.add(acc, space.scale(4.0, values[k]))
    for k in range(2, m, 2):
        acc = space.add(acc, space.scale(2.0, values[k]))
    return space.scale(h / 3.0, acc)


def reference_f_many(fn, ts):
    """``fn.f_many(ts)`` for a registry function, in the forms the registry
    used before its batches were built component by component: a
    broadcast over the element's last axis for ``affine``, and
    ``np.stack(..., axis=-1)`` for the fixed-space functions."""
    name = fn.name
    if name == "affine":
        # f(0) is base exactly, and df is the slope
        return fn.f(0.0) + np.multiply.outer(ts, fn.df(0.0))
    if name == "trig_circle":
        return np.stack([np.cos(ts), np.sin(ts)], axis=-1)
    if name == "poly_r3":
        return np.stack([ts, ts * ts, ts ** 3], axis=-1)
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


def linear_combination(space, terms):
    """Fold ``sum(lam_k * x_k)`` strictly left to right.

    ``terms`` is an iterable of ``(coefficient, element)`` pairs; an empty
    iterable returns the zero element.  Elements that do not belong to
    ``space`` raise ``ValueError``.
    """
    acc = space.zero()
    for k, (lam, x) in enumerate(terms):
        if not space.is_element(x):
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
        lambda t: df_norm_at(fn, t) ** power, lo, hi, resolution
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


def _reference_pow(x, y):
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


def reference_rule_value(fn, rule, interval):
    """The rule on one panel as a per-panel fold: ``fn.f`` at each node,
    ``acc = add(acc, scale(w, f(x)))`` in node order from the space's zero,
    then ``scale(b - a, acc)``."""
    space = fn.space
    acc = space.zero()
    for x, w in zip(reference_nodes(rule, interval), rule.weights):
        acc = space.add(acc, space.scale(w, fn.f(x)))
    return space.scale(interval.b - interval.a, acc)


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
        outer = lambda length: 0.5 * length ** 2  # noqa: E731
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
