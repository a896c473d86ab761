"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own closed forms: mu is checked
against a dense midpoint Riemann sum, the collapsed kernel against the
direct sum of elementary kernels, and weighted derivative integrals
against dense sampling.  The adaptive driver is checked against
:func:`reference_adaptive`, which forms the ordered sum of panel bounds
before every split.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from certquad import (
    INF,
    Interval,
    QuadratureRule,
    apply_rule,
    bound_level2,
    nodes_abs,
    seminorm_profile,
)


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


def riemann_weighted_df(fn, lo: float, hi: float, center: float, n: int = 200_000) -> float:
    """Dense midpoint value of the integral of |t - center| * norm(f'(t))."""
    if hi <= lo:
        return 0.0
    h = (hi - lo) / n
    total = 0.0
    for k in range(n):
        t = lo + (k + 0.5) * h
        total += abs(t - center) * fn.df_norm_at(t)
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


def reference_adaptive(fn, rule, interval, regime, tol, max_panels, resolution):
    """Worst-first bisection that forms the ordered sum of panel bounds
    (left to right by panel) before every split and once more at the end.

    Returns ``(panels, approximation, converged)`` where ``panels`` pairs
    each final panel, left to right, with its level-2 certificate.
    """

    def cert_for(panel):
        profile = seminorm_profile(fn, rule, panel, regime, resolution)
        return bound_level2(profile, rule, panel)

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
    approx = fn.space.zero()
    for panel, _ in panels:
        approx = fn.space.add(approx, apply_rule(fn, rule, panel))
    return panels, approx, total_bound() <= tol
