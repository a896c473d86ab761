"""Rule application, composite and adaptive integration, and the test oracle.

Everything here is deterministic: panel results are reduced strictly left
to right, and the adaptive driver orders its work by (bound, left endpoint)
so two runs with identical inputs produce bit-identical output.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

from ._simpson import simpson_element
from .bounds import ErrorCertificate, bound_level1, bound_level3, level2_certificate
from .geometry import Interval, NormRegime, Partition
from .rules import QuadratureRule, nodes_abs
from .seminorms import DEFAULT_RESOLUTION, seminorm
from .spaces import Element, VectorFunction

__all__ = [
    "QuadratureResult",
    "apply_rule",
    "oracle_integral",
    "integrate_composite",
    "integrate_adaptive",
]

DEFAULT_MAX_PANELS = 1024
_EPS = 2.0**-52  # twice the unit roundoff u


@dataclass(eq=False)
class QuadratureResult:
    """Outcome of an engine run.

    ``panels`` pairs each panel interval with its certificate, and
    ``panel_values`` holds the rule's value on each panel in the same
    order; ``certificate`` aggregates them (its segment contributions are
    the per-panel bounds, summed in panel order).  ``evaluations`` counts calls
    to ``fn.f`` made for the returned approximation (derivative samples for
    the certificates are not included).  ``converged`` is always True for
    single/composite runs; adaptive runs clear it when the panel budget ran
    out before the requested tolerance was met.
    """

    approximation: Element
    certificate: ErrorCertificate
    panels: tuple[tuple[Interval, ErrorCertificate], ...]
    panel_values: tuple[Element, ...]
    evaluations: int
    converged: bool = True


def apply_rule(fn: VectorFunction, rule: QuadratureRule, interval: Interval) -> Element:
    """``(b - a) * sum(p_i * f(x_i))`` with a fixed-order accumulation."""
    space = fn.space
    acc = space.zero()
    for x, w in zip(nodes_abs(rule, interval), rule.weights):
        acc = space.add(acc, space.scale(w, fn.f(x)))
    return space.scale(interval.length, acc)


def oracle_integral(fn: VectorFunction, interval: Interval, resolution: int) -> Element:
    """Reference integral by componentwise composite Simpson.

    A test oracle: certificates never consume it.  ``resolution`` counts
    Simpson panels and must be even and at least 2 so that refinement
    checks can halve it.
    """
    if resolution < 2:
        raise ValueError(f"oracle resolution must be >= 2, got {resolution}")
    if resolution % 2 != 0:
        raise ValueError(f"oracle resolution must be even, got {resolution}")
    return simpson_element(fn.space, fn.f_many, interval.a, interval.b, resolution)


def _panel_certificate(
    fn: VectorFunction,
    rule: QuadratureRule,
    panel: Interval,
    regime: NormRegime,
    level: int,
    resolution: int,
) -> ErrorCertificate:
    if level == 1:
        return bound_level1(fn, rule, panel, resolution, regime=regime)
    if level == 2:
        return level2_certificate(fn, rule, panel, regime, resolution)
    if level == 3:
        estimate = seminorm(fn, panel, regime, resolution)
        return bound_level3(estimate, rule, panel)
    raise ValueError(f"certificate level must be 1, 2 or 3, got {level}")


def _aggregate(
    fn: VectorFunction,
    rule: QuadratureRule,
    interval: Interval,
    regime: NormRegime,
    level: int,
    per_panel: list[tuple[Interval, Element, ErrorCertificate]],
    tol: float | None = None,
) -> QuadratureResult:
    space = fn.space
    approx = space.zero()
    total = 0.0
    contribs: list[float] = []
    for _, value, cert in per_panel:
        approx = space.add(approx, value)
        total += cert.bound
        contribs.append(cert.bound)
    certificate = ErrorCertificate(
        bound=total,
        level=level,
        regime=regime,
        segment_contributions=tuple(contribs),
        certified=all(cert.certified for _, _, cert in per_panel),
        rule_name=rule.name,
        interval=interval,
    )
    return QuadratureResult(
        approximation=approx,
        certificate=certificate,
        panels=tuple((panel, cert) for panel, _, cert in per_panel),
        panel_values=tuple(value for _, value, _ in per_panel),
        evaluations=rule.n * len(per_panel),
        converged=tol is None or total <= tol,
    )


def integrate_composite(
    fn: VectorFunction,
    rule: QuadratureRule,
    partition: Partition,
    regime: NormRegime,
    level: int = 2,
    resolution: int = DEFAULT_RESOLUTION,
) -> QuadratureResult:
    """Apply the rule on every panel of ``partition`` and sum certificates."""
    per_panel = [
        (
            panel,
            apply_rule(fn, rule, panel),
            _panel_certificate(fn, rule, panel, regime, level, resolution),
        )
        for panel in partition.panels
    ]
    return _aggregate(fn, rule, partition.interval, regime, level, per_panel)


def integrate_adaptive(
    fn: VectorFunction,
    rule: QuadratureRule,
    interval: Interval,
    regime: NormRegime,
    tol: float,
    max_panels: int = DEFAULT_MAX_PANELS,
    resolution: int = DEFAULT_RESOLUTION,
) -> QuadratureResult:
    """Worst-first bisection until the summed level-2 bounds meet ``tol``.

    The panel with the largest level-2 bound is split at its midpoint
    (ties break toward the left-most panel).  Stops when the ordered sum of
    panel bounds (left to right by panel, the sum the returned certificate
    carries) is at most ``tol`` or ``max_panels`` is reached; running out of
    panels returns a partial result with ``converged=False`` rather than
    raising.  Rule values are evaluated once per final panel.

    The stop test costs O(1) per split and decides exactly as the ordered
    sum would.  A running total of the n panel bounds is updated at each
    split, and ``slack`` adds one ulp of every update's result, at least
    twice that update's rounding error.  The ordered float sum of n nonnegative terms
    lies within gamma_(n-1) of their exact sum (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 4.2), so when
    ``tol`` falls outside ``[running - slack, running + slack]`` widened by
    a relative ``2 (n + 2) u`` (u = 2**-53, which also covers the rounding
    of the test itself) the side it falls on decides.  Only inside that
    band, or once the total is not finite or a bound is negative, is the
    ordered sum formed.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if max_panels < 1:
        raise ValueError(f"max_panels must be >= 1, got {max_panels}")

    first = level2_certificate(fn, rule, interval, regime, resolution)
    # heap orders by (-bound, left endpoint); left endpoints are unique, so
    # certificates are never compared
    heap: list[tuple[float, float, float, ErrorCertificate]] = [
        (-first.bound, interval.a, interval.b, first)
    ]
    count = 1
    running, slack = first.bound, 0.0
    # a lower bound computed above this is normal, so its rounding is relative
    floor = max(tol, sys.float_info.min)

    def above_tol() -> bool:
        hi = running + slack
        if math.isfinite(hi):
            g = (count + 2) * _EPS
            if (running - slack) * (1.0 - g) > floor:
                return True
            if hi * (1.0 + g) <= tol:
                return False
        total = 0.0
        for entry in sorted(heap, key=lambda e: e[1]):
            total += entry[3].bound
        return total > tol

    while count < max_panels and above_tol():
        entry = heapq.heappop(heap)
        _, lo, hi, cert = entry
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # panel too narrow to split; no further refinement possible
            heapq.heappush(heap, entry)
            break
        left = Interval(lo, mid)
        right = Interval(mid, hi)
        cert_left = level2_certificate(fn, rule, left, regime, resolution)
        cert_right = level2_certificate(fn, rule, right, regime, resolution)
        heapq.heappush(heap, (-cert_left.bound, left.a, left.b, cert_left))
        heapq.heappush(heap, (-cert_right.bound, right.a, right.b, cert_right))
        count += 1
        for term in (cert_left.bound, cert_right.bound, -cert.bound):
            running += term
            slack += math.ulp(running)
        if cert_left.bound < 0.0 or cert_right.bound < 0.0:
            running = math.nan  # the error bar assumes nonnegative terms

    ordered = sorted(heap, key=lambda e: e[1])
    per_panel = []
    for _, _, _, cert in ordered:
        per_panel.append((cert.interval, apply_rule(fn, rule, cert.interval), cert))
    return _aggregate(fn, rule, interval, regime, 2, per_panel, tol)
