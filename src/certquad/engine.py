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

import numpy as np

from ._simpson import simpson_element
from .bounds import (
    ErrorCertificate,
    _certificate,
    _level2_rows,
    bound_level1,
    bound_level3,
    level2_certificate,
)
from .geometry import Interval, NormRegime, Partition
from .rules import QuadratureRule, _cut_points
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
# panels per kernel call in the adaptive driver, and per chunk of its final
# rule pass: large enough to spread each call's fixed cost, small enough
# that the arrays and speculative rows stay a small part of peak memory
_BATCH = 256


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
    return _rule_values(fn, rule, [interval.a], [interval.b])[0]


def _rule_values(fn: VectorFunction, rule: QuadratureRule, a, b) -> list[Element]:
    """:func:`apply_rule` on the panels ``[a[k], b[k]]`` at once.

    ``fn.f`` is sampled once per node, panel by panel; the weighted samples
    are folded in node order with the space's ``add`` and ``scale`` over
    the stacked samples, then each sum is scaled by its panel's length.
    Each panel's value is therefore the one its own fold gives.
    """
    space = fn.space
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nodes = _cut_points(rule, a, b)[:, 1:-1]
    samples = np.array([fn.f(x) for x in nodes.ravel().tolist()])
    samples = samples.reshape(nodes.shape + samples.shape[1:])
    with np.errstate(all="ignore"):  # overflow gives inf, as float sums do
        acc = space.zero()
        for j, w in enumerate(rule.weights):
            acc = space.add(acc, space.scale(w, samples[:, j]))
        lengths = (b - a).reshape((-1,) + (1,) * (acc.ndim - 1))
        values = space.scale(lengths, acc)
    return values.tolist() if values.ndim == 1 else list(values)


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
    if level == 2:
        return level2_certificate(fn, rule, panel, regime, resolution)
    if level == 1:
        return bound_level1(fn, rule, panel, resolution, regime=regime)
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
    panels = partition.panels
    los, his = partition.breakpoints[:-1], partition.breakpoints[1:]
    try:
        values = _rule_values(fn, rule, los, his)
        if level == 2:
            rows = _level2_rows(fn, rule, regime, los, his, resolution)
            certs = [_certificate(rule, regime, panel, *row) for panel, row in zip(panels, rows)]
        else:
            certs = [
                _panel_certificate(fn, rule, panel, regime, level, resolution)
                for panel in panels
            ]
    except Exception:
        # all rule values come before any certificate here: redo the work
        # panel by panel, so that the error raised is the first one met
        # when each panel's value and then its certificate are computed
        for panel in panels:
            apply_rule(fn, rule, panel)
            _panel_certificate(fn, rule, panel, regime, level, resolution)
        raise
    per_panel = list(zip(panels, values, certs))
    return _aggregate(fn, rule, partition.interval, regime, level, per_panel)


def _worst(heap: list, k: int) -> list:
    """The ``k`` smallest entries of ``heap`` (all of them if it is shorter),
    found by walking down from its root in O(k log k)."""
    found: list = []
    frontier = [(heap[0], 0)] if heap and k > 0 else []
    while frontier and len(found) < k:
        entry, i = heapq.heappop(frontier)
        found.append(entry)
        for j in (2 * i + 1, 2 * i + 2):
            if j < len(heap):
                heapq.heappush(frontier, (heap[j], j))
    return found


def _halves(fn, rule, regime, resolution, parents) -> dict:
    """Heap entries of both halves of each panel ``(lo, hi)`` in
    ``parents``, keyed by the panel, from one kernel call."""
    ends = []
    for lo, hi in parents:
        mid = 0.5 * (lo + hi)
        ends += ((lo, mid), (mid, hi))
    a, b = zip(*ends)
    rows = _level2_rows(fn, rule, regime, a, b, resolution)
    entries = [(-row[0], lo, hi, *row) for (lo, hi), row in zip(ends, rows)]
    return {panel: entries[2 * k:2 * k + 2] for k, panel in enumerate(parents)}


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
    raising.  Rule values are evaluated once per final panel, in chunks.

    Under linf with a sup-envelope, a popped panel whose halves are not yet
    certified has them certified in one kernel call together with the
    halves of up to ``_BATCH - 1`` next-worst panels, never more panels
    than splits are left in the budget.  Each row is what that panel alone
    gives, and if the call raises, the popped panel is certified alone, so
    results and errors are those of certifying one panel at a time.

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

    # heap entries are (-bound, lo, hi, bound, contributions, certified);
    # left endpoints are unique, so entries never compare past lo
    first = _level2_rows(fn, rule, regime, [interval.a], [interval.b], resolution)[0]
    heap: list[tuple] = [(-first[0], interval.a, interval.b, *first)]
    count = 1
    running, slack = first[0], 0.0
    # a lower bound computed above this is normal, so its rounding is relative
    floor = max(tol, sys.float_info.min)
    # envelope certificates are cheap, so the children of the next-worst
    # panels are certified ahead, with the popped panel's, in one batch
    width = _BATCH if regime.kind == "linf" and fn.df_sup is not None else 1
    children: dict = {}

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
            total += entry[3]
        return total > tol

    while count < max_panels and above_tol():
        entry = heapq.heappop(heap)
        lo, hi, bound = entry[1], entry[2], entry[3]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # panel too narrow to split; no further refinement possible
            heapq.heappush(heap, entry)
            break
        pair = children.get((lo, hi))
        if pair is None:
            # never more panels than the splits left in the budget
            ahead = _worst(heap, min(width, max_panels - count) - 1)
            batch = [(lo, hi)] + [
                (e[1], e[2]) for e in ahead if e[1] < 0.5 * (e[1] + e[2]) < e[2]
            ]
            try:
                children = _halves(fn, rule, regime, resolution, batch)
            except Exception:
                # a speculative panel failed; the popped one raises alone
                # if it raises at all, as it would without speculation
                if len(batch) == 1:
                    raise
                children = _halves(fn, rule, regime, resolution, batch[:1])
            pair = children[(lo, hi)]
        left, right = pair
        heapq.heappush(heap, left)
        heapq.heappush(heap, right)
        count += 1
        for term in (left[3], right[3], -bound):
            running += term
            slack += math.ulp(running)
        if left[3] < 0.0 or right[3] < 0.0:
            running = math.nan  # the error bar assumes nonnegative terms

    # right to left, so each chunk's entries are released as its panels'
    # public objects are built
    pending = sorted(heap, key=lambda e: e[1], reverse=True)
    heap.clear()
    per_panel = []
    while pending:
        chunk = [pending.pop() for _ in range(min(_BATCH, len(pending)))]
        values = _rule_values(fn, rule, [e[1] for e in chunk], [e[2] for e in chunk])
        for (_, lo, hi, *row), value in zip(chunk, values):
            panel = Interval(lo, hi)
            per_panel.append((panel, value, _certificate(rule, regime, panel, *row)))
    return _aggregate(fn, rule, interval, regime, 2, per_panel, tol)
