"""Rule application, composite and adaptive integration, and the test oracle.

Everything here is deterministic: panel results are reduced strictly left
to right, and the adaptive driver orders its work by (bound, left endpoint)
so two runs with identical inputs produce bit-identical output.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._simpson import samples, simpson_element
from .bounds import ErrorCertificate, _certificate_rows, _certificates
from .geometry import Interval, NormRegime, Partition
from .rules import QuadratureRule, _cut_points
from .seminorms import DEFAULT_RESOLUTION
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
    the per-panel bounds, summed in panel order).  ``panels`` is read-only
    and compares equal to its tuple; it builds all its pairs on the first
    read that needs them.  ``evaluations`` counts the samples of f taken
    for the returned approximation (derivative samples for the
    certificates are not included).  ``converged`` is always True for
    single/composite runs; adaptive runs clear it when the panel budget ran
    out before the requested tolerance was met.
    """

    approximation: Element
    certificate: ErrorCertificate
    panels: Sequence[tuple[Interval, ErrorCertificate]]
    panel_values: tuple[Element, ...]
    evaluations: int
    converged: bool = True


def apply_rule(fn: VectorFunction, rule: QuadratureRule, interval: Interval) -> Element:
    """``(b - a) * sum(p_i * f(x_i))`` with a fixed-order accumulation."""
    return _elements(_rule_values(fn, rule, [interval.a], [interval.b]))[0]


def _elements(stacked: np.ndarray) -> list[Element]:
    """The rows of a stack of elements: Python floats in the scalar space."""
    return stacked.tolist() if stacked.ndim == 1 else list(stacked)


def _rule_values(fn: VectorFunction, rule: QuadratureRule, a, b) -> np.ndarray:
    """:func:`apply_rule` on the panels ``[a[k], b[k]]`` at once, stacked.

    All nodes, panel by panel, are sampled by one ``fn.f_many`` call (one
    ``fn.f`` call per node, in that order, if the batch raises); the
    weighted samples are folded in node order with the space's ``add``
    and ``scale`` over the stacked samples, then each sum is scaled by its
    panel's length.  Each panel's value is therefore the one its own fold
    gives.
    """
    space = fn.space
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nodes = _cut_points(rule, a, b)[:, 1:-1]
    shape = np.shape(space.zero())
    with np.errstate(all="ignore"):  # overflow gives inf, as float sums do
        values = samples(fn.f_many, nodes.ravel(), shape, fn.f).reshape(nodes.shape + shape)
        acc = space.zero()
        for j, w in enumerate(rule.weights):
            acc = space.add(acc, space.scale(w, values[:, j]))
        lengths = (b - a).reshape((-1,) + (1,) * (acc.ndim - 1))
        return space.scale(lengths, acc)


def oracle_integral(fn: VectorFunction, interval: Interval, resolution: int) -> Element:
    """Reference integral by componentwise composite Simpson.

    A test oracle: certificates never consume it.  ``resolution`` counts
    Simpson panels and must be even and at least 2 so that refinement
    checks can halve it.  Samples are taken through ``fn.f_many`` and
    summed in :func:`simpson_element`'s pinned blocked order, so the value
    is reproducible bit for bit and does not depend on the memory layout
    of the batches; at 65,536 panels each sample goes through at most 146
    roundings.
    """
    if resolution < 2:
        raise ValueError(f"oracle resolution must be >= 2, got {resolution}")
    if resolution % 2 != 0:
        raise ValueError(f"oracle resolution must be even, got {resolution}")
    return simpson_element(fn.space, fn.f_many, interval.a, interval.b, resolution)


class _PanelTable(Sequence):
    """A run's final panels as columns (ends, certificate rows): a caller
    that reads no pair never builds one; the first read builds them all."""

    def __init__(self, rule, regime, level, lo, hi, rows) -> None:
        self._rule, self._regime, self._level = rule, regime, level
        self._lo, self._hi, self._rows = lo, hi, rows

    @cached_property
    def _pairs(self) -> tuple[tuple[Interval, ErrorCertificate], ...]:
        panels = [Interval(a, b) for a, b in zip(self._lo.tolist(), self._hi.tolist())]
        certs = _certificates(self._rule, self._regime, self._level, panels, self._rows)
        return tuple(zip(panels, certs))

    def __len__(self) -> int:
        return len(self._lo)

    def __getitem__(self, k):
        return self._pairs[k]

    def __eq__(self, other):
        return self._pairs == other if isinstance(other, (tuple, _PanelTable)) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._pairs)


def _aggregate(fn, rule, interval, regime, level, lo, hi, rows, values, tol=None):
    """The result over the panels ``[lo[k], hi[k]]``, their certificate
    ``rows`` and stacked rule ``values``; sums run left to right from zero."""
    _, bounds, certified = rows
    with np.errstate(all="ignore"):  # overflow gives inf, as float sums do
        approx = np.add.accumulate(np.concatenate(([fn.space.zero()], values)))[-1:].copy()
        total = np.add.accumulate(np.concatenate(([0.0], bounds)))[-1].item()
    approx = _elements(approx)[0]
    certificate = ErrorCertificate(
        bound=total,
        level=level,
        regime=regime,
        segment_contributions=tuple(bounds.tolist()),
        # a bound says nothing about an approximation that is not finite
        certified=bool(certified.all() and np.isfinite(approx).all()),
        rule_name=rule.name,
        interval=interval,
    )
    return QuadratureResult(
        approximation=approx,
        certificate=certificate,
        panels=_PanelTable(rule, regime, level, lo, hi, rows),
        panel_values=tuple(_elements(values)),
        evaluations=rule.n * len(lo),
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
    """Apply the rule on every panel of ``partition`` and sum certificates.

    The rule values and then the certificates of all panels are computed
    at once, the certificates by one call of the level's array form.
    """
    ends = np.array(partition.breakpoints)
    lo, hi = ends[:-1], ends[1:]
    try:
        values = _rule_values(fn, rule, lo, hi)
        rows = _certificate_rows(fn, rule, regime, level, lo, hi, resolution)
    except Exception:
        # all rule values come before any certificate here: redo the work
        # panel by panel, so that the error raised is the first one met
        # when each panel's value and then its certificate are computed
        for panel in partition.panels:
            apply_rule(fn, rule, panel)
            _certificate_rows(fn, rule, regime, level, [panel.a], [panel.b], resolution)
        raise
    return _aggregate(fn, rule, partition.interval, regime, level, lo, hi, rows, values)


def _worst(heap: list, k: int) -> list:
    """The ``k`` smallest entries of ``heap`` (all of them if it is shorter),
    walking down from its root in O(k log k) by their first two fields."""
    found: list = []
    n, pop, push = len(heap), heapq.heappop, heapq.heappush
    frontier = [(heap[0][0], heap[0][1], 0)] if heap and k > 0 else []
    while frontier and len(found) < k:
        i = pop(frontier)[2]
        found.append(heap[i])
        if (j := 2 * i + 1) < n:
            push(frontier, ((e := heap[j])[0], e[1], j))
            if (j := j + 1) < n:
                push(frontier, ((e := heap[j])[0], e[1], j))
    return found


def _entries(fn, rule, regime, resolution, ends: list, store: list) -> list:
    """Heap entries of the panels ``ends`` from one kernel call, whose
    ``(rows made so far, contributions, certified)`` goes onto ``store``."""
    a, b = zip(*ends)
    contribs, bounds, certified = _certificate_rows(fn, rule, regime, 2, a, b, resolution)
    first = store[-1][0] if store else 0
    store.append((first + len(bounds), contribs, certified))
    rows = range(first, first + len(bounds))
    return list(zip((-bounds).tolist(), a, b, bounds.tolist(), rows))


def _halves(fn, rule, regime, resolution, parents, store: list) -> dict:
    """Heap entries of both halves of each panel ``(lo, hi)`` in
    ``parents``, keyed by the panel, from one kernel call."""
    ends = []
    for lo, hi in parents:
        mid = 0.5 * (lo + hi)
        ends += ((lo, mid), (mid, hi))
    entries = _entries(fn, rule, regime, resolution, ends, store)
    return dict(zip(parents, zip(entries[::2], entries[1::2])))


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
    raising.  A heap entry holds a panel's bound, ends and row in the kernel
    calls' arrays; the final panels become columns in panel order, rule values
    are evaluated in chunks, and ``panels`` is built from the columns on first read.

    Under linf with a sup-envelope, the worst panel, if its halves are not yet
    certified, has them certified in one kernel call together with the
    halves of up to ``_BATCH - 1`` next-worst panels, never more panels
    than splits are left in the budget.  Each row is what that panel alone
    gives, and if the call raises, the worst panel is certified alone, so
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

    # heap entries are (-bound, lo, hi, bound, row), row numbering the kernel
    # rows in store; left endpoints are unique, so entries never compare past lo
    store: list = []
    heap = _entries(fn, rule, regime, resolution, [(interval.a, interval.b)], store)
    count = 1
    running, slack = heap[0][3], 0.0
    # a lower bound computed above this is normal, so its rounding is relative
    floor = max(tol, sys.float_info.min)
    # envelope certificates are cheap, so the children of the next-worst
    # panels are certified ahead, with the worst panel's, in one batch
    width = _BATCH if regime.kind == "linf" and fn.df_sup is not None else 1
    children: dict = {}
    heapreplace, heappush, ulp = heapq.heapreplace, heapq.heappush, math.ulp

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
        # the worst panel is replaced by its halves; only the order of the
        # entries matters, never where the heap keeps them
        _, lo, hi, bound, _ = heap[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # panel too narrow to split; no further refinement possible
        pair = children.get((lo, hi))
        if pair is None:
            # never more panels than the splits left in the budget
            ahead = _worst(heap, min(width, max_panels - count))[1:]
            batch = [(lo, hi)] + [
                (e[1], e[2]) for e in ahead if e[1] < 0.5 * (e[1] + e[2]) < e[2]
            ]
            try:
                children = _halves(fn, rule, regime, resolution, batch, store)
            except Exception:
                # a speculative panel failed; the worst one raises alone
                # if it raises at all, as it would without speculation
                if len(batch) == 1:
                    raise
                children = _halves(fn, rule, regime, resolution, batch[:1], store)
            pair = children[(lo, hi)]
        left, right = pair
        heapreplace(heap, left)
        heappush(heap, right)
        count += 1
        running += left[3]
        slack += ulp(running)
        running += right[3]
        slack += ulp(running)
        running -= bound
        slack += ulp(running)
        if left[3] < 0.0 or right[3] < 0.0:
            running = math.nan  # the error bar assumes nonnegative terms

    # the final panels as columns, in panel order; rule values in chunks
    lo, hi, bounds, rows = list(zip(*sorted(heap, key=lambda e: e[1])))[1:]
    heap.clear()
    lo, hi, rows = np.array(lo), np.array(hi), np.array(rows)
    contribs, certified = (np.concatenate(column)[rows] for column in list(zip(*store))[1:])
    values = np.concatenate([
        _rule_values(fn, rule, lo[k:k + _BATCH], hi[k:k + _BATCH])
        for k in range(0, len(lo), _BATCH)
    ])
    columns = (contribs, np.array(bounds), certified)
    return _aggregate(fn, rule, interval, regime, 2, lo, hi, columns, values, tol)
