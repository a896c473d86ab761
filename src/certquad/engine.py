"""Rule application, composite and adaptive integration, and the test oracle.

Everything here is deterministic: panel results are reduced strictly left
to right, and the adaptive driver orders its work by (bound, left endpoint)
so two runs with identical inputs produce bit-identical output.
"""

from __future__ import annotations

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
# panels per adaptive kernel call and per chunk of the final rule pass: enough to
# spread a call's fixed cost, few enough to keep the arrays small in peak memory
_BATCH = 256
# states of a node in the adaptive driver's table: a panel of the current
# division, a certified half of an unsplit panel, a panel split in two
_FRONTIER, _SPECULATED, _SPLIT = 0, 1, 2


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
    total = _total(bounds)
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


def _total(bounds: np.ndarray) -> float:
    """``bounds`` summed left to right from zero, as a certificate sums them."""
    with np.errstate(all="ignore"):  # overflow gives inf, as float sums do
        return np.add.accumulate(np.concatenate(([0.0], bounds)))[-1].item()


def _panels(lo: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The node table's panels of the current division, left to right."""
    panels = np.flatnonzero(state == _FRONTIER)
    return panels[np.argsort(lo[panels] + 0j, kind="stable")]  # the order's sort routine


def _split(state: np.ndarray, left: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Replace each of ``parents``, a prefix of a round's order, by its halves."""
    state[left[parents]] = state[left[parents] + 1] = _FRONTIER
    state[parents] = _SPLIT
    return state


def _grow(fn, rule, regime, resolution, store: list, table: list, n: int, roots, depth: int) -> int:
    """Write into ``table`` after its ``n`` nodes (doubling full columns) those to
    ``depth`` levels below ``roots`` by level, halves side by side, none below a panel
    too narrow to split, certified by one kernel call; returns the node count."""
    end, ids, a, b, levels = n, roots, table[0][roots], table[1][roots], []
    with np.errstate(over="ignore"):  # a midpoint past the range is inf
        for _ in range(depth):
            mid = 0.5 * (a + b)
            wide = (a < mid) & (mid < b)
            a, mid, b, ids = a[wide], mid[wide], b[wide], ids[wide]
            a, b = np.stack((a, mid), 1).ravel(), np.stack((mid, b), 1).ravel()
            levels.append((a, b, ids.repeat(2)))
            ids = np.arange(end, end + len(a))
            end += len(a)
    a, b, parents = (np.concatenate(column) for column in zip(*levels))
    contribs, bounds, certified = _certificate_rows(fn, rule, regime, 2, a, b, resolution)
    store.append((contribs, certified))
    if end > len(table[0]):
        table[:] = [np.concatenate((c, np.empty(max(len(c), end), c.dtype))) for c in table]
    for column, new in zip(table, (a, b, bounds, parents, -1, _SPECULATED, -bounds + 1j * a)):
        column[n:end] = new
    table[4][parents[::2]] = np.arange(n, end, 2)
    return end


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
    raising.  The final panels become columns in panel order, rule values
    are evaluated in chunks, and ``panels`` is built from the columns on
    first read.

    Each certified panel is a node of a table (ends, bound, parent, first half,
    state, key) numbered by its kernel row; the unsplit nodes stay sorted by
    (-bound, left end), a heap's key, and a round splits them in that order
    while each is the next pop (in the division or a half of a panel split
    earlier in the round, with certified halves, wide enough, within the
    budget, the stop test saying go on).  A node without halves ends it with one
    kernel call.  Under linf with a sup-envelope the call certifies the nodes
    to depth d below the worst k nodes without halves, k (2**d - 1) at most
    ``_BATCH`` and the splits left, d at most the halvings from the running
    total to ``tol`` (linf halves bound at most half their parent); otherwise
    the halves of up to 16 of them that the run splits whatever their halves
    bound, which are all it would certify.  Rows are what each panel alone
    gives; a call that raises is redone on the first node's halves alone.

    The stop test decides exactly as the ordered sum would.  A running total of
    the n panel bounds gains both halves' bounds and loses the parent's at each
    split, and ``slack`` adds one ulp of each update's result, at least twice
    its rounding error; a round forms both as sequential accumulations, with
    the bits of one split at a time.  The ordered float sum of n nonnegative
    terms lies within gamma_(n-1) of their exact sum (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 4.2), so when ``tol``
    falls outside ``[running - slack, running + slack]`` widened by a relative
    ``2 (n + 2) u`` (u = 2**-53, which also covers the rounding of the test
    itself) the side it falls on decides.  Only inside that band, or once the
    total is not finite or a bound is negative, is the sum formed.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if max_panels < 1:
        raise ValueError(f"max_panels must be >= 1, got {max_panels}")

    table, store = _refine(fn, rule, interval, regime, tol, max_panels, resolution)
    panels = _panels(table[0], table[5])  # the final panels as columns, in panel order
    lo, hi, bounds = (column[panels] for column in table[:3])
    contribs, certified = (np.concatenate(column)[panels] for column in zip(*store))
    del table, store
    values = np.concatenate([_rule_values(fn, rule, lo[k:k + _BATCH], hi[k:k + _BATCH])
                             for k in range(0, len(lo), _BATCH)])
    columns = (contribs, bounds, certified)
    return _aggregate(fn, rule, interval, regime, 2, lo, hi, columns, values, tol)


def _refine(fn, rule, interval, regime, tol, max_panels, resolution) -> tuple:
    """The node table and kernel rows of :func:`integrate_adaptive`'s rounds."""
    lo, hi = np.array([interval.a]), np.array([interval.b])
    contribs, bound, certified = _certificate_rows(fn, rule, regime, 2, lo, hi, resolution)
    store, order = [(contribs, certified)], np.zeros(1, int)
    width = _BATCH if (cheap := regime.kind == "linf" and fn.df_sup is not None) else 16
    # node columns lo, hi, bound, parent, first half, state and a key that sorts
    # as (-bound, lo) does, nan bounds last; sized for a run that spends its budget
    table = [np.empty(min(2 * max_panels, 1 << 16) + 2 * width, dtype)
             for dtype in (float, float, float, int, int, np.int8, complex)]
    for column, root in zip(table, (lo, hi, bound, -1, -1, _FRONTIER, -bound + 1j * lo)):
        column[:1] = root
    n, count, running, slack, tested = 1, 1, bound[0].item(), 0.0, False
    floor = max(tol, sys.float_info.min)  # lower bounds above it round relatively

    while count < max_panels:
        lo, hi, bound, parent, left, state = (column[:n] for column in table[:6])
        # a round ends within the H + 1 first, H the unsplit nodes with halves
        head, at = order[:(n - 1) // 2 - count + 2 + width], 0
        ready = state[head] == _FRONTIER
        with np.errstate(all="ignore"):  # overflow gives inf, as float sums do
            if ready[0]:
                # a half is next if its parent precedes it: numbered first, it does unless outranked
                b, pb = bound[head], bound[parent[head]]
                ready |= ~((b > pb) | np.isnan(pb) & ~np.isnan(b))
            else:  # a half outranks its unsplit parent: the division's worst is next, alone
                at = int((state[order] == _FRONTIER).argmax())
                head, ready = order[at, None], np.ones(1, bool)
            a, b = lo[head], hi[head]
            mid = 0.5 * (a + b)
            wide = (a < mid) & (mid < b)
            ok = ready & wide & (left[head] >= 0)
            m = min(len(head) if ok.all() else int(ok.argmin()), max_panels - count)
            # running total and slack after each split of the round, in order
            pops = head[:m]
            l, r = bound[left[pops]], bound[left[pops] + 1]
            partial = np.add.accumulate(np.append(running, np.array((l, r, -bound[pops])).T))
            slacks = np.add.accumulate(np.append(slack, np.spacing(np.abs(partial[1:]))))
            runs, slacks = partial[::3], slacks[::3]
            if (negative := (l < 0.0) | (r < 0.0)).any():
                runs[1 + negative.argmax():] = math.nan
            # stop tests before each split and after the last; a spent budget stops
            counts = count + np.arange(m + 1)
            tops, g = runs + slacks, (counts + 2) * _EPS
            go = (counts < max_panels) & np.isfinite(tops) & ((runs - slacks) * (1.0 - g) > floor)
            stop = (counts == max_panels) | np.isfinite(tops) & ~go & (tops * (1.0 + g) <= tol)
        go[0] |= tested
        # the first state that stops, the ordered sum deciding where the test did not
        end = next((j for j in np.flatnonzero(~go).tolist() if stop[j]
                    or _total(bound[_panels(lo, _split(state, left, head[:j]))]) <= tol), None)
        s = m if end is None else end
        _split(state, left, head[:s])
        count, running, slack, tested = count + s, runs[s].item(), slacks[s].item(), True
        if end is not None:
            break
        order = np.concatenate((order[:at], order[at + s:])) if at else order[s:]
        if m == len(head) or not ready[m]:
            continue
        if not wide[m]:
            break  # panel too narrow to split; no further refinement possible
        # envelope rows are cheap: the nodes to depth d below the worst k without
        # halves, k (2**d - 1) splits at most, d at most the halvings to tol
        splits = min(width, max_panels - count)
        at = np.flatnonzero(wide[m:] & (left[head[m:]] < 0))[:splits]
        if not cheap:  # sampled rows cost: only nodes split whatever their halves bound
            with np.errstate(all="ignore"):  # overflow gives inf, as float sums do
                reach = running * (1.0 - 1e-9) - np.add.accumulate(bound[head[m:]])[at]
            splits = len(at := at[:max(1, int((reach > tol).sum()))])
        roots = head[m:][at]
        depth = min((splits // len(roots) + 1).bit_length() - 1,
                    max(1, math.frexp(min(2.0**8, running / tol))[1]))
        try:
            new = _grow(fn, rule, regime, resolution, store, table, n, roots, depth)
        except Exception:
            # a speculative node failed: the failing node's halves alone, as without it
            if depth == 1 and len(roots) == 1:
                raise
            new = _grow(fn, rule, regime, resolution, store, table, n, roots[:1], 1)
        # one stable sort (a timsort: a pass over the sorted run) merges the new nodes in
        order, n = np.concatenate((order, np.arange(n, new))), new
        order = order[np.argsort(table[6][order], kind="stable")]

    return [column[:n] for column in table], store
