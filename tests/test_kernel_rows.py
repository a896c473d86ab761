"""The segment-major certificate kernel against the panel-major kernel it
replaced (``helpers.reference_certificate_rows``, frozen): the same bytes
and shapes on a seeded grid of rules, regimes, levels and panel counts, and
the same exception, message included, where panel order and segment order
meet two failures in different orders."""

import random

import numpy as np
import pytest

from certquad import (
    L1,
    LINF,
    PRESET_NAMES,
    SPACES,
    Interval,
    VectorFunction,
    lp,
    make_function,
    make_rule,
    preset,
    uniform_partition,
)
from certquad.bounds import _certificate_rows
from helpers import PIECE_RULES, reference_certificate_rows

RESOLUTION = 2
# the library sweep's extreme intervals (tests/test_library_sweep.py)
EXTREME = [(-1e308, 1e308), (0.0, 1e307), (-1e155, 1e155), (1e-300, 2e-300), (1e15, 1e15 + 1)]
# lp:40 has q = 40/39; lp:1.02 (q = 51) takes the log-space branch past q = 30
REGIMES = {"l1": L1, "lp2": lp(2.0), "lp40": lp(40.0), "lp1.02": lp(1.02),
           "linf": LINF, "linf_sampled": LINF}


def _random_rules():
    """Seeded rules: nodes at 0 and 1, coincident nodes, and weights that
    put comparison points outside their node windows."""
    rng = random.Random(28)
    rules = []
    for shape in ("ends", "coincident", "free", "free"):
        n = rng.randint(2, 5)
        nodes = sorted(rng.random() for _ in range(n))
        if shape == "ends":
            nodes[0], nodes[-1] = 0.0, 1.0
        elif shape == "coincident":
            nodes[1] = nodes[0]
        weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
        rules.append(make_rule(nodes, [w / sum(weights) for w in weights], "random"))
    return rules


RULES = [preset(name) for name in PRESET_NAMES if name != "three_point"]
RULES += [preset("three_point", 0.2, 0.5, 0.1, 0.4, 0.9), *PIECE_RULES.values(), *_random_rules()]


def _sampled(fn):
    """``fn`` without its sup-envelope: linf falls back to derivative samples."""
    return VectorFunction(space=fn.space, f=fn.f, df=fn.df, name=f"{fn.name}_sampled")


def _panel_sets(n):
    """``(function name, a, b)``, ``a`` and ``b`` arrays of ``n`` panels:
    seeded mixed panels (degenerate, tiny, shifted, wide) for poly_r3, then
    each extreme interval cut into ``n`` for trig_circle, whose derivative
    stays finite there."""
    rng = np.random.default_rng(n)
    scale = 10.0 ** rng.uniform(-12.0, 3.0, n)
    a = rng.choice([0.0, -1.0, 1e6, -40.0], n) + rng.uniform(-1.0, 1.0, n) * scale
    b = a + np.where(np.arange(n) % 7 == 3, 0.0, rng.exponential(1.0, n) * scale)
    yield "poly_r3", a, b
    for lo, hi in EXTREME:
        ends = np.array(uniform_partition(Interval(lo, hi), n).breakpoints)
        yield "trig_circle", ends[:-1], ends[1:]


def _outcome(rows, *args):
    """Every array's dtype, shape and bytes, or the exception's type and text."""
    try:
        arrays = rows(*args)
    except Exception as exc:  # the type and text are what is compared
        return type(exc).__name__, str(exc)
    return [(x.dtype.str, x.shape, x.tobytes()) for x in arrays]


def _cells(name, regime_id, n):
    """Each ``(fn, rule, regime, level)`` of the grid for the registry
    function ``name`` at ``n`` panels.  Level 1 does not read the regime,
    so it runs with l1 alone.  Past 2 panels the regimes other than linf
    take qt and a rule with nodes at both ends, and qt alone at 4,096 and
    for sampled linf.  Sampled linf stops at 255: its seminorms are one
    sampled maximum per segment, taken in panel order whatever the
    layout, and its arithmetic is linf's."""
    regime = REGIMES[regime_id]
    fn = make_function(name)
    if regime_id == "linf_sampled":
        fn = _sampled(fn)
    rules = RULES
    if n > 2 and regime_id != "linf":
        one = n == 4096 or regime_id == "linf_sampled"
        rules = [preset("qt")] if one else [preset("qt"), PIECE_RULES["ends"]]
    levels = (1, 2, 3) if regime_id == "l1" else (2, 3)
    for rule in rules:
        for level in levels:
            yield fn, rule, regime, level


@pytest.mark.parametrize("regime_id, n", [
    (regime_id, n) for regime_id in sorted(REGIMES) for n in (1, 2, 255, 4096)
    if (regime_id, n) != ("linf_sampled", 4096)
])
def test_rows_keep_the_panel_major_bytes(regime_id, n):
    for name, a, b in _panel_sets(n):
        for fn, rule, regime, level in _cells(name, regime_id, n):
            args = (fn, rule, regime, level, a, b, RESOLUTION)
            ours = _outcome(_certificate_rows, *args)
            assert ours == _outcome(reference_certificate_rows, *args), (rule, level, a[:2])
            if not isinstance(ours, tuple):
                assert ours[0][1] == (n, rule.n + 1 if level < 3 else 0)


# two panels, [0, 1] and [1, 2], under qt: panel 0's last segment is
# [0.75, 1], panel 1's first [1, 1.25]; a segment-major pass meets the
# second first
LAST_OF_0, FIRST_OF_1 = (0.75, 1.0), (1.0, 1.25)
FAILURES = {"nan": float("nan"), "negative": -1.0, "raise": None}


def _failing_envelope(kinds, batched):
    """A scalar function whose envelope fails on panel 0's last segment as
    ``kinds[0]`` and on panel 1's first as ``kinds[1]``: a nan, a negative
    value or a ``ZeroDivisionError`` naming the segment.  Batched, one
    ``df_sup_many`` raises on the first raising segment of its input."""
    failing = dict(zip((LAST_OF_0, FIRST_OF_1), kinds))

    def df_sup(lo, hi):
        kind = failing.get((lo, hi))
        if kind == "raise":
            raise ZeroDivisionError(f"envelope fails on [{lo}, {hi}]")
        return 1.0 if kind is None else FAILURES[kind]

    def df_sup_many(lo, hi):
        return np.array([df_sup(x, y) for x, y in zip(lo.tolist(), hi.tolist())])

    return VectorFunction(space=SPACES["scalar"], f=lambda t: t, df=lambda t: 1.0, df_sup=df_sup,
                          df_sup_many=df_sup_many if batched else None, name="order")


def _message(kind, segment):
    if kind == "raise":
        return "ZeroDivisionError", f"envelope fails on [{segment[0]}, {segment[1]}]"
    return "ValueError", f"sup-envelope of order returned {FAILURES[kind]!r}"


@pytest.mark.parametrize("batched", [False, True], ids=["per_segment", "batched"])
@pytest.mark.parametrize("second", sorted(FAILURES))
@pytest.mark.parametrize("first", sorted(FAILURES))
def test_envelope_failures_raise_in_panel_order(first, second, batched):
    fn = _failing_envelope((first, second), batched)
    args = (fn, preset("qt"), LINF, 2, [0.0, 1.0], [1.0, 2.0], RESOLUTION)
    ours = _outcome(_certificate_rows, *args)
    assert ours == _outcome(reference_certificate_rows, *args)
    # a batched call raises before any value is checked
    if batched and first != "raise" and second == "raise":
        assert ours == _message(second, FIRST_OF_1)
    else:
        assert ours == _message(first, LAST_OF_0)


def _raising_derivative():
    """A scalar function whose ``df_many`` raises on samples inside panel 0's
    last segment and panel 1's first, naming the first such sample."""
    def hit(ts):
        return (0.8 < ts) & (ts < 0.9) | (1.1 < ts) & (ts < 1.2)

    def df_many(ts):
        if hit(ts).any():
            raise ZeroDivisionError(f"df fails at {float(ts[hit(ts)][0])!r}")
        return np.ones_like(ts)

    return VectorFunction(space=SPACES["scalar"], f=lambda t: t, df=lambda t: 1.0,
                          df_many=df_many, name="raising")


@pytest.mark.parametrize("level", [1, 2, 3])
def test_raising_derivative_raises_in_panel_order(level):
    args = (_raising_derivative(), preset("qt"), L1, level, [0.0, 1.0], [1.0, 2.0], 8)
    ours = _outcome(_certificate_rows, *args)
    assert ours == _outcome(reference_certificate_rows, *args)
    assert ours[0] == "ZeroDivisionError" and 0.8 < float(ours[1].split()[-1]) < 0.9
