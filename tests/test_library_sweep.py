"""Extreme inputs end cleanly in the library, not only in the CLI.

A seeded sample of library calls on huge, tiny and shifted intervals:
every registry function (const and affine in every space), the presets
plus one random rule not exact on affine functions, the l1, lp:2, lp:1.01
and linf regimes and levels 1-3.  Each call either returns or raises
``ValueError`` or ``ArithmeticError``; numpy warnings are errors, and no
seminorm comes back nan.  The full grid is about 24,000 calls; each
function's cells are sampled, with a seed of their own, to about a quarter.
"""

import math
import random
import zlib

import pytest

from certquad import (
    FUNCTION_NAMES,
    L1,
    LINF,
    PRESET_NAMES,
    SPACES,
    Interval,
    bound_level3,
    integrate_adaptive,
    integrate_composite,
    level2_certificate,
    lp,
    make_function,
    make_rule,
    oracle_integral,
    preset,
    seminorm,
    uniform_partition,
)

RESOLUTION = 8
SAMPLE = 0.25
INTERVALS = [(-1e308, 1e308), (0.0, 1e307), (-1e155, 1e155), (1e-300, 2e-300),
             (1e15, 1e15 + 1)]
REGIMES = [L1, lp(2.0), lp(1.01), LINF]


def _random_rule():
    """A seeded three-node rule whose first moment is not 1/2, so it is not
    exact on affine functions."""
    rng = random.Random(7)
    while True:
        nodes = sorted(rng.random() for _ in range(3))
        weights = [rng.uniform(0.1, 1.0) for _ in range(3)]
        weights = [w / sum(weights) for w in weights]
        if abs(sum(w * u for w, u in zip(weights, nodes)) - 0.5) > 1e-2:
            return make_rule(nodes, weights, "random")


RULES = [preset(name) for name in PRESET_NAMES if name != "three_point"]
RULES += [preset("three_point", 0.2, 0.5, 0.1, 0.4, 0.9), _random_rule()]
FUNCTIONS = [(name, label) for name in FUNCTION_NAMES
             for label in (sorted(SPACES) if name in ("const", "affine") else [None])]


def _calls(fn):
    """Every call of the grid on ``fn``, each once for the arguments it reads."""
    for a, b in INTERVALS:
        interval = Interval(a, b)
        yield oracle_integral, (fn, interval, RESOLUTION)
        for regime in REGIMES:
            yield seminorm, (fn, interval, regime, RESOLUTION)
            for rule in RULES:
                for level in (1, 2, 3):
                    yield _composite, (fn, rule, interval, regime, level)
                yield integrate_adaptive, (fn, rule, interval, regime, 1e-3, 16, RESOLUTION)
                yield level2_certificate, (fn, rule, interval, regime, RESOLUTION)
                yield _level3, (fn, rule, interval, regime)


def _composite(fn, rule, interval, regime, level):
    partition = uniform_partition(interval, 3)
    return integrate_composite(fn, rule, partition, regime, level, RESOLUTION)


def _level3(fn, rule, interval, regime):
    estimate = seminorm(fn, interval, regime, RESOLUTION)
    assert not math.isnan(estimate.value), (fn.name, interval, regime)
    return bound_level3(estimate, rule, interval)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, label", FUNCTIONS, ids=[f"{n}-{s or 'natural'}" for n, s in FUNCTIONS])
def test_calls_end_cleanly(name, label):
    fn = make_function(name, label)
    calls = list(_calls(fn))
    rng = random.Random(zlib.crc32(f"{name} {label}".encode()))
    for call, args in rng.sample(calls, round(SAMPLE * len(calls))):
        try:
            result = call(*args)
        except (ValueError, ArithmeticError):
            continue
        if call is seminorm:
            assert not math.isnan(result.value), (name, label, args[1:])
