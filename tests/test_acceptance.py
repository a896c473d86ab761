"""Acceptance gate: one test per shipped guarantee.

Each numbered test checks one headline property of the library, so a
verbose run prints one pass/fail line per guarantee.  The soundness grid
(all registry functions x six rules x three regimes x three levels) is
built once and shared between the first two tests.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from certquad import (
    Interval,
    L1,
    LINF,
    PRESET_NAMES,
    apply_rule,
    bound_level1,
    bound_level2,
    bound_level3,
    integrate_adaptive,
    level3_factor,
    lp,
    mu,
    oracle_integral,
    preset,
    seminorm,
    seminorm_profile,
)
from certquad.cli import dumps_json
from helpers import closed_form_constant, identity_residual, riemann_mu

UNIT = Interval(0.0, 1.0)
RESOLUTION = 512
ORACLE_RESOLUTION = 1 << 16

GRID_RULES = (
    ("ostrowski(0.5)", preset("ostrowski", 0.5)),
    ("trapezoid", preset("trapezoid")),
    ("qt", preset("qt")),
    ("qs", preset("qs")),
    ("simpson", preset("simpson")),
    ("quarter_three_point(1/3,1/3)", preset("quarter_three_point", 1.0 / 3.0, 1.0 / 3.0)),
)
GRID_REGIMES = (L1, lp(2.0), LINF)


@dataclass(frozen=True)
class GridCase:
    function: str
    rule: str
    regime: str
    error: float
    bounds: tuple  # (level1, level2, level3)


@pytest.fixture(scope="module")
def soundness_grid(corpus):
    started = time.perf_counter()
    rows = []
    for name in sorted(corpus):
        fn = corpus[name]
        reference = oracle_integral(fn, UNIT, ORACLE_RESOLUTION)
        estimates = {
            regime.label: seminorm(fn, UNIT, regime, RESOLUTION)
            for regime in GRID_REGIMES
        }
        for rule_label, rule in GRID_RULES:
            approx = apply_rule(fn, rule, UNIT)
            err = fn.space.norm(fn.space.subtract(approx, reference))
            b1 = bound_level1(fn, rule, UNIT, RESOLUTION).bound
            for regime in GRID_REGIMES:
                profile = seminorm_profile(fn, rule, UNIT, regime, RESOLUTION)
                b2 = bound_level2(profile, rule, UNIT).bound
                b3 = bound_level3(estimates[regime.label], rule, UNIT).bound
                rows.append(
                    GridCase(name, rule_label, regime.label, err, (b1, b2, b3))
                )
    elapsed = time.perf_counter() - started
    assert len(rows) * 3 == 432  # one row carries all three levels
    return rows, elapsed


def _cli(*args):
    env = os.environ.copy()
    env.pop("QUAD_ORACLE_RESOLUTION", None)
    return subprocess.run(
        [sys.executable, "-m", "certquad", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_criterion_1_soundness_grid(soundness_grid):
    rows, elapsed = soundness_grid
    failures = []
    for row in rows:
        for level, bound in enumerate(row.bounds, start=1):
            if not row.error <= bound + 1e-9:
                failures.append((row.function, row.rule, row.regime, level))
    assert not failures, failures
    assert elapsed < 30.0, f"grid took {elapsed:.1f}s"
    print(f"[criterion 1] PASS soundness on 432 cases in {elapsed:.1f}s")


def test_criterion_2_bound_hierarchy(soundness_grid):
    rows, _ = soundness_grid
    slack = 1.0 + 1e-7
    for row in rows:
        b1, b2, b3 = row.bounds
        assert b1 <= b2 * slack, (row.function, row.rule, row.regime, b1, b2)
        assert b2 <= b3 * slack, (row.function, row.rule, row.regime, b2, b3)
    print("[criterion 2] PASS level1 <= level2 <= level3 on 432 cases")


def test_criterion_3_closed_form_constants():
    sqrt3 = math.sqrt(3.0)
    expected = {
        ("trapezoid", "linf"): 0.25,
        ("qt", "linf"): 0.125,
        ("qs", "linf"): 0.125,
        ("simpson", "linf"): 5.0 / 36.0,
        ("trapezoid", "l1"): 0.5,
        ("qt", "l1"): 0.25,
        ("qs", "l1"): 0.25,
        ("simpson", "l1"): 1.0 / 3.0,
        ("trapezoid", "lp:2"): 1.0 / (2.0 * sqrt3),
        ("qt", "lp:2"): 1.0 / (4.0 * sqrt3),
        ("qs", "lp:2"): 1.0 / (4.0 * sqrt3),
        ("simpson", "lp:2"): 1.0 / 6.0,
    }
    regimes = {"l1": L1, "linf": LINF, "lp:2": lp(2.0)}
    for (rule_name, regime_label), value in expected.items():
        regime = regimes[regime_label]
        assert closed_form_constant(rule_name, regime) == pytest.approx(
            value, rel=1e-12
        ), (rule_name, regime_label)
        # the generic geometry path reproduces the table
        factor = level3_factor(preset(rule_name), UNIT, regime)
        assert factor == pytest.approx(value, rel=1e-12), (rule_name, regime_label)
    print("[criterion 3] PASS 12 closed-form constants to 1e-12")


def test_criterion_4_qt_halves_trapezoid(corpus):
    fn = corpus["exp"]
    for interval in (UNIT, Interval(-1.0, 3.0)):
        for regime in (L1, LINF):
            estimate = seminorm(fn, interval, regime, RESOLUTION)
            qt_bound = bound_level3(estimate, preset("qt"), interval).bound
            trap_bound = bound_level3(estimate, preset("trapezoid"), interval).bound
            assert qt_bound == 0.5 * trap_bound, (interval, regime.label)
    print("[criterion 4] PASS level3(qt) == level3(trapezoid)/2 exactly, l1 and linf")


def test_criterion_5_mu_oracle_equivalence():
    rng = np.random.default_rng(977301)
    worst = 0.0
    counts = [0, 0, 0]
    for _ in range(1000):
        p = float(rng.uniform(1.0, 6.0))
        a = float(rng.uniform(-3.0, 3.0))
        b = a + float(rng.uniform(0.05, 2.0))
        pick = int(rng.integers(0, 3))
        if pick == 0:
            c = a - float(rng.uniform(0.0, 2.0))
        elif pick == 1:
            c = float(rng.uniform(a, b))
        else:
            c = b + float(rng.uniform(0.0, 2.0))
        counts[pick] += 1
        exact = mu(p, a, c, b)
        rel = abs(exact - riemann_mu(p, a, c, b)) / max(abs(exact), 1e-300)
        assert rel <= 1e-8, (p, a, c, b, rel)
        worst = max(worst, rel)
    assert all(counts)  # every placement of c exercised
    # crossing a branch boundary moves the value by O(eps); intervals of
    # length <= 1 keep the local slope near 1 so an absolute budget works
    eps = 1e-12
    for _ in range(200):
        p = float(rng.uniform(1.0, 6.0))
        a = float(rng.uniform(-2.0, 2.0))
        b = a + float(rng.uniform(0.1, 1.0))
        for edge in (a, b):
            jump = abs(mu(p, a, edge + eps, b) - mu(p, a, edge - eps, b))
            assert jump <= 1e-9, (p, a, b, edge, jump)
    print(f"[criterion 5] PASS 1000 triples vs dense integration, worst rel {worst:.2e}")


def test_criterion_6_identity_residual(corpus):
    smooth = ("affine", "const", "exp", "matrix_path", "poly_r3", "quadratic", "trig_circle")
    rules = [preset(name) for name in PRESET_NAMES if name != "three_point"]
    rules.append(preset("three_point", 0.3, 0.4, 0.2, 0.5, 0.8))
    worst = 0.0
    for name in smooth:
        fn = corpus[name]
        for rule in rules:
            fine = identity_residual(fn, rule, UNIT, 1 << 14)
            coarse = identity_residual(fn, rule, UNIT, 1 << 8)
            assert fine <= 1e-8, (name, rule.name, fine)
            # refinement shrinks the residual until it reaches the
            # summation noise floor near 1e-13; exactly reproduced cases
            # sit on that floor and may wobble upward with resolution
            assert fine <= max(coarse, 1e-13), (name, rule.name, coarse, fine)
            worst = max(worst, fine)
    print(f"[criterion 6] PASS residuals for 7 functions x 10 rules, worst {worst:.2e}")


def test_criterion_7_single_node_reduction(corpus):
    fn = corpus["exp"]
    estimate = seminorm(fn, UNIT, LINF, RESOLUTION)
    assert estimate.certified and estimate.value == pytest.approx(math.e, rel=1e-15)
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        cert = bound_level3(estimate, preset("ostrowski", s), UNIT)
        expected = (0.25 + (s - 0.5) ** 2) * estimate.value
        assert cert.bound == pytest.approx(expected, rel=1e-12), s
    print("[criterion 7] PASS one-node linf bound matches 1/4 + (s - 1/2)^2 form")


def test_criterion_8_adaptive_convergence(corpus):
    fn = corpus["exp"]
    result = integrate_adaptive(fn, preset("qt"), UNIT, LINF, tol=1e-3)
    assert result.converged
    assert result.certificate.bound <= 1e-3
    assert len(result.panels) <= 512
    reference = oracle_integral(fn, UNIT, ORACLE_RESOLUTION)
    assert abs(result.approximation - reference) <= result.certificate.bound
    args = (
        "run",
        "--function", "exp",
        "--rule", "qt",
        "--regime", "linf",
        "--mode", "adaptive:1e-3",
        "--output", "json",
        "--no-timing",
    )
    first = _cli(*args)
    second = _cli(*args)
    assert first.returncode == 0 and second.returncode == 0, first.stderr
    assert first.stdout == second.stdout  # bitwise-identical reports
    data = json.loads(first.stdout)
    assert data["panels"]["converged"] is True
    assert data["certificate"]["bound"] <= 1e-3
    print(
        f"[criterion 8] PASS adaptive exp/qt/linf tol 1e-3: "
        f"{len(result.panels)} panels, bound {result.certificate.bound:.3e}, deterministic"
    )


def test_criterion_9_cli_contract():
    proc = _cli(
        "run", "--function", "exp", "--rule", "qt", "--regime", "linf",
        "--level", "3", "--output", "json", "--no-timing",
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    qt_value = 0.5 * (math.exp(0.25) + math.exp(0.75))
    assert data["certificate"]["bound"] == pytest.approx(math.e / 8.0, rel=1e-13)
    assert data["actual_error"] == pytest.approx(abs(math.e - 1.0 - qt_value), rel=1e-9)
    assert data["certificate"]["certified"] is True

    proc = _cli(
        "run", "--function", "quadratic", "--rule", "simpson", "--regime", "linf",
        "--level", "3", "--output", "json", "--no-timing",
    )
    assert proc.returncode == 0, proc.stderr
    data2 = json.loads(proc.stdout)
    assert data2["actual_error"] <= 1e-14
    assert data2["certificate"]["bound"] == pytest.approx(5.0 / 18.0, rel=1e-13)

    proc = _cli(
        "run", "--function", "const", "--space", "r3", "--interval", "0", "2",
        "--rule", "trapezoid", "--regime", "l1", "--level", "2",
        "--output", "json", "--no-timing",
    )
    assert proc.returncode == 0, proc.stderr
    data3 = json.loads(proc.stdout)
    assert data3["actual_error"] == 0.0
    assert data3["certificate"]["bound"] == 0.0

    # emitted JSON parses back to the same report, stably
    assert json.loads(dumps_json(data)) == data
    assert json.loads(dumps_json(json.loads(dumps_json(data)))) == data

    # exit codes: 2 on validation errors, 3 when adaptive runs out of budget
    assert _cli("run", "--function", "nosuch").returncode == 2
    assert _cli("run", "--function", "exp", "--regime", "l7").returncode == 2
    budget = _cli(
        "run", "--function", "exp", "--mode", "adaptive:1e-12",
        "--max-panels", "4", "--output", "json", "--no-timing",
    )
    assert budget.returncode == 3
    print("[criterion 9] PASS three reference runs, JSON round-trip, exit codes 0/2/3")
