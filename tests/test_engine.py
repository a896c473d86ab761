"""Rule application, composite/adaptive drivers, and the reference oracle."""

import math
import random

import numpy as np
import pytest

from certquad import (
    SPACES,
    Interval,
    L1,
    LINF,
    VectorFunction,
    apply_rule,
    integrate_adaptive,
    integrate_composite,
    lp,
    make_function,
    make_rule,
    oracle_integral,
    preset,
    uniform_partition,
)
from certquad import engine

from helpers import reference_adaptive

UNIT = Interval(0.0, 1.0)


class TestApplyRule:
    def test_simpson_exact_on_quadratic(self):
        value = apply_rule(make_function("quadratic"), preset("simpson"), UNIT)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_qs_on_quadratic(self):
        # (1/4)*0 + (1/2)*(1/4) + (1/4)*1 = 3/8
        assert apply_rule(make_function("quadratic"), preset("qs"), UNIT) == 0.375

    def test_trapezoid_on_exp(self):
        value = apply_rule(make_function("exp"), preset("trapezoid"), UNIT)
        assert value == pytest.approx(0.5 * (1.0 + math.e), rel=1e-15)

    def test_interval_scaling(self):
        # constant function: any rule returns (b-a) * value
        fn = make_function("const", "r3")
        out = apply_rule(fn, preset("qt"), Interval(1.0, 4.0))
        assert out == pytest.approx(3.0 * fn.f(0.0), rel=1e-15)

    def test_matrix_valued(self):
        fn = make_function("matrix_path")
        iv = Interval(0.0, math.pi)
        out = apply_rule(fn, preset("qt"), iv)
        expected = math.pi * (0.5 * fn.f(math.pi * 0.25) + 0.5 * fn.f(math.pi * 0.75))
        assert np.allclose(out, expected, rtol=1e-15, atol=0)


class TestOracleIntegral:
    def test_exact_on_cubic(self):
        # Simpson integrates cubics exactly; resolution 2 suffices
        fn = make_function("quadratic")
        assert oracle_integral(fn, UNIT, 2) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_trig_quarter_turn(self):
        fn = make_function("trig_circle")
        out = oracle_integral(fn, Interval(0.0, math.pi / 2.0), 256)
        assert out == pytest.approx(np.array([1.0, 1.0]), abs=1e-10)

    def test_exp_value(self):
        assert oracle_integral(make_function("exp"), UNIT, 256) == pytest.approx(
            math.e - 1.0, rel=1e-12
        )

    def test_overflowing_samples_raise_value_error(self):
        # exp overflows from t = 709.78...; the first sample taken past it
        # is the right endpoint
        with pytest.raises(ValueError, match=r"nonfinite sample at t=720\.0"):
            oracle_integral(make_function("exp"), Interval(700.0, 720.0), 65536)

    def test_overflowing_sum_raises_value_error(self):
        fn = make_function("quadratic")
        with pytest.raises(ValueError, match="nonfinite Simpson sum"):
            oracle_integral(fn, Interval(1e153, 1e154), 2)

    def test_refinement_self_consistency(self):
        for name in ("exp", "trig_circle", "matrix_path"):
            fn = make_function(name)
            iv = Interval(0.0, 2.0)
            coarse = oracle_integral(fn, iv, 1 << 12)
            fine = oracle_integral(fn, iv, 1 << 13)
            diff = fn.space.norm(fn.space.subtract(coarse, fine))
            assert diff <= 1e-11 * (1.0 + fn.space.norm(fine))

    def test_resolution_validation(self):
        fn = make_function("exp")
        with pytest.raises(ValueError, match="even"):
            oracle_integral(fn, UNIT, 3)
        with pytest.raises(ValueError, match=">= 2"):
            oracle_integral(fn, UNIT, 0)


class TestComposite:
    def test_two_panel_trapezoid_exp(self):
        fn = make_function("exp")
        rule = preset("trapezoid")
        part = uniform_partition(UNIT, 2)
        result = integrate_composite(fn, rule, part, LINF, level=2)
        e_half = math.exp(0.5)
        expected = 0.5 * (0.5 * (1.0 + e_half)) + 0.5 * (0.5 * (e_half + math.e))
        assert result.approximation == pytest.approx(expected, rel=1e-15)
        # per-panel level-2 bounds: mu_1 factor (1/16) times the panel sup
        expected_bound = 0.0625 * e_half + 0.0625 * math.e
        assert result.certificate.bound == pytest.approx(expected_bound, rel=1e-14)
        assert result.certificate.certified
        assert result.converged
        assert len(result.panels) == 2
        assert result.evaluations == 4

    def test_bound_halves_under_refinement(self):
        # constant-speed derivative: level-3 linf certificates scale like
        # sum of panel_length^2, so doubling the panel count halves them
        fn = make_function("matrix_path")
        rule = preset("qt")
        iv = Interval(0.0, 2.0)
        bounds = []
        for m in (1, 2, 4, 8):
            result = integrate_composite(
                fn, rule, uniform_partition(iv, m), LINF, level=3
            )
            bounds.append(result.certificate.bound)
        for coarse, fine in zip(bounds, bounds[1:]):
            assert fine == pytest.approx(0.5 * coarse, rel=1e-12)

    def test_error_decreases_with_panels(self):
        fn = make_function("exp")
        rule = preset("qs")
        ref = oracle_integral(fn, UNIT, 1 << 14)
        errs = []
        for m in (1, 4, 16):
            result = integrate_composite(
                fn, rule, uniform_partition(UNIT, m), LINF, level=3
            )
            errs.append(abs(result.approximation - ref))
        assert errs[2] < errs[1] < errs[0]

    def test_aggregate_certificate_sums_panels(self):
        fn = make_function("exp")
        rule = preset("qt")
        part = uniform_partition(UNIT, 4)
        result = integrate_composite(fn, rule, part, LINF, level=2)
        per_panel = [cert.bound for _, cert in result.panels]
        assert result.certificate.segment_contributions == tuple(per_panel)
        assert result.certificate.bound == pytest.approx(sum(per_panel), rel=1e-15)
        assert result.evaluations == rule.n * 4

    def test_certified_flag_aggregates(self):
        fn = make_function("exp")
        part = uniform_partition(UNIT, 2)
        certified = integrate_composite(fn, preset("qt"), part, LINF, level=3)
        sampled = integrate_composite(fn, preset("qt"), part, L1, level=3)
        assert certified.certificate.certified
        assert not sampled.certificate.certified

    def test_panel_values_are_rule_values(self):
        fn = make_function("trig_circle")
        rule = preset("qs")
        result = integrate_composite(fn, rule, uniform_partition(UNIT, 3), LINF)
        assert len(result.panel_values) == 3
        for (panel, _), value in zip(result.panels, result.panel_values):
            assert np.array_equal(value, apply_rule(fn, rule, panel))

    def test_level1_composite(self):
        fn = make_function("quadratic")
        part = uniform_partition(UNIT, 2)
        result = integrate_composite(fn, preset("trapezoid"), part, LINF, level=1)
        assert result.certificate.level == 1
        assert not result.certificate.certified
        # per-panel level-1 values for f' = 2t: int |t - 1/4| 2t over [0, 1/2]
        # plus int |t - 3/4| 2t over [1/2, 1] = 1/32 + 3/32
        assert result.certificate.bound == pytest.approx(0.125, rel=1e-10)

    def test_validation(self):
        fn = make_function("exp")
        part = uniform_partition(UNIT, 2)
        with pytest.raises(ValueError, match="level"):
            integrate_composite(fn, preset("qt"), part, LINF, level=4)


class TestAdaptive:
    def test_exp_converges(self):
        fn = make_function("exp")
        result = integrate_adaptive(fn, preset("qt"), UNIT, LINF, tol=1e-3)
        assert result.converged
        assert result.certificate.bound <= 1e-3
        assert len(result.panels) <= 512
        assert abs(result.approximation - (math.e - 1.0)) <= result.certificate.bound

    def test_panels_tile_the_interval(self):
        fn = make_function("exp")
        result = integrate_adaptive(fn, preset("qt"), UNIT, LINF, tol=1e-3)
        panels = [panel for panel, _ in result.panels]
        assert panels[0].a == 0.0
        assert panels[-1].b == 1.0
        for left, right in zip(panels, panels[1:]):
            assert left.b == right.a  # bitwise chain, panels split at floats

    def test_deterministic(self):
        fn = make_function("trig_circle")
        first = integrate_adaptive(fn, preset("qs"), Interval(0.0, 3.0), LINF, tol=1e-2)
        second = integrate_adaptive(fn, preset("qs"), Interval(0.0, 3.0), LINF, tol=1e-2)
        assert np.array_equal(first.approximation, second.approximation)
        assert first.certificate.bound == second.certificate.bound
        assert len(first.panels) == len(second.panels)

    def test_loose_tolerance_single_panel(self):
        fn = make_function("exp")
        result = integrate_adaptive(fn, preset("qt"), UNIT, LINF, tol=10.0)
        assert result.converged and len(result.panels) == 1

    def test_budget_exhaustion_partial_result(self):
        fn = make_function("exp")
        result = integrate_adaptive(
            fn, preset("qt"), UNIT, LINF, tol=1e-9, max_panels=4
        )
        assert not result.converged
        assert len(result.panels) == 4
        # the partial result is still a valid certificate over the panels
        assert abs(result.approximation - (math.e - 1.0)) <= result.certificate.bound

    def test_refines_where_the_bound_is_largest(self):
        # exp grows to the right, so the right half should end up with more
        # panels than the left half
        fn = make_function("exp")
        result = integrate_adaptive(fn, preset("qt"), Interval(0.0, 4.0), LINF, tol=1e-2)
        lefts = sum(1 for panel, _ in result.panels if panel.b <= 2.0)
        rights = sum(1 for panel, _ in result.panels if panel.a >= 2.0)
        assert rights > lefts

    def test_uncertified_regimes_still_drive_refinement(self):
        fn = make_function("exp")
        result = integrate_adaptive(fn, preset("qt"), UNIT, L1, tol=1e-3)
        assert result.converged
        assert not result.certificate.certified

    def test_level_is_2(self):
        fn = make_function("exp")
        result = integrate_adaptive(fn, preset("qt"), UNIT, LINF, tol=0.5)
        assert result.certificate.level == 2

    def test_validation(self):
        fn = make_function("exp")
        with pytest.raises(ValueError, match="tolerance"):
            integrate_adaptive(fn, preset("qt"), UNIT, LINF, tol=0.0)
        with pytest.raises(ValueError, match="max_panels"):
            integrate_adaptive(fn, preset("qt"), UNIT, LINF, tol=1e-3, max_panels=0)

    def test_soundness_across_regimes(self):
        fn = make_function("poly_r3")
        ref = oracle_integral(fn, UNIT, 1 << 14)
        for regime in (L1, lp(2.0), LINF):
            result = integrate_adaptive(fn, preset("qs"), UNIT, regime, tol=5e-3)
            assert result.converged
            err = fn.space.norm(fn.space.subtract(result.approximation, ref))
            assert err <= result.certificate.bound + 1e-9


def _envelope_function(envelope):
    return VectorFunction(
        space=SPACES["scalar"], f=lambda t: t, df=lambda t: 1.0,
        df_sup=envelope, name="line",
    )


class TestReachableChecks:
    """Input checks the one-pass level-2 path must keep, through both
    drivers."""

    @staticmethod
    def drivers(fn, resolution=64):
        part = uniform_partition(UNIT, 3)
        yield lambda: integrate_adaptive(fn, preset("qt"), UNIT, LINF, 1e-3, 64, resolution)
        yield lambda: integrate_composite(fn, preset("qt"), part, LINF, 2, resolution)

    def test_resolution_floor_with_an_envelope(self):
        # the envelope never reads the resolution, but it is still checked
        for call in self.drivers(make_function("exp"), resolution=1):
            with pytest.raises(ValueError, match="resolution must be >= 2"):
                call()

    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
    def test_bad_envelope_value(self, value):
        for call in self.drivers(_envelope_function(lambda lo, hi: value)):
            with pytest.raises(ValueError, match="sup-envelope of line returned"):
                call()

    def test_linf_needs_some_source(self):
        bare = VectorFunction(space=SPACES["scalar"], f=math.sin, name="bare")
        for call in self.drivers(bare):
            with pytest.raises(ValueError, match="neither a sup-envelope"):
                call()


def _random_rule(seed: int, n: int):
    rng = random.Random(seed)
    nodes = sorted(rng.random() for _ in range(n))
    raw = [0.2 + rng.random() for _ in range(n)]
    weights = [w / sum(raw) for w in raw[:-1]]
    weights.append(1.0 - sum(weights))
    return make_rule(nodes, weights, name="random")


EQUIVALENCE_RULES = {
    "qt": preset("qt"),
    "simpson": preset("simpson"),
    "trapezoid": preset("trapezoid"),
    "ostrowski_0.3": preset("ostrowski", 0.3),
    "endpoints_midpoint": preset("endpoints_midpoint", 0.2, 0.45),
    "three_point": preset("three_point", 0.3, 0.4, 0.1, 0.5, 0.85),
    "random_2": _random_rule(7, 2),
    "random_5": _random_rule(11, 5),
}
EQUIVALENCE_CASES = [
    # (function, interval, regime, tolerances, max_panels, resolution)
    ("exp", (0.0, 2.0), LINF, (1e-1, 1e-2), 4096, 64),
    ("trig_circle", (-1.0, 2.5), LINF, (1e-2,), 4096, 64),
    ("matrix_path", (0.0, 1.5), LINF, (3e-3,), 4096, 64),
    ("poly_r3", (0.0, 1.0), L1, (1e-1, 1e-2), 1024, 16),
    ("exp", (-0.5, 1.0), lp(2.0), (1e-2,), 1024, 16),
    # budget exhausted: the tolerance is out of reach
    ("exp", (2.5, 4.0), LINF, (1e-9,), 64, 64),
    ("poly_r3", (0.0, 1.0), L1, (1e-9,), 48, 16),
]


class _SortedCounter:
    """Counts the driver's calls to ``sorted``: one orders the final
    panels, each further one is a stop test formed from the ordered sum."""

    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(engine, "sorted", self, raising=False)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return sorted(*args, **kwargs)


def assert_same_run(result, reference):
    panels, approximation, converged = reference
    assert [(p.a, p.b) for p, _ in result.panels] == [(p.a, p.b) for p, _ in panels]
    assert [cert for _, cert in result.panels] == [cert for _, cert in panels]
    assert np.array_equal(result.approximation, approximation)
    assert result.converged == converged


class TestAdaptiveMatchesReference:
    """``integrate_adaptive`` decides each stop from a running total with
    an error bar; the reference forms the ordered sum before every split.
    Panels, certificates, approximation and ``converged`` must agree
    exactly."""

    @pytest.mark.parametrize("rule_name", sorted(EQUIVALENCE_RULES))
    @pytest.mark.parametrize(
        "case", EQUIVALENCE_CASES, ids=lambda c: f"{c[0]}-{c[2].label}-{c[4]}"
    )
    def test_matches_reference(self, case, rule_name, monkeypatch):
        name, (a, b), regime, tols, max_panels, resolution = case
        fn = make_function(name)
        rule = EQUIVALENCE_RULES[rule_name]
        for tol in tols:
            counter = _SortedCounter(monkeypatch)
            result = integrate_adaptive(
                fn, rule, Interval(a, b), regime, tol, max_panels, resolution
            )
            # away from the band around tol the ordered sum is never formed
            assert counter.calls == 1
            reference = reference_adaptive(
                fn, rule, Interval(a, b), regime, tol, max_panels, resolution
            )
            assert_same_run(result, reference)

    def test_budget_cases_exhaust_the_budget(self):
        for name, (a, b), regime, tols, max_panels, resolution in EQUIVALENCE_CASES[-2:]:
            result = integrate_adaptive(
                make_function(name), preset("qt"), Interval(a, b), regime,
                tols[0], max_panels, resolution,
            )
            assert not result.converged
            assert len(result.panels) == max_panels

    @pytest.mark.parametrize(
        "name, regime, tol0, resolution",
        [("exp", LINF, 1e-2, 64), ("trig_circle", LINF, 1e-2, 64), ("poly_r3", L1, 1e-2, 16)],
    )
    def test_tolerance_on_the_ordered_sum(self, name, regime, tol0, resolution, monkeypatch):
        # tol equal to a finished run's ordered sum, and one float below it,
        # put tol inside the error bar: the ordered sum decides
        fn = make_function(name)
        rule = preset("qs")
        iv = Interval(0.0, 1.5)
        finished = integrate_adaptive(fn, rule, iv, regime, tol0, 4096, resolution)
        assert finished.converged
        total = finished.certificate.bound
        runs = {}
        for tol in (total, math.nextafter(total, 0.0)):
            counter = _SortedCounter(monkeypatch)
            runs[tol] = integrate_adaptive(fn, rule, iv, regime, tol, 4096, resolution)
            assert counter.calls >= 2
            reference = reference_adaptive(fn, rule, iv, regime, tol, 4096, resolution)
            assert_same_run(runs[tol], reference)
        assert runs[total].converged
        assert len(runs[total].panels) == len(finished.panels)
        assert len(runs[math.nextafter(total, 0.0)].panels) > len(finished.panels)

    def test_nonfinite_bounds_fall_back_to_the_ordered_sum(self, monkeypatch):
        # a valid but huge sup-envelope makes the wide panels' bounds
        # overflow to inf; the running total is then not finite and every
        # stop test forms the ordered sum
        fn = VectorFunction(
            space=SPACES["scalar"], f=lambda t: t, df=lambda t: 1.0,
            df_sup=lambda lo, hi: 1e307, name="huge_envelope",
        )
        iv = Interval(0.0, 100.0)
        assert math.isinf(integrate_adaptive(fn, preset("qt"), iv, LINF, 1.0, 1).certificate.bound)
        for tol in (1.0, math.inf):
            counter = _SortedCounter(monkeypatch)
            result = integrate_adaptive(fn, preset("qt"), iv, LINF, tol, 64)
            reference = reference_adaptive(fn, preset("qt"), iv, LINF, tol, 64, 64)
            assert_same_run(result, reference)
            if tol == 1.0:
                # 63 stop tests plus the final ordering of the panels
                assert counter.calls == len(result.panels) == 64
