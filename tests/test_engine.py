"""Rule application, composite/adaptive drivers, and the reference oracle."""

import math

import numpy as np
import pytest

from certquad import (
    Interval,
    L1,
    LINF,
    apply_rule,
    integrate_adaptive,
    integrate_composite,
    lp,
    make_function,
    oracle_integral,
    preset,
    uniform_partition,
)

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
