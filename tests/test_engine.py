"""Rule application, composite/adaptive drivers, and the reference oracle."""

import dataclasses
import math
import random
import re
import struct
import zlib

import mpmath
import numpy as np
import pytest

from certquad import (
    FUNCTION_NAMES,
    PRESET_NAMES,
    SPACES,
    Interval,
    L1,
    LINF,
    VectorFunction,
    apply_rule,
    integrate_adaptive,
    integrate_composite,
    level3_factor,
    lp,
    make_function,
    make_rule,
    oracle_integral,
    preset,
    uniform_partition,
)
from certquad import engine
from certquad.bounds import _certificates
from certquad.rules import _pieces

from helpers import (
    EXACT_COMPONENTS,
    corollary_condition_holds,
    exact_rule_sum,
    reference_adaptive,
    reference_function,
    reference_nodes,
    reference_rule_value,
)
from kernel_calls import KernelCounter

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


class _SumCounter:
    """Counts the ordered sums of panel bounds formed (``engine._total``):
    one totals the returned certificate, each further one is a stop test
    formed from the ordered sum."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._total = engine._total
        monkeypatch.setattr(engine, "_total", self)

    def __call__(self, bounds):
        self.calls += 1
        return self._total(bounds)


def assert_same_run(result, reference):
    panels = reference.panels
    assert [(p.a, p.b) for p, _ in result.panels] == [(p.a, p.b) for p, _ in panels]
    assert [cert for _, cert in result.panels] == [cert for _, cert in panels]
    assert len(result.panel_values) == len(reference.panel_values)
    for value, expected in zip(result.panel_values, reference.panel_values):
        assert _same_bits(value, expected)
    assert _same_bits(result.approximation, reference.approximation)
    for field in dataclasses.fields(result.certificate):
        got = getattr(result.certificate, field.name)
        want = getattr(reference.certificate, field.name)
        if field.name == "bound":
            assert got.hex() == want.hex()
        elif field.name == "segment_contributions":
            assert [x.hex() for x in got] == [x.hex() for x in want]
        else:
            assert type(got) is type(want) and got == want, field.name
    assert result.evaluations == reference.evaluations
    assert result.converged == reference.converged


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
        fn = reference_function(name)
        rule = EQUIVALENCE_RULES[rule_name]
        for tol in tols:
            counter = _SumCounter(monkeypatch)
            result = integrate_adaptive(
                fn, rule, Interval(a, b), regime, tol, max_panels, resolution
            )
            # away from the band around tol the ordered sum is never formed
            assert counter.calls == 1
            reference = reference_adaptive(
                fn, rule, Interval(a, b), regime, tol, max_panels, resolution
            )
            assert_same_run(result, reference)

    @pytest.mark.parametrize("tol, max_panels", [(1e-2, 4096), (1e-9, 64)],
                             ids=["converges", "budget"])
    def test_matches_reference_in_c2(self, tol, max_panels):
        # a constant slope: the panel bounds tie at every depth
        fn = reference_function("affine", "c2")
        for rule in (preset("qt"), EQUIVALENCE_RULES["random_5"]):
            iv = Interval(-1.0, 2.0)
            result = integrate_adaptive(fn, rule, iv, LINF, tol, max_panels, 64)
            assert result.converged == (max_panels == 4096)
            assert_same_run(result, reference_adaptive(fn, rule, iv, LINF, tol, max_panels, 64))

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
        fn = reference_function(name)
        rule = preset("qs")
        iv = Interval(0.0, 1.5)
        finished = integrate_adaptive(fn, rule, iv, regime, tol0, 4096, resolution)
        assert finished.converged
        total = finished.certificate.bound
        runs = {}
        for tol in (total, math.nextafter(total, 0.0)):
            counter = _SumCounter(monkeypatch)
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
            counter = _SumCounter(monkeypatch)
            result = integrate_adaptive(fn, preset("qt"), iv, LINF, tol, 64)
            reference = reference_adaptive(fn, preset("qt"), iv, LINF, tol, 64, 64)
            assert_same_run(result, reference)
            if tol == 1.0:
                # 63 stop tests plus the final ordering of the panels
                assert counter.calls == len(result.panels) == 64


class TestPanelSequence:
    """A run's ``panels`` is a read-only sequence that builds its
    ``(Interval, ErrorCertificate)`` pairs on first read; checked on an
    adaptive result here and on a composite one by the subclass below."""

    @staticmethod
    def make():
        return integrate_adaptive(
            make_function("exp"), preset("qt"), UNIT, LINF, tol=1e-4, max_panels=64
        )

    def setup_method(self):
        self.result = self.make()
        self.panels = self.result.panels

    def test_length_and_indices(self):
        pairs = tuple(self.panels)
        assert len(self.panels) == len(pairs) == len(self.result.panel_values) > 4
        assert self.panels[-1] == pairs[-1] and self.panels[-1][0].b == 1.0
        assert self.panels[0][0].a == 0.0
        assert self.panels[1:5] == pairs[1:5] and isinstance(self.panels[1:5], tuple)
        assert self.panels[::-3] == pairs[::-3]
        assert list(self.panels) == list(pairs)
        assert self.panels[3] == self.panels[3]

    def test_equal_to_its_tuple(self):
        again = self.make().panels
        pairs = tuple(self.panels)
        assert self.panels == pairs and pairs == self.panels and self.panels == again
        assert self.panels != pairs[1:] and self.panels != list(pairs)
        assert repr(self.panels) == repr(pairs) == repr(again)

    def test_out_of_range(self):
        for k in (len(self.panels), -len(self.panels) - 1):
            with pytest.raises(IndexError):
                self.panels[k]

    def test_read_only(self):
        with pytest.raises(TypeError):
            self.panels[0] = self.panels[1]


class TestCompositePanelSequence(TestPanelSequence):
    @staticmethod
    def make():
        return integrate_composite(
            make_function("exp"), preset("qt"), uniform_partition(UNIT, 8), LINF, level=3
        )

    def test_built_on_first_read(self, monkeypatch):
        # the count reads no certificate; the first pair read builds them all
        built = []

        def certificates(*args):
            built.append(args)
            return _certificates(*args)

        monkeypatch.setattr(engine, "_certificates", certificates)
        result = self.make()
        assert len(result.panels) == 8 and not built
        first = list(result.panels)
        assert len(built) == 1 and all(a is b for a, b in zip(first, result.panels))
        assert [cert.level for _, cert in first] == [3] * 8


def _same_bits(value, expected) -> bool:
    if isinstance(expected, np.ndarray):
        return (isinstance(value, np.ndarray) and value.dtype == expected.dtype
                and value.shape == expected.shape and value.tobytes() == expected.tobytes())
    return type(value) is type(expected) and value.hex() == expected.hex()


# degenerate, tiny, off zero, unit, shifted and narrow, wide, shifted to 1e6
RULE_PANELS = [
    (0.5, 0.5), (0.0, 1e-300), (1e-14, 3e-14), (0.0, 1.0),
    (1.0, 1.0 + 2.0**-40), (-40.0, 30.0), (1e6, 1e6 + 1.0),
]


def _space_functions(label):
    names = [name for name in FUNCTION_NAMES if name not in ("const", "affine")]
    return [make_function("const", label), make_function("affine", label)] + [
        make_function(name) for name in names if make_function(name).space.label == label
    ]


class TestRulePassMatchesFold:
    """The batched rule pass equals the per-panel fold bit for bit, value
    type included, in every space."""

    @pytest.mark.parametrize("label", sorted(SPACES))
    def test_batched_values(self, label):
        for fn in _space_functions(label):
            # exp overflows at 1e6
            panels = RULE_PANELS[:-1] if fn.name == "exp" else RULE_PANELS
            a, b = zip(*panels)
            for rule in EQUIVALENCE_RULES.values():
                values = engine._elements(engine._rule_values(fn, rule, a, b))
                assert len(values) == len(panels)
                for value, panel in zip(values, panels):
                    expected = reference_rule_value(fn, rule, Interval(*panel))
                    assert _same_bits(value, expected)
                    assert _same_bits(apply_rule(fn, rule, Interval(*panel)), expected)

    @pytest.mark.parametrize("label", sorted(SPACES))
    def test_composite_panel_values(self, label):
        part = uniform_partition(Interval(-1.0, 2.0), 7)
        for fn in _space_functions(label):
            result = integrate_composite(fn, preset("simpson"), part, LINF, 3)
            for (panel, _), value in zip(result.panels, result.panel_values):
                assert _same_bits(value, reference_rule_value(fn, preset("simpson"), panel))


class TestRulePassThroughFMany:
    """The rule pass samples each chunk's nodes with one ``fn.f_many`` call;
    ``fn.f`` is called only where that batch raises, node by node."""

    PANELS = 150

    @pytest.mark.parametrize("name", ["exp", "poly_r3"])
    def test_within_a_rounding_bound_of_the_exact_sum(self, name):
        # exp's and poly_r3's numpy samples differ from libm's exp and from
        # t ** 3 in the last bit; each rule value stays within exact_rule_sum's
        # budget, with 2 ulps per sample: (t * t) * t rounds twice and was
        # measured 1.26 ulps from the exact cube, np.exp 0.68 ulps from e**t
        fn = make_function(name)
        rng = random.Random(14)
        a = [rng.uniform(-4.0, 4.0) for _ in range(self.PANELS)]
        b = [lo + 10.0 ** rng.uniform(-3.0, 0.5) for lo in a]
        for rule in EQUIVALENCE_RULES.values():
            values = engine._elements(engine._rule_values(fn, rule, a, b))
            for lo, hi, value in zip(a, b, values):
                panel = Interval(lo, hi)
                for x in reference_nodes(rule, panel):
                    sample = np.ravel(fn.f(x)).tolist()
                    with mpmath.workprec(200):
                        for got, exact in zip(sample, EXACT_COMPONENTS[name](mpmath.mpf(x))):
                            assert abs(got - exact) <= 2 * math.ulp(float(exact))
                for got, (exact, budget) in zip(np.ravel(value).tolist(),
                                                exact_rule_sum(name, rule, panel, 2)):
                    assert abs(got - exact) <= budget, (rule.name, lo, hi)

    @pytest.mark.parametrize("name", ["exp", "trig_circle", "poly_r3", "matrix_path"])
    def test_user_function_without_f_many_keeps_per_node_bits(self, name):
        # libm's exp, sin and cos and t ** 3, one node at a time, as the rule
        # pass sampled before it took f_many
        one = {
            "exp": math.exp,
            "trig_circle": lambda t: np.array([math.cos(t), math.sin(t)]),
            "poly_r3": lambda t: np.array([t, t * t, t ** 3]),
            "matrix_path": lambda t: np.array([[math.cos(t), -math.sin(t)],
                                               [math.sin(t), math.cos(t)]]),
        }[name]
        base = make_function(name)
        calls = []

        def f(t):
            calls.append(t)
            return one(t)

        user = VectorFunction(space=base.space, f=f, df=base.df, df_sup=base.df_sup, name="user")
        rule = EQUIVALENCE_RULES["random_5"]
        part = uniform_partition(Interval(-1.0, 2.0), 7)
        calls.clear()
        result = integrate_composite(user, rule, part, LINF)
        assert len(calls) == rule.n * 7
        for (panel, _), value in zip(result.panels, result.panel_values):
            assert _same_bits(value, reference_rule_value(user, rule, panel))
        adaptive = integrate_adaptive(user, rule, Interval(-1.0, 2.0), LINF, 1e-3, 600)
        assert len(adaptive.panels) > engine._BATCH
        for (panel, _), value in zip(adaptive.panels, adaptive.panel_values):
            assert _same_bits(value, reference_rule_value(user, rule, panel))

    def test_one_f_many_call_per_chunk(self):
        base = make_function("exp")
        calls = []

        def f_many(ts):
            calls.append(len(ts))
            return base.f_many(ts)

        fn = VectorFunction(space=base.space, f=base.f, f_many=f_many, df=base.df,
                            df_sup=base.df_sup, name="counted")
        rule = preset("qt")
        assert apply_rule(fn, rule, UNIT) == reference_rule_value(base, rule, UNIT)
        assert calls == [rule.n]
        calls.clear()
        result = integrate_adaptive(fn, rule, Interval(0.0, 2.0), LINF, 1e-9, 600)
        panels = len(result.panels)
        chunks = [min(engine._BATCH, panels - k) for k in range(0, panels, engine._BATCH)]
        assert calls == [rule.n * size for size in chunks]

    @pytest.mark.parametrize("driver", ["apply_rule", "composite", "adaptive"])
    def test_failing_batch_raises_the_first_failing_node(self, driver):
        # f_many fails on any batch holding a node past 2.5; f fails on each
        # such node, naming it: the error raised is the first failing node's
        base = make_function("exp")

        def f(t):
            if t > 2.5:
                raise ArithmeticError(f"f failed at {t!r}")
            return base.f(t)

        def f_many(ts):
            if (ts > 2.5).any():
                raise RuntimeError("the batch failed")
            return base.f_many(ts)

        fn = VectorFunction(space=base.space, f=f, f_many=f_many, df=base.df,
                            df_sup=base.df_sup, name="failing")
        rule = EQUIVALENCE_RULES["random_5"]
        if driver == "apply_rule":
            panels = [Interval(2.0, 3.0)]
            call = lambda: apply_rule(fn, rule, panels[0])  # noqa: E731
        elif driver == "composite":
            panels = list(uniform_partition(Interval(0.0, 4.0), 4).panels)
            call = lambda: integrate_composite(  # noqa: E731
                fn, rule, uniform_partition(Interval(0.0, 4.0), 4), LINF)
        else:
            panels = list(integrate_adaptive(base, rule, Interval(0.0, 3.0), LINF,
                                             1e-4, 600).panels)
            panels = [panel for panel, _ in panels]
            call = lambda: integrate_adaptive(fn, rule, Interval(0.0, 3.0), LINF,  # noqa: E731
                                              1e-4, 600)
        first = next(x for panel in panels for x in reference_nodes(rule, panel) if x > 2.5)
        with pytest.raises(ArithmeticError, match=f"^f failed at {re.escape(repr(first))}$"):
            call()

    def test_wrong_batch_shape_raises(self):
        base = make_function("trig_circle")
        fn = VectorFunction(space=base.space, f=base.f, f_many=lambda ts: np.cos(ts),
                            name="flat")
        with pytest.raises(ValueError, match="batched samples have shape"):
            apply_rule(fn, preset("qt"), UNIT)


def _with_envelope(fn, envelope, name=None):
    return VectorFunction(space=fn.space, f=fn.f, df=fn.df, df_sup=envelope,
                          name=name or fn.name)


class TestSpeculation:
    """Envelope certificates of the next-worst panels' children are computed
    ahead; a failure there must not surface, and one on the popped panel
    must surface as it does without speculation."""

    @pytest.mark.parametrize("failure", ["nan", "raise"])
    def test_failures_off_the_split_path_change_nothing(self, failure):
        base = reference_function("exp")
        rule, iv, tol = preset("qt"), Interval(0.0, 2.0), 1e-3
        seen = set()

        def recording(lo, hi):
            seen.add((lo, hi))
            return base.df_sup(lo, hi)

        reference = reference_adaptive(
            _with_envelope(base, recording), rule, iv, LINF, tol, 4096, 64
        )
        off_path = []

        def envelope(lo, hi):
            if (lo, hi) in seen:
                return base.df_sup(lo, hi)
            off_path.append((lo, hi))
            if failure == "nan":
                return math.nan
            raise ZeroDivisionError("off the split path")

        result = integrate_adaptive(_with_envelope(base, envelope), rule, iv, LINF, tol, 4096, 64)
        assert off_path  # the driver did certify panels it never split
        assert_same_run(result, reference)

    def test_failure_on_the_popped_panel_raises_as_without_speculation(self):
        base = reference_function("exp")

        def envelope(lo, hi):
            # below a width, a negative value that names the segment
            return -1.0 - lo if hi - lo < 2e-3 else base.df_sup(lo, hi)

        fn = _with_envelope(base, envelope, "shallow")
        args = (fn, preset("qt"), Interval(0.0, 2.0), LINF, 1e-8, 4096, 64)
        with pytest.raises(ValueError, match="sup-envelope of shallow returned") as ref:
            reference_adaptive(*args)
        with pytest.raises(ValueError, match="sup-envelope of shallow returned") as got:
            integrate_adaptive(*args)
        assert str(got.value) == str(ref.value)

    def test_budget_bounds_the_batch(self):
        # the first call certifies the root and the subtree below it to the
        # depth d with 2**d - 1 splits at most those left: d = 3, 2, 1 and
        # 8 for max_panels 8, 5, 2 and 4096; with a budget of 8 or 5 the
        # last split is of a panel below that depth, alone.  With 4096 each
        # later call speculates as many splits as the run had panels when its
        # round began, at least _BATCH, and at most those left: rounds begun at
        # 1, 217, 434, 768, 1,202 and 1,970 panels speculate 256, 256, 434,
        # 768, 1,202 and 924 splits
        base = make_function("exp")
        batches = []

        def envelopes(lo, hi):
            batches.append(len(lo) // 3)  # qt cuts a panel into 3 segments
            return base.df_sup_many(lo, hi)

        fn = VectorFunction(space=base.space, f=base.f, df=base.df, df_sup=base.df_sup,
                            df_sup_many=envelopes, name="exp")
        for max_panels, expected in ((8, [15, 2]), (5, [7, 2]), (2, [3]),
                                     (4096, [511, 512, 512, 868, 1536, 2404, 1848])):
            batches.clear()
            result = integrate_adaptive(fn, preset("qt"), Interval(0.0, 2.0), LINF, 1e-9,
                                        max_panels, 64)
            assert len(result.panels) == max_panels
            assert batches == expected
        assert engine._SPECULATION_CAP == 8 * engine._BATCH
        assert [engine._width(True, count) for count in (1, 256, 1202, 2048, 3172)] == [
            256, 256, 1202, 2048, 2048]

    @pytest.mark.parametrize("envelope", [True, False], ids=["envelope", "sampled"])
    def test_first_call_certifies_the_root_and_its_subtree(self, envelope, monkeypatch):
        # under linf with an envelope the first call takes the root and its
        # subtree to the depth d with 2**d - 1 splits at most min(256, budget
        # - 1), as a round begun at one panel would; otherwise the root alone
        base = reference_function("exp")
        if not envelope:
            base = VectorFunction(space=base.space, f=base.f, f_many=base.f_many, df=base.df,
                                  df_many=base.df_many, name="exp")
        first = {1: 1, 2: 3, 3: 3, 4: 7, 5: 7, 6: 7, 7: 7, 8: 15, 9: 15, 4096: 511}
        for max_panels, rows in first.items():
            args = (base, preset("qt"), Interval(0.0, 2.0), LINF, 1e-2, max_panels, 16)
            counter = KernelCounter(monkeypatch.setattr)
            result = integrate_adaptive(*args)
            monkeypatch.undo()
            assert counter.rows[0] == (rows if envelope else 1)
            assert sum(counter.rows) >= 2 * len(result.panels) - 1
            assert_same_run(result, reference_adaptive(*args))

    def test_first_call_failing_is_redone_on_the_root(self, monkeypatch):
        # a first call that raises is redone on the root alone: failing off
        # the reference's path, the run goes on as without the subtree; failing
        # on the root itself, it raises as the reference does
        base = reference_function("exp")
        args = (preset("qt"), Interval(0.0, 2.0), LINF, 1e-2, 4096, 16)
        seen = set()
        reference = reference_adaptive(
            _with_envelope(base, lambda lo, hi: seen.add((lo, hi)) or base.df_sup(lo, hi)), *args)

        def envelope(lo, hi):
            if (lo, hi) not in seen:
                raise ZeroDivisionError(f"off the path at {lo!r}")
            return base.df_sup(lo, hi)

        fn = _with_envelope(base, envelope)
        counter = KernelCounter(monkeypatch.setattr)
        result = integrate_adaptive(fn, *args)
        assert counter.rows[:2] == [511, 1]
        assert_same_run(result, reference)
        seen.clear()
        counter.rows.clear()
        with pytest.raises(ZeroDivisionError, match=r"^off the path at 0\.0$"):
            integrate_adaptive(fn, *args)
        assert counter.rows == [511, 1]
        with pytest.raises(ZeroDivisionError, match=r"^off the path at 0\.0$"):
            reference_adaptive(fn, *args)

    @pytest.mark.parametrize("regime, tol", [(L1, 1e-3), (lp(2.0), 1e-3), (LINF, 1e-3)],
                             ids=["l1", "lp2", "linf-no-envelope"])
    def test_sampled_rows_only_for_panels_the_run_splits(self, regime, tol, monkeypatch):
        # without an envelope a call certifies the halves of up to 16 panels,
        # only those the run splits whatever their halves bound: every row is
        # used, in fewer calls than splits
        base = reference_function("exp")
        fn = VectorFunction(space=base.space, f=base.f, f_many=base.f_many, df=base.df,
                            df_many=base.df_many, name="exp")
        counter = KernelCounter(monkeypatch.setattr)
        args = (fn, preset("qt"), Interval(0.0, 2.0), regime, tol, 4096, 16)
        result = integrate_adaptive(*args)
        monkeypatch.undo()
        assert result.converged and len(result.panels) > 32
        assert sum(counter.rows) == 2 * len(result.panels) - 1
        assert max(counter.rows) > 2 and counter.calls < len(result.panels) // 2
        assert_same_run(result, reference_adaptive(*args))


class TestSpeculationWidth:
    """Under linf with an envelope a kernel call speculates up to
    ``engine._width`` splits, as many as the run has panels from ``_BATCH``
    to ``_SPECULATION_CAP``; otherwise 16.  Each row is what its panel alone
    gives, so no width changes a result."""

    @pytest.mark.parametrize("seed", range(18))
    def test_no_width_changes_a_result(self, seed, monkeypatch):
        # every budget from 1 to 9 meets both regimes; fixed widths 1, 16 and
        # 256 and the default rule all give the reference's run
        rng = random.Random(seed)
        fn = reference_function(rng.choice(FUNCTION_NAMES))
        if seed % 2:  # no envelope: linf takes sampled maxima of df
            fn = VectorFunction(space=fn.space, f=fn.f, f_many=fn.f_many, df=fn.df,
                                df_many=fn.df_many, name=fn.name)
        if seed % 3:  # three_point alone has no default parameters
            name = rng.choice(PRESET_NAMES)
            rule = EQUIVALENCE_RULES["three_point"] if name == "three_point" else preset(name)
        else:
            rule = _random_rule(3000 + seed, rng.randint(1, 5))
        a = rng.uniform(-1.0, 1.0)
        iv = Interval(a, a + rng.uniform(0.5, 2.0))
        tol = 10.0 ** rng.uniform(-4.5, -3.0) if seed % 2 == 0 else 10.0 ** rng.uniform(-3.5, -2.0)
        for max_panels in (1 + seed % 9, 4096):
            args = (fn, rule, iv, LINF, tol, max_panels, 16)
            reference = reference_adaptive(*args)
            assert_same_run(integrate_adaptive(*args), reference)
            for width in (1, 16, 256):
                monkeypatch.setattr(engine, "_width", lambda cheap, count: width)
                assert_same_run(integrate_adaptive(*args), reference)
                monkeypatch.undo()

    @pytest.mark.parametrize("tol, panels, calls, rows, bound", [
        (1e-4, 2173, 6, 2 * 1280, "0x1.a350ed1982b99p-14"),
        (1e-5, 22225, 16, 2 * engine._SPECULATION_CAP, "0x1.4f8add08f660ap-17"),
    ], ids=["2173-panels", "22225-panels"])
    def test_kernel_calls_of_a_large_run(self, tol, panels, calls, rows, bound,
                                         monkeypatch):
        # exp/qt/linf on [0, 1]: 2,173 panels in 6 kernel calls, the first
        # with the root's subtree and the widest of 1,280 splits, and 22,225 in
        # 16, the widest at the cap; 256 splits at most per call took 10 and 88
        counter = KernelCounter(monkeypatch.setattr)
        result = integrate_adaptive(make_function("exp"), preset("qt"), UNIT, LINF, tol,
                                    100_000)
        assert (counter.calls, max(counter.rows)) == (calls, rows)
        assert result.converged and len(result.panels) == panels
        assert result.certificate.bound.hex() == bound


def _hashed_envelope(lo, hi):
    # far from monotone in the width: halves often outrank their parent
    return float(zlib.crc32(struct.pack("<2d", lo, hi)) & 0xFFFF)


def _inverse_cube_envelope(lo, hi):
    # grows as segments shrink: every half outranks its parent
    return (hi - lo) ** -3.0 if hi > lo else 0.0


class TestAdaptiveProperty:
    """Seeded runs against ``reference_adaptive`` where popping panels in
    rounds could go astray: envelopes under which halves outrank their
    parent, bounds that tie at every depth, panels too narrow to split,
    budgets of 1 to 9 panels, and speculation that fails below its first
    level."""

    KINDS = ("registry", "hashed", "inverse_cube", "affine", "narrow")

    @classmethod
    def case(cls, seed):
        rng = random.Random(seed)
        kind = cls.KINDS[seed % len(cls.KINDS)]
        rule = _random_rule(1000 + seed, rng.randint(1, 5))
        a = rng.uniform(-2.0, 1.0)
        iv = Interval(a, a + rng.uniform(0.1, 3.0))
        tol, regime = 10.0 ** rng.uniform(-6.0, -1.0), LINF
        if kind == "registry":
            fn = reference_function(rng.choice(("exp", "trig_circle", "poly_r3", "matrix_path")))
            regime = rng.choice((LINF, LINF, L1))
        elif kind == "affine":
            fn = reference_function("affine", rng.choice(sorted(SPACES)))
        elif kind == "narrow":
            fn, iv, tol = reference_function("exp"), Interval(1.0, 1.0 + 2.0**-45), 1e-300
        else:
            envelope = {"hashed": _hashed_envelope, "inverse_cube": _inverse_cube_envelope}[kind]
            fn = _envelope_function(envelope)
        return fn, rule, iv, regime, tol

    # every kind meets every budget from 1 to 9
    @pytest.mark.parametrize("seed", range(45))
    def test_matches_reference(self, seed):
        fn, rule, iv, regime, tol = self.case(seed)
        for max_panels in (1 + seed % 9, 64):
            args = (fn, rule, iv, regime, tol, max_panels, 16)
            assert_same_run(integrate_adaptive(*args), reference_adaptive(*args))

    def test_narrow_panels_end_the_run(self):
        # 2**-45 above 1.0 splits seven times before halves stop being wider
        # than their parent's ulp: the run ends unconverged at 128 panels
        fn, rule, iv, regime, tol = self.case(4)
        result = integrate_adaptive(fn, rule, iv, regime, tol, 4096, 16)
        assert not result.converged and len(result.panels) == 128

    @pytest.mark.parametrize("seed", range(6))
    def test_speculation_failing_below_its_first_level(self, seed):
        # the envelope raises on every segment of a panel two or more levels
        # below the reference's final panels, which only speculation reaches;
        # it shrinks with the panel, so the bounds fall faster than the
        # halving per level that caps the speculation depth
        rng = random.Random(seed)
        base = _envelope_function(lambda lo, hi: (hi - lo) ** 2)
        rule = _random_rule(2000 + seed, rng.randint(2, 5))
        a = rng.uniform(-1.0, 1.0)
        iv = Interval(a, a + rng.uniform(0.5, 2.0))
        args = (rule, iv, LINF, 10.0 ** rng.uniform(-6.0, -4.0), 4096, 64)
        reference = reference_adaptive(base, *args)
        finals = {(panel.a, panel.b) for panel, _ in reference.panels}
        panels, stack = [], [(iv.a, iv.b)]
        while stack:
            lo, hi = stack.pop()
            mid = 0.5 * (lo + hi)
            panels.append((lo, hi))
            (panels if (lo, hi) in finals else stack).extend([(lo, mid), (mid, hi)])
        los, his, _ = _pieces(rule, *np.array(panels).T)
        allowed = set(zip(los.ravel().tolist(), his.ravel().tolist()))
        failed = []

        def envelope(lo, hi):
            if (lo, hi) not in allowed:
                failed.append((lo, hi))
                raise ZeroDivisionError("deep in a speculated subtree")
            return base.df_sup(lo, hi)

        result = integrate_adaptive(_with_envelope(base, envelope), *args)
        assert failed
        assert_same_run(result, reference)


class TestOverflow:
    """Geometry factors of very wide panels overflow to inf, as products
    do, instead of raising ``OverflowError``."""

    def test_both_drivers_on_a_huge_interval(self):
        fn = make_function("trig_circle")
        iv = Interval(-1e155, 1e155)
        composite = integrate_composite(fn, preset("qt"), uniform_partition(iv, 8), LINF)
        assert math.isinf(composite.certificate.bound)
        assert all(math.isfinite(c) for c in composite.certificate.segment_contributions)
        whole = integrate_composite(fn, preset("qt"), uniform_partition(iv, 1), LINF)
        assert whole.certificate.segment_contributions[0] == math.inf
        adaptive = integrate_adaptive(fn, preset("qt"), iv, LINF, 1e308, 64)
        first = adaptive.panels[0][1]
        assert adaptive.converged and adaptive.certificate.bound <= 1e308
        assert math.isfinite(first.bound) and len(adaptive.panels) > 8

    @pytest.mark.parametrize(
        "nodes, weights",
        [((0.1, 0.2, 0.9), (0.6, 0.2, 0.2)), ((0.5, 0.6, 0.9), (0.2, 0.2, 0.6))],
        ids=["above", "below"],
    )
    def test_comparison_point_outside_its_segment(self, nodes, weights):
        # xi_1 lies past x_2 ("above") or before x_1 ("below"): both powers
        # of mu's gap overflow, and the gap must be inf, not inf - inf
        rule = make_rule(nodes, weights, "outside")
        iv = Interval(-1e155, 1e155)
        assert not corollary_condition_holds(rule, iv)
        fn = make_function("trig_circle")
        for regime in (LINF, lp(2.0)):
            assert level3_factor(rule, iv, regime) == math.inf
        for level in (2, 3):
            whole = integrate_composite(fn, rule, uniform_partition(iv, 1), LINF, level)
            assert whole.certificate.bound == math.inf and whole.certificate.certified
        whole = integrate_composite(fn, rule, uniform_partition(iv, 1), LINF)
        assert whole.certificate.segment_contributions == (math.inf,)
        assert whole.panels[0][1].segment_contributions[1] == math.inf
        adaptive = integrate_adaptive(fn, rule, iv, LINF, 1e308, 64)
        assert math.isfinite(adaptive.certificate.bound) and adaptive.certificate.certified
        assert len(adaptive.panels) == 64

    @pytest.mark.parametrize("level", [2, 3])
    def test_zero_seminorm_under_an_overflowing_factor(self, level):
        # inf * 0 is nan; a term with seminorm 0 contributes 0 instead
        iv = Interval(-1e155, 1e155)
        result = integrate_composite(
            make_function("const"), preset("qt"), uniform_partition(iv, 2), LINF, level
        )
        assert result.certificate.bound == 0.0 and result.certificate.certified


    def test_infinite_approximation_is_not_certified(self):
        # const is (1, -1.5, 2): on each panel of length 1e308 the last
        # component overflows, the first two only in the sum of the panels
        # (which must not warn); a bound of 0 says nothing about inf
        iv = Interval(-1e308, 1e308)
        fn = make_function("const", "r3")
        composite = integrate_composite(
            fn, preset("qt"), engine.Partition(iv, (-1e308, 0.0, 1e308)), LINF
        )
        assert np.isfinite(composite.panel_values[0][:2]).all()
        assert np.isinf(composite.approximation).all()
        assert composite.certificate.bound == 0.0
        assert not composite.certificate.certified
        adaptive = integrate_adaptive(fn, preset("qt"), iv, LINF, 1.0, 4)
        assert np.isinf(adaptive.approximation).all()
        assert adaptive.converged and not adaptive.certificate.certified


class TestCompositeErrorOrder:
    """``integrate_composite`` raises the error met first when each panel's
    rule value and then its certificate are computed in turn, although it
    computes all rule values before any certificate."""

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize(
        "f_panel, sup_panel, first",
        [(2, 0, "envelope"), (0, 2, "f"), (1, 1, "f"), (None, 1, "envelope"), (3, None, "f")],
    )
    def test_first_failure_in_panel_order(self, level, f_panel, sup_panel, first):
        base = make_function("exp")

        def f(x):
            if f_panel is not None and f_panel <= x < f_panel + 1:
                raise ArithmeticError(f"f failed on panel {f_panel}")
            return base.f(x)

        def envelope(lo, hi):
            if sup_panel is not None and sup_panel <= lo and hi <= sup_panel + 1:
                raise LookupError(f"envelope failed on panel {sup_panel}")
            return base.df_sup(lo, hi)

        fn = VectorFunction(space=base.space, f=f, df=base.df, df_sup=envelope, name="failing")
        error = ArithmeticError if first == "f" else LookupError
        panel = f_panel if first == "f" else sup_panel
        with pytest.raises(error, match=f"^{first} failed on panel {panel}$"):
            integrate_composite(fn, preset("qt"), uniform_partition(Interval(0.0, 4.0), 4),
                                LINF, level, 16)

    @pytest.mark.parametrize(
        "f_panel, df_panel, first",
        [(2, 0, "df"), (0, 2, "f"), (1, 1, "f"), (None, 1, "df"), (3, None, "f")],
    )
    def test_level1_first_failure_in_panel_order(self, f_panel, df_panel, first):
        base = make_function("exp")

        def f(x):
            if f_panel is not None and f_panel <= x < f_panel + 1:
                raise ArithmeticError(f"f failed on panel {f_panel}")
            return base.f(x)

        def df(t):
            if df_panel is not None and df_panel < t < df_panel + 1:
                raise LookupError(f"df failed on panel {df_panel}")
            return base.df(t)

        fn = VectorFunction(space=base.space, f=f, df=df, df_sup=base.df_sup, name="failing")
        error = ArithmeticError if first == "f" else LookupError
        panel = f_panel if first == "f" else df_panel
        with pytest.raises(error, match=f"^{first} failed on panel {panel}$"):
            integrate_composite(fn, preset("qt"), uniform_partition(Interval(0.0, 4.0), 4),
                                LINF, 1, 16)
