"""Certificate levels 1-3: frozen values, brute-force cross-checks,
closed-form constants, scale laws, and the log-space high-exponent path."""

import dataclasses
import math
import random

import mpmath
import numpy as np
import pytest

from certquad import (
    INF,
    ErrorCertificate,
    Interval,
    L1,
    LINF,
    SPACES,
    PRESET_NAMES,
    Partition,
    SeminormEstimate,
    SeminormProfile,
    VectorFunction,
    bound_level1,
    bound_level2,
    bound_level3,
    conjugate_exponent,
    integrate_composite,
    level3_factor,
    lp,
    make_function,
    make_rule,
    mu,
    preset,
    seminorm,
    seminorm_profile,
    uniform_partition,
)
import certquad
from certquad import bounds
from certquad.bounds import _level2_rows, level2_certificate
from helpers import (
    PIECE_RULES,
    closed_form_constant,
    interval_exponent,
    mu_well_placed,
    reference_level1,
    reference_level2,
    reference_level3,
    reference_level3_factor,
    riemann_weighted_df,
)

UNIT = Interval(0.0, 1.0)


class TestLevel1:
    def test_trapezoid_quadratic(self):
        # segments collapse to one integral of |t - 1/2| * 2t over [0, 1],
        # which evaluates to 1/4
        cert = bound_level1(make_function("quadratic"), preset("trapezoid"), UNIT)
        assert cert.bound == pytest.approx(0.25, rel=1e-12)
        assert cert.level == 1
        assert not cert.certified
        assert cert.regime is None

    def test_qt_quadratic(self):
        # int_0^{1/4} t*2t + int_{1/4}^{3/4} |t-1/2|*2t + int_{3/4}^1 (1-t)*2t
        # = 1/96 + 1/16 + 5/96 = 1/8
        cert = bound_level1(make_function("quadratic"), preset("qt"), UNIT)
        assert cert.bound == pytest.approx(0.125, rel=1e-12)
        contribs = cert.segment_contributions
        assert len(contribs) == 3
        assert contribs[0] == pytest.approx(1.0 / 96.0, rel=1e-12)
        assert contribs[1] == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert contribs[2] == pytest.approx(5.0 / 96.0, rel=1e-12)

    def test_brute_force_cross_check(self):
        # independent dense quadrature of the same weighted integrals
        fn = make_function("exp")
        rule = preset("simpson")
        cert = bound_level1(fn, rule, UNIT)
        xs = (0.0, 0.5, 1.0)
        xi = (1.0 / 6.0, 5.0 / 6.0)
        expected = (
            riemann_weighted_df(fn, 0.0, 0.0, 0.0)
            + riemann_weighted_df(fn, 0.0, 0.5, xi[0], n=50_000)
            + riemann_weighted_df(fn, 0.5, 1.0, xi[1], n=50_000)
            + riemann_weighted_df(fn, 1.0, 1.0, 1.0)
        )
        assert cert.bound == pytest.approx(expected, rel=1e-7)

    def test_vector_valued(self):
        # trig_circle has norm(f') = 1, so level 1 equals the pure geometry
        # integral: for the trapezoid that is mu_1(0, 1/2, 1) = 1/4
        cert = bound_level1(make_function("trig_circle"), preset("trapezoid"), UNIT)
        assert cert.bound == pytest.approx(0.25, rel=1e-12)

    def test_regime_stamp(self):
        cert = bound_level1(
            make_function("exp"), preset("qt"), UNIT, regime=lp(2.0)
        )
        assert cert.regime == lp(2.0)

    def test_degenerate_interval(self):
        cert = bound_level1(make_function("exp"), preset("qt"), Interval(1.0, 1.0))
        assert cert.bound == 0.0

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            bound_level1(make_function("exp"), preset("qt"), UNIT, resolution=1)


class TestLevel2:
    def test_trapezoid_quadratic_linf(self):
        fn = make_function("quadratic")
        rule = preset("trapezoid")
        prof = seminorm_profile(fn, rule, UNIT, LINF)
        cert = bound_level2(prof, rule, UNIT)
        # mu_1(0, 1/2, 1) * sup|2t| = 1/4 * 2, end segments degenerate
        assert cert.bound == 0.5
        assert cert.segment_contributions == (0.0, 0.5, 0.0)
        assert cert.certified
        assert cert.level == 2

    def test_qt_quadratic_linf(self):
        fn = make_function("quadratic")
        rule = preset("qt")
        prof = seminorm_profile(fn, rule, UNIT, LINF)
        cert = bound_level2(prof, rule, UNIT)
        # (1/32)*0.5 + (1/16)*1.5 + (1/32)*2 with per-segment sups
        assert cert.bound == 0.171875
        assert cert.segment_contributions == (0.015625, 0.09375, 0.0625)

    def test_qt_exp_linf_formula(self):
        fn = make_function("exp")
        rule = preset("qt")
        prof = seminorm_profile(fn, rule, UNIT, LINF)
        cert = bound_level2(prof, rule, UNIT)
        expected = (
            0.5 * 0.0625 * math.exp(0.25)
            + 0.0625 * math.exp(0.75)
            + 0.5 * 0.0625 * math.e
        )
        assert cert.bound == pytest.approx(expected, rel=1e-15)

    def test_trapezoid_quadratic_l1(self):
        fn = make_function("quadratic")
        rule = preset("trapezoid")
        prof = seminorm_profile(fn, rule, UNIT, L1)
        cert = bound_level2(prof, rule, UNIT)
        # mu_inf(0, 1/2, 1) * L1-seminorm = 1/2 * 1
        assert cert.bound == pytest.approx(0.5, rel=1e-13)
        assert not cert.certified  # L1 seminorms are sampled

    def test_trapezoid_quadratic_l2(self):
        fn = make_function("quadratic")
        rule = preset("trapezoid")
        prof = seminorm_profile(fn, rule, UNIT, lp(2.0))
        cert = bound_level2(prof, rule, UNIT)
        # mu_2(0,1/2,1)^(1/2) * (4/3)^(1/2) = (1/12)^(1/2) * (4/3)^(1/2) = 1/3
        assert cert.bound == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_segment_count_mismatch(self):
        fn = make_function("exp")
        prof = seminorm_profile(fn, preset("qt"), UNIT, LINF)
        with pytest.raises(ValueError, match="segments"):
            bound_level2(prof, preset("simpson"), UNIT)

    def test_interval_mismatch(self):
        fn = make_function("exp")
        prof = seminorm_profile(fn, preset("qt"), Interval(0.0, 2.0), LINF)
        with pytest.raises(ValueError, match="does not match"):
            bound_level2(prof, preset("qt"), UNIT)

    def test_tiny_panel_misaligned_profile(self):
        # segments 40x too wide, but within 1e-12 of the expected ones
        fn = make_function("exp")
        prof = seminorm_profile(fn, preset("qt"), Interval(0.0, 4e-13), LINF)
        with pytest.raises(ValueError, match="does not match"):
            bound_level2(prof, preset("qt"), Interval(0.0, 1e-14))

    @pytest.mark.parametrize("a, b", [
        (-1e150, 1e150),  # huge
        (1e6, 1e6 + 1e-3),  # shifted
        (1.0, 1.0 + 2.0**-40),  # shifted and narrow
        (0.0, 1e-300),  # tiny
        (1e-14, 3e-14),  # tiny, off zero
    ])
    def test_profiles_align_on_extreme_intervals(self, a, b):
        fn = make_function("trig_circle")
        iv = Interval(a, b)
        for rule in (preset("qt"), preset("simpson"), _COINCIDENT):
            prof = seminorm_profile(fn, rule, iv, LINF)
            assert bound_level2(prof, rule, iv) == level2_certificate(fn, rule, iv, LINF)


def _random_rule(seed: int, nodes) -> object:
    rng = random.Random(seed)
    raw = [0.2 + rng.random() for _ in nodes]
    weights = [w / sum(raw) for w in raw[:-1]]
    weights.append(1.0 - sum(weights))
    return make_rule(nodes, weights, name="random")


# coincident interior nodes and nodes at both ends
_COINCIDENT = _random_rule(3, (0.0, 0.2, 0.2, 0.7, 1.0, 1.0))
LEVEL2_RULES = [
    preset("qt"),
    preset("simpson"),
    preset("trapezoid"),
    preset("ostrowski"),
    preset("ostrowski", 0.3),
    preset("endpoints_midpoint", 0.2, 0.45),
    preset("three_point", 0.3, 0.4, 0.1, 0.5, 0.85),
    _COINCIDENT,
    _random_rule(5, sorted(random.Random(5).random() for _ in range(4))),
]


def _sampled(fn):
    """``fn`` without its sup-envelope: linf falls back to df samples."""
    return VectorFunction(space=fn.space, f=fn.f, df=fn.df, name=f"{fn.name}_sampled")


def _bits(cert):
    return (
        cert.bound.hex(),
        tuple(c.hex() for c in cert.segment_contributions),
        cert.certified,
        cert.level,
        cert.regime,
        cert.rule_name,
        cert.interval,
    )


class TestLevel2MatchesReference:
    """The one-pass level-2 certificate, and ``bound_level2`` over a
    profile, equal the frozen profile-then-bound arithmetic bit for bit."""

    @pytest.mark.parametrize("regime", [L1, lp(2.0), lp(1.02), LINF, "linf_sampled"],
                             ids=["l1", "lp2", "lp1.02", "linf", "linf_sampled"])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1e6, 1e6 + 1.0), (-40.0, 30.0)],
                             ids=["unit", "shifted", "wide"])
    def test_matches_reference(self, regime, a, b):
        iv = Interval(a, b)
        functions = [make_function(name) for name in ("trig_circle", "poly_r3")]
        if regime == "linf_sampled":
            regime = LINF
            functions = [_sampled(fn) for fn in functions]
        if regime.kind == "lp":
            assert (regime.q > 30.0) == (regime.p < 1.05)  # both q branches run
        for fn in functions:
            for rule in LEVEL2_RULES:
                expected = _bits(reference_level2(fn, rule, iv, regime, 8))
                assert _bits(level2_certificate(fn, rule, iv, regime, 8)) == expected
                prof = seminorm_profile(fn, rule, iv, regime, 8)
                assert _bits(bound_level2(prof, rule, iv)) == expected

    def test_certified_only_from_envelopes(self):
        fn = make_function("trig_circle")
        assert level2_certificate(fn, preset("qt"), UNIT, LINF).certified
        assert not level2_certificate(_sampled(fn), preset("qt"), UNIT, LINF, 8).certified
        assert not level2_certificate(fn, preset("qt"), UNIT, L1, 8).certified
        # every segment degenerate: exact zeros, certified in any regime
        point = Interval(0.5, 0.5)
        for regime in (L1, lp(2.0), LINF):
            cert = level2_certificate(fn, preset("simpson"), point, regime, 8)
            assert cert.bound == 0.0 and cert.certified


# panels for one kernel call: degenerate, tiny, off zero, shifted to 1e6,
# shifted and narrow, wide, and the unit interval
MIXED_PANELS = [
    (0.5, 0.5), (0.0, 1e-300), (1e-14, 3e-14), (1e6, 1e6 + 1.0),
    (1.0, 1.0 + 2.0**-40), (-40.0, 30.0), (0.0, 1.0), (-1e6, -1e6),
]


def _row_tuples(rows):
    """The kernel's arrays as rows ``(bound, contributions, certified)`` of
    plain Python values."""
    contribs, bounds, certified = rows
    return list(zip(bounds.tolist(), map(tuple, contribs.tolist()), certified.tolist()))


class TestLevel2Batched:
    """The array kernel on many panels at once equals the frozen scalar
    arithmetic row by row, bit for bit."""

    @pytest.mark.parametrize("regime", [L1, lp(2.0), lp(1.02), LINF, "linf_sampled"],
                             ids=["l1", "lp2", "lp1.02", "linf", "linf_sampled"])
    def test_rows_match_reference(self, regime):
        functions = [make_function(name) for name in ("trig_circle", "poly_r3")]
        if regime == "linf_sampled":
            regime = LINF
            functions = [_sampled(fn) for fn in functions]
        a, b = zip(*MIXED_PANELS)
        for fn in functions:
            for rule in LEVEL2_RULES:
                rows = _row_tuples(_level2_rows(fn, rule, regime, a, b, 8))
                for row, panel in zip(rows, MIXED_PANELS):
                    iv = Interval(*panel)
                    cert = ErrorCertificate(row[0], 2, regime, *row[1:], rule.name, iv)
                    assert _bits(cert) == _bits(reference_level2(fn, rule, iv, regime, 8))

    @pytest.mark.parametrize("regime", [L1, lp(1.02), LINF], ids=["l1", "lp1.02", "linf"])
    def test_composite_panels_match_reference(self, regime):
        # the composite driver certifies all of its panels in one call
        points = sorted({x for panel in MIXED_PANELS[:-1] for x in panel})
        part = Partition(Interval(points[0], points[-1]), tuple(points))
        fn = make_function("trig_circle")
        for rule in (preset("qt"), _COINCIDENT):
            result = integrate_composite(fn, rule, part, regime, 2, 8)
            for panel, cert in result.panels:
                assert _bits(cert) == _bits(reference_level2(fn, rule, panel, regime, 8))

    def test_degenerate_segment_far_from_its_comparison_point(self):
        # a degenerate segment contributes 0 even where its factor's
        # squares overflow and their difference would be nan
        rule = make_rule((0.0, 0.5, 0.5, 1.0), (0.1, 0.1, 0.4, 0.4))
        iv = Interval(-1e300, 1e300)
        fn = make_function("trig_circle")
        row = _row_tuples(_level2_rows(fn, rule, LINF, [iv.a], [iv.b]))[0]
        cert = ErrorCertificate(row[0], 2, LINF, *row[1:], rule.name, iv)
        assert cert.segment_contributions[2] == 0.0
        assert _bits(cert) == _bits(reference_level2(fn, rule, iv, LINF, 8))

    def test_nan_bound_is_not_certified(self):
        # a profile is built by the caller: a "certified" nan seminorm must
        # not yield a certified bound
        rule = preset("qt")
        prof = seminorm_profile(make_function("exp"), rule, UNIT, LINF)
        segments = list(prof.segments)
        segments[1] = dataclasses.replace(segments[1], value=math.nan)
        cert = bound_level2(SeminormProfile(tuple(segments)), rule, UNIT)
        assert math.isnan(cert.bound) and not cert.certified
        est = dataclasses.replace(seminorm(make_function("exp"), UNIT, LINF), value=math.nan)
        cert = bound_level3(est, rule, UNIT)
        assert math.isnan(cert.bound) and not cert.certified

    def test_certified_per_row(self):
        # a degenerate panel's exact zeros stay certified beside a sampled row
        fn = make_function("trig_circle")
        rows = _row_tuples(_level2_rows(fn, preset("qt"), L1, [0.5, 0.0], [0.5, 1.0], 8))
        assert [certified for _, _, certified in rows] == [True, False]


# rules for the array levels: pieces degenerate, at both ends or centred
# outside their segment, every preset, and random rules
ARRAY_RULES = [
    *PIECE_RULES.values(),
    *(preset(name) for name in PRESET_NAMES if name != "three_point"),
    preset("three_point", 0.3, 0.4, 0.1, 0.5, 0.85),
    _COINCIDENT,
    *(_random_rule(seed, sorted(random.Random(seed).random() for _ in range(seed % 4 + 1)))
      for seed in range(6, 9)),
]
# ordinary, degenerate and overflowing intervals, each with functions whose
# seminorm sums stay finite there, so that the frozen estimator applies
ARRAY_CASES = [
    (Interval(-0.7, 1.3), ("quadratic", "matrix_path", "abs_kink")),
    (Interval(0.3, 0.3), ("exp", "trig_circle")),
    (Interval(-1e155, 1e155), ("trig_circle", "abs_kink")),
    (Interval(0.0, 1e307), ("trig_circle", "affine")),
]


def _composite_bits(fn, rule, iv, panels, regime, level):
    """Each panel's certificate bits and the summed bound's, from the
    composite driver."""
    result = integrate_composite(fn, rule, uniform_partition(iv, panels), regime, level, 8)
    return [_bits(cert) for _, cert in result.panels], result.certificate.bound.hex()


def _reference_bits(fn, rule, iv, panels, regime, level):
    certs = []
    for panel in uniform_partition(iv, panels).panels:
        if level == 1:
            bound, contribs = reference_level1(fn, rule, panel, 8)
            certs.append(ErrorCertificate(bound, 1, regime, contribs, False, rule.name, panel))
        else:
            certs.append(reference_level3(fn, rule, panel, regime, 8))
    total = 0.0
    for cert in certs:
        total += cert.bound
    return [_bits(cert) for cert in certs], total.hex()


class TestArrayLevelsMatchReference:
    """Levels 1 and 3 over the composite driver's one array call equal the
    frozen one-panel, one-piece arithmetic, bit for bit, on 1 to 8 panels."""

    @pytest.mark.parametrize("level", [1, 3])
    @pytest.mark.parametrize("regime", [L1, lp(1.5), lp(1.01), LINF],
                             ids=["l1", "lp1.5", "lp1.01", "linf"])
    def test_composite_matches_reference(self, level, regime):
        k = 0
        for iv, names in ARRAY_CASES:
            for name in names:
                fn = make_function(name)
                for rule in ARRAY_RULES:
                    panels = 1 + k % 8
                    k += 1
                    assert _composite_bits(fn, rule, iv, panels, regime, level) == \
                        _reference_bits(fn, rule, iv, panels, regime, level), (name, rule, iv)

    @pytest.mark.parametrize("regime", [L1, lp(1.5), lp(1.01), lp(40.0), LINF],
                             ids=["l1", "lp1.5", "lp1.01", "lp40", "linf"])
    def test_factor_matches_reference(self, regime):
        rng = random.Random(11)
        intervals = [Interval(*ends) for ends in MIXED_PANELS] + [
            Interval(-1e155, 1e155), Interval(0.0, 1e307), Interval(-1e308, 1e308),
            Interval(1e300, 1e300 * (1.0 + 1e-12)), Interval(-5e-324, 5e-324),
        ]
        for _ in range(40):
            a = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
            width = abs(a) * rng.random() + 10.0 ** rng.randint(-300, 300)
            intervals.append(Interval(a, a + width))
        for rule in ARRAY_RULES:
            for iv in intervals:
                expected = reference_level3_factor(rule, iv, regime)
                assert level3_factor(rule, iv, regime).hex() == expected.hex(), (rule, iv)
                for value in (0.0, 0.75, 3e-300):
                    cert = bound_level3(SeminormEstimate(value, regime, iv, True, 8), rule, iv)
                    bound = value if value == 0.0 else expected * value
                    assert (cert.bound.hex(), cert.certified) == (bound.hex(), bound == bound)


class TestLevel3:
    def test_linf_values(self):
        fn = make_function("quadratic")
        est = seminorm(fn, UNIT, LINF)
        assert bound_level3(est, preset("trapezoid"), UNIT).bound == 0.5
        assert bound_level3(est, preset("qt"), UNIT).bound == 0.25
        assert bound_level3(est, preset("qs"), UNIT).bound == 0.25
        assert bound_level3(est, preset("simpson"), UNIT).bound == pytest.approx(
            5.0 / 18.0, rel=1e-15
        )

    def test_certified_follows_seminorm(self):
        fn = make_function("quadratic")
        assert bound_level3(seminorm(fn, UNIT, LINF), preset("qt"), UNIT).certified
        assert not bound_level3(seminorm(fn, UNIT, L1), preset("qt"), UNIT).certified

    def test_alignment_check(self):
        est = seminorm(make_function("exp"), Interval(0.0, 2.0), LINF)
        with pytest.raises(ValueError, match="does not match"):
            bound_level3(est, preset("qt"), UNIT)

    def test_no_segment_contributions(self):
        est = seminorm(make_function("exp"), UNIT, LINF)
        assert bound_level3(est, preset("qt"), UNIT).segment_contributions == ()


class TestPiecesPinned:
    """Level 1 and the level-3 factor on rules with unusual kernel pieces,
    against bits recorded before the pieces had one implementation."""

    INTERVALS = {"ordinary": Interval(-0.5, 1.25), "degenerate": Interval(0.5, 0.5)}

    @pytest.mark.parametrize("rule_name, contributions", [
        ("coincident", ("0x1.31acb99c3f6e4p-3", "0x0.0p+0", "0x1.79197fc1f780ep-3",
                        "0x1.c84f9cd929cd0p-2")),
        ("ends", ("0x0.0p+0", "0x0.0p+0", "0x1.e083ce3657c80p-3", "0x1.2b8cfce0ac7fep-1",
                  "0x0.0p+0", "0x0.0p+0")),
        ("outside", ("0x1.503ec6422884dp-6", "0x1.3ef86c90ea3dap-3", "0x1.7d82bac7f336bp-1",
                     "0x1.1fa7294bc789bp-4")),
    ])
    @pytest.mark.parametrize("interval", ["ordinary", "degenerate"])
    def test_level1(self, rule_name, contributions, interval):
        rule = PIECE_RULES[rule_name]
        cert = bound_level1(make_function("poly_r3"), rule, self.INTERVALS[interval], 16)
        if interval == "degenerate":
            contributions = ("0x0.0p+0",) * (rule.n + 1)
        assert tuple(c.hex() for c in cert.segment_contributions) == contributions
        total = 0.0
        for c in contributions:
            total += float.fromhex(c)
        assert cert.bound == total

    @pytest.mark.parametrize("rule_name, factors", [
        ("coincident", ("0x1.0cccccccccccep-1", "0x1.97ae147ae147bp-2",
                        "0x1.6a1d34ed0a503p-2", "0x1.00e48e693ccf3p-1")),
        ("ends", ("0x1.c000000000000p-2", "0x1.8800000000000p-2",
                  "0x1.562a68298a39bp-2", "0x1.ae535bafbf98ap-2")),
        ("outside", ("0x1.0ccccccccccccp+0", "0x1.7851eb851eb86p-1",
                     "0x1.6a1d34ed0a503p-1", "0x1.00e48e6998693p+0")),
    ])
    @pytest.mark.parametrize("interval", ["ordinary", "degenerate"])
    def test_level3_factor(self, rule_name, factors, interval):
        # lp:1.01 has q = 101, so it takes the log-space branch
        if interval == "degenerate":
            factors = ("0x0.0p+0",) * 4
        got = tuple(
            level3_factor(PIECE_RULES[rule_name], self.INTERVALS[interval], regime).hex()
            for regime in (L1, LINF, lp(2.0), lp(1.01))
        )
        assert got == factors


def test_level2_certificate_is_exported():
    assert certquad.level2_certificate is bounds.level2_certificate
    assert "level2_certificate" in certquad.__all__


class TestLevel3Factor:
    @pytest.mark.parametrize("regime", [LINF, lp(2.0), lp(1.01)], ids=["linf", "lp2", "lp1.01"])
    def test_overflow_gives_inf(self, regime):
        # squares, (q+1)-th powers and the log-space exp all overflow to inf
        assert level3_factor(preset("qt"), Interval(0.0, 1e307), regime) == math.inf

    def test_l1_factors(self):
        assert level3_factor(preset("trapezoid"), UNIT, L1) == 0.5
        assert level3_factor(preset("qt"), UNIT, L1) == 0.25
        assert level3_factor(preset("qs"), UNIT, L1) == 0.25
        assert level3_factor(preset("simpson"), UNIT, L1) == pytest.approx(
            1.0 / 3.0, rel=1e-15
        )

    def test_linf_factors(self):
        assert level3_factor(preset("trapezoid"), UNIT, LINF) == 0.25
        assert level3_factor(preset("qt"), UNIT, LINF) == 0.125
        assert level3_factor(preset("qs"), UNIT, LINF) == 0.125
        assert level3_factor(preset("simpson"), UNIT, LINF) == pytest.approx(
            5.0 / 36.0, rel=1e-15
        )

    @pytest.mark.parametrize("rule_name", ["trapezoid", "qt", "simpson"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0, 25.0])
    def test_lp_factor_matches_closed_form(self, rule_name, p):
        regime = lp(p)
        factor = level3_factor(preset(rule_name), UNIT, regime)
        assert factor == pytest.approx(
            closed_form_constant(rule_name, regime), rel=1e-14
        )

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
    def test_qs_lp_factor_hoelder_gap(self, p):
        # the table entry for qs under lp is qt's, 1/(4 (q+1)^(1/q)), which
        # level3_factor gives on [0, 1]
        regime = lp(p)
        factor = level3_factor(preset("qs"), UNIT, regime)
        assert closed_form_constant("qs", regime) == pytest.approx(factor, rel=1e-14)
        assert closed_form_constant("qs", regime) == closed_form_constant("qt", regime)
        if p == 2.0:
            # f' equal to qs's Peano kernel S attains the bound: the error
            # is the integral of S f' = S^2, and the bound is the factor
            # times ||f'||_2 = ||S||_2
            def kernel(t):
                return t - 0.25 if t <= 0.5 else t - 0.75

            with mpmath.workdps(30):
                error = mpmath.quad(lambda t: kernel(t) ** 2, [0, 0.5, 1])
                bound = closed_form_constant("qs", regime) * mpmath.sqrt(error)
            assert error == pytest.approx(1.0 / 48.0, rel=1e-25)
            assert bound >= error * (1 - 1e-15)
            assert bound == pytest.approx(1.0 / 48.0, rel=1e-15)

    def test_scale_covariance(self):
        rng = np.random.default_rng(1203)
        rules = [preset("qt"), preset("simpson"), preset("quarter_three_point")]
        regimes = [L1, lp(2.0), lp(3.7), LINF]
        for _ in range(40):
            a = rng.uniform(-5.0, 5.0)
            b = a + rng.uniform(0.01, 10.0)
            iv = Interval(a, b)
            for rule in rules:
                for regime in regimes:
                    factor = level3_factor(rule, iv, regime)
                    unit_factor = level3_factor(rule, UNIT, regime)
                    power = interval_exponent(regime)
                    assert factor == pytest.approx(
                        unit_factor * (iv.b - iv.a)**power, rel=1e-11
                    ), (a, b, rule.name, regime.label)

    def test_degenerate_interval(self):
        point = Interval(2.0, 2.0)
        for regime in (L1, lp(2.0), lp(40.0), LINF):
            assert level3_factor(preset("qt"), point, regime) == 0.0


class TestHalving:
    """qt halves the trapezoid bound; exact on dyadic intervals."""

    @pytest.mark.parametrize("iv", [Interval(0.0, 1.0), Interval(-1.0, 3.0)])
    @pytest.mark.parametrize("regime", [L1, LINF])
    def test_exact_on_dyadic(self, iv, regime):
        assert level3_factor(preset("qt"), iv, regime) == 0.5 * level3_factor(
            preset("trapezoid"), iv, regime
        )

    def test_bound_halves_with_shared_seminorm(self):
        est = seminorm(make_function("exp"), UNIT, LINF)
        b_qt = bound_level3(est, preset("qt"), UNIT).bound
        b_tz = bound_level3(est, preset("trapezoid"), UNIT).bound
        assert b_qt == 0.5 * b_tz

    def test_messy_floats(self):
        iv = Interval(0.1, 0.7)
        for regime in (L1, LINF):
            assert level3_factor(preset("qt"), iv, regime) == pytest.approx(
                0.5 * level3_factor(preset("trapezoid"), iv, regime), rel=1e-14
            )


class TestClosedFormTable:
    """The reference table in ``helpers`` against values derived by hand."""

    def test_l1(self):
        assert closed_form_constant("trapezoid", L1) == 0.5
        assert closed_form_constant("qt", L1) == 0.25
        assert closed_form_constant("qs", L1) == 0.25
        assert closed_form_constant("simpson", L1) == pytest.approx(
            1.0 / 3.0, rel=1e-15
        )

    def test_linf(self):
        assert closed_form_constant("trapezoid", LINF) == 0.25
        assert closed_form_constant("qt", LINF) == 0.125
        assert closed_form_constant("qs", LINF) == 0.125
        assert closed_form_constant("simpson", LINF) == pytest.approx(
            5.0 / 36.0, rel=1e-15
        )

    def test_lp_at_p2(self):
        regime = lp(2.0)
        root3 = math.sqrt(3.0)
        assert closed_form_constant("trapezoid", regime) == pytest.approx(
            1.0 / (2.0 * root3), rel=1e-14
        )
        assert closed_form_constant("qt", regime) == pytest.approx(
            1.0 / (4.0 * root3), rel=1e-14
        )
        assert closed_form_constant("qs", regime) == pytest.approx(
            1.0 / (4.0 * root3), rel=1e-14
        )
        # (2^3 + 1)^(1/2) / (2 * 3^(3/2) * 3^(1/2)) simplifies to 1/6
        assert closed_form_constant("simpson", regime) == pytest.approx(
            1.0 / 6.0, rel=1e-14
        )

    def test_lp_general_q(self):
        q = conjugate_exponent(3.0)  # q = 1.5
        assert closed_form_constant("qt", lp(3.0)) == pytest.approx(
            1.0 / (4.0 * 2.5 ** (1.0 / 1.5)), rel=1e-14
        )


class TestOstrowskiReduction:
    def test_linf_factor_unit_interval(self):
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            factor = level3_factor(preset("ostrowski", s), UNIT, LINF)
            assert factor == pytest.approx(0.25 + (s - 0.5) ** 2, rel=1e-15)

    def test_linf_factor_general_interval(self):
        iv = Interval(-2.0, 5.0)
        L = iv.b - iv.a
        for s in (0.0, 0.3, 0.5, 0.9, 1.0):
            x = iv.a + s * L
            factor = level3_factor(preset("ostrowski", s), iv, LINF)
            expected = (0.25 + ((x - 0.5 * (iv.a + iv.b)) / L) ** 2) * L * L
            assert factor == pytest.approx(expected, rel=1e-13)

    def test_l1_factor_is_max_reach(self):
        iv = Interval(0.0, 1.0)
        for s in (0.0, 0.25, 0.5, 0.8, 1.0):
            factor = level3_factor(preset("ostrowski", s), iv, L1)
            assert factor == pytest.approx(max(s, 1.0 - s), rel=1e-15)


class TestMuWellPlaced:
    def test_agrees_with_general_mu(self):
        rng = np.random.default_rng(808)
        for _ in range(300):
            lo = rng.uniform(-3.0, 3.0)
            hi = lo + rng.uniform(0.0, 4.0)
            point = rng.uniform(lo, hi)
            for exponent in (1.0, 2.0, float(rng.uniform(1.0, 9.0)), INF):
                assert mu_well_placed(exponent, lo, point, hi) == pytest.approx(
                    mu(exponent, lo, point, hi), rel=1e-13, abs=1e-300
                )

    def test_rejects_outside_window(self):
        with pytest.raises(ValueError, match="outside"):
            mu_well_placed(2.0, 0.0, 1.5, 1.0)
        with pytest.raises(ValueError, match="outside"):
            mu_well_placed(INF, 0.0, -0.5, 1.0)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            mu_well_placed(0.5, 0.0, 0.5, 1.0)


def _mp_level3_lp(rule, iv, q, dps=60):
    """High-precision reference for the lp level-3 factor."""
    with mpmath.workdps(dps):
        qm = mpmath.mpf(q)
        r = qm + 1
        a = mpmath.mpf(iv.a)
        b = mpmath.mpf(iv.b)
        length = b - a
        xs = [a + mpmath.mpf(u) * length for u in rule.nodes_rel]
        P = []
        total = mpmath.mpf(0)
        for w in rule.weights:
            total += mpmath.mpf(w)
            P.append(total)
        bracket = (xs[0] - a) ** r / r
        for i in range(len(xs) - 1):
            c = P[i] * b + (1 - P[i]) * a
            bracket += ((c - xs[i]) ** r + (xs[i + 1] - c) ** r) / r
        bracket += (b - xs[-1]) ** r / r
        return float(bracket ** (1 / qm))


class TestLogSpacePath:
    """Conjugate exponents above 30 route q-th powers through logarithms."""

    @pytest.mark.parametrize("q", [31.0, 50.0, 200.0])
    def test_matches_high_precision_unit(self, q):
        regime = lp(q / (q - 1.0))
        assert regime.q == pytest.approx(q, rel=1e-13)
        for name in ("trapezoid", "qt", "qs", "simpson"):
            rule = preset(name)
            factor = level3_factor(rule, UNIT, regime)
            ref = _mp_level3_lp(rule, UNIT, regime.q)
            assert factor == pytest.approx(ref, rel=1e-12), (name, q)

    def test_direct_path_matches_high_precision(self):
        # below the threshold the plain float formula is used; same oracle
        for q in (1.5, 2.0, 8.0, 29.0):
            regime = lp(q / (q - 1.0))
            for name in ("qt", "simpson"):
                rule = preset(name)
                assert level3_factor(rule, UNIT, regime) == pytest.approx(
                    _mp_level3_lp(rule, UNIT, regime.q), rel=1e-12
                )

    def test_wide_interval_no_overflow(self):
        # (2500)^102 overflows a float; the log-space path must survive
        iv = Interval(0.0, 1.0e4)
        regime = lp(1.01)  # q = 101
        factor = level3_factor(preset("qt"), iv, regime)
        assert math.isfinite(factor)
        assert factor == pytest.approx(_mp_level3_lp(preset("qt"), iv, regime.q), rel=1e-10)

    def test_wide_interval_scale_covariance(self):
        regime = lp(1.01)
        iv = Interval(0.0, 1.0e4)
        power = interval_exponent(regime)
        lhs = level3_factor(preset("qt"), iv, regime)
        rhs = level3_factor(preset("qt"), UNIT, regime) * (iv.b - iv.a)**power
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_level2_log_space_segments(self):
        # per-segment factors also take the log route for q > 30
        fn = make_function("exp")
        rule = preset("qt")
        q = 40.0
        regime = lp(q / (q - 1.0))
        prof = seminorm_profile(fn, rule, UNIT, regime)
        cert = bound_level2(prof, rule, UNIT)
        with mpmath.workdps(50):
            qm = mpmath.mpf(regime.q)
            quarter = mpmath.mpf("0.25")
            outer = float(quarter ** (1 + 1 / qm) / (qm + 1) ** (1 / qm))
            mid = float((quarter ** (qm + 1) * 2 / (qm + 1)) ** (1 / qm))
        expected = (
            outer * prof.segments[0].value
            + mid * prof.segments[1].value
            + outer * prof.segments[2].value
        )
        assert cert.bound == pytest.approx(expected, rel=1e-11)

    def test_tail_exponent_approaches_l1(self):
        # as p -> 1+, q -> inf and the lp factor tends to the L1 factor:
        # (4 * (1/4)^(q+1) / (q+1))^(1/q) = (1/4) * (q+1)^(-1/q) from below
        factor = level3_factor(preset("qt"), UNIT, lp(1.0001))
        assert factor == pytest.approx(0.25, rel=0.01)
        assert factor < 0.25


class TestHierarchy:
    @pytest.mark.parametrize("rule_name", ["qt", "simpson", "ostrowski"])
    @pytest.mark.parametrize(
        "regime", [L1, lp(2.0), lp(3.0), LINF], ids=lambda r: r.label
    )
    def test_chain_for_exp(self, rule_name, regime):
        fn = make_function("exp")
        rule = preset(rule_name)
        l1 = bound_level1(fn, rule, UNIT).bound
        prof = seminorm_profile(fn, rule, UNIT, regime)
        l2 = bound_level2(prof, rule, UNIT).bound
        l3 = bound_level3(seminorm(fn, UNIT, regime), rule, UNIT).bound
        assert l1 <= l2 + 1e-12
        assert l2 <= l3 + 1e-12

    def test_chain_shifted_interval(self):
        fn = make_function("trig_circle")
        rule = preset("qs")
        iv = Interval(-1.0, 2.5)
        l1 = bound_level1(fn, rule, iv).bound
        for regime in (L1, lp(2.0), LINF):
            prof = seminorm_profile(fn, rule, iv, regime)
            l2 = bound_level2(prof, rule, iv).bound
            l3 = bound_level3(seminorm(fn, iv, regime), rule, iv).bound
            assert l1 <= l2 + 1e-12 <= l3 + 2e-12
