"""Derivative seminorm estimates: closed-form checks, certification flags,
sampled-sup monotonicity, and per-segment profiles."""

import math
import re

import mpmath
import numpy as np
import pytest

from certquad import (
    Interval,
    L1,
    LINF,
    SPACES,
    SeminormEstimate,
    SeminormProfile,
    VectorFunction,
    bound_level2,
    lp,
    make_function,
    preset,
    seminorm,
    seminorm_profile,
)
import certquad.cli as cli
from certquad.bounds import level2_certificate
from certquad.seminorms import DEFAULT_RESOLUTION, segment_seminorms

UNIT = Interval(0.0, 1.0)


class TestClosedFormValues:
    """quadratic has f'(t) = 2t, so every seminorm is known exactly."""

    def setup_method(self):
        self.fn = make_function("quadratic")

    def test_l1(self):
        # integral of |2t| over [0, 1]; the integrand is linear, Simpson exact
        est = seminorm(self.fn, UNIT, L1)
        assert est.value == pytest.approx(1.0, rel=1e-14)
        assert type(est.value) is float and est.certified is False

    def test_l2(self):
        # (integral of 4t^2)^(1/2) = sqrt(4/3)
        est = seminorm(self.fn, UNIT, lp(2.0))
        assert est.value == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-14)

    def test_l3(self):
        # (integral of 8t^3)^(1/3) = 2^(1/3)
        est = seminorm(self.fn, UNIT, lp(3.0))
        assert est.value == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-13)

    def test_linf_envelope(self):
        est = seminorm(self.fn, UNIT, LINF)
        assert est.value == 2.0
        assert est.certified

    def test_linf_envelope_negative_interval(self):
        est = seminorm(self.fn, Interval(-2.0, 1.0), LINF)
        assert est.value == 4.0


class TestConstantSlope:
    """affine in r2 has constant norm(f') = 2.5, so Lp = 2.5 * len^(1/p)."""

    def setup_method(self):
        self.fn = make_function("affine", "r2")
        self.iv = Interval(0.0, 2.0)

    def test_slope_norm(self):
        assert self.fn.df_norms(np.array([0.37])).tolist() == [2.5]

    def test_l1(self):
        assert seminorm(self.fn, self.iv, L1).value == pytest.approx(5.0, rel=1e-13)

    def test_lp(self):
        for p in (1.5, 2.0, 3.0, 7.0):
            est = seminorm(self.fn, self.iv, lp(p))
            assert est.value == pytest.approx(2.5 * 2.0 ** (1.0 / p), rel=1e-12)

    def test_linf(self):
        est = seminorm(self.fn, self.iv, LINF)
        assert est.value == 2.5 and est.certified


def _no_envelope_fn():
    # f'(t) = sin(pi t): interior max at t = 1/2, no sup-envelope attached
    scalar = SPACES["scalar"]
    return VectorFunction(
        space=scalar,
        f=lambda t: -math.cos(math.pi * t) / math.pi,
        df=lambda t: math.sin(math.pi * t),
        name="humped",
    )


class TestSampledSup:
    def test_not_certified(self):
        est = seminorm(_no_envelope_fn(), UNIT, LINF, resolution=64)
        assert not est.certified

    def test_grid_includes_endpoints(self):
        fn = _no_envelope_fn()
        # resolution 2 samples t = 0, 1/2, 1 and hits the exact max
        est = seminorm(fn, UNIT, LINF, resolution=2)
        assert est.value == 1.0

    def test_coarse_grid_undershoots(self):
        fn = _no_envelope_fn()
        est = seminorm(fn, UNIT, LINF, resolution=3)
        assert est.value == pytest.approx(math.sin(2.0 * math.pi / 3.0), rel=1e-14)
        assert est.value < 1.0

    def test_monotone_under_doubling(self):
        fn = _no_envelope_fn()
        last = 0.0
        for res in (3, 6, 12, 24, 48, 96):
            value = seminorm(fn, UNIT, LINF, resolution=res).value
            assert value >= last
            last = value
        assert last == pytest.approx(1.0, abs=1e-3)

    def test_envelope_priority(self):
        # a deliberately loose envelope must still win over sampling
        scalar = SPACES["scalar"]
        fn = VectorFunction(
            space=scalar,
            f=lambda t: t,
            df=lambda t: 1.0,
            df_sup=lambda lo, hi: 10.0,
            name="loose",
        )
        est = seminorm(fn, UNIT, LINF)
        assert est.value == 10.0 and est.certified

    @pytest.mark.parametrize("value", [2.5, math.nan, -1.0, math.inf])
    def test_seminorm_and_level2_share_the_envelope_check(self, value):
        fn = VectorFunction(
            space=SPACES["scalar"], f=lambda t: t, df=lambda t: 1.0,
            df_sup=lambda lo, hi: value, name="line",
        )
        rule = preset("qt")

        def outcome(call):
            try:
                return call()
            except ValueError as exc:
                return f"ValueError: {exc}"

        single = outcome(lambda: seminorm(fn, UNIT, LINF).value)
        kernel = outcome(lambda: level2_certificate(fn, rule, UNIT, LINF))
        if isinstance(single, str):
            assert single == kernel == f"ValueError: sup-envelope of line returned {value!r}"
        else:
            assert single == value
            profile = seminorm_profile(fn, rule, UNIT, LINF)
            assert kernel == bound_level2(profile, rule, UNIT)

    @pytest.mark.parametrize("first, error", [
        (math.nan, "ValueError: sup-envelope of order returned nan"),
        (1.0, "ZeroDivisionError: second segment"),
    ])
    def test_first_failing_segment_raises(self, first, error):
        # the envelope is checked segment by segment, left to right: a bad
        # value on the first segment wins over an exception on the second
        def envelope(lo, hi):
            if lo == 0.0:
                return first
            raise ZeroDivisionError("second segment")

        fn = VectorFunction(space=SPACES["scalar"], f=lambda t: t, df=lambda t: 1.0,
                            df_sup=envelope, name="order")
        calls = [
            lambda: segment_seminorms(fn, LINF, [0.0, 0.5], [0.5, 1.0], 8),
            lambda: level2_certificate(fn, preset("qt"), UNIT, LINF),
        ]
        for call in calls:
            with pytest.raises(Exception) as info:
                call()
            assert f"{type(info.value).__name__}: {info.value}" == error

    @pytest.mark.parametrize("value", [np.float32(2.5), 3, True, np.array(2.0), "0.25",
                                       np.array([2.0]), None, [1.0], 1 + 0j, 10**400],
                             ids=repr)
    def test_envelope_values_read_as_float_reads_them(self, value):
        # each envelope value becomes what float() makes of it, or raises
        # what float() raises
        fn = VectorFunction(space=SPACES["scalar"], f=lambda t: t, df=lambda t: 1.0,
                            df_sup=lambda lo, hi: value, name="typed")
        try:
            expected = float(value)
        except (TypeError, OverflowError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                segment_seminorms(fn, LINF, [0.0, 0.5], [0.5, 1.0], 8)
            return
        values, exact = segment_seminorms(fn, LINF, [0.0, 0.5], [0.5, 1.0], 8)
        assert exact.all()
        assert values.dtype == np.float64 and values.tolist() == [expected, expected]
        value = seminorm(fn, UNIT, LINF).value
        assert type(value) is float and value == expected

    @pytest.mark.parametrize("row, outcome", [
        ([1.0, 2.0, math.nan], [1.0, 2.0, 0.0]),
        ([1.0, -1.0, math.nan], "ValueError: sup-envelope of batched returned -1.0"),
        ([math.inf, math.nan, 1.0], "ValueError: sup-envelope of batched returned inf"),
        ([1.0, 2.0], "ValueError: df_sup_many of batched gave shape (2,), not (3,)"),
    ])
    def test_batched_envelope_check(self, row, outcome):
        # one df_sup_many call; degenerate segments are 0 whatever it gives
        # there, and the first value outside [0, inf) raises
        fn = VectorFunction(space=SPACES["scalar"], f=lambda t: t, df=lambda t: 1.0,
                            df_sup=lambda lo, hi: 1.0,
                            df_sup_many=lambda lo, hi: np.array(row), name="batched")
        try:
            values, exact = segment_seminorms(fn, LINF, [0.0, 0.5, 1.0], [0.5, 1.0, 1.0], 8)
        except ValueError as exc:
            assert f"ValueError: {exc}" == outcome
        else:
            assert exact.all() and values.tolist() == outcome

    def test_fd_sampling_without_analytic_derivative(self):
        scalar = SPACES["scalar"]
        fn = VectorFunction(space=scalar, f=math.sin, fd_step=1e-6)
        est = seminorm(fn, Interval(-0.5, 0.5), LINF, resolution=128)
        assert not est.certified
        assert est.value == pytest.approx(1.0, abs=1e-6)


class TestDegenerateAndErrors:
    def test_degenerate_interval(self):
        fn = make_function("exp")
        point = Interval(0.7, 0.7)
        for regime in (L1, lp(2.0), LINF):
            est = seminorm(fn, point, regime)
            assert est.value == 0.0 and est.certified

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            seminorm(make_function("exp"), UNIT, L1, resolution=1)

    def test_linf_needs_some_source(self):
        bare = VectorFunction(space=SPACES["scalar"], f=math.sin)
        with pytest.raises(ValueError):
            seminorm(bare, UNIT, LINF)

    def test_l1_needs_derivative(self):
        bare = VectorFunction(space=SPACES["scalar"], f=math.sin)
        with pytest.raises(ValueError):
            seminorm(bare, UNIT, L1)

    def test_negative_envelope_rejected(self):
        fn = VectorFunction(
            space=SPACES["scalar"],
            f=lambda t: t,
            df=lambda t: 1.0,
            df_sup=lambda lo, hi: -1.0,
        )
        with pytest.raises(ValueError, match="envelope"):
            seminorm(fn, UNIT, LINF)


class TestIntegralBehaviour:
    def test_l1_additivity(self):
        fn = make_function("exp")
        whole = seminorm(fn, UNIT, L1).value
        left = seminorm(fn, Interval(0.0, 0.4), L1).value
        right = seminorm(fn, Interval(0.4, 1.0), L1).value
        assert whole == pytest.approx(left + right, rel=1e-12)

    def test_exp_l1_exact_value(self):
        # integral of e^t over [0,1] = e - 1
        est = seminorm(make_function("exp"), UNIT, L1)
        assert est.value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_trig_constant_speed(self):
        fn = make_function("trig_circle")
        iv = Interval(0.0, 2.0)
        assert seminorm(fn, iv, L1).value == pytest.approx(2.0, rel=1e-12)
        assert seminorm(fn, iv, lp(2.0)).value == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )
        est = seminorm(fn, iv, LINF)
        assert est.value == 1.0 and est.certified

    def test_lp_value_past_the_power_range(self):
        # exp(t)**2 overflows on [355, 356], the L2 seminorm of exp does not
        est = seminorm(make_function("exp"), Interval(355.0, 356.0), lp(2.0))
        exact = mpmath.sqrt((mpmath.exp(712) - mpmath.exp(710)) / 2)
        assert abs(est.value - exact) <= 1e-9 * exact
        assert not est.certified

    def test_lp_value_past_the_sum_range(self):
        # (2t)**2 stays in range on [-L, L], L = 1e150, but the Simpson sum
        # of the squares does not; the L2 seminorm sqrt(8 L**3 / 3) does
        length = 1e150
        est = seminorm(make_function("quadratic"), Interval(-length, length), lp(2.0))
        exact = mpmath.sqrt(8 * mpmath.mpf(length) ** 3 / 3)
        assert abs(est.value - exact) <= 1e-12 * exact

    def test_resolution_convergence(self):
        # poly_r3 has a smooth, non-constant integrand; coarse estimates
        # should approach the fine one
        fn = make_function("poly_r3")
        fine = seminorm(fn, UNIT, lp(2.0), resolution=8192).value
        coarse = seminorm(fn, UNIT, lp(2.0), resolution=32).value
        mid = seminorm(fn, UNIT, lp(2.0), resolution=256).value
        assert abs(mid - fine) < abs(coarse - fine) + 1e-15
        assert coarse == pytest.approx(fine, rel=1e-6)


class TestProfile:
    def test_qt_quadratic_l1_segments(self):
        prof = seminorm_profile(make_function("quadratic"), preset("qt"), UNIT, L1)
        assert len(prof.segments) == 3
        values = [seg.value for seg in prof.segments]
        # integrals of 2t over [0, 1/4], [1/4, 3/4], [3/4, 1]
        assert values[0] == pytest.approx(1.0 / 16.0, rel=1e-13)
        assert values[1] == pytest.approx(0.5, rel=1e-13)
        assert values[2] == pytest.approx(7.0 / 16.0, rel=1e-13)
        glob = seminorm(make_function("quadratic"), UNIT, L1)
        assert glob.value == pytest.approx(1.0, rel=1e-13)
        assert prof.regime is L1

    def test_segment_intervals_align_with_nodes(self):
        prof = seminorm_profile(make_function("exp"), preset("simpson"), UNIT, LINF)
        spans = [(seg.interval.a, seg.interval.b) for seg in prof.segments]
        assert spans == [(0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.0)]

    def test_trapezoid_linf_certified_throughout(self):
        fn = make_function("quadratic")
        prof = seminorm_profile(fn, preset("trapezoid"), UNIT, LINF)
        assert [seg.value for seg in prof.segments] == [0.0, 2.0, 0.0]
        assert all(seg.certified for seg in prof.segments)
        assert seminorm(fn, UNIT, LINF).value == 2.0

    def test_global_not_aggregated_from_segments(self):
        # for linf the global sup equals the max segment sup; for L2 the
        # global value is NOT the sum of segment values
        fn = make_function("exp")
        prof = seminorm_profile(fn, preset("qt"), UNIT, lp(2.0))
        total = sum(seg.value for seg in prof.segments)
        assert seminorm(fn, UNIT, lp(2.0)).value < total

    def test_mixed_regimes_rejected(self):
        fn = make_function("exp")
        a = seminorm(fn, Interval(0.0, 0.5), L1)
        b = seminorm(fn, Interval(0.5, 1.0), lp(2.0))
        with pytest.raises(ValueError, match="regime"):
            SeminormProfile((a, b))

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError, match="segment"):
            SeminormProfile(())

    def test_regime_read_from_segments(self):
        prof = seminorm_profile(make_function("exp"), preset("qt"), UNIT, lp(2.0))
        assert prof.regime == lp(2.0)
        assert all(seg.regime == prof.regime for seg in prof.segments)

    def test_estimate_fields(self):
        est = seminorm(make_function("exp"), UNIT, LINF, resolution=512)
        assert isinstance(est, SeminormEstimate)
        assert est.interval == UNIT
        assert est.resolution == 512
        assert est.regime is LINF


# -- L1 takes the norms as they are ---------------------------------------


def test_power_one_is_the_identity():
    # CPython's ** calls libm pow, and pow(x, 1.0) is x exactly, so the L1
    # integrand may skip the per-sample power
    rng = np.random.default_rng(3)
    values = (
        [math.ldexp(1.0, e) for e in range(-1074, 1024)]
        + [k * 5e-324 for k in range(1, 4097)]  # subnormals
        + (rng.random(20000) * 10.0 ** rng.uniform(-320.0, 308.0, 20000)).tolist()
        + [0.0, 1.7976931348623157e308]
    )
    assert [(v ** 1.0).hex() for v in values] == [v.hex() for v in values]


# -- intervals whose length overflows ---------------------------------------

EXTREME = [(-1e308, 1e308), (0.0, 1e307), (-1e155, 1e155), (1e-300, 2e-300), (1e15, 1e15 + 1.0)]
REGISTRY = [("const", label) for label in SPACES] + [("affine", label) for label in SPACES] + [
    (name, None)
    for name in ("quadratic", "exp", "trig_circle", "poly_r3", "matrix_path", "abs_kink")
]


@pytest.mark.parametrize("regime", [L1, lp(1.5), lp(4.0)], ids=["l1", "lp1.5", "lp4"])
@pytest.mark.parametrize("label", sorted(SPACES))
def test_const_seminorm_on_an_overflowing_length_is_zero(regime, label):
    # Simpson's points and step stay finite where b - a overflows
    est = seminorm(make_function("const", label), Interval(-1e308, 1e308), regime, 8)
    assert est.value == 0.0


@pytest.mark.parametrize("regime", [L1, lp(1.5), LINF], ids=["l1", "lp1.5", "linf"])
@pytest.mark.parametrize("name,label", REGISTRY)
def test_no_seminorm_is_nan_on_extreme_intervals(name, label, regime):
    # a seminorm is a number or a clean error, and no warning escapes
    # (pytest turns RuntimeWarning into an error); linf samples here, as a
    # function without an envelope does
    base = make_function(name, label)
    fn = VectorFunction(space=base.space, f=base.f, df=base.df, name=name,
                        f_many=base.f_many, df_many=base.df_many)
    for a, b in EXTREME:
        try:
            value = seminorm(fn, Interval(a, b), regime, 8).value
        except (ValueError, ArithmeticError):
            continue
        assert not math.isnan(value), (a, b)


@pytest.mark.parametrize("p", [1.5, 4.0])
@pytest.mark.parametrize("name,label", [("trig_circle", None), ("abs_kink", None), ("matrix_path", None)]
                         + [("affine", label) for label in sorted(SPACES)])
def test_lp_seminorm_on_an_overflowing_length_is_finite(name, label, p):
    # norm(f') is a constant c here, so the Lp seminorm over [-1e308, 1e308]
    # is c * (2e308)^(1/p), finite although the length is not; the L1
    # seminorm, c * 2e308, is past the float range
    fn = make_function(name, label)
    c = fn.space.norm(fn.df(0.0))
    exact = mpmath.mpf(c) * (2 * mpmath.mpf(1e308)) ** (1 / mpmath.mpf(p))
    value = seminorm(fn, Interval(-1e308, 1e308), lp(p), 8).value
    assert abs(value - exact) <= 1e-13 * exact
    assert seminorm(fn, Interval(-1e308, 1e308), L1, 8).value == math.inf


@pytest.mark.parametrize("p", [2500.0, 5000.0, 1e6, 1e308])
def test_lp_seminorm_for_large_p(capsys, p):
    # exp' = exp on [0, 1]: the Lp seminorm is e * ((1 - e**-p) / p)**(1/p),
    # which tends to e.  The largest sample is about e, and e**p overflows,
    # so every sample is divided by the largest one before its power.  The
    # estimate is e * S**(1/p) for S the Simpson sum of e**(p(t - 1)) on
    # Simpson's points k/m; Simpson's own error, which grows with p, moves
    # it from the exact value by under 1e-5 relative.  The CLI run ends
    # without OverflowError's errno text
    m = 2 * DEFAULT_RESOLUTION
    with mpmath.workdps(40):
        q = mpmath.mpf(p)
        exact = mpmath.e * ((1 - mpmath.exp(-q)) / q) ** (1 / q)
        terms = [mpmath.exp(-q * (m - k) / m) if q * (m - k) / m < 1e5 else 0
                 for k in range(m + 1)]  # terms below e**-1e5 are dropped
        total = terms[0] + terms[m] + 4 * sum(terms[1:m:2]) + 2 * sum(terms[2:m:2])
        estimate = mpmath.e * (total / (3 * m)) ** (1 / q)
    value = seminorm(make_function("exp"), UNIT, lp(p)).value
    assert abs(value - estimate) <= 1e-13 * estimate
    assert abs(value - exact) <= 1e-5 * exact
    for level in ("1", "2", "3"):
        rc = cli.main(["run", "--function", "exp", "--regime", f"lp:{p!r}", "--level", level,
                       "--output", "json", "--no-timing"])
        assert rc == 0 and capsys.readouterr().err == ""


def test_overflowing_powers_on_a_subnormal_interval():
    # norm(f')**2 overflows while Simpson's step underflows to 0, so the
    # first sum is 0 * inf, nan: that too is taken again with the samples
    # scaled, and the seminorm, (1e400 * 5e-324)**(1/2) rounded, is 0
    fn = VectorFunction(space=SPACES["scalar"], f=lambda t: 1e200 * t, df=lambda t: 1e200)
    assert seminorm(fn, Interval(0.0, 5e-324), lp(2.0)).value == 0.0
    # on [0, 1e-300] the step is finite: (1e400 * 1e-300)**(1/2) = 1e50
    assert seminorm(fn, Interval(0.0, 1e-300), lp(2.0)).value == pytest.approx(1e50, rel=1e-15)
