"""Intervals, partitions, norm regimes, and the mu weighted-distance integral."""

import math
from fractions import Fraction

import numpy as np
import pytest

from certquad import (
    INF,
    Interval,
    L1,
    LINF,
    NormRegime,
    Partition,
    conjugate_exponent,
    lp,
    mu,
    uniform_partition,
)
from certquad.geometry import _powers
from helpers import correctly_rounded_square, reference_mu, riemann_mu


class TestInterval:
    def test_basic_properties(self):
        iv = Interval(2, 6)
        assert iv.a == 2.0 and iv.b == 6.0
        assert iv.a != iv.b

    def test_degenerate_allowed(self):
        iv = Interval(1.5, 1.5)
        assert iv.a == iv.b

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_nonfinite_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                Interval(0.0, bad)
            with pytest.raises(ValueError):
                Interval(bad, 0.0)


class TestPartition:
    def test_uniform(self):
        part = uniform_partition(Interval(0.0, 1.0), 4)
        assert part.breakpoints == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert part.panels[2] == Interval(0.5, 0.75)

    def test_uniform_last_point_exact(self):
        # 0.7 is not a multiple of (0.7-0.1)/7 in floats; the endpoint must
        # still match bitwise
        part = uniform_partition(Interval(0.1, 0.7), 7)
        assert part.breakpoints[-1] == 0.7
        assert part.breakpoints[0] == 0.1

    @pytest.mark.parametrize(
        "a, b, m", [(0.0, 1.0, 4), (0.1, 0.7, 7), (-0.0, 3.0, 5), (-1e307, 1e307, 3)]
    )
    def test_uniform_finite_length_is_a_plus_k_h(self, a, b, m):
        # the overflow path below must leave these bits alone; -0.0 + 0 * h
        # is +0.0, so a partition of [-0.0, b] starts at +0.0
        h = (b - a) / m
        pts = uniform_partition(Interval(a, b), m).breakpoints
        assert [p.hex() for p in pts] == [(a + k * h).hex() for k in range(m)] + [b.hex()]

    @pytest.mark.parametrize("m", [1, 2, 7])
    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (-1.7e308, 1.7e308)])
    def test_uniform_when_length_overflows(self, a, b, m):
        # b - a is inf, so the step (b - a)/m is too and a + 0 * h is nan
        part = uniform_partition(Interval(a, b), m)
        pts = part.breakpoints
        assert len(pts) == m + 1 and pts[0] == a and pts[-1] == b
        assert all(math.isfinite(p) for p in pts)
        assert all(lo < hi for lo, hi in zip(pts, pts[1:]))
        for k, p in enumerate(pts):
            exact = Fraction(a) + (Fraction(b) - Fraction(a)) * k / m
            assert abs(Fraction(p) - exact) <= 4 * Fraction(math.ulp(1e308))

    def test_uniform_rejects_zero_panels(self):
        with pytest.raises(ValueError):
            uniform_partition(Interval(0.0, 1.0), 0)

    def test_breakpoints_must_span_interval(self):
        iv = Interval(0.0, 1.0)
        with pytest.raises(ValueError):
            Partition(iv, (0.0, 0.5))
        with pytest.raises(ValueError):
            Partition(iv, (0.1, 1.0))
        with pytest.raises(ValueError):
            Partition(iv, (1.0,))

    def test_breakpoints_must_be_ordered(self):
        with pytest.raises(ValueError):
            Partition(Interval(0.0, 1.0), (0.0, 0.6, 0.4, 1.0))

    def test_coincident_breakpoints_allowed(self):
        part = Partition(Interval(0.0, 1.0), (0.0, 0.5, 0.5, 1.0))
        assert len(part.panels) == 3
        assert part.panels[1].a == part.panels[1].b


class TestNormRegime:
    def test_labels(self):
        assert L1.label == "l1"
        assert LINF.label == "linf"
        assert lp(2.0).label == "lp:2"
        assert lp(2.5).label == "lp:2.5"

    def test_conjugate(self):
        assert lp(2.0).q == 2.0
        assert lp(3.0).q == 1.5
        assert math.isclose(lp(1.25).q, 5.0, rel_tol=1e-15)

    def test_conjugate_undefined_outside_lp(self):
        with pytest.raises(ValueError):
            _ = L1.q
        with pytest.raises(ValueError):
            _ = LINF.q

    def test_integral_exponent(self):
        assert L1.integral_exponent == 1.0
        assert lp(2.5).integral_exponent == 2.5
        with pytest.raises(ValueError):
            _ = LINF.integral_exponent

    def test_validation(self):
        with pytest.raises(ValueError):
            NormRegime("l2")
        with pytest.raises(ValueError):
            NormRegime("lp")  # missing exponent
        with pytest.raises(ValueError):
            NormRegime("l1", p=2.0)  # spurious exponent
        with pytest.raises(ValueError):
            lp(1.0)
        with pytest.raises(ValueError):
            lp(0.5)
        with pytest.raises(ValueError):
            lp(float("inf"))


class TestConjugateExponent:
    def test_values(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(3.0) == 1.5
        assert math.isclose(conjugate_exponent(4.0 / 3.0), 4.0, rel_tol=1e-14)

    def test_pairing(self):
        # q is conjugate to p iff p is conjugate to q
        for p in (1.1, 1.5, 2.0, 3.7, 12.0):
            q = conjugate_exponent(p)
            assert math.isclose(conjugate_exponent(q), p, rel_tol=1e-13)

    def test_rejects_bad_exponents(self):
        for bad in (1.0, 0.99, 0.0, -2.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                conjugate_exponent(bad)


class TestMu:
    def test_middle_branch_examples(self):
        assert mu(1.0, 0.0, 0.5, 1.0) == 0.25
        assert mu(1.0, 0.0, 0.0, 1.0) == 0.5
        assert mu(1.0, 0.0, 1.0, 1.0) == 0.5
        # int_0^1 (t - 1/4)^2-style split: (c^3 + (1-c)^3)/3 at c = 1/4
        expected = ((0.25) ** 3 + (0.75) ** 3) / 3.0
        assert math.isclose(mu(2.0, 0.0, 0.25, 1.0), expected, rel_tol=1e-15)

    def test_outside_branch_examples(self):
        # c = -1 below [0, 1]: ((b-c)^3 - (a-c)^3)/3 = (8 - 1)/3
        assert math.isclose(mu(2.0, 0.0, -1.0, 1.0), 7.0 / 3.0, rel_tol=1e-15)
        # mirrored above
        assert math.isclose(mu(2.0, 0.0, 2.0, 1.0), 7.0 / 3.0, rel_tol=1e-15)
        assert mu(1.0, 0.0, 2.0, 1.0) == 1.5

    def test_sup_branch_examples(self):
        assert mu(INF, 0.0, 0.25, 1.0) == 0.75
        assert mu(INF, 0.0, 0.5, 1.0) == 0.5
        assert mu(INF, 0.0, -2.0, 1.0) == 3.0
        assert mu(INF, 0.0, 1.5, 1.0) == 1.5

    def test_float_inf_alias(self):
        assert mu(float("inf"), 0.0, 0.25, 1.0) == mu(INF, 0.0, 0.25, 1.0)

    def test_integer_exponent_accepted(self):
        assert mu(2, 0.0, 0.5, 1.0) == mu(2.0, 0.0, 0.5, 1.0)

    def test_degenerate_interval(self):
        assert mu(1.0, 2.0, 2.0, 2.0) == 0.0
        assert mu(3.5, 2.0, 7.0, 2.0) == 0.0
        assert mu(INF, 2.0, -1.0, 2.0) == 0.0

    def test_matches_scalar_reference_bit_for_bit(self):
        # every branch, degenerate and touching segments, tiny and huge
        # scales, and powers and differences of powers that overflow
        rng = np.random.default_rng(20261019)
        for k in range(6000):
            scale = 10.0 ** float(rng.integers(-300, 300))
            a, b = sorted(float(x) * scale for x in rng.uniform(-1.0, 1.0, 2))
            if k % 7 == 0:
                b = a
            c = (a, b, a - (b - a), b + (b - a))[k % 4] if k % 5 == 0 else \
                float(rng.uniform(-2.0, 2.0)) * scale
            p = (INF, 1.0, 2.0, float(rng.uniform(1.0, 40.0)), float(rng.uniform(1.0, 1e3)))[k % 5]
            for a, c, b in ((a, c, b), (a / scale, c / scale, b / scale)):
                if not math.isfinite(c):
                    continue
                assert mu(p, a, c, b).hex() == reference_mu(p, a, c, b).hex(), (p, a, c, b)

    def test_overflow_is_inf(self):
        assert mu(2.0, -1e200, 0.0, 1e200) == math.inf
        assert mu(2.0, 1e200, -1e200, 1.5e200) == math.inf  # inf - inf is not nan

    def test_against_dense_integration(self):
        rng = np.random.default_rng(424242)
        for k in range(300):
            a = rng.uniform(-3.0, 3.0)
            b = a + rng.uniform(0.05, 4.0)
            branch = k % 3
            if branch == 0:
                c = a - rng.uniform(0.0, 3.0)
            elif branch == 1:
                c = rng.uniform(a, b)
            else:
                c = b + rng.uniform(0.0, 3.0)
            p = float(rng.uniform(1.0, 8.0))
            exact = mu(p, a, c, b)
            approx = riemann_mu(p, a, c, b)
            assert exact == pytest.approx(approx, rel=2e-8), (p, a, c, b)

    def test_sup_branch_against_grid_max(self):
        rng = np.random.default_rng(171)
        for _ in range(100):
            a = rng.uniform(-2.0, 2.0)
            b = a + rng.uniform(0.1, 3.0)
            c = rng.uniform(a - 2.0, b + 2.0)
            exact = mu(INF, a, c, b)
            grid = riemann_mu(INF, a, c, b)
            # grid max only sees sample points, so it can only undershoot
            assert grid <= exact + 1e-12
            assert exact == pytest.approx(grid, rel=1e-4)

    def test_branch_continuity_absolute(self):
        # unit-scale intervals: the true increment over 1e-12 is ~1e-12,
        # so anything near 1e-9 would mean the branch forms disagree
        rng = np.random.default_rng(977301)
        for k in range(200):
            a = rng.uniform(-3.0, 3.0)
            b = a + rng.uniform(0.05, 1.0)
            p = float(rng.uniform(1.0, 8.0)) if k % 2 else INF
            for edge in (a, b):
                for eps in (-1e-12, 1e-12):
                    jump = abs(mu(p, a, edge + eps, b) - mu(p, a, edge, b))
                    assert jump <= 1e-9, (p, a, b, edge, eps)

    def test_branch_continuity_relative_long_intervals(self):
        rng = np.random.default_rng(5150)
        for k in range(100):
            a = rng.uniform(-10.0, 10.0)
            b = a + rng.uniform(1.0, 50.0)
            p = float(rng.uniform(1.0, 8.0)) if k % 2 else INF
            for edge in (a, b):
                base = mu(p, a, edge, b)
                for eps in (-1e-9, 1e-9):
                    jump = abs(mu(p, a, edge + eps, b) - base)
                    assert jump <= 1e-6 * (1.0 + base), (p, a, b, edge)

    def test_monotone_in_outside_distance(self):
        # pushing c further from the interval can only grow mu
        for p in (1.0, 2.0, 3.5, INF):
            values = [mu(p, 0.0, c, 1.0) for c in (-0.5, -1.0, -2.0, -4.0)]
            assert values == sorted(values)
            values = [mu(p, 0.0, c, 1.0) for c in (1.5, 2.0, 3.0, 5.0)]
            assert values == sorted(values)

    def test_translation_invariance(self):
        rng = np.random.default_rng(88)
        for _ in range(50):
            a = rng.uniform(-2.0, 2.0)
            b = a + rng.uniform(0.1, 2.0)
            c = rng.uniform(a - 1.0, b + 1.0)
            shift = rng.uniform(-5.0, 5.0)
            p = float(rng.uniform(1.0, 6.0))
            assert mu(p, a, c, b) == pytest.approx(
                mu(p, a + shift, c + shift, b + shift), rel=1e-11, abs=1e-13
            )

    def test_scaling_law(self):
        # mu_p over [0, L] with c = s*L equals L^(p+1) * mu_p over [0, 1] at s
        rng = np.random.default_rng(303)
        for _ in range(50):
            L = rng.uniform(0.1, 10.0)
            s = rng.uniform(-0.5, 1.5)
            p = float(rng.uniform(1.0, 6.0))
            lhs = mu(p, 0.0, s * L, L)
            rhs = L ** (p + 1.0) * mu(p, 0.0, s, 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_overflow_gives_inf(self):
        # (c - a) ** 2 overflows past 1.3e154; the result is inf, not an error
        assert mu(1.0, -1e200, 0.0, 1e200) == math.inf
        assert mu(3.0, 0.0, -1.0, 1e100) == math.inf  # outside branch
        assert math.isfinite(mu(1.0, -1e150, 0.0, 1e150))

    def test_squares_are_correctly_rounded(self):
        # mu(1) and the linf outer factors square through _powers: one
        # multiply, rounded once.  glibc's pow(x, 2.0) is an ulp off at the
        # first five points (about 8 in 10,000 uniform doubles)
        rng = np.random.default_rng(18)
        special = [5.198331673146651, 8.812634207721718, 4.8407776376750284,
                   -0.18091450490542016, 1.222479418353048,
                   0.0, -0.0, 5e-324, -5e-324, 1e-170, 1.4916681462400413e-154,
                   2.2250738585072014e-308, 1e-160, 1.3407807929942596e154,
                   math.nextafter(1.3407807929942596e154, math.inf), 1e155, -1e308,
                   1.7976931348623157e308]
        signs = rng.choice([-1.0, 1.0], 6000)
        x = np.concatenate([special, rng.uniform(-10.0, 10.0, 6000),
                            np.exp(rng.uniform(-745.0, 709.0, 6000)) * signs])
        with np.errstate(over="ignore"):
            squares = _powers(x, 2.0)
        assert squares.dtype == np.float64 and squares.shape == x.shape
        expected = [correctly_rounded_square(v).hex() for v in x.tolist()]
        assert [v.hex() for v in squares.tolist()] == expected

    @pytest.mark.parametrize("y", [1.5, 1.0 / 3.0, 1.0 + 1.0 / 3.0, 3.0, 4.0, 101.0, 1.01])
    def test_other_powers_are_pythons(self, y):
        # every power but the square is Python's v ** y, bit for bit, with
        # inf where ** raises OverflowError (1e300 here, for y > 1.03); x >= 0
        # or nan, as every caller passes
        rng = np.random.default_rng(21)
        special = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1.0, 1e300,
                   1.7976931348623157e308, math.inf, math.nan]
        x = np.concatenate([special, rng.uniform(0.0, 10.0, 3000),
                            np.exp(rng.uniform(-745.0, 709.0, 3000))])

        def expected(v):
            try:
                return v ** y
            except OverflowError:
                return math.inf
        with np.errstate(over="ignore"):
            for xs in (x, x[:len(special) + 500], x[len(special):].reshape(2, -1)):
                out = _powers(xs, y)
                assert out.dtype == np.float64 and out.shape == xs.shape
                assert [v.hex() for v in out.ravel().tolist()] == [
                    expected(v).hex() for v in xs.ravel().tolist()]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mu(0.5, 0.0, 0.5, 1.0)  # exponent below 1
        with pytest.raises(ValueError):
            mu(-2.0, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            mu(float("nan"), 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            mu(1.0, 1.0, 0.5, 0.0)  # a > b
        with pytest.raises(ValueError):
            mu(1.0, 0.0, float("nan"), 1.0)
        with pytest.raises(ValueError):
            mu(1.0, float("inf"), 0.5, 1.0)
        with pytest.raises(ValueError):
            mu("two", 0.0, 0.5, 1.0)
