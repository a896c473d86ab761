"""Collapsed kernel evaluation and the rule-error identity."""

import math
from bisect import bisect_left

import numpy as np
import pytest

from certquad import (
    SPACES,
    Interval,
    VectorFunction,
    make_function,
    make_rule,
    preset,
)
from certquad.rules import _pieces
from helpers import (
    PIECE_RULES,
    identity_residual,
    kernel_direct_sum,
    reference_function,
    reference_identity_residual,
    riemann_scalar,
)

UNIT = Interval(0.0, 1.0)


def pieces(rule, interval):
    """The one-panel ``(lo, hi, center)`` columns of ``rules._pieces``."""
    return tuple(column[0] for column in _pieces(rule, [interval.a], [interval.b]))


def kernel(rule, interval):
    """S(t) = ``t - center[k]`` on the piece k that holds t: the first whose
    upper end is at least t, so a node belongs to the piece on its left."""
    _, his, centers = (column.tolist() for column in pieces(rule, interval))
    return lambda t: t - centers[bisect_left(his, t)]


class TestKernelValue:
    """The Peano kernel as the library reads it, from ``rules._pieces``."""

    def test_trapezoid_pieces(self):
        s = kernel(preset("trapezoid"), UNIT)
        assert s(0.0) == 0.0
        assert s(0.3) == pytest.approx(-0.2, abs=1e-16)
        assert s(0.7) == pytest.approx(0.2, abs=1e-16)

    def test_left_piece_wins_at_nodes(self):
        # at t equal to a node the piece left of the node applies, matching
        # the direct elementary sum (elementary kernels switch strictly
        # after their node)
        assert kernel(preset("trapezoid"), UNIT)(1.0) == 0.5  # t - xi_1, not t - b
        assert kernel_direct_sum(preset("trapezoid"), UNIT, 1.0) == 0.5
        assert kernel(preset("simpson"), UNIT)(0.5) == pytest.approx(
            0.5 - 1.0 / 6.0, abs=1e-15
        )

    def test_qt_shifted_interval(self):
        rule, iv = preset("qt"), Interval(2.0, 6.0)
        los, his, centers = pieces(rule, iv)
        assert los.tolist() == [2.0, 3.0, 5.0]
        assert his.tolist() == [3.0, 5.0, 6.0]
        assert centers.tolist() == [2.0, 4.0, 6.0]
        s = kernel(rule, iv)
        assert s(2.5) == 0.5  # t - a
        assert s(3.0) == 1.0  # still the first piece
        assert s(3.5) == -0.5  # t - xi_1 with xi_1 = 4
        assert s(6.0) == 0.0  # t - b

    def test_matches_direct_elementary_sum(self):
        rng = np.random.default_rng(60601)
        iv = Interval(-2.0, 3.0)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            nodes = tuple(sorted(rng.uniform(0.0, 1.0, n)))
            raw = rng.uniform(0.05, 1.0, n)
            rule = make_rule(nodes, tuple(raw / raw.sum()))
            s = kernel(rule, iv)
            for _ in range(20):
                t = float(rng.uniform(iv.a, iv.b))
                assert s(t) == pytest.approx(
                    kernel_direct_sum(rule, iv, t), abs=1e-12
                )

    def test_direct_sum_at_node_points(self):
        # at each node, the upper end of the piece on its left
        rng = np.random.default_rng(4455)
        iv = Interval(0.0, 1.0)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            nodes = tuple(sorted(rng.uniform(0.05, 0.95, n)))
            raw = rng.uniform(0.1, 1.0, n)
            rule = make_rule(nodes, tuple(raw / raw.sum()))
            _, his, centers = pieces(rule, iv)
            for x, center in zip(his[:-1].tolist(), centers[:-1].tolist()):
                assert x - center == pytest.approx(
                    kernel_direct_sum(rule, iv, x), abs=1e-12
                )

    def test_outside_interval_rejected(self):
        # the pieces tile [a, b] end to end, so no point outside it lies
        # on a piece
        for rule in (preset("qt"), *PIECE_RULES.values()):
            los, his, _ = pieces(rule, UNIT)
            assert los[0] == 0.0 and his[-1] == 1.0
            assert los[1:].tolist() == his[:-1].tolist()
            assert np.all(los <= his)

    def test_mean_of_kernel(self):
        # mean of S equals sum(p_i x_i) minus the interval midpoint
        for name, params in [("qt", ()), ("simpson", ()), ("quarter_points", (0.8,))]:
            rule = preset(name, *params)
            iv = Interval(0.0, 1.0)
            dense = riemann_scalar(kernel(rule, iv), 0.0, 1.0, n=100_000)
            node_mean = sum(w * x for w, x in zip(rule.weights, pieces(rule, iv)[1][:-1]))
            assert dense == pytest.approx(node_mean - 0.5, abs=1e-9)


class TestIdentityResidual:
    @pytest.mark.parametrize(
        "name,label",
        [(name, label) for name in ("const", "affine") for label in SPACES]
        + [(name, None) for name in
           ("quadratic", "exp", "trig_circle", "poly_r3", "matrix_path", "abs_kink")],
    )
    def test_batched_kernel_side_keeps_the_per_point_bits(self, name, label):
        # without df_many the kernel side samples df one point at a time
        fn = reference_function(name, label)
        per_point = VectorFunction(space=fn.space, f=fn.f, f_many=fn.f_many, df=fn.df)
        for rule in (preset("qt"), PIECE_RULES["outside"]):
            for interval in (UNIT, Interval(-0.7, 1.3)):
                assert identity_residual(fn, rule, interval, 1025) == identity_residual(
                    per_point, rule, interval, 1025), (rule.name, interval)

    def test_rule_side_takes_one_f_many_call(self):
        # the node samples come from one f_many call on the nodes, as in the
        # rule pass; f is not called
        base = make_function("exp")
        calls = []

        def f(t):
            raise AssertionError("the rule side samples through f_many")

        def f_many(ts):
            calls.append(ts.tolist())
            return base.f_many(ts)

        fn = VectorFunction(space=base.space, f=f, f_many=f_many, df=base.df,
                            df_many=base.df_many)
        rule, interval = PIECE_RULES["outside"], Interval(-0.7, 1.3)
        assert identity_residual(fn, rule, interval, 64) == identity_residual(
            base, rule, interval, 64)
        assert calls[0] == pieces(rule, interval)[0][1:].tolist()

    def test_smooth_cases_tiny(self):
        assert identity_residual(
            make_function("exp"), preset("qs"), UNIT, 1024
        ) <= 1e-12
        assert identity_residual(
            make_function("trig_circle"), preset("simpson"), Interval(0.0, 2.0), 2048
        ) <= 1e-10

    def test_const_exact(self):
        assert identity_residual(
            make_function("const"), preset("trapezoid"), UNIT, 16
        ) <= 1e-14

    def test_matrix_valued(self):
        r = identity_residual(
            make_function("matrix_path"), preset("qt"), Interval(0.0, math.pi), 2048
        )
        assert r <= 1e-9

    def test_residual_decays_with_resolution(self):
        fn = make_function("exp")
        coarse = identity_residual(fn, preset("qt"), UNIT, 1 << 6)
        fine = identity_residual(fn, preset("qt"), UNIT, 1 << 10)
        assert fine < coarse
        assert coarse > 1e-13  # coarse truncation is actually visible

    def test_kink_at_piece_boundary(self):
        # qs has a node at the abs_kink corner, so each piece sees a smooth
        # integrand except for the one-sided derivative sample at the shared
        # endpoint; that single sample carries the Simpson endpoint weight
        # S(0.5) * 2 * h/6, so the residual decays like 1/resolution
        fn = make_function("abs_kink")
        coarse = identity_residual(fn, preset("qs"), UNIT, 1024)
        fine = identity_residual(fn, preset("qs"), UNIT, 4096)
        assert coarse == pytest.approx(0.25 * 2.0 * (0.5 / 512) / 6.0, rel=1e-6)
        assert fine == pytest.approx(coarse / 4.0, rel=1e-4)

    def test_kink_misaligned_interval(self):
        # on [0, 0.9] the kink falls inside reference panels; the identity
        # still holds, just at the kink-limited quadrature rate
        r = identity_residual(
            make_function("abs_kink"), preset("qt"), Interval(0.0, 0.9), 4096
        )
        assert r <= 1e-6

    def test_ostrowski_single_node(self):
        r = identity_residual(make_function("poly_r3"), preset("ostrowski"), UNIT, 1024)
        assert r <= 1e-11

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            identity_residual(
                make_function("exp"), preset("qt"), Interval(0.5, 0.5), 64
            )

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            identity_residual(make_function("exp"), preset("qt"), UNIT, 1)

    @pytest.mark.parametrize("space, residuals", [
        ("scalar", ("0x1.0000000000000p-55", "0x1.0000000000000p-55", "0x0.0p+0")),
        ("r3", ("0x1.715a73680208cp-55", "0x1.0000000000000p-55", "0x1.0000000000000p-54")),
        ("c2", ("0x1.96700de687e7dp-25", "0x1.bf66620f88d48p-25", "0x1.9aa12273600d0p-25")),
    ])
    def test_pinned_bits(self, space, residuals):
        # bits recorded with the oracle's blocked sum, and equal to the
        # one-addition-at-a-time reference at 64 panels (each parity one
        # row) and 1000 (rows and a short last row); the c2 integrand must
        # stay complex
        fns = {
            "scalar": make_function("quadratic"),
            "r3": make_function("poly_r3"),
            "c2": VectorFunction(
                SPACES["c2"],
                f=lambda t: np.array([t * t + 1j * t, (1 - 2j) * t * t * t * t]),
                df=lambda t: np.array([2 * t + 1j, (4 - 8j) * t * t * t]),
            ),
        }
        got = tuple(
            identity_residual(fns[space], rule, Interval(-0.5, 1.25), 64).hex()
            for rule in PIECE_RULES.values()
        )
        assert got == residuals
        for resolution in (64, 1000):
            for rule in PIECE_RULES.values():
                iv = Interval(-0.5, 1.25)
                got = identity_residual(fns[space], rule, iv, resolution)
                expected = reference_identity_residual(fns[space], rule, iv, resolution)
                assert got.hex() == expected.hex(), (rule.name, resolution)
