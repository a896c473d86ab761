"""Collapsed kernel evaluation and the rule-error identity."""

import math

import numpy as np
import pytest

from certquad import (
    SPACES,
    Interval,
    VectorFunction,
    identity_residual,
    kernel_value,
    make_function,
    make_rule,
    peano_kernel,
    preset,
)
from helpers import PIECE_RULES, kernel_direct_sum, riemann_scalar

UNIT = Interval(0.0, 1.0)


class TestKernelValue:
    def test_trapezoid_pieces(self):
        k = peano_kernel(preset("trapezoid"), UNIT)
        assert kernel_value(k, 0.0) == 0.0
        assert kernel_value(k, 0.3) == pytest.approx(-0.2, abs=1e-16)
        assert kernel_value(k, 0.7) == pytest.approx(0.2, abs=1e-16)

    def test_left_piece_wins_at_nodes(self):
        # at t equal to a node the piece left of the node applies, matching
        # the direct elementary sum (elementary kernels switch strictly
        # after their node)
        k = peano_kernel(preset("trapezoid"), UNIT)
        assert kernel_value(k, 1.0) == 0.5  # t - xi_1, not t - b
        s = peano_kernel(preset("simpson"), UNIT)
        assert kernel_value(s, 0.5) == pytest.approx(0.5 - 1.0 / 6.0, abs=1e-15)

    def test_qt_shifted_interval(self):
        k = peano_kernel(preset("qt"), Interval(2.0, 6.0))
        assert k.nodes == (3.0, 5.0)
        assert kernel_value(k, 2.5) == 0.5  # t - a
        assert kernel_value(k, 3.0) == 1.0  # still the first piece
        assert kernel_value(k, 3.5) == -0.5  # t - xi_1 with xi_1 = 4
        assert kernel_value(k, 6.0) == 0.0  # t - b

    def test_matches_direct_elementary_sum(self):
        rng = np.random.default_rng(60601)
        iv = Interval(-2.0, 3.0)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            nodes = tuple(sorted(rng.uniform(0.0, 1.0, n)))
            raw = rng.uniform(0.05, 1.0, n)
            rule = make_rule(nodes, tuple(raw / raw.sum()))
            k = peano_kernel(rule, iv)
            for _ in range(20):
                t = float(rng.uniform(iv.a, iv.b))
                assert kernel_value(k, t) == pytest.approx(
                    kernel_direct_sum(rule, iv, t), abs=1e-12
                )

    def test_direct_sum_at_node_points(self):
        rng = np.random.default_rng(4455)
        iv = Interval(0.0, 1.0)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            nodes = tuple(sorted(rng.uniform(0.05, 0.95, n)))
            raw = rng.uniform(0.1, 1.0, n)
            rule = make_rule(nodes, tuple(raw / raw.sum()))
            k = peano_kernel(rule, iv)
            for x in k.nodes:
                assert kernel_value(k, x) == pytest.approx(
                    kernel_direct_sum(rule, iv, x), abs=1e-12
                )

    def test_outside_interval_rejected(self):
        k = peano_kernel(preset("qt"), UNIT)
        with pytest.raises(ValueError, match="outside"):
            kernel_value(k, 1.0000001)
        with pytest.raises(ValueError, match="outside"):
            kernel_value(k, -0.1)

    def test_mean_of_kernel(self):
        # mean of S equals sum(p_i x_i) minus the interval midpoint
        for name, params in [("qt", ()), ("simpson", ()), ("quarter_points", (0.8,))]:
            rule = preset(name, *params)
            iv = Interval(0.0, 1.0)
            k = peano_kernel(rule, iv)
            dense = riemann_scalar(lambda t: kernel_value(k, t), 0.0, 1.0, n=100_000)
            node_mean = sum(
                w * x for w, x in zip(rule.weights, k.nodes)
            )
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
        fn = make_function(name, label)
        per_point = VectorFunction(space=fn.space, f=fn.f, f_many=fn.f_many, df=fn.df)
        for rule in (preset("qt"), PIECE_RULES["outside"]):
            for interval in (UNIT, Interval(-0.7, 1.3)):
                assert identity_residual(fn, rule, interval, 1025) == identity_residual(
                    per_point, rule, interval, 1025), (rule.name, interval)

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
        ("r3", ("0x1.966b9984726fap-54", "0x1.0000000000000p-55", "0x1.94c583ada5b53p-53")),
        ("c2", ("0x1.96700e015d1b3p-25", "0x1.bf66620f88d48p-25", "0x1.9aa12273600d0p-25")),
    ])
    def test_pinned_bits(self, space, residuals):
        # bits recorded before the kernel read its pieces from the rules
        # module; the c2 integrand must stay complex
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
