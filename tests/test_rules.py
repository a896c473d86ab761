"""Rule validation, cumulative-weight geometry, and the preset catalogue."""

import numpy as np
import pytest

from certquad import (
    Interval,
    PRESET_NAMES,
    cumulative,
    make_rule,
    nodes_abs,
    preset,
)
from certquad.rules import _pieces
from helpers import PIECE_RULES, corollary_condition_holds


class TestRuleValidation:
    def test_minimal_rule(self):
        r = make_rule((0.5,), (1.0,))
        assert r.n == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            make_rule((0.0, 1.0), (0.5, 0.4))

    def test_weight_sum_tolerance(self):
        # off by 1e-13 passes, off by 1e-10 fails
        make_rule((0.0, 1.0), (0.5, 0.5 + 1e-13))
        with pytest.raises(ValueError):
            make_rule((0.0, 1.0), (0.5, 0.5 + 1e-10))

    def test_weights_strictly_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            make_rule((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="strictly positive"):
            make_rule((0.0, 0.5, 1.0), (0.6, -0.2, 0.6))

    def test_nodes_inside_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            make_rule((-0.1, 1.0), (0.5, 0.5))
        with pytest.raises(ValueError, match="outside"):
            make_rule((0.0, 1.1), (0.5, 0.5))

    def test_nodes_nondecreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            make_rule((0.75, 0.25), (0.5, 0.5))

    def test_coincident_nodes_allowed(self):
        r = make_rule((0.5, 0.5), (0.5, 0.5))
        assert r.n == 2

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            make_rule((0.0, 1.0), (1.0,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_rule((), ())


class TestCumulative:
    def test_trapezoid_unit(self):
        cum = cumulative(preset("trapezoid"), Interval(0.0, 1.0))
        assert cum.P == (0.5, 1.0)
        assert cum.Pbar == (0.5, 0.0)
        assert cum.xi == (0.5,)

    def test_trapezoid_shifted(self):
        cum = cumulative(preset("trapezoid"), Interval(2.0, 6.0))
        assert cum.xi == (4.0,)

    def test_simpson_unit(self):
        cum = cumulative(preset("simpson"), Interval(0.0, 1.0))
        assert cum.P[0] == pytest.approx(1.0 / 6.0, abs=1e-16)
        assert cum.P[1] == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert cum.P[2] == pytest.approx(1.0, abs=1e-15)
        assert cum.xi[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert cum.xi[1] == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_xi_clamped_into_interval(self):
        rng = np.random.default_rng(31337)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            nodes = tuple(sorted(rng.uniform(0.0, 1.0, n)))
            raw = rng.uniform(0.05, 1.0, n)
            weights = tuple(raw / raw.sum())
            rule = make_rule(nodes, weights)
            a = rng.uniform(-3.0, 3.0)
            b = a + rng.uniform(0.01, 5.0)
            cum = cumulative(rule, Interval(a, b))
            assert len(cum.xi) == n - 1
            for point in cum.xi:
                assert a <= point <= b
            # cumulative weights increase
            assert list(cum.P) == sorted(cum.P)

    def test_xi_scale_covariance(self):
        rule = preset("qs")
        unit = cumulative(rule, Interval(0.0, 1.0)).xi
        a, b = -2.0, 3.0
        shifted = cumulative(rule, Interval(a, b)).xi
        for u, s in zip(unit, shifted):
            assert s == pytest.approx(a + u * (b - a), rel=1e-14)


class TestNodesAbs:
    def test_qt_positions(self):
        assert nodes_abs(preset("qt"), Interval(2.0, 6.0)) == (3.0, 5.0)

    def test_endpoint_nodes_exact(self):
        # u = 0 and u = 1 must map to a and b bitwise, no arithmetic
        iv = Interval(0.1, 0.30000000000000004)
        xs = nodes_abs(preset("trapezoid"), iv)
        assert xs[0] == iv.a and xs[1] == iv.b

    def test_interior_nodes_clamped(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            a = rng.uniform(-1e3, 1e3)
            b = a + rng.uniform(1e-9, 1e3)
            u = rng.uniform(0.0, 1.0)
            rule = make_rule((u,), (1.0,))
            (x,) = nodes_abs(rule, Interval(a, b))
            assert a <= x <= b


class TestCorollaryCondition:
    @pytest.mark.parametrize(
        "name",
        ["trapezoid", "qt", "qs", "simpson", "weighted_endpoints", "ostrowski"],
    )
    def test_holds_for_named_rules(self, name):
        assert corollary_condition_holds(preset(name), Interval(0.0, 1.0))

    def test_holds_for_quarter_three_point_default(self):
        assert corollary_condition_holds(
            preset("quarter_three_point"), Interval(0.0, 1.0)
        )

    def test_violated_by_lopsided_weights(self):
        # quarter_points(0.9): xi_1 = 0.9 lands right of the node window
        # [0.25, 0.75]
        rule = preset("quarter_points", 0.9)
        assert not corollary_condition_holds(rule, Interval(0.0, 1.0))

    def test_violated_on_any_interval(self):
        rule = preset("quarter_points", 0.9)
        assert not corollary_condition_holds(rule, Interval(-5.0, 11.0))

    def test_single_node_always_holds(self):
        # no interior comparison points, so the condition is vacuous
        assert corollary_condition_holds(preset("ostrowski", 0.05), Interval(0.0, 1.0))


class TestPresets:
    def test_catalogue(self):
        assert len(PRESET_NAMES) == 10
        assert PRESET_NAMES == tuple(sorted(PRESET_NAMES))
        for name in ("trapezoid", "qt", "qs", "simpson", "ostrowski"):
            assert name in PRESET_NAMES

    def test_qs_weights(self):
        r = preset("qs")
        assert r.nodes_rel == (0.0, 0.5, 1.0)
        assert r.weights == (0.25, 0.5, 0.25)

    def test_simpson_weights(self):
        r = preset("simpson")
        assert r.weights == (1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0)

    def test_qt_is_balanced_quarter_points(self):
        qt = preset("qt")
        qp = preset("quarter_points", 0.5)
        assert qt.nodes_rel == qp.nodes_rel == (0.25, 0.75)
        assert qt.weights == qp.weights == (0.5, 0.5)

    def test_trapezoid_is_balanced_weighted_endpoints(self):
        tz = preset("trapezoid")
        we = preset("weighted_endpoints", 0.5)
        assert tz.nodes_rel == we.nodes_rel
        assert tz.weights == we.weights

    def test_qs_is_default_endpoints_midpoint(self):
        assert preset("endpoints_midpoint").weights == preset("qs").weights

    def test_three_point_general(self):
        r = preset("three_point", 1.0 / 6.0, 4.0 / 6.0, 0.0, 0.5, 1.0)
        assert r.nodes_rel == preset("simpson").nodes_rel
        assert r.weights == pytest.approx(preset("simpson").weights, abs=1e-15)

    def test_quarter_three_point_default(self):
        r = preset("quarter_three_point")
        assert r.nodes_rel == (0.25, 0.5, 0.75)
        assert sum(r.weights) == pytest.approx(1.0, abs=1e-15)

    def test_ostrowski_parameter(self):
        assert preset("ostrowski", 0.25).nodes_rel == (0.25,)
        assert preset("ostrowski").nodes_rel == (0.5,)

    def test_unknown_name(self):
        with pytest.raises(ValueError) as info:
            preset("gauss")
        assert str(info.value) == (
            "unknown preset rule 'gauss'; available: endpoints_midpoint, ostrowski, qs, qt, "
            "quarter_points, quarter_three_point, simpson, three_point, trapezoid, "
            "weighted_endpoints")

    def test_wrong_parameter_count(self):
        for name, params in (("trapezoid", (0.3,)), ("three_point", (0.5,)),
                             ("ostrowski", (0.3, 0.4)), ("qs", (1,))):
            with pytest.raises(ValueError) as info:
                preset(name, *params)
            assert str(info.value) == f"wrong number of parameters for preset {name!r}: {params!r}"

    def test_bad_parameter_keeps_its_error(self):
        # the count is right, so the rule's own error comes through
        with pytest.raises(TypeError, match="NoneType"):
            preset("ostrowski", None)
        with pytest.raises(ValueError, match="could not convert string to float"):
            preset("ostrowski", "x")
        with pytest.raises(ValueError, match="outside"):
            preset("ostrowski", 1.5)

    # (name, parameters) -> (rule.name, nodes_rel, weights) of every preset at its
    # defaults; three_point has none
    CATALOGUE = {
        ("endpoints_midpoint", ()): ("endpoints_midpoint", (0.0, 0.5, 1.0), (0.25, 0.5, 0.25)),
        ("ostrowski", ()): ("ostrowski", (0.5,), (1.0,)),
        ("qs", ()): ("qs", (0.0, 0.5, 1.0), (0.25, 0.5, 0.25)),
        ("qt", ()): ("qt", (0.25, 0.75), (0.5, 0.5)),
        ("quarter_points", ()): ("quarter_points", (0.25, 0.75), (0.5, 0.5)),
        ("quarter_three_point", ()): (
            "quarter_three_point", (0.25, 0.5, 0.75),
            (0.3333333333333333, 0.3333333333333333, 0.3333333333333334)),
        ("simpson", ()): (
            "simpson", (0.0, 0.5, 1.0),
            (0.16666666666666666, 0.6666666666666666, 0.16666666666666666)),
        ("three_point", (0.2, 0.3, 0.1, 0.5, 0.9)): (
            "three_point", (0.1, 0.5, 0.9), (0.2, 0.3, 0.5)),
        ("trapezoid", ()): ("trapezoid", (0.0, 1.0), (0.5, 0.5)),
        ("weighted_endpoints", ()): ("weighted_endpoints", (0.0, 1.0), (0.5, 0.5)),
    }

    def test_table_gives_the_catalogue(self):
        assert tuple(name for name, _ in self.CATALOGUE) == PRESET_NAMES
        for (name, params), expected in self.CATALOGUE.items():
            r = preset(name, *params)
            assert (r.name, r.nodes_rel, r.weights) == expected

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            preset("ostrowski", 1.5)  # node outside [0, 1]
        with pytest.raises(ValueError):
            preset("weighted_endpoints", 1.0)  # zero weight
        with pytest.raises(ValueError):
            preset("endpoints_midpoint", 0.5, 0.5)  # third weight collapses


def _old_pieces(rule, a, b):
    """``rules._pieces`` as two separate calls formed it, each converting
    the endpoints and entering ``np.errstate`` on its own (frozen)."""
    def columns():
        return np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]

    lo, hi = columns()
    with np.errstate(all="ignore"):
        x = lo + rule._inner * (hi - lo)
    x = np.where(x > hi, hi, x)
    at_a, at_b = rule._at_ends
    cuts = np.concatenate((lo,) * (1 + at_a) + (x,) + (hi,) * (1 + at_b), axis=-1)
    lo, hi = columns()
    with np.errstate(all="ignore"):
        x = rule._s * hi + rule._sbar * lo
    xi = np.where(x < lo, lo, np.where(x > hi, hi, x))
    centers = np.concatenate((cuts[..., :1], xi, cuts[..., -1:]), axis=-1)
    return cuts[..., :-1], cuts[..., 1:], centers


def test_pieces_keep_the_bytes_of_the_separate_calls():
    rng = np.random.default_rng(29)
    lo = np.concatenate([
        rng.uniform(-10.0, 10.0, 300),
        np.exp(rng.uniform(-700.0, 700.0, 300)) * rng.choice([-1.0, 1.0], 300),
        [0.0, -0.0, 5e-324, -1e308, -1e155, 1e15, 1e-300, -1e308, 1.0],
    ])
    hi = lo + np.concatenate([
        rng.uniform(0.0, 5.0, 300),
        np.exp(rng.uniform(-700.0, 700.0, 300)),
        [0.0, 0.0, 5e-324, 1e308, 2e155, 1.0, 1e-300, 0.0, 0.0],
    ])
    hi[-6] = 1e308  # [-1e308, 1e308], whose length overflows
    rules = [preset(name) for name in PRESET_NAMES if name != "three_point"]
    rules += [preset("three_point", 0.2, 0.3, 0.1, 0.5, 0.9), *PIECE_RULES.values()]
    for rule in rules:
        for a, b in [(lo, hi), (lo[:1], hi[:1]), (float(lo[-3]), float(hi[-3]))]:
            got, expected = _pieces(rule, a, b), _old_pieces(rule, a, b)
            for x, y in zip(got, expected):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), rule.name
