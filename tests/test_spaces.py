"""Normed spaces, norm axioms, ordered folds, derivative sampling and the function registry."""

import math
import zlib

import mpmath
import numpy as np
import pytest

from certquad import (
    FUNCTION_NAMES,
    SPACES,
    ComplexEuclideanSpace,
    EuclideanSpace,
    MatrixSpace,
    MaxNormSpace,
    ScalarSpace,
    VectorFunction,
    make_function,
    space_by_label,
)

from helpers import is_element, linear_combination, reference_norm


def random_element(space, rng):
    """An element with coordinates uniform in [-1, 1]."""
    return space.from_flat(rng.uniform(-1.0, 1.0, space.flat_dim))


class TestNormExamples:
    def test_scalar(self):
        s = ScalarSpace()
        assert s.norm(-3.5) == 3.5
        assert s.norm(0) == 0.0
        assert s.zero() == 0.0

    def test_euclidean(self):
        s = EuclideanSpace(2)
        assert s.norm(np.array([3.0, 4.0])) == 5.0
        assert s.norm(s.zero()) == 0.0

    def test_max_norm(self):
        s = MaxNormSpace(3)
        assert s.norm(np.array([1.0, -7.0, 3.0])) == 7.0

    def test_complex(self):
        s = ComplexEuclideanSpace(2)
        assert s.norm(np.array([3.0 + 4.0j, 0.0j])) == 5.0
        assert s.flat_dim == 4

    def test_matrix_frobenius(self):
        s = MatrixSpace(2, 2)
        assert s.norm(np.ones((2, 2))) == 2.0
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert s.norm(rot) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_labels(self):
        assert ScalarSpace().label == "scalar"
        assert EuclideanSpace(3).label == "r3"
        assert MaxNormSpace(3).label == "r3max"
        assert ComplexEuclideanSpace(2).label == "c2"
        assert MatrixSpace(2, 2).label == "m22"

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            EuclideanSpace(0)
        with pytest.raises(ValueError):
            MaxNormSpace(-1)
        with pytest.raises(ValueError):
            MatrixSpace(0, 2)

    def test_equality_follows_the_norm(self):
        assert EuclideanSpace(3) == SPACES["r3"]
        assert hash(EuclideanSpace(3)) == hash(SPACES["r3"])
        assert EuclideanSpace(3) != MaxNormSpace(3)
        assert ComplexEuclideanSpace(2) != EuclideanSpace(2)
        assert MatrixSpace(2, 2) == SPACES["m22"]


# the fixed element of each space is ``from_flat`` of the leading
# coordinates of these; its norms were recorded from the per-shape classes
# the one array space replaced, and must not move by a bit
CONTRACT_COORDS = ((0.1, -0.7, 1.0 / 3.0, 2.9), (1.1, 2.2, -3.3, 4.4))


@pytest.mark.parametrize(
    "label, components, zero_shape, zero_dtype, norm_hex",
    [
        ("scalar", [0.1], (), "float", ("0x1.999999999999ap-4", "0x1.199999999999ap+0")),
        ("r2", [0.1, -0.7], (2,), "float64",
         ("0x1.6a09e667f3bccp-1", "0x1.3ad69f7f3f386p+1")),
        ("r3", [0.1, -0.7, 1.0 / 3.0], (3,), "float64",
         ("0x1.903fb21c5c8dep-1", "0x1.0769a565fbc68p+2")),
        ("r3max", [0.1, -0.7, 1.0 / 3.0], (3,), "float64",
         ("0x1.6666666666666p-1", "0x1.a666666666666p+1")),
        ("c2", [[0.1, -0.7], [1.0 / 3.0, 2.9]], (2,), "complex128",
         ("0x1.80733a2f35483p+1", "0x1.8198c00d5b61ep+2")),
        ("m22", [[0.1, -0.7], [1.0 / 3.0, 2.9]], (2, 2), "float64",
         ("0x1.80733a2f35484p+1", "0x1.8198c00d5b61ep+2")),
    ],
)
def test_space_contract(label, components, zero_shape, zero_dtype, norm_hex):
    """Nesting of ``to_components``, the zero element, and norm bits."""
    space = SPACES[label]
    first = space.from_flat(CONTRACT_COORDS[0][: space.flat_dim])
    out = space.to_components(first)
    assert out == components
    assert all(type(v) is float for part in out
               for v in (part if isinstance(part, list) else [part]))
    zero = space.zero()
    if zero_dtype == "float":
        assert type(zero) is float and zero == 0.0
    else:
        assert zero.shape == zero_shape and zero.dtype == np.dtype(zero_dtype)
        assert is_element(space, zero) and not np.any(zero)
    for coords, expected in zip(CONTRACT_COORDS, norm_hex):
        x = space.from_flat(coords[: space.flat_dim])
        assert space.norm(x).hex() == expected


class TestNormAxioms:
    """Seeded property sweep over every registered space."""

    @pytest.mark.parametrize("label", sorted(SPACES))
    def test_axioms(self, label):
        space = SPACES[label]
        rng = np.random.default_rng(zlib.crc32(label.encode()))
        assert space.norm(space.zero()) == 0.0
        for _ in range(2000):
            x = random_element(space, rng)
            y = random_element(space, rng)
            lam = float(rng.uniform(-3.0, 3.0))
            nx = space.norm(x)
            ny = space.norm(y)
            assert nx >= 0.0
            # absolute homogeneity
            assert space.norm(space.scale(lam, x)) == pytest.approx(
                abs(lam) * nx, rel=1e-12, abs=1e-15
            )
            # triangle inequality, allowing summation rounding
            assert space.norm(space.add(x, y)) <= nx + ny + 1e-12

    @pytest.mark.parametrize("label", sorted(SPACES))
    def test_flat_round_trip(self, label):
        space = SPACES[label]
        rng = np.random.default_rng(7)
        for _ in range(100):
            coords = rng.uniform(-2.0, 2.0, space.flat_dim)
            x = space.from_flat(coords)
            assert is_element(space, x)
            flat = [v for part in space.to_components(x) for v in
                    (part if isinstance(part, list) else [part])]
            assert flat == pytest.approx(list(coords), abs=0.0)

    @pytest.mark.parametrize("label", sorted(SPACES))
    def test_subtract_matches_add_scale(self, label):
        space = SPACES[label]
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = random_element(space, rng)
            y = random_element(space, rng)
            d = space.subtract(x, y)
            back = space.add(d, y)
            assert space.norm(space.subtract(back, x)) <= 1e-12


class TestSpaceRegistry:
    def test_lookup(self):
        assert space_by_label("r2") is SPACES["r2"]
        assert space_by_label("  M22 ") is SPACES["m22"]

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown space"):
            space_by_label("r17")

    def test_membership_is_strict(self):
        r2 = SPACES["r2"]
        assert is_element(r2, np.array([1.0, 2.0]))
        assert not is_element(r2, np.array([1.0, 2.0, 3.0]))
        assert not is_element(r2, [1.0, 2.0])
        assert not is_element(r2, np.array([1, 2]))  # integer dtype
        scalar = SPACES["scalar"]
        assert is_element(scalar, 1.5) and is_element(scalar, 2)
        assert not is_element(scalar, True)
        assert not is_element(scalar, np.array([1.0]))


class TestFunctionRegistry:
    SPACE_LABELS = {"const": "r3", "affine": "r2", "quadratic": "scalar", "exp": "scalar",
                    "trig_circle": "r2", "poly_r3": "r3", "matrix_path": "m22",
                    "abs_kink": "scalar"}

    def test_names_and_default_spaces(self):
        assert FUNCTION_NAMES == tuple(self.SPACE_LABELS)
        for name, label in self.SPACE_LABELS.items():
            fn = make_function(name)
            assert fn.name == name and fn.space is SPACES[label]

    def test_spaces_by_label(self):
        assert make_function(" Const ", " M22 ").space is SPACES["m22"]
        assert make_function("affine", "").space is SPACES["r2"]
        assert make_function("EXP", " Scalar ").name == "exp"

    @pytest.mark.parametrize("name, label, message", [
        ("nope", None, "unknown function 'nope'; available: const, affine, quadratic, exp, "
         "trig_circle, poly_r3, matrix_path, abs_kink"),
        ("nope", "r2", "unknown function 'nope'; available: const, affine, quadratic, exp, "
         "trig_circle, poly_r3, matrix_path, abs_kink"),
        ("exp", "r2", "function 'exp' lives in the 'scalar' space, not 'r2'"),
        ("Exp", " BOGUS ", "function 'Exp' lives in the 'scalar' space, not ' BOGUS '"),
        ("matrix_path", "", "function 'matrix_path' lives in the 'm22' space, not ''"),
        (" Const ", " BOGUS ", "unknown space 'bogus'; available: c2, m22, r2, r3, r3max, scalar"),
    ])
    def test_error_messages(self, name, label, message):
        with pytest.raises(ValueError) as info:
            make_function(name, label)
        assert str(info.value) == message


class TestLinearCombination:
    def test_simple(self):
        r2 = SPACES["r2"]
        out = linear_combination(
            r2, [(2.0, np.array([1.0, 0.0])), (3.0, np.array([0.0, 1.0]))]
        )
        assert out.tolist() == [2.0, 3.0]

    def test_empty_returns_zero(self):
        assert linear_combination(SPACES["scalar"], []) == 0.0
        assert np.array_equal(linear_combination(SPACES["r3"], []), np.zeros(3))

    def test_deterministic(self):
        m22 = SPACES["m22"]
        rng = np.random.default_rng(99)
        terms = [(float(rng.uniform(-1, 1)), random_element(m22, rng)) for _ in range(40)]
        first = linear_combination(m22, terms)
        second = linear_combination(m22, terms)
        assert np.array_equal(first, second)

    def test_rejects_foreign_elements(self):
        with pytest.raises(ValueError, match="not an element"):
            linear_combination(SPACES["r2"], [(1.0, np.zeros(3))])


class TestVectorFunction:
    def test_analytic_derivative_preferred(self):
        scalar = SPACES["scalar"]
        fn = VectorFunction(
            space=scalar,
            f=math.sin,
            df=math.cos,
            fd_step=1e-2,  # coarse on purpose; must not be used
            name="sin",
        )
        assert fn.df_at(0.3) == math.cos(0.3)

    def test_finite_difference_fallback(self):
        scalar = SPACES["scalar"]
        fn = VectorFunction(space=scalar, f=math.sin, fd_step=1e-5, name="sin")
        assert fn.has_derivative_source
        assert fn.df_at(0.3) == pytest.approx(math.cos(0.3), abs=1e-9)

    def test_finite_difference_vector_valued(self):
        r2 = SPACES["r2"]
        fn = VectorFunction(
            space=r2,
            f=lambda t: np.array([t * t, math.exp(t)]),
            fd_step=1e-5,
        )
        d = fn.df_at(0.5)
        assert d == pytest.approx(np.array([1.0, math.exp(0.5)]), abs=1e-8)

    def test_no_derivative_source(self):
        fn = VectorFunction(space=SPACES["scalar"], f=math.sin, name="bare")
        assert not fn.has_derivative_source
        with pytest.raises(ValueError, match="no derivative source"):
            fn.df_at(0.0)

    def test_nonfinite_derivative_rejected(self):
        fn = VectorFunction(
            space=SPACES["scalar"],
            f=lambda t: t,
            df=lambda t: float("nan"),
            name="broken",
        )
        with pytest.raises(ValueError, match="nonfinite"):
            fn.df_norms(np.array([0.5]))

    def test_df_norm(self):
        fn = VectorFunction(
            space=SPACES["r2"],
            f=lambda t: np.array([t, t]),
            df=lambda t: np.array([3.0, 4.0]),
        )
        assert fn.df_norms(np.array([0.0])).tolist() == [5.0]

    def test_bad_fd_step_rejected(self):
        for bad in (0.0, -1e-5, float("nan")):
            with pytest.raises(ValueError):
                VectorFunction(space=SPACES["scalar"], f=math.sin, fd_step=bad)


class TestBatchedNorms:
    @pytest.mark.parametrize("label", sorted(SPACES))
    def test_rows_equal_the_per_element_norm(self, label):
        # in-range rows keep the bits of the formulas used before batching
        space = SPACES[label]
        rng = np.random.default_rng(7)
        stack = np.array([
            space.from_flat(rng.standard_normal(space.flat_dim) * 10.0 ** rng.uniform(-8, 8))
            for _ in range(2000)
        ])
        norms = space.norms(stack)
        assert norms.shape == (len(stack),)
        expected = [reference_norm(space, x) for x in stack]
        assert norms.tolist() == expected
        assert [space.norm(x) for x in stack] == expected

    @pytest.mark.parametrize("label", sorted(SPACES))
    def test_rows_of_any_layout_equal_the_norm(self, label):
        # broadcast stacks (stride 0, as const and affine return them),
        # row-strided and component-major stacks, and rows holding nan, -0.0,
        # inf and entries far outside the square range give norm's bits row by row
        space = SPACES[label]
        rng = np.random.default_rng(23)
        d = space.flat_dim
        odd = [[math.nan] + [1.0] * (d - 1), [-0.0] * d, [math.inf] + [math.nan] * (d - 1),
               [-0.0, math.nan][:d] + [-2.0] * (d - 2), [1e300] + [-0.0] * (d - 1),
               [-5e-324] * d, [1.0] * (d - 1) + [math.nan]]
        elements = [space.from_flat(c) for c in odd] + [
            space.from_flat(rng.standard_normal(d) * 10.0 ** rng.uniform(-200, 200))
            for _ in range(1200)]
        stack = np.array(elements)
        wide = np.repeat(stack, 3, axis=0)[::3]  # rows three apart in memory
        columns = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)
        assert not wide.flags.c_contiguous
        layouts = [stack, wide, columns] + [
            np.broadcast_to(x, (5,) + np.shape(x)) for x in elements[:len(odd) + 3]]
        for layout in layouts:
            expected = [space.norm(x).hex() for x in layout]
            assert [v.hex() for v in space.norms(layout).tolist()] == expected

    def test_transposed_elements_equal_the_norm(self):
        # each element's entries out of C order in memory: norm takes them
        # in C order, as norms does, not in the order they are stored
        space = SPACES["m22"]
        stack = np.swapaxes(np.random.default_rng(0).standard_normal((2000, 2, 2)), 1, 2)
        assert not stack[0].flags.c_contiguous
        expected = [space.norm(x).hex() for x in stack]
        assert [v.hex() for v in space.norms(stack).tolist()] == expected
        assert expected == [space.norm(np.ascontiguousarray(x)).hex() for x in stack]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("label", ["r2", "r3", "c2", "m22"])
    @pytest.mark.parametrize("size", [1e155, 1e300, 1e-160, 5e-324])
    def test_norm_past_the_square_range(self, label, size):
        # squares of these entries overflow or underflow; the norm does not
        space = SPACES[label]
        coords = [size * (1.0 + 0.5 * j) for j in range(space.flat_dim)]
        x = space.from_flat(coords)
        exact = mpmath.sqrt(mpmath.fsum(mpmath.mpf(c) ** 2 for c in coords))
        value = space.norm(x)
        assert abs(value - float(exact)) <= 2 * math.ulp(float(exact))
        # huge, tiny, zero, nonfinite and ordinary rows side by side
        stack = np.array([x, space.zero(), 2.0 * x, space.from_flat([1.0] * space.flat_dim),
                          space.from_flat([np.inf] + [1.0] * (space.flat_dim - 1))])
        assert space.norms(stack).tolist() == [space.norm(row) for row in stack]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label,entries", [
        # an infinite entry beside a finite one whose square overflows
        ("c2", [complex(1.46484375e308, -math.inf), complex(math.inf, -math.inf)]),
        ("r2", [1.5e308, -math.inf]),
        # finite entries whose norm passes the float range
        ("c2", [5.8e307 - 7.8e307j, 9.7e307 - 1.2e308j]),
        ("r3", [1.5e308, -1.5e308, 1e308]),
    ])
    def test_overflowing_norm_is_inf_without_a_warning(self, label, entries):
        space = SPACES[label]
        x = np.array(entries)
        assert space.norm(x) == math.inf
        assert space.norms(np.array([x, space.zero(), x])).tolist() == [math.inf, 0.0, math.inf]

    def test_far_rows_scale_by_powers_of_two(self):
        # scaling a row by 2**k moves its norm by exactly 2**k, across the
        # range where the squares would overflow or underflow
        space = SPACES["r3"]
        x = np.array([0.1, -0.7, 1.0 / 3.0])
        base = space.norm(x)
        for k in (-1000, -600, -520, 520, 600, 1000):
            assert space.norm(np.ldexp(x, k)) == math.ldexp(base, k)
