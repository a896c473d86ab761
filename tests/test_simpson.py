"""The batched Simpson oracle against a one-sample-at-a-time reference fold."""

import numpy as np
import pytest

from certquad import SPACES, VectorFunction, make_function
from certquad._simpson import SAMPLE_CHUNK, simpson_element
from helpers import simpson_fold, simpson_points

# every registry function; const and affine in every space
REGISTRY = [
    (name, label) for name in ("const", "affine") for label in SPACES
] + [
    (name, None)
    for name in ("quadratic", "exp", "trig_circle", "poly_r3", "matrix_path", "abs_kink")
]

INTERVALS = [(0.0, 1.0), (1e3, 1e3 + 0.5), (-40.0, 30.0)]

# one panel, and panel counts around the chunk size: the odd samples fill
# exactly one chunk at SAMPLE_CHUNK panels
PANELS = [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1]


def _interval(name, a, b):
    # keep exp clear of overflow on the shifted interval
    return (a * 1e-2, b * 1e-2) if name == "exp" else (a, b)


def _equal(x, y) -> bool:
    return np.array_equal(np.asarray(x), np.asarray(y))


@pytest.mark.parametrize("name,label", REGISTRY)
def test_batched_matches_reference_fold(name, label):
    fn = make_function(name, label)
    for a, b in INTERVALS:
        a, b = _interval(name, a, b)
        for panels in PANELS:
            out = simpson_element(fn.space, fn.f_many, a, b, panels)
            points, h = simpson_points(a, b, panels)
            # same samples, folded one at a time: equal bit for bit
            batch = fn.f_many(np.array(points))
            assert _equal(out, simpson_fold(fn.space, list(batch), h)), (a, b, panels)
            # per-sample fn.f: equal up to the rounding of the numpy forms
            per_sample = simpson_fold(fn.space, [fn.f(t) for t in points], h)
            diff = fn.space.norm(fn.space.subtract(out, per_sample))
            assert diff <= 1e-13 * fn.space.norm(per_sample), (a, b, panels)
            if fn.space.label == "scalar":
                assert type(out) is float


@pytest.mark.parametrize("name,label", [("trig_circle", None), ("affine", "c2"), ("exp", None)])
def test_user_function_without_f_many_uses_fallback(name, label):
    registry = make_function(name, label)
    calls = []

    def f(t):
        calls.append(t)
        return registry.f(t)

    user = VectorFunction(space=registry.space, f=f)
    for panels in PANELS:
        calls.clear()
        out = simpson_element(user.space, user.f_many, 0.25, 2.0, panels)
        points, h = simpson_points(0.25, 2.0, panels)
        assert sorted(calls) == sorted(points)
        assert _equal(out, simpson_fold(user.space, [registry.f(t) for t in points], h))


def test_fallback_returns_stacked_float_rows():
    ints = VectorFunction(space=SPACES["scalar"], f=lambda t: 3)
    out = ints.f_many(np.array([0.0, 1.0]))
    assert out.dtype == np.float64 and out.shape == (2,)
    mats = VectorFunction(space=SPACES["m22"], f=lambda t: np.full((2, 2), t))
    assert mats.f_many(np.array([0.0, 1.0, 2.0])).shape == (3, 2, 2)


def test_degenerate_interval_is_zero():
    fn = make_function("trig_circle")
    assert _equal(simpson_element(fn.space, fn.f_many, 1.0, 1.0, 8), np.zeros(2))


def test_wrong_row_count_rejected():
    fn = VectorFunction(space=SPACES["r2"], f=lambda t: np.zeros(2),
                        f_many=lambda ts: np.zeros(2))
    with pytest.raises(ValueError, match=r"expected \(2, 2\)"):
        simpson_element(fn.space, fn.f_many, 0.0, 1.0, 4)


def test_nonfinite_sample_names_its_point():
    fn = VectorFunction(space=SPACES["scalar"], f=lambda t: np.nan if t == 0.5 else t)
    with pytest.raises(ValueError, match=r"nonfinite sample at t=0\.5"):
        simpson_element(fn.space, fn.f_many, 0.0, 1.0, 2)
