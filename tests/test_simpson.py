"""The batched Simpson folds against one-sample-at-a-time references: the
oracle's element fold, and the derivative sampling behind the L1/Lp and
sampled sup seminorms and level 1."""

import numpy as np
import pytest

from certquad import (
    L1,
    LINF,
    SPACES,
    Interval,
    VectorFunction,
    bound_level1,
    lp,
    make_function,
    preset,
)
from certquad._simpson import SAMPLE_CHUNK, sample_batch, simpson_element
from certquad.seminorms import segment_seminorms
from helpers import (
    _reference_seminorm,
    df_norm_at,
    reference_level1,
    simpson_fold,
    simpson_points,
)

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


# -- batched derivative sampling against the one-sample-at-a-time path ----


def _user(name, how):
    """A registry function rewrapped with only ``df`` or only ``fd_step``,
    so that ``df_many`` is the per-point fallback; no sup-envelope."""
    fn = make_function(name)
    if how == "df":
        return VectorFunction(space=fn.space, f=fn.f, df=fn.df, name="user_df")
    return VectorFunction(space=fn.space, f=fn.f, fd_step=1e-5, name="user_fd")


def _no_envelope(fn):
    return VectorFunction(space=fn.space, f=fn.f, df=fn.df, fd_step=fn.fd_step,
                          name=fn.name, f_many=fn.f_many, df_many=fn.df_many)


DERIVATIVE_FUNCTIONS = REGISTRY + [("trig_circle", "df"), ("exp", "fd")]
ESTIMATORS = ["l1", "lp1.5", "lp4", "linf_sampled", "level1"]
# batches of SAMPLE_CHUNK points break inside the sample rows at these
RESOLUTIONS = [2, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 4 * SAMPLE_CHUNK]
REGIMES = {"l1": L1, "lp1.5": lp(1.5), "lp4": lp(4.0), "linf_sampled": LINF}


def _function(name, label):
    if label in ("df", "fd"):
        return _user(name, label)
    return make_function(name, label)


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("name,label", DERIVATIVE_FUNCTIONS)
def test_batched_derivatives_match_per_sample_path(name, label, estimator):
    fn = _function(name, label)
    lo, hi = -0.7, 1.3
    for resolution in RESOLUTIONS:
        if estimator == "level1":
            interval = Interval(lo, hi)
            cert = bound_level1(fn, preset("simpson"), interval, resolution)
            bound, contribs = reference_level1(fn, preset("simpson"), interval, resolution)
            assert (cert.bound, cert.segment_contributions) == (bound, contribs), resolution
            continue
        regime = REGIMES[estimator]
        if regime is LINF:
            fn = _no_envelope(fn)
        values, _ = segment_seminorms(fn, regime, [lo], [hi], resolution)
        assert values[0] == _reference_seminorm(fn, lo, hi, regime, resolution)[0], resolution


def _failure(call):
    try:
        call()
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    return None


def _both_paths(fn, estimator, lo=0.0, hi=1.0, resolution=SAMPLE_CHUNK):
    if estimator == "level1":
        interval = Interval(lo, hi)
        return (_failure(lambda: bound_level1(fn, preset("qt"), interval, resolution)),
                _failure(lambda: reference_level1(fn, preset("qt"), interval, resolution)))
    regime = REGIMES[estimator]
    return (_failure(lambda: segment_seminorms(fn, regime, [lo], [hi], resolution)),
            _failure(lambda: _reference_seminorm(fn, lo, hi, regime, resolution)))


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_nonfinite_derivative_names_the_same_point(estimator):
    # nan on a window of grid points, odd and even ones, inside one batch
    fn = VectorFunction(space=SPACES["r2"], f=lambda t: np.array([t, t]),
                        df=lambda t: np.array([np.nan if 0.6 < t < 0.61 else 1.0, t]),
                        name="holey")
    batched, reference = _both_paths(fn, estimator)
    assert batched == reference
    assert batched[0] is ValueError and "nonfinite derivative sample for holey at t=0.6" in batched[1]


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("raising_first", [False, True])
@pytest.mark.parametrize("batched_hook", [False, True])
def test_error_mid_batch_is_the_per_sample_one(estimator, raising_first, batched_hook):
    # nan near 0.3 and a raising df near 0.7 (or the other way round): both
    # sit in one batch, and the per-sample path meets the lower one first
    bad, boom = (0.7, 0.3) if raising_first else (0.3, 0.7)

    def df(t):
        if boom < t < boom + 0.01:
            raise ZeroDivisionError(f"df fails at {t!r}")
        return np.nan if bad < t < bad + 0.01 else 2.0 * t

    def df_many(ts):
        # a native batched hook: it fails as a whole, naming its first
        # failing point, before any sample is taken
        hit = (boom < ts) & (ts < boom + 0.01)
        if hit.any():
            raise ZeroDivisionError(f"df fails at {float(ts[hit][0])!r}")
        return np.array([df(t) for t in ts.tolist()])

    fn = VectorFunction(space=SPACES["scalar"], f=lambda t: t * t, df=df,
                        df_many=df_many if batched_hook else None, name="flaky")
    batched, reference = _both_paths(fn, estimator)
    assert batched == reference
    assert batched[0] is (ZeroDivisionError if raising_first else ValueError)


def test_df_many_rows_are_df_samples():
    ts = np.linspace(-3.0, 3.0, 2 * SAMPLE_CHUNK + 1)
    for name, label in REGISTRY:
        fn = make_function(name, label)
        rows = fn.df_many(ts)
        assert rows.shape == (len(ts),) + np.shape(fn.space.zero()), name
        for t, row in zip(ts.tolist(), rows):
            assert np.array_equal(row, fn.df(t)), (name, label, t)
        assert fn.df_norms(ts).tolist() == [df_norm_at(fn, t) for t in ts.tolist()]


def test_fallback_samples_df_once_per_point():
    calls = []

    def df(t):
        calls.append(t)
        return 3  # an int sample comes back as a float row
    fn = VectorFunction(space=SPACES["scalar"], f=lambda t: 3 * t, df=df)
    out = fn.df_many(np.array([0.5, 0.25]))
    assert calls == [0.5, 0.25] and out.dtype == np.float64 and out.tolist() == [3.0, 3.0]


def test_nonfinite_batch_that_raises_nothing_is_kept():
    # an integrand that overflows without raising is sampled once per batch
    calls = []

    def g(ts):
        calls.append(len(ts))
        return np.array([np.inf, 1.0, 2.0])
    assert sample_batch(g, np.array([0.0, 0.5, 1.0])).tolist() == [np.inf, 1.0, 2.0]
    assert calls == [3]


def test_level1_overflow_samples_each_batch_once():
    # |t - c| * norm(2t) overflows on [-1e200, 1e200]: the bound is inf, and
    # each Simpson integral calls df_many on its two ends and then on its
    # odd and even points a chunk at a time, never once per point
    base = make_function("quadratic")
    calls = []

    def df_many(ts):
        calls.append(len(ts))
        return base.df_many(ts)
    fn = VectorFunction(space=base.space, f=base.f, df=base.df, df_many=df_many)
    resolution = 4 * SAMPLE_CHUNK
    cert = bound_level1(fn, preset("qt"), Interval(-1e200, 1e200), resolution)
    assert cert.bound == np.inf
    # qt's three pieces, the middle one split at its centre: four integrals
    assert calls == [2, *[SAMPLE_CHUNK] * 4, *[SAMPLE_CHUNK] * 3, SAMPLE_CHUNK - 1] * 4
