"""The batched Simpson folds against one-addition-at-a-time references:
the oracle's blocked element fold, and the derivative sampling behind the
L1/Lp and sampled sup seminorms and level 1."""

import math
import re

import mpmath
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
from certquad._simpson import ROW, SAMPLE_CHUNK, sample_points, samples, simpson_element
from certquad.seminorms import segment_seminorms
from helpers import (
    _reference_seminorm,
    df_norm_at,
    n_gamma,
    reference_f_many,
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
# exactly one chunk at SAMPLE_CHUNK panels, and spill one sample into a
# second at SAMPLE_CHUNK + 1
PANELS = [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1]
# panels P take P odd and P - 1 even samples: batches shorter than a row,
# exactly one row, a short last row of one sample, two rows and one, and
# three batches of which the last holds one sample
ROW_PANELS = [2, ROW - 1, ROW, ROW + 1, 2 * ROW + 1, 2 * SAMPLE_CHUNK + 1]


def _interval(name, a, b):
    # keep exp clear of overflow on the shifted interval
    return (a * 1e-2, b * 1e-2) if name == "exp" else (a, b)


def _equal(x, y) -> bool:
    # bytes, not values: a signed zero counts
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


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


@pytest.mark.parametrize("name,label", REGISTRY)
def test_blocked_sum_at_row_and_batch_edges(name, label):
    fn = make_function(name, label)
    a, b = _interval(name, -40.0, 30.0)
    for panels in ROW_PANELS:
        points, h = simpson_points(a, b, panels)
        expected = simpson_fold(fn.space, list(fn.f_many(np.array(points))), h)
        assert _equal(simpson_element(fn.space, fn.f_many, a, b, panels), expected), panels


@pytest.mark.parametrize("name,label", [
    ("exp", None), ("trig_circle", None), ("poly_r3", None), ("affine", "c2"), ("matrix_path", None),
])
def test_oracle_resolution_matches_reference_fold(name, label):
    # the oracle's own 65,536 panels, sixteen full batches per parity, in
    # each element shape and dtype; every cell is compared at the smaller
    # counts above
    fn = make_function(name, label)
    points, h = simpson_points(0.0, 1.0, 65536)
    expected = simpson_fold(fn.space, list(fn.f_many(np.array(points))), h)
    assert _equal(simpson_element(fn.space, fn.f_many, 0.0, 1.0, 65536), expected)


@pytest.mark.parametrize("label,panels", [
    ("scalar", ROW + 1), ("r2", ROW + 1), ("r2", 2 * SAMPLE_CHUNK + 1), ("scalar", 65536),
])
def test_fold_error_within_its_gamma_bound(label, panels):
    # an oscillating integrand cancels, so the rounding of the sum shows;
    # each sample passes through at most k additions (rows, columns,
    # batches, and the two of the Simpson formula), and the two roundings
    # of h/3 and its product add two more: |result - (h/3) S| <= gamma_{k+2}
    # (h/3) sum |w x|, with S and sum |w x| exact in mpmath
    def g(ts):
        wave = np.cos(ts * 1e5) * (1.0 + ts)
        return wave if label == "scalar" else np.array([wave, np.sin(ts * 7e4)]).T

    a, b = 0.0, 1.0
    points, h = simpson_points(a, b, panels)
    samples = np.reshape(g(np.array(points)), (len(points), -1)).T
    result = np.reshape(simpson_element(SPACES[label], g, a, b, panels), -1)
    weights = [1] + [4 if k % 2 else 2 for k in range(1, 2 * panels)] + [1]
    count = min(panels, SAMPLE_CHUNK)
    rows = -(-count // ROW)
    k = (rows - 1) + (min(count, ROW) - 1) + -(-panels // SAMPLE_CHUNK) + 2
    # at 65,536 panels k + 2 = 63 rows + 63 columns + 16 batches + 2 + 2 = 146,
    # where one addition at a time gave 131,072 + 2
    assert k + 2 <= 146
    with mpmath.workprec(2200):  # every double and every sum of them exactly
        third = mpmath.mpf(h) / 3
        for row, got in zip(samples, result):
            terms = [w * mpmath.mpf(x) for w, x in zip(weights, row.tolist())]
            exact = third * mpmath.fsum(terms)
            size = third * mpmath.fsum(abs(t) for t in terms)
            error = abs(mpmath.mpf(float(got)) - exact)
            # the rounding shows, and stays inside the bound
            assert 0 < error <= n_gamma(k + 2) * size


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


# -- the oracle fold: batches in any layout, read and never written --------


def _layout(values, layout):
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "broadcast":  # stride 0 along the sample axis
        return np.broadcast_to(values[:1], values.shape)
    if layout == "reversed":  # a negative stride along the sample axis
        return values[::-1].copy()[::-1]
    values = values.copy()
    values.setflags(write=False)
    return values


@pytest.mark.parametrize("name,label,layout", [
    ("matrix_path", None, "fortran"),
    ("trig_circle", None, "broadcast"),
    ("poly_r3", None, "readonly"),
    ("affine", "c2", "fortran"),
    ("affine", "c2", "readonly"),
    ("exp", None, "broadcast"),
])
def test_user_batches_in_any_layout_are_only_read(name, label, layout):
    base = make_function(name, label)
    returned = []

    def f_many(ts):
        values = _layout(base.f_many(ts), layout)
        returned.append((ts.copy(), values, values.copy()))
        return values

    a, b = 0.25, 2.0
    for panels in PANELS:
        returned.clear()
        out = simpson_element(base.space, f_many, a, b, panels)
        rows = {}
        for ts, values, before in returned:
            # a writable batch is as it was returned; a read-only one
            # would have raised on a write
            assert _equal(values, before), (layout, panels)
            rows.update(zip(ts.tolist(), values))
        points, h = simpson_points(a, b, panels)
        assert _equal(out, simpson_fold(base.space, [rows[t] for t in points], h)), panels


@pytest.mark.parametrize("name,label", [
    ("matrix_path", None), ("trig_circle", None), ("poly_r3", None), ("affine", "c2"), ("exp", None),
])
def test_every_layout_gives_the_same_bytes(name, label):
    # full batches of 64 x 64 samples, in every layout, against the same
    # values in C order
    base = make_function(name, label)
    a, b = 0.25, 2.0
    for panels in (ROW + 1, 2 * SAMPLE_CHUNK + 1):
        for layout in ("fortran", "broadcast", "reversed", "readonly"):
            def f_many(ts, layout=layout):
                return _layout(base.f_many(ts), layout)

            def c_order(ts, layout=layout):
                return np.ascontiguousarray(_layout(base.f_many(ts), layout))

            out = simpson_element(base.space, f_many, a, b, panels)
            assert _equal(out, simpson_element(base.space, c_order, a, b, panels)), layout
            assert _equal(out, simpson_element(base.space, f_many, a, b, panels)), layout
            if layout != "broadcast":  # the same values as f_many's own
                assert _equal(out, simpson_element(base.space, base.f_many, a, b, panels))


@pytest.mark.parametrize("label", ["scalar", "r2"])
@pytest.mark.parametrize("bad,named", [
    ((2.0,), 2.0),  # the right end comes before every inner point
    ((1, 2 * SAMPLE_CHUNK + 1), 1),  # two batches of odd points: the first
    ((2, 4 * SAMPLE_CHUNK + 1), 4 * SAMPLE_CHUNK + 1),  # odd points before even ones
    ((2 * (40 * ROW + 5) + 1, 2 * (3 * ROW + 40) + 1), 2 * (3 * ROW + 40) + 1),  # one batch
])
def test_first_nonfinite_sample_in_sampling_order_is_named(label, bad, named):
    # ``bad`` lists sample indices k (or the float 2.0, the right end b) of
    # nonfinite samples; the first in sampling order is named: the ends,
    # then the odd points ascending, then the even points ascending
    panels = 2 * SAMPLE_CHUNK + 1
    points, _ = simpson_points(0.0, 2.0, panels)
    bad_ts = [k if isinstance(k, float) else points[k] for k in bad]
    t_named = named if isinstance(named, float) else points[named]

    def f_many(ts):
        values = np.where(np.isin(ts, bad_ts), np.inf, ts)
        return values if label == "scalar" else np.array([ts, values]).T

    with pytest.raises(ValueError, match=f"^nonfinite sample at t={t_named!r}$"):
        simpson_element(SPACES[label], f_many, 0.0, 2.0, panels)


@pytest.mark.parametrize("label", ["scalar", "r2"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("overflowed", [False, True])
def test_nonfinite_sample_in_a_later_batch_names_its_point(label, bad, overflowed):
    # the point opens the second batch of odd samples; with ``overflowed``
    # the running sum is already inf from finite samples before it
    panels = 2 * SAMPLE_CHUNK
    points, _ = simpson_points(0.0, 1.0, panels)
    t_bad = points[2 * SAMPLE_CHUNK + 1]
    calls = []

    def f_many(ts):
        calls.append(len(ts))
        good = np.full(len(ts), 1e308) if overflowed else ts
        values = np.where(ts == t_bad, bad, good)
        return values if label == "scalar" else np.array([good, values]).T

    with pytest.raises(ValueError, match=f"^nonfinite sample at t={t_bad!r}$"):
        simpson_element(SPACES[label], f_many, 0.0, 1.0, panels)
    # the ends, the first odd batch, and the batch holding the point
    assert calls == [2, SAMPLE_CHUNK, SAMPLE_CHUNK]


@pytest.mark.parametrize("label", ["scalar", "r2"])
def test_oracle_redoes_a_raising_batch_point_by_point(label):
    # f_many raises one error on any batch holding a point in (0.6, 0.7)
    # and another, naming it, on each such point alone: the oracle raises
    # the first failing point's own error, in sampling order (the ends,
    # then the odd points), as every other sampler does
    base = make_function("affine", label)
    panels = 2 * SAMPLE_CHUNK + 1
    points, _ = simpson_points(0.0, 1.0, panels)
    first = next(points[k] for k in range(1, 2 * panels, 2) if 0.6 < points[k] < 0.7)
    calls = []

    def f_many(ts):
        calls.append(len(ts))
        bad = (0.6 < ts) & (ts < 0.7)
        if bad.any():
            if len(ts) > 1:
                raise RuntimeError("the batch failed")
            raise ArithmeticError(f"failed at {float(ts[0])!r}")
        return base.f_many(ts)

    with pytest.raises(ArithmeticError, match=f"^failed at {re.escape(repr(first))}$"):
        simpson_element(base.space, f_many, 0.0, 1.0, panels)
    # the ends, the first odd batch, the second, which holds the point,
    # then the second one point at a time up to the failing one
    j = (points.index(first) - 1) // 2  # the point's place among the odd ones
    assert calls == [2, SAMPLE_CHUNK, SAMPLE_CHUNK, *[1] * (j - SAMPLE_CHUNK + 1)]


def test_exp_derivative_overflows_to_inf():
    # past the float range exp's df, df_many and df_sup are inf, as its f
    # is; batches that do not overflow keep math.exp's bits
    fn = make_function("exp")
    ts = np.array([-1.0, 0.5, 709.0, 710.0, 1e308])
    assert fn.df(710.0) == math.inf and fn.df_sup(0.0, 800.0) == math.inf
    assert [fn.df_sup(0.0, hi) for hi in (708.9, 709.0, 709.5)] == [
        math.exp(hi) for hi in (708.9, 709.0, 709.5)]
    assert fn.df_many(ts).tolist() == [math.exp(-1.0), math.exp(0.5), math.exp(709.0),
                                       math.inf, math.inf]
    assert fn.df_many(ts[:3]).tolist() == [math.exp(t) for t in ts[:3].tolist()]
    with pytest.raises(ValueError, match=r"^nonfinite derivative sample for exp at t=710\.0$"):
        fn.df_norms(ts)


def _edge_points() -> np.ndarray:
    """21,010 points: signed zeros, subnormals, the square and float range
    edges, and random values over every scale."""
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2e-308, 1e-300,
               0.5, -1.0, 1e155, -1e155, 1e308, -1e308]
    wide = np.exp(rng.uniform(-700.0, 700.0, 6997)) * rng.choice([-1.0, 1.0], 6997)
    return np.concatenate([special, rng.uniform(-10.0, 10.0, 7000),
                           rng.standard_normal(7000) * 1e3, wide])


@pytest.mark.parametrize("name,label", [
    (name, label) for name, label in REGISTRY
    if name in ("affine", "trig_circle", "poly_r3", "matrix_path")
])
def test_registry_f_many_keeps_the_stacked_bytes(name, label):
    # the component-major forms compute each entry with the same IEEE
    # operations as the stacked ones, so the bytes agree
    fn = make_function(name, label)
    ts = _edge_points()
    with np.errstate(over="ignore"):
        assert _equal(fn.f_many(ts), reference_f_many(fn, ts))


@pytest.mark.parametrize("name,label", REGISTRY)
def test_registry_f_is_a_row_of_f_many(name, label):
    # f(t) is row 0 of f_many([t]), and row k of f_many(ts) is f(ts[k]), bit
    # for bit: the rule pass samples through f_many, one-point callers through f
    fn = make_function(name, label)
    ts = _edge_points()
    with np.errstate(over="ignore"):
        ones = np.array([fn.f_many(np.array([t]))[0] for t in ts.tolist()])
        singles = np.array([fn.f(t) for t in ts.tolist()])
        batch = fn.f_many(ts)
    assert _equal(singles, ones)
    assert _equal(batch, ones)
    if fn.space.label == "scalar":
        assert all(type(fn.f(t)) is float for t in ts[:20].tolist())


def test_sample_points_when_the_length_overflows():
    # finite lengths keep a + k*h; an overflowing one forms the points as
    # uniform_partition does, so every point and the step stay finite
    k = np.arange(17)
    for a, b in [(0.1, 0.7), (-40.0, 30.0), (-1e307, 1e307)]:
        h, points = sample_points(a, b, 16)
        assert h == (b - a) / 16 and points(k).tolist() == [a + j * h for j in range(17)]
    h, points = sample_points(-1e308, 1e308, 16)
    ts = points(k)
    assert h == 1.25e307 and np.isfinite(ts).all()
    assert ts[0] == -1e308 and ts[8] == 0.0 and ts[16] == 1e308
    assert (np.diff(ts) > 0).all()


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
# batches of SAMPLE_CHUNK points break inside the sample rows at these;
# the last gives three batches, the third of one point
RESOLUTIONS = [2, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 1]
# level 1 integrates its pieces with the same simpson_scalar fold, whose
# batch boundaries the seminorm rows check at every resolution above; its
# per-sample reference is the slowest in the suite, so it takes fewer
LEVEL1_RESOLUTIONS = [2, SAMPLE_CHUNK - 1, SAMPLE_CHUNK + 1]
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
    for resolution in LEVEL1_RESOLUTIONS if estimator == "level1" else RESOLUTIONS:
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
        # bit for bit, L1 included, whose integrand skips the per-sample ** 1.0
        reference = _reference_seminorm(fn, lo, hi, regime, resolution)[0]
        assert values[0].hex() == reference.hex(), resolution


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
    assert samples(g, np.array([0.0, 0.5, 1.0])).tolist() == [np.inf, 1.0, 2.0]
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
