"""The batched Simpson folds against one-addition-at-a-time references:
the oracle's blocked element fold, and the derivative sampling behind the
L1/Lp and sampled sup seminorms and level 1."""

import dataclasses
import math
import re
import sys

import mpmath
import numpy as np
import pytest

from certquad import (
    L1,
    LINF,
    SPACES,
    Interval,
    VectorFunction,
    apply_rule,
    bound_level1,
    integrate_adaptive,
    integrate_composite,
    lp,
    make_function,
    preset,
    seminorm,
    uniform_partition,
)
from certquad import functions
from certquad._simpson import ROW, SAMPLE_CHUNK, sample_points, samples, simpson_element, simpson_rows
from certquad.bounds import _level1_rows
from certquad.geometry import _powers
from certquad.seminorms import segment_seminorms
from helpers import (
    _reference_pow,
    _reference_seminorm,
    df_norm_at,
    n_gamma,
    reference_f_many,
    reference_forms,
    reference_function,
    reference_level1,
    reference_simpson_scalar,
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


# signed zeros, subnormals, the float range's edges, nan, infinities and
# exp's overflow threshold, for the registry's forms
EXTREME_POINTS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf,
                  709.782712893384, math.nextafter(709.782712893384, math.inf), 710.0]


def _same_form(derived, reference, *args) -> bool:
    """``derived(*args)`` has the bytes, type, dtype and shape of
    ``reference(*args)``, or raises the same error."""
    try:
        y = reference(*args)
    except Exception as exc:  # the type and text are what is compared
        return _failure(lambda: derived(*args)) == (type(exc), str(exc))
    x = derived(*args)
    return type(x) is type(y) and _equal(x, y)


@pytest.mark.parametrize("name,label", REGISTRY)
def test_registry_builders_write_only_batched_forms(name, label):
    # make_function derives f, df and df_sup; no builder writes them by hand
    forms, natural, _ = functions._FUNCTIONS[name]
    assert set(forms(SPACES[label or natural])) == {"f_many", "df_many", "df_sup_many"}


@pytest.mark.parametrize("name,label", REGISTRY)
def test_batched_matches_reference_fold(name, label):
    fn = reference_function(name, label)
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
    registry = reference_function(name, label)
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
    # is; batches that do not overflow keep math.exp's bits.  Below it the
    # envelope lies at or above e^hi, within its margin: np.exp, within
    # 0.68 ulp, times 1 + 2**-50, rounded to nearest
    fn = make_function("exp")
    ts = np.array([-1.0, 0.5, 709.0, 710.0, 1e308])
    assert fn.df(710.0) == math.inf and fn.df_sup(0.0, 800.0) == math.inf
    with mpmath.workprec(200):
        for hi in (708.9, 709.0, 709.5, 709.782712893384):
            exact = mpmath.exp(hi)
            assert exact <= fn.df_sup(0.0, hi) <= exact * (1 + mpmath.mpf(2)**-50) * (
                1 + mpmath.mpf(2)**-51)
    assert fn.df_many(ts).tolist() == [math.exp(-1.0), math.exp(0.5), math.exp(709.0),
                                       math.inf, math.inf]
    assert fn.df_many(ts[:3]).tolist() == [math.exp(t) for t in ts[:3].tolist()]
    with pytest.raises(ValueError, match=r"^nonfinite derivative sample for exp at t=710\.0$"):
        fn.df_norms(ts)


def _envelope_segments() -> tuple[np.ndarray, np.ndarray]:
    """Seeded segments ``[lo, hi]`` over every scale: degenerate ones, signed
    zeros, subnormals, the whole float range, infinite ends, [1e15, 1e15 + 1]
    and exp past 709.78."""
    rng = np.random.default_rng(18)
    special = [(0.0, 0.0), (0.7, 0.7), (800.0, 800.0), (-1e308, 1e308), (1e15, 1e15 + 1.0),
               (709.0, 709.78), (709.5, 709.8), (700.0, 1e3), (-3.0, -1.0), (1e154, 1e155),
               (-1e155, 1e77), (-5e-324, 5e-324), (-0.0, 0.0), (-0.0, -0.0), (5e-324, 1e-300),
               (709.782712893384, 710.0), (1e308, 1e308), (-math.inf, math.inf),
               (-math.inf, -1.0), (1.0, math.inf)]
    lo = np.concatenate([[a for a, _ in special], rng.uniform(-10.0, 10.0, 400),
                         -np.exp(rng.uniform(-700.0, 700.0, 200)), rng.uniform(-1e3, 1e3, 50)])
    width = np.concatenate([[b - a for a, b in special], rng.exponential(1.0, 400),
                            np.exp(rng.uniform(-700.0, 700.0, 200)), np.zeros(50)])
    with np.errstate(over="ignore", invalid="ignore"):
        hi = np.minimum(lo + width, 1e308)
    hi[:len(special)] = [b for _, b in special]
    return lo, hi


@pytest.mark.parametrize("name,label", REGISTRY)
def test_registry_df_sup_many_is_df_sup_per_segment(name, label):
    # entry k of the batched envelope is the hand-written df_sup(lo[k],
    # hi[k]), hex for hex, degenerate segments and envelopes past the float
    # range included; the derived df_sup gives the hand-written one's float
    fn = make_function(name, label)
    df_sup = reference_forms(fn)["df_sup"]
    lo, hi = _envelope_segments()
    expected = [float(df_sup(a, b)).hex() for a, b in zip(lo.tolist(), hi.tolist())]
    values = fn.df_sup_many(lo, hi)
    assert values.dtype == np.float64 and values.shape == lo.shape
    assert [v.hex() for v in values.tolist()] == expected
    segments = list(zip(lo.tolist(), hi.tolist()))
    assert all(type(fn.df_sup(a, b)) is float for a, b in segments)
    assert [fn.df_sup(a, b).hex() for a, b in segments] == expected


def _exact_norm(space, x) -> mpmath.mpf:
    """The norm of the element ``x`` of a registry space, in mpmath: the
    largest modulus of its entries in a sup space, else the root of their
    squared moduli."""
    moduli = [mpmath.sqrt(mpmath.mpf(z.real)**2 + mpmath.mpf(z.imag)**2)
              for z in np.ravel(x).tolist()]
    return max(moduli) if getattr(space, "sup", False) else mpmath.sqrt(mpmath.fsum(
        v**2 for v in moduli))


# mpmath's sup of norm(f') on [lo, hi], m = max(|lo|, |hi|): exp, quadratic
# and poly_r3 grow with t or with |t|; the others' norm(f') is constant
_EXACT_SUP = {
    "const": lambda fn, lo, hi, m: mpmath.mpf(0),
    "affine": lambda fn, lo, hi, m: _exact_norm(fn.space, fn.df(0.0)),
    "quadratic": lambda fn, lo, hi, m: 2 * m,
    "exp": lambda fn, lo, hi, m: mpmath.exp(hi),
    "trig_circle": lambda fn, lo, hi, m: mpmath.mpf(1),
    "poly_r3": lambda fn, lo, hi, m: mpmath.sqrt(1 + 4 * m**2 + 9 * m**4),
    "matrix_path": lambda fn, lo, hi, m: mpmath.sqrt(2),
    "abs_kink": lambda fn, lo, hi, m: mpmath.mpf(1),
}


def _sup_cells(name) -> tuple[np.ndarray, np.ndarray]:
    """Seeded cells ``[lo, hi]``: 400 of every scale from 1e-3 to 1e3, some
    degenerate; for exp, 300 more with e^hi past the float range, below its
    least subnormal and in the subnormal range; for poly_r3, 200 more with
    m around 1.16e77, where m**4 overflows, and 200 more with m up to
    1.3e154, past 7.7e153, where 3 m**2 passes the float range."""
    rng = np.random.default_rng(27)
    lo = rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.uniform(-3.0, 3.0, 400)
    hi = lo + np.where(np.arange(400) % 10 == 0, 0.0, rng.exponential(1.0, 400))
    if name == "exp":
        extra = np.concatenate([rng.uniform(709.79, 720.0, 100), rng.uniform(-800.0, -745.14, 100),
                                rng.uniform(-745.13, -708.4, 100), [709.782712893384, -744.5]])
        lo, hi = np.concatenate([lo, extra - 1.0]), np.concatenate([hi, extra])
    elif name == "poly_r3":
        m = np.concatenate([10.0 ** rng.uniform(76.0, 78.0, 200),
                            10.0 ** rng.uniform(78.0, 154.0, 100), rng.uniform(7e153, 1.3e154, 100)])
        sign = np.where(np.arange(400) % 2 == 0, 1.0, -1.0)
        lo, hi = np.concatenate([lo, np.minimum(sign * m, 0.0)]), np.concatenate(
            [hi, np.maximum(sign * m, 1.0)])
    return lo, hi


@pytest.mark.parametrize("name,label", REGISTRY)
def test_registry_envelopes_lie_at_or_above_the_exact_sup(name, label):
    # every envelope, rounded as it is, bounds mpmath's sup of norm(f') on
    # each cell: exp's at the underflow, in the subnormal range and past
    # the float range (inf), poly_r3's where m**4 overflows; and it is
    # finite wherever that sup, lifted by 2**-49, lies below the float
    # maximum, as poly_r3's is where m**4 overflows and 3 m**2 does not
    fn = make_function(name, label)
    lo, hi = _sup_cells(name)
    values = fn.df_sup_many(lo, hi).tolist()
    violations = []
    with mpmath.workprec(200):
        for a, b, value in zip(lo.tolist(), hi.tolist(), values):
            m = max(abs(mpmath.mpf(a)), abs(mpmath.mpf(b)))
            exact = _EXACT_SUP[name](fn, mpmath.mpf(a), mpmath.mpf(b), m)
            representable = exact * (1 + mpmath.mpf(2) ** -49) < sys.float_info.max
            if not value >= exact or representable and not value < math.inf:
                violations.append((a, b, value))
    assert violations == []


def test_poly_r3_certifies_where_m4_overflows():
    # 9 m**4 overflows past m = 6.7e76; the envelope, about 3 m**2, does not
    result = integrate_composite(make_function("poly_r3"), preset("qt"),
                                 uniform_partition(Interval(0.0, 1e77), 4), LINF)
    assert result.certificate.certified
    assert 3e306 < result.certificate.bound < math.inf


def test_df_sup_many_needs_df_sup():
    with pytest.raises(ValueError, match="^df_sup_many needs df_sup"):
        VectorFunction(space=SPACES["scalar"], f=lambda t: t, df=lambda t: 1.0,
                       df_sup_many=lambda lo, hi: np.ones_like(lo))


def test_replace_rebinds_the_fallbacks():
    # dataclasses.replace passes the fallbacks on as bound to the original;
    # the copy installs its own, which read the copy's one-point forms
    base = make_function("exp")
    user = VectorFunction(space=base.space, f=base.f, df=base.df, df_sup=base.df_sup,
                          name="user")
    iv = Interval(0.0, 1.0)
    assert seminorm(dataclasses.replace(user, df_sup=lambda lo, hi: 5.0), iv, LINF).value == 5.0
    zero = dataclasses.replace(user, f=lambda t: 0.0, df=lambda t: 0.0)
    assert apply_rule(zero, preset("qt"), iv) == 0.0
    assert zero.df_many(np.array([0.5])).tolist() == [0.0]
    assert seminorm(zero, iv, L1).value == 0.0
    # with the envelope gone, so is its batched form
    assert dataclasses.replace(user, df_sup=None).df_sup_many is None
    # an explicit batched form is copied as it is
    assert dataclasses.replace(base, df_sup=lambda lo, hi: 5.0).df_sup_many is base.df_sup_many


def test_registry_adaptive_run_never_calls_df_sup():
    # registry envelopes are read in batches through df_sup_many alone
    fn = make_function("exp")
    calls = []
    envelope = fn.df_sup
    fn.df_sup = lambda lo, hi: calls.append((lo, hi)) or envelope(lo, hi)
    result = integrate_adaptive(fn, preset("qt"), Interval(0.0, 1.0), LINF, 1e-6, 256)
    assert len(result.panels) > 1 and result.certificate.certified
    assert calls == []


def _edge_points() -> np.ndarray:
    """21,016 points: ``EXTREME_POINTS``, the square and float range edges,
    and random values over every scale."""
    rng = np.random.default_rng(11)
    special = EXTREME_POINTS + [2.2250738585072014e-308, -2.2e-308, 1e-300, 0.5, -1.0,
                                1e155, -1e155]
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
    with np.errstate(over="ignore", invalid="ignore"):
        assert _equal(fn.f_many(ts), reference_f_many(fn, ts))


@pytest.mark.parametrize("name,label", REGISTRY)
def test_registry_f_is_a_row_of_f_many(name, label):
    # the hand-written f(t) is row 0 of f_many([t]), and row k of f_many(ts)
    # is f(ts[k]), bit for bit: the rule pass samples through f_many,
    # one-point callers through the derived f, which gives f's value and type
    fn = make_function(name, label)
    f = reference_forms(fn)["f"]
    ts = _edge_points()
    with np.errstate(over="ignore", invalid="ignore"):
        ones = np.array([fn.f_many(np.array([t]))[0] for t in ts.tolist()])
        singles = np.array([f(t) for t in ts.tolist()])
        batch = fn.f_many(ts)
        assert all(_same_form(fn.f, f, t) for t in ts.tolist())
    assert _equal(singles, ones)
    assert _equal(batch, ones)


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
    fn = reference_function(name)
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
    return reference_function(name, label)


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
    # rows of df_many are the hand-written df's samples, bit for bit, and
    # the derived df gives df's value and type, or raises as df does (sin
    # and cos at infinity)
    grid = np.linspace(-3.0, 3.0, 2 * SAMPLE_CHUNK + 1)
    for name, label in REGISTRY:
        fn = make_function(name, label)
        df = reference_forms(fn)["df"]
        ts = np.concatenate([EXTREME_POINTS, grid])
        with np.errstate(over="ignore", invalid="ignore"):
            assert all(_same_form(fn.df, df, t) for t in ts.tolist()), (name, label)
            ts = np.array([t for t in ts.tolist() if _failure(lambda t=t: df(t)) is None])
            rows = fn.df_many(ts)
            assert _equal(rows, np.array([df(t) for t in ts.tolist()])), (name, label)
        assert rows.shape == (len(ts),) + np.shape(fn.space.zero()), name
        reference = VectorFunction(space=fn.space, f=fn.f, df=df, name=name)
        assert fn.df_norms(grid).tolist() == [df_norm_at(reference, t) for t in grid.tolist()]


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def test_exp_df_many_is_math_exp_point_by_point():
    # libm's exp one point at a time; past 709.78 math.exp raises and the
    # batch is redone with inf there
    fn = make_function("exp")
    rng = np.random.default_rng(21)
    special = [0.0, -0.0, 5e-324, -745.2, -746.0, 709.782712893384,
               math.nextafter(709.782712893384, math.inf), 710.0, 1e308, -math.inf, math.inf]

    def expected(t):
        try:
            return math.exp(t)
        except OverflowError:
            return math.inf
    for ts in (np.array(special), rng.uniform(-745.0, 709.78, 5000),
               np.concatenate([rng.uniform(-20.0, 20.0, 300), [710.5], rng.uniform(0.0, 1.0, 300)])):
        out = fn.df_many(ts)
        assert out.shape == ts.shape
        assert _bits(out) == _bits([expected(t) for t in ts.tolist()])
        # the envelope of [t - 1, t] lies at or above libm's e^t, within its margin
        sup = fn.df_sup_many(ts - 1.0, ts)
        assert ((out <= sup) & (sup <= out * (1.0 + 2.0**-49) + 2.0**-1071)).all()
    assert fn.df_many(np.array([709.9, 1.0])).tolist() == [math.inf, math.e]


@pytest.mark.parametrize("name", ["trig_circle", "matrix_path"])
def test_libm_rows_equal_df_at_each_point(name):
    # each row of df_many is the hand-written df's array at that point, bit
    # for bit, signed zeros and nan included
    fn = make_function(name)
    df = reference_forms(fn)["df"]
    rng = np.random.default_rng(22)
    special = [0.0, -0.0, 5e-324, math.pi, -math.pi / 2, 1e22, -1e300, math.nan]
    for ts in (np.array(special), rng.uniform(-50.0, 50.0, 3000),
               rng.standard_normal(700) * 10.0 ** rng.uniform(-300, 300, 700), np.array([])):
        rows = fn.df_many(ts)
        assert rows.shape == (len(ts),) + np.shape(fn.space.zero())
        assert _bits(rows) == _bits([df(t) for t in ts.tolist()] or np.empty(rows.shape))


def test_numpy_sin_cos_are_libm_bit_for_bit():
    # np.sin and np.cos stand in for math.sin and math.cos in the registry's
    # df_many; a numpy whose float64 loops are not libm's must fail here,
    # not move those bits silently
    rng = np.random.default_rng(25)
    n = 100_000
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300, -1e-300,
               1e22, -1e22, 1e300, -1e300, math.pi, math.nan]
    ts = np.concatenate([special, rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n),
                         rng.uniform(-50.0, 50.0, n // 10)])
    for ours, libm in ((np.sin, math.sin), (np.cos, math.cos)):
        got, want = ours(ts), np.array([libm(t) for t in ts.tolist()])
        moved = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert not moved.size, (
            f"np.{ours.__name__} differs from math.{libm.__name__} at {moved.size} of {ts.size}"
            f" points, first at t={float(ts[moved[0]])!r}; trig_circle's and matrix_path's"
            " df_many (functions._sin_cos) rely on them agreeing bit for bit"
        )


@pytest.mark.parametrize("name", ["trig_circle", "matrix_path"])
@pytest.mark.parametrize("batch", [[0.5, math.inf], [-math.inf, 0.5]])
def test_infinite_point_raises_math_domain_error(name, batch):
    # np.sin gives nan at an infinity, where math.sin raises: such a batch is
    # redone point by point and raises math's error, also under the sweeps'
    # errstate, and never comes back as nan rows
    fn = make_function(name)
    for state in ({}, {"all": "ignore"}):
        with np.errstate(**state), pytest.raises(ValueError, match="^math domain error$"):
            samples(fn.df_many, np.array(batch), np.shape(fn.space.zero()))


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
    # the Simpson integrals call df_many on their ends and then on their odd
    # and even points a block at a time, never once per point
    base = make_function("quadratic")
    calls = []

    def df_many(ts):
        calls.append(len(ts))
        return base.df_many(ts)
    fn = VectorFunction(space=base.space, f=base.f, df=base.df, df_many=df_many)
    resolution = 4 * SAMPLE_CHUNK
    cert = bound_level1(fn, preset("qt"), Interval(-1e200, 1e200), resolution)
    assert cert.bound == np.inf
    # qt's three pieces, the middle one split at its centre: four integrals,
    # each sample taken once, no call over SAMPLE_CHUNK points, no replay
    assert sum(calls) == 4 * (2 * resolution + 1)
    assert max(calls) <= SAMPLE_CHUNK and 1 not in calls


# -- the rows form: all segments of a call in one blocked sweep ------------

ROWS_REGIMES = {"l1": L1, "lp1.5": lp(1.5), "lp4": lp(4.0)}


def _mixed_rows(rng, resolution):
    """Segments of every kind in one seeded order: degenerate, tiny,
    shifted, huge, reversed and plain ones, plus random ones; at two
    panels enough of them to fill several blocks."""
    fixed = [(0.3, 0.3), (1e-300, 3e-300), (1e3, 1e3 + 0.5), (-1e155, 1e155),
             (1.0, -0.5), (-0.7, 1.3), (-40.0, 30.0)]
    extra = SAMPLE_CHUNK + 3 if resolution == 2 else 3
    starts = rng.uniform(-5.0, 5.0, extra)
    rows = fixed + list(zip(starts.tolist(), (starts + rng.uniform(0.0, 2.0, extra)).tolist()))
    return [rows[k] for k in rng.permutation(len(rows)).tolist()]


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("estimator", sorted(ROWS_REGIMES))
def test_rows_form_is_the_one_sample_loop_per_row(estimator, resolution):
    # each row of one simpson_rows call equals the one-sample-at-a-time
    # Simpson of its own integrand, |t - c_k| * norm(f'(t))**p, byte for byte
    fn = reference_function("trig_circle")
    power = ROWS_REGIMES[estimator].integral_exponent
    rng = np.random.default_rng(24 + resolution)
    a, b = np.array(_mixed_rows(rng, resolution)).T
    c = rng.uniform(-1.0, 1.0, len(a))

    def g(ts, rows):
        norms = samples(fn.df_norms, ts.ravel()).reshape(ts.shape)
        return np.abs(ts - c[rows, None]) * _powers(norms, power)
    with np.errstate(over="ignore"):
        out = simpson_rows(g, a, b, resolution)
    for k, (lo, hi, center) in enumerate(zip(a.tolist(), b.tolist(), c.tolist())):
        expected = reference_simpson_scalar(
            lambda t: abs(t - center) * _reference_pow(df_norm_at(fn, t), power), lo, hi, resolution)
        assert out[k].hex() == expected.hex(), (lo, hi)


@pytest.mark.parametrize("n,resolution,shapes", [
    (3000, 2, [(2048, 2), (952, 2), (2048, 2), (952, 2), (3000, 1)]),
    (9, 512, [(9, 2), (8, 512), (1, 512), (8, 511), (1, 511)]),
    (3, SAMPLE_CHUNK + 1, [(3, 2), *[(1, SAMPLE_CHUNK), (1, 1)] * 3, *[(1, SAMPLE_CHUNK)] * 3]),
])
def test_rows_form_call_sizes(n, resolution, shapes):
    # whole rows per block while a row fits in SAMPLE_CHUNK points, else one
    # row cut into SAMPLE_CHUNK columns at a time: the ends, odd, even points
    calls = []

    def g(ts, rows):
        calls.append(ts.shape)
        return np.ones(ts.shape)
    simpson_rows(g, np.zeros(n), np.ones(n), resolution)
    assert calls == shapes


@pytest.mark.parametrize("regime", [L1, lp(1.5), lp(4.0)], ids=str)
def test_many_segments_equal_their_one_segment_calls(regime):
    fn = reference_function("exp")
    rng = np.random.default_rng(240)
    lo = rng.uniform(-3.0, 3.0, 13)
    hi = lo + rng.uniform(0.0, 1.0, 13)
    hi[4] = lo[4]
    for resolution in (2, 512, SAMPLE_CHUNK + 1):
        values, exact = segment_seminorms(fn, regime, lo.reshape(-1, 1), hi.reshape(-1, 1), resolution)
        assert values.shape == exact.shape == (13, 1)
        for k in range(13):
            one, one_exact = segment_seminorms(fn, regime, [lo[k]], [hi[k]], resolution)
            assert (values[k, 0].hex(), exact[k, 0]) == (one[0].hex(), one_exact[0]), (k, resolution)


@pytest.mark.parametrize("rule", ["qt", "simpson", "ostrowski"])
def test_level1_panels_equal_their_one_panel_calls(rule):
    fn = reference_function("trig_circle")
    ends = np.array([-1.0, -0.25, 0.0, 0.0, 0.7, 3.5])
    for resolution in (2, 512):
        rows = _level1_rows(fn, preset(rule), None, ends[:-1], ends[1:], resolution)
        for k in range(len(ends) - 1):
            one = _level1_rows(fn, preset(rule), None, ends[k:k + 1], ends[k + 1:k + 2], resolution)
            assert all(_bits(x[k]) == _bits(y[0]) for x, y in zip(rows, one)), (k, resolution)


def _late_failures(kind):
    """A scalar function whose derivative is 1e200 on [-1, 0], where its
    4th powers overflow (the seminorms' rescue; level 1's pieces, weighted,
    stay finite), and that fails at 0.0625, an even grid point below, and
    near 0.6, where odd grid points lie: a nan (``kind`` "nan") or a
    raising batched ``df_many`` (``kind`` "raise")."""
    def hit(t):
        return (0.0624 < t) & (t < 0.0626) | (0.6 < t) & (t < 0.61)

    def df(t):
        if hit(t):
            if kind == "raise":
                raise ZeroDivisionError(f"df fails at {t!r}")
            return math.nan
        return 1e200 if t <= 0.0 else 2.0 * t

    def df_many(ts):
        if kind == "raise" and hit(ts).any():
            raise ZeroDivisionError(f"df fails at {float(ts[hit(ts)][0])!r}")
        return np.array([df(t) for t in ts.tolist()])
    return VectorFunction(space=SPACES["scalar"], f=lambda t: t, df=df, df_many=df_many,
                          name="late_failure")


@pytest.mark.parametrize("kind", ["nan", "raise"])
@pytest.mark.parametrize("estimator", ["l1", "lp4", "level1"])
def test_a_later_segment_fails_as_in_the_per_segment_loop(estimator, kind):
    # the first segment is large, and under lp4 needs the overflow rescue;
    # the second fails at an even point, the third at odd ones, which a
    # sweep samples first: the error is the per-segment loop's, the second's
    fn = _late_failures(kind)
    lo, hi = [-1.0, 0.0, 0.5], [0.0, 0.5, 1.0]
    resolution = 64
    if estimator == "level1":
        ours = _failure(lambda: _level1_rows(fn, preset("qt"), None, lo, hi, resolution))
        theirs = _failure(lambda: [reference_level1(fn, preset("qt"), Interval(x, y), resolution)
                                   for x, y in zip(lo, hi)])
    else:
        regime = ROWS_REGIMES[estimator]
        ours = _failure(lambda: segment_seminorms(fn, regime, lo, hi, resolution))
        theirs = _failure(lambda: [_reference_seminorm(fn, x, y, regime, resolution)
                                   for x, y in zip(lo, hi)])
    assert ours == theirs
    assert ours[0] is (ZeroDivisionError if kind == "raise" else ValueError)
    assert "at t=0.0625" in ours[1] if kind == "nan" else "at 0.0625" in ours[1]
    if estimator == "lp4":
        values = segment_seminorms(fn, lp(4.0), lo[:1], hi[:1], resolution)[0]
        assert values[0] == 1e200  # rescued: a constant's seminorm on a unit segment


# the values on [-1e308, 1e308] at 8 panels before the sweep, between two
# unit segments whose values are the derivative's norm
OVERFLOWING_LENGTH = {
    ("trig_circle", "l1"): "inf",
    ("trig_circle", "lp1.5"): "0x1.b4515a9a24b0cp+682",
    ("trig_circle", "lp4"): "0x1.06eabcc968ca5p+256",
    ("affine", "l1"): "inf",
    ("affine", "lp1.5"): "0x1.10b2d8a056ee7p+684",
    ("affine", "lp4"): "0x1.48a56bfbc2fcep+257",
}


@pytest.mark.parametrize("name,estimator", sorted(OVERFLOWING_LENGTH))
def test_overflowing_length_in_a_sweep_keeps_its_value(name, estimator):
    fn = make_function(name)
    values, _ = segment_seminorms(fn, ROWS_REGIMES[estimator], [0.0, -1e308, 1.0], [1.0, 1e308, 2.0], 8)
    unit = {"trig_circle": "0x1.0000000000000p+0", "affine": "0x1.4000000000000p+1"}[name]
    assert [x.hex() for x in values.tolist()] == [unit, OVERFLOWING_LENGTH[name, estimator], unit]
