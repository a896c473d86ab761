"""Composite Simpson quadrature with a pinned sample layout.

Shared by the seminorm estimators, the level-1 bound and the reference
oracle.  ``panels`` counts Simpson panels; each panel contributes two
half-steps, so ``2*panels + 1`` samples are taken, at ``a + k*h`` for
``k < 2*panels`` and at ``b`` (:func:`sample_points`), in calls of at
most ``SAMPLE_CHUNK`` points.  Every batched sample of f or f', here, in
the rule pass and in the sampled sup, goes through one sampler,
:func:`samples`.  Both folds read what it returns without writing to it,
and neither uses a pairwise sum, so results are reproducible bit for bit.
:func:`simpson_rows`, which feeds the certificates, samples all the
segments of a call together, in blocks of whole rows or of one row's
columns (:func:`_blocks`), and still adds each segment's samples one at
a time, as the one-sample loop does; :func:`simpson_scalar` is its one
segment.  :func:`simpson_element`, the oracle, sums each batch in blocks
of ``ROW`` samples in a fixed order (:func:`_batch_sum`), which shortens
its chain of dependent additions from one per sample to about ``2 * ROW``
per batch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_finite", "one_point", "sample_grid", "sample_points", "samples",
           "simpson_element", "simpson_rows", "simpson_scalar"]

SAMPLE_CHUNK = 4096  # points per batched integrand call
ROW = 64  # samples per row of a batch in the oracle's blocked sum


def sample_points(a, b, m: int):
    """``(h, points)``: ``(b - a)/m`` and ``k -> a + k*h``, for floats or
    arrays ``a`` and ``b``; where ``b - a`` overflows, ``b/m - a/m`` and
    ``(a/m)(m - k) + (b/m)k``, whose terms stay finite."""
    h = (b - a) / m
    wide = ~np.isfinite(h)
    if not wide.any():
        return h, lambda k: a + k * h
    h = np.where(wide, b / m - a / m, h)

    def points(k):
        with np.errstate(all="ignore"):  # a + k*h may overflow on the wide rows it skips
            return np.where(wide, (a / m) * (m - k) + (b / m) * k, a + k * h)

    return h, points


def sample_grid(points, b: float, m: int, ks: range):
    """``points(k)`` of ``sample_points(a, b, m)`` for ``k`` in the range
    ``ks`` (``k = m`` is ``b`` itself), in arrays of ``SAMPLE_CHUNK`` or fewer."""
    for lo in range(0, len(ks), SAMPLE_CHUNK):
        k = ks[lo:lo + SAMPLE_CHUNK]
        ts = points(np.arange(k.start, k.stop, k.step, dtype=float))
        if k[-1] == m:
            ts[-1] = b
        yield ts


def one_point(many):
    """The one-point form of the batched function ``many``: row 0 of
    ``many`` at one-point arrays of its arguments (``f_many([t])``,
    ``df_sup_many([lo], [hi])``), overflow giving inf without a warning,
    and a Python float where the row is a scalar."""
    def one(*args):
        with np.errstate(over="ignore"):
            row = many(*(np.array([x], dtype=float) for x in args))[0]
        return float(row) if np.ndim(row) == 0 else row

    return one


def samples(many, ts: np.ndarray, shape: tuple = (), one=None) -> np.ndarray:
    """``many`` at the points of ``ts``, in row order, checked to stack
    ``ts.size`` elements of ``shape`` and returned in the shape ``ts.shape
    + shape``.  A call that raises is redone one point at a time in order,
    through ``one``, the one-point form, if given, else :func:`one_point`,
    so the error raised is the first failing point's alone.  Nonfinite
    values that raised nothing are returned as they are."""
    flat = ts.ravel()
    try:
        values = many(flat)
    except Exception:  # redone point by point, which raises it again
        one = one or one_point(many)
        values = [one(t) for t in flat.tolist()]
    values = np.asarray(values)
    if values.shape != (len(flat),) + shape:
        raise ValueError(
            f"batched samples have shape {values.shape}, expected {(len(flat),) + shape}"
        )
    return values.reshape(ts.shape + shape)


def check_finite(values: np.ndarray, ts: np.ndarray, what: str) -> None:
    """Raise ``ValueError("{what} at t=...")`` naming the first point of
    ``ts`` whose row of ``values`` is not finite, if there is one."""
    finite = np.isfinite(values)
    if not finite.all():
        t = float(ts[np.argmin(finite.reshape(len(ts), -1).all(axis=1))])
        raise ValueError(f"{what} at t={t!r}")


def simpson_scalar(g, a: float, b: float, panels: int) -> float:
    """Composite Simpson estimate of the integral of a real function over
    [a, b]: :func:`simpson_rows` of one row, ``g`` mapping a float array of
    points to the integrand's values there, through :func:`samples`.  So a
    failing sample raises the first failing point's error, in sampling
    order: a and b, the odd points, the even points."""
    return float(simpson_rows(lambda ts, rows: samples(g, ts), [a], [b], panels)[0])


def _blocks(n: int, width: int):
    """``(rows, columns)`` slices tiling an ``n x width`` array, rows first,
    by as many whole rows as fit in ``SAMPLE_CHUNK`` entries, else by one
    row's ``SAMPLE_CHUNK`` columns at a time."""
    cols = max(1, min(width, SAMPLE_CHUNK))
    step = SAMPLE_CHUNK // cols
    for r in range(0, n, step):
        for c in range(0, width, cols):
            yield slice(r, r + step), slice(c, c + cols)


def simpson_rows(g, a, b, panels: int) -> np.ndarray:
    """Composite Simpson estimates over the segments ``[a[k], b[k]]``, each
    the one-sample loop's bit for bit: the odd and then the even samples
    added left to right from 0.0, carried across blocks, and ``(h/3) *
    (g(a) + g(b) + 4*odd + 2*even)``.  The segments are sampled together by
    :func:`_blocks`: all ends, then all odd points, then all even points.
    ``g(ts, rows)`` maps a 2-D array of points, row j on segment
    ``rows[j]``, to the integrand's values in ``ts``'s shape.  Segments with
    ``a == b`` give 0.0 unsampled.  A failing call raises the first failing
    block's error; callers that must raise the first failing segment's redo
    the segments one at a time."""
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(len(a))
    live = np.flatnonzero(a != b)
    lo, hi, m = a[live, None], b[live, None], 2 * panels
    odd, even = np.zeros(len(live)), np.zeros(len(live))
    with np.errstate(all="ignore"):
        ends = np.concatenate((lo, hi), axis=1)
        for rows, _ in _blocks(len(live), 2):
            ends[rows] = g(ends[rows], live[rows])
        for acc, start in ((odd, 1), (even, 2)):
            ks = np.arange(start, m, 2, dtype=float)
            for rows, cols in _blocks(len(live), len(ks)):
                ts = sample_points(lo[rows], hi[rows], m)[1](ks[cols])
                terms = np.array(g(ts, live[rows]), dtype=float)
                terms[:, 0] += acc[rows]
                acc[rows] = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
        h = sample_points(lo, hi, m)[0][:, 0]
        out[live] = (h / 3.0) * (ends[:, 0] + ends[:, 1] + 4.0 * odd + 2.0 * even)
    return out


def _check(acc, values: np.ndarray, ts: np.ndarray) -> None:
    # a nonfinite sample leaves the running sum nonfinite; only then scan the samples
    if not np.isfinite(acc).all():
        check_finite(values, ts, "nonfinite sample")


def _batch_sum(values: np.ndarray):
    """The sum of a batch of samples stacked along axis 0, in a pinned
    order: rows of ``ROW`` consecutive samples added elementwise in turn
    (the short last row into the first columns), then the column sums
    left to right.

    Each coordinate is summed on its own, from a C-contiguous
    coordinate-major form of the batch, copied unless the batch is
    component-major already: ``np.add.reduce`` adds the rows of a block in
    turn only on C-contiguous blocks, and sums pairwise on others.
    """
    n = len(values)
    coords = np.ascontiguousarray(
        values.reshape(n, -1).T, dtype=np.result_type(values, float)
    )
    full = n - n % ROW
    if full:
        columns = np.add.reduce(coords[:, :full].reshape(len(coords), -1, ROW), axis=1)
        columns[:, :n - full] += coords[:, full:]
    else:
        columns = coords
    return np.add.accumulate(columns, axis=1)[:, -1].reshape(values.shape[1:])


def simpson_element(space, f_many, a: float, b: float, panels: int):
    """Composite Simpson estimate of a space-valued integral.

    ``f_many`` maps an array of sample points to an array of elements
    stacked along axis 0 in any layout (see ``VectorFunction.f_many``); it
    is called through :func:`samples` on at most ``SAMPLE_CHUNK`` points at
    a time, so a batch that raises is redone point by point.  The fold is
    pinned: ``ends = f(a) + f(b)``; ``odd``, the batches of odd ``k``
    ascending, each summed by :func:`_batch_sum` and the batch sums added
    left to right from 0.0; ``even`` likewise; then
    ``(h/3) * ((ends + 4*odd) + 2*even)``.  The order does not depend on
    the layout ``f_many`` returns.  A nonfinite sample or sum raises
    ``ValueError``, naming the first nonfinite sample in sampling order
    (ends, odd points, even points).  The scalar space gets a Python float
    back.
    """
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    if a == b:
        return space.zero()
    m = 2 * panels
    shape = np.shape(space.zero())
    h, points = sample_points(a, b, m)
    with np.errstate(all="ignore"):
        ends = np.array([a, b])
        values = samples(f_many, ends, shape)
        acc = values[0] + values[1]
        _check(acc, values, ends)
        sums = []
        for ks in (range(1, m, 2), range(2, m, 2)):
            total = 0.0
            for ts in sample_grid(points, b, m, ks):
                values = samples(f_many, ts, shape)
                total = total + _batch_sum(values)
                _check(total, values, ts)
            sums.append(total)
        odd, even = sums
        result = (h / 3.0) * ((acc + 4.0 * odd) + 2.0 * even)
    if not np.isfinite(result).all():
        raise ValueError(f"nonfinite Simpson sum over [{a}, {b}]")
    return float(result) if result.ndim == 0 else result
