"""Composite Simpson quadrature with a pinned sample layout.

Shared by the seminorm estimators, the level-1 bound and the reference
oracle.  ``panels`` counts Simpson panels; each panel contributes two
half-steps, so ``2*panels + 1`` samples are taken, at ``a + k*h`` for
``k < 2*panels`` and at ``b`` (:func:`sample_points`), in batches of at
most ``SAMPLE_CHUNK`` points (:func:`sample_grid`).  Every
batched sample of f or f', here, in the rule pass and in the sampled sup,
goes through one sampler, :func:`samples`.  Both folds read what it
returns without writing to it, and neither uses a pairwise sum, so results
are reproducible bit for bit.  :func:`simpson_scalar`, which feeds the
certificates, adds its samples one at a time, as the one-sample loop does.
:func:`simpson_element`, the oracle, sums each batch in blocks of ``ROW``
samples in a fixed order (:func:`_batch_sum`), which shortens its chain of
dependent additions from one per sample to about ``2 * ROW`` per batch.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["check_finite", "one_point", "sample_grid", "sample_points", "samples",
           "simpson_element", "simpson_scalar"]

SAMPLE_CHUNK = 4096  # points per batched integrand call
ROW = 64  # samples per row of a batch in the oracle's blocked sum


def sample_points(a: float, b: float, m: int):
    """``(h, points)``: ``(b - a)/m`` and ``k -> a + k*h``; where ``b - a``
    overflows, ``b/m - a/m`` and ``(a/m)(m - k) + (b/m)k``, whose terms stay finite."""
    h = (b - a) / m
    if math.isfinite(h):
        return h, lambda k: a + k * h
    return b / m - a / m, lambda k: (a / m) * (m - k) + (b / m) * k


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
    """``many(ts)``, checked to stack ``len(ts)`` elements of ``shape``.  A
    batch that raises is redone one point at a time in order, through
    ``one``, the one-point form, if given, else :func:`one_point`, so the
    error raised is the first failing point's alone.  Nonfinite values
    that raised nothing are returned as they are."""
    try:
        values = many(ts)
    except Exception:  # redone point by point, which raises it again
        values = [(one or one_point(many))(t) for t in ts.tolist()]
    values = np.asarray(values)
    if values.shape != (len(ts),) + shape:
        raise ValueError(
            f"batched samples have shape {values.shape}, expected {(len(ts),) + shape}"
        )
    return values


def check_finite(values: np.ndarray, ts: np.ndarray, what: str) -> None:
    """Raise ``ValueError("{what} at t=...")`` naming the first point of
    ``ts`` whose row of ``values`` is not finite, if there is one."""
    finite = np.isfinite(values)
    if not finite.all():
        t = float(ts[np.argmin(finite.reshape(len(ts), -1).all(axis=1))])
        raise ValueError(f"{what} at t={t!r}")


def simpson_scalar(g, a: float, b: float, panels: int) -> float:
    """Composite Simpson estimate of the integral of a real function over
    [a, b].

    ``g`` maps a float array of sample points to the array of the
    integrand's values there, through :func:`samples`.  The fold is the
    one-sample loop's: ``first = g(a)``, ``last = g(b)``, the odd samples
    added in ascending order from 0.0, then the even samples likewise, and
    ``(h/3) * (first + last + 4*odd + 2*even)``.
    """
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    if a == b:
        return 0.0
    m = 2 * panels
    h, points = sample_points(a, b, m)
    with np.errstate(all="ignore"):
        first, last = samples(g, np.array([a, b])).astype(float).tolist()
        sums = []
        for ks in (range(1, m, 2), range(2, m, 2)):
            acc = 0.0
            for ts in sample_grid(points, b, m, ks):
                terms = samples(g, ts).astype(float)
                terms[0] = acc + terms[0]
                acc = np.add.accumulate(terms, out=terms)[-1]
            sums.append(float(acc))
    odd, even = sums
    return (h / 3.0) * (first + last + 4.0 * odd + 2.0 * even)


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
