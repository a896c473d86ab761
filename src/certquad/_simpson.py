"""Composite Simpson quadrature with a pinned sample layout.

Shared by the seminorm estimators, the level-1 bound, the kernel-identity
check and the test oracle.  ``panels`` counts Simpson panels; each panel
contributes two half-steps, so ``2*panels + 1`` samples are taken, at
``a + k*h`` for ``k < 2*panels`` and at ``b`` (:func:`sample_points`).
Both folds take their integrand in batches of at most ``SAMPLE_CHUNK``
points, read what it returns without writing to it, and add the samples
one at a time in a fixed order (``np.add.accumulate``, never a pairwise
sum), so results are reproducible bit for bit and equal to the
one-sample-at-a-time loop.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simpson_scalar", "simpson_element", "sample_batch", "sample_points"]

SAMPLE_CHUNK = 4096  # points per batched integrand call


def sample_points(a: float, b: float, m: int):
    """``(h, points)``: ``(b - a)/m`` and ``k -> a + k*h``; where ``b - a``
    overflows, ``b/m - a/m`` and ``uniform_partition``'s ``(a/m)(m - k) + (b/m)k``."""
    h = (b - a) / m
    if np.isfinite(h):
        return h, lambda k: a + k * h
    return b / m - a / m, lambda k: (a / m) * (m - k) + (b / m) * k


def sample_batch(g, ts: np.ndarray) -> np.ndarray:
    """``g(ts)`` as a float array, where ``g`` maps sample points to the
    values of a real function there, and raises on a batch exactly when
    some point of it raises alone.

    When the batch raises, ``g`` is called again on one point at a time in
    order, so the error raised is the one the first failing point raises
    alone.  Values that are not finite but raised nothing are returned as
    they are, without a second pass.
    """
    try:
        return np.array(g(ts), dtype=float)
    except Exception:
        pass  # redone point by point below, which raises it again
    return np.array([g(ts[k:k + 1])[0] for k in range(len(ts))], dtype=float)


def simpson_scalar(g, a: float, b: float, panels: int) -> float:
    """Composite Simpson estimate of the integral of a real function over
    [a, b].

    ``g`` maps a float array of sample points to the array of the
    integrand's values there, through :func:`sample_batch`.  The fold is
    the one-sample loop's: ``first = g(a)``, ``last = g(b)``, the odd
    samples added in ascending order from 0.0, then the even samples
    likewise, and ``(h/3) * (first + last + 4*odd + 2*even)``.
    """
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    if a == b:
        return 0.0
    m = 2 * panels
    h, points = sample_points(a, b, m)
    with np.errstate(all="ignore"):
        first, last = sample_batch(g, np.array([a, b])).tolist()
        sums = []
        for start in (1, 2):
            acc = 0.0
            for lo in range(start, m, 2 * SAMPLE_CHUNK):
                terms = sample_batch(g, points(np.arange(lo, min(lo + 2 * SAMPLE_CHUNK, m), 2)))
                terms[0] = acc + terms[0]
                acc = np.add.accumulate(terms, out=terms)[-1]
            sums.append(float(acc))
    odd, even = sums
    return (h / 3.0) * (first + last + 4.0 * odd + 2.0 * even)


def _samples(f_many, ts: np.ndarray, shape: tuple) -> np.ndarray:
    values = np.asarray(f_many(ts))
    if values.shape != (len(ts),) + shape:
        raise ValueError(
            f"batched samples have shape {values.shape}, "
            f"expected {(len(ts),) + shape}"
        )
    return values


def _check(acc, values: np.ndarray, ts: np.ndarray) -> None:
    # a nonfinite sample leaves the running sum nonfinite; only then scan the samples
    if not np.isfinite(acc).all():
        finite = np.isfinite(values).reshape(len(ts), -1).all(axis=1)
        if not finite.all():
            raise ValueError(f"nonfinite sample at t={float(ts[np.argmin(finite)])!r}")


def simpson_element(space, f_many, a: float, b: float, panels: int):
    """Composite Simpson estimate of a space-valued integral.

    ``f_many`` maps an array of sample points to an array of elements
    stacked along axis 0 in any layout (see ``VectorFunction.f_many``); it
    is called on at most ``SAMPLE_CHUNK`` points at a time.  The fold is
    pinned: ``f(a) + f(b)``, then ``4 f(t_k)`` for odd ``k`` ascending,
    then ``2 f(t_k)`` for even ``k`` ascending, each added to the running
    sum in turn (``np.add.accumulate``, never a pairwise sum), and ``h/3``
    applied once at the end.  A nonfinite sample or sum raises
    ``ValueError``.  The scalar space gets a Python float back.
    """
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    if a == b:
        return space.zero()
    m = 2 * panels
    h, points = sample_points(a, b, m)
    shape = np.shape(space.zero())
    with np.errstate(all="ignore"):
        ends = np.array([a, b])
        values = _samples(f_many, ends, shape)
        acc = values[0] + values[1]
        _check(acc, values, ends)
        for weight, first in ((4.0, 1), (2.0, 2)):
            for lo in range(first, m, 2 * SAMPLE_CHUNK):
                ts = points(np.arange(lo, min(lo + 2 * SAMPLE_CHUNK, m), 2))
                values = _samples(f_many, ts, shape)
                terms = weight * values  # a new array: values is only read
                terms[0] += acc  # IEEE addition commutes: acc + terms[0]
                acc = np.add.accumulate(terms, axis=0, out=terms)[-1]
                _check(acc, values, ts)
        result = (h / 3.0) * acc
    if not np.isfinite(result).all():
        raise ValueError(f"nonfinite Simpson sum over [{a}, {b}]")
    return float(result) if result.ndim == 0 else result
