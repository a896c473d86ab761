"""Composite Simpson quadrature with a pinned sample layout.

Shared by the seminorm estimators, the level-1 bound, the kernel-identity
check and the test oracle.  ``panels`` counts Simpson panels; each panel
contributes two half-steps, so ``2*panels + 1`` samples are taken.  All
sums run left to right at fixed precision, so results are reproducible
bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simpson_scalar", "simpson_element"]

SAMPLE_CHUNK = 1024  # points per batched call in simpson_element


def simpson_scalar(g, a: float, b: float, panels: int) -> float:
    """Composite Simpson estimate of the integral of ``g`` over [a, b]."""
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    if a == b:
        return 0.0
    m = 2 * panels
    h = (b - a) / m
    first = g(a)
    last = g(b)
    odd = 0.0
    for k in range(1, m, 2):
        odd += g(a + k * h)
    even = 0.0
    for k in range(2, m, 2):
        even += g(a + k * h)
    return (h / 3.0) * (first + last + 4.0 * odd + 2.0 * even)


def _samples(f_many, ts: np.ndarray, shape: tuple) -> np.ndarray:
    values = np.asarray(f_many(ts))
    if values.shape != (len(ts),) + shape:
        raise ValueError(
            f"batched samples have shape {values.shape}, "
            f"expected {(len(ts),) + shape}"
        )
    finite = np.isfinite(values)
    if not finite.all():
        first = np.argmin(finite.reshape(len(ts), -1).all(axis=1))
        raise ValueError(f"nonfinite sample at t={float(ts[first])!r}")
    return values


def simpson_element(space, f_many, a: float, b: float, panels: int):
    """Composite Simpson estimate of a space-valued integral.

    ``f_many`` maps an array of sample points to an array of elements
    stacked along axis 0 (see ``VectorFunction.f_many``); it is called on
    at most ``SAMPLE_CHUNK`` points at a time.  The fold is pinned:
    ``f(a) + f(b)``, then ``4 f(t_k)`` for odd ``k`` ascending, then
    ``2 f(t_k)`` for even ``k`` ascending, each added to the running sum
    in turn (``np.add.accumulate``, never a pairwise sum), and the ``h/3``
    factor is applied once at the end.  A nonfinite sample or sum raises
    ``ValueError``.  The scalar space gets a Python float back.
    """
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    if a == b:
        return space.zero()
    m = 2 * panels
    h = (b - a) / m
    shape = np.shape(space.zero())
    with np.errstate(all="ignore"):
        ends = _samples(f_many, np.array([a, b]), shape)
        acc = ends[0] + ends[1]
        for weight, first in ((4.0, 1), (2.0, 2)):
            for lo in range(first, m, 2 * SAMPLE_CHUNK):
                k = np.arange(lo, min(lo + 2 * SAMPLE_CHUNK, m), 2)
                terms = weight * _samples(f_many, a + k * h, shape)
                terms[0] += acc  # IEEE addition commutes: acc + terms[0]
                acc = np.add.accumulate(terms, axis=0)[-1]
        result = (h / 3.0) * acc
    if not np.isfinite(result).all():
        raise ValueError(f"nonfinite Simpson sum over [{a}, {b}]")
    return float(result) if result.ndim == 0 else result
