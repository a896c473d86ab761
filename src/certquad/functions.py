"""Built-in test corpus: named functions with derivatives and sup-envelopes.

Every entry carries an analytic derivative and an analytic upper bound for
``norm(f'(t))`` on an interval, so certified sup-norm certificates are
available for all of them.  ``const`` and ``affine`` can be instantiated in
any registered space; the others are tied to their natural space.  Each
entry is written once, in batched forms: ``f_many`` and ``df_many`` sample
a whole array of points at once, and ``df_sup_many`` bounds a whole array
of segments.  :func:`make_function` derives the one-point forms ``f``,
``df`` and ``df_sup`` as row 0 of these at one-point arrays
(``_simpson.one_point``), so every caller reads the same bits.
``df_many`` takes numpy forms where the arithmetic is exact or one IEEE
operation per entry, and ``np.sin`` and ``np.cos``, whose float64 loops
call the C library's ``sin`` and ``cos``, as ``math`` does.  Only exp's
(inf past the float range), whose numpy form rounds unlike libm's, maps
``math`` over one ``tolist()`` per batch.  Every ``df_sup_many`` is numpy,
exp's and poly_r3's rounded up past their rounding errors (``_rounded_up``).
"""

from __future__ import annotations

import math

import numpy as np

from ._simpson import one_point
from .geometry import _exp as _exp_inf
from .spaces import (
    ComplexEuclideanSpace,
    EuclideanSpace,
    MatrixSpace,
    MaxNormSpace,
    NormedSpace,
    ScalarSpace,
    VectorFunction,
)

__all__ = ["SPACES", "FUNCTION_NAMES", "make_function", "space_by_label"]

SPACES: dict[str, NormedSpace] = {
    "scalar": ScalarSpace(),
    "r2": EuclideanSpace(2),
    "r3": EuclideanSpace(3),
    "r3max": MaxNormSpace(3),
    "c2": ComplexEuclideanSpace(2),
    "m22": MatrixSpace(2, 2),
}


def space_by_label(label: str) -> NormedSpace:
    key = label.strip().lower()
    try:
        return SPACES[key]
    except KeyError:
        raise ValueError(
            f"unknown space {label!r}; available: {', '.join(sorted(SPACES))}"
        ) from None


def _pattern(space: NormedSpace, offset: int = 0):
    # fixed, deterministic nonzero element; alternating signs, growing sizes
    coords = [
        ((-1.0) ** (j + offset)) * (1.0 + 0.5 * (j + offset))
        for j in range(space.flat_dim)
    ]
    return space.from_flat(coords)


def _const(space: NormedSpace) -> dict:
    value = _pattern(space)
    zero = space.zero()
    return dict(
        f_many=lambda ts: np.broadcast_to(value, (len(ts),) + np.shape(value)),
        df_many=lambda ts: np.broadcast_to(zero, (len(ts),) + np.shape(zero)),
        df_sup_many=lambda lo, hi: np.zeros_like(lo),
    )


def _affine(space: NormedSpace) -> dict:
    base = _pattern(space)
    slope = _pattern(space, offset=1)
    slope_norm = space.norm(slope)
    base_col, slope_col = np.ravel(base)[:, None], np.ravel(slope)  # one row per entry
    rows = (-1,) + np.shape(base)
    return dict(
        f_many=lambda ts: (np.multiply.outer(slope_col, ts) + base_col).T.reshape(rows),
        df_many=lambda ts: np.broadcast_to(slope, (len(ts),) + np.shape(slope)),
        df_sup_many=lambda lo, hi: np.full_like(lo, slope_norm),
    )


def _rounded_up(envelope, *args) -> np.ndarray:
    # np.exp errs by up to 0.68 ulp (numpy 2.4.6 on x86-64, against mpmath) and
    # poly_r3's formula by about 3.5u (u = 2**-53): the factor 1 + 8u adds at least 7u;
    # 2**-1072 lifts exp's underflow (0, or a subnormal) by four steps; inf stays inf
    with np.errstate(over="ignore"):
        return envelope(*args) * (1.0 + 2.0**-50) + 2.0**-1072


def _math_many(func, values: list) -> np.ndarray:
    """``func`` from ``math`` at each float of ``values``: libm's rounding,
    which numpy's own ``exp`` does not give, and ``math``'s errors."""
    return np.fromiter(map(func, values), float, len(values))


def _sin_cos(ts: np.ndarray) -> tuple:
    """``math.sin`` and ``math.cos`` at each point of ``ts``, bit for bit:
    numpy's float64 loops call libm's.  A batch holding an infinity maps
    ``math``, which raises ``ValueError`` there, where numpy gives nan."""
    if np.isinf(ts).any():
        values = ts.tolist()
        return _math_many(math.sin, values), _math_many(math.cos, values)
    return np.sin(ts), np.cos(ts)


_KINK = 0.5  # kink location of abs_kink; the derivative takes the
# right-hand value +1 there so norm(f') == 1 everywhere


def _quadratic(space: NormedSpace) -> dict:
    def sup_many(lo, hi):
        with np.errstate(over="ignore"):
            return 2.0 * np.maximum(np.abs(lo), np.abs(hi))

    return dict(f_many=lambda ts: ts * ts, df_many=lambda ts: 2.0 * ts, df_sup_many=sup_many)


def _exp(space: NormedSpace) -> dict:
    def df_many(ts):
        try:
            return _math_many(math.exp, ts.tolist())
        except OverflowError:  # math.exp raises past 709.78; exp is inf there
            return _math_many(_exp_inf, ts.tolist())

    return dict(f_many=np.exp, df_many=df_many, df_sup_many=lambda lo, hi: _rounded_up(np.exp, hi))


def _trig_circle(space: NormedSpace) -> dict:
    # unit-speed circle: norm(f'(t)) == 1 for every t
    def f_many(ts):
        return np.array([np.cos(ts), np.sin(ts)]).T

    def df_many(ts):
        (sin, cos), rows = _sin_cos(ts), np.empty((len(ts), 2))
        rows[:, 0], rows[:, 1] = -sin, cos
        return rows

    return dict(f_many=f_many, df_many=df_many, df_sup_many=lambda lo, hi: np.ones_like(lo))


def _poly_r3(space: NormedSpace) -> dict:
    # norm(f')**2 = 1 + 4 t**2 + 9 t**4 is even and increasing in |t|,
    # so the sup over [lo, hi] sits at the endpoint of largest magnitude
    def sup(lo, hi):  # inf once m**4 overflows
        m = np.maximum(np.abs(lo), np.abs(hi))
        return np.sqrt((1.0 + 4.0 * (m * m)) + 9.0 * ((m * m) * (m * m)))

    def f_many(ts):
        return np.array([ts, ts * ts, (ts * ts) * ts]).T

    return dict(
        f_many=f_many,
        df_many=lambda ts: np.stack([np.ones_like(ts), 2.0 * ts, (3.0 * ts) * ts], axis=-1),
        df_sup_many=lambda lo, hi: _rounded_up(sup, lo, hi),
    )


def _matrix_path(space: NormedSpace) -> dict:
    # plane rotation path; the derivative has constant Frobenius norm sqrt(2)
    def f_many(ts):
        c, s = np.cos(ts), np.sin(ts)
        return np.array([c, -s, s, c]).T.reshape(-1, 2, 2)

    def df_many(ts):
        (sin, cos), rows = _sin_cos(ts), np.empty((len(ts), 4))
        rows[:, 0] = rows[:, 3] = -sin
        rows[:, 2] = cos
        rows[:, 1] = -cos
        return rows.reshape(-1, 2, 2)

    return dict(
        f_many=f_many,
        df_many=df_many,
        df_sup_many=lambda lo, hi: np.full_like(lo, math.sqrt(2.0)),
    )


def _abs_kink(space: NormedSpace) -> dict:
    return dict(
        f_many=lambda ts: np.abs(ts - _KINK),
        df_many=lambda ts: np.where(ts >= _KINK, 1.0, -1.0),
        df_sup_many=lambda lo, hi: np.ones_like(lo),
    )


# name -> (forms of a space, default space label, other spaces allowed)
_FUNCTIONS = {
    "const": (_const, "r3", True),
    "affine": (_affine, "r2", True),
    "quadratic": (_quadratic, "scalar", False),
    "exp": (_exp, "scalar", False),
    "trig_circle": (_trig_circle, "r2", False),
    "poly_r3": (_poly_r3, "r3", False),
    "matrix_path": (_matrix_path, "m22", False),
    "abs_kink": (_abs_kink, "scalar", False),
}

FUNCTION_NAMES = tuple(_FUNCTIONS)


def make_function(name: str, space_label: str | None = None) -> VectorFunction:
    """Build a registry function, optionally placing it in a chosen space.

    ``const`` and ``affine`` accept any registered space label; the other
    functions have a fixed natural space, and asking for a different one is
    an error.  ``f``, ``df`` and ``df_sup`` are row 0 of the builder's
    batched forms at one-point arrays.
    """
    key = name.strip().lower()
    if key not in _FUNCTIONS:
        raise ValueError(
            f"unknown function {name!r}; available: {', '.join(FUNCTION_NAMES)}"
        )
    forms, natural, movable = _FUNCTIONS[key]
    if not movable and space_label is not None and space_label.strip().lower() != natural:
        raise ValueError(
            f"function {name!r} lives in the {natural!r} space, "
            f"not {space_label!r}"
        )
    space = space_by_label((space_label or natural).strip().lower())
    many = forms(space)
    return VectorFunction(space=space, name=key, f=one_point(many["f_many"]),
                          df=one_point(many["df_many"]), df_sup=one_point(many["df_sup_many"]),
                          **many)
