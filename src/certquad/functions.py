"""Built-in test corpus: named functions with derivatives and sup-envelopes.

Every entry carries an analytic derivative and an analytic upper bound for
``norm(f'(t))`` on an interval, so certified sup-norm certificates are
available for all of them.  ``const`` and ``affine`` can be instantiated in
any registered space; the others are tied to their natural space.  Each
entry also has batched forms ``f_many`` and ``df_many`` that sample a whole
array of points at once, and each gives its one-point form's bits.  ``f``
of ``exp``, ``trig_circle``, ``poly_r3`` and ``matrix_path`` is row 0 of
``f_many`` at a one-point array (``_simpson.one_point``), so the rule
pass, the oracle and ``f`` share the numpy forms.  ``df_many`` follows
``df``: numpy forms where the arithmetic is exact or one IEEE operation
per entry, and ``math`` one point at a time for ``exp`` (inf past the
float range), ``sin`` and ``cos``, whose numpy forms round unlike libm's.
``df_sup_many`` gives ``df_sup``'s bits, in numpy or through ``df_many``.
"""

from __future__ import annotations

import math

import numpy as np

from ._simpson import one_point
from .geometry import _exp as _exp_inf, _pow, _powers
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
        f=lambda t: value,
        f_many=lambda ts: np.broadcast_to(value, (len(ts),) + np.shape(value)),
        df=lambda t: space.zero(),
        df_many=lambda ts: np.broadcast_to(zero, (len(ts),) + np.shape(zero)),
        df_sup=lambda lo, hi: 0.0,
        df_sup_many=lambda lo, hi: np.zeros_like(lo),
    )


def _affine(space: NormedSpace) -> dict:
    base = _pattern(space)
    slope = _pattern(space, offset=1)
    slope_norm = space.norm(slope)
    base_col, slope_col = np.ravel(base)[:, None], np.ravel(slope)  # one row per entry
    rows = (-1,) + np.shape(base)
    return dict(
        f=lambda t: space.add(base, space.scale(t, slope)),
        f_many=lambda ts: (np.multiply.outer(slope_col, ts) + base_col).T.reshape(rows),
        df=lambda t: slope,
        df_many=lambda ts: np.broadcast_to(slope, (len(ts),) + np.shape(slope)),
        df_sup=lambda lo, hi: slope_norm,
        df_sup_many=lambda lo, hi: np.full_like(lo, slope_norm),
    )


def _math_many(func, ts: np.ndarray) -> np.ndarray:
    """``func`` from ``math`` at each point of ``ts``: libm's rounding,
    which numpy's own ``exp``, ``sin`` and ``cos`` do not promise."""
    return np.array(list(map(func, ts.tolist())))


_KINK = 0.5  # kink location of abs_kink; the derivative takes the
# right-hand value +1 there so norm(f') == 1 everywhere


def _quadratic(space: NormedSpace) -> dict:
    def sup_many(lo, hi):
        with np.errstate(over="ignore"):
            return 2.0 * np.maximum(np.abs(lo), np.abs(hi))

    return dict(
        f=lambda t: t * t,
        f_many=lambda ts: ts * ts,
        df=lambda t: 2.0 * t,
        df_many=lambda ts: 2.0 * ts,
        df_sup=lambda lo, hi: 2.0 * max(abs(lo), abs(hi)),
        df_sup_many=sup_many,
    )


def _exp(space: NormedSpace) -> dict:
    def df_many(ts):
        try:
            return _math_many(math.exp, ts)
        except OverflowError:  # math.exp raises past 709.78; exp is inf there
            return _math_many(_exp_inf, ts)

    return dict(
        f=one_point(np.exp),
        f_many=np.exp,
        df=_exp_inf,
        df_many=df_many,
        df_sup=lambda lo, hi: _exp_inf(hi),
        df_sup_many=lambda lo, hi: df_many(hi),
    )


def _trig_circle(space: NormedSpace) -> dict:
    # unit-speed circle: norm(f'(t)) == 1 for every t
    def f_many(ts):
        return np.array([np.cos(ts), np.sin(ts)]).T

    return dict(
        f=one_point(f_many),
        f_many=f_many,
        df=lambda t: np.array([-math.sin(t), math.cos(t)]),
        df_many=lambda ts: np.stack([-_math_many(math.sin, ts), _math_many(math.cos, ts)], axis=-1),
        df_sup=lambda lo, hi: 1.0,
        df_sup_many=lambda lo, hi: np.ones_like(lo),
    )


def _poly_r3(space: NormedSpace) -> dict:
    # norm(f')**2 = 1 + 4 t**2 + 9 t**4 is even and increasing in |t|,
    # so the sup over [lo, hi] sits at the endpoint of largest magnitude
    def sup(lo: float, hi: float) -> float:
        m = max(abs(lo), abs(hi))
        return math.sqrt(1.0 + 4.0 * m * m + 9.0 * _pow(m, 4.0))  # inf past the float range

    def sup_many(lo, hi):
        m = np.maximum(np.abs(lo), np.abs(hi))
        with np.errstate(over="ignore"):
            return np.sqrt(1.0 + 4.0 * m * m + 9.0 * _powers(m, 4.0))

    def f_many(ts):
        return np.array([ts, ts * ts, (ts * ts) * ts]).T

    return dict(
        f=one_point(f_many),
        f_many=f_many,
        df=lambda t: np.array([1.0, 2.0 * t, 3.0 * t * t]),
        df_many=lambda ts: np.stack([np.ones_like(ts), 2.0 * ts, (3.0 * ts) * ts], axis=-1),
        df_sup=sup,
        df_sup_many=sup_many,
    )


def _matrix_path(space: NormedSpace) -> dict:
    # plane rotation path; the derivative has constant Frobenius norm sqrt(2)
    def f_many(ts):
        c, s = np.cos(ts), np.sin(ts)
        return np.array([c, -s, s, c]).T.reshape(-1, 2, 2)

    def df(t: float):
        c, s = math.cos(t), math.sin(t)
        return np.array([[-s, -c], [c, -s]])

    def df_many(ts):
        c, s = _math_many(math.cos, ts), _math_many(math.sin, ts)
        return np.stack([-s, -c, c, -s], axis=-1).reshape(-1, 2, 2)

    return dict(
        f=one_point(f_many),
        f_many=f_many,
        df=df,
        df_many=df_many,
        df_sup=lambda lo, hi: math.sqrt(2.0),
        df_sup_many=lambda lo, hi: np.full_like(lo, math.sqrt(2.0)),
    )


def _abs_kink(space: NormedSpace) -> dict:
    return dict(
        f=lambda t: abs(t - _KINK),
        f_many=lambda ts: np.abs(ts - _KINK),
        df=lambda t: 1.0 if t >= _KINK else -1.0,
        df_many=lambda ts: np.where(ts >= _KINK, 1.0, -1.0),
        df_sup=lambda lo, hi: 1.0,
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
    an error.
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
    return VectorFunction(space=space, name=key, **forms(space))
