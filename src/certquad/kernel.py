"""The piecewise-affine kernel behind the rule-error identity.

For a rule with absolute nodes x_1 <= ... <= x_n on [a, b] and comparison
points xi_i, the weighted sum of the elementary kernels collapses to

    S(t) = t - a      on [a, x_1]
    S(t) = t - xi_i   on (x_i, x_{i+1}],  i = 1..n-1
    S(t) = t - b      on (x_n, b]

and the rule error satisfies, for absolutely continuous f,

    sum(p_i f(x_i)) - mean(f) = mean(S * f'),

where mean(g) = (1/(b-a)) * integral of g over [a, b].  The residual of
this identity, evaluated with a reference quadrature on both sides, is a
strong self-test of the rule geometry and is exercised by the acceptance
suite.
"""

from __future__ import annotations

import math

import numpy as np

from ._simpson import samples, simpson_element
from .engine import _elements
from .geometry import Interval
from .rules import QuadratureRule, _pieces
from .spaces import VectorFunction

__all__ = ["identity_residual"]


def identity_residual(
    fn: VectorFunction,
    rule: QuadratureRule,
    interval: Interval,
    oracle_resolution: int = 65536,
) -> float:
    """Norm of the identity defect at a finite reference resolution.

    Both integrals are evaluated with composite Simpson; the rule's node
    samples come from one ``fn.f_many`` call, as in the rule pass.  The
    kernel side is integrated piecewise between rule nodes because S is
    only piecewise smooth; the ``oracle_resolution`` panel budget is split
    across pieces proportionally to length.  For smooth ``fn`` the residual
    decays like the reference quadrature error and tends to zero under
    refinement.
    """
    if oracle_resolution < 2:
        raise ValueError(f"oracle_resolution must be >= 2, got {oracle_resolution}")
    if interval.is_degenerate:
        raise ValueError("identity residual needs a nondegenerate interval")
    space = fn.space
    a, b = interval.a, interval.b
    los, his, centers = (column[0].tolist() for column in _pieces(rule, [a], [b]))
    length = b - a

    with np.errstate(all="ignore"):  # an overflowing sample is inf, as in the rule pass
        values = samples(fn.f_many, np.array(los[1:]), np.shape(space.zero()), fn.f)
    rule_mean = space.zero()
    for x, w in zip(_elements(values), rule.weights):
        rule_mean = space.add(rule_mean, space.scale(w, x))
    mean_integral = space.scale(
        1.0 / length, simpson_element(space, fn.f_many, a, b, oracle_resolution)
    )
    lhs = space.subtract(rule_mean, mean_integral)

    kernel_side = space.zero()
    for lo, hi, center in zip(los, his, centers):
        if hi <= lo:
            continue
        panels = max(1, math.ceil(oracle_resolution * (hi - lo) / length))

        def integrand(ts, c=center):
            # S(t) f'(t): row k is scale(ts[k] - c, f'(ts[k]))
            slopes = fn.df_many(ts)
            return (ts - c).reshape((-1,) + (1,) * (np.ndim(slopes) - 1)) * slopes

        piece = simpson_element(space, integrand, lo, hi, panels)
        kernel_side = space.add(kernel_side, piece)
    rhs = space.scale(1.0 / length, kernel_side)

    return space.norm(space.subtract(lhs, rhs))
