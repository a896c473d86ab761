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
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ._simpson import simpson_element
from .geometry import Interval
from .rules import CumulativeWeights, QuadratureRule, _pieces, cumulative, nodes_abs
from .spaces import VectorFunction

__all__ = ["PeanoKernel", "peano_kernel", "kernel_value", "identity_residual"]


@dataclass(frozen=True)
class PeanoKernel:
    """A rule's collapsed kernel on a concrete interval."""

    rule: QuadratureRule
    interval: Interval
    cum: CumulativeWeights
    nodes: tuple[float, ...]


def peano_kernel(rule: QuadratureRule, interval: Interval) -> PeanoKernel:
    return PeanoKernel(rule, interval, cumulative(rule, interval), nodes_abs(rule, interval))


def kernel_value(kernel: PeanoKernel, t: float) -> float:
    """Evaluate S(t).  ``t`` must lie in the kernel's interval.

    At a node ``t == x_i`` the left piece wins, matching the direct sum of
    the elementary kernels (which switch branches strictly after their
    node).
    """
    t = float(t)
    iv = kernel.interval
    if not iv.contains(t):
        raise ValueError(f"t={t!r} outside kernel interval [{iv.a}, {iv.b}]")
    k = bisect_left(kernel.nodes, t)  # number of nodes strictly below t
    if k == 0:
        return t - iv.a
    if k == kernel.rule.n:
        return t - iv.b
    return t - kernel.cum.xi[k - 1]


def identity_residual(
    fn: VectorFunction,
    rule: QuadratureRule,
    interval: Interval,
    oracle_resolution: int = 65536,
) -> float:
    """Norm of the identity defect at a finite reference resolution.

    Both sides are evaluated with composite Simpson.  The kernel side is
    integrated piecewise between rule nodes because S is only piecewise
    smooth; the ``oracle_resolution`` panel budget is split across pieces
    proportionally to length.  For smooth ``fn`` the residual decays like
    the reference quadrature error and tends to zero under refinement.
    """
    if oracle_resolution < 2:
        raise ValueError(f"oracle_resolution must be >= 2, got {oracle_resolution}")
    if interval.is_degenerate:
        raise ValueError("identity residual needs a nondegenerate interval")
    space = fn.space
    pieces = _pieces(rule, interval)
    a, b = interval.a, interval.b
    length = b - a

    rule_mean = space.zero()
    for (x, _, _), w in zip(pieces[1:], rule.weights):
        rule_mean = space.add(rule_mean, space.scale(w, fn.f(x)))
    mean_integral = space.scale(
        1.0 / length, simpson_element(space, fn.f_many, a, b, oracle_resolution)
    )
    lhs = space.subtract(rule_mean, mean_integral)

    kernel_side = space.zero()
    for lo, hi, center in pieces:
        if hi <= lo:
            continue
        panels = max(1, math.ceil(oracle_resolution * (hi - lo) / length))

        def integrand(ts, c=center):
            # S(t) f'(t) one point at a time: there is no batched derivative
            return np.array([space.scale(t - c, fn.df_at(t)) for t in ts.tolist()])

        piece = simpson_element(space, integrand, lo, hi, panels)
        kernel_side = space.add(kernel_side, piece)
    rhs = space.scale(1.0 / length, kernel_side)

    return space.norm(space.subtract(lhs, rhs))
