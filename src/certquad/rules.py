"""Convex-combination quadrature rules and their cumulative-weight geometry.

A rule is a list of relative nodes ``0 <= u_1 <= ... <= u_n <= 1`` with
strictly positive weights summing to one.  On an interval [a, b] the rule
approximates the mean of ``f`` by ``sum(p_i * f(a + u_i*(b-a)))``.  The
cumulative weights ``P_i`` induce the comparison points

    xi_i = P_i * b + (1 - P_i) * a,      i = 1..n-1,

which drive every error bound in :mod:`certquad.bounds`.  A comparison
point may lie outside its node window ``[x_i, x_{i+1}]``: every bound is
computed the same way, and holds, either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Interval

__all__ = [
    "QuadratureRule",
    "CumulativeWeights",
    "make_rule",
    "nodes_abs",
    "cumulative",
    "preset",
    "PRESET_NAMES",
]

_WEIGHT_SUM_TOL = 1e-12


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Relative nodes in [0, 1] plus convex weights.

    Coincident nodes are permitted (the induced segment is degenerate and
    contributes nothing to bounds).  Weights must be strictly positive and
    sum to 1 within 1e-12.
    """

    nodes_rel: tuple[float, ...]
    weights: tuple[float, ...]
    name: str = ""

    def __post_init__(self) -> None:
        nodes = tuple(float(u) for u in self.nodes_rel)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "nodes_rel", nodes)
        object.__setattr__(self, "weights", weights)
        if len(nodes) == 0:
            raise ValueError("a rule needs at least one node")
        if len(nodes) != len(weights):
            raise ValueError(
                f"node/weight count mismatch: {len(nodes)} vs {len(weights)}"
            )
        for u in nodes:
            if not 0.0 <= u <= 1.0:
                raise ValueError(f"relative node {u!r} outside [0, 1]")
        for lo, hi in zip(nodes, nodes[1:]):
            if hi < lo:
                raise ValueError("relative nodes must be nondecreasing")
        for w in weights:
            if not w > 0.0:
                raise ValueError(f"weights must be strictly positive, got {w!r}")
        total = 0.0
        P = []
        for w in weights:
            total += w
            P.append(total)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        # the cumulative weights do not depend on the interval: keep them,
        # with the arrays the cut and comparison points are formed from:
        # the nodes strictly inside (0, 1), how many sit at 0 and at 1
        # (a prefix and a suffix), and P_i and 1 - P_i for i < n
        object.__setattr__(self, "_P", tuple(P))
        object.__setattr__(self, "_inner", _frozen([u for u in nodes if 0.0 < u < 1.0]))
        object.__setattr__(self, "_at_ends", (nodes.count(0.0), nodes.count(1.0)))
        object.__setattr__(self, "_s", _frozen(P[:-1]))
        object.__setattr__(self, "_sbar", _frozen([1.0 - s for s in P[:-1]]))

    @property
    def n(self) -> int:
        return len(self.nodes_rel)


@dataclass(frozen=True)
class CumulativeWeights:
    """Cumulative weights and comparison points of a rule on an interval.

    ``P[i]`` is ``p_1 + ... + p_{i+1}`` (so ``P[-1]`` is 1 up to rounding),
    ``Pbar[i] = 1 - P[i]`` and ``xi`` holds the n-1 interior comparison
    points clamped into [a, b].
    """

    P: tuple[float, ...]
    Pbar: tuple[float, ...]
    xi: tuple[float, ...]


def make_rule(nodes_rel, weights, name: str = "") -> QuadratureRule:
    """Validate and build a :class:`QuadratureRule`."""
    return QuadratureRule(tuple(nodes_rel), tuple(weights), name)


def _columns(a, b) -> tuple[np.ndarray, np.ndarray]:
    # the endpoints as float arrays with a new last axis
    return np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]


def _cuts(rule: QuadratureRule, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # _cut_points on columns from _columns, under np.errstate(all="ignore"):
    # b - a may overflow to inf
    x = a + rule._inner * (b - a)
    # x >= a, since u * (b - a) >= 0, but rounding can push it past b
    x = np.where(x > b, b, x)
    at_a, at_b = rule._at_ends
    return np.concatenate((a,) * (1 + at_a) + (x,) + (b,) * (1 + at_b), axis=-1)


def _cut_points(rule: QuadratureRule, a, b) -> np.ndarray:
    """``[a, x_1, ..., x_n, b]`` along a new last axis: the ends of the
    rule's n+1 segments, for endpoints ``a <= b`` of any (equal) shape.
    Nodes at u = 0 and u = 1 are ``a`` and ``b`` exactly."""
    a, b = _columns(a, b)
    with np.errstate(all="ignore"):
        return _cuts(rule, a, b)


def nodes_abs(rule: QuadratureRule, interval: Interval) -> tuple[float, ...]:
    """Absolute node positions ``x_i = a + u_i*(b - a)``, clamped into [a, b]."""
    return tuple(_cut_points(rule, interval.a, interval.b)[1:-1].tolist())


def cumulative(rule: QuadratureRule, interval: Interval) -> CumulativeWeights:
    """Cumulative weights ``P_i`` and comparison points ``xi_i`` on ``interval``."""
    xi = _pieces(rule, interval.a, interval.b)[2][1:-1].tolist()
    return CumulativeWeights(rule._P, tuple(1.0 - s for s in rule._P), tuple(xi))


def _pieces(rule: QuadratureRule, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n+1 pieces of the rule's Peano kernel on the panels ``[a[k],
    b[k]]``, as the arrays ``(lo, hi, center)`` of shape (N, n+1): on each
    piece the kernel is ``t - center``, [a, x_1] about a, [x_i, x_{i+1}]
    about xi_i, [x_n, b] about b.  The endpoints are converted once, and
    the xi_i are clamped into [a, b]: this is the one place they are formed."""
    a, b = _columns(a, b)
    with np.errstate(all="ignore"):
        cuts = _cuts(rule, a, b)
        xi = rule._s * b + rule._sbar * a
        xi = np.where(xi < a, a, np.where(xi > b, b, xi))
        centers = np.concatenate((a, xi, b), axis=-1)
    return cuts[..., :-1], cuts[..., 1:], centers


# name -> (nodes, weights) from the preset's parameters; defaults give the named best member
_PRESETS = {
    "ostrowski": lambda s_rel=0.5: ((s_rel,), (1.0,)),
    "weighted_endpoints": lambda t=0.5: ((0.0, 1.0), (1.0 - t, t)),
    "trapezoid": lambda: ((0.0, 1.0), (0.5, 0.5)),
    "quarter_points": lambda t=0.5: ((0.25, 0.75), (t, 1.0 - t)),
    "qt": lambda: ((0.25, 0.75), (0.5, 0.5)),
    "endpoints_midpoint": lambda alpha=0.25, beta=0.5: (
        (0.0, 0.5, 1.0), (alpha, beta, 1.0 - alpha - beta)),
    "qs": lambda: ((0.0, 0.5, 1.0), (0.25, 0.5, 0.25)),
    "simpson": lambda: ((0.0, 0.5, 1.0), (1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0)),
    "three_point": lambda alpha, beta, u1, u2, u3: (
        (u1, u2, u3), (alpha, beta, 1.0 - alpha - beta)),
    "quarter_three_point": lambda alpha=1.0 / 3.0, beta=1.0 / 3.0: (
        (0.25, 0.5, 0.75), (alpha, beta, 1.0 - alpha - beta)),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str, *params: float) -> QuadratureRule:
    """Build a named preset rule.

    Parametric presets and their parameters (defaults give the named best
    member of each family):

    - ``ostrowski(s_rel=0.5)``: one node at ``s_rel``, weight 1.
    - ``weighted_endpoints(t=0.5)``: nodes (0, 1), weights (1-t, t).
    - ``trapezoid``: weighted_endpoints at t = 1/2.
    - ``quarter_points(t=0.5)``: nodes (1/4, 3/4), weights (t, 1-t).
    - ``qt``: quarter_points at t = 1/2.
    - ``endpoints_midpoint(alpha=1/4, beta=1/2)``: nodes (0, 1/2, 1),
      weights (alpha, beta, 1-alpha-beta).
    - ``qs``: endpoints_midpoint at (1/4, 1/2), i.e. weights (1/4, 1/2, 1/4).
    - ``simpson``: endpoints_midpoint at (1/6, 4/6).
    - ``three_point(alpha, beta, u1, u2, u3)``: nodes (u1, u2, u3), weights
      (alpha, beta, 1-alpha-beta).
    - ``quarter_three_point(alpha=1/3, beta=1/3)``: nodes (1/4, 1/2, 3/4).

    Weight parameters that push a comparison point outside its node window
    are accepted: their bounds are computed, and hold, as for any other
    rule.
    """
    try:
        family = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset rule {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    # the count alone, from the code object (inspect.signature costs twice
    # the rule): a parameter the rule rejects raises its own error
    most = family.__code__.co_argcount
    if not most - len(family.__defaults__ or ()) <= len(params) <= most:
        raise ValueError(f"wrong number of parameters for preset {name!r}: {params!r}")
    return make_rule(*family(*params), name)
