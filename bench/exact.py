"""Closed-form integrals of the registry functions, evaluated in mpmath.

The benchmark checks every certificate against these values, never against
``certquad.engine.oracle_integral``: the oracle is itself one of the layers
being measured.  Elements are handled as flat real coordinate vectors in the
layout ``NormedSpace.from_flat`` uses (complex entries interleave real and
imaginary parts, matrices are row-major), so the norms below match the
spaces' own norms.
"""

from __future__ import annotations

import mpmath

# Enough digits that the float rounding of a computed approximation is
# resolved exactly; the comparisons below carry no slack.
mpmath.mp.dps = 40
mpf = mpmath.mpf

_KINK = mpf("0.5")

FLAT_DIM = {"scalar": 1, "r2": 2, "r3": 3, "r3max": 3, "c2": 4, "m22": 4}
SPACE_OF = {
    "quadratic": "scalar",
    "exp": "scalar",
    "abs_kink": "scalar",
    "trig_circle": "r2",
    "poly_r3": "r3",
    "matrix_path": "m22",
}


def _pattern(space: str, offset: int = 0) -> list:
    # the coefficients const and affine are built from, in flat coordinates
    return [
        mpf(-1) ** (j + offset) * (1 + mpf(j + offset) / 2)
        for j in range(FLAT_DIM[space])
    ]


def _antiderivative(name: str, space: str, t) -> list:
    if name == "const":
        return [c * t for c in _pattern(space)]
    if name == "affine":
        base, slope = _pattern(space), _pattern(space, 1)
        return [u * t + v * t * t / 2 for u, v in zip(base, slope)]
    if name == "quadratic":
        return [t ** 3 / 3]
    if name == "exp":
        return [mpmath.exp(t)]
    if name == "trig_circle":
        return [mpmath.sin(t), -mpmath.cos(t)]
    if name == "poly_r3":
        return [t ** 2 / 2, t ** 3 / 3, t ** 4 / 4]
    if name == "matrix_path":
        # f = [[cos, -sin], [sin, cos]] row-major
        s, c = mpmath.sin(t), mpmath.cos(t)
        return [s, c, -c, s]
    raise ValueError(f"no antiderivative for {name!r}")


def exact_integral(name: str, space: str, a: float, b: float) -> list:
    """Integral of a registry function over the float interval [a, b]."""
    a, b = mpf(a), mpf(b)
    if name == "abs_kink":
        # |t - k| has a kink at k; integrate each side in closed form
        if b <= _KINK:
            return [((_KINK - a) ** 2 - (_KINK - b) ** 2) / 2]
        if a >= _KINK:
            return [((b - _KINK) ** 2 - (a - _KINK) ** 2) / 2]
        return [((_KINK - a) ** 2 + (b - _KINK) ** 2) / 2]
    hi = _antiderivative(name, space, b)
    lo = _antiderivative(name, space, a)
    return [u - v for u, v in zip(hi, lo)]


def oracle_tolerance(name: str, a: float, b: float) -> float:
    """How far ``oracle_integral`` at its default 65536 panels may lie from
    the exact integral, as a share of ``1 + norm(integral)``.

    The oracle sums 131073 samples left to right, so its rounding error
    grows to about 1e-11 relative; across abs_kink's kink Simpson also
    loses its order.
    """
    return 1e-8 if name == "abs_kink" and a < float(_KINK) < b else 1e-10


def flatten(value) -> list:
    """Flat real coordinates of a float, a numpy element or nested lists."""
    if isinstance(value, (int, float)):
        return [float(value)]
    if hasattr(value, "dtype"):
        if value.dtype.kind == "c":
            out = []
            for z in value.ravel():
                out.extend((float(z.real), float(z.imag)))
            return out
        return [float(v) for v in value.ravel()]
    out = []
    for item in value:
        out.extend(flatten(item))
    return out


def norm(space: str, coords) -> mpmath.mpf:
    """The space's norm of a flat coordinate vector, in mpmath."""
    if space == "r3max":
        return max(abs(mpf(c)) for c in coords)
    return mpmath.sqrt(sum(mpf(c) ** 2 for c in coords))


def error(space: str, approx_flat, exact) -> mpmath.mpf:
    """``norm(approx - exact)`` with the float approximation taken exactly."""
    return norm(space, [mpf(u) - v for u, v in zip(approx_flat, exact)])
