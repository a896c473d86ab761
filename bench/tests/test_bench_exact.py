"""The benchmark's closed-form references agree with the dense oracle.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "bench"))

import exact  # noqa: E402
from certquad import FUNCTION_NAMES, SPACES, Interval, make_function, oracle_integral  # noqa: E402

CASES = [
    (name, space)
    for name in FUNCTION_NAMES
    for space in (sorted(SPACES) if name in ("const", "affine") else [exact.SPACE_OF[name]])
]
# one interval on each side of abs_kink's kink and one across it
INTERVALS = [(-0.7, 0.3), (0.5, 1.9), (-1.25, 2.0)]


@pytest.mark.parametrize("a, b", INTERVALS)
@pytest.mark.parametrize("name, space", CASES)
def test_reference_matches_oracle(name, space, a, b):
    fn = make_function(name, space)
    approx = oracle_integral(fn, Interval(a, b), 1 << 16)
    reference = exact.exact_integral(name, space, a, b)
    assert len(reference) == exact.FLAT_DIM[space]
    err = exact.error(space, exact.flatten(approx), reference)
    scale = 1 + exact.norm(space, reference)
    assert err <= exact.oracle_tolerance(name, a, b) * scale, (name, space, a, b, err)


def test_error_is_exact_for_floats():
    # the float 0.1 differs from 1/10; the error must resolve that difference
    err = exact.error("scalar", [0.1], [exact.mpf(1) / 10])
    assert 0 < err < 1e-17
