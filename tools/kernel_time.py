"""Per-call CPU time of the certificate kernel, ``bounds._certificate_rows``.

    PYTHONPATH=src python3 tools/kernel_time.py [--repeats R]

Times the kernel on 1, 255, 511 and 4,095 panels of [-1, 1.5] (uniform
partitions) for poly_r3 with the simpson rule: linf with its sup-envelope,
and L1 and lp:2 at Simpson resolution 8, each at levels 2 and 3.  Each
cell is the best of R passes of the CPU time per call, a pass making as
many calls as fit in about 20 ms.  Nothing is gated on the figures; they
compare two trees on one machine, run one after the other.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

import certquad as cq
from certquad.bounds import _certificate_rows

ROWS = (1, 255, 511, 4095)
CASES = (
    # (label, regime, level, resolution)
    ("linf env  L2", cq.LINF, 2, 8),
    ("linf env  L3", cq.LINF, 3, 8),
    ("l1 res 8  L2", cq.L1, 2, 8),
    ("l1 res 8  L3", cq.L1, 3, 8),
    ("lp:2 res 8 L2", cq.lp(2.0), 2, 8),
    ("lp:2 res 8 L3", cq.lp(2.0), 3, 8),
)


def per_call(call, repeats: int) -> float:
    """The best of ``repeats`` passes of CPU seconds per ``call()``."""
    start = time.process_time()
    call()
    once = max(time.process_time() - start, 1e-6)
    calls = max(1, int(0.02 / once))
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        for _ in range(calls):
            call()
        best = min(best, (time.process_time() - start) / calls)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="passes per cell (default 5)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    fn, rule = cq.make_function("poly_r3"), cq.preset("simpson")
    print("per-call CPU time of _certificate_rows, poly_r3 / simpson on [-1, 1.5], microseconds")
    print(f"{'case':<14}" + "".join(f"{f'{n} rows':>12}" for n in ROWS))
    for label, regime, level, resolution in CASES:
        cells = []
        for n in ROWS:
            ends = np.array(cq.uniform_partition(cq.Interval(-1.0, 1.5), n).breakpoints)
            a, b = ends[:-1], ends[1:]
            seconds = per_call(
                lambda: _certificate_rows(fn, rule, regime, level, a, b, resolution), args.repeats
            )
            cells.append(f"{seconds * 1e6:12.1f}")
        print(f"{label:<14}" + "".join(cells))


if __name__ == "__main__":
    main()
