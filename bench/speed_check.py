"""Check that the machine-speed probe tracks the package's own work.

``run.py`` scales every time by the probe of ``speed.py``.  That is right
only if an operation slows down the way the probe does when the machine
gets slower.  This script checks it for two kinds of operation:

- ``python``: a composite certificate under lp(2) from the package, one
  Python call per derivative sample, as in the composite_lp workload;
- ``numpy``: the norm of a vector function summed over 2**20 samples in a
  few array calls, the kind of work a batched sample path runs.

It times both, interleaved with probes, on a quiet machine and while it
runs competing processes of its own, one per core: busy Python loops (the
core is time-sliced) and large numpy copies (memory bandwidth is shared).
For each phase it prints the median wall time, CPU time and scaled CPU
time of each kind.  If the probe tracks the work, the scaled medians move
much less from phase to phase than the others.  The last line is a JSON
summary.

Usage, from the root of a checkout:

    python3 bench/speed_check.py --seconds 8
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from speed import SpeedLog, timed

SRC = Path(__file__).resolve().parent.parent / "src"

COMPETITORS = {
    "quiet": None,
    "busy_python": "while True:\n    pass\n",
    "numpy_copies": "import numpy as np\na = np.ones(4 << 20)\nwhile True:\n    b = a.copy()\n",
}


def _operations():
    sys.path.insert(0, str(SRC))
    import certquad as cq

    fn = cq.make_function("trig_circle")
    rule = cq.preset("simpson")
    partition = cq.uniform_partition(cq.Interval(0.0, 1.5), 2)
    regime = cq.lp(2.0)
    t = np.linspace(0.0, 1.5, 1 << 20)

    def python_op():
        cq.integrate_composite(fn, rule, partition, regime, 2, 512)

    def numpy_op():
        np.sqrt(np.cos(t) ** 2 + np.sin(2.0 * t) ** 2).sum()

    return {"python": python_op, "numpy": numpy_op}


def _phase(operations, seconds: float) -> dict:
    speed = SpeedLog()
    spans = {name: [] for name in operations}
    speed.take()
    ended = time.perf_counter() + seconds
    while time.perf_counter() < ended:
        for name, op in operations.items():
            spans[name].append(timed(op)[1])
            speed.maybe_take(time.perf_counter())
    speed.take()
    out = {"probe_ms": speed.median_ms()}
    for name, items in spans.items():
        out[name] = {
            "count": len(items),
            "wall_ms": statistics.median(end - start for start, end, _ in items) * 1e3,
            "cpu_ms": statistics.median(cpu for _, _, cpu in items) * 1e3,
            "scaled_ms": statistics.median(speed.scaled(span) for span in items) * 1e3,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=8.0, help="length of each phase")
    args = parser.parse_args(argv)
    if not (SRC / "certquad" / "__init__.py").is_file():
        print(f"error: no certquad package under {SRC}", file=sys.stderr)
        return 2
    operations = _operations()
    for op in operations.values():
        op()  # warm up

    phases = {}
    for phase, code in COMPETITORS.items():
        procs = [] if code is None else [
            subprocess.Popen([sys.executable, "-c", code]) for _ in range(os.cpu_count() or 1)
        ]
        try:
            time.sleep(0.5 if procs else 0.0)
            phases[phase] = _phase(operations, args.seconds)
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait()
        result = phases[phase]
        print(f"{phase:<13} probe {result['probe_ms']:.3f} ms; " + "; ".join(
            f"{name} wall {result[name]['wall_ms']:.3f} ms, cpu {result[name]['cpu_ms']:.3f} ms, "
            f"scaled {result[name]['scaled_ms']:.3f} ms over {result[name]['count']}"
            for name in operations
        ))

    # how far each median moves across the phases: largest over smallest
    moves = {
        name: {
            kind: max(p[name][kind] for p in phases.values())
            / min(p[name][kind] for p in phases.values())
            for kind in ("wall_ms", "cpu_ms", "scaled_ms")
        }
        for name in operations
    }
    for name, move in moves.items():
        print(f"{name}: median moves " + ", ".join(f"x{v:.3f} {k}" for k, v in move.items()))
    print(json.dumps({"seconds_per_phase": args.seconds, "phases": phases,
                      "max_over_min": moves}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
