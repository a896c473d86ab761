"""Panels, kernel calls and CPU seconds of one long adaptive run.

    PYTHONPATH=src python3 tools/kernel_calls.py

Runs exp with the qt rule on [0, 1] under linf at tol 1e-6, the
220,036-panel case ROADMAP.md tracks, and prints its panel count, the
adaptive driver's kernel calls (``engine._certificate_rows``), the kernel
rows they certified against the 2 * panels - 1 the run used (the rest is
speculation, the first call's subtree included) and the CPU seconds the
run took.  Nothing is gated on them.  The tier-1 tests count kernel calls
with the same ``KernelCounter``.
"""

from __future__ import annotations

import time

import certquad as cq
from certquad import engine


class KernelCounter:
    """Counts the adaptive driver's kernel calls and the rows of each.

    ``patch`` puts it in the kernel's place: the builtin ``setattr`` for
    the rest of the process, or a test's ``monkeypatch.setattr``."""

    def __init__(self, patch=setattr):
        self.calls, self.rows = 0, []
        self._kernel = engine._certificate_rows
        patch(engine, "_certificate_rows", self)

    def __call__(self, fn, rule, regime, level, a, b, resolution):
        self.calls += 1
        self.rows.append(len(a))
        return self._kernel(fn, rule, regime, level, a, b, resolution)


def main():
    counter = KernelCounter()
    start = time.process_time()
    result = cq.integrate_adaptive(cq.make_function("exp"), cq.preset("qt"),
                                   cq.Interval(0.0, 1.0), cq.LINF, 1e-6, 500_000)
    cpu = time.process_time() - start
    panels = len(result.panels)
    print(f"panels {panels}, kernel calls {counter.calls}, rows {sum(counter.rows)} "
          f"certified, {2 * panels - 1} used, cpu {cpu:.2f} s")


if __name__ == "__main__":
    main()
