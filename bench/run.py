"""certquad benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload adaptive_linf --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the closed loop untraced for ``--seconds`` seconds, then
to the end of the current round of inputs and until at least 100
operations have completed, and reports the end-to-end metrics.  ``--trace 1`` runs the first round of inputs twice, untraced and
then traced, and reports the per-layer metrics; the traced set is fixed, so
its counters repeat exactly.  Either way every operation goes through the
correctness gate, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are
the process's CPU time scaled to a reference machine speed (see
``speed.py``); the raw wall and CPU figures are printed above the result
line.

The package is imported from ``src/`` of the checkout this file lives in,
never from anywhere else; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, SpeedLog, timed
from workloads import WORKLOADS, Verdict, const_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
ORACLE_ENV = "QUAD_ORACLE_RESOLUTION"

# setup repeats per run, before and after the timed loop so that they see
# the machine at different moments; setup_s is their median
SETUPS_BEFORE, SETUPS_AFTER = 5, 10
POOL_ROUNDS = 40  # rounds of inputs generated; the loop cycles if it runs out
MIN_OPS = 100  # so that at least 10 operations fall beyond p90
MAX_STRETCH = 4  # the loop stops by MAX_STRETCH * seconds even below MIN_OPS


def _fresh_import():
    """Import certquad from this checkout's src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "certquad" or m.startswith("certquad.")]:
        del sys.modules[name]
    cq = importlib.import_module("certquad")
    importlib.import_module("certquad.cli")
    if Path(cq.__file__).resolve().parent != SRC / "certquad":
        raise ImportError(f"certquad imported from {cq.__file__}, not from {SRC}")
    return cq


def _setup(workload_cls, seed: int):
    cq = _fresh_import()
    workload = workload_cls(cq)
    pool = workload.inputs(random.Random(seed), POOL_ROUNDS)
    return workload, pool


def _timed_setups(workload_cls, seed: int, count: int, speed: SpeedLog, spans: list):
    """Set up ``count`` times; append the span of each to ``spans``."""
    for _ in range(count):
        gc.collect()  # start each from the same heap state
        speed.take()
        result, span = timed(_setup, workload_cls, seed)
        speed.take()
        spans.append(span)
    return result


def _execute(workload, op):
    """One operation and its record; an operation that raises is a failure
    of that operation, not of the run."""
    try:
        return workload.summarise(op, workload.call(op))
    except Exception as exc:
        return exc


def _timed_pass(workload, pool, indices, speed: SpeedLog, on_record):
    """Run ``pool[k]`` for k in ``indices`` with probes in between; return
    the span of each operation."""
    spans = []
    for k in indices:
        record, span = timed(_execute, workload, pool[k])
        spans.append(span)
        on_record(k, record)
        speed.maybe_take(time.perf_counter())
    return spans


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _records_equal(x, y) -> bool:
    # repr of floats is exact, so equal reprs means equal bits (and -0.0
    # differs from 0.0, as it should)
    return repr(x) == repr(y)


def _gate(workload, pool, records, repeats):
    """Verdicts for ``records`` (op index -> record), with the repeat check."""
    verdicts = {}
    for i, record in records.items():
        if isinstance(record, BaseException):
            verdicts[i] = Verdict(True, f"raised {record!r}")
            continue
        verdict = workload.check(pool[i], record)
        if not verdict.failed and i in repeats and not _records_equal(record, repeats[i]):
            verdict.failed, verdict.reason = True, "differs from its repeat"
        verdicts[i] = verdict
    return verdicts


def _environment() -> dict:
    import numpy

    lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "certquad").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": lines,
    }


def _summary_lines(workload, pool, verdicts) -> tuple[list[str], dict]:
    attempted = len(verdicts)
    failed = sum(v.failed for v in verdicts.values())  # distinct inputs, for the gate line
    flagged = [v.certified for v in verdicts.values() if v.certified is not None]
    ratios = [r for v in verdicts.values() if not v.failed for r in v.ratios]
    gmean = math.exp(math.fsum(math.log(r) for r in ratios) / len(ratios)) if ratios else math.nan
    median = statistics.median(ratios) if ratios else math.nan
    quality = {
        "certified_frac": (sum(flagged) / len(flagged) if flagged else math.nan, "frac"),
        "converged_frac": (sum(v.converged for v in verdicts.values()) / attempted, "frac"),
        "bound_over_error_median": (median, "ratio"),
        "bound_over_error_gmean": (gmean, "ratio"),
    }
    lines = [
        f"gate: {failed} of {attempted} operations failed",
        f"certified_frac over the {len(flagged)} operations whose output reports the flag",
        f"bound_over_error_* over {len(ratios)} certificates of passing operations with error "
        "above rounding level" + (f"; smallest {min(ratios):.4g}" if ratios else ""),
    ]
    reasons = {}
    for i, v in sorted(verdicts.items()):
        if v.failed:
            reasons.setdefault((pool[i].label, v.reason.split(" ")[0]), []).append(v.reason)
    for (label, _), items in sorted(reasons.items()):
        lines.append(f"  failed x{len(items)} {label}: {items[0]}")
    return lines, quality


def run_untraced(workload_cls, seed: int, seconds: float) -> dict:
    speed = SpeedLog()
    setup_spans: list[tuple[float, float, float]] = []
    workload, pool = _timed_setups(workload_cls, seed, SETUPS_BEFORE, speed, setup_spans)

    records: dict[int, object] = {}
    repeats: dict[int, object] = {}

    def keep(k, record):
        (repeats if k in records else records).setdefault(k, record)

    def indices():
        # the closed loop: at least ``seconds`` and MIN_OPS operations, and
        # whole rounds, so every run measures the same mix
        i = 0
        while True:
            yield i % len(pool)
            i += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= MAX_STRETCH * seconds or (
                elapsed >= seconds and i >= MIN_OPS and i % workload.round_size == 0
            ):
                return

    speed.take()
    t0 = time.perf_counter()
    spans = _timed_pass(workload, pool, indices(), speed, keep)
    wall = time.perf_counter() - t0
    speed.take()
    n = len(spans)
    walls = [end - start for start, end, _ in spans]
    cpus = [cpu for _, _, cpu in spans]
    scaled = [speed.scaled(span) for span in spans]

    # every completed operation of the first round is repeated untimed and
    # must reproduce its record bit for bit
    for k in range(min(workload.round_size, len(records))):
        repeats.setdefault(k, _execute(workload, pool[k]))
    # the workload and pool above keep the modules they were built with
    _timed_setups(workload_cls, seed, SETUPS_AFTER, speed, setup_spans)
    verdicts = _gate(workload, pool, records, repeats)
    # once the loop wraps around the pool, a rerun carries its first run's
    # verdict (and was compared with it bit for bit)
    failed = sum(v.failed for v in verdicts.values()) + sum(
        verdicts[k % len(pool)].failed for k in range(len(pool), n)
    )
    lines, quality = _summary_lines(workload, pool, verdicts)
    violations, cases = const_probe(workload.cq)
    lines.append(f"known defect, not gated (ROADMAP item 4): const's certified zero bound is "
                 f"below the exact error in {violations} of {cases} fixed probe cases")

    def rounds(times):
        # complete rounds, each one the whole mix
        size = workload.round_size
        return [times[j:j + size] for j in range(0, len(times) - size + 1, size)] or [times]

    def rate(times):
        # median over rounds of the operations per second of busy time
        return statistics.median(len(r) / math.fsum(r) for r in rounds(times))

    def latency(times, q):
        # a quantile of each round, averaged over the rounds: every round
        # holds the same mix, so the figure does not depend on how many
        # rounds fit in the run, and it moves less from seed to seed than
        # one quantile over the pooled operations
        return statistics.fmean(_quantile(r, q) for r in rounds(times))

    metrics = {
        "setup_s": (statistics.median(speed.scaled(span) for span in setup_spans), "s"),
        "throughput_ops_s": (rate(scaled), "ops/s"),
        "latency_p50_ms": (latency(scaled, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (latency(scaled, 0.90) * 1e3, "ms"),
        "converged_frac": quality["converged_frac"],
        "bound_over_error_gmean": quality["bound_over_error_gmean"],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = sum(x > _quantile(r, 0.90) for r in rounds(scaled) for x in r)
    lines[:0] = [
        f"{n} operations in {wall:.3f} s, {n // workload.round_size} complete rounds "
        f"of {workload.round_size}; {beyond} beyond their round's p90",
        f"probe: median {speed.median_ms():.3f} ms CPU over {len(speed.durations)} probes; "
        f"times below are CPU times scaled to the reference {1e3 * REFERENCE_S:.3f} ms",
    ] + [
        f"{kind}: throughput {rate(times):.4g} ops/s, p50 {latency(times, 0.50) * 1e3:.4g} ms, "
        f"p90 {latency(times, 0.90) * 1e3:.4g} ms"
        for kind, times in (("wall", walls), ("cpu", cpus))
    ] + [
        "setup runs (cpu s): " + ", ".join(f"{cpu:.4f}" for _, _, cpu in setup_spans),
    ]
    shown = dict(metrics, failed_frac=(failed / n, "frac"),
                 certified_frac=quality["certified_frac"],
                 bound_over_error_median=quality["bound_over_error_median"])
    return {"attempted": n, "failed": failed, "lines": lines,
            "shown": shown, "metrics": metrics}


def run_traced(workload_cls, seed: int) -> dict:
    import tracing

    workload, pool = _setup(workload_cls, seed)
    ops = list(range(workload.round_size))
    speed = SpeedLog()

    def busy(spans):
        return math.fsum(speed.scaled(span) for span in spans)

    records: dict[int, object] = {}
    speed.take()
    untraced = _timed_pass(workload, pool, ops, speed, records.__setitem__)

    tracer = tracing.Tracer()
    tracer.install()
    for fn in workload.functions():
        tracer.instrument_function(fn)
    repeats: dict[int, object] = {}

    def keep(k, record):
        repeats[k] = record
        tracer.op = k + 1

    try:
        tracer.op = ops[0]
        traced = _timed_pass(workload, pool, ops, speed, keep)
    finally:
        tracer.uninstall()
    speed.take()
    untraced, traced = busy(untraced), busy(traced)

    verdicts = _gate(workload, pool, records, repeats)
    lines, _ = _summary_lines(workload, pool, verdicts)
    self_s = tracer.self_times()
    calls = tracer.calls()
    count = tracer.counters

    def self_of(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    produced = calls["seminorms.seminorm"]
    metrics = {
        "engine.adaptive_self_s": (self_of("engine.adaptive"), "s"),
        "engine.splits": (count["engine.splits"], "count"),
        "engine.panels": (count["engine.panels"], "count"),
        "bounds.level2_calls": (calls["bounds.level2"], "count"),
        "bounds.level2_self_s": (self_of("bounds.level2"), "s"),
        "geometry.mu_calls": (calls["geometry.mu"], "count"),
        "geometry.mu_self_s": (self_of("geometry.mu"), "s"),
        "rules.nodes_abs_calls": (count["rules.nodes_abs_calls"], "count"),
        "rules.cumulative_calls": (count["rules.cumulative_calls"], "count"),
        "functions.df_sup_calls": (count["functions.df_sup_calls"], "count"),
        "seminorms.calls": (produced, "count"),
        "seminorms.profile_calls": (calls["seminorms.profile"], "count"),
        "seminorms.self_s": (self_of("seminorms.seminorm", "seminorms.profile"), "s"),
        "seminorms.useful_frac": (
            count["seminorms.consumed"] / produced if produced else 0.0, "frac"),
        "simpson.calls": (calls["simpson.scalar"], "count"),
        "simpson.samples": (count["simpson.samples"], "count"),
        "simpson.self_s": (self_of("simpson.scalar"), "s"),
        "functions.df_calls": (count["functions.df_calls"], "count"),
        "spaces.norm_calls": (count["spaces.norm_calls"], "count"),
        "bounds.level1_self_s": (self_of("bounds.level1"), "s"),
        "bounds.level3_self_s": (self_of("bounds.level3", "bounds.level3_factor"), "s"),
        "engine.oracle_calls": (calls["engine.oracle"], "count"),
        "engine.oracle_self_s": (self_of("engine.oracle"), "s"),
        "functions.f_calls": (count["functions.f_calls"], "count"),
        "spaces.arith_calls": (count["spaces.arith_calls"], "count"),
        "engine.apply_rule_calls": (calls["engine.apply_rule"], "count"),
        "engine.apply_rule_self_s": (self_of("engine.apply_rule"), "s"),
        "cli.run_self_s": (self_of("cli.run"), "s"),
        "cli.compare_self_s": (self_of("cli.compare"), "s"),
        "cli.serialise_s": (self_of("cli.serialise"), "s"),
        "trace.overhead_frac": (traced / untraced - 1.0, "frac"),
    }

    total = sum(self_s.values())
    lines.insert(0, f"traced {len(ops)} operations: untraced {untraced:.3f} s, "
                    f"traced {traced:.3f} s, {len(tracer.start)} spans")
    lines.append("self-time share by layer (of all span time):")
    for layer, names in sorted(tracing.LAYERS.items(), key=lambda kv: -self_of(*kv[1])):
        lines.append(f"  {layer:<18} {self_of(*names) / total:7.1%}  {self_of(*names):.4f} s")
    if tracer.missing:
        lines.append(f"not traced (name not found): {', '.join(tracer.missing)}")
    path = OUT / f"spans-{workload_cls.name}-seed{seed}.tsv.gz"
    tracer.write(path)
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    attempted = len(ops)
    return {"attempted": attempted, "failed": sum(v.failed for v in verdicts.values()),
            "lines": lines, "shown": metrics, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; seed 2 is held out for re-checks)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "certquad" / "__init__.py").is_file():
        print(f"error: no certquad package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    oracle_env = os.environ.pop(ORACLE_ENV, None)  # the oracle runs at its default

    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(workload_cls, args.seed)
    else:
        result = run_untraced(workload_cls, args.seed, args.seconds)

    env = _environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"src/certquad {env['src_lines']} lines; "
          f"{ORACLE_ENV} was {'unset' if oracle_env is None else repr(oracle_env)}, cleared")
    for line in result["lines"]:
        print(line)
    for name, (value, unit) in result["shown"].items():
        print(f"{name:<26} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
