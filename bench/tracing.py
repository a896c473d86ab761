"""Spans and counters around certquad's cross-module calls.

Installed only for the traced run.  Spans wrap the public names one module
calls in another (and the intra-module calls that go through a module
global), by rebinding every ``certquad.*`` module attribute that refers to
the original function.  Per-sample callables (``fn.f``, ``fn.df``,
``fn.df_sup`` and the space ``norm``, ``add`` and ``scale``) get counters
only, since a span per sample would cost more than the sample.

Spans are kept in memory as flat arrays and written out when the run ends.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (defining module, function, span name)
SPANS = [
    ("certquad.engine", "integrate_adaptive", "engine.adaptive"),
    ("certquad.engine", "integrate_composite", "engine.composite"),
    ("certquad.engine", "apply_rule", "engine.apply_rule"),
    ("certquad.engine", "oracle_integral", "engine.oracle"),
    ("certquad.seminorms", "seminorm", "seminorms.seminorm"),
    ("certquad.seminorms", "seminorm_profile", "seminorms.profile"),
    ("certquad._simpson", "simpson_scalar", "simpson.scalar"),
    ("certquad.bounds", "bound_level1", "bounds.level1"),
    ("certquad.bounds", "bound_level2", "bounds.level2"),
    ("certquad.bounds", "bound_level3", "bounds.level3"),
    ("certquad.bounds", "level3_factor", "bounds.level3_factor"),
    ("certquad.geometry", "mu", "geometry.mu"),
    ("certquad.cli", "main", "cli.main"),
    ("certquad.cli", "run", "cli.run"),
    ("certquad.cli", "compare_rules", "cli.compare"),
    ("certquad.cli", "_emit_run", "cli.serialise"),
    ("certquad.cli", "_emit_compare", "cli.serialise"),
]

# (defining module, function, counter name): cheap helpers, counted only
COUNTED = [
    ("certquad.rules", "nodes_abs", "rules.nodes_abs_calls"),
    ("certquad.rules", "cumulative", "rules.cumulative_calls"),
]

# which span self times make up each layer, for the share table
LAYERS = {
    "engine": ("engine.adaptive", "engine.composite"),
    "engine.apply_rule": ("engine.apply_rule",),
    "engine.oracle": ("engine.oracle",),
    "seminorms": ("seminorms.seminorm", "seminorms.profile"),
    "simpson": ("simpson.scalar",),
    "bounds": ("bounds.level1", "bounds.level2", "bounds.level3", "bounds.level3_factor"),
    "geometry": ("geometry.mu",),
    "cli": ("cli.main", "cli.run", "cli.compare", "cli.serialise"),
}


def _certquad_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "certquad" or name.startswith("certquad."))
    ]


class Tracer:
    """Owns the patches, the span arrays and the counters of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, func, post=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _count(self, name: str, func):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, module: str, func: str, make) -> None:
        original = getattr(sys.modules.get(module), func, None)
        if original is None:
            self.missing.append(f"{module}.{func}")
            return
        wrapped = make(original)
        for mod in _certquad_modules():
            if mod.__dict__.get(func) is original:
                self._patch(mod, func, wrapped)

    # -- install / remove ---------------------------------------------------

    def instrument_function(self, fn) -> None:
        """Count the per-sample callables of one VectorFunction."""
        for attr in ("f", "df", "df_sup"):
            original = getattr(fn, attr)
            if original is not None:
                self._patch(fn, attr, self._count(f"functions.{attr}_calls", original))

    def install(self) -> None:
        posts = {
            "engine.adaptive": self._after_adaptive,
            "engine.composite": self._after_composite,
            "simpson.scalar": self._after_simpson,
            "bounds.level2": self._after_level2,
            "bounds.level3": self._after_level3,
        }
        for module, func, name in SPANS:
            self._rebind(
                module, func, lambda f, n=name: self._span(n, f, posts.get(n))
            )
        for module, func, name in COUNTED:
            self._rebind(module, func, lambda f, n=name: self._count(n, f))

        spaces = sys.modules["certquad.spaces"]
        for cls in vars(spaces).values():
            if isinstance(cls, type) and issubclass(cls, spaces.NormedSpace):
                for attr, counter in (("norm", "spaces.norm_calls"),
                                      ("add", "spaces.arith_calls"),
                                      ("scale", "spaces.arith_calls")):
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self._count(counter, cls.__dict__[attr]))

        # the CLI builds its own functions; count their samples too
        def make_counted(make_function):
            def wrapper(*args, **kwargs):
                fn = make_function(*args, **kwargs)
                self.instrument_function(fn)
                return fn

            return wrapper

        self._rebind("certquad.functions", "make_function", make_counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- post hooks: counts read from arguments and results -----------------

    def _after_adaptive(self, args, result) -> None:
        self.counters["engine.panels"] += len(result.panels)
        self.counters["engine.splits"] += len(result.panels) - 1

    def _after_composite(self, args, result) -> None:
        self.counters["engine.panels"] += len(result.panels)

    def _after_simpson(self, args, result) -> None:
        self.counters["simpson.samples"] += 2 * args[3] + 1

    def _after_level2(self, args, result) -> None:
        # level 2 reads the per-segment estimates, never the global one
        self.counters["seminorms.consumed"] += len(args[0].segments)

    def _after_level3(self, args, result) -> None:
        self.counters["seminorms.consumed"] += 1

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per span name."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {name: 0 for name in self.names}
        for i in range(n):
            totals[self.names[self.name_id[i]]] += self.end[i] - self.start[i] - child[i]
        return {name: ns * 1e-9 for name, ns in totals.items()}

    def calls(self) -> Counter:
        out = Counter()
        for nid in self.name_id:
            out[self.names[nid]] += 1
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.op_id[i]}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
