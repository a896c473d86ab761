"""The three benchmark workloads: inputs, one operation, and its check.

Each workload is a closed loop (one caller, one thread, the next operation
only after the previous one returns) over a pool of inputs drawn from the
seed.  The pool is built in rounds.  A round holds one operation per cell
of a fixed grid (every registry function, with const and affine cycling
through every space; see ``_function_cells`` for where const is left out),
and each discrete or continuous parameter takes its
values from fixed strata that rotate from cell to cell and round to round.
The seed draws each value inside its stratum, the random rules, and the
order of the operations inside a round.  So every seed gives the same mix
of work, which keeps the figures steady from seed to seed, and a partly
finished round is still a fair sample.

``call`` is the timed operation; ``summarise`` turns its result into a small
record (kept for the check and the repeat comparison); ``check`` applies the
correctness gate to one record and returns a ``Verdict``.
"""

from __future__ import annotations

import ast
import contextlib
import decimal
import io
import json
import math
import random
from dataclasses import dataclass, field

import exact

SPACE_LABELS = ("scalar", "r2", "r3", "r3max", "c2", "m22")
FIXED = ("quadratic", "exp", "trig_circle", "poly_r3", "matrix_path", "abs_kink")
PRESET_CYCLE = ("trapezoid", "qt", "qs", "simpson")
# parametric presets with the ranges their parameters are drawn from
PARAMETRIC = (
    ("ostrowski", ((0.3, 0.7),)),
    ("weighted_endpoints", ((0.3, 0.7),)),
    ("quarter_points", ((0.3, 0.7),)),
    ("endpoints_midpoint", ((0.1, 0.3), (0.4, 0.6))),
    ("quarter_three_point", ((0.2, 0.4), (0.2, 0.4))),
)


@dataclass
class Op:
    """One operation's inputs plus the exact reference the check needs."""

    label: str
    function: str
    space: str
    interval: tuple[float, float]
    params: dict = field(default_factory=dict)
    exact: list | None = None


@dataclass
class Verdict:
    failed: bool
    reason: str = ""
    certified: bool | None = None  # None when the output does not say
    converged: bool = True
    ratios: list = field(default_factory=list)  # bound / exact_error, see _check_certificate


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _strata(rng: random.Random, n: int, step: int, shift: int) -> list[float]:
    """One uniform in [0, 1) per cell; cell k of n draws inside stratum
    ``(k * step + shift) % n``.  ``step`` must be coprime to ``n``."""
    return [((k * step + shift) % n + rng.random()) / n for k in range(n)]


def _rotate(values: tuple, k: int, step: int, shift: int):
    return values[(k * step + shift) % len(values)]


def _scale(u: float, bounds: tuple[float, float]) -> float:
    return bounds[0] + (bounds[1] - bounds[0]) * u


def _log_scale(u: float, bounds: tuple[float, float]) -> float:
    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    return math.exp(lo + u * (hi - lo))


# the two cells that cycle through the spaces, in a workload whose
# certificates are certified (linf) and in one whose are not
CERTIFIED_CYCLE = ("affine", "affine")
UNCERTIFIED_CYCLE = ("const", "affine")


def _function_cells(round_index: int, repeats: int,
                    cycle: tuple[str, str]) -> list[tuple[str, str]]:
    """Every fixed-space registry function ``repeats`` times, plus the two
    ``cycle`` functions, which take a different space each time, cycling
    through all spaces across rounds.

    A workload with certified bounds passes ``CERTIFIED_CYCLE``, which
    leaves const out: its certified bound is zero and the float rule sum
    misses the integral by an ulp on many inputs, a known defect that
    ``const_probe`` reports on fixed inputs instead of failing the run.
    """
    cells = []
    for k in range(repeats):
        for name in FIXED:
            cells.append((name, exact.SPACE_OF[name]))
        for j, name in enumerate(cycle):
            label = SPACE_LABELS[(repeats * round_index + k + 3 * j) % len(SPACE_LABELS)]
            cells.append((name, label))
    return cells


def _random_rule(rng: random.Random, n: int) -> tuple[tuple, tuple]:
    # one node in the middle half of each of n strata of [0, 1], so no rule
    # bunches its nodes up and the bound constants stay within a band
    nodes = tuple((i + 0.25 + 0.5 * rng.random()) / n for i in range(n))
    raw = [rng.uniform(0.5, 1.0) for _ in range(n)]
    total = math.fsum(raw)
    return nodes, tuple(w / total for w in raw)


# errors below this share of the integral's size are float rounding, not
# quadrature error (rules exact on affine functions land there); their
# bound/error ratio says nothing about how tight a certificate is
ROUNDING_LEVEL = 1e-12


def _check_certificate(op: Op, approx_flat, bound, certified: bool) -> Verdict:
    err = exact.error(op.space, approx_flat, op.exact)
    if certified and err > bound:  # zero slack: the bound must hold exactly
        return Verdict(True, f"certified bound {float(bound)!r} < exact error {float(err)!r}",
                       certified=certified)
    above_rounding = err > ROUNDING_LEVEL * (1 + exact.norm(op.space, op.exact))
    if above_rounding and err > bound:
        # an uncertified bound rests on sampled seminorms and need not be
        # rigorous, but at the seed none comes within a factor 1.5 of the
        # error (see smallest_bound_over_error in baseline.json); one below
        # a quadrature error means the estimate broke
        return Verdict(True, f"uncertified bound {float(bound)!r} < exact error {float(err)!r}",
                       certified=certified)
    ratios = [float(bound / err)] if above_rounding and bound > 0 else []
    return Verdict(False, certified=certified, ratios=ratios)


def _agrees_with_exact_error(op: Op, approx_flat, reported, printed_slack=0) -> bool:
    """Whether an ``actual_error`` the CLI measured against its oracle agrees
    with the exact error of the same approximation.  The two differ by at
    most the oracle's own error, which the oracle's tolerance bounds."""
    err = exact.error(op.space, approx_flat, op.exact)
    tol = exact.oracle_tolerance(op.function, *op.interval) * (1 + exact.norm(op.space, op.exact))
    return abs(exact.mpf(reported) - err) <= tol + printed_slack


def _from_e6(text: str) -> tuple:
    """A value the CLI printed with ``.6e``, and half a unit in its last
    digit (zero for an exact zero, the only value that prints as zero)."""
    mantissa, _, expo = text.strip().partition("e")
    unit = exact.mpf(10) ** int(expo)
    value = exact.mpf(mantissa) * unit
    return value, (0 if value == 0 else exact.mpf("5e-7") * unit)


# fixed inputs of const_probe; (0.1, 0.7) is the interval of ROADMAP item 4
PROBE_INTERVALS = ((0.1, 0.7), (-0.35, 0.45), (0.2, 1.9), (0.0, 1.5))


def const_probe(cq) -> tuple[int, int]:
    """Known defect, reported and not gated: how many of a fixed set of
    certified const certificates (every space, preset rule, probe interval,
    level 2 and 3, under LINF) have a bound below the exact error.
    Returns (violations, cases).  When certified bounds cover float
    rounding, violations is 0 and const can join ``CERTIFIED_CYCLE``."""
    violations = cases = 0
    for space in SPACE_LABELS:
        fn = cq.make_function("const", space)
        for a, b in PROBE_INTERVALS:
            reference = exact.exact_integral("const", space, a, b)
            partition = cq.uniform_partition(cq.Interval(a, b), 1)
            for rule in PRESET_CYCLE:
                for level in (2, 3):
                    result = cq.integrate_composite(fn, cq.preset(rule), partition, cq.LINF, level)
                    cert = result.certificate
                    op = Op(f"const/{space}", "const", space, (a, b), exact=reference)
                    verdict = _check_certificate(op, exact.flatten(result.approximation),
                                                 cert.bound, cert.certified)
                    violations += verdict.failed
                    cases += 1
    return violations, cases


class _EngineWorkload:
    """Shared by the two workloads that call the engine directly."""

    def __init__(self, cq) -> None:
        self.cq = cq
        self._functions: dict[tuple[str, str], object] = {}

    def function(self, name: str, space: str):
        key = (name, space)
        if key not in self._functions:
            self._functions[key] = self.cq.make_function(name, space)
        return self._functions[key]

    def functions(self):
        return list(self._functions.values())

    def _op(self, name: str, space: str, a: float, b: float, params: dict) -> Op:
        self.function(name, space)
        return Op(f"{name}/{space}", name, space, (a, b), params,
                  exact.exact_integral(name, space, a, b))

    def summarise(self, op: Op, result) -> tuple:
        cert = result.certificate
        return (tuple(exact.flatten(result.approximation)), cert.bound,
                cert.certified, result.converged, len(result.panels))

    def check(self, op: Op, record: tuple) -> Verdict:
        approx, bound, certified, converged, _ = record
        verdict = _check_certificate(op, approx, bound, certified)
        verdict.converged = converged
        return verdict


class AdaptiveLinf(_EngineWorkload):
    """``integrate_adaptive`` under LINF with ``max_panels=4096``.

    A round is 24 operations sized to converge (8 function cells x 3 rule
    slots: a classical preset, a parametric preset, a random convex rule)
    and one that uses up the panel budget: poly_r3 or exp on a long
    interval where the derivative is large.  Tolerance and interval length
    share a stratum, so wider intervals get looser tolerances and the panel
    count of a converging operation depends mostly on the function and the
    rule, not on the luck of the draw.
    """

    name = "adaptive_linf"
    round_size = 25
    MAX_PANELS = 4096
    TOL = (1e-4, 1e-3)
    START = (-1.0, 0.6)
    LENGTH = (0.3, 0.8)
    BUDGET_START = {"poly_r3": (2.0, 2.2), "exp": (2.5, 2.7)}
    BUDGET_LENGTH = (1.4, 1.5)

    def inputs(self, rng: random.Random, rounds: int) -> list[Op]:
        # the budget operations take most of a run's time and a run holds
        # only about 15 of them, so their draws follow a golden-ratio
        # sequence over the rounds from a seeded start: any run of
        # consecutive rounds spreads them evenly over their ranges
        budget_start = [rng.random() for _ in range(3)]
        ops = []
        for r in range(rounds):
            cells = [(name, space, slot) for slot in range(3)
                     for name, space in _function_cells(r, 1, CERTIFIED_CYCLE)]
            n = len(cells)
            u_tol, u_len, u_a = _strata(rng, n, 5, r), _strata(rng, n, 5, r), _strata(rng, n, 11, 5 * r)
            round_ops = []
            for k, (name, space, slot) in enumerate(cells):
                if slot == 0:
                    params = {"rule": _rotate(PRESET_CYCLE, k, 1, r)}
                elif slot == 1:
                    rule, ranges = _rotate(PARAMETRIC, k, 1, r)
                    params = {"rule": rule, "args": tuple(_scale(rng.random(), x) for x in ranges)}
                else:
                    nodes, weights = _random_rule(rng, 2 + (k + r) % 5)
                    params = {"nodes": nodes, "weights": weights}
                params["tol"] = _log_scale(u_tol[k], self.TOL)
                a = _scale(u_a[k], self.START)
                round_ops.append(self._op(name, space, a, a + _scale(u_len[k], self.LENGTH), params))
            name = ("poly_r3", "exp")[r % 2]
            u_a, u_len, u_tol = ((u + r * GOLDEN) % 1.0 for u in budget_start)
            a = _scale(u_a, self.BUDGET_START[name])
            params = {"rule": _rotate(PRESET_CYCLE, r, 1, 0), "tol": _log_scale(u_tol, self.TOL)}
            round_ops.append(self._op(name, exact.SPACE_OF[name], a,
                                      a + _scale(u_len, self.BUDGET_LENGTH), params))
            rng.shuffle(round_ops)
            ops.extend(round_ops)
        return ops

    def call(self, op: Op):
        cq = self.cq
        p = op.params
        if "nodes" in p:
            rule = cq.make_rule(p["nodes"], p["weights"], name="random")
        else:
            rule = cq.preset(p["rule"], *p.get("args", ()))
        return cq.integrate_adaptive(
            self.function(op.function, op.space), rule,
            cq.Interval(*op.interval), cq.LINF, p["tol"], self.MAX_PANELS,
        )


class CompositeLp(_EngineWorkload):
    """``integrate_composite`` under L1 or lp(p), levels 1-3."""

    name = "composite_lp"
    round_size = 16  # 8 function cells x 2
    LEVELS = (2,) * 10 + (1,) * 3 + (3,) * 3
    RESOLUTIONS = (512,) * 8 + (1024,) * 6 + (4096,) * 2
    PANELS = (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5, 6, 7, 8)
    P = (1.5, 4.0)
    START = (-1.0, 1.0)
    LENGTH = (0.5, 2.0)

    def inputs(self, rng: random.Random, rounds: int) -> list[Op]:
        ops = []
        for r in range(rounds):
            cells = _function_cells(r, 2, UNCERTIFIED_CYCLE)
            n = len(cells)
            u_p, u_len, u_a = _strata(rng, n, 3, r), _strata(rng, n, 5, 3 * r), _strata(rng, n, 7, 5 * r)
            round_ops = []
            for k, (name, space) in enumerate(cells):
                # cells k and k + 8 hold the same function: give them
                # different rules and regimes
                shift = k + k // 8
                params = {
                    "rule": _rotate(PRESET_CYCLE, shift, 1, r),
                    "level": _rotate(self.LEVELS, k, 3, r),
                    "resolution": _rotate(self.RESOLUTIONS, k, 5, 3 * r),
                    "panels": _rotate(self.PANELS, k, 7, 5 * r),
                    "p": None if shift % 2 == 0 else _scale(u_p[k], self.P),
                }
                a = _scale(u_a[k], self.START)
                round_ops.append(self._op(name, space, a, a + _scale(u_len[k], self.LENGTH), params))
            rng.shuffle(round_ops)
            ops.extend(round_ops)
        return ops

    def call(self, op: Op):
        cq = self.cq
        p = op.params
        regime = cq.L1 if p["p"] is None else cq.lp(p["p"])
        partition = cq.uniform_partition(cq.Interval(*op.interval), p["panels"])
        return cq.integrate_composite(
            self.function(op.function, op.space), cq.preset(p["rule"]), partition,
            regime, p["level"], p["resolution"],
        )


def _arg(x: float) -> str:
    """A float as a command-line argument: the digits of its repr, which
    parse back to the same float, in positional notation, since argparse
    takes ``-5e-05`` for an option but ``-0.00005`` for a number."""
    return format(decimal.Decimal(repr(x)), "f")


class CliReport:
    """``certquad.cli.main(argv)`` in-process, stdout captured and parsed.

    Besides the certificate, the check reads what the CLI took from its
    reference oracle: the printed ``oracle`` and its resolution, and every
    ``actual_error``, each against the exact integral.
    """

    name = "cli_report"
    round_size = 16  # 8 function cells x 2
    KINDS = ("single",) * 5 + ("composite",) * 7 + ("compare",) * 4
    OUTPUTS = ("json",) * 6 + ("csv",) * 5 + ("table",) * 5
    START = (-1.0, 1.0)
    LENGTH = (0.5, 2.0)
    ORACLE_RESOLUTION = 65536  # the CLI's default; the run clears its override

    def __init__(self, cq) -> None:
        self.cq = cq
        self.cli = cq.cli
        self._reference_fns: dict[tuple[str, str], object] = {}

    def functions(self):
        return []

    def inputs(self, rng: random.Random, rounds: int) -> list[Op]:
        ops = []
        for r in range(rounds):
            cells = _function_cells(r, 2, CERTIFIED_CYCLE)
            n = len(cells)
            u_len, u_a = _strata(rng, n, 3, r), _strata(rng, n, 5, 3 * r)
            round_ops = []
            for k, (name, space) in enumerate(cells):
                kind = _rotate(self.KINDS, k, 3, r)
                output = _rotate(self.OUTPUTS, k, 5, 3 * r)
                a = _scale(u_a[k], self.START)
                b = a + _scale(u_len[k], self.LENGTH)
                argv = ["--function", name, "--space", space, "--interval", _arg(a), _arg(b),
                        "--regime", "linf", "--output", output]
                params = {"kind": kind, "output": output}
                if kind == "compare":
                    params["rules"] = rng.sample(PRESET_CYCLE, 3 + (k + r) % 2)
                    argv = ["compare", *argv, "--rules", ",".join(params["rules"])]
                else:
                    shift = k + k // 8
                    params["panels"] = 1 if kind == "single" else 2 + (7 * k + 3 * r) % 15
                    mode = "single" if kind == "single" else f"composite:{params['panels']}"
                    argv = ["run", *argv, "--mode", mode,
                            "--rule", _rotate(PRESET_CYCLE, shift, 1, r),
                            "--level", str(2 + (shift + r) % 2), "--no-timing"]
                params["argv"] = argv
                round_ops.append(Op(f"{name}/{space}", name, space, (a, b), params,
                                    exact.exact_integral(name, space, a, b)))
            rng.shuffle(round_ops)
            ops.extend(round_ops)
        return ops

    def call(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(op.params["argv"])
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        return code, out.getvalue()

    def summarise(self, op: Op, result) -> tuple:
        return result

    def check(self, op: Op, record: tuple) -> Verdict:
        code, text = record
        if code != 0:  # no adaptive runs here, so 3 is wrong too
            return Verdict(True, f"exit code {code}")
        try:
            if op.params["kind"] == "compare":
                return self._check_compare(op, text)
            return self._check_run(op, text)
        except (ValueError, KeyError, IndexError, SyntaxError) as exc:
            return Verdict(True, f"unparsable output: {exc!r}")

    def _check_run(self, op: Op, text: str) -> Verdict:
        output = op.params["output"]
        want_panels = op.params["panels"]
        if output == "json":
            data = json.loads(text)
            cert = data["certificate"]
            approx = exact.flatten(data["approximation"])
            if data["panels"]["count"] != want_panels:
                return Verdict(True, f"panel count {data['panels']['count']}")
            if data["config"]["oracle_resolution"] != self.ORACLE_RESOLUTION:
                return Verdict(True, f"oracle resolution {data['config']['oracle_resolution']}")
            oracle_err = exact.error(op.space, exact.flatten(data["oracle"]), op.exact)
            tol = exact.oracle_tolerance(op.function, *op.interval)
            if oracle_err > tol * (1 + exact.norm(op.space, op.exact)):
                return Verdict(True, f"oracle off the exact integral by {float(oracle_err)!r}")
            if not _agrees_with_exact_error(op, approx, data["actual_error"]):
                return Verdict(True, f"actual_error {data['actual_error']!r} is not the exact error")
            verdict = _check_certificate(op, approx, cert["bound"], cert["certified"])
            verdict.converged = data["panels"]["converged"]
            return verdict
        if output == "table":
            fields = {}
            for line in text.splitlines():
                for key in ("approximation", "actual error", "bound", "panels"):
                    if line.startswith(key + " "):
                        fields[key] = line[len(key):].strip()
            approx = exact.flatten(ast.literal_eval(fields["approximation"]))
            bound_text, _, flag = fields["bound"].partition("certified=")
            count_text, _, conv = fields["panels"].partition("converged=")
            if int(count_text) != want_panels:
                return Verdict(True, f"panel count {count_text.strip()}")
            actual, actual_slack = _from_e6(fields["actual error"])
            if not _agrees_with_exact_error(op, approx, actual, actual_slack):
                return Verdict(True, f"actual error {fields['actual error']} is not the exact error")
            # the largest bound that prints as shown
            bound, bound_slack = _from_e6(bound_text)
            verdict = _check_certificate(op, approx, bound + bound_slack, flag.strip() == "True")
            verdict.converged = conv.strip() == "True"
            return verdict
        # csv: one row per panel, no approximation and no certified flag;
        # check the panels tile the interval and, since every registry
        # function has a sup envelope, that each panel's certified bound
        # covers the difference of the norms
        lines = text.strip().splitlines()
        if lines[0] != "panel_a,panel_b,approx_norm,panel_bound":
            return Verdict(True, "bad csv header")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if len(rows) != want_panels:
            return Verdict(True, f"panel count {len(rows)}")
        a, b = op.interval
        if rows[0][0] != a or rows[-1][1] != b or any(
            rows[i][1] != rows[i + 1][0] for i in range(len(rows) - 1)
        ):
            return Verdict(True, "panels do not tile the interval")
        for lo, hi, approx_norm, bound in rows:
            exact_norm = exact.norm(op.space, exact.exact_integral(op.function, op.space, lo, hi))
            if abs(exact.mpf(approx_norm) - exact_norm) > bound:
                return Verdict(True, f"panel [{lo}, {hi}] bound {bound!r} violated")
        return Verdict(False)

    def _reference_function(self, op: Op):
        key = (op.function, op.space)
        if key not in self._reference_fns:
            self._reference_fns[key] = self.cq.make_function(op.function, op.space)
        return self._reference_fns[key]

    def _check_compare(self, op: Op, text: str) -> Verdict:
        output = op.params["output"]
        rules = op.params["rules"]
        fn = self._reference_function(op)
        # rows of (rule, bound, its print slack, actual_error, its print
        # slack, certified flag or None when the output does not say)
        if output == "json":
            rows = json.loads(text)["rows"]
            table = [(r["rule"], r["bound"], 0, r["actual_error"], 0, r["certified"])
                     for r in rows]
        elif output == "csv":
            table = []
            for line in text.strip().splitlines()[1:]:
                rule, _, bound, actual, certified = line.split(",")
                table.append((rule, float(bound), 0, float(actual), 0, certified == "true"))
        else:
            table = []
            for line in text.strip().splitlines()[2:]:
                rule, _, bound, actual = line.split()
                table.append((rule, *_from_e6(bound), *_from_e6(actual), None))
        if sorted(row[0] for row in table) != sorted(rules):
            return Verdict(True, "compare rows do not match the requested rules")
        bounds = [row[1] for row in table]
        if bounds != sorted(bounds):
            return Verdict(True, "compare rows not sorted by bound")
        interval = self.cq.Interval(*op.interval)
        ratios = []
        for rule, bound, bound_slack, actual, actual_slack, certified in table:
            # the exact reference of each row: the rule applied again,
            # untimed, and compared with the exact integral
            approx = exact.flatten(self.cq.apply_rule(fn, self.cq.preset(rule), interval))
            if not _agrees_with_exact_error(op, approx, actual, actual_slack):
                return Verdict(True, f"{rule}: actual error {actual!r} is not the exact error")
            # a linf seminorm from a sup envelope is certified, and the
            # table has no flag column
            row = _check_certificate(op, approx, bound + bound_slack,
                                     fn.df_sup is not None if certified is None else certified)
            if row.failed:
                return Verdict(True, f"{rule}: {row.reason}", certified=row.certified)
            ratios += row.ratios
        flags = [row[5] for row in table]
        return Verdict(False, certified=None if None in flags else all(flags), ratios=ratios)


WORKLOADS = {cls.name: cls for cls in (AdaptiveLinf, CompositeLp, CliReport)}
