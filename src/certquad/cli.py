"""Command-line front end.

Two operations share one binary:

- ``run``: apply one rule to one registry function and report the
  approximation, a reference value, the measured error, and the requested
  certificate.
- ``compare``: rank several rules on the same problem by their level-3
  certificate.

JSON output is deterministic: floats are printed with 17 significant
digits (enough to reproduce each double bit for bit), keys keep insertion
order, and the only non-reproducible field, wall-clock ``timing_s``, can
be dropped with ``--no-timing``.

Exit codes: 0 success, 1 failed ``--self-check``, 2 validation error
(unknown names, bad parameters, malformed flags, arithmetic overflow on
extreme inputs), 3 adaptive run that failed to converge within the panel
budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from decimal import Decimal
from typing import Any

from .bounds import bound_level3, level3_factor
from .engine import (
    DEFAULT_MAX_PANELS,
    apply_rule,
    integrate_adaptive,
    integrate_composite,
    oracle_integral,
)
from .functions import FUNCTION_NAMES, SPACES, make_function
from .geometry import L1, LINF, Interval, NormRegime, lp, uniform_partition
from .rules import PRESET_NAMES, QuadratureRule, preset
from .seminorms import DEFAULT_RESOLUTION, seminorm

__all__ = ["RunConfig", "run", "compare_rules", "main"]

_DEFAULT_ORACLE_RESOLUTION = 65536
_SCHEMA = 2
_ORACLE_ENV = "QUAD_ORACLE_RESOLUTION"


def parse_rule_spec(spec: str) -> QuadratureRule:
    """``NAME`` or ``NAME:p1,p2,...`` into a preset rule."""
    name, _, raw = spec.partition(":")
    name = name.strip().lower()
    if not raw:
        return preset(name)
    try:
        params = tuple(float(p) for p in raw.split(","))
    except ValueError:
        raise ValueError(f"malformed rule parameters in {spec!r}") from None
    return preset(name, *params)


def parse_regime_spec(spec: str) -> NormRegime:
    """``l1``, ``lp:P`` or ``linf`` into a :class:`NormRegime`."""
    s = spec.strip().lower()
    if s == "l1":
        return L1
    if s == "linf":
        return LINF
    if s.startswith("lp:"):
        try:
            return lp(float(s[3:]))
        except ValueError as exc:
            raise ValueError(f"malformed regime {spec!r}: {exc}") from None
    raise ValueError(f"unknown regime {spec!r}; expected l1, lp:P or linf")


def _oracle_resolution(value: int | None) -> int:
    """``value`` if given, else ``QUAD_ORACLE_RESOLUTION``, else 65,536."""
    if value is not None:
        return value
    raw = os.environ.get(_ORACLE_ENV)
    if raw is None:
        return _DEFAULT_ORACLE_RESOLUTION
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_ORACLE_ENV} must be an integer, got {raw!r}") from None


@dataclasses.dataclass
class RunConfig:
    """Everything a ``run`` needs; the CLI reads its flags' defaults from here."""

    function: str
    space: str | None = None
    interval: tuple[float, float] = (0.0, 1.0)
    rule: str = "trapezoid"
    regime: str = "linf"
    level: int = 2
    mode: str = "single"
    resolution: int = DEFAULT_RESOLUTION
    max_panels: int = DEFAULT_MAX_PANELS
    oracle_resolution: int | None = None
    self_check: bool = False
    include_timing: bool = True


def _mode_dispatch(config: RunConfig, fn, rule, interval, regime):
    mode, _, param = config.mode.partition(":")
    mode = mode.strip().lower()
    if mode == "single":
        if param:
            raise ValueError("mode 'single' takes no parameter")
        mode, param = "composite", "1"
    if mode == "composite":
        try:
            panels = int(param)
        except ValueError:
            raise ValueError(f"mode 'composite' needs a panel count, got {param!r}") from None
        if panels < 1:
            raise ValueError(f"composite panel count must be >= 1, got {panels}")
        partition = uniform_partition(interval, panels)
        return integrate_composite(
            fn, rule, partition, regime, config.level, config.resolution
        )
    if mode == "adaptive":
        try:
            tol = float(param)
        except ValueError:
            raise ValueError(f"mode 'adaptive' needs a tolerance, got {param!r}") from None
        # the adaptive driver is built on level-2 panel certificates; the
        # requested level is ignored and the report says level 2
        return integrate_adaptive(
            fn, rule, interval, regime, tol, config.max_panels, config.resolution
        )
    raise ValueError(f"unknown mode {config.mode!r}; expected single, composite:M or adaptive:TOL")


def run(config: RunConfig) -> dict[str, Any]:
    """Execute one run and return its report, ready for serialisation."""
    started = time.perf_counter()
    fn = make_function(config.function, config.space)
    rule = parse_rule_spec(config.rule)
    regime = parse_regime_spec(config.regime)
    a, b = config.interval
    interval = Interval(float(a), float(b))
    if config.level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2 or 3, got {config.level}")
    if config.resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {config.resolution}")

    result = _mode_dispatch(config, fn, rule, interval, regime)

    oracle_resolution = _oracle_resolution(config.oracle_resolution)
    reference = oracle_integral(fn, interval, oracle_resolution)
    space = fn.space
    actual_error = space.norm(space.subtract(result.approximation, reference))

    cert = result.certificate
    panel_rows = [
        [panel.a, panel.b, space.norm(value), panel_cert.bound]
        for (panel, panel_cert), value in zip(result.panels, result.panel_values)
    ]

    elapsed = time.perf_counter() - started
    data: dict[str, Any] = {
        "schema": _SCHEMA,
        "config": {
            "function": fn.name,
            "space": space.label,
            "interval": [interval.a, interval.b],
            "rule": config.rule,
            "regime": regime.label,
            "level": cert.level,
            "mode": config.mode,
            "resolution": config.resolution,
            "max_panels": config.max_panels,
            "oracle_resolution": oracle_resolution,
        },
        "approximation": space.to_components(result.approximation),
        "oracle": space.to_components(reference),
        "actual_error": actual_error,
        "certificate": {
            "bound": cert.bound,
            "level": cert.level,
            "regime": cert.regime.label,
            "certified": cert.certified,
            "rule": cert.rule_name,
            "segment_contributions": list(cert.segment_contributions),
        },
        "panels": {
            "count": len(result.panels),
            "converged": result.converged,
            "rows": panel_rows,
        },
        "evaluations": result.evaluations,
    }
    if config.include_timing:
        data["timing_s"] = elapsed

    if config.self_check and cert.certified and not actual_error <= cert.bound:
        raise AssertionError(
            f"self-check failed: actual error {actual_error!r} exceeds "
            f"certified bound {cert.bound!r}"
        )
    return data


def compare_rules(
    function_name: str,
    interval: Interval,
    regime: NormRegime,
    rules,
    space: str | None = None,
    resolution: int = DEFAULT_RESOLUTION,
    oracle_resolution: int | None = None,
) -> list[dict[str, Any]]:
    """One row per rule, sorted by level-3 certificate (ascending, stable).

    The ``constant`` column is the level-3 geometry factor on the unit
    interval, ``level3_factor(rule, Interval(0, 1), regime)``.
    """
    if not rules:
        raise ValueError("no rules to compare")
    fn = make_function(function_name, space)
    space_obj = fn.space
    reference = oracle_integral(fn, interval, _oracle_resolution(oracle_resolution))
    unit = Interval(0.0, 1.0)
    estimate = seminorm(fn, interval, regime, resolution)

    rows = []
    for spec in rules:
        rule = parse_rule_spec(spec) if isinstance(spec, str) else spec
        cert = bound_level3(estimate, rule, interval)
        approx = apply_rule(fn, rule, interval)
        rows.append(
            {
                "rule": spec if isinstance(spec, str) else rule.name,
                "constant": level3_factor(rule, unit, regime),
                "bound": cert.bound,
                "actual_error": space_obj.norm(space_obj.subtract(approx, reference)),
                "certified": cert.certified,
            }
        )
    rows.sort(key=lambda row: row["bound"])
    return rows


def _finite(x):
    """``x`` unchanged; ``ValueError`` when it is an inf or nan float or a
    list or dict holding one at any depth, since no report prints one."""
    if isinstance(x, (list, dict)):
        for value in x.values() if isinstance(x, dict) else x:
            _finite(value)
    elif isinstance(x, float) and not math.isfinite(x):
        raise ValueError("nonfinite value in report")
    return x


def _format_float(x: float) -> str:
    s = format(_finite(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def dumps_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(obj, float):
        return _format_float(obj)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)  # None, bools, strings, ints, empty containers
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        parts = [f"{inner}{json.dumps(str(key))}: {dumps_json(v, indent + 1)}"
                 for key, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    rendered = [dumps_json(v, indent + 1) for v in obj]
    if all(not isinstance(v, (dict, list, tuple)) for v in obj):
        return "[" + ", ".join(rendered) + "]"
    return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"


def _emit_run(report: dict[str, Any], output: str) -> str:
    _finite(report)  # so every output refuses the same reports
    if output == "json":
        return dumps_json(report)
    if output == "csv":
        lines = ["panel_a,panel_b,approx_norm,panel_bound"]
        for row in report["panels"]["rows"]:
            lines.append(",".join(_format_float(float(v)) for v in row))
        return "\n".join(lines)
    if output == "table":
        cert = report["certificate"]
        lines = [
            f"function      {report['config']['function']} in {report['config']['space']}",
            f"interval      [{report['config']['interval'][0]}, {report['config']['interval'][1]}]",
            f"rule          {report['config']['rule']}",
            f"regime/level  {cert['regime']} / {cert['level']}",
            f"mode          {report['config']['mode']}",
            f"approximation {report['approximation']}",
            f"actual error  {report['actual_error']:.6e}",
            f"bound         {cert['bound']:.6e}  certified={cert['certified']}",
            f"panels        {report['panels']['count']}  converged={report['panels']['converged']}",
        ]
        return "\n".join(lines)
    raise ValueError(f"unknown output mode {output!r}")


def _emit_compare(rows: list[dict[str, Any]], output: str) -> str:
    _finite(rows)  # so every output refuses the same rows
    if output == "json":
        return dumps_json({"schema": _SCHEMA, "rows": rows})
    if output == "csv":
        lines = ["rule,constant,bound,actual_error,certified"]
        for row in rows:
            # a rule spec holding a comma is quoted, as the csv module reads it
            rule = f'"{row["rule"]}"' if "," in row["rule"] else row["rule"]
            numbers = [_format_float(row[key]) for key in ("constant", "bound", "actual_error")]
            lines.append(",".join([rule, *numbers, str(row["certified"]).lower()]))
        return "\n".join(lines)
    if output == "table":
        header = f"{'rule':<28} {'constant':>14} {'bound':>14} {'actual':>14}"
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row['rule']:<28} {row['constant']:>14.6e} "
                f"{row['bound']:>14.6e} {row['actual_error']:>14.6e}"
            )
        return "\n".join(lines)
    raise ValueError(f"unknown output mode {output!r}")


@functools.cache  # parsing leaves the parser as it was, so build it once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certquad",
        description="Certified quadrature: convex-combination rules with error certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags run and compare share; defaults are RunConfig's
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--function", required=True,
                        help=f"registry function ({', '.join(FUNCTION_NAMES)})")
    shared.add_argument("--space", default=RunConfig.space,
                        help=f"space label for const/affine ({', '.join(SPACES)})")
    shared.add_argument("--interval", nargs=2, type=float, default=RunConfig.interval,
                        metavar=("A", "B"))
    shared.add_argument("--regime", default=RunConfig.regime, help="l1, lp:P or linf")
    shared.add_argument("--resolution", type=int, default=RunConfig.resolution,
                        help="seminorm quadrature panels / sup sample count")
    shared.add_argument("--output", default="table", choices=("json", "csv", "table"))

    run_p = sub.add_parser("run", parents=[shared], help="integrate one function with one rule")
    run_p.add_argument("--rule", default=RunConfig.rule,
                       help=f"preset rule, NAME or NAME:params ({', '.join(PRESET_NAMES)})")
    run_p.add_argument("--level", type=int, default=RunConfig.level, choices=(1, 2, 3),
                       help="certificate level (adaptive mode always reports level 2)")
    run_p.add_argument("--mode", default=RunConfig.mode, help="single, composite:M or adaptive:TOL")
    run_p.add_argument("--max-panels", type=int, default=RunConfig.max_panels,
                       help="adaptive panel budget")
    run_p.add_argument("--self-check", action="store_true",
                       help="assert actual error <= bound for certified certificates")
    run_p.add_argument("--no-timing", dest="include_timing", action="store_false",
                       help="omit wall-clock timing from the report (reproducible output)")

    cmp_p = sub.add_parser("compare", parents=[shared], help="rank rules by level-3 certificate")
    cmp_p.add_argument("--rules", required=True,
                       help="comma-separated rule specs, e.g. trapezoid,qt,simpson")
    return parser


def _rule_specs(text: str) -> list[str]:
    """The specs in ``--rules``: rule names start with a letter, so a part that
    starts like a number continues the ``NAME:p1,...`` spec before it."""
    specs: list[str] = []
    for part in filter(None, (s.strip() for s in text.split(","))):
        if specs and ":" in specs[-1] and part[0] in "+-.0123456789":
            specs[-1] += "," + part
        else:
            specs.append(part)
    return specs


# a negative number in exponent form, which argparse takes for an option;
# main writes it in positional notation, which reads back as the same float
# (three exponent digits cover the doubles and keep that notation short)
_NEGATIVE_EXPONENT = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][+-]?\d{1,3}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")  # bare flag style defaults to the run command
    argv = [format(Decimal(s), "f") if _NEGATIVE_EXPONENT.fullmatch(s) else s for s in argv]
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "run":
            names = {field.name for field in dataclasses.fields(RunConfig)}
            report = run(RunConfig(**{k: v for k, v in vars(args).items() if k in names}))
            print(_emit_run(report, args.output))
            return 0 if report["panels"]["converged"] else 3
        rows = compare_rules(
            args.function,
            Interval(args.interval[0], args.interval[1]),
            parse_regime_spec(args.regime),
            _rule_specs(args.rules),
            space=args.space,
            resolution=args.resolution,
        )
        print(_emit_compare(rows, args.output))
        return 0
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # overflow and the like on extreme inputs: a validation error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
