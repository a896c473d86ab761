"""CLI contract: spec parsing, report content, serialisation, exit codes."""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import zlib

import pytest

import certquad.cli as cli
from certquad import FUNCTION_NAMES, LINF, SPACES, Interval, preset
from certquad.cli import (
    RunConfig,
    compare_rules,
    dumps_json,
    main,
    parse_regime_spec,
    parse_rule_spec,
    run,
)


def _cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("QUAD_ORACLE_RESOLUTION", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "certquad", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestSpecParsing:
    def test_plain_rule_name(self):
        assert parse_rule_spec("qt") == preset("qt")

    def test_rule_with_params(self):
        assert parse_rule_spec("ostrowski:0.3") == preset("ostrowski", 0.3)
        assert parse_rule_spec("quarter_points: 0.25") == preset("quarter_points", 0.25)

    def test_rule_name_normalised(self):
        assert parse_rule_spec("  Simpson ") == preset("simpson")

    def test_rule_trailing_colon_means_defaults(self):
        assert parse_rule_spec("qs:") == preset("qs")

    def test_rule_malformed_params(self):
        with pytest.raises(ValueError, match="malformed rule parameters"):
            parse_rule_spec("ostrowski:a,b")

    def test_rule_unknown_name(self):
        with pytest.raises(ValueError, match="gauss"):
            parse_rule_spec("gauss")

    def test_regimes(self):
        assert parse_regime_spec("l1").label == "l1"
        assert parse_regime_spec(" LINF ").label == "linf"
        assert parse_regime_spec("lp:2").label == "lp:2"
        assert parse_regime_spec("lp:2.5").p == 2.5

    def test_rules_list_keeps_rule_parameters(self):
        specs = "qt, endpoints_midpoint:0.1,0.3,,simpson,three_point:.2,+.5,-0.1,0.4,9e-1"
        assert cli._rule_specs(specs) == [
            "qt", "endpoints_midpoint:0.1,0.3", "simpson", "three_point:.2,+.5,-0.1,0.4,9e-1"
        ]

    def test_regime_malformed(self):
        with pytest.raises(ValueError, match="malformed regime"):
            parse_regime_spec("lp:abc")
        with pytest.raises(ValueError, match="unknown regime"):
            parse_regime_spec("l2")
        with pytest.raises(ValueError):
            parse_regime_spec("lp:1.0")  # exponent must exceed 1


class TestRunReports:
    def test_exp_qt_linf_level3(self):
        data = run(
            RunConfig(
                function="exp",
                rule="qt",
                regime="linf",
                level=3,
                oracle_resolution=16384,
                include_timing=False,
            )
        )
        cert = data["certificate"]
        # certified sup of exp' on [0,1] is e; qt geometry factor is 1/8
        assert cert["bound"] == pytest.approx(math.e / 8.0, rel=1e-14)
        assert cert["certified"] is True
        assert cert["level"] == 3 and cert["regime"] == "linf"
        assert data["actual_error"] == pytest.approx(0.0177691118, rel=1e-6)
        assert data["actual_error"] <= cert["bound"]
        assert data["evaluations"] == 2
        assert "timing_s" not in data

    def test_quadratic_simpson_exact(self):
        data = run(
            RunConfig(
                function="quadratic",
                rule="simpson",
                regime="linf",
                level=3,
                oracle_resolution=4096,
                include_timing=False,
            )
        )
        assert data["certificate"]["bound"] == pytest.approx(5.0 / 18.0, rel=1e-14)
        assert data["actual_error"] <= 1e-14
        # approximation is emitted as a component list, scalar included
        assert data["approximation"] == [pytest.approx(1.0 / 3.0, rel=1e-15)]

    def test_const_vanishing_derivative(self):
        data = run(
            RunConfig(
                function="const",
                space="r3",
                interval=(0.0, 2.0),
                rule="trapezoid",
                regime="l1",
                level=2,
                oracle_resolution=1024,
                include_timing=False,
            )
        )
        assert data["actual_error"] == 0.0
        assert data["certificate"]["bound"] == 0.0
        assert data["certificate"]["certified"] is False  # l1 seminorm is sampled
        assert data["config"]["space"] == "r3"

    def test_adaptive_reports_level_2(self):
        report = run(
            RunConfig(
                function="exp",
                rule="qt",
                regime="linf",
                level=3,
                mode="adaptive:1e-2",
                oracle_resolution=4096,
                include_timing=False,
            )
        )
        assert report["certificate"]["level"] == 2
        assert report["panels"]["converged"] is True

    def test_timing_included_by_default(self):
        report = run(RunConfig(function="exp", oracle_resolution=1024))
        assert isinstance(report["timing_s"], float)

    def test_env_oracle_resolution(self, monkeypatch):
        monkeypatch.setenv("QUAD_ORACLE_RESOLUTION", "4096")
        report = run(RunConfig(function="exp", include_timing=False))
        assert report["config"]["oracle_resolution"] == 4096

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            run(RunConfig(function="exp", mode="single:3", oracle_resolution=1024))
        with pytest.raises(ValueError, match="panel count"):
            run(RunConfig(function="exp", mode="composite:x", oracle_resolution=1024))
        with pytest.raises(ValueError, match=">= 1"):
            run(RunConfig(function="exp", mode="composite:0", oracle_resolution=1024))
        with pytest.raises(ValueError, match="unknown mode"):
            run(RunConfig(function="exp", mode="refine", oracle_resolution=1024))
        with pytest.raises(ValueError, match="level"):
            run(RunConfig(function="exp", level=4, oracle_resolution=1024))

    def test_self_check_passes_quietly(self):
        report = run(
            RunConfig(
                function="exp",
                rule="qt",
                regime="linf",
                level=2,
                oracle_resolution=4096,
                self_check=True,
                include_timing=False,
            )
        )
        assert report["certificate"]["certified"] is True


class TestJson:
    def test_round_trip(self):
        report = run(
            RunConfig(
                function="trig_circle",
                rule="qs",
                mode="composite:3",
                oracle_resolution=4096,
                include_timing=False,
            )
        )
        text = dumps_json(report)
        assert json.loads(text) == report

    def test_float_formatting(self):
        assert dumps_json(0.1) == "0.10000000000000001"
        assert dumps_json(1.0) == "1.0"
        assert dumps_json(0.5) == "0.5"
        assert dumps_json(1e300) == "1.0000000000000001e+300"

    def test_scalars_and_containers(self):
        assert dumps_json(None) == "null"
        assert dumps_json(True) == "true"
        assert dumps_json(False) == "false"
        assert dumps_json(7) == "7"
        assert dumps_json([]) == "[]"
        assert dumps_json({}) == "{}"
        assert dumps_json([1.0, 2.0]) == "[1.0, 2.0]"

    def test_key_order_preserved(self):
        out = dumps_json({"b": 1, "a": 2})
        assert out.index('"b"') < out.index('"a"')

    def test_keys_are_escaped(self):
        # a quote, a backslash, a control character and a non-ASCII letter
        obj = {'a"b': 1, "c\\d": [2.5], "e\nf": {"\u00e9": None}}
        text = dumps_json(obj)
        assert json.loads(text) == obj
        assert '"a\\"b": 1' in text and '"\\u00e9": null' in text

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="nonfinite"):
            dumps_json(float("nan"))
        with pytest.raises(ValueError, match="nonfinite"):
            dumps_json({"x": float("inf")})

    def test_unserialisable_type(self):
        with pytest.raises(TypeError):
            dumps_json(object())
        with pytest.raises(TypeError):
            dumps_json({1, 2})

    @pytest.mark.parametrize("obj, text", [
        ({}, "{}"),
        ([], "[]"),
        ((), "[]"),
        ([[1, [2.5, []]], {"k": ()}],
         '[\n  [\n    1,\n    [\n      2.5,\n      []\n    ]\n  ],\n  {\n    "k": []\n  }\n]'),
        ("\u00b5\u2013\u00ff \u2713", '"\\u00b5\\u2013\\u00ff \\u2713"'),
        (2 ** 80, "1208925819614629174706176"),
        (-0.0, "-0.0"),
        ({"a": [None, True, "x", 3, -0.0], "b": {}, "c": [{}, []]},
         '{\n  "a": [null, true, "x", 3, -0.0],\n  "b": {},\n  "c": [\n    {},\n    []\n  ]\n}'),
    ])
    def test_pinned_bytes(self, obj, text):
        # bytes recorded when every scalar had its own branch
        assert dumps_json(obj) == text

    def test_deterministic(self):
        payload = {"a": [0.1, 0.2], "b": {"c": 3, "d": None}}
        assert dumps_json(payload) == dumps_json(payload)


class TestCompare:
    def test_ranking_exp_linf(self):
        rows = compare_rules(
            "exp",
            Interval(0.0, 1.0),
            LINF,
            ["trapezoid", "qt", "qs", "simpson"],
            oracle_resolution=16384,
        )
        # linf constants: qt == qs == 1/8 < simpson 5/36 < trapezoid 1/4
        assert [r["rule"] for r in rows] == ["qt", "qs", "simpson", "trapezoid"]
        bounds = [r["bound"] for r in rows]
        assert bounds == sorted(bounds)
        assert rows[0]["constant"] == pytest.approx(0.125, rel=1e-14)
        assert rows[2]["constant"] == pytest.approx(5.0 / 36.0, rel=1e-14)
        assert rows[-1]["constant"] == pytest.approx(0.25, rel=1e-14)

    def test_tie_preserves_input_order(self):
        # qt and qs share the linf constant 1/8, so their bounds tie exactly
        forward = compare_rules(
            "exp", Interval(0.0, 1.0), LINF, ["qt", "qs"], oracle_resolution=4096
        )
        backward = compare_rules(
            "exp", Interval(0.0, 1.0), LINF, ["qs", "qt"], oracle_resolution=4096
        )
        assert [r["rule"] for r in forward] == ["qt", "qs"]
        assert [r["rule"] for r in backward] == ["qs", "qt"]
        assert forward[0]["bound"] == backward[0]["bound"]

    def test_errors_bounded(self):
        rows = compare_rules(
            "exp",
            Interval(0.0, 1.0),
            LINF,
            ["trapezoid", "simpson"],
            oracle_resolution=16384,
        )
        for row in rows:
            assert row["actual_error"] <= row["bound"]
            assert row["certified"] is True


class TestMainInProcess:
    def test_bare_flags_default_to_run(self, capsys):
        rc = main(
            ["--function", "exp", "--output", "json", "--no-timing"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["mode"] == "single"

    def test_assertion_exit_code(self, capsys, monkeypatch):
        def boom(config):
            raise AssertionError("self-check failed: fabricated")

        monkeypatch.setattr(cli, "run", boom)
        rc = main(["run", "--function", "exp"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["single", "composite:3"])
    @pytest.mark.parametrize(
        "function, cause",
        [("exp", "sup-envelope of exp returned inf"),
         ("const", "nonfinite Simpson sum over [-1e+308, 1e+308]")],
    )
    def test_overflowing_interval_length(self, capsys, function, cause, mode):
        # b - a overflows; the partition must not be the one blamed
        rc = main(["run", "--function", function, "--interval", " -1e308", "1e308",
                   "--mode", mode, "--no-timing"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cause}\n"

    @pytest.mark.parametrize("output", ["json", "csv", "table"])
    @pytest.mark.parametrize(
        "argv",
        [["run", "--function", "matrix_path", "--interval", "0", "1e300", "--level", "1",
          "--resolution", "16", "--no-timing"],
         ["compare", "--function", "trig_circle", "--interval", "0", "1e307",
          "--rules", "qt,simpson"],
         ["run", "--function", "trig_circle", "--interval", " -1e155", "1e155",
          "--regime", "l1", "--mode", "adaptive:1e-3", "--resolution", "64",
          "--max-panels", "16", "--no-timing"]],
        ids=["run", "compare", "adaptive"],
    )
    def test_overflowed_bound_is_refused_in_every_output(self, capsys, argv, output):
        # the bound overflows to inf (level 1 on [0, 1e300]; the level-3
        # factor on [0, 1e307]; the sum of 16 finite panel bounds on
        # [-1e155, 1e155]), which no output mode prints, csv included,
        # although its panel rows are finite
        assert main([*argv, "--output", output]) == 2
        assert capsys.readouterr() == ("", "error: nonfinite value in report\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("output", ["json", "csv", "table"])
    @pytest.mark.parametrize("regime", ["linf", "lp:1.5"])
    def test_overflowing_panel_norm(self, capsys, regime, output):
        # a panel value's norm passes the float range (an inf entry beside
        # a huge one under linf, finite entries under lp:1.5): no numpy
        # warning escapes, and no output prints the inf
        rc = main(["run", "--function", "affine", "--space", "c2",
                   "--interval", " -1e155", "1e155", "--rule", "simpson", "--level", "1",
                   "--mode", "adaptive:1e-3", "--resolution", "16", "--max-panels", "32",
                   "--regime", regime, "--output", output, "--no-timing"])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: nonfinite value in report\n")

    @pytest.mark.parametrize("mode", ["single", "composite:3", "adaptive:1e-3"])
    def test_overflowing_sample(self, capsys, mode):
        # affine's samples overflow at the ends; the rule pass must not let
        # numpy's overflow warning escape before the oracle reports them
        rc = main(["run", "--function", "affine", "--interval", " -1e308", "1e308",
                   "--mode", mode, "--no-timing"])
        assert rc == 2
        assert capsys.readouterr().err == "error: nonfinite sample at t=-1e+308\n"

    @pytest.mark.parametrize("extra", [[], ["--level", "3"], ["--mode", "composite:4"]],
                             ids=["level2", "level3", "composite"])
    def test_lp_seminorm_past_the_power_range(self, capsys, extra):
        # exp(t)**2 overflows on [355, 356]; the L2 seminorm does not
        rc = main(["run", "--function", "exp", "--interval", "355", "356",
                   "--regime", "lp:2", "--no-timing", *extra])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_compare_needs_a_rule(self, capsys, monkeypatch):
        def boom(*args):
            raise AssertionError("the oracle ran for an empty comparison")

        monkeypatch.setattr(cli, "oracle_integral", boom)
        rc = main(["compare", "--function", "exp", "--rules", ",", "--output", "json"])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: no rules to compare\n")

    def test_invalid_env_resolution(self, capsys, monkeypatch):
        monkeypatch.setenv("QUAD_ORACLE_RESOLUTION", "many")
        rc = main(["run", "--function", "exp", "--output", "json"])
        assert rc == 2
        assert "QUAD_ORACLE_RESOLUTION" in capsys.readouterr().err

    def test_csv_run_output(self, capsys):
        rc = main(
            [
                "run",
                "--function",
                "exp",
                "--mode",
                "composite:4",
                "--output",
                "csv",
                "--no-timing",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "panel_a,panel_b,approx_norm,panel_bound"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "0.25"

    def test_table_run_output(self, capsys):
        rc = main(["run", "--function", "exp", "--rule", "qt", "--no-timing"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bound" in out and "converged=True" in out

    def test_compare_csv(self, capsys):
        rc = main(
            [
                "compare",
                "--function",
                "exp",
                "--rules",
                "trapezoid,qt",
                "--output",
                "csv",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rule,constant,bound,actual_error,certified"
        assert len(lines) == 3
        assert lines[1].endswith("true") or lines[1].endswith("false")

    def test_compare_rule_with_two_parameters(self, capsys):
        argv = ["compare", "--function", "exp", "--rules", "qt,endpoints_midpoint:0.1,0.3"]
        out = {}
        for output in ("json", "csv", "table"):
            assert main([*argv, "--output", output]) == 0
            out[output] = capsys.readouterr().out
        rules = ["endpoints_midpoint:0.1,0.3", "qt"]
        assert sorted(row["rule"] for row in json.loads(out["json"])["rows"]) == rules
        rows = list(csv.reader(io.StringIO(out["csv"])))
        assert [len(row) for row in rows] == [5, 5, 5]
        assert sorted(row[0] for row in rows[1:]) == rules
        assert sorted(line.split()[0] for line in out["table"].splitlines()[2:]) == rules

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("a", ["-1e-3", "-1E-3", "-.1e-2", "-1.e-3", "-0.01e-1"])
    def test_negative_endpoint_in_exponent_form(self, capsys, a, command):
        # argparse alone reads these as options: "expected 2 arguments"
        extra = ["--rules", "qt"] if command == "compare" else ["--no-timing"]
        rc = main([command, "--function", "exp", "--interval", a, "1e0", "--output", "json",
                   *extra])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        if command == "run":
            assert data["config"]["interval"] == [-1e-3, 1.0]

    def test_compare_table(self, capsys):
        rc = main(
            ["compare", "--function", "exp", "--rules", "simpson,trapezoid"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rule" in out and "simpson" in out


class TestSubprocess:
    def test_run_json_ok(self):
        proc = _cli(
            "run",
            "--function",
            "exp",
            "--rule",
            "qt",
            "--regime",
            "linf",
            "--level",
            "3",
            "--output",
            "json",
            "--no-timing",
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert "timing_s" not in data
        assert data["certificate"]["bound"] == pytest.approx(math.e / 8.0, rel=1e-14)

    def test_no_timing_bitwise_reproducible(self):
        args = (
            "run",
            "--function",
            "trig_circle",
            "--rule",
            "qs",
            "--mode",
            "composite:5",
            "--regime",
            "lp:2",
            "--output",
            "json",
            "--no-timing",
        )
        first = _cli(*args)
        second = _cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_timing_present_without_flag(self):
        proc = _cli("run", "--function", "exp", "--output", "json")
        assert proc.returncode == 0
        assert "timing_s" in json.loads(proc.stdout)

    def test_unknown_function_exit_2(self):
        proc = _cli("run", "--function", "nosuch", "--output", "json")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_bad_regime_exit_2(self):
        proc = _cli("run", "--function", "exp", "--regime", "l3")
        assert proc.returncode == 2

    def test_reversed_interval_exit_2(self):
        proc = _cli("run", "--function", "exp", "--interval", "1", "0")
        assert proc.returncode == 2

    def test_exp_overflow_exit_2(self):
        proc = _cli("run", "--function", "exp", "--interval", "0", "800")
        assert proc.returncode == 2
        assert proc.stderr == "error: sup-envelope of exp returned inf\n"
        assert "Traceback" not in proc.stderr

    def test_quadratic_huge_interval_exit_2(self):
        # the level-3 factor overflows to inf; the oracle's samples do too
        proc = _cli(
            "run", "--function", "quadratic", "--interval", "0", "1e200", "--level", "3"
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: nonfinite sample")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mode", ["composite:8", "adaptive:1e300"])
    def test_infinite_bound_exit_2(self, mode):
        # level-2 factors overflow to inf and the report refuses to print it
        proc = _cli(
            "run", "--function", "trig_circle", "--rule", "qt",
            "--interval", " -1e155", "1e155", "--mode", mode, "--max-panels", "2",
            "--output", "json",
        )
        assert proc.returncode == 2
        assert proc.stderr.endswith("error: nonfinite value in report\n")
        assert "Traceback" not in proc.stderr

    def test_adaptive_budget_exit_3(self):
        proc = _cli(
            "run",
            "--function",
            "exp",
            "--mode",
            "adaptive:1e-12",
            "--max-panels",
            "4",
            "--output",
            "json",
            "--no-timing",
        )
        assert proc.returncode == 3
        data = json.loads(proc.stdout)  # report still emitted, just flagged
        assert data["panels"]["converged"] is False
        assert data["panels"]["count"] == 4

    def test_compare_json(self):
        proc = _cli(
            "compare",
            "--function",
            "exp",
            "--rules",
            "trapezoid,qt,simpson",
            "--output",
            "json",
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["schema"] == 2
        assert len(data["rows"]) == 3


class TestExtremeGrid:
    """A seeded grid of ``main`` calls on extreme intervals: every command
    ends with exit code 0, 2 or 3, never with an ``OverflowError`` or its
    errno text, and json, csv and table refuse the same commands with the
    same message.  Rule and space are drawn per command from a generator
    seeded by the cell."""

    INTERVALS = [(-1e308, 1e308), (0.0, 1e307), (-1e155, 1e155), (1e-300, 2e-300),
                 (1e15, 1e15 + 1)]
    REGIMES = ("l1", "lp:2", "lp:1.01", "linf")
    MODES = ("single", "composite:3", "adaptive:1e-3")
    RULES = (*sorted(set(cli.PRESET_NAMES) - {"three_point"}), "ostrowski:0.3",
             "quarter_points:0.8", "endpoints_midpoint:0.1,0.3",
             "three_point:0.2,0.5,0.1,0.4,0.9")

    @pytest.mark.parametrize("interval", INTERVALS, ids=lambda iv: f"[{iv[0]!r},{iv[1]!r}]")
    @pytest.mark.parametrize("function", FUNCTION_NAMES)
    def test_cell(self, capsys, monkeypatch, function, interval):
        monkeypatch.setenv("QUAD_ORACLE_RESOLUTION", "256")
        rng = random.Random(zlib.crc32(f"{function} {interval!r}".encode()))
        for regime in self.REGIMES:
            for level in (1, 2, 3):
                for mode in self.MODES:
                    argv = ["run", "--function", function,
                            "--interval", *map(repr, interval),
                            "--rule", rng.choice(self.RULES), "--regime", regime,
                            "--level", str(level), "--mode", mode, "--resolution", "64",
                            "--max-panels", "16", "--no-timing"]
                    if function in ("const", "affine"):
                        argv += ["--space", rng.choice(sorted(SPACES))]
                    ends = {}
                    for output in ("json", "csv", "table"):
                        rc = main([*argv, "--output", output])
                        assert rc in (0, 2, 3), (argv, output, rc)
                        ends[output] = rc, capsys.readouterr().err
                        err = ends[output][1]
                        assert "OverflowError" not in err, argv
                        assert "Numerical result out of range" not in err, argv
                    assert ends["csv"] == ends["json"] == ends["table"], (argv, ends)
