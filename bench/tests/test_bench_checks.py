"""The correctness gate catches what it is meant to catch.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "bench"))

import certquad  # noqa: E402
import certquad.cli  # noqa: E402
import exact  # noqa: E402
import workloads  # noqa: E402

A, B = 0.0, 1.5


def _cli_op(kind, output):
    argv = ["--function", "exp", "--interval", repr(A), repr(B), "--regime", "linf",
            "--output", output]
    params = {"kind": kind, "output": output}
    if kind == "compare":
        params["rules"] = ["trapezoid", "simpson", "qt"]
        argv = ["compare", *argv, "--rules", ",".join(params["rules"])]
    else:
        params["panels"] = 1
        argv = ["run", *argv, "--mode", "single", "--rule", "qt", "--no-timing"]
    params["argv"] = argv
    return workloads.Op("exp/scalar", "exp", "scalar", (A, B), params,
                        exact.exact_integral("exp", "scalar", A, B))


@pytest.fixture(scope="module")
def cli():
    return workloads.CliReport(certquad)


@pytest.mark.parametrize("kind, output", [
    ("single", "json"), ("single", "table"), ("single", "csv"),
    ("compare", "json"), ("compare", "table"), ("compare", "csv"),
])
def test_cli_outputs_pass(cli, kind, output):
    op = _cli_op(kind, output)
    verdict = cli.check(op, cli.summarise(op, cli.call(op)))
    assert not verdict.failed, verdict.reason


def _tampered(cli, op, old, new):
    code, text = cli.call(op)
    assert old in text
    return cli.check(op, (code, text.replace(old, new, 1)))


def test_cli_oracle_resolution_is_checked(cli):
    verdict = _tampered(cli, _cli_op("single", "json"),
                        '"oracle_resolution": 65536', '"oracle_resolution": 1024')
    assert verdict.failed and "oracle resolution" in verdict.reason


def test_cli_oracle_value_is_checked(cli):
    op = _cli_op("single", "json")
    code, text = cli.call(op)
    oracle = text.split('"oracle": [', 1)[1].split("]", 1)[0]
    moved = format(float(oracle) * (1 + 1e-9), ".17g")
    verdict = cli.check(op, (code, text.replace(f'"oracle": [{oracle}]', f'"oracle": [{moved}]', 1)))
    assert verdict.failed and "oracle off" in verdict.reason


def test_compare_actual_error_is_checked(cli):
    op = _cli_op("compare", "csv")
    code, text = cli.call(op)
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[3] = format(float(cells[3]) * 2, ".17g")
    verdict = cli.check(op, (code, "\n".join([header, ",".join(cells), *rest])))
    assert verdict.failed and "is not the exact error" in verdict.reason


def test_compare_table_bound_is_checked(cli):
    op = _cli_op("compare", "table")
    code, text = cli.call(op)
    header, rule, first, *rest = text.splitlines()
    name, constant, bound, actual = first.split()
    verdict = cli.check(op, (code, "\n".join(
        [header, rule, f"{name} {constant} {float(bound) * 1e-3:.6e} {actual}", *rest])))
    assert verdict.failed and "bound" in verdict.reason


def test_uncertified_bound_below_error_fails():
    op = workloads.Op("exp/scalar", "exp", "scalar", (A, B), {},
                      exact.exact_integral("exp", "scalar", A, B))
    approx = [float(op.exact[0]) + 1e-3]
    assert not workloads._check_certificate(op, approx, 2e-3, False).failed
    assert workloads._check_certificate(op, approx, 5e-4, False).failed
    # at rounding level an uncertified bound below the error is not a failure
    assert not workloads._check_certificate(op, [float(op.exact[0])], 0.0, False).failed
