"""Every public name resolves, including those the benchmark tracer wraps.

``bench/tracing.py`` rebinds library functions by module and name; a name
it lists that the library no longer defines would break only the traced
benchmark run, so the lists are checked here against the library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import certquad

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracing()
TRACED = sorted(
    {(module, func) for module, func, _ in _TRACER.SPANS + _TRACER.COUNTED}
    | {("certquad.functions", "make_function"), ("certquad.spaces", "NormedSpace")}
)


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_tracer_lists_are_not_empty():
    assert _TRACER.SPANS and _TRACER.COUNTED


@pytest.mark.parametrize("name", certquad.__all__)
def test_exported_name_resolves(name):
    assert hasattr(certquad, name)
