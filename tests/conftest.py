import sys
from pathlib import Path

import pytest

# make tests/helpers.py and tools/kernel_calls.py importable regardless of
# invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from certquad import FUNCTION_NAMES, make_function


@pytest.fixture(scope="session")
def corpus():
    """Every registry function under its default space, keyed by name."""
    return {name: make_function(name) for name in FUNCTION_NAMES}
