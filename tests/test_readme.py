"""README's examples run as written: its Python blocks in order, in one
namespace, and the command lines of its CLI section through ``cli.main``."""

import re
import shlex
from pathlib import Path

import pytest

from certquad import FUNCTION_NAMES, cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


CLI_SECTION = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
CLI_LINES = _blocks("sh", CLI_SECTION)[0].splitlines()


def test_cli_section_lists_four_commands():
    assert len(CLI_LINES) == 4


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_lines_exit_zero(line, capsys):
    program, *argv = shlex.split(line)
    assert program == "certquad"
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_cli_section_lists_the_registry_functions():
    listed = re.search(r"Registry functions: (.*?)\.\n", CLI_SECTION, flags=re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", listed)) == FUNCTION_NAMES
