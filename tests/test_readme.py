"""The README's library quick start and its float-layer commands run as written."""

import re
import shlex
from pathlib import Path

from hamca.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs():
    namespace: dict = {}
    exec(compile(quick_start_block(), "README.md quick start", "exec"), namespace)
    assert namespace["ok"] is True
    assert namespace["period"] == 12


def continuum_commands() -> list[list[str]]:
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hamca continuum ")]


def test_continuum_commands_exit_0(tmp_path, monkeypatch):
    commands = continuum_commands()
    assert [argv[1] for argv in commands] == ["closedform", "sinh", "q1", "born"]
    monkeypatch.chdir(tmp_path)
    assert [main(argv) for argv in commands] == [0, 0, 0, 0]
