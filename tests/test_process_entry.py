"""A command's process freezes the collector once `main` has returned.

`hamca.cli.entry` is what the `hamca` script and `python -m hamca.cli` run:
`main`, then `gc.freeze()`, also when argparse exits.  The interpreter's
final collections then skip every object alive at that point, instead of
taking each reference cycle apart before the process ends.  `main` called
in-process, as the tests and library callers do, keeps a normal collector.
A process run of one command of each kind writes the bytes that
`tests/golden_census.json` records for it.
"""

import gc
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import census_driver
import hamca.cli as cli

SRC = Path(cli.__file__).resolve().parents[1]


def test_main_in_process_keeps_a_normal_collector(capsys):
    assert cli.main(["cycle", "--model", "H4", "--pair", "k=2"]) == cli.EXIT_OK
    assert cli.main(["continuum", "born", "--model", "H2", "--psi", "1,0", "--psi1", "0,1"]) == cli.EXIT_ONTOLOGICAL
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


@pytest.fixture
def calls(monkeypatch) -> list:
    """The order of main's calls and gc.freeze's, with both replaced."""
    seen = []
    monkeypatch.setattr(gc, "freeze", lambda: seen.append("freeze"))
    return seen


def test_entry_returns_mains_code_and_then_freezes(monkeypatch, calls):
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append(("main", argv)) or cli.EXIT_BUDGET)
    assert cli.entry(["cycle"]) == cli.EXIT_BUDGET
    assert calls == [("main", ["cycle"]), "freeze"]


def test_entry_freezes_when_argparse_exits(calls, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.entry(["run", "--model", "H2"])
    assert exc.value.code == 2
    assert calls == ["freeze"]
    assert capsys.readouterr().err.endswith("error: the following arguments are required: --psi0, --psi1, --steps\n")


#: one census command of each kind: its exit code and words its arguments hold
KINDS = [(0, "run", "--out"), (0, "run", "--probe"), (0, "check", "--report"), (0, "cycle", "--out"),
         (0, "closedform"), (0, "sinh"), (0, "q1"), (0, "born"), (3, "run"), (5, "cycle")]


def chosen_commands() -> list[list[str]]:
    """The first census command of each kind, in the census's order (`run
    --out` writes the file `check` reads)."""
    picks = [next(i for i, (code, argv) in enumerate(census_driver.COMMANDS) if code == kind[0]
                  and set(kind[1:]) <= set(argv)) for kind in KINDS]
    return [census_driver.COMMANDS[i][1] for i in sorted(picks)]


def test_a_process_run_writes_the_census_bytes(tmp_path):
    golden = {c["command"]: c for c in json.loads(census_driver.GOLDEN.read_text())["commands"]}
    for name, text in census_driver.INPUTS.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    commands = chosen_commands()
    assert len(commands) == len(KINDS)
    for argv in commands:
        before = census_driver.digests(tmp_path)
        proc = subprocess.run([sys.executable, "-m", "hamca.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, timeout=60)
        after = census_driver.digests(tmp_path)
        written = {n: after.get(n) for n in sorted(before.keys() | after.keys()) if before.get(n) != after.get(n)}
        want = golden[shlex.join(argv)]
        got = {"command": want["command"], "exit": proc.returncode, "stdout": census_driver.sha256(proc.stdout),
               "stderr": census_driver.sha256(proc.stderr), "files": written}
        assert got == want
