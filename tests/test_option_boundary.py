"""Every option of every command, fed a fixed hostile vocabulary.

The options are read from `build_parser()`, so a new option is fuzzed
without an edit here.  Each case runs `main` in-process on a small command
that succeeds as given, with one option (or positional) replaced.  The exit
must be one of the documented codes 0-8, never 9 (internal error), and an
exit 3 must print exactly one `error:` line that names the option.
"""

import argparse
import contextlib
import io
import re

import pytest

from hamca.cli import EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, build_parser, main
from hamca.dynamics import evolve
from hamca.gaussian import GaussVector
from hamca.models import build_hamiltonian, make_cyclic_model
from oracles import write_trajectory

TRAJECTORY = "{trajectory}"  # the swap orbit file the check base command reads
MISSING = "{missing}"  # a path under a directory that does not exist

#: small commands that exit 0; a positional is given right after the command
BASES = {
    "run": ["run", "--model=H2", "--psi0=1,0", "--psi1=0,1", "--steps=4"],
    "run --probe": ["run", "--model=H2", "--psi0=1,0", "--psi1=0,1", "--steps=4", "--probe"],
    "check": ["check", TRAJECTORY],
    "cycle": ["cycle", "--model=H2"],
    "continuum closedform": ["continuum", "closedform", "--model=H2", "--pairs=2", "--nmax=10"],
    "continuum sinh": ["continuum", "sinh", "--model=H2", "--steps=40", "--windows=8,16", "--points=3"],
    "continuum q1": ["continuum", "q1", "--model=H2", "--steps=40", "--window=8", "--points=3", "--tol=1"],
    "continuum born": ["continuum", "born", "--model=H2", "--l-values=0.2,0.1", "--horizon=1"],
}

HOSTILE = ["", "-1", "0", "1e-320", "1e309", "inf", "nan", "1_0", "١٠", "9" * 20, "/", MISSING]
#: options whose value sets how long a command runs: twenty nines asks for a run that does not end soon
SIZES = {"steps", "pairs", "nmax", "budget", "points", "horizon"}
FAST = [v for v in HOSTILE if v != "9" * 20]

#: (option, value) cases whose exit-3 line does not name the option, each with its reason
UNNAMED = {
    ("l-values", "9" * 20): "born names the scale l of l-values that breaks l * max|eigenvalue| < 1",
}


def options(command: list[str]) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of each option of `command`'s
    subparser that takes a value; flags and --help take none."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found, position = [], 0
    for action in sub.choices[command[0]]._actions:
        if action.nargs == 0:
            continue
        if action.option_strings:
            found.append((action.option_strings[0].lstrip("-"), None))
        else:
            found.append((action.dest, position))
            position += 1
    return found


CASES = [(base, name, position) for base, argv in BASES.items() for name, position in options(argv)]


@pytest.fixture(scope="module")
def names(tmp_path_factory):
    """The paths TRAJECTORY and MISSING stand for."""
    root = tmp_path_factory.mktemp("boundary")
    trajectory = root / "swap.jsonl"
    spec = make_cyclic_model(2)
    E = GaussVector.of
    write_trajectory(spec, 1.0, evolve(E(1, 0), E(0, 1), build_hamiltonian(spec), 3), trajectory)
    return {TRAJECTORY: str(trajectory), MISSING: str(root / "missing" / "file")}


def run(argv: list[str]) -> tuple[int, str]:
    """`main`'s exit code, argparse's included, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error exits 2
            code = exc.code
    return code, err.getvalue()


def test_every_base_command_succeeds(names):
    for base, argv in BASES.items():
        assert run([names.get(a, a) for a in argv]) == (EXIT_OK, ""), base


@pytest.mark.parametrize("base, name, position", CASES, ids=[f"{b} {n}" for b, n, _ in CASES])
def test_hostile_values_exit_as_documented(names, tmp_path, monkeypatch, base, name, position):
    monkeypatch.chdir(tmp_path)  # an output option's value is written here, where no other case reads it
    for value in FAST if name in SIZES else HOSTILE:
        argv = [names.get(a, a) for a in BASES[base]]
        if position is None:
            argv.append(f"--{name}={names.get(value, value)}")
        else:
            argv[1 + position] = names.get(value, value)
        code, err = run(argv)
        case = f"{base} {name}={value!r}: exit {code}, stderr {err!r}"
        assert code in range(EXIT_INTERNAL), case
        if code == EXIT_VALIDATION:
            assert err.count("\n") == 1 and err.startswith("error: "), case
            if (name, value) not in UNNAMED:
                assert re.search(rf"\b{re.escape(name)}\b", err, re.IGNORECASE), case
