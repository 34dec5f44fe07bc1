"""The exact layer never loads numpy; the float layer loads it on first use,
and no continuum mode loads `numpy.ma`.  No command loads `fractions` (nor
`decimal`, which it imports): the report writes each link weight from its
reduced int pair.  No command loads `csv` either, with or without `--out`:
every report row is its cells joined by commas.  No exact command loads
`dataclasses` or the modules it pulls in (`inspect`, `ast`, `dis`,
`tokenize`): the value types are plain slotted classes and the records
NamedTuples, which start-up never compiles.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded.  `hamca.cli` must still import `hamca.continuum` (without
numpy), so that tools which patch the loaded modules, such as the
benchmark's tracer, find the float layer's functions there.  Code that one
command alone runs loads when that command runs: `hamca.float_reports`
(the continuum reports), `hamca.probe` (run's pair checks) and `json`.
Under `python -m hamca.cli` the command line runs as `__main__`, so a
module that imported `hamca.cli` would compile it a second time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import sys

seen = {}
RATIONALS = ("fractions", "decimal")
MACHINERY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
LAZY = ("hamca.float_reports", "hamca.probe", "json")
import hamca
seen["import hamca"] = "numpy" in sys.modules
seen["ClosedFormSolver from the package"] = hamca.ClosedFormSolver is hamca.continuum.ClosedFormSolver

import hamca.cli
seen["continuum loaded by import hamca.cli"] = "hamca.continuum" in sys.modules
seen["import hamca.cli"] = "numpy" in sys.modules
seen["import hamca.cli rationals"] = [m for m in RATIONALS if m in sys.modules]
seen["import hamca.cli machinery"] = [m for m in MACHINERY if m in sys.modules]
seen["import hamca.cli lazy"] = [m for m in LAZY if m in sys.modules]
seen["import hamca.cli csv"] = "csv" in sys.modules

commands = {
    # the pair has link total L = 2, so check's report rows carry weights such as 1/2
    "run": ["run", "--model", "Hm:4", "--psi0", "1,1,0,0", "--psi1", "1,1,1,0", "--steps", "20", "--out", "t.jsonl"],
    "check": ["check", "t.jsonl", "--g", "hamiltonian", "--report", "r.csv"],
    "cycle": ["cycle", "--model", "Hm:5", "--out", "c.csv"],
}
for name, argv in commands.items():
    seen[name + " exit"] = hamca.cli.main(argv)
    seen[name] = "numpy" in sys.modules
    seen[name + " rationals"] = [m for m in RATIONALS if m in sys.modules]
    seen[name + " machinery"] = [m for m in MACHINERY if m in sys.modules]
    seen[name + " float reports"] = "hamca.float_reports" in sys.modules
    seen[name + " csv"] = "csv" in sys.modules

continuum = {
    "closedform": ["--model", "H3", "--pairs", "2"],
    "sinh": ["--model", "H3", "--windows", "16,32"],
    "q1": ["--model", "H2", "--tol", "1e-3"],
    "born": ["--model", "H2", "--psi", "0.8,0.6"],
}
for mode, argv in continuum.items():
    seen[mode + " exit"] = hamca.cli.main(["continuum", mode, *argv, "--out", mode + ".csv"])
    seen[mode] = "numpy" in sys.modules
    seen[mode + " numpy.ma"] = "numpy.ma" in sys.modules
    seen[mode + " csv"] = "csv" in sys.modules
import json  # here: the commands above must not find it loaded

print(json.dumps(seen))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.fixture(scope="module")
def seen(tmp_path_factory) -> dict:
    """What one fresh interpreter loaded at each step of SCRIPT."""
    tmp_path = tmp_path_factory.mktemp("contract")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_commands_never_load_numpy_and_the_float_layer_does(seen):
    assert seen["continuum loaded by import hamca.cli"] is True
    assert seen["ClosedFormSolver from the package"] is True
    for step in ["import hamca", "import hamca.cli", "run", "check", "cycle"]:
        assert seen[step] is False, f"numpy loaded by {step}"
    assert [seen[f"{c} exit"] for c in ["run", "check", "cycle", "closedform"]] == [0, 0, 0, 0]
    assert seen["closedform"] is True


def test_exact_commands_build_no_fraction(seen):
    for step in ["import hamca.cli", "run", "check", "cycle"]:
        assert seen[f"{step} rationals"] == [], f"{seen[step + ' rationals']} loaded by {step}"
    assert [seen[f"{c} exit"] for c in ["run", "check", "cycle"]] == [0, 0, 0]


def test_exact_commands_load_no_dataclass_machinery(seen):
    """dataclasses and what it imports cost about a third of `import
    hamca.cli`, and every command pays for the import."""
    assert seen["continuum loaded by import hamca.cli"] is True
    for step in ["import hamca.cli", "run", "check", "cycle"]:
        assert seen[f"{step} machinery"] == [], f"{seen[step + ' machinery']} loaded by {step}"
    assert [seen[f"{c} exit"] for c in ["run", "check", "cycle"]] == [0, 0, 0]


def test_no_command_loads_csv(seen):
    """`cycle --out`, `check --report` and every continuum `--out` write CSV
    without the stdlib module."""
    steps = ["import hamca.cli", "run", "check", "cycle", "closedform", "sinh", "q1", "born"]
    assert [seen[f"{step} exit"] for step in steps[1:]] == [0] * 7
    assert [step for step in steps if seen[f"{step} csv"]] == []


def test_continuum_modes_never_load_numpy_ma(seen):
    """numpy.ma (pulled in by np.unique, among others) adds about 1.2 MB to
    the peak memory of a process that imports numpy; no continuum mode needs it."""
    modes = ["closedform", "sinh", "q1", "born"]
    assert [seen[f"{mode} exit"] for mode in modes] == [0, 0, 0, 0]
    assert [mode for mode in modes if seen[f"{mode} numpy.ma"]] == []


def test_import_hamca_cli_loads_no_single_command_code(seen):
    assert seen["continuum loaded by import hamca.cli"] is True
    assert seen["import hamca.cli lazy"] == []


def test_exact_commands_never_load_the_float_reports(seen):
    assert [seen[f"{c} exit"] for c in ["run", "check", "cycle"]] == [0, 0, 0]
    assert [c for c in ["run", "check", "cycle"] if seen[f"{c} float reports"]] == []


#: the benchmark's set-up command for `cycle`, a probe, and one command per continuum mode
IMPORTTIME_COMMANDS = {
    "cycle": ["cycle", "--model", "Hm:30", "--pair", "k=1", "--budget", "1"],
    "run": ["run", "--model", "H2", "--psi0", "1,0", "--psi1", "1,1", "--steps", "20", "--probe"],
    **{mode: ["continuum", mode, *argv] for mode, argv in [
        ("closedform", ["--model", "H3", "--pairs", "2"]),
        ("sinh", ["--model", "H3", "--windows", "16,32"]),
        ("q1", ["--model", "H2", "--tol", "1e-3"]),
        ("born", ["--model", "H2", "--psi", "0.8,0.6"]),
    ]},
}


def imported_names(importtime_report: str) -> list[str]:
    """The module of each line of a `python -X importtime` report, in order."""
    lines = [line for line in importtime_report.splitlines() if line.startswith("import time:")]
    return [line.rsplit("|", 1)[1].strip() for line in lines[1:]]  # the first line is the column header


@pytest.fixture(scope="module")
def imports(tmp_path_factory) -> dict:
    """Command name -> (exit code, the modules `python -X importtime -m hamca.cli` imported)."""
    tmp_path = tmp_path_factory.mktemp("importtime")
    found = {}
    for name, argv in IMPORTTIME_COMMANDS.items():
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hamca.cli", *argv], cwd=tmp_path,
                              env=_env(), capture_output=True, text=True, timeout=120)
        found[name] = proc.returncode, imported_names(proc.stderr)
    return found


@pytest.mark.parametrize("command", list(IMPORTTIME_COMMANDS))
def test_no_module_is_imported_twice_and_the_command_line_not_at_all(imports, command):
    code, names = imports[command]
    assert code == (5 if command == "cycle" else 0)
    package = [n for n in names if n.split(".")[0] == "hamca"]
    assert "hamca.continuum" in package
    # outside the package a name can repeat for an import that failed and
    # was caught (`nt`, tried on every platform), which loads nothing
    assert [n for n in package if package.count(n) > 1] == []
    assert "hamca.cli" not in package


def test_cycle_on_a_built_in_model_loads_no_single_command_code(imports):
    names = imports["cycle"][1]
    assert [m for m in ("hamca.float_reports", "hamca.probe", "json", "csv") if m in names] == []


def test_run_loads_the_probe_and_not_the_float_reports(imports):
    names = imports["run"][1]
    assert "hamca.probe" in names
    assert "hamca.float_reports" not in names


@pytest.mark.parametrize("mode", ["closedform", "sinh", "q1", "born"])
def test_continuum_modes_load_the_float_reports_and_not_the_probe(imports, mode):
    names = imports[mode][1]
    assert "hamca.float_reports" in names
    assert "hamca.probe" not in names


def test_imported_names_reads_each_report_line():
    report = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        120 |   hamca.errors\n"
              "other output\n"
              "import time:        40 |        160 | hamca\n")
    assert imported_names(report) == ["hamca.errors", "hamca"]
