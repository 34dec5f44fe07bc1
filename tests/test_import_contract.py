"""The exact layer never loads numpy; the float layer loads it on first use,
and no continuum mode loads `numpy.ma`.  No command loads `fractions` (nor
`decimal`, which it imports): the report writes each link weight from its
reduced int pair.  No exact command loads `dataclasses` or the modules it
pulls in (`inspect`, `ast`, `dis`, `tokenize`): the value types are plain
slotted classes and the records NamedTuples, which start-up never compiles.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded.  `hamca.cli` must still import `hamca.continuum` (without
numpy), so that tools which patch the loaded modules, such as the
benchmark's tracer, find the float layer's functions there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json, sys

seen = {}
RATIONALS = ("fractions", "decimal")
MACHINERY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
import hamca
seen["import hamca"] = "numpy" in sys.modules
seen["ClosedFormSolver from the package"] = hamca.ClosedFormSolver is hamca.continuum.ClosedFormSolver

import hamca.cli
seen["continuum loaded by import hamca.cli"] = "hamca.continuum" in sys.modules
seen["import hamca.cli"] = "numpy" in sys.modules
seen["import hamca.cli rationals"] = [m for m in RATIONALS if m in sys.modules]
seen["import hamca.cli machinery"] = [m for m in MACHINERY if m in sys.modules]

commands = {
    # the pair has link total L = 2, so check's report rows carry weights such as 1/2
    "run": ["run", "--model", "Hm:4", "--psi0", "1,1,0,0", "--psi1", "1,1,1,0", "--steps", "20", "--out", "t.jsonl"],
    "check": ["check", "t.jsonl", "--g", "hamiltonian", "--report", "r.csv"],
    "cycle": ["cycle", "--model", "Hm:5"],
}
for name, argv in commands.items():
    seen[name + " exit"] = hamca.cli.main(argv)
    seen[name] = "numpy" in sys.modules
    seen[name + " rationals"] = [m for m in RATIONALS if m in sys.modules]
    seen[name + " machinery"] = [m for m in MACHINERY if m in sys.modules]

continuum = {
    "closedform": ["--model", "H3", "--pairs", "2"],
    "sinh": ["--model", "H3", "--windows", "16,32"],
    "q1": ["--model", "H2", "--tol", "1e-3"],
    "born": ["--model", "H2", "--psi", "0.8,0.6"],
}
for mode, argv in continuum.items():
    seen[mode + " exit"] = hamca.cli.main(["continuum", mode, *argv])
    seen[mode] = "numpy" in sys.modules
    seen[mode + " numpy.ma"] = "numpy.ma" in sys.modules
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen(tmp_path_factory) -> dict:
    """What one fresh interpreter loaded at each step of SCRIPT."""
    tmp_path = tmp_path_factory.mktemp("contract")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
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


def test_continuum_modes_never_load_numpy_ma(seen):
    """numpy.ma (pulled in by np.unique, among others) adds about 1.2 MB to
    the peak memory of a process that imports numpy; no continuum mode needs it."""
    modes = ["closedform", "sinh", "q1", "born"]
    assert [seen[f"{mode} exit"] for mode in modes] == [0, 0, 0, 0]
    assert [mode for mode in modes if seen[f"{mode} numpy.ma"]] == []
