"""Run the commands, the demos and the README quick start under a profiler,
record which functions of `src/hamca` they enter, and digest what they print
and write.

    python tests/census_driver.py WORKDIR [--record]

The profiler is installed before `hamca` is first imported, so calls made
at import time count.  WORKDIR receives the input files the commands read,
written as plain text so that no library call makes them; each command then
runs through `hamca.cli.entry`, the function the `hamca` script and
`python -m hamca.cli` call, with WORKDIR as the current directory, its
stdout and stderr captured apart.  `entry` freezes the collector after each
command, which changes nothing this process records.  The result goes to
WORKDIR/census.json: (module, first line, name) of every code object
entered in the package, and the outputs: for each command its arguments,
its exit code and the sha256 of its stdout, of its stderr and of each file
it created or changed, and for each demo the sha256 of its stdout.  `tests/test_census.py` runs this
in a fresh interpreter, reads that file and compares the outputs with
`tests/golden_census.json`.  `--record` also writes the outputs to that
table: the one way to change it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import runpy
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hamca"
GOLDEN = ROOT / "tests" / "golden_census.json"

_H2 = '{"A":[[0,0],[0,0]],"S":[[0,1],[1,0]],"dim":2,"label":"H2"}'

#: the files the commands read: a model file (the 3-state ring, S as a flat
#: list), a diagonal 3-state model that does not commute with it, a 1-state
#: model, a vector file, a vector file that is not JSON, a model whose
#: entries overflow the float stepper, and a trajectory whose third state
#: breaks the update rule
INPUTS = {
    "ring3.json": '{"dim": 3, "label": "ring3", "S": [0, 0, 1, 0, 0, 0, 1, 0, 0],'
    ' "A": [[0, -1, 0], [1, 0, -1], [0, 1, 0]]}\n',
    "diag3.json": '{"dim": 3, "S": [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "A": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}\n',
    "one.json": '{"dim": 1, "S": [[1]], "A": [[0]]}\n',
    "psi.json": '["1-i", 0, [2, 1]]\n',
    "text.json": "not JSON\n",
    "wide.json": f'{{"dim": 2, "S": [[0, {10**200}], [{10**200}, 0]], "A": [[0, 0], [0, 0]]}}\n',
    "broken.jsonl": f'{{"format":"hamca-trajectory","l":"1","model":{_H2},"version":1}}\n'
    '{"im":["0","0"],"n":0,"re":["1","0"]}\n'
    '{"im":["0","0"],"n":1,"re":["0","1"]}\n'
    '{"im":["0","0"],"n":2,"re":["5","0"]}\n',
}

#: (expected exit code, arguments): every mode, then the error paths
COMMANDS = [
    (0, ["run", "--model", "ring3.json", "--psi0", "@psi.json", "--psi1", "0, i, 1 - 2i", "--steps", "30",
         "--l", "0.5", "--out", "traj.jsonl"]),
    (0, ["run", "--model", "Hm:6", "--psi0", "1,0,0,0,0,0", "--psi1", "0,1,0,0,0,0", "--steps", "40", "--probe"]),
    (0, ["check", "traj.jsonl"]),
    (0, ["check", "traj.jsonl", "--g", "hamiltonian", "--report", "report.csv"]),
    (0, ["check", "traj.jsonl", "--g", "ring3.json"]),
    (0, ["cycle", "--model", "Hm:5", "--out", "cycles.csv"]),
    (0, ["cycle", "--model", "H4", "--pair", "k=2"]),
    (0, ["cycle", "--model", "H2", "--pair", "1,0", "--psi1", "0,i"]),
    (0, ["continuum", "closedform", "--model", "H3", "--pairs", "3", "--nmax", "20", "--out", "closed.csv"]),
    (0, ["continuum", "sinh", "--model", "Hm:5", "--windows", "8,16", "--steps", "100", "--points", "3",
         "--out", "sinh.csv"]),
    (0, ["continuum", "q1", "--model", "H2", "--steps", "80", "--window", "8", "--points", "3", "--tol", "1e-2",
         "--out", "q1.csv"]),
    (0, ["continuum", "born", "--model", "H2", "--psi", "0.8,0.6", "--out", "born.csv"]),
    (0, ["continuum", "born", "--model", "H2", "--psi", "1,1"]),
    (1, ["continuum", "closedform", "--model", "H3", "--pairs", "2", "--nmax", "20", "--tol", "0"]),
    (2, ["run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1", "--steps", "1_0"]),
    (3, ["run", "--model", "nosuch", "--psi0", "1", "--psi1", "0", "--steps", "1"]),
    (3, ["run", "--model", "H2", "--psi0", "1 2i,0", "--psi1", "0,1", "--steps", "1"]),
    (3, ["run", "--model", "H2", "--psi0", "\u0661,0", "--psi1", "0,1", "--steps", "1"]),
    (3, ["run", "--model", "H2", "--psi0", "@text.json", "--psi1", "0,1", "--steps", "1"]),
    (3, ["run", "--model", ".", "--psi0", "1", "--psi1", "0", "--steps", "1"]),
    (3, ["check", "traj.jsonl", "--g", "nosuch"]),
    (3, ["check", "traj.jsonl", "--g", "."]),
    (3, ["check", "traj.jsonl", "--g", "diag3.json"]),
    (3, ["cycle", "--model", "Hm:05"]),
    (3, ["cycle", "--model", "H4", "--pair", "k=01"]),
    (3, ["cycle", "--model", "one.json"]),
    (3, ["continuum", "born", "--model", "H2", "--psi", "0.8,0.6", "--horizon", "1e300", "--l-values", "1e-10"]),
    (4, ["check", "broken.jsonl", "--report", "broken.csv"]),
    (5, ["cycle", "--model", "Hm:5", "--budget", "3"]),
    (6, ["continuum", "closedform", "--model", "H3", "--pairs", "1", "--strict-band"]),
    (7, ["continuum", "born", "--model", "H2", "--psi", "1,0", "--psi1", "0,1"]),
    (8, ["continuum", "q1", "--model", "wide.json", "--steps", "80", "--window", "8", "--points", "3"]),
]

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def quick_start() -> str:
    """The fenced Python block of the README's "Library quick start"."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def digests(workdir: Path) -> dict[str, str]:
    return {p.name: sha256(p.read_bytes()) for p in sorted(workdir.iterdir()) if p.is_file()}


def run_command(argv: list[str], workdir: Path) -> dict:
    """Run one command; its exit code and the digests of its stdout, its
    stderr and each file it created or changed (None for a file it removed)."""
    from hamca.cli import entry

    out, err, before = io.StringIO(), io.StringIO(), digests(workdir)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    after = digests(workdir)
    names = sorted(before.keys() | after.keys())
    written = {name: after.get(name) for name in names if before.get(name) != after.get(name)}
    return {"command": shlex.join(argv), "exit": code, "stdout": sha256(out.getvalue()),
            "stderr": sha256(err.getvalue()), "files": written}


def run_demo(path: Path) -> str:
    """The digest of what a demo prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return sha256(out.getvalue())


def run_all(workdir: Path) -> dict:
    prefix = str(PACKAGE) + os.sep
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            code = frame.f_code
            entered.add((Path(code.co_filename).stem, code.co_firstlineno, code.co_name))

    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    os.chdir(workdir)
    sys.path.insert(0, str(PACKAGE.parent))
    sys.setprofile(profile)
    try:
        commands = [run_command(argv, workdir) for _, argv in COMMANDS]
        demos = {path.name: run_demo(path) for path in DEMOS}
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(quick_start(), "README.md quick start", "exec"), {})
    finally:
        sys.setprofile(None)
    return {"entered": sorted(entered), "outputs": {"commands": commands, "demos": demos}}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="run the census in WORKDIR")
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--record", action="store_true", help=f"also write the outputs to {GOLDEN.name}")
    cli_args = parser.parse_args()
    workdir = cli_args.workdir.resolve()
    result = run_all(workdir)
    (workdir / "census.json").write_text(json.dumps(result))
    if cli_args.record:
        GOLDEN.write_text(json.dumps(result["outputs"], indent=1) + "\n")
