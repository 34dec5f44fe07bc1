"""Every function of the package is entered by something a user runs, and
every command prints and writes the bytes it did when the table was recorded.

`census_driver.py` runs the command list, the six demos and the README's
library quick start in a fresh interpreter under `sys.setprofile` and
records each function of `src/hamca` it enters.  The census covers every
public (non-underscore) top-level function and method, and the operator
methods below; a nested def is part of its enclosing function.  Unlike the
static census in `test_exports.py` it sees operators, and it does not count
an unrelated read of the same name (`rows.append`, numpy's `.conjugate()`)
as a caller.  A function nothing enters is exempt only if the benchmark's
tracer pins it in `TARGETS` or it is in the static census's `KEEP`: each
operator earns its place on its own, and a name the README only mentions
has no caller.

The same run digests each command's exit code, stdout, stderr and written
files, and each demo's stdout, and compares them with
`tests/golden_census.json`.  Only `census_driver.py --record` writes that
table; a change of output made on purpose records it again.  The continuum
CSVs depend on numpy's eigensolver and BLAS, so the table holds for the
platform it was recorded on.
"""

import ast
import importlib.util
import json
import subprocess
import sys

import pytest

import census_driver
from test_exports import KEEP, TRACER

OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__matmul__"}


def functions(source: str) -> dict[tuple[int, str], str]:
    """The functions a module source defines that the census covers, as
    (first line, name) -> qualified name.  The first line is that of the
    first decorator, as in the compiled code object."""
    found = {}

    def add(node: ast.FunctionDef, qualname: str) -> None:
        first = min([d.lineno for d in node.decorator_list] + [node.lineno])
        found[(first, node.name)] = qualname

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node, node.name)
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and (not f.name.startswith("_") or f.name in OPERATORS):
                    add(f, f"{node.name}.{f.name}")
    return found


def never_entered(package: dict[str, str], entered: set[tuple[str, int, str]], pinned: set[str], keep) -> list[str]:
    """`module.qualname` of each covered function of the `package` sources
    (module name -> source) with no (module, first line, name) in `entered`
    and no exemption: a qualified name in `pinned` or a name in `keep`."""
    return sorted(
        f"{module}.{qualname}"
        for module, source in package.items()
        for (first, name), qualname in functions(source).items()
        if (module, first, name) not in entered and qualname not in pinned and name not in keep
    )


def tracer_targets() -> set[str]:
    """The attributes `perfbench/tracing.py` traces, read from the module."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {attr for _, _, attr in tracing.TARGETS}


@pytest.fixture(scope="module")
def census(tmp_path_factory) -> dict:
    workdir = tmp_path_factory.mktemp("census")
    subprocess.run([sys.executable, census_driver.__file__, str(workdir)], check=True, timeout=60)
    return json.loads((workdir / "census.json").read_text())


def test_each_command_exits_as_expected(census):
    # a command that fails early would cover less code without this
    got = dict(enumerate(c["exit"] for c in census["outputs"]["commands"]))
    expected = {i: code for i, (code, _) in enumerate(census_driver.COMMANDS)}
    assert got == expected, [census_driver.COMMANDS[i][1] for i in expected if got.get(i) != expected[i]]


def test_every_function_is_entered(census):
    package = {p.stem: p.read_text() for p in sorted(census_driver.PACKAGE.glob("*.py"))}
    entered = {tuple(key) for key in census["entered"]}
    assert never_entered(package, entered, tracer_targets(), KEEP) == []


def first_difference(golden: dict, got: dict) -> str | None:
    """Where the census outputs `got` first differ from the recorded
    `golden`: the command or demo and the stream, or None if they agree."""
    if [c["command"] for c in golden["commands"]] != [c["command"] for c in got["commands"]]:
        return "the command list differs from the table's: record it again"
    for want, have in zip(golden["commands"], got["commands"]):
        for stream in ("exit", "stdout", "stderr"):
            if want[stream] != have[stream]:
                return f"{want['command']}: {stream}"
        if want["files"] != have["files"]:
            names = sorted(want["files"].keys() | have["files"].keys())
            name = next(n for n in names if want["files"].get(n) != have["files"].get(n))
            return f"{want['command']}: file {name}"
    for name in sorted(golden["demos"].keys() | got["demos"].keys()):
        if golden["demos"].get(name) != got["demos"].get(name):
            return f"demo {name}: stdout"
    return None


def test_every_output_matches_the_table(census):
    assert first_difference(json.loads(census_driver.GOLDEN.read_text()), census["outputs"]) is None


def test_first_difference_names_the_command_and_stream():
    command = {"command": "run x", "exit": 0, "stdout": "a", "stderr": "b", "files": {"t.csv": "c"}}
    golden = {"commands": [command, {**command, "command": "check"}], "demos": {"01.py": "d"}}
    assert first_difference(golden, golden) is None
    changes = [
        ({"exit": 3}, "run x: exit"),
        ({"stdout": "A"}, "run x: stdout"),
        ({"stderr": "B"}, "run x: stderr"),
        ({"files": {"t.csv": "C"}}, "run x: file t.csv"),
        ({"files": {"t.csv": "c", "u.csv": "e"}}, "run x: file u.csv"),
        ({"files": {}}, "run x: file t.csv"),
        ({"command": "run y"}, "the command list differs from the table's: record it again"),
    ]
    for change, where in changes:
        got = {**golden, "commands": [{**command, **change}, golden["commands"][1]]}
        assert first_difference(golden, got) == where
    # the second command is named when only it differs, and the first stream in order
    got = {**golden, "commands": [command, {**command, "command": "check", "stderr": "B", "exit": 4}]}
    assert first_difference(golden, got) == "check: exit"
    assert first_difference(golden, {**golden, "demos": {"01.py": "D"}}) == "demo 01.py: stdout"
    assert first_difference(golden, {**golden, "demos": {"01.py": "d", "02.py": "e"}}) == "demo 02.py: stdout"


PLANTED = '''
class Vec:
    def __add__(self, other): return self
    def __sub__(self, other): return self
    def norm(self): return 0
class Scalar:
    def __mul__(self, other): return self
    @property
    def size(self): return 1
def entry(): return Vec() + Vec()
def unused(): return entry()
def traced(): return 0
def _private(): return 0
'''


def test_census_catches_a_function_nothing_runs():
    entered = {("a", 3, "__add__"), ("a", 10, "entry")}
    flagged = never_entered({"a": PLANTED}, entered, set(), {})
    assert flagged == ["a.Scalar.__mul__", "a.Scalar.size", "a.Vec.__sub__", "a.Vec.norm", "a.traced", "a.unused"]
    # only a tracer pin or a KEEP name exempts: Vec.__sub__ is flagged although Vec.__add__ ran
    assert never_entered({"a": PLANTED}, entered, {"traced"}, {"unused"}) == [
        "a.Scalar.__mul__", "a.Scalar.size", "a.Vec.__sub__", "a.Vec.norm"
    ]
