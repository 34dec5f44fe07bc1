"""Every export of the package has a caller outside the tests.

The census needs only the standard library.  An export is each public
(non-underscore) name defined at the top level of a `src/hamca` module,
each public method of a class defined there, and each name that
`hamca/__init__.py` imports, modules included.  A name counts as called
when code reads it, as an `ast.Name` or an `ast.Attribute` load outside a
def of that name, in a `src/hamca` module, a demo or the benchmark's
tracer (`perfbench/tracing.py`); or when it appears as a whole word in the
tracer, which names its spans in strings.  A name the README mentions is
not called for that.  A public name that only tests call is a duplicate of
something else or dead code; the few that earn their place anyway are kept
below, each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hamca"
TRACER = ROOT / "perfbench" / "tracing.py"

KEEP = {
    "tail_bound": "the truncation bound tests hold the sinc reconstruction to",
    "sinh_residual_bound": "the a-priori bound tests hold sinh_residual to",
    "reconstruct": "the paper's sinc reconstruction of a signal from its samples",
}


def definitions(source: str) -> set[str]:
    """Public top-level names a module defines, the package modules it
    imports (`from . import errors` exports the module), and the public
    methods of its classes."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef):
            found.add(node.name)
            found.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, ast.Assign):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add(node.target.id)
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            found.update(a.asname or a.name for a in node.names)
    return {name for name in found if not name.startswith("_")}


def reads(source: str) -> set[str]:
    """Names the code reads, as a variable or an attribute, outside any def
    of the same name: a definition, or a call from inside itself, is not a
    use.  Imports are not reads either."""
    found = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, ast.FunctionDef):
            inside |= {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def uncalled(package: dict[str, str], code: dict[str, str], spans: str) -> list[str]:
    """Public names of the `package` sources that no `code` source reads
    and the `spans` text does not name as a whole word.  `package` and
    `code` map a label to a source."""
    names = set().union(*map(definitions, package.values()))
    called = set().union(*map(reads, code.values()))
    return sorted(name for name in names - called if not re.search(rf"\b{re.escape(name)}\b", spans))


def sources() -> tuple[dict[str, str], dict[str, str], str]:
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    code = dict(package)
    code.update({str(p): p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))})
    code[str(TRACER)] = TRACER.read_text()
    return package, code, code[str(TRACER)]


def test_every_export_has_a_caller():
    assert uncalled(*sources()) == sorted(KEEP)
    assert len(KEEP) <= 5


PLANTED = '''
from . import b
LIMIT = 3
UNREAD = 4
class Box:
    def used(self): return self.size()
    def size(self): return LIMIT
    def tested_only(self): return self.tested_only()
def helper(): return Box().used()
def entry(): return helper()
'''


def test_census_catches_an_export_without_a_caller():
    package = {"a.py": PLANTED}
    code = dict(package, demo="entry()\n")
    assert uncalled(package, code, "tested_only_is_another_word") == ["UNREAD", "b", "tested_only"]
    # a whole word of the tracer's span names counts as a caller
    assert uncalled(package, code, "'UNREAD' and 'tested_only'") == ["b"]
    # the README is no source: a name it mentions is flagged like any other
    _, code, spans = sources()
    assert all(label.endswith(".py") for label in code) and spans == TRACER.read_text()
