"""No module of the package and no demo imports a name it never uses.

The check needs only the standard library: each module except
`__init__.py` (whose imports are the package's exports) and each script in
`demos/` is parsed with `ast`, and every name bound by an import at its
top level must appear somewhere in the file as an `ast.Name`.
`from __future__` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "hamca").glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_catches_an_unused_import():
    assert unused_imports("from typing import Iterable, Iterator\nx: Iterable[int]\n") == ["Iterator"]
