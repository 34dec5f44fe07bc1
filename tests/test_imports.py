"""No module of the package imports a name it never uses.

The check needs only the standard library: each module except
`__init__.py` (whose imports are the package's exports) is parsed with
`ast`, and every name bound by a top-level import must appear somewhere in
the module as an `ast.Name`.  `from __future__` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hamca"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_check_catches_an_unused_import():
    assert unused_imports("from typing import Iterable, Iterator\nx: Iterable[int]\n") == ["Iterator"]
