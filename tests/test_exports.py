"""Every export of the package has a caller outside the tests.

The check needs only the standard library: each name that
`hamca/__init__.py` imports must be read (an `ast.Name` load) in the module
that defines it, or appear as a whole word in another `src/hamca` module,
in a demo, in the README or in the benchmark's tracer
(`perfbench/tracing.py`).  A public name that only
tests call is a duplicate of something else or dead code; the few that
earn their place anyway are kept below, each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hamca"

KEEP = {
    "step_xp": "the update in x/p form, the reference tests hold step_forward to",
    "tail_bound": "the truncation bound tests hold the sinc reconstruction to",
    "sinh_residual_bound": "the a-priori bound tests hold sinh_residual to",
    "reconstruct": "the paper's sinc reconstruction of a signal from its samples",
    "ZERO": "ring constant of GaussInt, vocabulary of the type",
    "ONE": "ring constant of GaussInt, vocabulary of the type",
}


def exports(init_source: str) -> dict[str, str]:
    """Each exported name and the package module it comes from."""
    found = {}
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                name = alias.asname or alias.name
                found[name] = node.module or alias.name  # `from . import errors`: the module itself
    return found


def reads(source: str) -> set[str]:
    """Names the module reads: its definitions alone are not uses."""
    tree = ast.parse(source)
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def uncalled(names: dict[str, str], texts: dict[str, str]) -> list[str]:
    """Exports used nowhere: not read in their own module, and not a whole
    word in any other text.  `texts` maps a package module's name, or any
    other label, to its text."""
    homes = {home: reads(texts[home]) for home in set(names.values()) if home in texts}
    return sorted(
        name
        for name, home in names.items()
        if name not in homes.get(home, ())
        and not any(
            label != home and re.search(rf"\b{re.escape(name)}\b", text) for label, text in texts.items()
        )
    )


def callers() -> dict[str, str]:
    texts = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    texts.update({str(p): p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))})
    for path in (ROOT / "README.md", ROOT / "perfbench" / "tracing.py"):
        texts[str(path)] = path.read_text()
    return texts


def test_every_export_has_a_caller():
    names = exports((PACKAGE / "__init__.py").read_text())
    assert sorted(set(uncalled(names, callers())) - set(KEEP)) == []
    assert set(KEEP) <= set(names)


def test_census_catches_an_export_without_a_caller():
    names = exports("from .a import read, used, unused\nfrom . import b\n")
    texts = {
        "a": "def read(): ...\ndef used(): ...\ndef unused(): ...\nx = [read]\n",
        "b": "from .a import used\n",
        "README.md": "unused_is_another_word",
    }
    assert uncalled(names, texts) == ["b", "unused"]
