"""Self-tests of the planted bugs, and the check that tier-1 kills each one.

Run from the repository root with ``python -m pytest mutation -q``.  Each
mutant runs tier-1 on a copy of the repository (about 2 minutes for all of
them on two cores), so they are kept out of the default test path.
"""

from __future__ import annotations

import hashlib
import resource
import subprocess
import sys

import pytest

import mutate

IDS = [m.name for m in mutate.MUTANTS]


def tree_digest() -> str:
    """sha256 over the paths and bytes of every file under src/ and tests/."""
    h = hashlib.sha256()
    for top in ("src", "tests"):
        for path in sorted((mutate.ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(mutate.ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_names_are_unique():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("mutant", mutate.MUTANTS, ids=IDS)
def test_old_text_occurs_once_in_src(mutant):
    # a change that rewrites a mutated line must update its mutant
    assert mutate.occurrences(mutant.old) == {mutant.file: 1}
    assert mutant.new != mutant.old


def test_the_unmutated_copy_passes(tmp_path):
    # else every mutant would look killed
    code, output = mutate.tier1(mutate.copy_repo(tmp_path / "repo"))
    assert code == 0, output[-2000:]


def test_the_child_runs_under_the_limits():
    own = [resource.getrlimit(kind) for kind, _ in mutate.LIMITS]
    probe = "import resource; print([resource.getrlimit(k)[0] for k in (resource.RLIMIT_AS, resource.RLIMIT_CPU)])"
    out = subprocess.run([sys.executable, "-c", probe], preexec_fn=mutate.limit_child, capture_output=True,
                         text=True, check=True).stdout
    hard = [h for _, h in own]
    assert out == f"{[v if h == resource.RLIM_INFINITY else min(v, h) for (_, v), h in zip(mutate.LIMITS, hard)]}\n"
    assert [resource.getrlimit(kind) for kind, _ in mutate.LIMITS] == own  # this process keeps its own


@pytest.mark.parametrize("mutant", mutate.MUTANTS, ids=IDS)
def test_tier1_kills_the_mutant(mutant):
    before = tree_digest()
    outcome = mutate.run_mutant(mutant)
    assert tree_digest() == before
    assert outcome.killed, f"{mutant.name} survived tier-1 ({outcome.test})"
    if mutant.within_s is not None:
        assert outcome.seconds < mutant.within_s, f"{mutant.name} took {outcome.seconds:.1f} s ({outcome.test})"
