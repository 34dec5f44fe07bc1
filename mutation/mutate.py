"""Planted bugs: does tier-1 catch each one?

Run from the repository root:

    python mutation/mutate.py [NAME ...]

Each mutant replaces one text in one file of ``src/hamca`` with another.
For each, the repository (without ``.git``) is copied to a temporary
directory, the mutant is applied to the copy, and tier-1 runs there with
``-x`` and the copy's ``src`` first on PYTHONPATH.  The tier-1 process, and
every process it starts, runs under an address-space and a CPU-time limit,
so a mutant that allocates or loops without end fails the run instead of
exhausting the machine.  A mutant is killed when tier-1 fails, times out or
is ended by a signal (past a limit); the failing test is reported.  Nothing
under the repository is written.  ``python -m pytest mutation`` checks that each old text occurs
once in ``src`` and that every mutant is killed; it is kept out of tier-1.
A change that rewrites a mutated line updates its mutant here, and a new
fast path adds one.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hamca"
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TIMEOUT_S = 300  # a mutant that hangs tier-1 this long counts as killed
#: per-process limits of the tier-1 child: unmutated, it needs under 600 MB
#: of address space and about 20 s of CPU on a 2-core machine
LIMITS = ((resource.RLIMIT_AS, 2 * 1024**3), (resource.RLIMIT_CPU, 120))


class Mutant(NamedTuple):
    name: str
    file: str  # under src/hamca
    old: str
    new: str
    within_s: float | None = None  # if set, tier-1 must kill the mutant in fewer seconds


MUTANTS = [
    Mutant("kernel: sign of the S term in the imaginary part", "gaussian.py",
           'i.append(_term(-s, f"x{j}"))', 'i.append(_term(s, f"x{j}"))'),
    Mutant("verify_stream skips the rule comparison", "conservation.py",
           "elif n and h_step(prev.re, prev.im, prev2.re, prev2.im) != (psi.re, psi.im):", "elif False:"),
    Mutant("q_G changed reported at n, not n - 1", "conservation.py",
           'first, message = n - 1, f"q_G changed', 'first, message = n, f"q_G changed'),
    Mutant("q1 drops the imaginary sum", "conservation.py",
           "return 2 * (sum(map(mul, psi_next.re, psi_n.re)) + sum(map(mul, psi_next.im, psi_n.im)))",
           "return 2 * sum(map(mul, psi_next.re, psi_n.re))"),
    Mutant("classify_state accepts parts in two slots", "ontology.py",
           "return (k + 1, GaussInt(x[k], p[k])) if zp == m or p[k] else None",
           "return (k + 1, GaussInt(x[k], p[k]))"),
    Mutant("find_period returns n, not n - 1", "ontology.py", "period = n - 1", "period = n"),
    Mutant("the reader skips the record-order check", "serialization.py",
           "if n_text != str(n):", "if False:"),
    Mutant("the report keys a row's link cells by L alone", "serialization.py",
           "self._links.get(st.links) or _kept(self._links, st.links,",
           "self._links.get(st.links.total) or _kept(self._links, st.links.total,"),
    Mutant("the reader keys a record by its re text only", "serialization.py",
           "texts = (im_text, re_text)", "texts = re_text"),
    Mutant("the writer keys a state by its re parts only", "serialization.py",
           "parts = (psi.re, psi.im)", "parts = psi.re"),
    Mutant("verify_stream keys a pair by its second state only", "conservation.py",
           "pair = (prev.re, prev.im, psi.re, psi.im)", "pair = (psi.re, psi.im)"),
    Mutant("the memos take entries past their budget", "conservation.py",
           "if len(memo) < _MEMO_ENTRIES:", "if True:"),
    Mutant("the trajectory header accepts l = 0", "serialization.py",
           'l > 0):\n        raise ValueError(f"{path}: header l', 'l >= 0):\n        raise ValueError(f"{path}: header l'),
    Mutant("the writer formats a record outside the digit scope", "serialization.py",
           "    with _AnyDigits():\n        im = '\",\"'.join(map(str, psi.im))",
           "    if True:\n        im = '\",\"'.join(map(str, psi.im))"),
    Mutant("_cell writes None as None", "serialization.py",
           'else "" if value is None else str(value)', "else str(value)"),
    Mutant("q1_constancy takes any scale", "continuum.py", "    check_q1_scale(signal.l)\n", ""),
    Mutant("neighbour_pair_period leaves k to basis_state", "ontology.py",
           "    if k not in _neighbour_pairs(m):\n        raise", "    if False:\n        raise"),
    Mutant("a pair met with equal phases is reused", "ontology.py",
           "v.phase == w.phase == GaussInt(1)", "v.phase == w.phase"),
    Mutant("a met pair keeps the orbit's step numbers", "ontology.py",
           "visits=tuple(Visit(n, *v[1:]) for n, v in enumerate(turned))", "visits=turned"),
    Mutant("_converged uses >=", "float_reports.py", "all(a > b or b == 0", "all(a >= b or b == 0"),
    Mutant("SingularSpectrumError dropped from _EXIT_CODES", "cli.py",
           "    (SingularSpectrumError, EXIT_SINGULAR),\n", ""),
    Mutant("born takes no horizon in (0, 1]", "cli.py",
           '("horizon", Number(float, 0, closed=False))', '("horizon", Number(float, 1, closed=False))'),
    Mutant("points takes 0", "cli.py", '("points", Number(int, 1))', '("points", Number(int, 0))'),
    Mutant("a window may reach steps", "cli.py",
           '            (window, Below(f"2 * max({window}) + 3", lambda a, M: 2 * max(windows(a)) + 3, "steps")),\n',
           ""),
    Mutant("an open lower bound takes lo", "cli.py", "(self.closed or value > self.lo)",
           "(self.closed or value >= self.lo)"),
    Mutant("_canonical_int accepts leading zeros", "models.py",
           'text.isdigit() and (text == "0" or text[0] != "0")', "text.isdigit()"),
    Mutant("born midpoints at n, not n + 1/2", "continuum.py",
           "np.r_[1.0, np.arange(steps) + 0.5]", "np.r_[1.0, np.arange(steps) + 0.0]"),
    Mutant("default_scan_budget 8m + 2", "ontology.py", "return 8 * m + 8", "return 8 * m + 2"),
    Mutant("_DEGENERATE_CUTOFF 1e-13 -> 1e-9", "continuum.py",
           "_DEGENERATE_CUTOFF = 1e-13", "_DEGENERATE_CUTOFF = 1e-9"),
    Mutant("the probe helper checks no pair", "probe.py", "pairs[1::2], parent=parent", "pairs[0:0], parent=parent"),
    Mutant("the probe's parent checks no even pair", "probe.py",
           "_check_pairs(states, q_start, pairs[::2], writer)", "_check_pairs(states, q_start, pairs[0:0], writer)"),
    # these two once ran tier-1 out of memory: a pair with no period was evolved for ever
    Mutant("basis_state puts the 1 in slot k - 1", "models.py", "int(i == k - 1)", "int(i == k - 2)", 30),
    Mutant("find_period matches a pair whose second state differs", "ontology.py",
           "prev == psi0 and psi == psi1", "prev == psi0 and psi != psi1", 30),
    Mutant("an output path opens outside its option's scope", "cli.py",
           "        with _argument(name):\n            fh = stack", "        if True:\n            fh = stack"),
    Mutant("entry does not freeze", "cli.py", "        gc.freeze()\n", "        pass\n"),
]


def occurrences(text: str) -> dict[str, int]:
    """The count of `text` in each file of src/hamca that holds it."""
    counts = {p.name: p.read_text().count(text) for p in sorted(SRC.glob("*.py"))}
    return {name: n for name, n in counts.items() if n}


class Outcome(NamedTuple):
    killed: bool
    test: str  # the first failing test, or a note
    seconds: float


def copy_repo(dest: Path) -> Path:
    """The repository at `dest`, without `.git`, caches or benchmark output."""
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "mutation", "__pycache__", ".pytest_cache", ".hypothesis", "out", ".work"))
    return dest


def limit_child() -> None:
    """Lower the child's soft limits to LIMITS before tier-1 starts; the
    parent's own limits do not change."""
    for kind, value in LIMITS:
        hard = resource.getrlimit(kind)[1]
        resource.setrlimit(kind, (value if hard == resource.RLIM_INFINITY else min(value, hard), hard))


def tier1(root: Path) -> tuple[int | None, str]:
    """Tier-1 with -x on the tree at `root`, under LIMITS: its exit code
    (None on timeout, -N when signal N ended it) and output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S, preexec_fn=limit_child)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout + proc.stderr


def run_mutant(mutant: Mutant) -> Outcome:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="hamca-mutant-") as tmp:
        root = copy_repo(Path(tmp) / "repo")
        path = root / "src" / "hamca" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        code, output = tier1(root)
    seconds = time.monotonic() - start
    if code is None:
        return Outcome(True, f"timeout after {TIMEOUT_S} s", seconds)
    if code < 0:
        return Outcome(True, f"ended by signal {-code}", seconds)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.M)
    return Outcome(code == 1, failed.group(1) if failed else f"exit {code}", seconds)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    survivors = 0
    for mutant in chosen:
        outcome = run_mutant(mutant)
        survivors += not outcome.killed
        verdict = "killed" if outcome.killed else "SURVIVED"
        print(f"{verdict:8} {outcome.seconds:5.1f} s  {mutant.name}: {outcome.test}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
