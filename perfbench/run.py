"""End-to-end and per-module benchmark of the `hamca` command line.

Run from the repository root:

    python3 perfbench/run.py --workload ring16_run_check --seed 1 --seconds 22 --trace 0

Every command is a child process that runs ``hamca.cli`` as ``python -m
hamca.cli ...`` does, with ``src`` on PYTHONPATH, started one at a time.  A
run has two phases:

* set-up: the workload's commands with zero work on the same model and
  inputs, repeated, each repeat between two runs of the start-up reference
  (``reference.py --startup``); ``setup_s`` is the median of the per-repeat
  sums over that reference, in seconds at the reference's nominal speed;
* measurement: full iterations until ``--seconds`` is used up.  Every
  command's exit code and output are checked, and the digest of its stdout
  and output files must equal the one of the first iteration.

With ``--trace 0`` the end-to-end metrics come from untraced iterations;
``wall_rel`` divides each iteration's wall time by that of the reference
job (``reference.py``) run just before and after it.  An untraced command
runs under ``launch.py``, which reports its own peak memory.  With
``--trace 1`` untraced and traced iterations alternate; a traced command runs
under ``tracing.py``, and the per-module metrics are built from its spans.
The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
provenance and the per-command detail.  See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / "out"

#: a command still running after this long is killed and counted as failed
COMMAND_TIMEOUT_S = 150.0
#: zero-work repeats behind setup_s (one more runs first, untimed, as warm-up)
SETUP_REPEATS = 11
#: nominal wall time of the start-up reference: setup_s is set-up time on a
#: machine where ``reference.py --startup`` takes this long
STARTUP_REFERENCE_S = 0.13

SIZES = {
    "ring16_run_check": {"m": 16, "steps": 2000, "entry_max": 3},
    "growth_probe": {"m": 8, "steps": 2500},
    "ring_cycle_scan": {"m": 30},
    "continuum_suite": {
        "m": 8,
        "closedform_pairs": 10,
        "closedform_nmax": 400,
        "sinh_windows": [16, 32, 64, 128],
        "sinh_steps": 3000,
        "sinh_points": 600,
        "q1_window": 64,
        "q1_steps": 3000,
        "q1_points": 600,
        "q1_tol": 0.02,
        "born_l_values": [0.2, 0.1, 0.05, 0.025, 0.0125],
        "born_horizon": 40,
    },
}

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ref",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# commands and their checks
# ---------------------------------------------------------------------------


@dataclass
class Command:
    """One CLI invocation: ``name`` is its metric stem (``run``, ``check``...)."""

    name: str
    argv: list[str]
    expect_code: int = 0
    outputs: list[Path] = field(default_factory=list)
    #: returns an error message, or None when stdout and outputs are right
    verify: Callable[[str], str | None] | None = None
    #: exact updates (or verified pairs) the command performs
    work: int = 0
    #: untimed action after the command (self-tests use it to corrupt files)
    post: Callable[[], None] | None = None


@dataclass
class Outcome:
    command: Command
    wall_s: float
    #: the command's own peak resident set; None for traced commands
    rss_mb: float | None
    error: str | None
    digest: str
    trace: dict | None = None


@dataclass
class Plan:
    sizes: dict
    setup: list[Command]
    iteration: list[Command]


def gauss_literal(re_: int, im: int) -> str:
    """A Gaussian integer in the CLI's literal syntax (``2-3i``, ``-i``)."""
    if im == 0:
        return str(re_)
    mag = "" if abs(im) == 1 else str(abs(im))
    if re_ == 0:
        return f"{'-' if im < 0 else ''}{mag}i"
    return f"{re_}{'-' if im < 0 else '+'}{mag}i"


def vector_literal(x: list[int], p: list[int]) -> str:
    return ",".join(gauss_literal(a, b) for a, b in zip(x, p))


def ring_model(m: int) -> tuple[list[list[int]], list[list[int]]]:
    """(S, A) of the cyclic built-in ``Hm:m`` (m >= 3) as the README defines it:
    -i above and +i below the diagonal, a real corner coupling closing the ring."""
    S = [[0] * m for _ in range(m)]
    A = [[0] * m for _ in range(m)]
    for k in range(m - 1):
        A[k][k + 1], A[k + 1][k] = -1, 1
    S[0][m - 1] = S[m - 1][0] = 1
    return S, A


def apply_h(S, A, x, p) -> tuple[list[int], list[int]]:
    """H psi for H = S + iA and psi = x + ip, on plain ints."""
    m = len(x)
    hx = [sum(S[j][k] * x[k] - A[j][k] * p[k] for k in range(m)) for j in range(m)]
    hp = [sum(S[j][k] * p[k] + A[j][k] * x[k] for k in range(m)) for j in range(m)]
    return hx, hp


def inner(vx, vp, wx, wp) -> tuple[int, int]:
    """<v, w> = sum conj(v) w, on plain ints."""
    return (
        sum(a * c + b * d for a, b, c, d in zip(vx, vp, wx, wp)),
        sum(a * d - b * c for a, b, c, d in zip(vx, vp, wx, wp)),
    )


def link_total(x0, p0, x1, p1) -> int:
    return sum(a * c + b * d for a, b, c, d in zip(x0, p0, x1, p1))


def evolve_plain(S, A, x0, p0, x1, p1, steps: int):
    """State after ``steps`` updates psi+ = psi- - iH psi, in sparse plain ints."""
    m = len(x0)
    rows = [[(k, S[j][k], A[j][k]) for k in range(m) if S[j][k] or A[j][k]] for j in range(m)]
    for _ in range(steps):
        x2 = [x0[j] + sum(s * p1[k] + a * x1[k] for k, s, a in rows[j]) for j in range(m)]
        p2 = [p0[j] - sum(s * x1[k] - a * p1[k] for k, s, a in rows[j]) for j in range(m)]
        x0, p0, x1, p1 = x1, p1, x2, p2
    return x1, p1


def read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def expect_stdout(pattern: str, expected: dict[str, str]) -> Callable[[str], str | None]:
    """Match stdout against ``pattern`` and compare named groups to ``expected``."""
    rx = re.compile(pattern)

    def verify(stdout: str) -> str | None:
        m = rx.search(stdout)
        if m is None:
            return f"stdout does not match {pattern!r}: {stdout[-200:]!r}"
        for key, want in expected.items():
            if m.group(key) != want:
                return f"{key} = {m.group(key)}, expected {want}"
        return None

    return verify


def all_of(*checks: Callable[[str], str | None]) -> Callable[[str], str | None]:
    def verify(stdout: str) -> str | None:
        for check in checks:
            err = check(stdout)
            if err is not None:
                return err
        return None

    return verify


def csv_rows(path: Path, columns: list[str], rows: int, finite: bool = False) -> Callable[[str], str | None]:
    """The CSV at ``path`` has this header and row count; with ``finite`` every cell is a finite float."""

    def verify(_stdout: str) -> str | None:
        lines = read_lines(path)
        if lines[:1] != [",".join(columns)]:
            return f"{path.name}: header {lines[:1]}"
        if len(lines) - 1 != rows:
            return f"{path.name}: {len(lines) - 1} rows, expected {rows}"
        if finite:
            for line in lines[1:]:
                if not all(math.isfinite(float(cell)) for cell in line.split(",")):
                    return f"{path.name}: non-finite value in {line!r}"
        return None

    return verify


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def plan_ring16(work: Path, rng: random.Random, sizes: dict) -> Plan:
    m, steps, r = sizes["m"], sizes["steps"], sizes["entry_max"]
    while True:  # a superposed pair with nonzero link total, so exact weights are built
        x0, p0, x1, p1 = ([rng.randint(-r, r) for _ in range(m)] for _ in range(4))
        L = link_total(x0, p0, x1, p1)
        if L != 0:
            break
    S, A = ring_model(m)
    # q_G with G = H: <psi1, H psi0> + <psi0, H psi1>, real for Hermitian H
    q_re = inner(x1, p1, *apply_h(S, A, x0, p0))[0] + inner(x0, p0, *apply_h(S, A, x1, p1))[0]
    xn, pn = evolve_plain(S, A, x0, p0, x1, p1, steps)
    last = json.dumps({"im": [str(v) for v in pn], "n": steps + 1, "re": [str(v) for v in xn]},
                      sort_keys=True, separators=(",", ":"))
    # "=" keeps argparse from reading a leading "-" as an option
    model = ["--model", f"Hm:{m}", f"--psi0={vector_literal(x0, p0)}", f"--psi1={vector_literal(x1, p1)}"]
    sizes = dict(sizes, link_total=L, q_G=q_re)

    def run_cmd(traj: Path, n: int, final_record: str | None = None) -> Command:
        def final_state(_stdout: str) -> str | None:
            if final_record is None or read_lines(traj)[-1] == final_record:
                return None
            return f"final state of {traj.name} differs from the plain-int reference"

        return Command("run", ["run", *model, "--steps", str(n), "--out", str(traj)],
                       outputs=[traj], work=n,
                       verify=all_of(expect_stdout(r"^wrote (?P<states>\d+) states to ", {"states": str(n + 2)}),
                                     final_state))

    def check_cmd(traj: Path, report: Path, n: int) -> Command:
        columns = ["n", "q_re", "q_im", "L"] + [f"L_{a}" for a in range(1, m + 1)] + [f"w_{a}" for a in range(1, m + 1)]

        def first_link_total(_stdout: str) -> str | None:
            got = read_lines(report)[1].split(",")[3]
            return None if got == str(L) else f"{report.name}: L = {got}, expected {L}"

        return Command("check", ["check", str(traj), "--g", "hamiltonian", "--report", str(report)],
                       outputs=[report], work=n + 1,
                       verify=all_of(expect_stdout(r"^OK: q_G = (?P<q>\S+) constant over (?P<pairs>\d+) pairs",
                                                   {"q": str(q_re), "pairs": str(n + 1)}),
                                     csv_rows(report, columns, n + 1), first_link_total))

    traj, setup_traj = work / "traj.jsonl", work / "setup_traj.jsonl"
    return Plan(sizes, [run_cmd(setup_traj, 0), check_cmd(setup_traj, work / "setup_report.csv", 0)],
                [run_cmd(traj, steps, last), check_cmd(traj, work / "report.csv", steps)])


def plan_growth(work: Path, rng: random.Random, sizes: dict) -> Plan:
    m, steps = sizes["m"], sizes["steps"]
    S = [[2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(m)] for i in range(m)]
    model = work / "tridiag121.json"
    model.write_text(json.dumps({"dim": m, "label": "tridiag121", "S": S, "A": [[0] * m for _ in range(m)]}) + "\n")
    k = rng.randrange(m)
    unit = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
    x = [unit[0] if j == k else 0 for j in range(m)]
    p = [unit[1] if j == k else 0 for j in range(m)]
    L = link_total(x, p, x, p)
    psi = vector_literal(x, p)
    sizes = dict(sizes, slot=k + 1, link_total=L)

    def probe(n: int) -> Command:
        return Command("run", ["run", "--model", str(model), f"--psi0={psi}", f"--psi1={psi}",
                               "--steps", str(n), "--probe"], work=n,
                       verify=expect_stdout(r"^probe: q1 = (?P<q1>-?\d+), L = (?P<L>-?\d+), "
                                            r"pairs checked = (?P<pairs>\d+)$",
                                            {"q1": str(2 * L), "L": str(L), "pairs": str(n + 1)}))

    return Plan(sizes, [probe(0)], [probe(steps)])


def plan_cycle(work: Path, rng: random.Random, sizes: dict) -> Plan:
    m = sizes["m"]
    period = 4 * m
    out = work / "cycles.csv"

    def verify(stdout: str) -> str | None:
        got = re.findall(r"^pair (\d+): period (\d+), ontological=(\w+), L=(-?\d+)$", stdout, re.M)
        want = [(str(k), str(period), "True", "0") for k in range(1, m)]
        if got != want:
            return f"cycle report {got[:3]}..., expected period {period}, ontological=True for {m - 1} pairs"
        lines = read_lines(out)
        if len(lines) != 1 + (m - 1) * period:
            return f"{out.name}: {len(lines) - 1} rows, expected {(m - 1) * period}"
        if any(line.split(",")[1:3] != [str(period), "1"] for line in lines[1:]):
            return f"{out.name}: a row without period {period} and ontological=1"
        return None

    scan = Command("cycle", ["cycle", "--model", f"Hm:{m}", "--out", str(out)], outputs=[out],
                   verify=verify, work=(m - 1) * period)
    zero = Command("cycle", ["cycle", "--model", f"Hm:{m}", "--pair", "k=1", "--budget", "1"],
                   expect_code=5)
    return Plan(dict(sizes, period=period), [zero], [scan])


def plan_continuum(work: Path, rng: random.Random, sizes: dict) -> Plan:
    z = sizes
    model = ["--model", f"Hm:{z['m']}"]
    seeds = {mode: str(rng.randrange(2**31)) for mode in ("closedform", "sinh", "q1")}
    psi = ",".join(f"{rng.uniform(-1, 1):.3f}{rng.uniform(-1, 1):+.3f}j" for _ in range(z["m"]))

    def closedform(pairs: int, out: Path) -> Command:
        return Command("continuum_closedform",
                       ["continuum", "closedform", *model, "--seed", seeds["closedform"], "--pairs", str(pairs),
                        "--nmax", str(z["closedform_nmax"]), "--out", str(out)],
                       outputs=[out], verify=csv_rows(out, ["pair", "max_rel_dev"], pairs, finite=True))

    def sinh(windows: list[int], steps: int, points: int, out: Path) -> Command:
        return Command("continuum_sinh",
                       ["continuum", "sinh", *model, "--seed", seeds["sinh"], "--windows", ",".join(map(str, windows)),
                        "--steps", str(steps), "--points", str(points), "--out", str(out)],
                       outputs=[out], verify=csv_rows(out, ["window", "mean_residual", "max_residual"],
                                                      len(windows), finite=True))

    def q1(window: int, steps: int, points: int, out: Path) -> Command:
        return Command("continuum_q1",
                       ["continuum", "q1", *model, "--seed", seeds["q1"], "--window", str(window),
                        "--steps", str(steps), "--points", str(points), "--tol", str(z["q1_tol"]), "--out", str(out)],
                       outputs=[out], verify=csv_rows(out, ["t", "value", "expansion", "remainder"], points,
                                                      finite=True))

    def born(l_values: list[float], horizon: float, out: Path) -> Command:
        return Command("continuum_born",
                       ["continuum", "born", *model, f"--psi={psi}", "--l-values", ",".join(map(str, l_values)),
                        "--horizon", str(horizon), "--out", str(out)],
                       outputs=[out], verify=csv_rows(out, ["l", "steps", "link_total", "max_error"],
                                                      len(l_values), finite=True))

    setup = [closedform(0, work / "setup_closedform.csv"), sinh([8], 24, 1, work / "setup_sinh.csv"),
             q1(8, 24, 1, work / "setup_q1.csv"), born([0.2], 0.2, work / "setup_born.csv")]
    iteration = [
        closedform(z["closedform_pairs"], work / "closedform.csv"),
        sinh(z["sinh_windows"], z["sinh_steps"], z["sinh_points"], work / "sinh.csv"),
        q1(z["q1_window"], z["q1_steps"], z["q1_points"], work / "q1.csv"),
        born(z["born_l_values"], z["born_horizon"], work / "born.csv"),
    ]
    return Plan(dict(sizes, seeds=seeds, psi=psi), setup, iteration)


WORKLOADS = {
    "ring16_run_check": plan_ring16,
    "growth_probe": plan_growth,
    "ring_cycle_scan": plan_cycle,
    "continuum_suite": plan_continuum,
}


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(cmd: Command, work: Path, env: dict, trace_id: str | None = None) -> Outcome:
    """Run one command to completion and check it; never leaves the child running."""
    spans_path, peak_path = work / f"spans-{trace_id}.json", work / "peak_kib.txt"
    if trace_id is None:
        argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(peak_path), "--", *cmd.argv]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_path), trace_id, "--", *cmd.argv]
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    stdout = out_path.read_text()
    error = None
    if code != cmd.expect_code:
        error = f"exit code {code}, expected {cmd.expect_code}: {err_path.read_text()[-300:]!r}"
    elif cmd.verify is not None:
        try:
            error = cmd.verify(stdout)
        except (OSError, ValueError, IndexError) as exc:
            error = f"output check raised {exc!r}"
    if cmd.post is not None:
        cmd.post()
    digest = hashlib.sha256(stdout.encode())
    for path in cmd.outputs:
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    trace, rss_mb = None, None
    if trace_id is None:
        # a killed command writes no peak; its error is already counted
        rss_mb = int(peak_path.read_text()) / 1024.0 if peak_path.exists() else 0.0
        peak_path.unlink(missing_ok=True)
    else:
        trace = json.loads(spans_path.read_text())
        spans_path.unlink()
    return Outcome(cmd, wall, rss_mb, error, digest.hexdigest(), trace)


def reference_s(env: dict, startup: bool = False) -> float:
    """Wall time of one run of the reference job, or of its start-up part (see reference.py)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "reference.py"), *(["--startup"] if startup else [])],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout.strip() != (reference.STARTUP_CHECKSUM if startup else reference.CHECKSUM):
        raise RuntimeError(f"reference job failed: exit {proc.returncode}, output {proc.stdout.strip()!r}")
    return wall


# ---------------------------------------------------------------------------
# trace aggregation
# ---------------------------------------------------------------------------

SPAN_STATS = (("calls", "count", "lower"), ("self_s", "s", "lower"), ("us_per_call", "us", "lower"))
COUNTERS = {
    "gaussian.max_bits": ("bits", "lower"),
    "conservation.pairs_checked": ("count", "higher"),
    "serialization.trajectory_bytes": ("bytes", "lower"),
    "serialization.report_bytes": ("bytes", "lower"),
    "ontology.steps_searched": ("count", "lower"),
    "ontology.states_stored": ("count", "lower"),
}
TRACE_METRICS = {
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.command_s": ("s", "lower"),
    "trace.startup_s": ("s", "lower"),
}


def span_names() -> list[str]:
    return [name for name, _, _ in tracing.TARGETS] + [tracing.MAIN_SPAN]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in reporting order."""
    spec = [(f"{name}.{stat}", unit, better) for name in span_names() for stat, unit, better in SPAN_STATS]
    spec += [(f"{module}.self_s", "s", "lower") for module in tracing.MODULES if module != "cli"]
    spec += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    spec += [(name, unit, better) for name, (unit, better) in TRACE_METRICS.items()]
    return spec


def aggregate_command(doc: dict) -> dict:
    """Per-name calls, self and inclusive seconds of one traced command."""
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, list] = {}
    for (index, start, end, _), covered in zip(spans, child):
        s = stats.setdefault(names[index], [0, 0.0, 0.0])
        s[0] += 1
        s[1] += end - start - covered
        s[2] += end - start
    return stats


def layer_metrics(traced: list[list[Outcome]], overhead_s: float) -> dict:
    """Per-layer metrics from the traced iterations: per-iteration medians of
    calls, self time and counters; us_per_call is inclusive time per call
    pooled over all iterations."""
    per_iter = []
    pooled_calls: dict[str, int] = defaultdict(int)
    pooled_incl: dict[str, float] = defaultdict(float)
    for outcomes in traced:
        row: dict[str, float] = defaultdict(float)
        for o in outcomes:
            stats = aggregate_command(o.trace)
            main_s = stats[tracing.MAIN_SPAN][2]
            row["trace.spans"] += len(o.trace["spans"])
            row["trace.command_s"] += main_s
            row["trace.startup_s"] += o.wall_s - main_s
            for name, (calls, self_s, incl) in stats.items():
                row[f"{name}.calls"] += calls
                row[f"{name}.self_s"] += self_s
                module = name.split(".")[0]
                if module != "cli":
                    row[f"{module}.self_s"] += self_s
                pooled_calls[name] += calls
                pooled_incl[name] += incl
            counts = o.trace["counts"]
            row["gaussian.max_bits"] = max(row["gaussian.max_bits"], counts["gaussian.max_bits"])
            row["ontology.steps_searched"] += counts["ontology.steps_searched"]
            row["ontology.states_stored"] += counts["ontology.states_stored"]
            row["conservation.pairs_checked"] += stats.get("conservation.q1", [0])[0]
            for path in o.command.outputs:
                kind = "trajectory" if path.suffix == ".jsonl" else "report"
                row[f"serialization.{kind}_bytes"] += path.stat().st_size
        per_iter.append(row)

    values = {}
    for name, _, _ in per_layer_spec():
        if name.endswith(".us_per_call"):
            span = name[: -len(".us_per_call")]
            values[name] = pooled_incl[span] / pooled_calls[span] * 1e6 if pooled_calls[span] else 0.0
        elif name == "trace.overhead_s":
            values[name] = overhead_s
        else:
            values[name] = statistics.median(r[name] for r in per_iter)
    return values


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it, when above the median."""
    n = len(samples)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p <= 50:
        return None
    return {"p": p, "value": sorted(samples)[math.ceil(p * n / 100) - 1]}


def relative(walls: list[float], references: list[float]) -> float:
    """Median of each wall time over the mean of the reference runs just before and after it."""
    return statistics.median(2 * w / (a + b) for w, a, b in zip(walls, references, references[1:]))


def timing(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "n": len(samples), "tail": tail_percentile(samples)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, sizes: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "hamca").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "workload": workload,
        "sizes": sizes,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
                  setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail).  ``sizes`` and
    ``setup_repeats`` exist for the self-tests."""
    sizes = dict(SIZES[workload] if sizes is None else sizes)
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = WORKLOADS[workload](work, random.Random(f"{workload}:{seed}"), sizes)
        return measure(workload, seed, seconds, trace, plan, work, setup_repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def measure(workload: str, seed: int, seconds: float, trace: bool, plan: Plan, work: Path,
            setup_repeats: int) -> tuple[dict, dict]:
    env = child_env()
    outcomes: list[Outcome] = []
    digests: dict[int, str] = {}
    errors: list[str] = []
    failed = 0

    def run_iteration(commands: list[Command], tag: str | None) -> list[Outcome]:
        nonlocal failed
        done = []
        for i, cmd in enumerate(commands):
            o = run_command(cmd, work, env, None if tag is None else f"{tag}.{i}")
            key = id(cmd)
            if o.error is None and digests.setdefault(key, o.digest) != o.digest:
                o.error = "output digest differs from the first repeat"
            if o.error is not None:
                failed += 1
                errors.append(f"{cmd.name}: {o.error}")
            done.append(o)
        outcomes.extend(done)
        return done

    run_iteration(plan.setup, None)  # warms caches and compiles bytecode; not timed
    setup_sums = []
    startup_refs = [reference_s(env, startup=True)]  # every set-up repeat sits between two of these
    for _ in range(setup_repeats):
        setup_sums.append(sum(o.wall_s for o in run_iteration(plan.setup, None)))
        startup_refs.append(reference_s(env, startup=True))

    untraced: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    references = [reference_s(env)]  # every untraced iteration sits between two runs of the reference
    start = time.perf_counter()
    while True:
        untraced.append(run_iteration(plan.iteration, None))
        references.append(reference_s(env))
        if trace:
            traced.append(run_iteration(plan.iteration, f"{workload}.{seed}.{len(traced)}"))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if elapsed + per_round > seconds:
            break

    walls = [sum(o.wall_s for o in it) for it in untraced]
    by_command: dict[str, list[Outcome]] = {}
    for it in untraced:
        for o in it:
            by_command.setdefault(o.command.name, []).append(o)
    attempted = len(outcomes)
    detail = {
        "provenance": provenance(workload, seed, plan.sizes),
        "iterations": len(untraced),
        "fail_ratio": failed / attempted,
        "setup_raw_s": timing(setup_sums),
        "setup_raw_walls_s": setup_sums,
        "startup_reference_walls_s": startup_refs,
        "wall_s": timing(walls),
        "iteration_walls_s": walls,
        "reference_s": timing(references),
        "reference_walls_s": references,
        "commands": {
            name: {
                "wall_s": timing([o.wall_s for o in group]),
                "peak_rss_mb": max(o.rss_mb for o in group),
                "work_per_s": (sum(o.command.work for o in group) / sum(o.wall_s for o in group)
                               if group[0].command.work else None),
            }
            for name, group in by_command.items()
        },
        "errors": errors[:10],
    }
    if trace:
        traced_walls = [sum(o.wall_s for o in it) for it in traced]
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = layer_metrics(traced, overhead)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        detail["traced_wall_s"] = timing(traced_walls)
        write_trace(workload, seed, traced[0])
    else:
        metrics = {
            "setup_s": STARTUP_REFERENCE_S * relative(setup_sums, startup_refs),
            "wall_rel": relative(walls, references),
            "peak_rss_mb": statistics.median(max(o.rss_mb for o in it) for it in untraced),
            "pass_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, detail


def write_trace(workload: str, seed: int, outcomes: list[Outcome]) -> None:
    """All spans of the first traced iteration, one row per span:
    [command_id, name, start, end, parent]."""
    OUT_DIR.mkdir(exist_ok=True)
    rows = []
    for o in outcomes:
        doc = o.trace
        rows += [[doc["command_id"], doc["names"][i], s, e, p] for i, s, e, p in doc["spans"]]
    with open(OUT_DIR / f"trace-{workload}-{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": rows}, fh, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "hamca" / "cli.py").is_file():
        print(f"error: {SRC / 'hamca'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    result, detail = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for err in detail["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
