"""Self-tests of the benchmark: every workload at a tiny size, both modes.

Run from the repository root with ``python -m pytest perfbench -q``.  They
start real CLI processes, so they are kept out of the default test path.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "ring16_run_check": {"m": 4, "steps": 20, "entry_max": 2},
    "growth_probe": {"m": 3, "steps": 40},
    "ring_cycle_scan": {"m": 4},
    "continuum_suite": {
        "m": 8,
        "closedform_pairs": 2,
        "closedform_nmax": 20,
        "sinh_windows": [16, 32],
        "sinh_steps": 120,
        "sinh_points": 5,
        "q1_window": 8,
        "q1_steps": 60,
        "q1_points": 5,
        "q1_tol": 0.5,
        "born_l_values": [0.2, 0.1],
        "born_horizon": 3,
    },
}

COMMANDS_PER_ITERATION = {"ring16_run_check": 2, "growth_probe": 1, "ring_cycle_scan": 1, "continuum_suite": 4}


def tiny_run(workload: str, trace: bool):
    return bench.run_benchmark(workload, seed=7, seconds=0.01, trace=trace, sizes=TINY[workload], setup_repeats=1)


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_untraced_run_is_correct_and_emits_every_end_to_end_metric(workload):
    result, detail = tiny_run(workload, trace=False)
    assert detail["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert detail["fail_ratio"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(detail["provenance"]) >= {"git_sha", "python", "numpy", "nproc", "cpu_model", "seed", "sizes"}


@pytest.fixture(scope="module")
def traced():
    return {workload: tiny_run(workload, trace=True)[0] for workload in bench.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(traced, workload):
    result = traced[workload]
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert metrics["cli.main.calls"]["value"] == COMMANDS_PER_ITERATION[workload]
    assert metrics["trace.spans"]["value"] > metrics["cli.main.calls"]["value"]


def test_every_module_is_traced_on_some_workload(traced):
    seen = {name.split(".")[0] for result in traced.values() for name, v in result["metrics"].items()
            if name.endswith(".calls") and v["value"] > 0}
    assert seen == set(bench.tracing.MODULES)


def corrupt_line(path, n: int) -> None:
    """Change the real part of the first slot of state n (line n + 1 after the header)."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[n + 1])
    rec["re"][0] = str(int(rec["re"][0]) + 1)
    lines[n + 1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_trajectory_line_is_counted_as_failure(monkeypatch):
    def corrupting_plan(work, rng, sizes):
        plan = bench.plan_ring16(work, rng, sizes)
        run = plan.iteration[0]
        run.post = lambda: corrupt_line(run.outputs[0], sizes["steps"] // 2)
        return plan

    monkeypatch.setitem(bench.WORKLOADS, "ring16_run_check", corrupting_plan)
    result, detail = tiny_run("ring16_run_check", trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["fail_ratio"] > 0
    assert result["metrics"]["pass_ratio"]["value"] < 1
    assert any(e.startswith("check: exit code 4") for e in detail["errors"])


def test_benchmark_json_matches_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _ in bench.per_layer_spec()]
    assert [(m["name"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, better) for name, _, better in bench.per_layer_spec()]
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "growth_probe",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
