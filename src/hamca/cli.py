"""Command-line front end.

Subcommands:
    run        evolve a model and write a trajectory file
    check      verify conservation and the update rule on a trajectory file
    cycle      search for exact orbit periods
    continuum  float-layer reports (closedform / sinh / q1 / born)

Exit codes (also listed in the README):
    0  success
    1  a mode-specific tolerance was not met
    2  command-line usage error (argparse)
    3  validation or parse failure (models, vectors, files), or a path that
       cannot be read or written
    4  conservation or recursion violation found by `check`
    5  cycle budget exhausted before recurrence
    6  spectral singularity (strict band mode)
    7  ontological regime: link total is zero, no continuum comparison
    8  floating-point instability (overflow to non-finite values)
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import continuum as ct
from .conservation import PairStats, q1, verify_stream
from .dynamics import stream_states
from .errors import (
    InstabilityError,
    OntologicalRegimeError,
    SingularSpectrumError,
    SpectralFailure,
)
from .gaussian import GaussMatrix, GaussVector
from .models import HamiltonianSpec, build_hamiltonian, resolve_builtin
from .ontology import default_scan_budget, find_period, neighbour_pair_period, scan_ontological_pairs
from .serialization import (
    TrajectoryWriter,
    format_float,
    load_gauss_vector,
    load_model,
    parse_gauss_vector,
    read_trajectory_stream,
    write_conservation_csv,
    write_cycle_csv,
    write_float_csv,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_VIOLATION = 4
EXIT_BUDGET = 5
EXIT_SINGULAR = 6
EXIT_ONTOLOGICAL = 7
EXIT_INSTABILITY = 8


def _load_model_arg(label_or_path: str) -> HamiltonianSpec:
    builtin = resolve_builtin(label_or_path)
    if builtin is not None:
        return builtin
    path = Path(label_or_path)
    if not path.exists():
        raise ValueError(f"model: no built-in named {label_or_path!r} and no such file")
    try:
        return load_model(path)
    except ValueError as exc:
        raise ValueError(f"model: {exc}")


def _load_vector_arg(name: str, text: str, dim: int) -> GaussVector:
    try:
        if text.startswith("@"):
            vec = load_gauss_vector(text[1:])
        else:
            vec = parse_gauss_vector(text)
    except (ValueError, OSError) as exc:
        raise ValueError(f"{name}: {exc}")
    if len(vec) != dim:
        raise ValueError(f"{name}: has {len(vec)} components, model needs {dim}")
    return vec


def _g_matrix_arg(spec: HamiltonianSpec, text: str) -> GaussMatrix:
    if text == "identity":
        return GaussMatrix.identity(spec.dim)
    if text == "hamiltonian":
        return build_hamiltonian(spec)
    path = Path(text)
    if not path.exists():
        raise ValueError(f"G: expected 'identity', 'hamiltonian' or a model file, got {text!r}")
    try:
        gspec = load_model(path)
    except ValueError as exc:
        raise ValueError(f"G: {exc}")
    if gspec.dim != spec.dim:
        raise ValueError(f"G: dimension {gspec.dim} does not match model dimension {spec.dim}")
    return build_hamiltonian(gspec)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_model_arg(args.model)
    psi0 = _load_vector_arg("psi0", args.psi0, spec.dim)
    psi1 = _load_vector_arg("psi1", args.psi1, spec.dim)
    if args.steps < 0:
        raise ValueError(f"steps must be >= 0, got {args.steps}")
    if not (math.isfinite(args.l) and args.l > 0):
        raise ValueError(f"l must be a finite positive number, got {args.l}")

    # q1 alone: the link total L is the same sum, q1 / 2
    q_start = q1(psi0, psi1)
    first_drift = None

    def probe(n: int, a: GaussVector, b: GaussVector) -> None:
        nonlocal first_drift
        if first_drift is None and q1(a, b) != q_start:
            first_drift = n

    states = stream_states(psi0, psi1, spec, args.steps, probe if args.probe else None)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = TrajectoryWriter(fh, spec, args.l)
            for psi in states:
                writer.write_state(psi)
    else:
        for _ in states:
            pass
    if args.probe:
        print(f"probe: q1 = {q_start}, L = {q_start // 2}, pairs checked = {args.steps + 1}")
        if first_drift is not None:
            print(f"probe: conservation drift first seen at pair {first_drift}")
            return EXIT_VIOLATION
    if args.out:
        print(f"wrote {writer.states_written} states to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        model, l, stream = read_trajectory_stream(args.trajectory)
    except (ValueError, OSError) as exc:
        raise ValueError(f"trajectory: {exc}")
    G = _g_matrix_arg(model, args.g)
    rows: list[PairStats] | None = [] if args.report else None
    report = verify_stream((psi for _, psi in stream), build_hamiltonian(model), G, rows)
    if args.report:
        with open(args.report, "w", newline="") as fh:
            write_conservation_csv(fh, model.dim, rows)
    if not report.ok:
        print(f"FAIL at step {report.first_violation}: {report.message}")
        return EXIT_VIOLATION
    print(f"OK: q_G = {report.q_value} constant over {report.pairs_checked} pairs (l = {format_float(l)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cycle
# ---------------------------------------------------------------------------


def _cmd_cycle(args: argparse.Namespace) -> int:
    spec = _load_model_arg(args.model)
    budget = args.budget if args.budget is not None else default_scan_budget(spec.dim)
    if args.pair == "all":
        reports = scan_ontological_pairs(spec, budget)
    elif args.pair.startswith("k="):
        try:
            k = int(args.pair[2:])
        except ValueError:
            raise ValueError(f"pair: cannot parse {args.pair!r}")
        if not 1 <= k <= spec.dim - 1:
            raise ValueError(f"pair: k must be in 1..{spec.dim - 1}")
        reports = [neighbour_pair_period(spec, k, budget)]
    else:
        if not args.psi1:
            raise ValueError("pair: use 'all', 'k=<index>', or pass --psi1 with an explicit pair")
        psi0 = _load_vector_arg("pair/psi0", args.pair, spec.dim)
        psi1 = _load_vector_arg("psi1", args.psi1, spec.dim)
        reports = [find_period(psi0, psi1, spec, budget)]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_cycle_csv(fh, reports)
    status = EXIT_OK
    for rep in reports:
        tag = f"pair {rep.pair_index}" if rep.pair_index is not None else "pair"
        if rep.found:
            note = ""
            if rep.matches_expected is False:
                note = f" (differs from expected {rep.expected_period})"
            print(
                f"{tag}: period {rep.period}{note}, ontological={rep.ontological}, "
                f"L={rep.link_number}"
            )
        else:
            print(f"{tag}: no recurrence within {rep.max_steps} steps")
            status = EXIT_BUDGET
    return status


# ---------------------------------------------------------------------------
# continuum
# ---------------------------------------------------------------------------


def _cmd_continuum(args: argparse.Namespace) -> int:
    spec = _load_model_arg(args.model)
    modes = {
        "closedform": _continuum_closedform,
        "sinh": _continuum_sinh,
        "q1": _continuum_q1,
        "born": _continuum_born,
    }
    return modes[args.mode](args, spec, ct.as_matrix(build_hamiltonian(spec)))


def _write_float_report(path: str | None, header: list[str], rows: list[tuple]) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            write_float_csv(fh, header, rows)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def _sample_times(args, n_states: int, window: int) -> np.ndarray:
    """The --points evaluation times for a window of half-width `window`:
    evenly spaced where an anchored reconstruction, shifted by up to two
    samples, stays inside the trajectory."""
    if args.points < 1:
        raise ValueError(f"points must be >= 1, got {args.points}")
    lo = (window + 2) * args.l
    hi = (n_states - 3 - window) * args.l
    if hi <= lo:
        raise ValueError(f"steps={args.steps} too short for window {window}")
    return np.linspace(lo, hi, args.points)


def _smooth_trajectory(args, spec, H) -> np.ndarray:
    """Float trajectory from a seeded random state and its smooth-branch partner."""
    psi0 = _random_state(np.random.default_rng(args.seed), spec.dim)
    try:
        psi1 = ct.smooth_partner(H, psi0)
    except SingularSpectrumError:
        psi1 = psi0  # band-edge model: fall back to the repeated-state start
    return ct.evolve_float(psi0, psi1, H, args.steps)


def _tolerance(args) -> float:
    """--tol, which must be a finite number >= 0: exit 1 means a real
    tolerance was not met, so an unusable one must not produce it."""
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {args.tol}")
    return args.tol


def _continuum_closedform(args, spec, H) -> int:
    if args.pairs < 0:
        raise ValueError(f"pairs must be >= 0, got {args.pairs}")
    tol = _tolerance(args)
    rng = np.random.default_rng(args.seed)
    solver = ct.ClosedFormSolver(H, degenerate="error" if args.strict_band else "confluent")
    rows = []
    worst = 0.0
    for pair in range(args.pairs):
        psi0 = _random_state(rng, spec.dim)
        psi1 = _random_state(rng, spec.dim)
        states = ct.evolve_float(psi0, psi1, H, args.nmax)
        scale = max(float(np.abs(states).max()), 1.0)
        dev = float(np.max(np.abs(solver.states_upto(psi0, psi1, args.nmax + 1) - states))) / scale
        rows.append((pair, dev))
        worst = max(worst, dev)
    _write_float_report(args.out, ["pair", "max_rel_dev"], rows)
    print(f"closedform: worst relative deviation {format_float(worst)} over {args.pairs} pairs")
    return EXIT_OK if worst <= tol else EXIT_TOLERANCE


def _continuum_sinh(args, spec, H) -> int:
    windows = [int(w) for w in args.windows.split(",")]
    states = _smooth_trajectory(args, spec, H)
    rows = []
    means = []
    for W in windows:
        sig = ct.BandlimitedSignal(states, l=args.l, window=W)
        ts = _sample_times(args, len(states), W) + 0.37 * args.l
        res = [ct.sinh_residual(sig, H, float(t)) for t in ts]
        mean = float(np.mean(res))
        rows.append((W, mean, float(np.max(res))))
        means.append(mean)
    _write_float_report(args.out, ["window", "mean_residual", "max_residual"], rows)
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    for W, mean, mx in rows:
        print(f"sinh: W={W} mean residual {format_float(mean)} max {format_float(mx)}")
    return EXIT_OK if decreasing else EXIT_TOLERANCE


def _continuum_q1(args, spec, H) -> int:
    tol = _tolerance(args)
    states = _smooth_trajectory(args, spec, H)
    sig = ct.BandlimitedSignal(states, l=args.l, window=args.window)
    ts = [float(t) for t in _sample_times(args, len(states), args.window)]
    results, spread = ct.q1_constancy(sig, ts, args.convention)
    rows = [(t, r.value, r.expansion, r.remainder) for t, r in zip(ts, results)]
    _write_float_report(args.out, ["t", "value", "expansion", "remainder"], rows)
    scale = max(abs(r.value) for r in results) + 1e-30
    print(f"q1: value {format_float(results[0].value)} spread {format_float(spread)}")
    return EXIT_OK if spread <= tol * scale else EXIT_TOLERANCE


def _continuum_born(args, spec, H) -> int:
    ls = [float(v) for v in args.l_values.split(",")]
    if args.psi:
        psi0 = np.array([complex(p) for p in args.psi.split(",")])
    else:
        psi0 = _random_state(np.random.default_rng(args.seed), spec.dim)
    psi1 = None
    if args.psi1:
        psi1 = np.array([complex(p) for p in args.psi1.split(",")])
    report = ct.born_convergence(H, psi0, ls, horizon=args.horizon, psi1=psi1)
    rows = [(e.l, e.steps, e.link_total, e.max_error) for e in report.entries]
    _write_float_report(args.out, ["l", "steps", "link_total", "max_error"], rows)
    for e in report.entries:
        print(f"born: l={format_float(e.l)} max|w-p|={format_float(e.max_error)}")
    errs = report.errors
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    return EXIT_OK if decreasing else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hamca", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evolve a model and write a trajectory file")
    run.add_argument("--model", required=True, help="built-in label (H2, H3, H4, Hm:<m>) or model file")
    run.add_argument("--psi0", required=True, help="initial state: literal '1, -i, 0' or @file.json")
    run.add_argument("--psi1", required=True, help="second initial state, same syntax")
    run.add_argument("--steps", type=int, required=True, help="number of update steps")
    run.add_argument("--l", type=float, default=1.0, help="discreteness scale (metadata)")
    run.add_argument("--out", help="trajectory output path (JSON Lines)")
    run.add_argument("--probe", action="store_true", help="online q1/L conservation probe (streaming)")
    run.set_defaults(func=_cmd_run)

    chk = sub.add_parser("check", help="verify conservation and the update rule on a trajectory file")
    chk.add_argument("trajectory", help="trajectory file written by 'run'")
    chk.add_argument("--g", default="identity", help="'identity', 'hamiltonian', or a model file for G")
    chk.add_argument("--report", help="per-step CSV output path")
    chk.set_defaults(func=_cmd_check)

    cyc = sub.add_parser("cycle", help="search for exact orbit periods")
    cyc.add_argument("--model", required=True)
    cyc.add_argument("--pair", default="all", help="'all', 'k=<index>', or a psi0 literal (with --psi1)")
    cyc.add_argument("--psi1", help="second state literal when --pair is a psi0 literal")
    cyc.add_argument("--budget", type=int, help="max steps to search (default 8*dim + 8)")
    cyc.add_argument("--out", help="CSV output path")
    cyc.set_defaults(func=_cmd_cycle)

    con = sub.add_parser("continuum", help="float-layer reports")
    con.add_argument("mode", choices=["closedform", "sinh", "q1", "born"])
    con.add_argument("--model", required=True)
    con.add_argument("--out", help="CSV output path")
    con.add_argument("--seed", type=int, default=0)
    con.add_argument("--pairs", type=int, default=100, help="closedform: number of random pairs")
    con.add_argument("--nmax", type=int, default=100, help="closedform: steps per pair")
    con.add_argument("--tol", type=float, default=1e-8, help="closedform/q1 tolerance")
    con.add_argument("--strict-band", action="store_true", help="reject eigenvalues near the +/-2 band edge")
    con.add_argument("--steps", type=int, default=400, help="sinh/q1: trajectory length")
    con.add_argument("--l", type=float, default=1.0, help="sinh/q1: sample spacing")
    con.add_argument("--windows", default="16,32,64", help="sinh: comma-separated window sizes")
    con.add_argument("--window", type=int, default=32, help="q1: window size")
    con.add_argument("--points", type=int, default=20, help="sinh/q1: evaluation points")
    con.add_argument("--convention", choices=["pairwise", "cosh"], default="pairwise")
    con.add_argument("--l-values", default="0.2,0.1,0.05", help="born: descending list of scales")
    con.add_argument("--horizon", type=float, default=3.0, help="born: physical time horizon")
    con.add_argument("--psi", help="born: complex components '0.8,0.6' (default: random)")
    con.add_argument("--psi1", dest="psi1", help="born: explicit second state (overrides smooth branch)")
    con.set_defaults(func=_cmd_continuum)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except OntologicalRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ONTOLOGICAL
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except (SpectralFailure, ValueError, OSError) as exc:  # validation errors, unusable paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
