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
    3  validation or parse failure (models, vectors, files), a path that
       cannot be read or written, or a size past memory
    4  conservation or recursion violation found by `check`
    5  cycle budget exhausted before recurrence
    6  spectral singularity (strict band mode)
    7  ontological regime: link total is zero, no continuum comparison
    8  floating-point instability (overflow to non-finite values)
    9  internal error: any other exception, reported on one line
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from contextlib import ExitStack, closing, contextmanager, nullcontext
from pathlib import Path

from . import continuum as ct
from .conservation import q1, verify_stream
from .dynamics import stream_states
from .errors import (
    InstabilityError,
    OntologicalRegimeError,
    SingularSpectrumError,
    SpectralFailure,
)
from .gaussian import GaussMatrix, GaussVector, _AnyDigits
from .models import HamiltonianSpec, _canonical_int, build_hamiltonian, resolve_builtin
from .ontology import _neighbour_pairs, default_scan_budget, find_period, neighbour_pair_period
from .ontology import scan_ontological_pairs
from .serialization import (
    ConservationCsvWriter,
    TrajectoryWriter,
    format_float,
    load_gauss_vector,
    load_model,
    output_file,
    parse_gauss_vector,
    read_trajectory_stream,
    write_cycle_csv,
    write_float_csv,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_VALIDATION = 3
EXIT_VIOLATION = 4
EXIT_BUDGET = 5
EXIT_SINGULAR = 6
EXIT_ONTOLOGICAL = 7
EXIT_INSTABILITY = 8
EXIT_INTERNAL = 9

#: the exit code of each exception type `main` reports, first match first:
#: SingularSpectrumError is also a ValueError; any other type exits 9
_EXIT_CODES = (
    (SingularSpectrumError, EXIT_SINGULAR),
    (OntologicalRegimeError, EXIT_ONTOLOGICAL),
    (InstabilityError, EXIT_INSTABILITY),
    ((SpectralFailure, ValueError, OSError, MemoryError), EXIT_VALIDATION),  # bad inputs and paths, sizes past memory
)


@contextmanager
def _argument(name: str):
    """The scope in which the value of argument `name` is read: a ValueError
    or OSError raised in it comes out as ValueError("<name>: <message>")."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ValueError(f"{name}: {exc}") from None


@contextmanager
def _output_arg(name: str, path: str):
    """output_file(path), opened in the scope of argument `name`; an error
    raised later, in the block or as the file takes its name, keeps its message."""
    with ExitStack() as stack:
        with _argument(name):
            fh = stack.enter_context(output_file(path))
        yield fh


def _load_model_arg(label_or_path: str) -> HamiltonianSpec:
    builtin = resolve_builtin(label_or_path)
    if builtin is not None:
        return builtin
    with _argument("model"):
        path = Path(label_or_path)
        if not path.exists():
            raise ValueError(f"no built-in named {label_or_path!r} and no such file")
        return load_model(path)


def _load_vector_arg(name: str, text: str, dim: int) -> GaussVector:
    with _argument(name):
        vec = load_gauss_vector(text[1:]) if text.startswith("@") else parse_gauss_vector(text)
    if len(vec) != dim:
        raise ValueError(f"{name}: has {len(vec)} components, model needs {dim}")
    return vec


def _non_negative(args: argparse.Namespace, *names: str) -> None:
    """Each named option is >= 0, or a ValueError names the first that is not."""
    for name in names:
        value = getattr(args, name)
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _g_matrix_arg(H: GaussMatrix, text: str) -> GaussMatrix:
    dim = H.shape[0]
    if text == "identity":
        return GaussMatrix.identity(dim)
    if text == "hamiltonian":
        return H
    with _argument("G"):
        path = Path(text)
        if not path.exists():
            raise ValueError(f"expected 'identity', 'hamiltonian' or a model file, got {text!r}")
        gspec = load_model(path)
    if gspec.dim != dim:
        raise ValueError(f"G: dimension {gspec.dim} does not match model dimension {dim}")
    return build_hamiltonian(gspec)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_model_arg(args.model)
    psi0 = _load_vector_arg("psi0", args.psi0, spec.dim)
    psi1 = _load_vector_arg("psi1", args.psi1, spec.dim)
    _non_negative(args, "steps")
    _scale(args)
    H = build_hamiltonian(spec)
    from .probe import first_drift  # here, not at start-up: only run compiles it

    # q1 alone: the link total L is the same sum, q1 / 2
    q_start = q1(psi0, psi1) if args.probe else None
    n_pairs = args.steps + 1 if args.probe else 0
    with _output_arg("out", args.out) if args.out else nullcontext() as fh:
        writer = TrajectoryWriter(fh, spec, args.l) if args.out else None
        drift = first_drift(stream_states(psi0, psi1, H, args.steps), q_start, n_pairs, writer)
    if args.probe:
        print(f"probe: q1 = {q_start}, L = {q_start // 2}, pairs checked = {args.steps + 1}")
        if drift is not None:
            print(f"probe: conservation drift first seen at pair {drift}")
            return EXIT_VIOLATION
    if args.out:
        print(f"wrote {writer.states_written} states to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    with _argument("trajectory"):
        model, l, states = read_trajectory_stream(args.trajectory)
    with closing(states):  # on every exit: a bad --g or --report, a violation
        H = build_hamiltonian(model)
        G = _g_matrix_arg(H, args.g)
        if args.report:
            # rows go out as they are verified; a record that fails to parse
            # leaves an existing report as it was
            with _output_arg("report", args.report) as fh, ConservationCsvWriter(fh, model.dim) as rows:
                report = verify_stream(states, H, G, rows)
        else:
            report = verify_stream(states, H, G)
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
    H = build_hamiltonian(spec)
    budget = args.budget if args.budget is not None else default_scan_budget(spec.dim)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if args.pair == "all":
        reports = scan_ontological_pairs(H, budget)
    elif args.pair.startswith("k="):
        k = _canonical_int(args.pair[2:])
        if k is None:
            raise ValueError(f"pair: cannot parse {args.pair!r}")
        if k not in _neighbour_pairs(spec.dim):
            raise ValueError(f"pair: k must be in 1..{spec.dim - 1}")
        reports = [neighbour_pair_period(H, k, budget)]
    else:
        if not args.psi1:
            raise ValueError("pair: use 'all', 'k=<index>', or pass --psi1 with an explicit pair")
        psi0 = _load_vector_arg("pair/psi0", args.pair, spec.dim)
        psi1 = _load_vector_arg("psi1", args.psi1, spec.dim)
        reports = [find_period(psi0, psi1, H, budget)]
    if args.out:
        with _output_arg("out", args.out) as fh:
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
    # every option is checked before any float work; the report takes their values
    options = {"closedform": _closedform_options, "sinh": _sinh_options, "q1": _q1_options,
               "born": _born_options}[args.mode](args, spec.dim)
    from . import float_reports as fr  # here, not at start-up: no exact command compiles it

    report = {"closedform": fr.closedform, "sinh": fr.sinh, "q1": fr.q1, "born": fr.born}[args.mode]
    header, rows, lines, ok = report(ct.as_matrix(build_hamiltonian(spec)), **options)
    if args.out:
        with _output_arg("out", args.out) as fh:
            write_float_csv(fh, header, rows)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _tolerance(args) -> float:
    """--tol, which must be a finite number >= 0: exit 1 means a real
    tolerance was not met, so an unusable one must not produce it."""
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {args.tol}")
    return args.tol


def _scale(args) -> None:
    if not (math.isfinite(args.l) and args.l > 0):
        raise ValueError(f"l must be a finite positive number, got {args.l}")


def _memory_bytes() -> int:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no page count here: numpy's own limit
        return sys.maxsize


def _fits_memory(option: str, rows: int, dim: int) -> None:
    """The `rows` float states of `dim` complex values that `option` asks a
    continuum mode for fit in this machine's memory, or a ValueError names
    the option.  Compared as ints: a size past float range stops here."""
    need, have = rows * dim * 16, _memory_bytes()
    if need > have:
        raise ValueError(f"{option}: needs {need >> 20} MiB of float states, more than this machine's {have >> 20} MiB")


def _closedform_options(args, dim: int) -> dict:
    _non_negative(args, "pairs", "nmax", "seed")
    _fits_memory("nmax", args.nmax + 2, dim)
    return dict(pairs=args.pairs, nmax=args.nmax, seed=args.seed, strict_band=args.strict_band, tol=_tolerance(args))


def _signal_options(args, option: str, windows: list[int], dim: int) -> dict:
    """The options of a report on the smooth trajectory of a `dim`-state model,
    with the span of the --points evaluation times for each of the increasing
    half-widths `windows`: where a reconstruction shifted by up to two samples
    stays in the states."""
    _non_negative(args, "seed", "steps")
    _fits_memory("steps", args.steps + 2, dim)
    _scale(args)
    if windows[0] < 8:  # the sinc sum's smallest half-width
        raise ValueError(f"{option} must be >= 8, got {windows[0]}")
    if args.points < 1:
        raise ValueError(f"points must be >= 1, got {args.points}")
    _fits_memory("points", args.points, dim)
    spans = {}
    for W in windows:
        if W >= args.steps:  # compared as ints: a window past float range stops here
            raise ValueError(f"{option}: {W} is not below steps = {args.steps}")
        spans[W] = lo, hi = (W + 2) * args.l, (args.steps - 1 - W) * args.l
        if not math.isfinite(hi):
            raise ValueError(f"l: the last evaluation time (steps - 1 - {W}) * l is past float range, with "
                             f"steps = {args.steps} and l = {args.l}")
        if hi <= lo:
            raise ValueError(f"steps={args.steps} too short for window {W}")
    return dict(seed=args.seed, steps=args.steps, l=args.l, points=args.points, spans=spans)


def _sinh_options(args, dim: int) -> dict:
    windows = _number_list("windows", args.windows, int)
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError(f"windows: must be strictly increasing, got {args.windows!r}")
    return _signal_options(args, "windows", windows, dim)


def _q1_options(args, dim: int) -> dict:
    tol = _tolerance(args)
    options = _signal_options(args, "window", [args.window], dim)
    ct.check_q1_scale(args.l)
    return dict(options, convention=args.convention, tol=tol)


def _born_options(args, dim: int) -> dict:
    ls = _number_list("l-values", args.l_values, float)
    if not all(math.isfinite(l) and l > 0 for l in ls):
        raise ValueError(f"l-values: must be finite positive numbers, got {args.l_values!r}")
    if any(b >= a for a, b in zip(ls, ls[1:])):
        raise ValueError(f"l-values: must be strictly decreasing, got {args.l_values!r}")
    psi = _complex_state("psi", args.psi, dim) if args.psi else None
    if psi is None:
        _non_negative(args, "seed")
    elif not any(psi):
        raise ValueError(f"psi: must be a nonzero state, got {args.psi!r}")
    psi1 = _complex_state("psi1", args.psi1, dim) if args.psi1 else None
    if not (math.isfinite(args.horizon) and args.horizon > 0):
        raise ValueError(f"horizon must be a finite positive number, got {args.horizon}")
    if not math.isfinite(args.horizon / ls[-1]):  # the smallest l runs the most steps
        raise ValueError(f"horizon / l-values must be finite, got horizon = {args.horizon} and "
                         f"l-values = {args.l_values!r}")
    _fits_memory("horizon", round(args.horizon / ls[-1]) + 2, dim)
    return dict(l_values=ls, horizon=args.horizon, psi=psi, seed=args.seed, psi1=psi1)


def _ascii(kind: type):
    """Parse one `kind` (int, float or complex) from ASCII without `_`; `kind` alone reads "١٦" and "1_6"."""
    def parse(text: str):
        if "_" in text or not text.isascii():
            raise ValueError(text)
        return kind(text)
    parse.__name__ = kind.__name__  # argparse's usage error: "invalid int value"
    return parse


def _number_list(option: str, text: str, kind: type) -> list:
    """A comma-separated option value as a list of `kind` (int, float or complex)."""
    try:
        return list(map(_ascii(kind), text.split(",")))
    except ValueError:
        raise ValueError(f"{option}: expected comma-separated {kind.__name__} values, got {text!r}") from None


def _complex_state(option: str, text: str, dim: int) -> list[complex]:
    values = _number_list(option, text, complex)
    if len(values) != dim:
        raise ValueError(f"{option}: has {len(values)} components, model needs {dim}")
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
        raise ValueError(f"{option}: components must be finite, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hamca", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    ascii_int, ascii_float = _ascii(int), _ascii(float)  # signs kept: `--steps -1` reaches its own check

    run = sub.add_parser("run", help="evolve a model and write a trajectory file")
    run.add_argument("--model", required=True, help="built-in label (H2, H3, H4, Hm:<m>) or model file")
    run.add_argument("--psi0", required=True, help="initial state: literal '1, -i, 0' or @file.json")
    run.add_argument("--psi1", required=True, help="second initial state, same syntax")
    run.add_argument("--steps", type=ascii_int, required=True, help="number of update steps")
    run.add_argument("--l", type=ascii_float, default=1.0, help="discreteness scale (metadata)")
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
    cyc.add_argument("--budget", type=ascii_int, help="max steps to search (default 8*dim + 8)")
    cyc.add_argument("--out", help="CSV output path")
    cyc.set_defaults(func=_cmd_cycle)

    con = sub.add_parser("continuum", help="float-layer reports")
    con.add_argument("mode", choices=["closedform", "sinh", "q1", "born"])
    con.add_argument("--model", required=True)
    con.add_argument("--out", help="CSV output path")
    con.add_argument("--seed", type=ascii_int, default=0)
    con.add_argument("--pairs", type=ascii_int, default=100, help="closedform: number of random pairs")
    con.add_argument("--nmax", type=ascii_int, default=100, help="closedform: steps per pair")
    con.add_argument("--tol", type=ascii_float, default=1e-8, help="closedform/q1 tolerance")
    con.add_argument("--strict-band", action="store_true", help="reject eigenvalues near the +/-2 band edge")
    con.add_argument("--steps", type=ascii_int, default=400, help="sinh/q1: trajectory length")
    con.add_argument("--l", type=ascii_float, default=1.0, help="sinh/q1: sample spacing")
    con.add_argument("--windows", default="16,32,64", help="sinh: increasing comma-separated window sizes")
    con.add_argument("--window", type=ascii_int, default=32, help="q1: window size")
    con.add_argument("--points", type=ascii_int, default=20, help="sinh/q1: evaluation points")
    con.add_argument("--convention", choices=["pairwise", "cosh"], default="pairwise")
    con.add_argument("--l-values", default="0.2,0.1,0.05", help="born: descending list of scales")
    con.add_argument("--horizon", type=ascii_float, default=3.0, help="born: physical time horizon")
    con.add_argument("--psi", help="born: complex components '0.8,0.6' (default: random)")
    con.add_argument("--psi1", dest="psi1", help="born: explicit second state (overrides smooth branch)")
    con.set_defaults(func=_cmd_continuum)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # exact values print in full at any size: a grown orbit's q_G, the
        # q1 of a 5000-digit literal (the library scopes its own conversions)
        with _AnyDigits():
            return args.func(args)
    except Exception as exc:
        code = next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), EXIT_INTERNAL)
        # a bug, not a verdict: never exit 1, "tolerance not met"
        message = f"internal error: {type(exc).__name__}: {exc}" if code == EXIT_INTERNAL else exc
        print(f"error: {message}", file=sys.stderr)
        return code


def entry(argv: list[str] | None = None) -> int:
    """`main` as the process runs it (the `hamca` script, `python -m
    hamca.cli`): once main has returned, or argparse has exited, every
    object alive is frozen, so the interpreter's final collections skip
    them.  Every output file is closed by then; stdio is still flushed."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
