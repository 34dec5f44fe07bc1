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
from typing import Callable

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


def _cmd_run(args: argparse.Namespace, spec: HamiltonianSpec) -> int:
    psi0 = _load_vector_arg("psi0", args.psi0, spec.dim)
    psi1 = _load_vector_arg("psi1", args.psi1, spec.dim)
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


def _cmd_check(args: argparse.Namespace, _: None) -> int:
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


def _cmd_cycle(args: argparse.Namespace, spec: HamiltonianSpec) -> int:
    H = build_hamiltonian(spec)
    budget = args.budget if args.budget is not None else default_scan_budget(spec.dim)
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
            note = f" (differs from expected {rep.expected_period})" if rep.matches_expected is False else ""
            print(f"{tag}: period {rep.period}{note}, ontological={rep.ontological}, L={rep.link_number}")
        else:
            print(f"{tag}: no recurrence within {rep.max_steps} steps")
            status = EXIT_BUDGET
    return status


def _cmd_continuum(args: argparse.Namespace, M) -> int:
    from . import float_reports as fr  # here, not at start-up: no exact command compiles it

    # the report's keyword arguments, from options checked in DOMAINS
    if args.mode == "closedform":
        options = dict(pairs=args.pairs, nmax=args.nmax, seed=args.seed, strict_band=args.strict_band, tol=args.tol)
    elif args.mode == "born":
        options = dict(l_values=args.l_values, horizon=args.horizon, psi=_complex_state(args, "psi", len(M)),
                       seed=args.seed, psi1=_complex_state(args, "psi1", len(M)))
    else:  # the span of the --points evaluation times for each half-width W: where a
        # reconstruction shifted by up to two samples stays in the states
        windows = args.windows if args.mode == "sinh" else [args.window]
        spans = {W: ((W + 2) * args.l, (args.steps - 1 - W) * args.l) for W in windows}
        options = dict(seed=args.seed, steps=args.steps, l=args.l, points=args.points, spans=spans)
        if args.mode == "q1":
            options.update(convention=args.convention, tol=args.tol)
    report = {"closedform": fr.closedform, "sinh": fr.sinh, "q1": fr.q1, "born": fr.born}[args.mode]
    header, rows, lines, ok = report(M, **options)
    if args.out:
        with _output_arg("out", args.out) as fh:
            write_float_csv(fh, header, rows)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _memory_bytes() -> int:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no page count here: numpy's own limit
        return sys.maxsize


def _ascii(kind: type):
    """Parse one `kind` (int, float or complex) from ASCII without `_`; `kind` alone reads "١٦" and "1_6"."""
    def parse(text: str):
        if "_" in text or not text.isascii():
            raise ValueError(text)
        return kind(text)
    parse.__name__ = kind.__name__  # argparse's usage error: "invalid int value"
    return parse


def _number_list(text: str, kind: type) -> list:
    """A comma-separated option value as a list of `kind` (int, float or complex)."""
    try:
        return list(map(_ascii(kind), text.split(",")))
    except ValueError:
        raise ValueError(f"expected comma-separated {kind.__name__} values, got {text!r}") from None


def _complex_state(args: argparse.Namespace, option: str, dim: int) -> list[complex] | None:
    """born's --psi or --psi1, one complex number per model dimension; None if not given."""
    text = getattr(args, option)
    if not text:
        return None
    with _argument(option):
        values = _number_list(text, complex)
        if len(values) != dim:
            raise ValueError(f"has {len(values)} components, model needs {dim}")
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
            raise ValueError(f"components must be finite, got {text!r}")
        if option == "psi" and not any(values):
            raise ValueError(f"must be a nonzero state, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# option domains
# ---------------------------------------------------------------------------


class Number:
    """An int or a finite float, >= lo (> lo unless `closed`) and <= hi; unused, so unchecked, if `unless` is given."""

    def __init__(self, kind: type, lo: float, closed: bool = True, hi: float = math.inf, unless: str | None = None):
        self.kind, self.lo, self.closed, self.hi, self.unless = kind, lo, closed, hi, unless

    def check(self, value, args: argparse.Namespace, model):
        inside = self.lo <= value <= self.hi and value < math.inf and (self.closed or value > self.lo)
        if not inside and not (self.unless and getattr(args, self.unless)):
            upper = f" and <= {self.hi:.3g}" if self.hi < math.inf else ""
            kind = "an int" if self.kind is int else "a finite float"
            raise ValueError(f"must be {kind} {'>=' if self.closed else '>'} {self.lo:.3g}{upper}, got {value}")
        return value


class Monotone:
    """Comma-separated `item` values, strictly increasing, or decreasing when `step` is -1."""

    def __init__(self, item: Number, step: int = 1):
        self.item, self.step = item, step

    def check(self, text: str, args: argparse.Namespace, model) -> list:
        values = _number_list(text, self.item.kind)
        for value in values:
            self.item.check(value, args, model)
        ordered = values[:: self.step]
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"must be strictly {'increasing' if self.step > 0 else 'decreasing'}, got {text!r}")
        return values


class FitsMemory:
    """`rows(args)` float states of M fit in this machine's memory; as ints, so a size past float range stops here."""

    def __init__(self, rows: Callable[[argparse.Namespace], int]):
        self.rows = rows

    def check(self, value, args: argparse.Namespace, M):
        need, have = self.rows(args) * len(M) * 16, _memory_bytes()
        if need > have:
            raise ValueError(f"needs {need >> 20} MiB of float states, more than this machine's {have >> 20} MiB")
        return value


class Below:
    """A rule across options: `of(args, model)`, named `name`, is below `limit`, a number or the option so named."""

    def __init__(self, name: str, of: Callable, limit: float | str = math.inf):
        self.name, self.of, self.limit = name, of, limit

    def check(self, value, args: argparse.Namespace, model):
        x, limit = self.of(args, model), getattr(args, self.limit) if isinstance(self.limit, str) else self.limit
        if not x < limit:
            bound = f"below {self.limit}" if limit == self.limit else f"below {self.limit} = {limit}"
            raise ValueError(f"{self.name} = {x} is not " + ("finite" if limit == math.inf else bound))
        return value


def _signal(window: str, domain: Number | Monotone, scale: Number, windows: Callable) -> tuple:
    """The domains of a sinh or q1 report with half-widths `windows(args)`, at least the sinc
    sum's smallest, 8: 2 W + 3 < steps leaves evaluation times in [(W + 2) l, (steps - 1 - W) l],
    whose end must be finite.  Compared as ints, so no window overflows."""
    return ((window, domain), ("seed", Number(int, 0)), ("steps", Number(int, 0)),
            ("steps", FitsMemory(lambda a: a.steps + 2)), ("l", scale), ("points", Number(int, 1)),
            ("points", FitsMemory(lambda a: a.points)),
            (window, Below(f"2 * max({window}) + 3", lambda a, M: 2 * max(windows(a)) + 3, "steps")),
            ("l", Below(f"(steps - 1 - min({window})) * l", lambda a, M: (a.steps - 1 - min(windows(a))) * a.l)))


#: the domain of each option that takes a value, for each command and
#: continuum mode, checked in this order before any command work; a rule
#: comes after the options it reads, so it sees checked values
DOMAINS = {
    "run": (("steps", Number(int, 0)), ("l", Number(float, 0, closed=False))),
    "cycle": (("budget", Number(int, 1)),),
    # --tol must be usable: exit 1 means a real tolerance was not met
    "closedform": (("pairs", Number(int, 0)), ("nmax", Number(int, 0)), ("seed", Number(int, 0)),
                   ("nmax", FitsMemory(lambda a: a.nmax + 2)), ("tol", Number(float, 0))),
    "sinh": _signal("windows", Monotone(Number(int, 8)), Number(float, 0, closed=False), lambda a: a.windows),
    "q1": (("tol", Number(float, 0)), *_signal("window", Number(int, 8),
                                               Number(float, ct.Q1_SCALES[0], hi=ct.Q1_SCALES[1]), lambda a: [a.window])),
    "born": (("l-values", Monotone(Number(float, 0, closed=False), step=-1)), ("seed", Number(int, 0, unless="psi")),
             ("horizon", Number(float, 0, closed=False)),
             ("horizon", Below("horizon / min(l-values)", lambda a, M: a.horizon / a.l_values[-1])),
             ("horizon", FitsMemory(lambda a: round(a.horizon / a.l_values[-1]) + 2)),
             ("l-values", Below("max(l-values) * max|eigenvalue|", lambda a, M:
                                a.l_values[0] * float(ct.np.max(ct.np.abs(ct.spectral_decompose(M).eigenvalues))), 1))),
}


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
    args = build_parser().parse_args(argv)
    try:
        # exact values print in full at any size: a grown orbit's q_G, the
        # q1 of a 5000-digit literal (the library scopes its own conversions)
        with _AnyDigits():
            model = _load_model_arg(args.model) if "model" in args else None
            if args.command == "continuum":  # as floats before the options: born's read its spectrum
                model = ct.as_matrix(build_hamiltonian(model))
            # each option in its scope, in DOMAINS' order; a list option's text becomes its values
            for option, domain in DOMAINS.get(getattr(args, "mode", args.command), ()):
                dest = option.replace("-", "_")
                if getattr(args, dest) is not None:  # cycle's --budget: the default fits the model
                    with _argument(option):
                        setattr(args, dest, domain.check(getattr(args, dest), args, model))
            return args.func(args, model)
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
