"""Every option of every command: fed a fixed hostile vocabulary and random
short texts, and held to the edges of the domain `hamca.cli.DOMAINS`
declares for it.

The options are read from `build_parser()` and the domains from `DOMAINS`,
so a new option is fuzzed, and a new domain tried at its edges, without an
edit here.  Each case runs `main` in-process on a small command that
succeeds as given, with one option (or positional) replaced.  The exit must
be one of the documented codes 0-8, never 9 (internal error), and an exit 3
must print exactly one `error:` line that names an option.  At a domain's
edge, the last value inside must not exit 3 naming the option, and the
first value outside must exit 3 with exactly the line the domain gives.
"""

import argparse
import contextlib
import copy
import io
import math
import re
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hamca import cli
from hamca.cli import DOMAINS, EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, Below, FitsMemory, Monotone, Number
from hamca.cli import build_parser, main
from hamca.dynamics import evolve
from hamca.gaussian import GaussVector
from hamca.models import build_hamiltonian, make_cyclic_model
from oracles import write_trajectory

TRAJECTORY = "{trajectory}"  # the swap orbit file the check base command reads
MISSING = "{missing}"  # a path under a directory that does not exist

#: small commands that exit 0; a positional is given right after the command
BASES = {
    "run": ["run", "--model=H2", "--psi0=1,0", "--psi1=0,1", "--steps=4"],
    "run --probe": ["run", "--model=H2", "--psi0=1,0", "--psi1=0,1", "--steps=4", "--probe"],
    "check": ["check", TRAJECTORY],
    "cycle": ["cycle", "--model=H2"],
    "continuum closedform": ["continuum", "closedform", "--model=H2", "--pairs=2", "--nmax=10"],
    "continuum sinh": ["continuum", "sinh", "--model=H2", "--steps=40", "--windows=8,16", "--points=3"],
    "continuum q1": ["continuum", "q1", "--model=H2", "--steps=40", "--window=8", "--points=3", "--tol=1"],
    "continuum born": ["continuum", "born", "--model=H2", "--l-values=0.2,0.1", "--horizon=1"],
}

HOSTILE = ["", "-1", "0", "1e-320", "1e309", "inf", "nan", "1_0", "١٠", "9" * 20, "/", MISSING]
#: options whose value sets how long a command runs: twenty nines asks for a run that does not end soon
SIZES = {"steps", "pairs", "nmax", "budget", "points", "horizon"}
FAST = [v for v in HOSTILE if v != "9" * 20]
#: random option values: numbers, signs, lists, paths, underscores and a non-ASCII digit, short
#: enough that no size option asks for a run longer than a moment
ALPHABET = "0123456789-+.,e_/ inf١"
TEXTS = {False: st.text(ALPHABET, max_size=6), True: st.text(ALPHABET, max_size=3)}

#: (option, value) cases whose exit-3 line does not name the option, each with its reason; none is left
UNNAMED: dict[tuple[str, str], str] = {}

#: the options that take a value but have no domain in DOMAINS, each with the reason
FREE_TEXT = {
    "model": "a built-in label or a model file, read by its loader",
    "psi0": "a Gaussian-integer vector literal or @file, read by its parser",
    "psi1": "a vector literal: Gaussian integers for run and cycle, complex numbers for born",
    "psi": "born's complex vector literal, read against the model's dimension",
    "pair": "'all', 'k=<index>' or a vector literal",
    "g": "'identity', 'hamiltonian' or a model file",
    "trajectory": "an input path",
    "out": "an output path",
    "report": "an output path",
    "mode": "argparse checks its choices",
    "convention": "argparse checks its choices",
}

#: this machine's memory as the continuum size checks see it in the edge cases:
#: small, so that the largest size inside runs in a moment
MEMORY = 1 << 16


def subparser(command: str) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def options(command: list[str]) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of each option of `command`'s
    subparser that takes a value; flags and --help take none."""
    found, position = [], 0
    for action in subparser(command[0])._actions:
        if action.nargs == 0:
            continue
        if action.option_strings:
            found.append((action.option_strings[0].lstrip("-"), None))
        else:
            found.append((action.dest, position))
            position += 1
    return found


def table(argv: list[str]) -> tuple:
    """The DOMAINS entries `main` checks for `argv`: its command's, or its continuum mode's."""
    args = build_parser().parse_args(argv)
    return DOMAINS.get(getattr(args, "mode", args.command), ())


CASES = [(base, name, position) for base, argv in BASES.items() for name, position in options(argv)]
EDGE_CASES = [(base, option) for base, argv in BASES.items() for option in dict(table(argv))]


@pytest.fixture(scope="module")
def names(tmp_path_factory):
    """The paths TRAJECTORY and MISSING stand for."""
    root = tmp_path_factory.mktemp("boundary")
    trajectory = root / "swap.jsonl"
    spec = make_cyclic_model(2)
    E = GaussVector.of
    write_trajectory(spec, 1.0, evolve(E(1, 0), E(0, 1), build_hamiltonian(spec), 3), trajectory)
    return {TRAJECTORY: str(trajectory), MISSING: str(root / "missing" / "file")}


def run(argv: list[str]) -> tuple[int, str]:
    """`main`'s exit code, argparse's included, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error exits 2
            code = exc.code
    return code, err.getvalue()


def replaced(argv: list[str], name: str, position: int | None, value: str) -> list[str]:
    argv = list(argv)
    if position is None:
        argv.append(f"--{name}={value}")
    else:
        argv[1 + position] = value
    return argv


def test_every_base_command_succeeds(names):
    for base, argv in BASES.items():
        assert run([names.get(a, a) for a in argv]) == (EXIT_OK, ""), base


@pytest.mark.parametrize("base, name, position", CASES, ids=[f"{b} {n}" for b, n, _ in CASES])
def test_hostile_values_exit_as_documented(names, tmp_path, monkeypatch, base, name, position):
    monkeypatch.chdir(tmp_path)  # an output option's value is written here, where no other case reads it
    for value in FAST if name in SIZES else HOSTILE:
        argv = replaced([names.get(a, a) for a in BASES[base]], name, position, names.get(value, value))
        code, err = run(argv)
        case = f"{base} {name}={value!r}: exit {code}, stderr {err!r}"
        assert code in range(EXIT_INTERNAL), case
        if code == EXIT_VALIDATION:
            assert err.count("\n") == 1 and err.startswith("error: "), case
            if (name, value) not in UNNAMED:
                assert re.search(rf"\b{re.escape(name)}\b", err, re.IGNORECASE), case


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_random_texts_exit_as_documented(names, tmp_path_factory, case, data):
    base, name, position = case
    value = data.draw(TEXTS[name in SIZES], label="value")
    argv = replaced([names.get(a, a) for a in BASES[base]], name, position, value)
    with contextlib.chdir(tmp_path_factory.mktemp("texts")):  # where an output option writes
        code, err = run(argv)
    case = f"{base} {name}={value!r}: exit {code}, stderr {err!r}"
    assert code in range(EXIT_INTERNAL), case
    if code == EXIT_VALIDATION:
        # a rule across options may name the other one: born's --l-values 1e-9 asks --horizon for more memory
        named = re.match(r"error: ([\w/-]+): [^\n]*\n\Z", err)
        assert named, case
        assert set(named.group(1).lower().split("/")) <= {n for n, _ in options(BASES[base])}, case


def test_every_option_that_takes_a_value_has_a_domain_or_a_reason():
    for command in ("run", "check", "cycle", "continuum"):
        modes = [a.choices for a in subparser(command)._actions if a.dest == "mode"]
        keys = modes[0] if modes else [command]
        declared = {option for key in keys for option, _ in DOMAINS.get(key, ())}
        taken = {name for name, _ in options([command])}
        assert declared <= taken, f"{command}: DOMAINS names no option of the command: {declared - taken}"
        assert not declared & FREE_TEXT.keys(), command
        assert taken <= declared | FREE_TEXT.keys(), f"{command}: no domain and no reason for {taken - declared}"


# ---------------------------------------------------------------------------
# the edges of each declared domain
# ---------------------------------------------------------------------------


def checked(argv: list[str]) -> tuple[argparse.Namespace, object]:
    """The arguments and the model `main` hands the command for `argv`,
    after every option has been checked against DOMAINS."""
    seen = {}

    def command(args, model):
        seen.update(args=args, model=model)
        return EXIT_OK

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_cmd_run", "_cmd_check", "_cmd_cycle", "_cmd_continuum"):
            patch.setattr(cli, name, command)
        assert run(argv) == (EXIT_OK, "")
    return seen["args"], seen["model"]


def step(x, kind: type, towards: float):
    """The next int or float from `x` towards +inf or -inf."""
    return x + (1 if towards > 0 else -1) if kind is int else math.nextafter(x, towards)


def number_edges(domain: Number) -> list[tuple[object, bool]]:
    """(value, inside) at each end of a Number domain: the last value inside and the first outside."""
    lo = domain.lo if domain.closed else step(domain.lo, domain.kind, math.inf)
    edges = [(lo, True), (step(lo, domain.kind, -math.inf), False)]
    if domain.hi < math.inf:
        edges += [(domain.hi, True), (step(domain.hi, domain.kind, math.inf), False)]
    elif domain.kind is float:  # finite
        edges += [(sys.float_info.max, True), (math.inf, False)]
    return edges


def with_value(args: argparse.Namespace, dest: str, value) -> argparse.Namespace:
    args = copy.copy(args)
    setattr(args, dest, value)
    return args


def holds(domain: FitsMemory | Below, args: argparse.Namespace, model) -> bool:
    """Whether the rule `domain` declares holds for `args`, read from its declaration."""
    try:
        if isinstance(domain, FitsMemory):  # complex128 states
            return domain.rows(args) * len(model) * 16 <= MEMORY
        limit = getattr(args, domain.limit) if isinstance(domain.limit, str) else domain.limit
        return domain.of(args, model) < limit
    except (OverflowError, ValueError):  # a size past float range
        return False


def upper_edge(inside, kind: type, start) -> tuple | None:
    """The last value from `start` up for which `inside` holds and the first
    for which it fails, searched over the ints or the floats; None if no
    value fails.  `inside` holds at `start` and fails from its edge on."""
    assert inside(start), start
    if kind is int:
        lo, hi = start, max(2 * start, 1)
        while inside(hi):
            if hi > 10**400:
                return None
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if inside(mid) else (lo, mid)
        return lo, hi
    bits = lambda x: struct.unpack("<q", struct.pack("<d", x))[0]  # the order of the floats >= 0
    value = lambda n: struct.unpack("<d", struct.pack("<q", n))[0]
    if inside(math.inf):
        return None
    lo, hi = bits(float(start)), bits(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if inside(value(mid)) else (lo, mid)
    return value(lo), value(hi)


def edges(domain, entries: list, args: argparse.Namespace, model, dest: str) -> list[tuple[object, bool]]:
    """(value, inside) at the edges of one of an option's domains, `entries`
    being all of them; a list option's values are lists."""
    if isinstance(domain, Number):
        return [] if domain.unless and getattr(args, domain.unless) else number_edges(domain)
    if isinstance(domain, Monotone):
        a = next(v for v, inside in number_edges(domain.item) if inside)
        b = step(a, domain.item.kind, math.inf)
        return [([v], inside) for v, inside in number_edges(domain.item)] + [([a, b][:: domain.step], True),
                                                                             ([a, a], False)]
    own = next(d.item if isinstance(d, Monotone) else d for d in entries if isinstance(d, (Number, Monotone)))
    wrap = (lambda v: [v]) if isinstance(getattr(args, dest), list) else (lambda v: v)
    start = next(v for v, inside in number_edges(own) if inside)
    edge = upper_edge(lambda v: holds(domain, with_value(args, dest, wrap(v)), model), own.kind, start)
    return [] if edge is None else [(wrap(edge[0]), True), (wrap(edge[1]), False)]


def verdict(domain, args: argparse.Namespace, model, dest: str, value, text: str) -> str | None:
    """The reason `domain` gives for rejecting the option's value, or None if it accepts it."""
    try:
        domain.check(text if isinstance(domain, Monotone) else value, with_value(args, dest, value), model)
    except (ValueError, OverflowError) as exc:  # overflow: a size past float range that an earlier domain stops
        return str(exc)
    return None


@pytest.mark.parametrize("base, option", EDGE_CASES, ids=[f"{b} {o}" for b, o in EDGE_CASES])
def test_each_domain_edge_exits_as_declared(names, tmp_path, monkeypatch, base, option):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_memory_bytes", lambda: MEMORY)
    argv = [names.get(a, a) for a in BASES[base]]
    args, model = checked(argv)
    dest = option.replace("-", "_")
    entries = [domain for name, domain in table(argv) if name == option]
    tried = 0
    for k, domain in enumerate(entries):
        for value, inside in edges(domain, entries, args, model, dest):
            text = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
            reasons = [verdict(d, args, model, dest, value, text) for d in entries]
            # past another of the option's domains, or behind an earlier one, the edge is not this domain's
            if any(reasons[:k]) or inside and any(reasons[k + 1:]):
                continue
            tried += 1
            code, err = run(argv + [f"--{option}={text}"])
            case = f"{base} {option}={text} ({type(domain).__name__}, inside={inside}): exit {code}, stderr {err!r}"
            assert code in range(EXIT_INTERNAL), case
            if inside:
                assert not (code == EXIT_VALIDATION and err.startswith(f"error: {option}: ")), case
            else:
                assert reasons[k] is not None, case
                assert (code, err) == (EXIT_VALIDATION, f"error: {option}: {reasons[k]}\n"), case
    assert tried, f"{base} {option}: no edge was tried"
