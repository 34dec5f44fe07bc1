"""Independent references the tests hold the package to, and the test
suite's reader of stored trajectories.

Nothing in `src/hamca` calls these, so they live with the tests.
"""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from hamca.conservation import ConservationReport, PairStats, commutator, link_counts, q1
from hamca.continuum import Q1Result, as_matrix, as_state
from hamca.dynamics import stream_states
from hamca.errors import DimensionMismatch, InstabilityError, NonCommutingError, SignalRangeError
from hamca.gaussian import GaussInt, GaussMatrix, GaussVector, _AnyDigits, as_gauss, mat_vec
from hamca.models import HamiltonianSpec
from hamca.ontology import CycleReport, Visit
from hamca.serialization import TrajectoryWriter, format_float, output_file, read_trajectory_stream


def _dot(row, col):
    """sum_k row_k * col_k, expanded on the int parts of GaussInt entries."""
    re = 0
    im = 0
    for a, b in zip(row, col):
        re += a.re * b.re - a.im * b.im
        im += a.re * b.im + a.im * b.re
    return GaussInt(re, im)


def conj(a: GaussInt) -> GaussInt:
    return GaussInt(a.re, -a.im)


def gauss_matrix(rows) -> GaussMatrix:
    """GaussMatrix(re, im) from rows of Gaussian entries: ints, (re, im) pairs or GaussInt."""
    zs = [[as_gauss(v) for v in row] for row in rows]
    return GaussMatrix(tuple(tuple(z.re for z in r) for r in zs), tuple(tuple(z.im for z in r) for r in zs))


def scaled(x, s):
    """s x for a GaussVector or GaussMatrix x and an int or GaussInt s,
    entry by entry on the int parts."""
    s = as_gauss(s)
    if isinstance(x, GaussMatrix):
        return gauss_matrix([[_dot([a], [s]) for a in row] for row in x.rows])
    return GaussVector.from_iter(_dot([a], [s]) for a in x)


def oracle_mat_vec(rows, v):
    """M v with M as rows of GaussInt and v as a sequence of GaussInt."""
    return tuple(_dot(row, v) for row in rows)


def oracle_matmul(a_rows, b_rows):
    """A B on rows of GaussInt."""
    cols = tuple(zip(*b_rows))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a_rows)


def oracle_step_backward(curr, nxt, H):
    """psi_{n-1} = psi_{n+1} + i H psi_n on rows of GaussInt, entry by entry."""
    one, i = GaussInt(1), GaussInt(0, 1)
    return tuple(_dot([b, h], [one, i]) for b, h in zip(nxt, oracle_mat_vec(H.rows, tuple(curr))))


def oracle_q_G(psi_n, psi_next, G) -> GaussInt:
    """q_G = <psi_{n+1}, G psi_n> + <psi_n, G psi_{n+1}> as one sum of
    products, conj(bra_k) * (G ket)_k, over both inner products."""
    bras = [*map(conj, psi_next), *map(conj, psi_n)]
    kets = [*oracle_mat_vec(G.rows, tuple(psi_n)), *oracle_mat_vec(G.rows, tuple(psi_next))]
    return _dot(bras, kets)


def step_xp(
    x_prev: tuple[int, ...],
    p_prev: tuple[int, ...],
    x_curr: tuple[int, ...],
    p_curr: tuple[int, ...],
    spec: HamiltonianSpec,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One update in coordinate/momentum form:

        x_next = x_prev + S p_curr + A x_curr
        p_next = p_prev - S x_curr + A p_curr

    Combining as psi = x + i p reproduces step_forward exactly.
    """
    m = spec.dim
    for name, v in (("x_prev", x_prev), ("p_prev", p_prev), ("x_curr", x_curr), ("p_curr", p_curr)):
        if len(v) != m:
            raise DimensionMismatch(f"{name} has length {len(v)}, expected {m}")
    x_next = tuple(
        x_prev[i]
        + sum(spec.S[i][j] * p_curr[j] for j in range(m))
        + sum(spec.A[i][j] * x_curr[j] for j in range(m))
        for i in range(m)
    )
    p_next = tuple(
        p_prev[i]
        - sum(spec.S[i][j] * x_curr[j] for j in range(m))
        + sum(spec.A[i][j] * p_curr[j] for j in range(m))
        for i in range(m)
    )
    return x_next, p_next


def verify_stream_reference(states, H, G, rows=None) -> ConservationReport:
    """verify_stream one GaussVector operation at a time, for any G that
    commutes with H: q_G as the sum of both inner products of a pair, the
    link counts with the check 2L == q1, and the update rule as
    psi_{n-2} - i H psi_{n-1}."""
    if G.shape != H.shape:
        raise DimensionMismatch(f"G has shape {G.shape}, model needs {H.shape}")
    comm = commutator(G, H)
    if not comm.is_zero():
        raise NonCommutingError(f"G does not commute with the Hamiltonian; commutator = {comm}", witness=comm)
    value = first = None
    message = ""
    pairs = 0
    prev2 = prev = g_prev = None
    for n, psi in enumerate(states):
        g_psi = mat_vec(G, psi)
        if prev is not None:
            q = _dot([*map(conj, psi), *map(conj, prev)], [*g_prev, *g_psi])
            links = link_counts(prev, psi)
            if rows is not None:
                rows.append(PairStats(n=n - 1, q=q, links=links))
            if value is None:
                value = q
            elif q != value and first is None:
                first, message = n - 1, f"q_G changed from {value} to {q}"
            if first is None and 2 * links.total != q1(prev, psi):
                first, message = n - 1, "2L != q1"
            pairs += 1
        if first is None and prev2 is not None:
            if prev2 + scaled(mat_vec(H, prev), GaussInt(0, -1)) != psi:
                first, message = n, "update rule violated"
        prev2, prev, g_prev = prev, psi, g_psi
    if pairs == 0:
        raise ValueError("a trajectory needs at least two states")
    return ConservationReport(
        ok=first is None, q_value=value, pairs_checked=pairs, first_violation=first, message=message
    )


def conservation_csv_reference(dim: int, stats) -> str:
    """The conservation report of `stats` with each weight cell str(Fraction(L_a, L))."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    slots = range(1, dim + 1)
    w.writerow(["n", "q_re", "q_im", "L", *(f"L_{a}" for a in slots), *(f"w_{a}" for a in slots)])
    with _AnyDigits():
        for st in stats:
            total = st.links.total
            weights = [str(Fraction(la, total)) if total else "" for la in st.links.per_alpha]
            w.writerow([st.n, st.q.re, st.q.im, total, *st.links.per_alpha, *weights])
    return out.getvalue()


def cycle_csv_reference(reports) -> str:
    """The cycle report of `reports` as csv.writer writes it, one row per visit."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["pair", "period", "ontological", "link_number", "n", "k", "phase_re", "phase_im"])
    with _AnyDigits():
        for rep in reports:
            for v in rep.visits:
                phase = ["", ""] if v.phase is None else [v.phase.re, v.phase.im]
                w.writerow([rep.pair_index, rep.period, int(rep.ontological), rep.link_number, v.n, v.k, *phase])
    return out.getvalue()


def float_csv_reference(header, rows) -> str:
    """A numeric report as csv.writer writes it, each float cell format_float's text."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows([format_float(v) if isinstance(v, float) else v for v in row] for row in rows)
    return out.getvalue()


def classify_reference(psi):
    """(1-based slot, entry) of a state with exactly one nonzero entry,
    None for any other state, the zero state included: the slots are found
    one GaussInt at a time."""
    slots = [k for k, z in enumerate(psi, 1) if z != GaussInt(0, 0)]
    return (slots[0], psi[slots[0] - 1]) if len(slots) == 1 else None


def find_period_reference(psi0, psi1, H, max_steps: int) -> CycleReport:
    """find_period as a store-then-classify search: every state is kept, the
    recurrence is looked up among the stored states, and the visited ones
    are classified afterwards, one slot at a time."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    states = []
    period = None
    for n, psi in enumerate(stream_states(psi0, psi1, H, max_steps)):
        states.append(psi)
        # the pair starting at step n - 1 is (states[n - 1], states[n])
        if n >= 2 and states[n - 1] == psi0 and psi == psi1:
            period = n - 1
            break
    visits = [
        Visit(n, *(classify_reference(psi) or (None, None)))
        for n, psi in enumerate(states[:period] if period is not None else states)
    ]
    return CycleReport(
        period=period,
        visits=tuple(visits),
        ontological=all(v.k is not None for v in visits),
        link_number=link_counts(psi0, psi1).total,
        max_steps=max_steps,
    )


def save_model(spec: HamiltonianSpec, path) -> None:
    """A model file: the canonical JSON of spec.to_dict() and a newline."""
    with _AnyDigits():
        doc = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    with output_file(path) as fh:
        fh.write(doc + "\n")


def write_trajectory(model: HamiltonianSpec, l: float, states, path) -> None:
    """A trajectory file of `states`, through the writer `hamca run --out` streams to."""
    with output_file(path) as fh:
        writer = TrajectoryWriter(fh, model, l)
        for psi in states:
            writer.write_state(psi)


def trajectory_text_reference(model: HamiltonianSpec, l: float, states) -> str:
    """The trajectory file of `states` as the json module writes it, one
    json.dumps per line and no memo: the header, then each state record."""
    with _AnyDigits():
        docs = [{"format": "hamca-trajectory", "l": format(l, ".17g"), "model": model.to_dict(), "version": 1}]
        docs += ({"im": [str(p) for p in psi.im], "n": n, "re": [str(x) for x in psi.re]} for n, psi in enumerate(states))
        return "".join(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" for doc in docs)


def read_trajectory_reference(path) -> tuple[GaussVector, ...]:
    """The states of a well-formed trajectory file, one json.loads per record and no memo."""
    with _AnyDigits(), open(path) as fh:
        fh.readline()
        records = [json.loads(line) for line in fh]
        return tuple(GaussVector(tuple(map(int, rec["re"])), tuple(map(int, rec["im"]))) for rec in records)


def load_trajectory(path) -> tuple[HamiltonianSpec, float, tuple[GaussVector, ...]]:
    """(model, l, states) of a trajectory file read whole through
    read_trajectory_stream, the reader `hamca check` streams with."""
    model, l, states = read_trajectory_stream(path)
    return model, l, tuple(states)


# ---------------------------------------------------------------------------
# the float layer one step and one point at a time: the loops the blocked
# stepper and the batched sinc kernel replaced, which must match them bit for bit
# ---------------------------------------------------------------------------


def evolve_float_steps(psi0, psi1, H, n_steps: int) -> np.ndarray:
    """evolve_float with a finiteness check after every step."""
    A = as_matrix(H)
    m = A.shape[0]
    a = as_state(psi0, m)
    b = as_state(psi1, m)
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    out = np.empty((n_steps + 2, m), dtype=np.complex128)
    out[0] = a
    out[1] = b
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            a, b = b, a - 1j * (A @ b)
            if not np.isfinite(b).all():
                raise InstabilityError(n + 2)
            out[n + 2] = b
    return out


def window_range(signal, t: float, margin: int = 0) -> tuple[int, int, float]:
    """(lo, hi, u) for one time t: u = t / l and the first and last sample
    within `window` of it."""
    u = t / signal.l
    W = signal.window
    lo_ok = W + margin
    hi_ok = signal.n_samples - 1 - W - margin
    if not (lo_ok <= u <= hi_ok):
        raise SignalRangeError(
            f"t/l = {u:.6g} outside the reconstructible range [{lo_ok}, {hi_ok}] "
            f"for window {W} over {signal.n_samples} samples"
        )
    return math.ceil(u - W), math.floor(u + W), u


def windowed_eval(signal, lo: int, hi: int, u_eval: np.ndarray) -> np.ndarray:
    """Sinc sums over the samples lo..hi at each point of u_eval (in units
    of l), one row per point."""
    weights = np.sinc(np.subtract.outer(u_eval, np.arange(lo, hi + 1)))
    return weights @ signal.samples[lo : hi + 1]


def reconstruct_point(signal, t: float) -> np.ndarray:
    lo, hi, u = window_range(signal, t)
    return windowed_eval(signal, lo, hi, np.array([u]))[0]


def sinh_residual_point(signal, H, t: float) -> float:
    A = as_matrix(H)
    lo, hi, u = window_range(signal, t, margin=1)
    minus, centre, plus = windowed_eval(signal, lo, hi, u + np.array([-1.0, 0.0, 1.0]))
    return float(np.max(np.abs(plus - minus + 1j * (A @ centre))))


def q1_point(signal, t: float, convention: str = "pairwise") -> Q1Result:
    lo, hi, u = window_range(signal, t)
    minus2, minus, centre, plus, plus2 = windowed_eval(signal, lo, hi, u + np.arange(-2.0, 3.0))
    pair_value = float(np.real(np.vdot(centre, plus + minus)))
    cosh_value = pair_value / 2.0
    norm_term = float(np.real(np.vdot(centre, centre)))
    d2 = (plus2 - 2.0 * centre + minus2) / (2.0 * signal.l) ** 2
    expansion = norm_term + (signal.l**2 / 2.0) * float(np.real(np.vdot(centre, d2)))
    return Q1Result(
        value=pair_value if convention == "pairwise" else cosh_value,
        convention=convention,
        norm_term=norm_term,
        expansion=expansion,
        remainder=cosh_value - expansion,
    )
