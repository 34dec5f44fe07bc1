"""Conserved quantities of the second-order update rule.

For any matrix G commuting with H, the two-time correlation

    q_G(n) = <psi_{n+1}, G psi_n> + <psi_n, G psi_{n+1}>

is the same Gaussian integer for every n; with G = identity it doubles the
total link number L, the integer that replaces the familiar norm.  All
checks here are entry-exact: a failed comparison means a broken stepper,
never roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Iterator

from .dynamics import Trajectory, step_with_product
from .errors import DimensionMismatch, NonCommutingError
from .gaussian import GaussInt, GaussMatrix, GaussVector, inner_product, mat_vec


def q_G(psi_n: GaussVector, psi_next: GaussVector, G: GaussMatrix) -> GaussInt:
    """Two-time correlation of a consecutive state pair under G.

    Real (zero imaginary part) whenever G is Hermitian; conserved along
    trajectories whenever G commutes with the model Hamiltonian.
    """
    return inner_product(psi_next, mat_vec(G, psi_n)) + inner_product(
        psi_n, mat_vec(G, psi_next)
    )


def q1(psi_n: GaussVector, psi_next: GaussVector) -> int:
    """q_G with G = identity: 2 * Re <psi_{n+1}, psi_n>, an ordinary int."""
    return 2 * (sum(map(mul, psi_next.re, psi_n.re)) + sum(map(mul, psi_next.im, psi_n.im)))


def conservation_residual(
    psi_prev: GaussVector,
    psi_n: GaussVector,
    psi_next: GaussVector,
    G: GaussMatrix,
) -> GaussInt:
    """<psi_n, G dpsi> + <dpsi, G psi_n> with dpsi = psi_{n+1} - psi_{n-1}.

    Vanishes on every trajectory triple when [G, H] = 0.
    """
    dpsi = psi_next - psi_prev
    return inner_product(psi_n, mat_vec(G, dpsi)) + inner_product(dpsi, mat_vec(G, psi_n))


def commutator(G: GaussMatrix, H: GaussMatrix) -> GaussMatrix:
    if G.shape != H.shape or not G.is_square():
        raise DimensionMismatch(f"commutator needs equal square shapes, got {G.shape} and {H.shape}")
    return G @ H - H @ G


def commutes(G: GaussMatrix, H: GaussMatrix) -> bool:
    """True iff GH - HG = 0 entry-exact."""
    return commutator(G, H).is_zero()


@dataclass(frozen=True)
class LinkReport:
    """Per-degree-of-freedom link counts for one consecutive pair."""

    per_alpha: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        assert self.total == sum(self.per_alpha)

    @property
    def weights(self) -> tuple[Fraction, ...] | None:
        """None exactly when total = 0 (the regime with no meaningful
        continuum limit); otherwise the exact rationals L_a / L, which may
        lie outside [0, 1] and always sum to 1.  Built on each access, so a
        pass that reads only the counts builds no Fraction."""
        if self.total == 0:
            return None
        weights = tuple(Fraction(la, self.total) for la in self.per_alpha)
        assert sum(weights) == 1
        return weights


def link_counts(psi_n: GaussVector, psi_next: GaussVector) -> LinkReport:
    """Count links between two consecutive states.

    L_a = x_{n+1} x_n + p_{n+1} p_n per slot a (plain integer products);
    the total equals q1 / 2 identically.
    """
    if len(psi_n) != len(psi_next):
        raise DimensionMismatch(f"state lengths differ: {len(psi_n)} vs {len(psi_next)}")
    per = tuple(map(add, map(mul, psi_next.re, psi_n.re), map(mul, psi_next.im, psi_n.im)))
    return LinkReport(per_alpha=per, total=sum(per))


@dataclass(frozen=True)
class PairStats:
    """Per-pair snapshot used by trajectory verification and CSV export."""

    n: int
    q: GaussInt
    links: LinkReport


@dataclass(frozen=True)
class ConservationReport:
    """Outcome of one verification pass.

    first_violation is the index of the first broken pair (q_G change,
    2L != q1) or broken state (update rule), and message says which.
    """

    ok: bool
    q_value: GaussInt | None
    pairs_checked: int
    first_violation: int | None
    message: str = ""


def iter_pair_stats(traj: Trajectory, G: GaussMatrix) -> Iterator[PairStats]:
    """q_G and link counts for every consecutive pair of a trajectory."""
    for n, a, b in traj.pairs():
        yield PairStats(n=n, q=q_G(a, b, G), links=link_counts(a, b))


def verify_stream(
    states: Iterable[GaussVector],
    H: GaussMatrix,
    G: GaussMatrix,
    rows: list[PairStats] | None = None,
) -> ConservationReport:
    """Check a state sequence in one pass: q_G is one constant, the link
    total matches q1 / 2 at every pair, and every state from index 2 on
    obeys the update rule.

    Only a sliding window of states is held, so the sequence may be a
    generator over a file.  The whole sequence is read even after a
    violation; when `rows` is given, the PairStats of every pair are
    appended to it.  Raises NonCommutingError (with the commutator as
    witness) when G does not commute with H, and ValueError when the
    sequence has fewer than two states.
    """
    if G.shape != H.shape:
        raise DimensionMismatch(f"G has shape {G.shape}, model needs {H.shape}")
    comm = commutator(G, H)
    if not comm.is_zero():
        raise NonCommutingError(
            f"G does not commute with the Hamiltonian; commutator = {comm}",
            witness=comm,
        )
    g_is_h = G == H
    value: GaussInt | None = None
    first: int | None = None
    message = ""
    pairs = 0
    prev2 = prev = g_prev = None
    for n, psi in enumerate(states):
        g_psi = mat_vec(G, psi)
        if prev is not None:
            # q_G(prev, psi, G), reusing G applied to each state once
            q = inner_product(psi, g_prev) + inner_product(prev, g_psi)
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
            h_prev = g_prev if g_is_h else mat_vec(H, prev)
            if step_with_product(prev2, h_prev) != psi:
                first, message = n, "update rule violated"
        prev2, prev, g_prev = prev, psi, g_psi
    if pairs == 0:
        raise ValueError("a trajectory needs at least two states")
    return ConservationReport(
        ok=first is None, q_value=value, pairs_checked=pairs, first_violation=first, message=message
    )


def verify_trajectory(traj: Trajectory, G: GaussMatrix) -> ConservationReport:
    """verify_stream over a stored trajectory and its model Hamiltonian."""
    return verify_stream(traj, traj.hamiltonian(), G)
