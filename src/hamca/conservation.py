"""Conserved quantities of the second-order update rule.

For any matrix G commuting with H, the two-time correlation

    q_G(n) = <psi_{n+1}, G psi_n> + <psi_n, G psi_{n+1}>

is the same Gaussian integer for every n; with G = identity it doubles the
total link number L, the integer that replaces the familiar norm.  All
checks here are entry-exact: a failed comparison means a broken stepper,
never roundoff.
"""

from __future__ import annotations

from math import gcd
from operator import add, mul
from typing import Iterable, NamedTuple

from .errors import DimensionMismatch, NonCommutingError
from .gaussian import GaussInt, GaussMatrix, GaussVector, _step_kernel, full_digit_repr
from .gaussian import inner_product, is_hermitian, mat_vec


def q_G(psi_n: GaussVector, psi_next: GaussVector, G: GaussMatrix) -> GaussInt:
    """Two-time correlation of a consecutive state pair under G.

    Real, 2 Re<psi_n, G psi_{n+1}>, whenever G is Hermitian.  If also
    [G, H] = 0, the update rule conserves it: the rule at n + 2 gives
    q(n+1) = q(n), as GH is Hermitian and -i<psi, GH psi> has no real part.
    """
    a = inner_product(psi_next, mat_vec(G, psi_n))
    b = inner_product(psi_n, mat_vec(G, psi_next))
    return GaussInt(a.re + b.re, a.im + b.im)


def q1(psi_n: GaussVector, psi_next: GaussVector) -> int:
    """q_G with G = identity: 2 * Re <psi_{n+1}, psi_n>, an ordinary int."""
    return 2 * (sum(map(mul, psi_next.re, psi_n.re)) + sum(map(mul, psi_next.im, psi_n.im)))


def commutator(G: GaussMatrix, H: GaussMatrix) -> GaussMatrix:
    if G.shape != H.shape or not G.is_square():
        raise DimensionMismatch(f"commutator needs equal square shapes, got {G.shape} and {H.shape}")
    return G @ H - H @ G


@full_digit_repr
class LinkReport(NamedTuple):
    """Per-degree-of-freedom link counts for one consecutive pair; total is
    sum(per_alpha), so the weights L_a / L sum to 1 exactly."""

    per_alpha: tuple[int, ...]
    total: int

    def reduced_weights(self) -> tuple[tuple[int, int], ...] | None:
        """None exactly when total = 0, a regime with no continuum limit;
        otherwise each weight L_a / L, possibly outside [0, 1], as the int
        pair (num, den) in lowest terms with den > 0 that Fraction(L_a, L) holds."""
        return tuple(_reduced(la, self.total) for la in self.per_alpha) if self.total else None


def _reduced(la: int, total: int) -> tuple[int, int]:
    """L_a / L for L != 0 as (num, den) in lowest terms with den > 0."""
    if total < 0:
        la, total = -la, -total
    g = gcd(la, total)
    return la // g, total // g


def link_counts(psi_n: GaussVector, psi_next: GaussVector) -> LinkReport:
    """Count links between two consecutive states.

    L_a = x_{n+1} x_n + p_{n+1} p_n per slot a (plain integer products);
    the total equals q1 / 2 identically.
    """
    if len(psi_n.re) != len(psi_next.re):
        raise DimensionMismatch(f"state lengths differ: {len(psi_n.re)} vs {len(psi_next.re)}")
    per = tuple(map(add, map(mul, psi_next.re, psi_n.re), map(mul, psi_next.im, psi_n.im)))
    return LinkReport(per_alpha=per, total=sum(per))


_MEMO_ENTRIES = 256  # entries a memo of states or pairs takes: a growing orbit never repeats one


def _kept(memo: dict, key, value):
    """`value`, kept in `memo` under `key` while the memo holds fewer than _MEMO_ENTRIES."""
    if len(memo) < _MEMO_ENTRIES:
        memo[key] = value
    return value


class PairStats(NamedTuple):
    """Per-pair snapshot used by trajectory verification and CSV export."""

    n: int
    q: GaussInt
    links: LinkReport


class ConservationReport(NamedTuple):
    """Outcome of one verification pass.

    first_violation is the index of the first broken pair (q_G change) or
    broken state (update rule), and message says which.
    """

    ok: bool
    q_value: GaussInt | None
    pairs_checked: int
    first_violation: int | None
    message: str = ""


def verify_stream(
    states: Iterable[GaussVector],
    H: GaussMatrix,
    G: GaussMatrix,
    rows=None,
) -> ConservationReport:
    """Check a state sequence in one pass over its int parts: q_G is one
    constant, and every state from index 2 on obeys the update rule.

    Each state costs one application of H, whose step from (psi_{n-1},
    psi_{n-2}) must give psi_n.  As G is Hermitian and commutes with H
    (both checked first), GH is Hermitian and the rule at n gives q(n-1) =
    q(n-2) + 2 Re(-i<psi_{n-1}, GH psi_{n-1}>) = q(n-2).  So `q_G` runs at
    pair 0 and at each pair n - 1 whose rule at n fails, where a changed q
    is reported at n - 1; other pairs carry the running q, their exact q.
    Only a sliding window of states is held, so the sequence may be a
    generator over a file.  The whole sequence is read even after a
    violation; when `rows` is given (anything with an `append`: a list, or a
    serialization.ConservationCsvWriter), the PairStats of every pair are
    appended to it as the pair is checked; a pair met again, as a periodic
    orbit meets its pairs, gets the LinkReport it got first (a bounded
    number are kept).  Raises NonCommutingError (with
    the commutator as witness) when [G, H] != 0, and ValueError when G or H
    is not Hermitian or the sequence has fewer than two states.
    """
    if G.shape != H.shape:
        raise DimensionMismatch(f"G has shape {G.shape}, model needs {H.shape}")
    comm = commutator(G, H)
    if not comm.is_zero():
        raise NonCommutingError(
            f"G does not commute with the Hamiltonian; commutator = {comm}",
            witness=comm,
        )
    if not is_hermitian(G):
        raise ValueError("G is not Hermitian, so q_G is not the real 2 Re<psi_n, G psi_(n+1)> checked here")
    if not is_hermitian(H):
        raise ValueError("H is not Hermitian, so GH need not be and the update rule need not conserve q_G")
    m = len(G.re)
    h_step = _step_kernel(H)
    value = q = first = prev2 = prev = None
    message = ""
    n = 0
    links = {}  # the parts of a pair -> its LinkReport
    for n, psi in enumerate(states):
        if len(psi.re) != m:
            raise DimensionMismatch(f"matrix {G.shape} cannot act on length-{len(psi)} vector")
        if n == 1:
            value = q = q_G(prev, psi, G)
        # psi_n = psi_{n-2} - i H psi_{n-1}, H's step from (psi_{n-1}, psi_{n-2}); where it
        # holds, pair n - 1 has the q of pair n - 2, so q_G runs only where it fails
        elif n and h_step(prev.re, prev.im, prev2.re, prev2.im) != (psi.re, psi.im):
            q = q_G(prev, psi, G)
            if first is None and q != value:
                first, message = n - 1, f"q_G changed from {value} to {q}"
            elif first is None:
                first, message = n, "update rule violated"
        if n and rows is not None:
            pair = (prev.re, prev.im, psi.re, psi.im)
            rows.append(PairStats(n - 1, q, links.get(pair) or _kept(links, pair, link_counts(prev, psi))))
        prev2, prev = prev, psi
    if n == 0:
        raise ValueError("a trajectory needs at least two states")
    return ConservationReport(
        ok=first is None, q_value=value, pairs_checked=n, first_violation=first, message=message
    )
