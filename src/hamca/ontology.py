"""Orbit classification: exact periods and permutation-like evolution.

A state is called single-component when exactly one slot is nonzero; an
orbit whose every visited state is single-component evolves by permuting
basis slots up to a scalar factor.  Recurrence is judged on the state
*pair* and by entry-exact equality: two states differing by an overall
phase count as different.  The period search is one pass over the exact
stream that keeps only the previous state.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegenerateStateError
from .gaussian import GaussInt, GaussMatrix, GaussVector, full_digit_repr
from .dynamics import stream_states
from .conservation import link_counts
from .models import basis_state


def classify_state(psi: GaussVector) -> tuple[int, GaussInt] | None:
    """(1-based slot index, scalar factor) for a single-component state,
    None for a superposed one.  The zero vector is rejected: a permutation
    ontology has no 'nothing' state.  Each part is judged by its count of
    zeros; a part with one nonzero value sums to it, which finds its slot."""
    x, p, m = psi.re, psi.im, len(psi.re)
    zx, zp = x.count(0), p.count(0)
    if zx == zp == m:
        raise DegenerateStateError("zero vector has no component to classify")
    if min(zx, zp) < m - 1:
        return None
    k = x.index(sum(x)) if zx < m else p.index(sum(p))
    return (k + 1, GaussInt(x[k], p[k])) if zp == m or p[k] else None  # None: x, p in two slots


class Visit(NamedTuple):
    """One visited state: slot/phase when single-component, k=None otherwise."""

    n: int
    k: int | None
    phase: GaussInt | None


@full_digit_repr
class CycleReport(NamedTuple):
    """Outcome of a period search.

    period is None when no recurrence of the initial pair occurred within
    the budget.  visits covers one full period when found (steps 0..P-1),
    otherwise every computed state.  ontological is True iff every visited
    state is single-component.  link_number is the conserved total L of
    the initial pair.  pair_index and expected_period, set by a family
    scan (neighbour_pair_period), let callers flag measured-vs-expected
    mismatches without hard-coding.
    """

    period: int | None
    visits: tuple[Visit, ...]
    ontological: bool
    link_number: int
    max_steps: int
    pair_index: int | None = None
    expected_period: int | None = None

    @property
    def found(self) -> bool:
        return self.period is not None

    @property
    def matches_expected(self) -> bool | None:
        if self.expected_period is None:
            return None
        return self.period == self.expected_period


def _visit(n: int, psi: GaussVector) -> Visit:
    """State n as a Visit: a zero state, like a superposed one, is in no slot."""
    try:
        cls = classify_state(psi)
    except DegenerateStateError:
        cls = None
    return Visit(n, *cls) if cls else Visit(n, None, None)


def find_period(psi0: GaussVector, psi1: GaussVector, H: GaussMatrix, max_steps: int) -> CycleReport:
    """Smallest P <= max_steps with (psi_P, psi_{P+1}) = (psi_0, psi_1),
    comparing entries exactly.  Sequential search, so a found period is
    minimal by construction.  One pass over the stream: each state is
    classified as it arrives, and only the previous state is kept."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    links = link_counts(psi0, psi1)
    visits: list[Visit] = []
    period = prev = None
    for n, psi in enumerate(stream_states(psi0, psi1, H, max_steps)):
        # the pair starting at step n - 1 is (prev, psi)
        if n >= 2 and prev == psi0 and psi == psi1:
            period = n - 1
            visits.pop()  # state n - 1 starts the next period
            break
        visits.append(_visit(n, psi))
        prev = psi
    return CycleReport(
        period=period,
        visits=tuple(visits),
        ontological=all(v.k is not None for v in visits),
        link_number=links.total,
        max_steps=max_steps,
    )


def default_scan_budget(m: int) -> int:
    """Twice the expected cyclic-family period plus margin."""
    return 8 * m + 8


def neighbour_pair_period(H: GaussMatrix, k: int, max_steps: int) -> CycleReport:
    """find_period for the basis pair (e_k, e_{k+1}), tagged as pair k with
    the expected 4m period of the cyclic family."""
    m = H.shape[0]
    if k not in _neighbour_pairs(m):
        raise ValueError(f"k must be in 1..{m - 1}")
    report = find_period(basis_state(m, k), basis_state(m, k + 1), H, max_steps)
    return report._replace(pair_index=k, expected_period=4 * m)


def _neighbour_pairs(m: int) -> range:
    """The pair indices k = 1..m-1 of an m-state model, which needs two states."""
    if m < 2:
        raise ValueError("a 1-state model has no neighbour pair")
    return range(1, m)


def scan_ontological_pairs(H: GaussMatrix, max_steps: int | None = None) -> list[CycleReport]:
    """neighbour_pair_period for every k = 1..m-1, searching each orbit once.

    A found orbit that visits (e_k, e_{k+1}) itself, phase 1 in both, at
    steps s and s + 1 (mod P) is pair k's orbit from step s on: the pair map
    is invertible, so the period is the same, and L = 0 for every basis pair.
    A later such k is read off that orbit; any other k is searched."""
    m = H.shape[0]
    budget = default_scan_budget(m) if max_steps is None else max_steps
    met: dict[int, tuple[CycleReport, int]] = {}  # pair k -> (found orbit, step s of (e_k, e_{k+1}))
    reports = []
    for k in _neighbour_pairs(m):
        if k in met:
            rep, s = met[k]
            turned = rep.visits[s:] + rep.visits[:s]
            reports.append(rep._replace(visits=tuple(Visit(n, *v[1:]) for n, v in enumerate(turned)), pair_index=k))
            continue
        rep = neighbour_pair_period(H, k, budget)
        reports.append(rep)
        if rep.found:
            for s, (v, w) in enumerate(zip(rep.visits, rep.visits[1:] + rep.visits[:1])):
                if v.k is not None and w.k == v.k + 1 and v.phase == w.phase == GaussInt(1):
                    met.setdefault(v.k, (rep, s))
    return reports
