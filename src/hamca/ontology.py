"""Orbit classification: exact periods and permutation-like evolution.

A state is called single-component when exactly one slot is nonzero; an
orbit whose every visited state is single-component evolves by permuting
basis slots up to a scalar factor.  Recurrence is judged on the state
*pair* and by entry-exact equality: two states differing by an overall
phase count as different.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateStateError
from .gaussian import GaussInt, GaussVector
from .dynamics import ModelLike, stream_states
from .conservation import link_counts
from .models import HamiltonianSpec, basis_state


def classify_state(psi: GaussVector) -> tuple[int, GaussInt] | None:
    """(1-based slot index, scalar factor) for a single-component state,
    None for a superposed one.  The zero vector is rejected: a permutation
    ontology has no 'nothing' state."""
    hits = [i for i, (x, p) in enumerate(zip(psi.re, psi.im)) if x or p]
    if not hits:
        raise DegenerateStateError("zero vector has no component to classify")
    if len(hits) != 1:
        return None
    idx = hits[0]
    return idx + 1, GaussInt(psi.re[idx], psi.im[idx])


@dataclass(frozen=True)
class Visit:
    """One visited state: slot/phase when single-component, k=None otherwise."""

    n: int
    k: int | None
    phase: GaussInt | None


@dataclass(frozen=True)
class CycleReport:
    """Outcome of a period search.

    period is None when no recurrence of the initial pair occurred within
    the budget.  visits covers one full period when found (steps 0..P-1),
    otherwise every computed state.  ontological is True iff every visited
    state is single-component.  link_number is the conserved total L of
    the initial pair.  expected_period, when set by a family scan, lets
    callers flag measured-vs-expected mismatches without hard-coding.
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
    if psi.is_zero():
        return Visit(n=n, k=None, phase=None)
    cls = classify_state(psi)
    if cls is None:
        return Visit(n=n, k=None, phase=None)
    return Visit(n=n, k=cls[0], phase=cls[1])


def find_period(
    psi0: GaussVector,
    psi1: GaussVector,
    model: ModelLike,
    max_steps: int,
    pair_index: int | None = None,
    expected_period: int | None = None,
) -> CycleReport:
    """Smallest P <= max_steps with (psi_P, psi_{P+1}) = (psi_0, psi_1),
    comparing entries exactly.  Sequential search, so a found period is
    minimal by construction."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    links = link_counts(psi0, psi1)
    states: list[GaussVector] = []
    period = None
    for n, psi in enumerate(stream_states(psi0, psi1, model, max_steps)):
        states.append(psi)
        # the pair starting at step n - 1 is (states[n - 1], states[n])
        if n >= 2 and states[n - 1] == psi0 and psi == psi1:
            period = n - 1
            break
    visited = states[:period] if period is not None else states
    visits = tuple(_visit(n, s) for n, s in enumerate(visited))
    ontological = all(v.k is not None for v in visits)
    return CycleReport(
        period=period,
        visits=visits,
        ontological=ontological,
        link_number=links.total,
        max_steps=max_steps,
        pair_index=pair_index,
        expected_period=expected_period,
    )


def default_scan_budget(m: int) -> int:
    """Twice the expected cyclic-family period plus margin."""
    return 8 * m + 8


def neighbour_pair_period(spec: HamiltonianSpec, k: int, max_steps: int) -> CycleReport:
    """find_period for the basis pair (e_k, e_{k+1}), tagged as pair k with
    the expected 4m period of the cyclic family."""
    m = spec.dim
    return find_period(
        basis_state(m, k),
        basis_state(m, k + 1),
        spec,
        max_steps,
        pair_index=k,
        expected_period=4 * m,
    )


def scan_ontological_pairs(spec: HamiltonianSpec, max_steps: int | None = None) -> list[CycleReport]:
    """neighbour_pair_period for every k = 1..m-1."""
    budget = default_scan_budget(spec.dim) if max_steps is None else max_steps
    return [neighbour_pair_period(spec, k, budget) for k in range(1, spec.dim)]
