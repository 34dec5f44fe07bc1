import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hamca.errors import DegenerateStateError
from hamca.gaussian import GaussInt, GaussMatrix, GaussVector
from hamca.models import HamiltonianSpec, basis_state, build_hamiltonian, make_cyclic_model
from hamca.ontology import (
    classify_state,
    default_scan_budget,
    find_period,
    neighbour_pair_period,
    scan_ontological_pairs,
)
from hamca.conservation import link_counts
from hamca.dynamics import evolve, stream_states
from oracles import classify_reference, find_period_reference, gauss_matrix

E = GaussVector.of
H2 = build_hamiltonian(make_cyclic_model(2))
H3 = build_hamiltonian(make_cyclic_model(3))


NONZERO = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80)).filter(bool)


@st.composite
def sparse_states(draw) -> GaussVector:
    """States of 1 to 6 slots in the shapes classify_state tells apart: zero,
    one slot with re only, im only or both, re and im in different slots,
    one part with a nonzero value in two slots, or any parts at all."""
    m = draw(st.integers(1, 6))
    x, p = [0] * m, [0] * m
    k = draw(st.integers(0, m - 1))
    j = (k + draw(st.integers(1, m - 1))) % m if m > 1 else k  # another slot, if there is one
    shape = draw(st.sampled_from(["zero", "re", "im", "both", "split", "twice", "any"]))
    if shape in ("re", "both"):
        x[k] = draw(NONZERO)
    if shape in ("im", "both"):
        p[k] = draw(NONZERO)
    if shape == "split":
        x[k], p[j] = draw(NONZERO), draw(NONZERO)
    if shape == "twice":
        part = draw(st.sampled_from([x, p]))
        part[k] = part[j] = draw(NONZERO)
    if shape == "any":
        parts = st.lists(st.one_of(st.just(0), NONZERO), min_size=m, max_size=m)
        x, p = draw(parts), draw(parts)
    return GaussVector(tuple(x), tuple(p))


class TestClassifyState:
    def test_single_component_with_phase(self):
        assert classify_state(E(0, (0, -1), 0)) == (2, GaussInt(0, -1))

    def test_non_unit_factor_reported_verbatim(self):
        assert classify_state(E((1, -1), 0)) == (1, GaussInt(1, -1))

    def test_superposed(self):
        assert classify_state(E(1, 1)) is None

    def test_parts_in_different_slots_are_superposed(self):
        assert classify_state(E(0, 3, (0, -2))) is None
        assert classify_state(E((0, 5), 0, 7)) is None

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateStateError):
            classify_state(E(0, 0, 0))

    @settings(max_examples=400, deadline=None)
    @given(psi=sparse_states())
    def test_matches_slot_by_slot_oracle(self, psi):
        if not any(psi.re + psi.im):
            with pytest.raises(DegenerateStateError):
                classify_state(psi)
        else:
            assert classify_state(psi) == classify_reference(psi)



class TestFindPeriod:
    def test_three_state_neighbour_pair(self):
        rep = find_period(basis_state(3, 2), basis_state(3, 3), H3, 100)
        assert rep.period == 12
        assert rep.ontological
        assert rep.link_number == 0
        assert len(rep.visits) == 12

    def test_constant_orbit_has_period_one(self):
        v = E((2, 1), 3)
        rep = find_period(v, v, gauss_matrix([[0, 0], [0, 0]]), 10)
        assert rep.period == 1

    def test_two_state_measured_period(self):
        rep = find_period(E(1, 0), E(0, 1), H2, 100)
        assert rep.period == 12
        assert rep.ontological
        # the first eight states match the hand-iterated sequence
        expected_phases = [
            (1, GaussInt(1)),
            (2, GaussInt(1)),
            (1, GaussInt(1, -1)),
            (2, GaussInt(0, -1)),
            (1, GaussInt(0, -1)),
            (2, GaussInt(-1, -1)),
            (1, GaussInt(-1)),
            (2, GaussInt(-1)),
        ]
        got = [(v.k, v.phase) for v in rep.visits[:8]]
        assert got == expected_phases

    def test_budget_exhausted_is_a_result_not_an_error(self):
        rep = find_period(basis_state(3, 2), basis_state(3, 3), H3, 11)
        assert rep.period is None
        assert not rep.found

    def test_minimality_no_divisor_recurs(self):
        rep = find_period(basis_state(3, 1), basis_state(3, 2), H3, 100)
        traj = evolve(basis_state(3, 1), basis_state(3, 2), H3, rep.period + 1)
        for d in range(1, rep.period):
            if rep.period % d == 0:
                assert (traj[d], traj[d + 1]) != (traj[0], traj[1])

    def test_superposition_forming_start(self):
        # repeated-state start on the three-state model leaves the
        # single-component family immediately
        rep = find_period(basis_state(3, 1), basis_state(3, 1), H3, 50)
        assert not rep.ontological
        assert rep.link_number == 1


class TestScan:
    def test_four_state_all_neighbour_pairs(self):
        reports = scan_ontological_pairs(build_hamiltonian(make_cyclic_model(4)))
        assert len(reports) == 3
        for rep in reports:
            assert rep.period == 16
            assert rep.ontological
            assert rep.link_number == 0
            assert rep.matches_expected is True

    def test_two_state_flagged_against_expected(self):
        reports = scan_ontological_pairs(build_hamiltonian(make_cyclic_model(2)))
        assert len(reports) == 1
        assert reports[0].period == 12
        assert reports[0].expected_period == 8
        assert reports[0].matches_expected is False

    def test_default_budget(self):
        assert default_scan_budget(4) == 40
        reports = scan_ontological_pairs(build_hamiltonian(make_cyclic_model(6)))
        assert all(r.max_steps == default_scan_budget(6) for r in reports)


class TestOntologyConservation:
    def test_linkless_throughout_period(self):
        spec = make_cyclic_model(4)
        H = build_hamiltonian(spec)
        rep = find_period(basis_state(4, 1), basis_state(4, 2), H, 100)
        traj = evolve(basis_state(4, 1), basis_state(4, 2), H, rep.period)
        for a, b in zip(traj, traj[1:]):
            assert link_counts(a, b).total == 0

    def test_phase_alphabet_of_cyclic_family(self):
        allowed = {GaussInt(1), GaussInt(-1), GaussInt(0, 1), GaussInt(0, -1)}
        for m in (3, 5):
            reports = scan_ontological_pairs(build_hamiltonian(make_cyclic_model(m)))
            for rep in reports:
                assert {v.phase for v in rep.visits} <= allowed

    def test_two_state_phases_include_one_minus_i(self):
        rep = find_period(E(1, 0), E(0, 1), H2, 100)
        phases = {v.phase for v in rep.visits}
        assert GaussInt(1, -1) in phases
        assert GaussInt(-1, 1) in phases


class TestNeighbourPair:
    @pytest.mark.parametrize("m", [3, 5, 9])
    def test_scan_is_one_call_per_pair(self, m):
        H = build_hamiltonian(make_cyclic_model(m))
        budget = default_scan_budget(m)
        assert scan_ontological_pairs(H) == [
            neighbour_pair_period(H, k, budget) for k in range(1, m)
        ]

    @pytest.mark.parametrize("k", [0, 4])
    def test_pair_index_outside_the_model_rejected(self, k):
        # names the k the caller passed, not the basis index k + 1
        with pytest.raises(ValueError, match=r"^k must be in 1\.\.3$"):
            neighbour_pair_period(build_hamiltonian(make_cyclic_model(4)), k, 40)

    def test_tagged_with_family_period(self):
        rep = neighbour_pair_period(build_hamiltonian(make_cyclic_model(6)), 2, 100)
        assert rep.pair_index == 2
        assert rep.expected_period == 24
        assert rep.matches_expected


# ---------------------------------------------------------------------------
# the one-pass search against the store-then-classify reference
# ---------------------------------------------------------------------------

UNIT = st.integers(-2, 2)
BIG = st.sampled_from([1, -1]).map(lambda s: s * (2**64 + 3))  # past 64 bits


@st.composite
def hermitian_models(draw, dims=st.integers(1, 5), part=UNIT):
    """A random Hermitian H = S + iA, by default with m <= 5 and entries in [-2, 2]."""
    m = draw(dims)
    S = [[0] * m for _ in range(m)]
    A = [[0] * m for _ in range(m)]
    for i in range(m):
        S[i][i] = draw(part)
        for j in range(i + 1, m):
            S[i][j] = S[j][i] = draw(part)
            A[i][j] = draw(part)
            A[j][i] = -A[i][j]
    return HamiltonianSpec(m, S, A)


def models():
    """Random models, plus ring and zero models whose pairs all recur."""
    rings = st.integers(2, 5).map(make_cyclic_model)
    zero = st.integers(1, 5).map(lambda m: HamiltonianSpec(m, [[0] * m] * m, [[0] * m] * m))
    return st.one_of(hermitian_models(), rings, zero)


@st.composite
def states(draw, m):
    """Zero, single-slot (re and im both set in one slot), split (re and im
    in different slots), superposed, and past-64-bit states."""
    kind = draw(st.sampled_from(["zero", "single", "split", "superposed", "big"]))
    re, im = [0] * m, [0] * m
    if kind == "single":
        k = draw(st.integers(0, m - 1))
        re[k], im[k] = draw(st.sampled_from([(1, 0), (0, -1), (1, 1), (-2, 1), (2**64 + 3, -1)]))
    elif kind == "split" and m > 1:
        a, b = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        re[a], im[b] = draw(UNIT.filter(bool)), draw(UNIT.filter(bool))
    elif kind in ("superposed", "big"):
        parts = BIG if kind == "big" else UNIT
        re = draw(st.lists(parts, min_size=m, max_size=m))
        im = draw(st.lists(parts, min_size=m, max_size=m))
    return GaussVector(tuple(re), tuple(im))


@st.composite
def searches(draw):
    spec = draw(models())
    psi0 = draw(states(spec.dim))
    psi1 = psi0 if draw(st.booleans()) else draw(states(spec.dim))
    return spec, psi0, psi1


class TestFindPeriodMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(search=searches(), budget=st.integers(1, 40))
    def test_whole_reports_agree(self, search, budget):
        spec, psi0, psi1 = search
        H = build_hamiltonian(spec)
        full = find_period_reference(psi0, psi1, H, 60)
        # a budget below, at and above the period when there is one
        budgets = {budget} | ({full.period - 1, full.period, full.period + 1} - {0} if full.found else set())
        for b in sorted(budgets):
            assert find_period(psi0, psi1, H, b) == find_period_reference(psi0, psi1, H, b)


def ring_blocks(*sizes: int) -> HamiltonianSpec:
    """The rings Hm:<size> side by side, with no coupling between them."""
    m = sum(sizes)
    S = [[0] * m for _ in range(m)]
    A = [[0] * m for _ in range(m)]
    start = 0
    for size in sizes:
        ring = make_cyclic_model(size)
        for i in range(size):
            S[start + i][start:start + size] = ring.S[i]
            A[start + i][start:start + size] = ring.A[i]
        start += size
    return HamiltonianSpec(m, S, A)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFindPeriodMemory:
    def test_no_state_is_stored(self):
        # Hm:7 + Hm:11 + Hm:13 (31 slots): a pair touching all three rings
        # recurs after 4 * 7 * 11 * 13 = 4004 steps, past this budget
        H = build_hamiltonian(ring_blocks(7, 11, 13))
        psi0 = GaussVector.from_iter(int(i in (0, 7, 18)) for i in range(31))
        psi1 = GaussVector.from_iter(int(i in (1, 8, 19)) for i in range(31))
        budget = 3000
        assert not find_period(psi0, psi1, H, budget).found  # also compiles H's kernel
        stored = traced_peak(lambda: list(stream_states(psi0, psi1, H, budget)))
        assert traced_peak(lambda: find_period(psi0, psi1, H, budget)) < stored / 2


# ---------------------------------------------------------------------------
# the scan reads a pair met on a found orbit off that orbit
# ---------------------------------------------------------------------------


def per_pair(H: GaussMatrix, budget: int) -> list:
    """One search for each neighbour pair: the scan without reuse."""
    return [neighbour_pair_period(H, k, budget) for k in range(1, H.shape[0])]


def twisted_ring(m: int, slot: int) -> HamiltonianSpec:
    """Hm:m with the coupling between slots `slot` and `slot + 1` negated."""
    ring = make_cyclic_model(m)
    A = [list(row) for row in ring.A]
    A[slot - 1][slot], A[slot][slot - 1] = -A[slot - 1][slot], -A[slot][slot - 1]
    return HamiltonianSpec(m, ring.S, A)


class TestScanReusesFoundOrbits:
    @settings(max_examples=60, deadline=None)
    @given(spec=hermitian_models(st.integers(2, 6), st.integers(-1, 1)))
    def test_equals_one_search_per_pair(self, spec):
        H = build_hamiltonian(spec)
        for budget in (1, 3, default_scan_budget(spec.dim)):
            assert scan_ontological_pairs(H, budget) == per_pair(H, budget)

    def test_block_model_pairs_with_no_period_seed_nothing(self):
        H = build_hamiltonian(ring_blocks(7, 9, 11, 13))
        reports = scan_ontological_pairs(H)
        assert [r.found for r in reports].count(False) == 3  # the pairs that straddle two rings
        assert reports == per_pair(H, default_scan_budget(40))

    def test_pair_met_with_phase_minus_one_is_searched(self):
        # pair 1's orbit (period 24) meets pairs 4 and 5 first as (-e_k, -e_{k+1})
        H = build_hamiltonian(twisted_ring(6, 3))
        first = neighbour_pair_period(H, 1, 56)
        assert first.period == 24
        for k in (4, 5):
            v, w = next((v, w) for v, w in zip(first.visits, first.visits[1:]) if (v.k, w.k) == (k, k + 1))
            assert v.phase == w.phase == GaussInt(-1)
        assert scan_ontological_pairs(H) == per_pair(H, 56)

    def test_ring_is_searched_once(self, monkeypatch):
        import hamca.ontology as ontology

        searched = []
        search = ontology.neighbour_pair_period

        def counted(H, k, max_steps):
            searched.append(k)
            return search(H, k, max_steps)

        monkeypatch.setattr(ontology, "neighbour_pair_period", counted)
        reports = scan_ontological_pairs(build_hamiltonian(make_cyclic_model(30)))
        assert searched == [1]
        assert [r.pair_index for r in reports] == list(range(1, 30))
        assert all(r.period == 120 for r in reports)
