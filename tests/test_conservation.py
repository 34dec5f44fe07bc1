import io
import os
import sys
import tracemalloc
from fractions import Fraction
from operator import neg

import pytest
from hypothesis import given, settings, strategies as st

from hamca.conservation import (
    commutator,
    LinkReport,
    PairStats,
    link_counts,
    q1,
    q_G,
    verify_stream,
)
from hamca.dynamics import evolve, stream_states
from hamca.errors import NonCommutingError
from hamca.gaussian import GaussInt, GaussMatrix, GaussVector
from hamca.models import HamiltonianSpec, basis_state, build_hamiltonian, make_cyclic_model
from hamca.serialization import ConservationCsvWriter
from oracles import conservation_csv_reference, gauss_matrix, oracle_q_G, scaled, verify_stream_reference

E = GaussVector.of
H2 = build_hamiltonian(make_cyclic_model(2))
H3 = build_hamiltonian(make_cyclic_model(3))
SIGMA3 = gauss_matrix([[1, 0], [0, -1]])
EYE2 = GaussMatrix.identity(2)
EYE4 = GaussMatrix.identity(4)


class TestQG:
    def test_orthogonal_pair_gives_zero(self):
        assert q_G(E(1, 0), E(0, 1), EYE2) == GaussInt(0)

    def test_repeated_basis_state(self):
        assert q_G(E(1, 0), E(1, 0), EYE2) == GaussInt(2)

    def test_conserved_under_model_hamiltonian(self):
        traj = evolve(E(1, 0), E(0, 1), H2, 6)
        first = q_G(traj[0], traj[1], H2)
        assert first == GaussInt(2)
        assert q_G(traj[4], traj[5], H2) == first

    def test_real_for_hermitian_g(self):
        v, w = E((2, 3), (-1, 4)), E((0, -2), (5, 1))
        assert q_G(v, w, H2).im == 0

    def test_q1_shortcut_matches_identity_g(self):
        v, w = E((2, 3), (-1, 4)), E((0, -2), (5, 1))
        assert q1(v, w) == q_G(v, w, EYE2).re


def residual(traj, n, G) -> tuple[int, int]:
    """q_G of pair n minus q_G of pair n - 1, as its (re, im) parts."""
    later, earlier = q_G(traj[n], traj[n + 1], G), q_G(traj[n - 1], traj[n], G)
    return later.re - earlier.re, later.im - earlier.im


class TestResidual:
    def test_identity_on_two_state_orbit(self):
        traj = evolve(E(1, 0), E(0, 1), H2, 6)
        for n in range(1, 6):
            assert residual(traj, n, EYE2) == (0, 0)

    def test_hamiltonian_commutes_with_itself(self):
        traj = evolve(E((1, 1), 2, (0, -1)), E(0, 1, (3, 1)), H3, 5)
        for n in range(1, 5):
            assert residual(traj, n, H3) == (0, 0)

    def test_noncommuting_g_violates_on_mixed_state(self):
        # trajectory triple from psi0=(1,0), psi1=(1,i); the centre state
        # has both slots filled, which diag(1,-1) does not conserve
        psi0, psi1 = E(1, 0), E(1, (0, 1))
        psi2 = E(2, (0, -1))
        traj = evolve(psi0, psi1, H2, 1)
        assert traj[2] == psi2
        assert residual(traj, 1, SIGMA3) == (4, 0)

    def test_diagonal_g_accidentally_conserved_on_alternating_orbit(self):
        # the (1,0)/(0,1) orbit hops between the two slots, so a diagonal G
        # keeps every consecutive pair orthogonal and the residual stays 0
        # even though [G, H] != 0
        traj = evolve(E(1, 0), E(0, 1), H2, 6)
        for n in range(1, 6):
            assert residual(traj, n, SIGMA3) == (0, 0)


BIG = 2**64
big_parts = st.integers(min_value=-(BIG**2), max_value=BIG**2)


def i_times_identity(m: int) -> GaussMatrix:
    return GaussMatrix(((0,) * m,) * m, GaussMatrix.identity(m).re)


class TestQGWithNonHermitianG:
    """G = i*I commutes with every H but is not Hermitian, so q_G has an
    imaginary part: i * 2 Re<psi_{n+1}, psi_n>, i times q1."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(st.tuples(big_parts, big_parts), min_size=2 * m, max_size=2 * m)))
    def test_matches_oracle_past_64_bits(self, parts):
        m = len(parts) // 2
        psi_n, psi_next = GaussVector.from_iter(parts[:m]), GaussVector.from_iter(parts[m:])
        G = i_times_identity(m)
        q = q_G(psi_n, psi_next, G)
        assert q == oracle_q_G(psi_n, psi_next, G)
        assert (q.re, q.im) == (0, q1(psi_n, psi_next))

    def test_conserved_with_nonzero_imaginary_part_past_64_bits(self):
        # tridiag(1, 2, 1) has spectrum outside (-2, 2): from small starts
        # the parts pass 2^64 well within the run
        spec = HamiltonianSpec(3, ((2, 1, 0), (1, 2, 1), (0, 1, 2)), ((0, 0, 0),) * 3)
        traj = evolve(E(1, (0, 2), -1), E(3, 0, (1, 1)), build_hamiltonian(spec), 60)
        assert max(abs(v).bit_length() for v in traj[-1].re + traj[-1].im) > 64
        G = i_times_identity(3)
        values = {q_G(a, b, G) for a, b in zip(traj, traj[1:])}
        assert values == {oracle_q_G(traj[0], traj[1], G)}
        (value,) = values
        assert value.re == 0 and value.im != 0


class TestCommutes:
    def test_identity_always_commutes(self):
        assert commutator(EYE2, H2).is_zero()
        assert commutator(GaussMatrix.identity(3), H3).is_zero()

    def test_hamiltonian_with_itself(self):
        assert commutator(H2, H2).is_zero()

    def test_diagonal_counterexample_with_witness(self):
        assert not commutator(SIGMA3, H2).is_zero()
        assert commutator(SIGMA3, H2) == gauss_matrix([[0, 2], [-2, 0]])


class TestLinkCounts:
    def test_orthogonal_basis_pair_is_linkless(self):
        m = 5
        rep = link_counts(basis_state(m, m - 1), basis_state(m, m))
        assert rep.per_alpha == (0,) * m
        assert rep.total == 0
        assert rep.reduced_weights() is None

    def test_repeated_basis_state(self):
        rep = link_counts(E(1, 0), E(1, 0))
        assert rep.per_alpha == (1, 0)
        assert rep.total == 1
        assert rep.reduced_weights() == ((1, 1), (0, 1))

    def test_hand_expanded_components(self):
        rep = link_counts(E((1, 1), 0), E((2, -1), 0))
        assert rep.per_alpha[0] == 2 * 1 + (-1) * 1
        assert rep.total == 1

    def test_negative_weights_not_clamped(self):
        rep = link_counts(E(1, 2), E(3, -1))
        assert rep.per_alpha == (3, -2)
        assert rep.total == 1
        assert rep.reduced_weights() == ((3, 1), (-2, 1))
        assert sum(Fraction(*w) for w in rep.reduced_weights()) == 1

    def test_total_is_half_q1(self):
        v, w = E((4, -7), (2, 3)), E((-1, 5), (6, -2))
        assert 2 * link_counts(v, w).total == q1(v, w)


class TestVerifyTrajectory:
    def test_two_state_orbit_constant_zero(self):
        report = verify_stream(evolve(E(1, 0), E(0, 1), H2, 6), H2, EYE2)
        assert report.ok
        assert report.q_value == GaussInt(0)
        assert report.pairs_checked == 7

    def test_constant_trajectory_gives_twice_norm(self):
        v = E((1, 2), (3, 0))
        zero = gauss_matrix([[0, 0], [0, 0]])
        report = verify_stream(evolve(v, v, zero, 4), zero, EYE2)
        assert report.ok
        assert report.q_value == GaussInt(2 * (1 + 4 + 9))

    def test_long_run_single_value(self):
        h4 = build_hamiltonian(make_cyclic_model(4))
        traj = evolve(E(3, (1, -2), 0, (0, 5)), E((2, 2), -1, 4, 0), h4, 300)
        report = verify_stream(traj, h4, h4)
        assert report.ok
        assert report.first_violation is None

    def test_noncommuting_g_rejected_with_witness(self):
        traj = evolve(E(1, 0), E(0, 1), H2, 4)
        with pytest.raises(NonCommutingError) as err:
            verify_stream(traj, H2, SIGMA3)
        assert err.value.witness is not None
        assert not err.value.witness.is_zero()

    def test_anti_hermitian_g_rejected(self):
        # i*I commutes with every H, but its q_G is imaginary, not the real sum checked
        traj = evolve(E(1, 0), E(0, 1), H2, 4)
        with pytest.raises(ValueError, match="G is not Hermitian") as err:
            verify_stream(traj, H2, gauss_matrix([[(0, 1), 0], [0, (0, 1)]]))
        assert not isinstance(err.value, NonCommutingError)

    def test_non_hermitian_h_rejected(self):
        # the rule holds at every state, yet q_1 changes: the shortcut that
        # carries q over pairs where the rule holds needs GH Hermitian
        H = GaussMatrix(((1, 1), (0, 1)), ((0, 0), (0, 0)))
        traj = evolve(E(1, 0), E(0, 1), H, 6)
        assert [q_G(a, b, EYE2).re for a, b in zip(traj, traj[1:])] == [0, 0, -2, -2, -2, -4, -4]
        with pytest.raises(ValueError, match="H is not Hermitian"):
            verify_stream(traj, H, EYE2)

    def test_corrupted_trajectory_reports_step(self):
        # a start with nonzero q1, so scaling one state is visible
        traj = evolve(E(1, 0), E(1, 1), H2, 6)
        assert verify_stream(traj, H2, EYE2).q_value == GaussInt(2)
        states = list(traj)
        states[5] = scaled(states[5], 2)
        report = verify_stream(states, H2, EYE2)
        assert not report.ok
        assert report.first_violation == 4

    def test_pair_stats_stream(self):
        traj = evolve(E(1, 0), E(0, 1), H2, 3)
        stats = []
        verify_stream(traj, H2, EYE2, stats)
        assert [s.n for s in stats] == [0, 1, 2, 3]
        assert all(2 * s.links.total == s.q.re for s in stats)


class TestVerifyStream:
    def negated_swap_orbit(self):
        states = list(evolve(E(1, 0), E(0, 1), H2, 12))
        states[4] = -states[4]
        return tuple(states)

    def test_update_rule_break_with_constant_q(self):
        report = verify_stream(self.negated_swap_orbit(), H2, EYE2)
        assert not report.ok
        assert report.first_violation == 4
        assert report.q_value == GaussInt(0)
        assert report.message == "update rule violated"

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("G", [EYE2, H2], ids=["identity", "hamiltonian"])
    def test_generator_matches_stored_trajectory(self, corrupt, G):
        traj = self.negated_swap_orbit() if corrupt else evolve(E(1, 0), E(1, 1), H2, 12)
        rows = []
        streamed = verify_stream((psi for psi in traj), H2, G, rows)
        assert streamed == verify_stream(traj, H2, G)
        assert streamed.ok is not corrupt
        pairs = enumerate(zip(traj, traj[1:]))
        assert rows == [PairStats(n, q_G(a, b, G), link_counts(a, b)) for n, (a, b) in pairs]

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            verify_stream(iter([E(1, 0)]), H2, EYE2)

    def test_grown_violation_is_reported_past_the_digit_limit(self, digit_limit):
        big = 2**20_000 + 7
        states = list(evolve(E((big, -(3**40_000)), 1), E(0, (3, big)), H2, 4))
        last = states[-1]
        states[-1] = GaussVector(tuple(x + 1 for x in last.re), last.im)
        report = verify_stream(states, H2, H2)
        assert sys.get_int_max_str_digits() == digit_limit
        assert (report.ok, report.first_violation) == (False, 4)
        assert report.message.startswith("q_G changed from ")
        assert len(report.message) > 2 * 4300

    def test_reported_rows_carry_reduced_weights(self):
        H = build_hamiltonian(make_cyclic_model(6))
        traj = evolve(E(1, 0, 2, 0, 0, -1), E(1, 1, 0, 0, 3, 0), H, 40)
        assert verify_stream(traj, H, H).ok
        rows = []
        assert verify_stream(traj, H, H, rows).ok
        assert len(rows) == len(traj) - 1
        assert all(r.links.total == 1 for r in rows)
        assert [r.links.reduced_weights() for r in rows] == [
            tuple((la, 1) for la in r.links.per_alpha) for r in rows
        ]


# link counts: zero slots, small ints (so totals of 0, +-1 and small
# divisors are common) and parts up to 2^200
LINK = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**200), 2**200))


class TestReducedWeights:
    """reduced_weights and the report's weight cells against Fraction."""

    @settings(max_examples=300, deadline=None)
    @given(per=st.lists(LINK, min_size=1, max_size=6), zero_total=st.booleans())
    def test_matches_fraction(self, per, zero_total):
        if zero_total:
            per.append(-sum(per))
        links = LinkReport(tuple(per), sum(per))
        out = io.StringIO()
        ConservationCsvWriter(out, len(per)).append(PairStats(n=0, q=GaussInt(2 * links.total), links=links))
        cells = out.getvalue().splitlines()[1].split(",")[-len(per):]
        if links.total == 0:
            assert links.reduced_weights() is None
            assert cells == [""] * len(per)
            return
        fractions = [Fraction(la, links.total) for la in per]
        assert links.reduced_weights() == tuple((f.numerator, f.denominator) for f in fractions)
        assert cells == [str(f) for f in fractions]
        assert sum(Fraction(*w) for w in links.reduced_weights()) == 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_of_one_l(self, data):
        # link counts drawn from a small pool, so most cells are made once and read again
        dim = data.draw(st.integers(2, 5))
        total = data.draw(LINK.filter(bool))
        pool = data.draw(st.lists(LINK, min_size=1, max_size=4))
        rows = []
        for n in range(data.draw(st.integers(1, 8))):
            per = data.draw(st.lists(st.sampled_from(pool), min_size=dim - 1, max_size=dim - 1))
            per.append(total - sum(per))
            rows.append(PairStats(n, GaussInt(2 * total), LinkReport(tuple(per), total)))
        assert report_text(dim, rows) == conservation_csv_reference(dim, rows)

    def test_rows_past_the_cells_kept(self):
        # more distinct L_a under one L than the report keeps cells for, twice over
        total = 7 * 2**100
        counts = [*range(-2**99, -2**99 + 700), *range(300)] * 2
        rows = [
            PairStats(n, GaussInt(2 * total), LinkReport((la, total - la), total)) for n, la in enumerate(counts)
        ]
        assert report_text(2, rows) == conservation_csv_reference(2, rows)

    @pytest.mark.parametrize("corrupt", [neg, lambda v: scaled(v, 2)], ids=["negated", "doubled"])
    def test_l_changes_mid_stream(self, corrupt):
        # a corrupted state puts another L on the two pairs it is in, and the
        # cells made under one L must not be read under the next
        H = build_hamiltonian(make_cyclic_model(4))
        states = list(evolve(E(3, (1, -2), 0, (0, 5)), E((2, 2), -1, 4, 0), H, 40))
        states[20] = corrupt(states[20])
        rows, out = [], io.StringIO()
        assert not verify_stream(states, H, H, rows).ok
        totals = [r.links.total for r in rows]
        assert totals[0] != 0 and totals[19] == totals[20] != totals[0] == totals[21]
        with ConservationCsvWriter(out, 4) as report:
            verify_stream(states, H, H, report)
        assert out.getvalue() == conservation_csv_reference(4, rows)


def report_text(dim: int, rows) -> str:
    """The conservation report a ConservationCsvWriter writes for `rows`."""
    out = io.StringIO()
    with ConservationCsvWriter(out, dim) as w:
        for st_ in rows:
            w.append(st_)
    return out.getvalue()


class TestReportMemory:
    def test_weight_cells_are_bounded(self):
        """A growing orbit's L_a never repeat: the report's peak memory at
        2000 rows stays within 2 MiB of its peak at 500 (about 0.6 MB more
        on CPython 3.11), where keeping every cell would add about 10 MB
        (tridiag(1, 2, 1), m = 4: parts grow by about 1.9 bits a step)."""
        m = 4
        H = GaussMatrix(
            tuple(tuple(2 if i == j else int(abs(i - j) == 1) for j in range(m)) for i in range(m)),
            ((0,) * m,) * m,
        )
        psi = basis_state(m, 2)

        def peak(n_rows: int) -> int:
            with open(os.devnull, "w") as fh, ConservationCsvWriter(fh, m) as rows:
                tracemalloc.start()
                try:
                    assert verify_stream(stream_states(psi, psi, H, n_rows - 1), H, EYE4, rows).ok
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        small, big = peak(500), peak(2000)
        assert big - small < 2 * 2**20


@st.composite
def hermitian_models(draw) -> GaussMatrix:
    """H = S + iA of size m <= 5 with S symmetric and A antisymmetric."""
    m = draw(st.integers(1, 5))
    entry = st.integers(-2, 2)
    S = [[0] * m for _ in range(m)]
    A = [[0] * m for _ in range(m)]
    for i in range(m):
        S[i][i] = draw(entry)
        for j in range(i + 1, m):
            S[i][j] = S[j][i] = draw(entry)
            A[i][j] = draw(entry)
            A[j][i] = -A[i][j]
    return GaussMatrix(tuple(map(tuple, S)), tuple(map(tuple, A)))


@st.composite
def checked_runs(draw):
    """(H, G, states): a run of H with amplitudes of up to 2^64 or past the
    4300-digit limit, a G that commutes with H, and the states either clean
    or with one state negated, doubled, or one of its parts raised by 1, or
    with i G psi_(k-1) added to psi_k, k >= 1, which breaks the rule at k but
    leaves the q of pair k - 1 as it was: Re<psi, G i G psi> = 0."""
    H = draw(hermitian_models())
    m = H.shape[0]
    G = draw(st.sampled_from([H, GaussMatrix(H.re, H.im), GaussMatrix.identity(m), H @ H]))
    scale = draw(st.sampled_from([1, 2**64 + 3, 10**4300 + 7]))
    part = st.integers(-3, 3)

    def state() -> GaussVector:
        return GaussVector(*(tuple(draw(part) * scale for _ in range(m)) for _ in "xp"))

    states = list(evolve(state(), state(), H, draw(st.integers(0, 8))))
    k = draw(st.integers(0, len(states) - 1))
    corruption = draw(st.sampled_from(["none", "negate", "double", "plus_one", "rule_only"]))
    if corruption == "negate":
        states[k] = -states[k]
    elif corruption == "double":
        states[k] = scaled(states[k], 2)
    elif corruption == "plus_one":
        j = draw(st.integers(0, m - 1))
        x, p = map(list, (states[k].re, states[k].im))
        (x if draw(st.booleans()) else p)[j] += 1
        states[k] = GaussVector(tuple(x), tuple(p))
    elif corruption == "rule_only":
        k = max(k, 1)
        states[k] = states[k] + scaled(G @ states[k - 1], GaussInt(0, 1))
    return H, G, states


class TestFusedPassMatchesReference:
    """verify_stream and its report against the GaussVector-at-a-time
    verifier it replaced, which also compared 2L with q1 at every pair."""

    @settings(max_examples=120, deadline=None)
    @given(run=checked_runs())
    def test_report_and_csv_bytes(self, run):
        H, G, states = run
        m = H.shape[0]
        limit = sys.get_int_max_str_digits()
        stats = []
        expected = verify_stream_reference(states, H, G, stats)
        out = io.StringIO()
        with ConservationCsvWriter(out, m) as rows:
            report = verify_stream(iter(states), H, G, rows)
        assert report == expected
        assert expected.message != "2L != q1"
        assert out.getvalue() == conservation_csv_reference(m, stats)
        assert sys.get_int_max_str_digits() == limit
