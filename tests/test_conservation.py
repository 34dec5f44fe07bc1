from fractions import Fraction

import pytest

import hamca.conservation as conservation
from hamca.conservation import (
    commutator,
    commutes,
    conservation_residual,
    iter_pair_stats,
    link_counts,
    q1,
    q_G,
    verify_stream,
    verify_trajectory,
)
from hamca.dynamics import Trajectory, evolve
from hamca.errors import NonCommutingError
from hamca.gaussian import GaussInt, GaussMatrix, GaussVector
from hamca.models import basis_state, build_hamiltonian, make_cyclic_model

E = GaussVector.of
H2 = build_hamiltonian(make_cyclic_model(2))
H3 = build_hamiltonian(make_cyclic_model(3))
SIGMA3 = GaussMatrix.from_rows([[1, 0], [0, -1]])
EYE2 = GaussMatrix.identity(2)


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


class TestResidual:
    def test_identity_on_two_state_orbit(self):
        traj = evolve(E(1, 0), E(0, 1), H2, 6)
        for n in range(1, 6):
            assert conservation_residual(traj[n - 1], traj[n], traj[n + 1], EYE2) == GaussInt(0)

    def test_hamiltonian_commutes_with_itself(self):
        traj = evolve(E((1, 1), 2, (0, -1)), E(0, 1, (3, 1)), H3, 5)
        for n in range(1, 5):
            assert conservation_residual(traj[n - 1], traj[n], traj[n + 1], H3) == GaussInt(0)

    def test_noncommuting_g_violates_on_mixed_state(self):
        # trajectory triple from psi0=(1,0), psi1=(1,i); the centre state
        # has both slots filled, which diag(1,-1) does not conserve
        psi0, psi1 = E(1, 0), E(1, (0, 1))
        psi2 = E(2, (0, -1))
        traj = evolve(psi0, psi1, H2, 1)
        assert traj[2] == psi2
        assert conservation_residual(psi0, psi1, psi2, SIGMA3) == GaussInt(4)

    def test_diagonal_g_accidentally_conserved_on_alternating_orbit(self):
        # the (1,0)/(0,1) orbit hops between the two slots, so a diagonal G
        # keeps every consecutive pair orthogonal and the residual stays 0
        # even though [G, H] != 0
        traj = evolve(E(1, 0), E(0, 1), H2, 6)
        for n in range(1, 6):
            assert conservation_residual(traj[n - 1], traj[n], traj[n + 1], SIGMA3) == GaussInt(0)


class TestCommutes:
    def test_identity_always_commutes(self):
        assert commutes(EYE2, H2)
        assert commutes(GaussMatrix.identity(3), H3)

    def test_hamiltonian_with_itself(self):
        assert commutes(H2, H2)

    def test_diagonal_counterexample_with_witness(self):
        assert not commutes(SIGMA3, H2)
        assert commutator(SIGMA3, H2) == GaussMatrix.from_rows([[0, 2], [-2, 0]])


class TestLinkCounts:
    def test_orthogonal_basis_pair_is_linkless(self):
        m = 5
        rep = link_counts(basis_state(m, m - 1), basis_state(m, m))
        assert rep.per_alpha == (0,) * m
        assert rep.total == 0
        assert rep.weights is None

    def test_repeated_basis_state(self):
        rep = link_counts(E(1, 0), E(1, 0))
        assert rep.per_alpha == (1, 0)
        assert rep.total == 1
        assert rep.weights == (Fraction(1), Fraction(0))

    def test_hand_expanded_components(self):
        rep = link_counts(E((1, 1), 0), E((2, -1), 0))
        assert rep.per_alpha[0] == 2 * 1 + (-1) * 1
        assert rep.total == 1

    def test_negative_weights_not_clamped(self):
        rep = link_counts(E(1, 2), E(3, -1))
        assert rep.per_alpha == (3, -2)
        assert rep.total == 1
        assert rep.weights == (Fraction(3), Fraction(-2))
        assert sum(rep.weights) == 1

    def test_total_is_half_q1(self):
        v, w = E((4, -7), (2, 3)), E((-1, 5), (6, -2))
        assert 2 * link_counts(v, w).total == q1(v, w)


class TestVerifyTrajectory:
    def test_two_state_orbit_constant_zero(self):
        traj = evolve(E(1, 0), E(0, 1), H2, 6)
        report = verify_trajectory(traj, EYE2)
        assert report.ok
        assert report.q_value == GaussInt(0)
        assert report.pairs_checked == 7

    def test_constant_trajectory_gives_twice_norm(self):
        v = E((1, 2), (3, 0))
        traj = evolve(v, v, GaussMatrix.zeros(2), 4)
        report = verify_trajectory(traj, EYE2)
        assert report.ok
        assert report.q_value == GaussInt(2 * (1 + 4 + 9))

    def test_long_run_single_value(self):
        h4 = build_hamiltonian(make_cyclic_model(4))
        traj = evolve(E(3, (1, -2), 0, (0, 5)), E((2, 2), -1, 4, 0), h4, 300)
        report = verify_trajectory(traj, h4)
        assert report.ok
        assert report.first_violation is None

    def test_noncommuting_g_rejected_with_witness(self):
        traj = evolve(E(1, 0), E(0, 1), H2, 4)
        with pytest.raises(NonCommutingError) as err:
            verify_trajectory(traj, SIGMA3)
        assert err.value.witness is not None
        assert not err.value.witness.is_zero()

    def test_corrupted_trajectory_reports_step(self):
        # a start with nonzero q1, so scaling one state is visible
        traj = evolve(E(1, 0), E(1, 1), H2, 6)
        assert verify_trajectory(traj, EYE2).q_value == GaussInt(2)
        states = list(traj.states)
        states[5] = states[5] * GaussInt(2)
        bad = Trajectory(model=traj.model, states=tuple(states), l=traj.l)
        report = verify_trajectory(bad, EYE2)
        assert not report.ok
        assert report.first_violation == 4

    def test_pair_stats_stream(self):
        traj = evolve(E(1, 0), E(0, 1), H2, 3)
        stats = list(iter_pair_stats(traj, EYE2))
        assert [s.n for s in stats] == [0, 1, 2, 3]
        assert all(2 * s.links.total == s.q.re for s in stats)


class TestVerifyStream:
    def negated_swap_orbit(self):
        traj = evolve(E(1, 0), E(0, 1), H2, 12)
        states = list(traj.states)
        states[4] = -states[4]
        return Trajectory(model=traj.model, states=tuple(states), l=traj.l)

    def test_update_rule_break_with_constant_q(self):
        report = verify_trajectory(self.negated_swap_orbit(), EYE2)
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
        assert streamed == verify_trajectory(traj, G)
        assert streamed.ok is not corrupt
        assert rows == list(iter_pair_stats(traj, G))

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            verify_stream(iter([E(1, 0)]), H2, EYE2)

    def test_fractions_only_for_reported_pairs(self, monkeypatch):
        H = build_hamiltonian(make_cyclic_model(6))
        traj = evolve(E(1, 0, 2, 0, 0, -1), E(1, 1, 0, 0, 3, 0), H, 40)
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(conservation, "Fraction", counting)
        assert verify_stream(traj, H, H).ok
        assert made == []
        rows = []
        assert verify_stream(traj, H, H, rows).ok
        assert all(r.links.total == 1 for r in rows)
        assert [r.links.weights for r in rows] == [
            tuple(Fraction(la, 1) for la in r.links.per_alpha) for r in rows
        ]
        assert len(made) == 6 * len(rows)
