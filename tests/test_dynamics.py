import pytest

from hamca.conservation import verify_stream
from hamca.errors import DimensionMismatch
from hamca.gaussian import GaussInt, GaussMatrix, GaussVector
from hamca.models import HamiltonianSpec, basis_state, build_hamiltonian, make_cyclic_model
from hamca.dynamics import (
    evolve,
    step_backward,
    step_forward,
    stream_states,
    transfer_operators,
)
from oracles import gauss_matrix, scaled, step_xp

H2 = build_hamiltonian(make_cyclic_model(2))
H3 = build_hamiltonian(make_cyclic_model(3))
Z2 = gauss_matrix([[0, 0], [0, 0]])
E = GaussVector.of


# First eight states of the two-state model from (1,0), (0,1), verified by
# hand iteration of psi_{n+1} = psi_{n-1} - i H psi_n.
TWO_STATE_SEQUENCE = [
    E(1, 0),
    E(0, 1),
    E((1, -1), 0),
    E(0, (0, -1)),
    E((0, -1), 0),
    E(0, (-1, -1)),
    E(-1, 0),
    E(0, -1),
]


class TestStepForward:
    def test_two_state_first_step(self):
        assert step_forward(E(1, 0), E(0, 1), H2) == E((1, -1), 0)

    def test_zero_hamiltonian_returns_prev(self):
        v = E((3, 4), (-1, 2))
        assert step_forward(v, E(9, 9), Z2) == v

    def test_cyclic_family_end_pair_lands_on_first_slot(self):
        m = 5
        H = build_hamiltonian(make_cyclic_model(m))
        out = step_forward(basis_state(m, m - 1), basis_state(m, m), H)
        assert out == scaled(basis_state(m, 1), GaussInt(0, -1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            step_forward(E(1, 0, 0), E(0, 1, 0), H2)


class TestStepBackward:
    def test_inverts_two_state_first_step(self):
        assert step_backward(E(0, 1), E((1, -1), 0), H2) == E(1, 0)

    def test_zero_hamiltonian(self):
        v = E((1, 2), 3)
        assert step_backward(E(5, 5), v, Z2) == v

    def test_inverts_cyclic_family_step(self):
        m = 5
        H = build_hamiltonian(make_cyclic_model(m))
        nxt = scaled(basis_state(m, 1), GaussInt(0, -1))
        assert step_backward(basis_state(m, m), nxt, H) == basis_state(m, m - 1)

    def test_round_trip_identity(self):
        prev, curr = E((2, -3), (0, 5)), E((1, 1), (4, 0))
        nxt = step_forward(prev, curr, H2)
        assert step_backward(curr, nxt, H2) == prev


class TestEvolve:
    def test_two_state_sequence(self):
        assert evolve(E(1, 0), E(0, 1), H2, 6) == tuple(TWO_STATE_SEQUENCE)

    def test_zero_hamiltonian_constant(self):
        v = E((1, -2), 7)
        traj = evolve(v, v, Z2, 5)
        assert all(s == v for s in traj)

    def test_three_state_neighbour_pair_hand_values(self):
        # hand-iterated: the orbit walks the slots with a -i phase, then
        # repeats them with -1
        traj = evolve(basis_state(3, 2), basis_state(3, 3), H3, 10)
        mi = GaussInt(0, -1)
        assert traj[2] == scaled(basis_state(3, 1), mi)
        assert traj[3] == scaled(basis_state(3, 2), mi)
        assert traj[4] == scaled(basis_state(3, 3), mi)
        assert traj[5] == -basis_state(3, 1)
        assert traj[6] == -traj[0]
        assert traj[7] == -traj[1]

    def test_length_and_recursion_invariant(self):
        traj = evolve(E(1, 2), E((0, 1), 1), H2, 9)
        assert len(traj) == 11
        assert verify_stream(traj, H2, GaussMatrix.identity(2)).first_violation is None

    def test_matched_start(self):
        traj = evolve(E(1, 0), E(1, 0), H2, 3)
        assert traj[0] == traj[1] == E(1, 0)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            evolve(E(1, 0), E(0, 1), H2, -1)

    @pytest.mark.parametrize("n_steps", [None, 3.0, True, "3"])
    def test_rejects_steps_that_are_not_an_int(self, n_steps):
        # None streams for ever, so a tuple of it would exhaust memory instead of failing
        with pytest.raises(TypeError, match="n_steps must be an int, got"):
            evolve(E(1, 0), E(0, 1), H2, n_steps)

    def test_verify_recursion_catches_corruption(self):
        states = list(evolve(E(1, 0), E(0, 1), H2, 6))
        states[4] = -states[4]
        assert verify_stream(states, H2, GaussMatrix.identity(2)).first_violation == 4


class TestStream:
    def test_matches_evolve(self):
        full = evolve(E(1, 0), E(0, 1), H2, 20)
        assert tuple(stream_states(E(1, 0), E(0, 1), H2, 20)) == full

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="n_steps must be >= 0, got -3"):
            list(stream_states(E(1, 0), E(0, 1), H2, -3))

    def test_unbounded_stream_is_lazy(self):
        gen = stream_states(E(1, 0), E(0, 1), H2)
        first = [next(gen) for _ in range(5)]
        assert first[:2] == [E(1, 0), E(0, 1)]


class TestStepXP:
    def test_two_state_first_step_in_xp_form(self):
        spec = make_cyclic_model(2)
        # psi_0 = (1, 0) and psi_1 = (0, 1) are purely real states
        x2, p2 = step_xp((1, 0), (0, 0), (0, 1), (0, 0), spec)
        # psi_2 = (1 - i, 0)
        assert x2 == (1, 0)
        assert p2 == (-1, 0)

    def test_zero_model_fixed_point(self):
        spec = make_cyclic_model(2)
        zero = type(spec)(dim=2, S=((0, 0), (0, 0)), A=((0, 0), (0, 0)))
        x, p = step_xp((3, 1), (-2, 5), (7, 7), (9, 9), zero)
        assert (x, p) == ((3, 1), (-2, 5))

    def test_matches_complex_step(self):
        spec = make_cyclic_model(3)
        H = build_hamiltonian(spec)
        xp_prev = ((2, -1, 0), (1, 3, -4))
        xp_curr = ((0, 5, 1), (-2, 0, 2))
        x2, p2 = step_xp(*xp_prev, *xp_curr, spec)
        prev = GaussVector.of(*((a, b) for a, b in zip(*xp_prev)))
        curr = GaussVector.of(*((a, b) for a, b in zip(*xp_curr)))
        assert GaussVector.of(*zip(x2, p2)) == step_forward(prev, curr, H)

    def test_length_check(self):
        with pytest.raises(DimensionMismatch):
            step_xp((1,), (0,), (0,), (1,), make_cyclic_model(2))


class TestTransferOperator:
    def test_first_values(self):
        ops = transfer_operators(H2, 3)
        assert ops[0] == GaussMatrix.identity(2)
        assert ops[1] == Z2
        assert ops[2] == GaussMatrix.identity(2)
        assert ops[3] == scaled(H2, GaussInt(0, -1))

    def test_zero_hamiltonian_alternates(self):
        ops = transfer_operators(gauss_matrix([[0] * 3] * 3), 8)
        for k, op in enumerate(ops):
            if k % 2 == 0:
                assert op == GaussMatrix.identity(3)
            else:
                assert op == gauss_matrix([[0] * 3] * 3)

    def test_matched_start_propagation(self):
        psi0 = E((1, 1), (2, 0))
        traj = evolve(psi0, psi0, H2, 20)
        ops = transfer_operators(H2, 22)
        for n in range(22):
            assert (ops[n + 1] + ops[n]) @ psi0 == traj[n]

    def test_pair_propagation_from_any_anchor(self):
        traj = evolve(E(1, 0), E(0, 1), H2, 15)
        ops = transfer_operators(H2, 16)
        for n in range(2, 16):
            for m in range(0, n):
                lhs = ops[n - m + 1] @ traj[m + 1] + ops[n - m] @ traj[m]
                assert lhs == traj[n]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            transfer_operators(H2, -1)


def transfer_by_matrix_recurrence(H, n_max):
    """Reference: T(0) = 1, T(1) = 0, T(k+1) = T(k-1) - iH T(k) as matrix
    products, independent of the stepper transfer_operators reads."""
    m = H.shape[0]
    ops = [GaussMatrix.identity(m), gauss_matrix([[0] * m] * m)]
    minus_iH = scaled(H, GaussInt(0, -1))
    while len(ops) <= n_max:
        ops.append(ops[-2] + minus_iH @ ops[-1])
    return ops[: n_max + 1]


# demo 04's strongly coupled model, whose T(40) has entries of many digits
STIFF = HamiltonianSpec(
    dim=3,
    S=((2, -3, 1), (-3, 0, 3), (1, 3, -2)),
    A=((0, 2, -3), (-2, 0, 1), (3, -1, 0)),
)


@pytest.mark.parametrize(
    "H",
    [H2, H3, build_hamiltonian(make_cyclic_model(8)), gauss_matrix([[0] * 3] * 3), build_hamiltonian(STIFF)],
    ids=["H2", "H3", "Hm:8", "zeros3", "stiff"],
)
@pytest.mark.parametrize("n_max", [0, 1, 2, 40])
def test_transfer_operators_match_the_matrix_recurrence(H, n_max):
    assert transfer_operators(H, n_max) == transfer_by_matrix_recurrence(H, n_max)

