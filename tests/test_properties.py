"""Cross-module invariants checked over randomized exact inputs."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hamca.conservation import commutator, link_counts, q1, q_G
from hamca.dynamics import (
    evolve,
    step_backward,
    step_forward,
    transfer_operators,
)
from hamca.gaussian import (
    GaussInt,
    GaussMatrix,
    GaussVector,
    inner_product,
    is_hermitian,
    mat_vec,
)
from hamca.models import HamiltonianSpec, build_hamiltonian
from hamca.ontology import classify_state
from oracles import conj, gauss_matrix, scaled, step_xp

small_ints = st.integers(min_value=-9, max_value=9)
tiny_ints = st.integers(min_value=-3, max_value=3)

gauss_scalars = st.builds(GaussInt, small_ints, small_ints)


def vectors(dim):
    return st.lists(gauss_scalars, min_size=dim, max_size=dim).map(GaussVector.from_iter)


def matrices(dim):
    return st.lists(
        st.lists(gauss_scalars, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    ).map(gauss_matrix)


@st.composite
def model_specs(draw, min_dim=1, max_dim=4):
    dim = draw(st.integers(min_value=min_dim, max_value=max_dim))
    s = [[0] * dim for _ in range(dim)]
    a = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        s[i][i] = draw(tiny_ints)
        for j in range(i + 1, dim):
            s[i][j] = s[j][i] = draw(tiny_ints)
            a[i][j] = draw(tiny_ints)
            a[j][i] = -a[i][j]
    return HamiltonianSpec(dim=dim, S=tuple(map(tuple, s)), A=tuple(map(tuple, a)))


@st.composite
def spec_with_states(draw, n_states=2, max_dim=4):
    spec = draw(model_specs(max_dim=max_dim))
    states = [draw(vectors(spec.dim)) for _ in range(n_states)]
    return (spec, *states)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adjointness_of_inner_product(data):
    dim = data.draw(st.integers(min_value=1, max_value=4))
    M = data.draw(matrices(dim))
    v = data.draw(vectors(dim))
    w = data.draw(vectors(dim))
    assert inner_product(mat_vec(M, v), w) == inner_product(v, mat_vec(M.conjugate_transpose(), w))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inner_product_conjugate_symmetry(data):
    dim = data.draw(st.integers(min_value=1, max_value=5))
    v = data.draw(vectors(dim))
    w = data.draw(vectors(dim))
    assert inner_product(v, w) == conj(inner_product(w, v))


@settings(max_examples=60, deadline=None)
@given(spec_with_states(n_states=4))
def test_xp_and_complex_steps_agree(bundle):
    spec, prev, curr, _, _ = bundle
    H = build_hamiltonian(spec)
    x2, p2 = step_xp(prev.re, prev.im, curr.re, curr.im, spec)
    assert GaussVector.of(*zip(x2, p2)) == step_forward(prev, curr, H)


@settings(max_examples=40, deadline=None)
@given(spec_with_states(), st.integers(min_value=0, max_value=30))
def test_time_reversal_recovers_initial_pair(bundle, n_steps):
    spec, psi0, psi1 = bundle
    H = build_hamiltonian(spec)
    traj = evolve(psi0, psi1, H, n_steps)
    curr, nxt = traj[-2], traj[-1]
    for _ in range(n_steps):
        curr, nxt = step_backward(curr, nxt, H), curr
    assert (curr, nxt) == (psi0, psi1)


@settings(max_examples=30, deadline=None)
@given(spec_with_states(), st.integers(min_value=2, max_value=25))
def test_transfer_composition_holds_for_every_anchor(bundle, n):
    spec, psi0, psi1 = bundle
    H = build_hamiltonian(spec)
    traj = evolve(psi0, psi1, H, n)
    ops = transfer_operators(H, n + 1)
    for m in range(0, n):
        assert ops[n - m + 1] @ traj[m + 1] + ops[n - m] @ traj[m] == traj[n]


@settings(max_examples=30, deadline=None)
@given(spec_with_states(n_states=4), st.integers(min_value=0, max_value=12))
def test_evolution_is_linear(bundle, n_steps):
    spec, psi0, psi1, phi0, phi1 = bundle
    H = build_hamiltonian(spec)
    a = GaussInt(2, -1)
    b = GaussInt(0, 3)
    lhs = evolve(scaled(psi0, a) + scaled(phi0, b), scaled(psi1, a) + scaled(phi1, b), H, n_steps)
    t1 = evolve(psi0, psi1, H, n_steps)
    t2 = evolve(phi0, phi1, H, n_steps)
    for n in range(n_steps + 2):
        assert lhs[n] == scaled(t1[n], a) + scaled(t2[n], b)


@settings(max_examples=40, deadline=None)
@given(spec_with_states(), st.integers(min_value=1, max_value=25))
def test_q_conservation_for_identity_and_hamiltonian(bundle, n_steps):
    spec, psi0, psi1 = bundle
    H = build_hamiltonian(spec)
    traj = evolve(psi0, psi1, H, n_steps)
    for G in (GaussMatrix.identity(spec.dim), H):
        assert commutator(G, H).is_zero()
        values = {q_G(a, b, G) for a, b in zip(traj, traj[1:])}
        assert len(values) == 1
    assert is_hermitian(H)
    for a, b in zip(traj, traj[1:]):
        assert q_G(a, b, H).im == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_link_identity_and_weight_sum(data):
    dim = data.draw(st.integers(min_value=1, max_value=5))
    v = data.draw(vectors(dim))
    w = data.draw(vectors(dim))
    rep = link_counts(v, w)
    assert 2 * rep.total == q1(v, w)
    if rep.total != 0:
        assert sum(Fraction(*w) for w in rep.reduced_weights()) == 1
    else:
        assert rep.reduced_weights() is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_classify_round_trips_scaled_basis_states(data):
    dim = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=1, max_value=dim))
    phase = data.draw(gauss_scalars.filter(bool))
    from hamca.models import basis_state

    assert classify_state(scaled(basis_state(dim, k), phase)) == (k, phase)
