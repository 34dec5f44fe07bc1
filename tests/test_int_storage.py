"""The int-pair storage of GaussVector / GaussMatrix against a per-entry oracle.

The containers hold (x, p) and (S, A) as plain int tuples, and a matrix
compiles its own step kernel the first time it is applied.  The
oracles work on one GaussInt per entry of the dense rows, expanding each
product on its int parts (`oracles._dot`; the matrix products live in
`oracles.py`, the inner product here), so any disagreement is a bug in
the int kernel.  Entries reach 2^200, far past any fixed-width integer
type, and the kernel's own tests go to 2^15000 and rows of 6000 terms.
"""

import pickle
from copy import deepcopy

import pytest
from hypothesis import given, settings, strategies as st

from hamca import conservation
from hamca.conservation import q_G, verify_stream
from hamca.dynamics import evolve, step_backward, step_forward
from hamca.errors import DimensionMismatch
from hamca.gaussian import (
    GaussInt,
    GaussMatrix,
    GaussVector,
    _step_kernel,
    inner_product,
    is_hermitian,
    mat_vec,
)
from hamca.models import HamiltonianSpec, basis_state, build_hamiltonian, make_cyclic_model
from hamca.ontology import classify_state
from oracles import _dot, conj, gauss_matrix, oracle_mat_vec, oracle_matmul, oracle_step_backward, step_xp

BIG = 2**200
big_ints = st.integers(min_value=-BIG, max_value=BIG)
scalars = st.builds(GaussInt, big_ints, big_ints)
small_ints = st.integers(min_value=-3, max_value=3)
small_states = st.lists(st.builds(GaussInt, small_ints, small_ints), min_size=3, max_size=3)
dims = st.integers(min_value=1, max_value=5)
ONE, MINUS_ONE, MINUS_I = GaussInt(1), GaussInt(-1), GaussInt(0, -1)


# -- oracle: one GaussInt per entry -----------------------------------------


def oracle_inner_product(v, w):
    re = 0
    im = 0
    for a, b in zip(v, w):
        # conj(a) * b expanded on integer parts
        re += a.re * b.re + a.im * b.im
        im += a.re * b.im - a.im * b.re
    return GaussInt(re, im)


def oracle_conjugate_transpose(rows):
    return tuple(tuple(map(conj, col)) for col in zip(*rows))


def oracle_is_hermitian(rows):
    n = len(rows)
    for i in range(n):
        for j in range(i, n):
            a = rows[i][j]
            b = rows[j][i]
            if a.re != b.re or a.im != -b.im:
                return False
    return True


# -- strategies ---------------------------------------------------------------


def entries(n):
    return st.lists(scalars, min_size=n, max_size=n)


@st.composite
def vector_pairs(draw):
    n = draw(dims)
    return GaussVector.from_iter(draw(entries(n))), GaussVector.from_iter(draw(entries(n)))


@st.composite
def matrix_and_vector(draw):
    n, k = draw(dims), draw(dims)
    rows = draw(st.lists(entries(k), min_size=n, max_size=n))
    return gauss_matrix(rows), GaussVector.from_iter(draw(entries(k)))


@st.composite
def matrix_pairs(draw):
    n, k, m = draw(dims), draw(dims), draw(dims)
    a = draw(st.lists(entries(k), min_size=n, max_size=n))
    b = draw(st.lists(entries(m), min_size=k, max_size=k))
    return gauss_matrix(a), gauss_matrix(b)


nonzero_ints = big_ints.filter(bool)
# half of the entries zero, the rest with a real or an imaginary part but
# never both, so that S and A have disjoint support
sparse_scalars = st.builds(
    lambda kind, v: (GaussInt(0), GaussInt(0), GaussInt(v), GaussInt(0, v))[kind],
    st.integers(min_value=0, max_value=3),
    nonzero_ints,
)


@st.composite
def sparse_matrices(draw, n, k):
    """n x k and mostly zero: about a third of the rows are all zero."""
    rows = []
    for _ in range(n):
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            rows.append([GaussInt(0)] * k)
        else:
            rows.append(draw(st.lists(sparse_scalars, min_size=k, max_size=k)))
    return gauss_matrix(rows)


@st.composite
def sparse_matrix_and_vector(draw):
    n, k = draw(dims), draw(dims)
    return draw(sparse_matrices(n, k)), GaussVector.from_iter(draw(entries(k)))


@st.composite
def sparse_matrix_pairs(draw):
    n, k, m = draw(dims), draw(dims), draw(dims)
    return draw(sparse_matrices(n, k)), draw(sparse_matrices(k, m))


@st.composite
def sparse_step_inputs(draw):
    n = draw(dims)
    prev, curr = (GaussVector.from_iter(draw(entries(n))) for _ in range(2))
    return prev, curr, draw(sparse_matrices(n, n))


@st.composite
def square_matrices(draw):
    """Square matrices, about half of them made Hermitian by mirroring the
    upper triangle, with a real diagonal."""
    n = draw(dims)
    rows = [list(r) for r in draw(st.lists(entries(n), min_size=n, max_size=n))]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = GaussInt(rows[i][i].re)
            for j in range(i):
                rows[i][j] = conj(rows[j][i])
    return gauss_matrix(rows)


# -- differential tests ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(vector_pairs())
def test_vector_arithmetic_matches_oracle(vw):
    v, w = vw
    assert tuple(v + w) == tuple(_dot([a, b], [ONE, ONE]) for a, b in zip(v, w))
    assert tuple(-v) == tuple(_dot([a], [MINUS_ONE]) for a in v)


@settings(max_examples=60, deadline=None)
@given(vector_pairs())
def test_inner_product_matches_oracle(vw):
    v, w = vw
    assert inner_product(v, w) == oracle_inner_product(v, w)


@settings(max_examples=60, deadline=None)
@given(matrix_and_vector())
def test_mat_vec_matches_oracle(mv):
    M, v = mv
    assert tuple(mat_vec(M, v)) == oracle_mat_vec(M.rows, tuple(v))
    assert M @ v == mat_vec(M, v)


@settings(max_examples=60, deadline=None)
@given(matrix_pairs())
def test_matmul_matches_oracle(ab):
    A, B = ab
    assert (A @ B).rows == oracle_matmul(A.rows, B.rows)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_matrix_arithmetic_and_hermiticity_match_oracle(M):
    assert M.conjugate_transpose().rows == oracle_conjugate_transpose(M.rows)
    assert is_hermitian(M) == oracle_is_hermitian(M.rows)
    assert (M + M).rows == tuple(tuple(_dot([a], [GaussInt(2)]) for a in r) for r in M.rows)
    assert (M - M).is_zero()


@settings(max_examples=80, deadline=None)
@given(sparse_matrix_and_vector())
def test_sparse_mat_vec_matches_oracle(mv):
    M, v = mv
    assert tuple(mat_vec(M, v)) == oracle_mat_vec(M.rows, tuple(v))
    assert M @ v == mat_vec(M, v)


@settings(max_examples=60, deadline=None)
@given(sparse_matrix_pairs())
def test_sparse_matmul_matches_oracle(ab):
    A, B = ab
    assert (A @ B).rows == oracle_matmul(A.rows, B.rows)


@settings(max_examples=60, deadline=None)
@given(sparse_step_inputs())
def test_sparse_step_forward_matches_oracle(inputs):
    prev, curr, H = inputs
    # psi_{n-1} - i * (H psi_n), entry by entry
    expected = tuple(_dot([a, b], [ONE, MINUS_I]) for a, b in zip(prev, oracle_mat_vec(H.rows, tuple(curr))))
    assert tuple(step_forward(prev, curr, H)) == expected


@settings(max_examples=60, deadline=None)
@given(sparse_step_inputs())
def test_sparse_step_backward_matches_oracle(inputs):
    curr, nxt, H = inputs
    assert tuple(step_backward(curr, nxt, H)) == oracle_step_backward(curr, nxt, H)


@settings(max_examples=40, deadline=None)
@given(sparse_matrix_and_vector())
def test_compiled_kernel_stays_out_of_equality_hash_repr_and_pickle(mv):
    M, v = mv
    twin = GaussMatrix(M.re, M.im)
    product = mat_vec(M, v)
    assert M._kernel is not None and twin._kernel is None
    assert twin == M
    assert hash(twin) == hash(M)
    assert repr(twin) == repr(M) == f"GaussMatrix(re={M.re!r}, im={M.im!r})"
    for clone in (pickle.loads(pickle.dumps(M)), deepcopy(M)):
        assert clone == M and hash(clone) == hash(M) and repr(clone) == repr(M)
        assert clone._kernel is None
        assert mat_vec(clone, v) == product


def test_step_forward_matches_step_xp_over_a_full_period():
    spec = make_cyclic_model(30)
    psi0 = GaussVector(tuple((3 * k) % 7 - 3 for k in range(30)), tuple((5 * k) % 7 - 3 for k in range(30)))
    psi1 = GaussVector(tuple((2 * k) % 5 - 2 for k in range(30)), tuple(k % 3 - 1 for k in range(30)))
    period = 4 * 30
    traj = evolve(psi0, psi1, build_hamiltonian(spec), period)
    for prev, curr, nxt in zip(traj, traj[1:], traj[2:]):
        assert (nxt.re, nxt.im) == step_xp(prev.re, prev.im, curr.re, curr.im, spec)
    assert (traj[period], traj[period + 1]) == (psi0, psi1)


def _tridiag_121(m):
    S = tuple(tuple(2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(m)) for i in range(m))
    return HamiltonianSpec(dim=m, S=S, A=((0,) * m,) * m, label="tridiag121")


@settings(max_examples=20, deadline=None)
@given(small_states, small_states, st.integers(min_value=120, max_value=200))
def test_step_forward_matches_step_xp_past_64_bits(e0, e1, n_steps):
    """tridiag(1, 2, 1) has spectrum outside (-2, 2), so amplitudes grow
    exponentially; from small starts they pass 64 bits within the run."""
    spec = _tridiag_121(3)
    psi0 = GaussVector.from_iter(e0)
    psi1 = GaussVector.from_iter(e1)
    # states (a, 0, -a) lie on the lambda = 2 eigenvector, which grows only linearly
    if all(v[1] == 0 and v[0] == GaussInt(-v[2].re, -v[2].im) for v in (e0, e1)):
        psi1 = GaussVector.of(1, 0, 0)
    traj = evolve(psi0, psi1, build_hamiltonian(spec), n_steps)
    for prev, curr, nxt in zip(traj, traj[1:], traj[2:]):
        x, p = step_xp(prev.re, prev.im, curr.re, curr.im, spec)
        assert (nxt.re, nxt.im) == (x, p)
    last = traj[-1]
    assert max(abs(v).bit_length() for v in last.re + last.im) > 64


# -- the compiled kernel at its edges -------------------------------------------

HUGE = 2**15000  # 4516 decimal digits, past str()'s default limit of 4300


def test_kernel_takes_coefficients_and_amplitudes_past_any_digit_limit():
    spec = HamiltonianSpec(
        dim=3,
        S=((HUGE, 3, 0), (3, -1, 1), (0, 1, -HUGE)),
        A=((0, -(2**70), 1), (2**70, 0, 0), (-1, 0, 0)),
        label="huge",
    )
    H = build_hamiltonian(spec)
    prev = GaussVector((2**64 + 1, -(2**65), 7), (3, 2**80, -(2**64)))
    curr = GaussVector((-(2**64), 5, 2**90), (2**64 - 1, 0, -1))
    assert tuple(mat_vec(H, curr)) == oracle_mat_vec(H.rows, tuple(curr))
    nxt = step_forward(prev, curr, H)
    assert (nxt.re, nxt.im) == step_xp(prev.re, prev.im, curr.re, curr.im, spec)


def test_kernel_of_zero_rows_and_of_the_zero_matrix():
    v = GaussVector((BIG, -1, 2), (0, 5, -BIG))
    M = gauss_matrix([[0, 0, 0], [1, (0, -2), 3], [0, 0, 0]])
    assert tuple(mat_vec(M, v)) == oracle_mat_vec(M.rows, tuple(v))
    assert mat_vec(gauss_matrix([[0, 0, 0]] * 2), v) == GaussVector.zero(2)


@pytest.mark.parametrize("n, k", [(1, 4), (4, 1), (2, 5), (5, 3)])
def test_kernel_of_rectangular_matrices(n, k):
    A = gauss_matrix([[(BIG * (i - j) + 1, (i * k + j) % 3 - 1) for j in range(k)] for i in range(n)])
    v = GaussVector.from_iter((BIG + j, -j) for j in range(k))
    assert tuple(mat_vec(A, v)) == oracle_mat_vec(A.rows, tuple(v))
    B = gauss_matrix([[(j - i, BIG) for j in range(3)] for i in range(k)])
    assert (A @ B).rows == oracle_matmul(A.rows, B.rows)
    with pytest.raises(DimensionMismatch):
        mat_vec(A, GaussVector.zero(k + 1))


def test_kernel_sums_a_6000_term_row_without_recursion_error():
    k = 6000
    # every entry nonzero: real part +-1 to +-5, imaginary part -1, 0 or 1
    row = [((-1) ** j * (j % 5 + 1), j % 3 - 1) for j in range(k)]
    M = gauss_matrix([row])
    v = GaussVector.from_iter((BIG - j, j) for j in range(k))
    assert tuple(mat_vec(M, v)) == oracle_mat_vec(M.rows, tuple(v))


def test_matrix_product_compiles_the_left_kernel_only_and_once():
    A = gauss_matrix([[1, 2], [(0, 1), 3]])
    B = gauss_matrix([[4, 0], [1, (2, -1)]])
    assert (A @ B).rows == oracle_matmul(A.rows, B.rows)
    kernel = A._kernel
    assert kernel is not None and B._kernel is None
    mat_vec(A, GaussVector.of(1, 1))
    assert A._kernel is kernel


def test_kernel_source_takes_only_the_int_value_of_an_entry():
    class Loud(int):
        def __format__(self, spec):
            return "x0"

        __repr__ = __str__ = lambda self: "x0"

    M = GaussMatrix(((Loud(5), 1),), ((0, Loud(-1)),))
    assert mat_vec(M, GaussVector.of(2, 3)) == GaussVector.of(GaussInt(13, -3))


# -- no GaussInt per entry inside the kernel -----------------------------------


def test_step_forward_constructs_no_gauss_int(monkeypatch):
    spec = make_cyclic_model(16)
    H = build_hamiltonian(spec)
    prev = GaussVector.from_iter((k, -k) for k in range(16))
    curr = GaussVector.from_iter((BIG - k, 3 * k) for k in range(16))
    built = []
    original = GaussInt.__init__

    def counting(self, *parts):
        built.append(self)
        original(self, *parts)

    monkeypatch.setattr(GaussInt, "__init__", counting)
    step_forward(prev, curr, H)
    assert built == []


def test_classify_state_constructs_at_most_one_gauss_int(monkeypatch):
    single = GaussVector(basis_state(30, 7).re, (0,) * 6 + (-BIG,) + (0,) * 23)
    superposed = basis_state(30, 7) + basis_state(30, 30)
    built = []
    original = GaussInt.__init__

    def counting(self, *parts):
        built.append(self)
        original(self, *parts)

    monkeypatch.setattr(GaussInt, "__init__", counting)
    found = classify_state(single)
    assert classify_state(superposed) is None
    monkeypatch.undo()
    assert built == [GaussInt(1, -BIG)]
    assert found == (7, GaussInt(1, -BIG))


def counting_kernel(M: GaussMatrix) -> list:
    """Replace M's compiled step by one that records the arguments of each call."""
    calls = []
    kernel = _step_kernel(M)

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    object.__setattr__(M, "_kernel", counting)
    return calls


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupted"])
@pytest.mark.parametrize("g_is_h", [True, False], ids=["g_equal_h", "g_identity"])
def test_check_applies_g_only_in_q_g_and_h_once_per_state(monkeypatch, g_is_h, corrupt):
    spec = make_cyclic_model(6)
    H = build_hamiltonian(spec)
    G = build_hamiltonian(spec) if g_is_h else GaussMatrix.identity(6)
    states = list(evolve(GaussVector.of(1, 0, 2, 0, 0, -1), GaussVector.of(0, 1, 0, 0, 3, 0), H, 40))
    broken = []
    if corrupt:
        # a slot of state 10 raised by 1 breaks the rule at 10, at 11 (through H) and at 12
        states[10] = states[10] + basis_state(6, 2)
        broken = [10, 11, 12]
    q_calls = []

    def counting_q_G(*args):
        q_calls.append(args)
        return q_G(*args)

    monkeypatch.setattr(conservation, "q_G", counting_q_G)
    h_calls, g_calls = counting_kernel(H), counting_kernel(G)
    assert verify_stream(iter(states), H, G, []).ok is not corrupt
    # the commutator G @ H - H @ G applies each kernel to 6 columns first; after
    # that H's step rebuilds psi_n from (psi_{n-1}, psi_{n-2}) for the update
    # rule, and G runs only in q_G: at pair 0 and at each pair n - 1 whose rule
    # at n fails, as G psi_{n-1} and G psi_n
    pairs = [0] + [n - 1 for n in broken]
    assert q_calls == [(states[k], states[k + 1], G) for k in pairs]
    zeros = (0,) * 6
    assert g_calls[6:] == [(psi.re, psi.im, zeros, zeros) for k in pairs for psi in states[k : k + 2]]
    assert h_calls[6:] == [(psi.re, psi.im, back.re, back.im) for back, psi in zip(states, states[1:-1])]
