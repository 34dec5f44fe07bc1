"""The int-pair storage of GaussVector / GaussMatrix against a per-entry oracle.

The containers hold (x, p) and (S, A) as plain int tuples, and a matrix
also lists the nonzero entries of each row, which is all `mat_vec` reads.
The oracle below works on one GaussInt per entry of the dense rows, the
way the kernel did before the storage change (its `_dot`-based
matrix-vector product and its inner product are kept here verbatim), so
any disagreement is a bug in the int kernel.  Entries reach 2^200, far
past any fixed-width integer type.
"""

from hypothesis import given, settings, strategies as st

import hamca.conservation as conservation
from hamca.conservation import verify_stream
from hamca.dynamics import evolve, step_forward, step_xp
from hamca.gaussian import (
    I_UNIT,
    GaussInt,
    GaussMatrix,
    GaussVector,
    inner_product,
    is_hermitian,
    mat_vec,
)
from hamca.models import HamiltonianSpec, basis_state, build_hamiltonian, make_cyclic_model
from hamca.ontology import classify_state

BIG = 2**200
big_ints = st.integers(min_value=-BIG, max_value=BIG)
scalars = st.builds(GaussInt, big_ints, big_ints)
small_ints = st.integers(min_value=-3, max_value=3)
small_states = st.lists(st.builds(GaussInt, small_ints, small_ints), min_size=3, max_size=3)
dims = st.integers(min_value=1, max_value=5)


# -- oracle: one GaussInt per entry -----------------------------------------


def _dot(row, col):
    re = 0
    im = 0
    for a, b in zip(row, col):
        re += a.re * b.re - a.im * b.im
        im += a.re * b.im + a.im * b.re
    return GaussInt(re, im)


def oracle_inner_product(v, w):
    re = 0
    im = 0
    for a, b in zip(v, w):
        # conj(a) * b expanded on integer parts
        re += a.re * b.re + a.im * b.im
        im += a.re * b.im - a.im * b.re
    return GaussInt(re, im)


def oracle_mat_vec(rows, v):
    return tuple(_dot(row, v) for row in rows)


def oracle_matmul(a_rows, b_rows):
    cols = tuple(zip(*b_rows))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a_rows)


def oracle_conjugate_transpose(rows):
    return tuple(tuple(a.conjugate() for a in col) for col in zip(*rows))


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
    return GaussMatrix.from_rows(rows), GaussVector.from_iter(draw(entries(k)))


@st.composite
def matrix_pairs(draw):
    n, k, m = draw(dims), draw(dims), draw(dims)
    a = draw(st.lists(entries(k), min_size=n, max_size=n))
    b = draw(st.lists(entries(m), min_size=k, max_size=k))
    return GaussMatrix.from_rows(a), GaussMatrix.from_rows(b)


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
    return GaussMatrix.from_rows(rows)


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
                rows[i][j] = rows[j][i].conjugate()
    return GaussMatrix.from_rows(rows)


# -- differential tests ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(vector_pairs(), scalars)
def test_vector_arithmetic_matches_oracle(vw, s):
    v, w = vw
    assert tuple(v + w) == tuple(a + b for a, b in zip(v, w))
    assert tuple(v - w) == tuple(a - b for a, b in zip(v, w))
    assert tuple(-v) == tuple(-a for a in v)
    assert tuple(v * s) == tuple(a * s for a in v)
    assert tuple(s * v) == tuple(s * a for a in v)
    assert tuple(v * 3) == tuple(a * 3 for a in v)


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
@given(square_matrices(), scalars)
def test_matrix_arithmetic_and_hermiticity_match_oracle(M, s):
    assert M.conjugate_transpose().rows == oracle_conjugate_transpose(M.rows)
    assert is_hermitian(M) == oracle_is_hermitian(M.rows)
    assert (M + M).rows == tuple(tuple(a + a for a in r) for r in M.rows)
    assert (M - M).is_zero()
    assert (M * s).rows == tuple(tuple(a * s for a in r) for r in M.rows)


@settings(max_examples=80, deadline=None)
@given(sparse_matrix_and_vector())
def test_sparse_mat_vec_matches_oracle(mv):
    M, v = mv
    assert tuple(mat_vec(M, v)) == oracle_mat_vec(M.rows, tuple(v))
    assert M @ v == mat_vec(M, v)
    listed = {(i, j): GaussInt(s, a) for i, row in enumerate(M.nonzeros) for j, s, a in row}
    assert listed == {(i, j): z for i, r in enumerate(M.rows) for j, z in enumerate(r) if z}


@settings(max_examples=60, deadline=None)
@given(sparse_matrix_pairs())
def test_sparse_matmul_matches_oracle(ab):
    A, B = ab
    assert (A @ B).rows == oracle_matmul(A.rows, B.rows)


@settings(max_examples=60, deadline=None)
@given(sparse_step_inputs())
def test_sparse_step_forward_matches_oracle(inputs):
    prev, curr, H = inputs
    expected = tuple(a - I_UNIT * b for a, b in zip(prev, oracle_mat_vec(H.rows, tuple(curr))))
    assert tuple(step_forward(prev, curr, H)) == expected


@settings(max_examples=40, deadline=None)
@given(dims.flatmap(lambda n: sparse_matrices(n, n)))
def test_nonzeros_stay_out_of_equality_hash_and_repr(M):
    twin = GaussMatrix(M.re, M.im)
    assert twin == M
    assert hash(twin) == hash(M)
    assert repr(twin) == repr(M) == f"GaussMatrix(re={M.re!r}, im={M.im!r})"


def test_step_forward_matches_step_xp_over_a_full_period():
    spec = make_cyclic_model(30)
    psi0 = GaussVector(tuple((3 * k) % 7 - 3 for k in range(30)), tuple((5 * k) % 7 - 3 for k in range(30)))
    psi1 = GaussVector(tuple((2 * k) % 5 - 2 for k in range(30)), tuple(k % 3 - 1 for k in range(30)))
    period = 4 * 30
    traj = evolve(psi0, psi1, spec, period)
    for prev, curr, nxt in zip(traj, traj.states[1:], traj.states[2:]):
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
    if all(v[1] == 0 and v[0] == -v[2] for v in (e0, e1)):
        psi1 = GaussVector.of(1, 0, 0)
    traj = evolve(psi0, psi1, spec, n_steps)
    for prev, curr, nxt in zip(traj, traj.states[1:], traj.states[2:]):
        x, p = step_xp(prev.re, prev.im, curr.re, curr.im, spec)
        assert (nxt.re, nxt.im) == (x, p)
    last = traj[-1]
    assert max(abs(v).bit_length() for v in last.re + last.im) > 64


# -- no GaussInt per entry inside the kernel -----------------------------------


def test_step_forward_constructs_no_gauss_int(monkeypatch):
    spec = make_cyclic_model(16)
    H = build_hamiltonian(spec)
    prev = GaussVector.from_iter((k, -k) for k in range(16))
    curr = GaussVector.from_iter((BIG - k, 3 * k) for k in range(16))
    built = []
    original = GaussInt.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GaussInt, "__post_init__", counting)
    step_forward(prev, curr, H)
    assert built == []


def test_classify_state_constructs_at_most_one_gauss_int(monkeypatch):
    single = GaussVector(basis_state(30, 7).re, (0,) * 6 + (-BIG,) + (0,) * 23)
    superposed = basis_state(30, 7) + basis_state(30, 30)
    built = []
    original = GaussInt.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GaussInt, "__post_init__", counting)
    found = classify_state(single)
    assert classify_state(superposed) is None
    monkeypatch.undo()
    assert built == [GaussInt(1, -BIG)]
    assert found == (7, GaussInt(1, -BIG))


def test_check_with_g_equal_h_applies_h_once_per_state(monkeypatch):
    spec = make_cyclic_model(6)
    H = build_hamiltonian(spec)
    traj = evolve(GaussVector.of(1, 0, 2, 0, 0, -1), GaussVector.of(0, 1, 0, 0, 3, 0), spec, 40)
    calls = []

    def counting(M, v):
        calls.append(v)
        return mat_vec(M, v)

    monkeypatch.setattr(conservation, "mat_vec", counting)
    report = verify_stream(traj, H, build_hamiltonian(spec))
    assert report.ok
    assert len(calls) == len(traj)
