import sys

import pytest

from hamca.errors import ModelValidationError
from hamca.gaussian import GaussInt, GaussVector, is_hermitian
from hamca.models import (
    HamiltonianSpec,
    basis_state,
    build_hamiltonian,
    make_cyclic_model,
    resolve_builtin,
)
from oracles import gauss_matrix


def test_swap_model_from_parts():
    spec = HamiltonianSpec(dim=2, S=((0, 1), (1, 0)), A=((0, 0), (0, 0)), label="H2")
    H = build_hamiltonian(spec)
    assert H == gauss_matrix([[0, 1], [1, 0]])
    assert is_hermitian(H)


def test_zero_model_is_frozen_dynamics():
    spec = HamiltonianSpec(dim=2, S=((0, 0), (0, 0)), A=((0, 0), (0, 0)))
    assert build_hamiltonian(spec).is_zero()


def test_three_state_hamiltonian():
    H = build_hamiltonian(make_cyclic_model(3))
    expected = gauss_matrix(
        [[0, (0, -1), 1], [(0, 1), 0, (0, -1)], [1, (0, 1), 0]]
    )
    assert H == expected


def test_two_state_special_case_is_plain_swap():
    spec = make_cyclic_model(2)
    assert spec.S == ((0, 1), (1, 0))
    assert spec.A == ((0, 0), (0, 0))
    assert build_hamiltonian(spec) == gauss_matrix([[0, 1], [1, 0]])


def test_four_state_first_row():
    H = build_hamiltonian(make_cyclic_model(4))
    assert H.rows[0] == (GaussInt(0), GaussInt(0, -1), GaussInt(0), GaussInt(1))


def test_symmetry_violation_names_entries():
    with pytest.raises(ModelValidationError, match=r"S\[1\]\[2\].*S\[2\]\[1\]"):
        HamiltonianSpec(dim=2, S=((0, 1), (2, 0)), A=((0, 0), (0, 0)))
    with pytest.raises(ModelValidationError, match="antisymmetric"):
        HamiltonianSpec(dim=2, S=((0, 0), (0, 0)), A=((0, 1), (1, 0)))
    with pytest.raises(ModelValidationError):
        # nonzero diagonal of A violates A = -A^T
        HamiltonianSpec(dim=2, S=((0, 0), (0, 0)), A=((1, 0), (0, -1)))


def test_symmetry_violation_quotes_an_entry_past_the_digit_limit(digit_limit):
    with pytest.raises(ModelValidationError, match=r"S\[1\]\[2\] = 10{5000} but S\[2\]\[1\] = 0"):
        HamiltonianSpec(2, [[0, 10**5000], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ModelValidationError, match="dim must be positive"):
        HamiltonianSpec(-(10**5000), [], [])
    assert sys.get_int_max_str_digits() == digit_limit


def test_cyclic_family_hermitian_and_unit_entries():
    allowed = {GaussInt(0), GaussInt(1), GaussInt(-1), GaussInt(0, 1), GaussInt(0, -1)}
    for m in range(2, 65):
        H = build_hamiltonian(make_cyclic_model(m))
        assert is_hermitian(H)
        assert {H[i, j] for i in range(m) for j in range(m)} <= allowed


def test_cyclic_model_rejects_m_below_two():
    with pytest.raises(ModelValidationError):
        make_cyclic_model(1)


def test_build_is_pure():
    a = build_hamiltonian(make_cyclic_model(5))
    b = build_hamiltonian(make_cyclic_model(5))
    assert a == b


def test_basis_state():
    assert basis_state(3, 1) == GaussVector.of(1, 0, 0)
    assert basis_state(4, 4) == GaussVector.of(0, 0, 0, 1)
    assert basis_state(2, 2) == GaussVector.of(0, 1)
    with pytest.raises(ValueError):
        basis_state(3, 0)
    with pytest.raises(ValueError):
        basis_state(3, 4)


def test_resolve_builtin_labels():
    assert resolve_builtin("H2").dim == 2
    assert resolve_builtin("H4").dim == 4
    assert resolve_builtin("Hm:7").dim == 7
    assert resolve_builtin("Hm:x") is None
    assert resolve_builtin("nosuch") is None


def test_dict_round_trip_and_flat_matrix():
    spec = make_cyclic_model(3)
    again = HamiltonianSpec.from_dict(spec.to_dict())
    assert again == spec
    flat = {
        "dim": 2,
        "S": [0, 1, 1, 0],
        "A": [0, 0, 0, 0],
        "label": "flat",
    }
    assert HamiltonianSpec.from_dict(flat).S == ((0, 1), (1, 0))


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", None], ids=repr)
def test_non_integer_entries_rejected(bad):
    nested = {"dim": 2, "S": [[0, bad], [bad, 0]], "A": [[0, 0], [0, 0]]}
    flat = {"dim": 2, "S": [0, bad, bad, 0], "A": [0, 0, 0, 0]}
    for doc in (nested, flat):
        with pytest.raises(ModelValidationError):
            HamiltonianSpec.from_dict(doc)
    with pytest.raises(ModelValidationError):
        HamiltonianSpec(dim=2, S=((0, bad), (bad, 0)), A=((0, 0), (0, 0)))


@pytest.mark.parametrize("dim", [2.5, "2", True, None], ids=repr)
def test_non_integer_dim_rejected(dim):
    with pytest.raises(ModelValidationError):
        HamiltonianSpec.from_dict({"dim": dim, "S": [0, 1, 1, 0], "A": [0, 0, 0, 0]})


def test_mixed_nested_and_flat_rows_rejected():
    with pytest.raises(ModelValidationError):
        HamiltonianSpec.from_dict({"dim": 2, "S": [[0, 1], 1], "A": [[0, 0], [0, 0]]})
