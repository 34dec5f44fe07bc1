import io
import json
import sys

import numpy as np
import pytest

from hamca.errors import DimensionMismatch, ModelValidationError
from hamca.gaussian import (
    GaussInt,
    GaussMatrix,
    GaussVector,
    _AnyDigits,
    as_gauss,
    inner_product,
    is_hermitian,
    is_int,
    mat_vec,
)
from hamca.conservation import PairStats, link_counts
from hamca.dynamics import evolve
from hamca.models import HamiltonianSpec, build_hamiltonian, make_cyclic_model
from hamca.ontology import find_period
from hamca.serialization import ConservationCsvWriter, load_gauss_vector
from oracles import _dot, conj, gauss_matrix, scaled


H2 = build_hamiltonian(make_cyclic_model(2))


def g(re, im=0):
    return GaussInt(re, im)


def vec(*vals):
    return GaussVector.of(*vals)


class TestGaussInt:
    def test_norm_and_units(self):
        assert not g(0)
        assert g(0, 1)

    def test_str_forms(self):
        assert str(g(1, -1)) == "1-i"
        assert str(g(0, 1)) == "i"
        assert str(g(0, -1)) == "-i"
        assert str(g(-2, 0)) == "-2"
        assert str(g(0, 3)) == "3i"

    def test_immutable_and_hashable(self):
        a = g(1, 2)
        with pytest.raises(Exception):
            a.re = 5
        assert len({g(1, 2), g(1, 2), g(2, 1)}) == 2

    @pytest.mark.parametrize(
        "re", [0, 3, -7, 2**64 + 1, -(3**200)], ids=["0", "3", "-7", "2^64+1", "-3^200"]
    )
    def test_real_value_hashes_as_its_int(self, re):
        # GaussInt(re) == re, so set and dict lookups must find it either way
        assert re in {g(re)} and g(re) in {re}
        assert {g(re): "z"}[re] == "z" and {re: "n"}[g(re)] == "n"
        assert g(re, 1) not in {re} and re not in {g(re, 1)}

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            GaussInt(1.5, 0)

    def test_rejects_a_float_beside_a_part_past_the_digit_limit(self, digit_limit):
        # the message quotes 10**5000 whole, not a digit-limit ValueError
        with pytest.raises(TypeError, match="must be Python ints, got 1.5, 10{5000}"):
            GaussInt(1.5, 10**5000)
        assert sys.get_int_max_str_digits() == digit_limit


class TestInnerProduct:
    def test_orthogonal_basis_states(self):
        assert inner_product(vec(1, 0), vec(0, 1)) == g(0)

    def test_norm_of_one_plus_i(self):
        v = vec((1, 1), 0)
        assert inner_product(v, v) == g(2)

    def test_hand_expanded_value(self):
        # conj(1)*2 + conj(i)*3 = 2 - 3i
        assert inner_product(vec(1, (0, 1)), vec(2, 3)) == g(2, -3)

    def test_conjugate_linear_in_first_slot(self):
        v = vec((2, -1), (0, 3))
        w = vec(1, (1, 1))
        s = g(0, 1)
        assert inner_product(scaled(v, s), w) == _dot([conj(s)], [inner_product(v, w)])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner_product(vec(1, 0), vec(1, 0, 0))


class TestMatVec:
    def test_identity(self):
        v = vec((1, 2), (3, -4), 5)
        assert mat_vec(GaussMatrix.identity(3), v) == v

    def test_swap_matrix(self):
        swap = gauss_matrix([[0, 1], [1, 0]])
        assert mat_vec(swap, vec(1, 0)) == vec(0, 1)

    def test_two_state_model_swaps_basis(self):
        h2 = gauss_matrix([[0, 1], [1, 0]])
        assert mat_vec(h2, vec(0, 1)) == vec(1, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_vec(GaussMatrix.identity(3), vec(1, 0))


class TestMatrixOps:
    def test_matmul_associative_with_identity(self):
        m = gauss_matrix([[(1, 1), 2], [(0, -3), (4, 5)]])
        eye = GaussMatrix.identity(2)
        assert m @ eye == m
        assert eye @ m == m

    def test_conjugate_transpose(self):
        m = gauss_matrix([[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
        mh = m.conjugate_transpose()
        assert mh[0, 1] == g(5, -6)
        assert mh.conjugate_transpose() == m

    def test_is_hermitian_examples(self):
        h2 = gauss_matrix([[0, 1], [1, 0]])
        h3 = gauss_matrix(
            [[0, (0, -1), 1], [(0, 1), 0, (0, -1)], [1, (0, 1), 0]]
        )
        not_herm = gauss_matrix([[0, (0, 1)], [(0, 1), 0]])
        assert is_hermitian(h2)
        assert is_hermitian(h3)
        assert not is_hermitian(not_herm)


class TestUnboundedMagnitude:
    def test_thousand_digit_products_exact(self):
        big = 10**1000 + 7
        a = g(big, -big)
        b = g(big + 3, big)
        prod = mat_vec(gauss_matrix([[a]]), vec(b))[0]  # a * b by a 1 x 1 kernel
        assert prod == _dot([a], [b])
        assert prod.re == big * (big + 3) + big * big
        assert prod.im == big * big - big * (big + 3)
        v = vec((big, 1), (2, big))
        ip = inner_product(v, v)
        assert ip == g(2 * big * big + 5, 0)

    def test_big_matrix_product_round_trips(self):
        big = 3**2100  # ~1000 digits
        m = gauss_matrix([[(big, 0), (0, 1)], [(0, -1), (1, big)]])
        eye = GaussMatrix.identity(2)
        assert (m @ eye)[1, 1] == g(1, big)

    def test_str_and_repr_past_the_digit_limit(self, digit_limit):
        digits = "1" + "0" * 5000
        assert str(g(10**5000)) == digits
        assert str(g(-3, 10**5000)) == f"-3+{digits}i"
        assert repr(g(10**5000)) == f"GaussInt({digits}, 0)"
        assert sys.get_int_max_str_digits() == digit_limit


def test_digit_limit_scope_entered_inside_itself_restores_the_callers_limit(digit_limit):
    for scope in (_AnyDigits(), ConservationCsvWriter(io.StringIO(), 2)):
        with scope:
            with scope:
                assert sys.get_int_max_str_digits() == 0
            assert sys.get_int_max_str_digits() == 0
        assert sys.get_int_max_str_digits() == digit_limit


BIG_LINKS = (GaussVector.of(10**2600), GaussVector.of(10**2600))  # L = 10^5200


class TestFullDigitRepr:
    """Every repr that holds exact ints prints them in full past the digit
    limit, and leaves the limit as it found it."""

    @pytest.mark.parametrize("build, digits", [
        (lambda: GaussVector.of(10**5000), 5000),
        (lambda: gauss_matrix([[10**5000]]), 5000),
        (lambda: link_counts(*BIG_LINKS), 5200),
        (lambda: PairStats(0, GaussInt(2 * 10**5200), link_counts(*BIG_LINKS)), 5200),
        (lambda: HamiltonianSpec(1, [[10**5000]], [[0]]), 5000),
        (lambda: find_period(GaussVector.of(10**2200, 0), GaussVector.of(10**2200, 0), H2, 20), 4400),
        (lambda: evolve(GaussVector.of(10**5000, 0), GaussVector.of(0, 1), H2, 2), 5000),
    ], ids=["GaussVector", "GaussMatrix", "LinkReport", "PairStats", "HamiltonianSpec", "CycleReport", "Trajectory"])
    def test_repr_past_the_digit_limit(self, digit_limit, build, digits):
        text = repr(build())
        assert sys.get_int_max_str_digits() == digit_limit
        assert "1" + "0" * digits in text


class TestIntegerRule:
    """One rule, gaussian.is_int, decides what counts as an integer in the
    scalar type, its coercion, vector files and model entries."""

    @pytest.mark.parametrize("value, accepted", [
        (0, True), (-5, True), (2**70, True),
        (True, False), (False, False), (1.0, False), (1.9, False), ("3", False),
        (None, False), (np.int64(3), False),
    ], ids=repr)
    def test_every_entry_point_applies_the_same_rule(self, tmp_path, value, accepted):
        assert is_int(value) == accepted
        z = GaussInt(value) if accepted else None

        def check(build, error, expected):
            if accepted:
                assert build() == expected
            else:
                with pytest.raises(error):
                    build()

        check(lambda: GaussInt(value, 0), TypeError, z)
        check(lambda: GaussInt(0, value).im, TypeError, value)
        check(lambda: as_gauss(value), TypeError, z)
        check(lambda: as_gauss((value, 0)), TypeError, z)
        check(lambda: HamiltonianSpec(dim=2, S=((0, value), (value, 0)), A=((0, 0), (0, 0))).S[0][1],
              ModelValidationError, value)
        if not isinstance(value, np.integer):  # JSON has no numpy integers
            path = tmp_path / "v.json"
            path.write_text(json.dumps([[value, 0], 1]))
            check(lambda: load_gauss_vector(path)[0], ValueError, z)

    def test_bool_operands_are_not_integers(self):
        assert g(1) != True  # noqa: E712 - comparing against a bool is the point
