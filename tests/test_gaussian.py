import json

import numpy as np
import pytest

from hamca.errors import DimensionMismatch, ModelValidationError
from hamca.gaussian import (
    GaussInt,
    GaussMatrix,
    GaussVector,
    I_UNIT,
    ONE,
    ZERO,
    as_gauss,
    inner_product,
    is_hermitian,
    is_int,
    mat_vec,
)
from hamca.models import HamiltonianSpec
from hamca.serialization import load_gauss_vector


def g(re, im=0):
    return GaussInt(re, im)


def vec(*vals):
    return GaussVector.of(*vals)


class TestGaussInt:
    def test_ring_ops(self):
        a = g(2, 3)
        b = g(-1, 4)
        assert a + b == g(1, 7)
        assert a - b == g(3, -1)
        assert a * b == g(-2 - 12, 8 - 3)
        assert -a == g(-2, -3)
        assert a * 2 == g(4, 6)
        assert 2 * a == g(4, 6)
        assert a + 1 == g(3, 3)

    def test_conjugation_laws(self):
        a = g(5, -7)
        b = g(-2, 9)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_norm_and_units(self):
        assert g(1, 1).norm_sq() == 2
        assert I_UNIT * I_UNIT == g(-1)
        assert ONE * g(7, -3) == g(7, -3)
        assert not ZERO
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

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            GaussInt(1.5, 0)


class TestInnerProduct:
    def test_orthogonal_basis_states(self):
        assert inner_product(vec(1, 0), vec(0, 1)) == ZERO

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
        assert inner_product(v * s, w) == s.conjugate() * inner_product(v, w)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner_product(vec(1, 0), vec(1, 0, 0))


class TestMatVec:
    def test_identity(self):
        v = vec((1, 2), (3, -4), 5)
        assert mat_vec(GaussMatrix.identity(3), v) == v

    def test_swap_matrix(self):
        swap = GaussMatrix.from_rows([[0, 1], [1, 0]])
        assert mat_vec(swap, vec(1, 0)) == vec(0, 1)

    def test_two_state_model_swaps_basis(self):
        h2 = GaussMatrix.from_rows([[0, 1], [1, 0]])
        assert mat_vec(h2, vec(0, 1)) == vec(1, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_vec(GaussMatrix.identity(3), vec(1, 0))


class TestMatrixOps:
    def test_matmul_associative_with_identity(self):
        m = GaussMatrix.from_rows([[(1, 1), 2], [(0, -3), (4, 5)]])
        eye = GaussMatrix.identity(2)
        assert m @ eye == m
        assert eye @ m == m

    def test_conjugate_transpose(self):
        m = GaussMatrix.from_rows([[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
        mh = m.conjugate_transpose()
        assert mh[0, 1] == g(5, -6)
        assert mh.conjugate_transpose() == m

    def test_is_hermitian_examples(self):
        h2 = GaussMatrix.from_rows([[0, 1], [1, 0]])
        h3 = GaussMatrix.from_rows(
            [[0, (0, -1), 1], [(0, 1), 0, (0, -1)], [1, (0, 1), 0]]
        )
        not_herm = GaussMatrix.from_rows([[0, (0, 1)], [(0, 1), 0]])
        assert is_hermitian(h2)
        assert is_hermitian(h3)
        assert not is_hermitian(not_herm)

    def test_trace(self):
        m = GaussMatrix.from_rows([[(1, 1), 0], [0, (2, -3)]])
        assert m.trace() == g(3, -2)


class TestUnboundedMagnitude:
    def test_thousand_digit_products_exact(self):
        big = 10**1000 + 7
        a = g(big, -big)
        b = g(big + 3, big)
        prod = a * b
        assert prod.re == big * (big + 3) + big * big
        assert prod.im == big * big - big * (big + 3)
        v = vec((big, 1), (2, big))
        ip = inner_product(v, v)
        assert ip == g(2 * big * big + 5, 0)

    def test_big_matrix_product_round_trips(self):
        big = 3**2100  # ~1000 digits
        m = GaussMatrix.from_rows([[(big, 0), (0, 1)], [(0, -1), (1, big)]])
        eye = GaussMatrix.identity(2)
        assert (m @ eye)[1, 1] == g(1, big)


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
        with pytest.raises(TypeError):
            g(1, 1) + True
        assert g(1) != True  # noqa: E712 - comparing against a bool is the point
