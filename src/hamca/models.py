"""Model definitions: integer symmetric/antisymmetric matrix pairs and the
built-in cyclic family.

A model is the pair (S, A) of integer matrices with S symmetric and A
antisymmetric; the evolution matrix is H = S + iA, automatically Hermitian.
Keeping (S, A) rather than H makes the symmetry constraints checkable in
plain integer arithmetic before any complex value exists.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ModelValidationError
from .gaussian import GaussMatrix, GaussVector, IntRows, _AnyDigits, _Frozen, is_hermitian, is_int


def _strict_int(value, name: str) -> int:
    """value as a Python int; bools, floats and strings are rejected, not coerced."""
    if not is_int(value):
        raise ModelValidationError(f"{name} must be an integer, got {value!r}")
    return value


def _freeze_int_rows(rows: Sequence[Sequence[int]], name: str, dim: int) -> IntRows:
    out = []
    if len(rows) != dim:
        raise ModelValidationError(f"{name} must be {dim}x{dim}, got {len(rows)} rows")
    for r in rows:
        if len(r) != dim:
            raise ModelValidationError(f"{name} must be {dim}x{dim}, got a row of length {len(r)}")
        out.append(tuple(_strict_int(v, f"{name} entry") for v in r))
    return tuple(out)


class HamiltonianSpec(_Frozen):
    """Integer model definition (dimension, S, A, free-text label)."""

    __slots__ = _fields = ("dim", "S", "A", "label")

    def __init__(self, dim: int, S: IntRows, A: IntRows, label: str = "") -> None:
        with _AnyDigits():  # the messages quote entries of any size
            if dim < 1:
                raise ModelValidationError(f"dim must be positive, got {dim}")
            S, A = _freeze_int_rows(S, "S", dim), _freeze_int_rows(A, "A", dim)
            for i in range(dim):
                for j in range(i, dim):
                    if S[i][j] != S[j][i]:
                        raise ModelValidationError(
                            f"S is not symmetric: S[{i + 1}][{j + 1}] = {S[i][j]} "
                            f"but S[{j + 1}][{i + 1}] = {S[j][i]}"
                        )
                    if A[i][j] != -A[j][i]:
                        raise ModelValidationError(
                            f"A is not antisymmetric: A[{i + 1}][{j + 1}] = {A[i][j]} "
                            f"but A[{j + 1}][{i + 1}] = {A[j][i]}"
                        )
        for name, value in zip(self._fields, (dim, S, A, label)):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "label": self.label,
            "S": [list(r) for r in self.S],
            "A": [list(r) for r in self.A],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HamiltonianSpec":
        try:
            dim = _strict_int(data["dim"], "dim")
            s_rows = _rows_from_json(data["S"], dim)
            a_rows = _rows_from_json(data["A"], dim)
        except KeyError as exc:
            raise ModelValidationError(f"model document is missing field {exc}") from exc
        return cls(dim=dim, S=s_rows, A=a_rows, label=str(data.get("label", "")))


def _rows_from_json(obj, dim: int) -> list[list[int]]:
    """Accept either nested rows or a flat row-major list of dim*dim ints;
    entries are checked by _freeze_int_rows."""
    if not isinstance(obj, list):
        raise ModelValidationError("matrix field must be a list")
    if obj and not any(isinstance(v, list) for v in obj):
        if len(obj) != dim * dim:
            raise ModelValidationError(
                f"flat matrix needs {dim * dim} entries, got {len(obj)}"
            )
        return [list(obj[i * dim:(i + 1) * dim]) for i in range(dim)]
    if not all(isinstance(r, list) for r in obj):
        raise ModelValidationError("matrix rows must be lists")
    return obj


def build_hamiltonian(spec: HamiltonianSpec) -> GaussMatrix:
    """H = S + iA; Hermitian by construction from a valid spec."""
    H = GaussMatrix(spec.S, spec.A)
    assert is_hermitian(H)
    return H


def make_cyclic_model(m: int) -> HamiltonianSpec:
    """The cyclic m-state family: nearest-neighbour couplings -i above and
    +i below the diagonal, plus a real corner coupling closing the ring.

    For m = 2 the band and corner slots coincide, so the constructor
    returns the plain swap model (S the off-diagonal 1s, A = 0) instead of
    stacking both couplings into one entry.
    """
    if m < 2:
        raise ModelValidationError(f"cyclic model needs m >= 2, got {m}")
    if m == 2:
        return HamiltonianSpec(dim=2, S=((0, 1), (1, 0)), A=((0, 0), (0, 0)), label="H2")
    S = [[0] * m for _ in range(m)]
    A = [[0] * m for _ in range(m)]
    for k in range(m - 1):
        A[k][k + 1] = -1
        A[k + 1][k] = 1
    S[0][m - 1] = 1
    S[m - 1][0] = 1
    label = f"H{m}" if m in (3, 4) else f"Hm:{m}"
    return HamiltonianSpec(dim=m, S=S, A=A, label=label)


def basis_state(m: int, k: int) -> GaussVector:
    """Unit basis vector with a 1 in (1-based) slot k."""
    if not 1 <= k <= m:
        raise ValueError(f"basis index k = {k} outside 1..{m}")
    return GaussVector(tuple(int(i == k - 1) for i in range(m)), (0,) * m)


def _canonical_int(text: str) -> int | None:
    """text as an int if it is written 0|[1-9][0-9]* in ASCII digits, else None:
    no sign, space, underscore, leading zero or other script's digit."""
    if text.isascii() and text.isdigit() and (text == "0" or text[0] != "0"):
        return int(text)
    return None


def resolve_builtin(label: str) -> HamiltonianSpec | None:
    """Map the reserved labels H2, H3, H4 and Hm:<m> to their models; any
    other spelling of m (Hm:05, Hm:+5, Hm:1_0) is not a built-in."""
    if label in ("H2", "H3", "H4"):
        return make_cyclic_model(int(label[1:]))
    m = _canonical_int(label[3:]) if label.startswith("Hm:") else None
    return None if m is None else make_cyclic_model(m)
