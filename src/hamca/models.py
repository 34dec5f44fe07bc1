"""Model definitions: integer symmetric/antisymmetric matrix pairs and the
built-in cyclic family.

A model is the pair (S, A) of integer matrices with S symmetric and A
antisymmetric; the evolution matrix is H = S + iA, automatically Hermitian.
Keeping (S, A) rather than H makes the symmetry constraints checkable in
plain integer arithmetic before any complex value exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ModelValidationError
from .gaussian import GaussMatrix, GaussVector, IntRows, is_hermitian, is_int


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


@dataclass(frozen=True)
class HamiltonianSpec:
    """Integer model definition (dimension, S, A, free-text label)."""

    dim: int
    S: IntRows
    A: IntRows
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ModelValidationError(f"dim must be positive, got {self.dim}")
        object.__setattr__(self, "S", _freeze_int_rows(self.S, "S", self.dim))
        object.__setattr__(self, "A", _freeze_int_rows(self.A, "A", self.dim))
        for i in range(self.dim):
            for j in range(i, self.dim):
                if self.S[i][j] != self.S[j][i]:
                    raise ModelValidationError(
                        f"S is not symmetric: S[{i + 1}][{j + 1}] = {self.S[i][j]} "
                        f"but S[{j + 1}][{i + 1}] = {self.S[j][i]}"
                    )
                if self.A[i][j] != -self.A[j][i]:
                    raise ModelValidationError(
                        f"A is not antisymmetric: A[{i + 1}][{j + 1}] = {self.A[i][j]} "
                        f"but A[{j + 1}][{i + 1}] = {self.A[j][i]}"
                    )

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


def spec_from_matrix(H: GaussMatrix, label: str = "adhoc") -> HamiltonianSpec:
    """Split a Hermitian matrix into its (S, A) parts; the spec's checks reject any other."""
    return HamiltonianSpec(H.shape[0], H.re, H.im, label)


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


def resolve_builtin(label: str) -> HamiltonianSpec | None:
    """Map the reserved labels H2, H3, H4 and Hm:<m> to their models."""
    if label in ("H2", "H3", "H4"):
        return make_cyclic_model(int(label[1:]))
    if label.startswith("Hm:"):
        try:
            m = int(label.split(":", 1)[1])
        except ValueError:
            return None
        return make_cyclic_model(m)
    return None
