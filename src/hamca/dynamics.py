"""Exact state evolution.

The update rule is second order: psi_{n+1} = psi_{n-1} - i*H*psi_n, so a
run always starts from two states.  Everything here stays in Gaussian
integers; stepping backward inverts stepping forward exactly, at any
amplitude magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, sub
from typing import Callable, Iterator, Union

from .errors import DimensionMismatch
from .gaussian import GaussMatrix, GaussVector, I_UNIT, is_hermitian, mat_vec
from .models import HamiltonianSpec, build_hamiltonian, spec_from_matrix

ModelLike = Union[HamiltonianSpec, GaussMatrix]


def _as_spec_and_matrix(model: ModelLike) -> tuple[HamiltonianSpec, GaussMatrix]:
    if isinstance(model, HamiltonianSpec):
        return model, build_hamiltonian(model)
    if isinstance(model, GaussMatrix):
        return spec_from_matrix(model), model
    raise TypeError(f"expected HamiltonianSpec or GaussMatrix, got {type(model).__name__}")


def step_forward(prev: GaussVector, curr: GaussVector, H: GaussMatrix) -> GaussVector:
    """psi_{n+1} = psi_{n-1} - i*H*psi_n."""
    return step_with_product(prev, mat_vec(H, curr))


def step_with_product(prev: GaussVector, h_curr: GaussVector) -> GaussVector:
    """step_forward given h_curr = H*psi_n already computed; the product
    -i*h_curr is added from its parts, as -i(a + ib) = b - ia."""
    if len(prev) != len(h_curr):
        raise DimensionMismatch(f"vector lengths differ: {len(prev)} vs {len(h_curr)}")
    return GaussVector(tuple(map(add, prev.re, h_curr.im)), tuple(map(sub, prev.im, h_curr.re)))


def step_backward(curr: GaussVector, nxt: GaussVector, H: GaussMatrix) -> GaussVector:
    """psi_{n-1} = psi_{n+1} + i*H*psi_n; exact inverse of step_forward."""
    return nxt + mat_vec(H, curr) * I_UNIT


@dataclass(frozen=True)
class Trajectory:
    """An evolved state sequence plus the model that produced it.

    `l` is the discreteness scale separating successive states; the exact
    layer carries it as metadata only (the continuum layer gives it teeth).
    """

    model: HamiltonianSpec
    states: tuple[GaussVector, ...]
    l: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l) and self.l > 0):
            raise ValueError(f"discreteness scale must be a finite positive number, got {self.l}")
        if len(self.states) < 2:
            raise ValueError("a trajectory needs at least the two initial states")
        for s in self.states:
            if len(s) != self.model.dim:
                raise DimensionMismatch(
                    f"state of length {len(s)} in a dim-{self.model.dim} trajectory"
                )

    @property
    def dim(self) -> int:
        return self.model.dim

    def hamiltonian(self) -> GaussMatrix:
        return build_hamiltonian(self.model)

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, n: int) -> GaussVector:
        return self.states[n]

    def __iter__(self) -> Iterator[GaussVector]:
        return iter(self.states)

    def pairs(self) -> Iterator[tuple[int, GaussVector, GaussVector]]:
        """Yield (n, psi_n, psi_{n+1}) for every consecutive pair."""
        for n in range(len(self.states) - 1):
            yield n, self.states[n], self.states[n + 1]

    def verify_recursion(self) -> int | None:
        """Index of the first state violating the update rule, or None.

        The returned index is the n of the offending psi_{n+1}.
        """
        H = self.hamiltonian()
        for n in range(1, len(self.states) - 1):
            if step_forward(self.states[n - 1], self.states[n], H) != self.states[n + 1]:
                return n + 1
        return None


def evolve(
    psi0: GaussVector,
    psi1: GaussVector,
    model: ModelLike,
    n_steps: int,
    l: float = 1.0,
) -> Trajectory:
    """Run n_steps updates from the initial pair; result holds n_steps + 2 states."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    spec, _ = _as_spec_and_matrix(model)
    return Trajectory(model=spec, states=tuple(stream_states(psi0, psi1, model, n_steps)), l=l)


def evolve_matched(psi0: GaussVector, model: ModelLike, n_steps: int, l: float = 1.0) -> Trajectory:
    """Evolve with the repeated-initial-state convention psi_1 = psi_0."""
    return evolve(psi0, psi0, model, n_steps, l=l)


def stream_states(
    psi0: GaussVector,
    psi1: GaussVector,
    model: ModelLike,
    n_steps: int | None = None,
    probe: Callable[[int, GaussVector, GaussVector], None] | None = None,
) -> Iterator[GaussVector]:
    """Generate psi_0, psi_1, psi_2, ... keeping only a sliding pair.

    Suited to very long runs where storing the whole trajectory is not an
    option.  `probe(n, psi_n, psi_{n+1})` is invoked once per consecutive
    pair as it becomes available.  n_steps = None streams forever.
    """
    spec, H = _as_spec_and_matrix(model)
    if len(psi0) != spec.dim or len(psi1) != spec.dim:
        raise DimensionMismatch(
            f"initial states of length {len(psi0)}/{len(psi1)} for a dim-{spec.dim} model"
        )
    yield psi0
    yield psi1
    if probe is not None:
        probe(0, psi0, psi1)
    prev, curr = psi0, psi1
    n = 1
    while n_steps is None or n <= n_steps:
        prev, curr = curr, step_forward(prev, curr, H)
        yield curr
        if probe is not None:
            probe(n, prev, curr)
        n += 1


def step_xp(
    x_prev: tuple[int, ...],
    p_prev: tuple[int, ...],
    x_curr: tuple[int, ...],
    p_curr: tuple[int, ...],
    spec: HamiltonianSpec,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One update in coordinate/momentum form:

        x_next = x_prev + S p_curr + A x_curr
        p_next = p_prev - S x_curr + A p_curr

    Combining as psi = x + i p reproduces step_forward exactly.
    """
    m = spec.dim
    for name, v in (("x_prev", x_prev), ("p_prev", p_prev), ("x_curr", x_curr), ("p_curr", p_curr)):
        if len(v) != m:
            raise DimensionMismatch(f"{name} has length {len(v)}, expected {m}")
    x_next = tuple(
        x_prev[i]
        + sum(spec.S[i][j] * p_curr[j] for j in range(m))
        + sum(spec.A[i][j] * x_curr[j] for j in range(m))
        for i in range(m)
    )
    p_next = tuple(
        p_prev[i]
        - sum(spec.S[i][j] * x_curr[j] for j in range(m))
        + sum(spec.A[i][j] * p_curr[j] for j in range(m))
        for i in range(m)
    )
    return x_next, p_next


def transfer_operators(H: GaussMatrix, n_max: int) -> list[GaussMatrix]:
    """T(0)..T(n_max) of the propagation polynomials.

    T(0) = 1, T(1) = 0, T(k+1) = T(k-1) - i*H*T(k).  Any state obeys
    psi_n = T(n-m+1) psi_{m+1} + T(n-m) psi_m for every earlier index m.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if not is_hermitian(H):
        raise ValueError("transfer operators are defined for Hermitian H")
    m = H.shape[0]
    ops = [GaussMatrix.identity(m)]
    if n_max >= 1:
        ops.append(GaussMatrix.zeros(m))
    minus_iH = -(H * I_UNIT)
    for _ in range(2, n_max + 1):
        ops.append(ops[-2] + minus_iH @ ops[-1])
    return ops[: n_max + 1]


def transfer_operator(H: GaussMatrix, n: int) -> GaussMatrix:
    """T(n) alone; see transfer_operators for the recursion."""
    if n < 0:
        raise ValueError(f"transfer operator index must be >= 0, got {n}")
    return transfer_operators(H, n)[n]
