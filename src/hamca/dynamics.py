"""Exact state evolution.

The update rule is second order: psi_{n+1} = psi_{n-1} - i*H*psi_n, so a
run always starts from two states.  Everything here stays in Gaussian
integers; stepping backward inverts stepping forward exactly, at any
amplitude magnitude.  `stream_states` is the one stepping loop: `evolve`,
`run`, `cycle` and `transfer_operators` each make a single pass over it.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Iterator

from .errors import DimensionMismatch
from .gaussian import GaussMatrix, GaussVector, _step_kernel, is_hermitian, is_int
from .models import basis_state


def step_forward(prev: GaussVector, curr: GaussVector, H: GaussMatrix) -> GaussVector:
    """psi_{n+1} = psi_{n-1} - i*H*psi_n, one call of H's compiled step."""
    if len(curr.re) != len(H.re[0]):
        raise DimensionMismatch(f"matrix {H.shape} cannot act on length-{len(curr.re)} vector")
    if len(prev.re) != len(H.re):
        raise DimensionMismatch(f"vector lengths differ: {len(prev.re)} vs {len(H.re)}")
    return GaussVector(*_step_kernel(H)(curr.re, curr.im, prev.re, prev.im))


def step_backward(curr: GaussVector, nxt: GaussVector, H: GaussMatrix) -> GaussVector:
    """psi_{n-1} = psi_{n+1} + i*H*psi_n, step_forward from (psi_{n+1}, -psi_n): its exact inverse."""
    return step_forward(nxt, -curr, H)


def evolve(psi0: GaussVector, psi1: GaussVector, H: GaussMatrix, n_steps: int) -> tuple[GaussVector, ...]:
    """The n_steps + 2 states psi_0 .. psi_{n_steps + 1} of the run from the
    initial pair.  n_steps must be an int: None, which streams for ever in
    stream_states, would grow the tuple until memory runs out."""
    if not is_int(n_steps):
        raise TypeError(f"n_steps must be an int, got {n_steps!r}")
    return tuple(stream_states(psi0, psi1, H, n_steps))


def stream_states(
    psi0: GaussVector,
    psi1: GaussVector,
    H: GaussMatrix,
    n_steps: int | None = None,
) -> Iterator[GaussVector]:
    """Generate psi_0, psi_1, psi_2, ... keeping only a sliding pair.

    Suited to very long runs where storing the whole trajectory is not an
    option: a consumer that needs a pair keeps the previous state itself.
    n_steps = None streams forever.
    """
    if n_steps is not None and n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    m = H.shape[0]
    if len(psi0) != m or len(psi1) != m:
        raise DimensionMismatch(f"initial states of length {len(psi0)}/{len(psi1)} for a dim-{m} model")
    yield psi0
    yield psi1
    prev, curr = psi0, psi1
    for _ in count() if n_steps is None else range(n_steps):
        prev, curr = curr, step_forward(prev, curr, H)
        yield curr


def transfer_operators(H: GaussMatrix, n_max: int) -> list[GaussMatrix]:
    """T(0)..T(n_max) of the propagation polynomials.

    T(0) = 1, T(1) = 0, T(k+1) = T(k-1) - i*H*T(k): the update rule applied
    column by column, so column j of T(k) is state k of the run from
    (e_j, 0), read off stream_states.  Any state obeys
    psi_n = T(n-m+1) psi_{m+1} + T(n-m) psi_m for every earlier index m.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if not is_hermitian(H):
        raise ValueError("transfer operators are defined for Hermitian H")
    m = H.shape[0]
    runs = [
        islice(stream_states(basis_state(m, j), GaussVector.zero(m), H), n_max + 1)
        for j in range(1, m + 1)
    ]
    # states k of all runs are the columns of T(k): as rows, then transposed
    return [
        GaussMatrix(tuple(c.re for c in cols), tuple(c.im for c in cols)).transpose()
        for cols in zip(*runs)
    ]
