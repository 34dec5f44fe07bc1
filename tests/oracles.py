"""Independent references the tests hold the package to, and the test
suite's reader of stored trajectories.

Nothing in `src/hamca` calls these, so they live with the tests.
"""

from hamca.dynamics import Trajectory
from hamca.errors import DimensionMismatch
from hamca.gaussian import GaussInt
from hamca.models import HamiltonianSpec
from hamca.serialization import read_trajectory_stream


def _dot(row, col):
    re = 0
    im = 0
    for a, b in zip(row, col):
        re += a.re * b.re - a.im * b.im
        im += a.re * b.im + a.im * b.re
    return GaussInt(re, im)


def oracle_mat_vec(rows, v):
    """M v with M as rows of GaussInt and v as a sequence of GaussInt."""
    return tuple(_dot(row, v) for row in rows)


def oracle_matmul(a_rows, b_rows):
    """A B on rows of GaussInt."""
    cols = tuple(zip(*b_rows))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a_rows)


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


def load_trajectory(path) -> Trajectory:
    """A trajectory file read whole through read_trajectory_stream, the
    reader `hamca check` streams with."""
    model, l, states = read_trajectory_stream(path)
    return Trajectory(model=model, states=tuple(psi for _, psi in states), l=l)
