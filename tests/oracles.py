"""Independent references the tests hold the package to, and the test
suite's reader of stored trajectories.

Nothing in `src/hamca` calls these, so they live with the tests.
"""

import math

import numpy as np

from hamca.continuum import Q1Result, as_matrix, as_state
from hamca.dynamics import Trajectory
from hamca.errors import DimensionMismatch, InstabilityError, SignalRangeError
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


# ---------------------------------------------------------------------------
# the float layer one step and one point at a time: the loops the blocked
# stepper and the batched sinc kernel replaced, which must match them bit for bit
# ---------------------------------------------------------------------------


def evolve_float_steps(psi0, psi1, H, n_steps: int) -> np.ndarray:
    """evolve_float with a finiteness check after every step."""
    A = as_matrix(H)
    m = A.shape[0]
    a = as_state(psi0, m)
    b = as_state(psi1, m)
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    out = np.empty((n_steps + 2, m), dtype=np.complex128)
    out[0] = a
    out[1] = b
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            a, b = b, a - 1j * (A @ b)
            if not np.isfinite(b).all():
                raise InstabilityError(n + 2)
            out[n + 2] = b
    return out


def window_range(signal, t: float, margin: int = 0) -> tuple[int, int, float]:
    """(lo, hi, u) for one time t: u = t / l and the first and last sample
    within `window` of it."""
    u = t / signal.l
    W = signal.window
    lo_ok = W + margin
    hi_ok = signal.n_samples - 1 - W - margin
    if not (lo_ok <= u <= hi_ok):
        raise SignalRangeError(
            f"t/l = {u:.6g} outside the reconstructible range [{lo_ok}, {hi_ok}] "
            f"for window {W} over {signal.n_samples} samples"
        )
    return math.ceil(u - W), math.floor(u + W), u


def windowed_eval(signal, lo: int, hi: int, u_eval: np.ndarray) -> np.ndarray:
    """Sinc sums over the samples lo..hi at each point of u_eval (in units
    of l), one row per point."""
    weights = np.sinc(np.subtract.outer(u_eval, np.arange(lo, hi + 1)))
    return weights @ signal.samples[lo : hi + 1]


def reconstruct_point(signal, t: float) -> np.ndarray:
    lo, hi, u = window_range(signal, t)
    return windowed_eval(signal, lo, hi, np.array([u]))[0]


def sinh_residual_point(signal, H, t: float) -> float:
    A = as_matrix(H)
    lo, hi, u = window_range(signal, t, margin=1)
    minus, centre, plus = windowed_eval(signal, lo, hi, u + np.array([-1.0, 0.0, 1.0]))
    return float(np.max(np.abs(plus - minus + 1j * (A @ centre))))


def q1_point(signal, t: float, convention: str = "pairwise") -> Q1Result:
    lo, hi, u = window_range(signal, t)
    minus2, minus, centre, plus, plus2 = windowed_eval(signal, lo, hi, u + np.arange(-2.0, 3.0))
    pair_value = float(np.real(np.vdot(centre, plus + minus)))
    cosh_value = pair_value / 2.0
    norm_term = float(np.real(np.vdot(centre, centre)))
    d2 = (plus2 - 2.0 * centre + minus2) / (2.0 * signal.l) ** 2
    expansion = norm_term + (signal.l**2 / 2.0) * float(np.real(np.vdot(centre, d2)))
    return Q1Result(
        value=pair_value if convention == "pairwise" else cosh_value,
        convention=convention,
        norm_term=norm_term,
        expansion=expansion,
        remainder=cosh_value - expansion,
    )
