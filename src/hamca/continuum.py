"""Floating-point bridge between the exact update rule and wave mechanics.

Covers the spectral closed form of the two-initial-state recursion, sinc
reconstruction of a continuous-time signal from trajectory samples, the
residual of the shift-operator equation the reconstruction satisfies, the
two-time-correlation expansion, and the convergence of link fractions to
squared-amplitude probabilities as the discreteness scale shrinks.

Only this module touches floats; everything it cross-checks against comes
from the exact integer layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InstabilityError,
    OntologicalRegimeError,
    SignalRangeError,
    SingularSpectrumError,
    SpectralFailure,
)
from .gaussian import GaussMatrix, GaussVector

MatrixLike = Union[GaussMatrix, np.ndarray, Sequence[Sequence[complex]]]
StateLike = Union[GaussVector, np.ndarray, Sequence[complex]]

#: eigenvalues with |4 - lambda^2| at or below this are treated as a
#: confluent double root of the stepping polynomial
_DEGENERATE_CUTOFF = 1e-13

#: half-width of the excluded band around |lambda| = 2 in strict mode
STRICT_BAND_EPSILON = 1e-6

#: largest |H v - lambda v| and |V^H V - 1| entries an eigendecomposition may leave
_RESIDUAL_BOUND = 1e-11
_UNITARITY_BOUND = 1e-12


def as_state(psi: StateLike, dim: int | None = None) -> np.ndarray:
    """Validate and convert to a finite 1-D complex128 array."""
    if isinstance(psi, GaussVector):
        arr = np.array([complex(c) for c in psi], dtype=np.complex128)
    else:
        arr = np.asarray(psi, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch(f"expected a 1-D state, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("state contains non-finite entries")
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"state has length {arr.size}, expected {dim}")
    return arr


def as_matrix(H: MatrixLike) -> np.ndarray:
    if isinstance(H, GaussMatrix):
        arr = np.array([[complex(v) for v in row] for row in H.rows], dtype=np.complex128)
    else:
        arr = np.asarray(H, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# spectral decomposition and the closed-form propagator
# ---------------------------------------------------------------------------


@dataclass
class SpectralForm:
    """Eigenvalues (ascending), unitary eigenvector matrix (columns), and
    the worst-case |H v - lambda v| residual actually achieved."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def spectral_decompose(H: MatrixLike) -> SpectralForm:
    """Hermitian eigendecomposition with deterministic column phases.

    Each eigenvector is rotated so its largest-magnitude component is real
    and positive, making repeated runs byte-reproducible on one platform.
    """
    A = as_matrix(H)
    herm = np.max(np.abs(A - A.conj().T)) if A.size else 0.0
    if herm > 1e-12:
        raise SpectralFailure(f"matrix is not Hermitian (max asymmetry {herm:.3e})")
    evals, vecs = np.linalg.eigh(A)
    for k in range(vecs.shape[1]):
        pivot = int(np.argmax(np.abs(vecs[:, k])))
        ref = vecs[pivot, k]
        if abs(ref) > 0:
            vecs[:, k] *= ref.conjugate() / abs(ref)
    resid = float(np.max(np.abs(A @ vecs - vecs * evals))) if A.size else 0.0
    if resid > _RESIDUAL_BOUND:
        raise SpectralFailure(f"eigen residual {resid:.3e} exceeds bound {_RESIDUAL_BOUND:.3e}")
    unit = float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(A.shape[0]))))
    if unit > _UNITARITY_BOUND:
        raise SpectralFailure(f"eigenvectors deviate from unitarity by {unit:.3e}")
    return SpectralForm(eigenvalues=evals, eigenvectors=vecs, residual=resid)


def evolve_float(
    psi0: StateLike, psi1: StateLike, H: MatrixLike, n_steps: int
) -> np.ndarray:
    """Float mirror of the exact stepper; returns an (n_steps + 2, m) array."""
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


def _mode_values(lam: float, c0: complex, c1: complex, ns: np.ndarray) -> np.ndarray:
    """u_n for every n in ns, where u_{n+1} = u_{n-1} - i*lam*u_n and
    (u_0, u_1) = (c0, c1).

    Distinct characteristic roots give the two-exponential form; at
    |lam| = 2 the roots collide and the solution picks up a linear-in-n
    factor instead of blowing up.
    """
    disc = 4.0 - lam * lam
    if abs(disc) <= _DEGENERATE_CUTOFF:
        z = -1j * lam / 2.0
        z = z / abs(z)  # clamp to the unit circle against eigenvalue jitter
        return (c0 + ns * (c1 / z - c0)) * z**ns
    s = np.sqrt(complex(disc))
    zp = (-1j * lam + s) / 2.0
    zm = (-1j * lam - s) / 2.0
    a = (c1 - c0 * zm) / (zp - zm)
    b = (c0 * zp - c1) / (zp - zm)
    return a * zp**ns + b * zm**ns


class ClosedFormSolver:
    """Spectral propagator for one Hamiltonian, reusable across n values.

    degenerate='confluent' (default) evaluates band-edge eigenvalues by the
    coalescing-root limit; 'error' instead rejects any eigenvalue within
    STRICT_BAND_EPSILON of +/-2, where the 1/(2 cos) closed-form amplitude
    is not invertible.
    """

    def __init__(
        self,
        H: MatrixLike,
        degenerate: Literal["confluent", "error"] = "confluent",
    ):
        self.spectral = spectral_decompose(H)
        if degenerate == "error":
            lam = self.spectral.eigenvalues
            edge = lam[np.abs(lam) > 2.0 - STRICT_BAND_EPSILON]
            if edge.size:
                raise SingularSpectrumError(float(edge[0]))
        elif degenerate != "confluent":
            raise ValueError(f"unknown degenerate policy {degenerate!r}")

    @property
    def dim(self) -> int:
        return self.spectral.eigenvectors.shape[0]

    def _states(self, psi0: StateLike, psi1: StateLike, ns: np.ndarray) -> np.ndarray:
        """States at the step indices ns, shape (len(ns), m)."""
        V = self.spectral.eigenvectors
        c0 = V.conj().T @ as_state(psi0, self.dim)
        c1 = V.conj().T @ as_state(psi1, self.dim)
        modes = np.array(
            [_mode_values(float(lam), c0[k], c1[k], ns) for k, lam in enumerate(self.spectral.eigenvalues)]
        )
        return (V @ modes).T

    def state_at(self, psi0: StateLike, psi1: StateLike, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"step index must be >= 0, got {n}")
        return self._states(psi0, psi1, np.array([n]))[0]

    def states_upto(self, psi0: StateLike, psi1: StateLike, n_max: int) -> np.ndarray:
        """All states 0..n_max at once, shape (n_max + 1, m)."""
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        return self._states(psi0, psi1, np.arange(n_max + 1))


def closed_form(
    H: MatrixLike,
    psi0: StateLike,
    psi1: StateLike,
    n: int,
    degenerate: Literal["confluent", "error"] = "confluent",
) -> np.ndarray:
    """State after n steps straight from the eigenbasis, no iteration."""
    return ClosedFormSolver(H, degenerate=degenerate).state_at(psi0, psi1, n)


def smooth_partner(M: MatrixLike, psi0: StateLike) -> np.ndarray:
    """The one-step state selecting the non-alternating solution branch of
    psi_{n+1} = psi_{n-1} - i*M*psi_n, namely psi_1 = exp(-i*phi) psi_0 in
    the eigenbasis with 2 sin(phi_k) = lambda_k.  Requires |lambda| < 2."""
    sf = spectral_decompose(M)
    if np.max(np.abs(sf.eigenvalues)) >= 2.0:
        raise SingularSpectrumError(float(sf.eigenvalues[np.argmax(np.abs(sf.eigenvalues))]))
    phi = np.arcsin(sf.eigenvalues / 2.0)
    V = sf.eigenvectors
    return V @ (np.exp(-1j * phi) * (V.conj().T @ as_state(psi0, V.shape[0])))


# ---------------------------------------------------------------------------
# bandlimited reconstruction
# ---------------------------------------------------------------------------


@dataclass
class BandlimitedSignal:
    """Trajectory samples viewed as a bandlimited function of time.

    samples has shape (N, m); l is the sample spacing; window is the
    truncation half-width W of the sinc sum (at least 8).
    """

    samples: np.ndarray
    l: float
    window: int = 32

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 2 or self.samples.shape[0] < 2:
            raise DimensionMismatch(
                f"samples must be (N >= 2, m), got shape {self.samples.shape}"
            )
        if not np.isfinite(self.samples).all():
            raise ValueError("samples contain non-finite entries")
        if self.l <= 0:
            raise ValueError(f"sample spacing must be positive, got {self.l}")
        if self.window < 8:
            raise ValueError(f"window must be >= 8, got {self.window}")

    @classmethod
    def from_states(
        cls, states: Iterable[StateLike], l: float, window: int = 32
    ) -> "BandlimitedSignal":
        rows = [as_state(s) for s in states]
        return cls(samples=np.array(rows, dtype=np.complex128), l=l, window=window)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def _window_range(self, t: float, margin: int = 0) -> tuple[int, int, float]:
        u = t / self.l
        W = self.window
        lo_ok = W + margin
        hi_ok = self.n_samples - 1 - W - margin
        if not (lo_ok <= u <= hi_ok):
            raise SignalRangeError(
                f"t/l = {u:.6g} outside the reconstructible range [{lo_ok}, {hi_ok}] "
                f"for window {W} over {self.n_samples} samples"
            )
        lo = math.ceil(u - W)
        hi = math.floor(u + W)
        return lo, hi, u


def _windowed_eval(signal: BandlimitedSignal, lo: int, hi: int, u_eval: np.ndarray) -> np.ndarray:
    """Sinc sums over the samples lo..hi at each point of u_eval (in units
    of l), one row per point."""
    weights = np.sinc(np.subtract.outer(u_eval, np.arange(lo, hi + 1)))
    return weights @ signal.samples[lo : hi + 1]


def reconstruct(signal: BandlimitedSignal, t: float) -> np.ndarray:
    """Truncated sinc interpolation of the signal at time t, using the
    samples within `window` of t/l.  Interpolatory: at t = n*l it returns
    sample n (up to float rounding)."""
    lo, hi, u = signal._window_range(t)
    return _windowed_eval(signal, lo, hi, np.array([u]))[0]


def tail_bound(signal: BandlimitedSignal, t: float) -> float:
    """Sum of |sample|/(pi * distance) over the in-range samples excluded
    by the truncation window: an a-priori bound on what truncation drops."""
    lo, hi, u = signal._window_range(t)
    mags = np.max(np.abs(signal.samples), axis=1)
    n = np.r_[0:lo, hi + 1 : signal.n_samples]
    return float(np.sum(mags[n] / (math.pi * np.abs(u - n))))


def sinh_residual(signal: BandlimitedSignal, H: MatrixLike, t: float) -> float:
    """Max-norm residual of psi(t+l) - psi(t-l) + i*H*psi(t) with all three
    values read off one truncated reconstruction anchored at t.

    The anchored window is what makes this informative: evaluating each
    shift with its own window would translate the truncation error along
    with the data and cancel it identically.  At sample points the value
    collapses to the discrete update residual (zero for real trajectories);
    off-grid it is pure truncation error and shrinks as the window grows.
    """
    A = as_matrix(H)
    if A.shape[0] != signal.samples.shape[1]:
        raise DimensionMismatch(
            f"H has dimension {A.shape[0]}, signal carries {signal.samples.shape[1]}"
        )
    lo, hi, u = signal._window_range(t, margin=1)
    minus, centre, plus = _windowed_eval(signal, lo, hi, u + np.array([-1.0, 0.0, 1.0]))
    return float(np.max(np.abs(plus - minus + 1j * (A @ centre))))


def sinh_residual_bound(signal: BandlimitedSignal, H: MatrixLike, t: float) -> float:
    """Bound on sinh_residual for signals that satisfy the update rule.

    Telescoping the anchored-window sums against the recursion leaves four
    boundary terms (samples lo-1, lo, hi, hi+1 weighted by far sinc values);
    everything interior cancels exactly.
    """
    lo, hi, u = signal._window_range(t, margin=1)
    mags = np.max(np.abs(signal.samples), axis=1)

    def s(x: float) -> float:
        return abs(float(np.sinc(x)))

    bound = (
        mags[lo] * s(u - lo + 1)
        + mags[lo - 1] * s(u - lo)
        + mags[hi + 1] * s(u - hi)
        + mags[hi] * s(u - hi - 1)
    )
    scale = float(mags[lo : hi + 2].max())
    return float(bound) + 1e-12 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# two-time correlation in continuous time
# ---------------------------------------------------------------------------

Q1Convention = Literal["pairwise", "cosh"]


@dataclass
class Q1Result:
    """Continuum evaluation of the conserved two-time correlation.

    value follows the requested convention: 'pairwise' matches the exact
    layer, Re<psi(t), psi(t+l) + psi(t-l)>, twice the 'cosh' normalization
    Re<psi(t), cosh(l d/dt) psi(t)>.  The two conventions genuinely differ
    by the factor 2 hidden in cosh = (shift+ + shift-)/2; pick one and say
    so.  expansion is the two-term small-l estimate |psi|^2 +
    (l^2/2) Re<psi, psi''> in the cosh normalization, with psi'' taken by
    central differences at spacing 2l so it stays an independent estimate
    rather than reassembling the cosh value term for term.  remainder =
    cosh-normalized value - expansion, an O(l^4) quantity for a fixed
    underlying signal.
    """

    value: float
    convention: Q1Convention
    norm_term: float
    expansion: float
    remainder: float


def q1_continuum(
    signal: BandlimitedSignal, t: float, convention: Q1Convention = "pairwise"
) -> Q1Result:
    if convention not in ("pairwise", "cosh"):
        raise ValueError(f"unknown convention {convention!r}")
    lo, hi, u = signal._window_range(t)
    minus2, minus, centre, plus, plus2 = _windowed_eval(signal, lo, hi, u + np.arange(-2.0, 3.0))
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


def q1_constancy(
    signal: BandlimitedSignal, ts: Sequence[float], convention: Q1Convention = "pairwise"
) -> tuple[list[Q1Result], float]:
    """Evaluate q1 at several times; the spread of values is the constancy
    defect (pure truncation error for trajectory signals)."""
    results = [q1_continuum(signal, t, convention) for t in ts]
    values = [r.value for r in results]
    return results, max(values) - min(values)


# ---------------------------------------------------------------------------
# link fractions vs squared amplitudes
# ---------------------------------------------------------------------------


@dataclass
class BornEntry:
    l: float
    steps: int
    link_total: float
    max_error: float


@dataclass
class BornReport:
    entries: list[BornEntry]

    @property
    def errors(self) -> list[float]:
        return [e.max_error for e in self.entries]

    @property
    def ratios(self) -> list[float]:
        errs = self.errors
        return [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]


def born_convergence(
    H: MatrixLike,
    psi_init: StateLike,
    l_values: Sequence[float],
    horizon: float = 3.0,
    psi1: StateLike | None = None,
) -> BornReport:
    """Measure how link fractions approach squared-amplitude probabilities
    as the discreteness scale l shrinks.

    For each l the discrete generator is 2*l*H (so the continuum limit is
    the fixed wave equation with Hamiltonian H; this needs l * max|eig| < 1)
    and the second initial state is the non-alternating-branch partner of
    psi_init unless an explicit psi1 is supplied.  Link fractions w_a of
    each consecutive pair are compared against probabilities |psi_a|^2 /
    |psi|^2 evaluated at the pair midpoint, where the two-time product is
    centred; the worst |w_a - p_a| over the run is reported per l.

    Raises OntologicalRegimeError, naming the first step where the conserved
    link total is numerically zero, since fractions are undefined there.
    """
    A = as_matrix(H)
    m = A.shape[0]
    psi0 = as_state(psi_init, m)
    nrm = float(np.linalg.norm(psi0))
    if nrm == 0.0:
        raise ValueError("psi_init must be nonzero")
    psi0 = psi0 / nrm
    ls = [float(l) for l in l_values]
    if not ls or any(l <= 0 for l in ls):
        raise ValueError("l_values must be positive")
    if any(b >= a for a, b in zip(ls, ls[1:])):
        raise ValueError("l_values must be strictly decreasing")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be a finite positive number, got {horizon}")
    sf = spectral_decompose(A)
    rho = float(np.max(np.abs(sf.eigenvalues)))
    V = sf.eigenvectors
    c = V.conj().T @ psi0
    entries: list[BornEntry] = []
    for l in ls:
        if rho * l >= 1.0:
            raise ValueError(
                f"l = {l} too large: need l * max|eigenvalue| < 1, have {rho * l:.3g}"
            )
        steps = max(2, int(round(horizon / l)))
        phi = np.arcsin(l * sf.eigenvalues)
        # the non-alternating branch exp(-i n phi) c: its n = 1 state is the
        # smooth partner of psi0, its n + 1/2 states the pair midpoints
        ns = np.r_[1.0, np.arange(steps) + 0.5]
        branch = (np.exp(-1j * np.outer(ns, phi)) * c) @ V.T
        states = evolve_float(psi0, branch[0] if psi1 is None else psi1, 2.0 * l * A, steps)
        a, b = states[:steps], states[1 : steps + 1]
        links = np.real(np.conj(b) * a)
        ltot = links.sum(axis=1)
        vanished = np.flatnonzero(np.abs(ltot) < 1e-9)
        if vanished.size:
            n = int(vanished[0])
            raise OntologicalRegimeError(
                f"total link number {ltot[n]:.3e} is numerically zero at step {n} (l = {l}); "
                "link fractions have no continuum limit"
            )
        if psi1 is None:
            p = np.abs(branch[1:]) ** 2
        else:
            # no single smooth branch to interpolate: use the grid average
            p = np.abs(a) ** 2 + np.abs(b) ** 2
        p /= p.sum(axis=1, keepdims=True)
        worst = float(np.max(np.abs(links / ltot[:, None] - p)))
        entries.append(BornEntry(l=l, steps=steps, link_total=float(ltot[0]), max_error=worst))
    return BornReport(entries=entries)
