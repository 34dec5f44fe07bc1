"""Floating-point bridge between the exact update rule and wave mechanics.

Covers the spectral closed form of the two-initial-state recursion, sinc
reconstruction of a continuous-time signal from trajectory samples, the
residual of the shift-operator equation the reconstruction satisfies, the
two-time-correlation expansion, and the convergence of link fractions to
squared-amplitude probabilities as the discreteness scale shrinks.

Only this module touches floats; everything it cross-checks against comes
from the exact integer layer.  It binds numpy on first use, not at import,
so the package and the exact commands load without it.
"""

from __future__ import annotations

import math
import sys
from typing import Literal, NamedTuple, Sequence, Union

from .errors import (
    DimensionMismatch,
    InstabilityError,
    OntologicalRegimeError,
    SignalRangeError,
    SingularSpectrumError,
    SpectralFailure,
)
from .gaussian import GaussMatrix, GaussVector, _Frozen


class _NumpyOnFirstUse:
    """This module's `np` until an attribute is first read: that read
    imports numpy and rebinds `np` to it, so later reads cost nothing."""

    def __getattr__(self, name: str):
        import numpy

        globals()["np"] = numpy
        return getattr(numpy, name)


np = _NumpyOnFirstUse()

MatrixLike = Union[GaussMatrix, "np.ndarray", Sequence[Sequence[complex]]]
StateLike = Union[GaussVector, "np.ndarray", Sequence[complex]]

#: eigenvalues with |4 - lambda^2| at or below this are treated as a
#: confluent double root of the stepping polynomial
_DEGENERATE_CUTOFF = 1e-13

#: half-width of the excluded band around |lambda| = 2 in strict mode
STRICT_BAND_EPSILON = 1e-6

#: largest |H v - lambda v| and |V^H V - 1| entries an eigendecomposition may leave
_RESIDUAL_BOUND = 1e-11
_UNITARITY_BOUND = 1e-12

#: evolve_float steps this many rows between finiteness checks
_FINITE_CHECK_ROWS = 256

#: window samples plus sinc weights one batch of sinc sums holds (about 256 KB)
_BATCH_ENTRIES = 1 << 14


def _finite_array(value: MatrixLike | StateLike, what: str) -> np.ndarray:
    """The float layer's one input conversion: a complex128 array whose entries
    all fit a float and are finite, so no NaN slips past a `>` bound test."""
    try:  # numpy converts each GaussInt entry by complex()
        arr = np.asarray(value.rows if isinstance(value, GaussMatrix) else value, dtype=np.complex128)
    except OverflowError:  # an exact int past the float range
        raise ValueError(f"{what} has entries too large for a float") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def as_state(psi: StateLike, dim: int | None = None) -> np.ndarray:
    """Validate and convert to a finite 1-D complex128 array."""
    arr = _finite_array(psi, "state")
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch(f"expected a 1-D state, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"state has length {arr.size}, expected {dim}")
    return arr


def as_matrix(H: MatrixLike) -> np.ndarray:
    arr = _finite_array(H, "matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# spectral decomposition and the closed-form propagator
# ---------------------------------------------------------------------------


class SpectralForm(NamedTuple):
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
    herm = np.max(np.abs(A - A.conj().T))
    if herm > 1e-12:
        raise SpectralFailure(f"matrix is not Hermitian (max asymmetry {herm:.3e})")
    evals, vecs = np.linalg.eigh(A)
    for k in range(vecs.shape[1]):
        pivot = int(np.argmax(np.abs(vecs[:, k])))
        ref = vecs[pivot, k]  # the largest entry of a unit vector: at least 1/sqrt(m) in magnitude
        vecs[:, k] *= ref.conjugate() / abs(ref)
    resid = float(np.max(np.abs(A @ vecs - vecs * evals)))
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
        for start in range(2, n_steps + 2, _FINITE_CHECK_ROWS):
            stop = min(start + _FINITE_CHECK_ROWS, n_steps + 2)
            for n in range(start - 2, stop - 2):
                out[n + 2] = out[n] - 1j * A.dot(out[n + 1])  # A.dot: the gemv A @ runs, cheaper to call
            finite = np.isfinite(out[start:stop]).all(axis=1)
            if not finite.all():
                raise InstabilityError(start + int(np.argmin(finite)))
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


class BandlimitedSignal(_Frozen):
    """Trajectory samples viewed as a bandlimited function of time.

    samples has shape (N, m); l is the sample spacing; window is the
    truncation half-width W of the sinc sum (at least 8).  It holds a
    mutable array, so it is not a value: == and hash are by identity.
    """

    __slots__ = _fields = ("samples", "l", "window")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, samples: np.ndarray, l: float, window: int = 32) -> None:
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 2 or samples.shape[0] < 2:
            raise DimensionMismatch(f"samples must be (N >= 2, m), got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise ValueError("samples contain non-finite entries")
        if not (math.isfinite(l) and l > 0):
            raise ValueError(f"l must be a finite positive number, got {l}")
        if window < 8:
            raise ValueError(f"window must be >= 8, got {window}")
        for name, value in zip(self._fields, (samples, l, window)):
            object.__setattr__(self, name, value)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def _window_range(self, t, margin: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, u) for each time in t: u = t / l and its window's first and
        last sample, once every window, widened by `margin`, lies in the signal."""
        u = np.asarray(t, dtype=np.float64) / self.l
        W = self.window
        lo_ok = W + margin
        hi_ok = self.n_samples - 1 - W - margin
        outside = ~((lo_ok <= u) & (u <= hi_ok))
        if outside.any():
            raise SignalRangeError(
                f"t/l = {u[outside][0]:.6g} outside the reconstructible range [{lo_ok}, {hi_ok}] "
                f"for window {W} over {self.n_samples} samples"
            )
        return np.ceil(u - W).astype(np.intp), np.floor(u + W).astype(np.intp), u


def _windowed_eval(signal: BandlimitedSignal, t, shifts: np.ndarray, margin: int = 0) -> np.ndarray:
    """Sinc sums at u + s for each shift s and each u = t / l, all over the
    samples within `window` of u: shape (len(shifts),) + t.shape + (m,).

    Points are batched by window length (2W + 1 samples at integer u, 2W
    elsewhere), so each point's sum is the very product it would be alone.
    """
    lo, hi, u = signal._window_range(t, margin)
    shape = u.shape
    lo, size, u = lo.ravel(), (hi - lo + 1).ravel(), u.ravel()
    m = signal.samples.shape[1]
    out = np.empty((shifts.size, u.size, m), dtype=np.complex128)
    for K in set(size.tolist()):
        rows = np.flatnonzero(size == K)
        batch = max(1, _BATCH_ENTRIES // (K * (m + shifts.size)))
        for start in range(0, rows.size, batch):
            p = rows[start : start + batch]
            n = lo[p, None] + np.arange(K)
            weights = np.sinc((u[p, None] + shifts)[:, :, None] - n[:, None, :])
            out[:, p] = (weights @ signal.samples[n]).swapaxes(0, 1)
    return out.reshape(shifts.shape + shape + (m,))


def reconstruct(signal: BandlimitedSignal, t) -> np.ndarray:
    """Truncated sinc interpolation of the signal at time t, or at each time
    of an array t, using the samples within `window` of t/l.  Interpolatory:
    at t = n*l it returns sample n (up to float rounding)."""
    return _windowed_eval(signal, t, np.zeros(1))[0]


def tail_bound(signal: BandlimitedSignal, t: float) -> float:
    """Sum of |sample|/(pi * distance) over the in-range samples excluded
    by the truncation window: an a-priori bound on what truncation drops."""
    lo, hi, u = signal._window_range(t)
    mags = np.max(np.abs(signal.samples), axis=1)
    n = np.r_[0:lo, hi + 1 : signal.n_samples]
    return float(np.sum(mags[n] / (math.pi * np.abs(u - n))))


def sinh_residual(signal: BandlimitedSignal, H: MatrixLike, t):
    """Max-norm residual of psi(t+l) - psi(t-l) + i*H*psi(t) with all three
    values read off one truncated reconstruction anchored at t.  A scalar t
    gives a float; an array of times gives an array of residuals.

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
    minus, centre, plus = _windowed_eval(signal, t, np.array([-1.0, 0.0, 1.0]), margin=1)
    res = np.max(np.abs(plus - minus + 1j * (A @ centre[..., None])[..., 0]), axis=-1)
    return float(res) if res.ndim == 0 else res


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


class Q1Result(NamedTuple):
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


#: the scales l at which q1's second difference over (2l)**2 is a normal float on both sides
Q1_SCALES = (math.sqrt(sys.float_info.min) / 2, math.sqrt(sys.float_info.max) / 2)


def check_q1_scale(l: float) -> None:
    """A ValueError naming l unless it is in Q1_SCALES."""
    lo, hi = Q1_SCALES
    if not lo <= l <= hi:
        raise ValueError(f"l must be between {lo:.3g} and {hi:.3g} for q1, which divides by (2l)**2, got {l}")


def q1_constancy(
    signal: BandlimitedSignal, ts: Sequence[float], convention: Q1Convention = "pairwise"
) -> tuple[list[Q1Result], float]:
    """Evaluate q1 at several times; the spread of values is the constancy
    defect (pure truncation error for trajectory signals)."""
    if convention not in ("pairwise", "cosh"):
        raise ValueError(f"unknown convention {convention!r}")
    check_q1_scale(signal.l)
    minus2, minus, centre, plus, plus2 = _windowed_eval(signal, np.ravel(ts), np.arange(-2.0, 3.0))

    def re_dot(a, b):  # Re <a[p], b[p]> for each p, by the BLAS dot np.vdot(a[p], b[p]) runs
        return np.matmul(a.conj()[:, None, :], b[:, :, None])[:, 0, 0].real

    pair_value = re_dot(centre, plus + minus)
    cosh_value = pair_value / 2.0
    norm_term = re_dot(centre, centre)
    d2 = (plus2 - 2.0 * centre + minus2) / (2.0 * signal.l) ** 2
    expansion = norm_term + (signal.l**2 / 2.0) * re_dot(centre, d2)
    values = (pair_value if convention == "pairwise" else cosh_value).tolist()
    terms = zip(values, norm_term.tolist(), expansion.tolist(), (cosh_value - expansion).tolist())
    return [Q1Result(v, convention, n, e, r) for v, n, e, r in terms], max(values) - min(values)


# ---------------------------------------------------------------------------
# link fractions vs squared amplitudes
# ---------------------------------------------------------------------------


class BornEntry(NamedTuple):
    l: float
    steps: int
    link_total: float
    max_error: float


class BornReport(NamedTuple):
    entries: list[BornEntry]

    @property
    def errors(self) -> list[float]:
        return [e.max_error for e in self.entries]

    @property
    def ratios(self) -> list[float]:
        errs = self.errors  # a step to an exact 0 has converged: its ratio is inf
        return [a / b if b else math.inf for a, b in zip(errs, errs[1:])]


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
    top = max(float(np.max(np.abs(psi0.real))), float(np.max(np.abs(psi0.imag))))
    if top == 0.0:
        raise ValueError("psi_init must be nonzero")
    # dividing by a power of two near the largest part is exact, and keeps
    # the norm of entries near the float maximum from overflowing
    psi0 = psi0 / math.ldexp(1.0, math.frexp(top)[1] - 1)
    psi0 = psi0 / float(np.linalg.norm(psi0))
    ls = [float(l) for l in l_values]
    if not ls or not all(math.isfinite(l) and l > 0 for l in ls):
        raise ValueError(f"l_values must be finite positive numbers, got {ls}")
    if any(b >= a for a, b in zip(ls, ls[1:])):
        raise ValueError("l_values must be strictly decreasing")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be a finite positive number, got {horizon}")
    if not math.isfinite(horizon / ls[-1]):  # the smallest l runs the most steps
        raise ValueError(f"horizon / l must be finite, got horizon = {horizon} and l = {ls[-1]}")
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
