"""Differential tests for the array forms of the float layer.

The references below are the per-step and per-point loops the array code
replaced, kept verbatim as oracles: the link-fraction loop of
born_convergence, the per-sample tail_bound loop, and one np.sinc sum per
evaluation point for the anchored-window reconstructions.  Summation order
differs, so agreement is required within 1e-12 rather than bit for bit.

The batched sinc kernel and the blocked evolve_float do the same arithmetic
as the per-point and per-step loops in oracles.py, so against those they
must agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest

import hamca.continuum as ct
import oracles
from hamca.continuum import (
    BandlimitedSignal,
    BornEntry,
    BornReport,
    MatrixLike,
    StateLike,
    as_matrix,
    as_state,
    spectral_decompose,
)
from hamca.errors import InstabilityError, OntologicalRegimeError, SignalRangeError
from hamca.models import build_hamiltonian, make_cyclic_model

TOL = 1e-12


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def born_convergence_loop(
    H: MatrixLike,
    psi_init: StateLike,
    l_values: Sequence[float],
    horizon: float = 3.0,
    psi1: StateLike | None = None,
) -> BornReport:
    """Per-step reference: the link-fraction loop with its own stepper and
    overflow check, as born_convergence computed it before using
    evolve_float."""
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
        phi = np.arcsin(l * sf.eigenvalues)
        if psi1 is None:
            b0 = V @ (np.exp(-1j * phi) * c)
        else:
            b0 = as_state(psi1, m)
        link0 = float(np.sum(np.real(np.conj(b0) * psi0)))
        if abs(link0) < 1e-9:
            raise OntologicalRegimeError(
                f"total link number {link0:.3e} is numerically zero at l = {l}; "
                "link fractions have no continuum limit"
            )
        heff = 2.0 * l * A
        steps = max(2, int(round(horizon / l)))
        a_st, b_st = psi0.copy(), b0.copy()
        worst = 0.0
        for n in range(steps):
            la = np.real(np.conj(b_st) * a_st)
            ltot = float(la.sum())
            if abs(ltot) < 1e-9:
                raise OntologicalRegimeError(
                    f"total link number vanished at step {n} (l = {l})"
                )
            w = la / ltot
            if psi1 is None:
                mid = V @ (np.exp(-1j * phi * (n + 0.5)) * c)
            else:
                # no single smooth branch to interpolate: use the grid average
                mid_sq = (np.abs(a_st) ** 2 + np.abs(b_st) ** 2) / 2.0
                mid = np.sqrt(mid_sq)
            p = np.abs(mid) ** 2
            p = p / p.sum()
            worst = max(worst, float(np.max(np.abs(w - p))))
            a_st, b_st = b_st, a_st - 1j * (heff @ b_st)
            if not np.isfinite(b_st).all():
                raise InstabilityError(n + 2)
        entries.append(BornEntry(l=l, steps=steps, link_total=link0, max_error=worst))
    return BornReport(entries=entries)


def tail_bound_loop(signal: BandlimitedSignal, t: float) -> float:
    """Sum of |sample|/(pi * distance) over the in-range samples excluded
    by the truncation window: an a-priori bound on what truncation drops."""
    lo, hi, u = signal._window_range(t)
    mags = np.max(np.abs(signal.samples), axis=1)
    total = 0.0
    for n in range(0, lo):
        total += mags[n] / (math.pi * abs(u - n))
    for n in range(hi + 1, signal.n_samples):
        total += mags[n] / (math.pi * abs(u - n))
    return float(total)


def window_sum(signal, lo, hi, u):
    """One np.sinc sum over the samples lo..hi at the point u."""
    return sum(np.sinc(u - n) * signal.samples[n] for n in range(lo, hi + 1))


def sinh_residual_points(signal, H, t):
    A = as_matrix(H)
    lo, hi, u = signal._window_range(t, margin=1)
    plus, centre, minus = (window_sum(signal, lo, hi, u + s) for s in (1.0, 0.0, -1.0))
    return float(np.max(np.abs(plus - minus + 1j * (A @ centre))))


def q1_points(signal, t):
    """(pairwise value, norm term, expansion, remainder) from per-point sums."""
    lo, hi, u = signal._window_range(t)
    minus2, minus, centre, plus, plus2 = (window_sum(signal, lo, hi, u + s) for s in range(-2, 3))
    pair = float(np.real(np.vdot(centre, plus + minus)))
    norm = float(np.real(np.vdot(centre, centre)))
    d2 = (plus2 - 2.0 * centre + minus2) / (2.0 * signal.l) ** 2
    expansion = norm + (signal.l**2 / 2.0) * float(np.real(np.vdot(centre, d2)))
    return pair, norm, expansion, pair / 2.0 - expansion


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(b))


MODELS = {m: build_hamiltonian(make_cyclic_model(m)) for m in (2, 3, 8)}


def random_state(rng, m):
    return rng.normal(size=m) + 1j * rng.normal(size=m)


# ---------------------------------------------------------------------------
# born_convergence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 8])
@pytest.mark.parametrize("explicit_partner", [False, True], ids=["smooth", "psi1"])
def test_born_matches_step_loop(m, explicit_partner):
    rng = np.random.default_rng(10 + m)
    psi0 = random_state(rng, m)
    psi1 = random_state(rng, m) if explicit_partner else None
    ls = [0.2, 0.1, 0.05]
    new = ct.born_convergence(MODELS[m], psi0, ls, horizon=4.0, psi1=psi1)
    ref = born_convergence_loop(MODELS[m], psi0, ls, horizon=4.0, psi1=psi1)
    assert [e.steps for e in new.entries] == [e.steps for e in ref.entries]
    for e, r in zip(new.entries, ref.entries):
        assert e.l == r.l
        assert close(e.link_total, r.link_total)
        assert close(e.max_error, r.max_error)


@pytest.mark.parametrize("m, psi0, psi1", [
    (2, [1, 0], [0, 1]),
    (3, [1, 0, 0], [0, 1j, 0]),
    (8, [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]),
    (3, [1, 1, 0], [1j, 1j, 0]),
], ids=["H2-basis", "H3-basis", "Hm8-basis", "H3-imaginary-partner"])
def test_born_ontological_inputs_rejected_by_both(m, psi0, psi1):
    with pytest.raises(OntologicalRegimeError):
        born_convergence_loop(MODELS[m], psi0, [0.2, 0.1], psi1=psi1)
    with pytest.raises(OntologicalRegimeError) as err:
        ct.born_convergence(MODELS[m], psi0, [0.2, 0.1], psi1=psi1)
    assert "at step 0 (l = 0.2)" in str(err.value)


@pytest.mark.parametrize("scale", [2.0**1020, 2.0**-1000], ids=["overflowing-norm", "underflowing-norm"])
def test_born_is_exact_under_power_of_two_scaling(scale):
    psi0 = np.array([0.8, -0.6j])
    ref = ct.born_convergence(MODELS[2], psi0, [0.2, 0.1], horizon=3.0)
    assert ct.born_convergence(MODELS[2], psi0 * scale, [0.2, 0.1], horizon=3.0) == ref


def test_born_evolves_once_per_scale(monkeypatch):
    calls = []
    evolve = ct.evolve_float

    def counting(*args):
        calls.append(args[3])
        return evolve(*args)

    monkeypatch.setattr(ct, "evolve_float", counting)
    report = ct.born_convergence(MODELS[2], [0.8, 0.6], [0.2, 0.1, 0.05])
    assert calls == [e.steps for e in report.entries]


# ---------------------------------------------------------------------------
# anchored-window sums and the tail bound
# ---------------------------------------------------------------------------


def smooth_signal(m, window, n_samples=300, l=1.0, seed=3):
    rng = np.random.default_rng(seed)
    psi0 = random_state(rng, m)
    states = ct.evolve_float(psi0, ct.smooth_partner(MODELS[m], psi0), MODELS[m], n_samples - 2)
    return ct.BandlimitedSignal(states, l=l, window=window)


@pytest.mark.parametrize("m", [2, 3, 8])
def test_window_evaluations_match_per_point_sums(m):
    sig = smooth_signal(m, window=16, l=0.5)
    for t in (20.0, 41.37, 75.5, 120.9):
        lo, hi, u = sig._window_range(t)
        ref = window_sum(sig, lo, hi, u)
        assert np.max(np.abs(ct.reconstruct(sig, t) - ref)) <= TOL * max(1.0, np.abs(ref).max())
        assert close(ct.sinh_residual(sig, MODELS[m], t), sinh_residual_points(sig, MODELS[m], t))
        (res,), _ = ct.q1_constancy(sig, [t])
        for got, want in zip((res.value, res.norm_term, res.expansion, res.remainder), q1_points(sig, t)):
            assert close(got, want)


@pytest.mark.parametrize("m", [2, 3, 8])
def test_tail_bound_matches_sample_loop(m):
    sig = smooth_signal(m, window=16, l=0.5)
    for t in (8.0, 20.0, 41.37, 75.5, 141.5):
        assert close(ct.tail_bound(sig, t), tail_bound_loop(sig, t))


def test_each_evaluation_makes_one_window_call(monkeypatch):
    """One kernel call covers every time a call is given."""
    sig = smooth_signal(3, window=16)
    calls = []
    windowed = ct._windowed_eval

    def counting(signal, t, shifts, margin=0):
        calls.append((np.shape(t), len(shifts), margin))
        return windowed(signal, t, shifts, margin)

    monkeypatch.setattr(ct, "_windowed_eval", counting)
    ts = np.array([40.0, 100.3, 150.5])
    ct.reconstruct(sig, 100.3)
    ct.reconstruct(sig, ts)
    ct.sinh_residual(sig, MODELS[3], ts)
    ct.q1_constancy(sig, [100.3])
    ct.q1_constancy(sig, ts)
    assert calls == [((), 1, 0), ((3,), 1, 0), ((3,), 3, 1), ((1,), 5, 0), ((3,), 5, 0)]


# ---------------------------------------------------------------------------
# the batched kernel and the blocked stepper against the per-point and
# per-step loops they replaced: equal bit for bit, not within a tolerance
# ---------------------------------------------------------------------------


def mixed_times(sig, margin=2):
    """Times across the valid range, on and off the sample grid."""
    lo = (sig.window + margin) * sig.l
    hi = (sig.n_samples - 1 - sig.window - margin) * sig.l
    grid = [n * sig.l for n in range(sig.window + margin, sig.n_samples - sig.window - margin, 7)]
    return np.sort(np.r_[np.linspace(lo, hi, 23) + 0.37 * sig.l, grid, lo, hi])


@pytest.mark.parametrize("m", [2, 3, 8], ids=["H2", "H3", "Hm8"])
@pytest.mark.parametrize("l", [1.0, 0.5])
@pytest.mark.parametrize("window", [16, 37, 64, 128])
def test_array_evaluations_equal_the_per_point_ones(m, l, window):
    sig = smooth_signal(m, window, n_samples=2 * window + 120, l=l)
    ts = mixed_times(sig)
    assert any(float(t / l).is_integer() for t in ts) and not all(float(t / l).is_integer() for t in ts)
    assert np.array_equal(ct.reconstruct(sig, ts), [oracles.reconstruct_point(sig, t) for t in ts.tolist()])
    assert np.array_equal(
        ct.sinh_residual(sig, MODELS[m], ts), [oracles.sinh_residual_point(sig, MODELS[m], t) for t in ts.tolist()]
    )
    for convention in ("pairwise", "cosh"):
        results, spread = ct.q1_constancy(sig, ts, convention)
        want = [oracles.q1_point(sig, t, convention) for t in ts.tolist()]
        assert results == want
        assert spread == max(r.value for r in want) - min(r.value for r in want)


def test_scalar_times_keep_scalar_results():
    sig = smooth_signal(3, window=16)
    assert type(ct.sinh_residual(sig, MODELS[3], 100.3)) is float
    assert ct.sinh_residual(sig, MODELS[3], 100.3) == oracles.sinh_residual_point(sig, MODELS[3], 100.3)
    assert np.array_equal(ct.reconstruct(sig, 100.0), oracles.reconstruct_point(sig, 100.0))
    assert ct.q1_constancy(sig, [100.3], "cosh")[0] == [oracles.q1_point(sig, 100.3, "cosh")]


def test_one_sinc_call_and_one_product_per_batch(monkeypatch):
    """Small batches, two window lengths: the count of np.sinc calls is the
    count of batches, and the values do not move."""
    sig = smooth_signal(2, window=16)
    ts = np.array([50.0, 50.5, 60.0, 61.25, 70.5, 80.75, 90.0])  # 3 on the grid, 4 off it
    want = [oracles.sinh_residual_point(sig, MODELS[2], t) for t in ts.tolist()]
    monkeypatch.setattr(ct, "_BATCH_ENTRIES", 2 * 33 * (2 + 3))  # two points a batch
    sinc = np.sinc
    calls = []
    monkeypatch.setattr(np, "sinc", lambda x: calls.append(x.shape) or sinc(x))
    assert np.array_equal(ct.sinh_residual(sig, MODELS[2], ts), want)
    assert sorted(calls) == sorted([(2, 3, 33), (1, 3, 33), (2, 3, 32), (2, 3, 32)])


def test_first_time_out_of_range_is_named():
    sig = smooth_signal(2, window=16, n_samples=100)
    with pytest.raises(SignalRangeError, match=r"t/l = 90.5 outside the reconstructible range \[17, 82\]"):
        ct.sinh_residual(sig, MODELS[2], np.array([40.0, 90.5, 95.0]))
    with pytest.raises(SignalRangeError, match=r"t/l = nan outside"):
        ct.reconstruct(sig, [40.0, math.nan])


def random_hermitian(m, seed):
    """A dense Hermitian matrix with inexact entries and spectral radius 1.9."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    X = X + X.conj().T
    return X * (1.9 / np.max(np.abs(np.linalg.eigvalsh(X))))


@pytest.mark.parametrize("model", ["H2", "H3", "Hm8", "dense5"])
@pytest.mark.parametrize("n_steps", [0, 1, 255, 256, 257, 1000])
def test_evolve_float_equals_the_step_loop(model, n_steps):
    H = random_hermitian(5, n_steps) if model == "dense5" else MODELS[{"H2": 2, "H3": 3, "Hm8": 8}[model]]
    rng = np.random.default_rng(n_steps)
    m = ct.as_matrix(H).shape[0]
    psi0, psi1 = random_state(rng, m), random_state(rng, m)
    assert np.array_equal(ct.evolve_float(psi0, psi1, H, n_steps), oracles.evolve_float_steps(psi0, psi1, H, n_steps))


@pytest.mark.parametrize("scale", [1.0, 1e100, 6e200, 1.5e201, 1e300, 1e307])
def test_instability_names_the_step_loop_row(scale):
    """A model with eigenvalues +/-3 grows about 2.6-fold a step: the
    starting scale moves the first non-finite row (739, 499, 258, 257, 21,
    4), to either side of the boundary between the first two checked blocks."""
    growing = [[0, 3], [3, 0]]
    psi0, psi1 = [scale, 0], [0, scale]
    with pytest.raises(InstabilityError) as want:
        oracles.evolve_float_steps(psi0, psi1, growing, 2000)
    with pytest.raises(InstabilityError) as got:
        ct.evolve_float(psi0, psi1, growing, 2000)
    assert got.value.step == want.value.step
