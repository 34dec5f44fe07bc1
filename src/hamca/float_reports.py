"""The four `hamca continuum` reports, from option values `hamca.cli` has
checked; no exact command compiles this module.  Each report returns its CSV
header and rows, the lines it prints and its verdict.  numpy is read as
`ct.np`, which the continuum layer binds on first use.
"""

from __future__ import annotations

from . import continuum as ct
from .errors import SingularSpectrumError
from .serialization import format_float


def _converged(values: list[float]) -> bool:
    """Each value is below the one before it, or is an exact 0: that has converged."""
    return all(a > b or b == 0 for a, b in zip(values, values[1:]))


def _random_state(rng: ct.np.random.Generator, dim: int) -> ct.np.ndarray:
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def _smooth_trajectory(H, seed: int, steps: int) -> ct.np.ndarray:
    """Float trajectory from a seeded random state and its smooth-branch partner."""
    psi0 = _random_state(ct.np.random.default_rng(seed), len(H))
    try:
        psi1 = ct.smooth_partner(H, psi0)
    except SingularSpectrumError:
        psi1 = psi0  # band-edge model: fall back to the repeated-state start
    return ct.evolve_float(psi0, psi1, H, steps)


def closedform(H, pairs: int, nmax: int, seed: int, strict_band: bool, tol: float) -> tuple:
    rng = ct.np.random.default_rng(seed)
    solver = ct.ClosedFormSolver(H, degenerate="error" if strict_band else "confluent")
    rows = []
    for pair in range(pairs):
        psi0 = _random_state(rng, len(H))
        psi1 = _random_state(rng, len(H))
        states = ct.evolve_float(psi0, psi1, H, nmax)
        scale = max(float(ct.np.abs(states).max()), 1.0)
        dev = float(ct.np.max(ct.np.abs(solver.states_upto(psi0, psi1, nmax + 1) - states))) / scale
        rows.append((pair, dev))
    worst = max([0.0, *(dev for _, dev in rows)])
    line = f"closedform: worst relative deviation {format_float(worst)} over {pairs} pairs"
    return ["pair", "max_rel_dev"], rows, [line], worst <= tol


def sinh(H, seed: int, steps: int, l: float, points: int, spans: dict[int, tuple[float, float]]) -> tuple:
    """`spans` maps each window to the first and last of its `points` evaluation times."""
    states = _smooth_trajectory(H, seed, steps)
    rows = []
    for W, span in spans.items():
        sig = ct.BandlimitedSignal(states, l=l, window=W)
        res = ct.sinh_residual(sig, H, ct.np.linspace(*span, points) + 0.37 * l)
        rows.append((W, float(ct.np.mean(res)), float(ct.np.max(res))))
    lines = [f"sinh: W={W} mean residual {format_float(mean)} max {format_float(mx)}" for W, mean, mx in rows]
    return ["window", "mean_residual", "max_residual"], rows, lines, _converged([mean for _, mean, _ in rows])


def q1(H, seed: int, steps: int, l: float, points: int, spans: dict[int, tuple[float, float]], convention: str,
       tol: float) -> tuple:
    """`spans` maps the one window to the first and last of the evaluation times."""
    (window, span), = spans.items()
    sig = ct.BandlimitedSignal(_smooth_trajectory(H, seed, steps), l=l, window=window)
    ts = [float(t) for t in ct.np.linspace(*span, points)]
    results, spread = ct.q1_constancy(sig, ts, convention)
    rows = [(t, r.value, r.expansion, r.remainder) for t, r in zip(ts, results)]
    scale = max(abs(r.value) for r in results) + 1e-30
    line = f"q1: value {format_float(results[0].value)} spread {format_float(spread)}"
    return ["t", "value", "expansion", "remainder"], rows, [line], spread <= tol * scale


def born(H, l_values: list[float], horizon: float, psi: list[complex] | None, seed: int,
         psi1: list[complex] | None) -> tuple:
    """`psi` is the first state, or None for a random one drawn with `seed`."""
    psi0 = psi if psi is not None else _random_state(ct.np.random.default_rng(seed), len(H))
    report = ct.born_convergence(H, psi0, l_values, horizon=horizon, psi1=psi1)
    rows = [(e.l, e.steps, e.link_total, e.max_error) for e in report.entries]
    lines = [f"born: l={format_float(e.l)} max|w-p|={format_float(e.max_error)}" for e in report.entries]
    return ["l", "steps", "link_total", "max_error"], rows, lines, _converged(report.errors)
