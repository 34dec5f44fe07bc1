import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hamca.continuum as ct
from hamca.dynamics import evolve, stream_states
from hamca.errors import (
    DimensionMismatch,
    InstabilityError,
    OntologicalRegimeError,
    SignalRangeError,
    SingularSpectrumError,
)
from hamca.gaussian import GaussMatrix, GaussVector
from hamca.conservation import link_counts, q1
from hamca.models import HamiltonianSpec, basis_state, build_hamiltonian, make_cyclic_model
from oracles import gauss_matrix

H2 = build_hamiltonian(make_cyclic_model(2))
H3 = build_hamiltonian(make_cyclic_model(3))
E = GaussVector.of


def random_state(rng, m):
    return rng.normal(size=m) + 1j * rng.normal(size=m)


class TestSpectralDecompose:
    def test_two_state_eigenvalues(self):
        sf = ct.spectral_decompose(H2)
        assert np.allclose(sf.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        sf = ct.spectral_decompose(gauss_matrix([[0] * 3] * 3))
        assert np.allclose(sf.eigenvalues, 0.0)
        assert np.allclose(sf.eigenvectors, np.eye(3))

    def test_three_state_trace_zero(self):
        sf = ct.spectral_decompose(H3)
        assert abs(sf.eigenvalues.sum()) <= 1e-12
        # the band-edge eigenvalue of this model
        assert abs(sf.eigenvalues[0] + 2.0) <= 1e-12

    def test_unitarity_and_residual(self):
        for m in (2, 3, 4, 6):
            sf = ct.spectral_decompose(build_hamiltonian(make_cyclic_model(m)))
            V = sf.eigenvectors
            assert np.max(np.abs(V.conj().T @ V - np.eye(m))) <= 1e-12
            assert sf.residual <= 1e-11

    def test_deterministic_across_calls(self):
        a = ct.spectral_decompose(H3)
        b = ct.spectral_decompose(H3)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ct.SpectralFailure):
            ct.spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_empty_matrix(self):
        with pytest.raises(DimensionMismatch, match=r"^expected a non-empty square matrix, got shape \(0, 0\)$"):
            ct.spectral_decompose(np.zeros((0, 0)))


class TestInputBoundary:
    """as_state and as_matrix share one conversion with one set of checks:
    every entry must fit a float and be finite, whatever the input type."""

    NAN = [[float("nan"), 0], [0, 1]]

    @pytest.mark.parametrize("call", [
        ct.as_matrix,
        ct.spectral_decompose,
        ct.ClosedFormSolver,
        lambda H: ct.evolve_float([1, 0], [0, 1], H, 3),
        lambda H: ct.smooth_partner(H, [1, 0]),
    ], ids=["as_matrix", "spectral_decompose", "ClosedFormSolver", "evolve_float", "smooth_partner"])
    def test_non_finite_matrix_rejected(self, call):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            call(self.NAN)

    @pytest.mark.parametrize("value, convert, what", [
        (gauss_matrix([[10**400, 1], [1, 0]]), ct.as_matrix, "matrix"),
        ([[0, 1], [1, -(10**400)]], ct.as_matrix, "matrix"),
        (E(1, (0, 10**400)), ct.as_state, "state"),
        ([10**400, 0], ct.as_state, "state"),
    ], ids=["GaussMatrix", "int-rows", "GaussVector", "int-list"])
    def test_entry_past_the_float_range_rejected(self, value, convert, what):
        with pytest.raises(ValueError, match=f"^{what} has entries too large for a float$"):
            convert(value)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**1020), 2**1020), min_size=8, max_size=8))
    def test_exact_inputs_convert_entry_by_entry(self, parts):
        # the same complex128 bits as complex() of each GaussInt entry
        psi = GaussVector(tuple(parts[:4]), tuple(parts[4:]))
        M = GaussMatrix((tuple(parts[:2]), tuple(parts[2:4])), (tuple(parts[4:6]), tuple(parts[6:])))
        expect_psi = np.array([complex(c) for c in psi], dtype=np.complex128)
        expect_M = np.array([[complex(v) for v in row] for row in M.rows], dtype=np.complex128)
        assert ct.as_state(psi).tobytes() == expect_psi.tobytes()
        assert ct.as_matrix(M).tobytes() == expect_M.tobytes()


class TestEvolveFloat:
    def test_mirrors_exact_two_state_sequence(self):
        exact = evolve(E(1, 0), E(0, 1), H2, 6)
        states = ct.evolve_float([1, 0], [0, 1], H2, 6)
        for n, psi in enumerate(exact):
            assert np.max(np.abs(states[n] - ct.as_state(psi))) <= 1e-12

    def test_zero_hamiltonian_alternates(self):
        states = ct.evolve_float([1, 2], [3, 4], gauss_matrix([[0, 0], [0, 0]]), 5)
        assert np.allclose(states[::2], states[0])
        assert np.allclose(states[1::2], states[1])

    def test_agrees_with_exact_layer_within_accumulation(self):
        n = 200
        exact = evolve(E((1, 1), 2, (0, -1)), E(0, (2, 1), 1), H3, n)
        states = ct.evolve_float(ct.as_state(exact[0]), ct.as_state(exact[1]), H3, n)
        scale = float(np.abs(states).max())
        for k in (50, 100, n + 1):
            dev = np.max(np.abs(states[k] - ct.as_state(exact[k]))) / scale
            assert dev <= k * 1e-13

    def test_instability_reports_first_bad_step(self):
        blow = gauss_matrix([[0, 10**3], [10**3, 0]])
        with pytest.raises(InstabilityError) as err:
            ct.evolve_float([1, 0], [0, 1], blow, 200)
        assert err.value.step > 2

    @pytest.mark.parametrize("m", [8, 16, 30])
    def test_equals_the_exact_stream_on_gaussian_integer_pairs(self, m):
        """The exact layer checks the float stepper: from a Gaussian-integer
        pair on Hm:m the parts stay a few dozen at most, so every float sum
        and product is exact and the two streams agree bit for bit."""
        rng = np.random.default_rng(m)
        H = build_hamiltonian(make_cyclic_model(m))
        psi0, psi1 = (GaussVector(*map(tuple, rng.integers(-3, 4, (2, m)).tolist())) for _ in range(2))
        states = list(stream_states(psi0, psi1, H, 4000))
        assert max(max(map(abs, psi.re + psi.im)) for psi in states) <= 64
        exact = np.array([np.array(psi.re) + 1j * np.array(psi.im) for psi in states])
        assert np.array_equal(ct.evolve_float(ct.as_state(psi0), ct.as_state(psi1), H, 4000), exact)


def test_exact_growth_is_log2_of_the_largest_root():
    """A generic exact orbit gains log2 rho_max bits a step, where
    rho(lam) = (|lam| + sqrt(lam^2 - 4)) / 2 for |lam| > 2: tridiag(1, 2, 1),
    m = 8, from (e_1, e_2), measured from the largest part's bit length."""
    m = 8
    S = [[2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(m)] for i in range(m)]
    H = build_hamiltonian(HamiltonianSpec(dim=m, S=S, A=[[0] * m] * m, label="tridiag121"))
    bits = [max(abs(v).bit_length() for v in psi.re + psi.im)
            for psi in stream_states(basis_state(m, 1), basis_state(m, 2), H, 1500)]
    lam = np.abs(np.linalg.eigvalsh(np.array(S, dtype=float)))
    rho_max = max((lam + np.sqrt(np.maximum(lam**2 - 4, 0))) / 2)
    assert (bits[1500] - bits[500]) / 1000 == pytest.approx(np.log2(rho_max), abs=0.01)


class TestClosedForm:
    def test_n0_and_n1_are_identities(self):
        rng = np.random.default_rng(3)
        psi0, psi1 = random_state(rng, 3), random_state(rng, 3)
        assert np.allclose(ct.ClosedFormSolver(H3).state_at(psi0, psi1, 0), psi0, atol=1e-12)
        assert np.allclose(ct.ClosedFormSolver(H3).state_at(psi0, psi1, 1), psi1, atol=1e-12)

    def test_two_state_sixth_step(self):
        out = ct.ClosedFormSolver(H2).state_at([1, 0], [0, 1], 6)
        assert np.allclose(out, [-1.0, 0.0], atol=1e-10)

    def test_matches_iteration_on_band_edge_model(self):
        # the three-state model has an eigenvalue at -2 where the naive
        # closed form is 0/0; the confluent branch must still match
        rng = np.random.default_rng(11)
        psi0, psi1 = random_state(rng, 3), random_state(rng, 3)
        states = ct.evolve_float(psi0, psi1, H3, 100)
        solver = ct.ClosedFormSolver(H3)
        scale = float(np.abs(states).max())
        for n in (2, 17, 37, 100):
            dev = np.max(np.abs(solver.state_at(psi0, psi1, n) - states[n])) / scale
            assert dev <= 1e-8

    def test_near_band_edge_is_not_taken_as_degenerate(self):
        # lambda = 2 - 1e-11 has two distinct roots; treating it as the
        # confluent case (a cutoff near 1e-9) drifts by 2.7e-7 over 400 steps
        H = np.array([[2 - 1e-11]])
        closed = ct.ClosedFormSolver(H).states_upto([1.0], [0.0], 400)
        stepped = ct.evolve_float([1.0], [0.0], H, 399)
        assert np.max(np.abs(closed - stepped)) / np.max(np.abs(stepped)) < 1e-9

    def test_strict_mode_rejects_band_edge(self):
        with pytest.raises(SingularSpectrumError):
            ct.ClosedFormSolver(H3, degenerate="error")
        # fine for a model with spectrum strictly inside the band
        ct.ClosedFormSolver(H2, degenerate="error")

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            ct.ClosedFormSolver(H2).state_at([1, 0], [0, 1], -1)


class TestSmoothPartner:
    def test_eigenvector_gets_pure_phase(self):
        sf = ct.spectral_decompose(H2)
        v = sf.eigenvectors[:, 1]
        partner = ct.smooth_partner(H2, v)
        phi = np.arcsin(sf.eigenvalues[1] / 2)
        assert np.allclose(partner, np.exp(-1j * phi) * v, atol=1e-12)

    def test_partner_starts_a_valid_trajectory(self):
        rng = np.random.default_rng(5)
        psi0 = random_state(rng, 2)
        psi1 = ct.smooth_partner(H2, psi0)
        states = ct.evolve_float(psi0, psi1, H2, 50)
        # the smooth branch stays bounded by its initial size
        assert np.abs(states).max() <= 2.0 * np.abs(psi0).max() + 1.0


def make_signal(rng, H, m, n_samples=400, window=32, smooth=True):
    psi0 = random_state(rng, m)
    psi1 = ct.smooth_partner(H, psi0) if smooth else random_state(rng, m)
    states = ct.evolve_float(psi0, psi1, H, n_samples - 2)
    return ct.BandlimitedSignal(states, l=1.0, window=window)


class TestReconstruct:
    def test_interpolatory_at_samples(self):
        sig = make_signal(np.random.default_rng(0), H3, 3)
        for n in (40, 123, 360):
            out = ct.reconstruct(sig, float(n))
            assert np.max(np.abs(out - sig.samples[n])) <= 1e-15 * (1 + np.abs(sig.samples[n]).max())

    def test_constant_signal_interior(self):
        v = np.array([1.0 + 2.0j, 0.5])
        sig = ct.BandlimitedSignal(np.tile(v, (200, 1)), l=0.5, window=16)
        t = 100 * 0.5 + 0.21
        out = ct.reconstruct(sig, t)
        assert np.max(np.abs(out - v)) <= ct.tail_bound(sig, t) + 1e-12

    def test_pure_exponential_half_grid(self):
        l = 1.0
        omega = 0.3 * np.pi
        n = np.arange(600)
        samples = np.exp(-1j * omega * n * l)[:, None]
        sig = ct.BandlimitedSignal(samples, l=l, window=48)
        t = 300.5 * l
        out = ct.reconstruct(sig, t)[0]
        assert abs(out - np.exp(-1j * omega * t)) <= ct.tail_bound(sig, t) + 1e-12

    def test_range_errors(self):
        sig = make_signal(np.random.default_rng(1), H2, 2, n_samples=100, window=16)
        with pytest.raises(SignalRangeError):
            ct.reconstruct(sig, 10.0)
        with pytest.raises(SignalRangeError):
            ct.reconstruct(sig, 95.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ct.BandlimitedSignal(np.zeros((10, 2), dtype=complex), l=1.0, window=4)

    def test_equality_and_hash_by_identity(self):
        # it wraps a mutable array, so two signals on equal samples are two objects
        a, b = (ct.BandlimitedSignal(np.ones((10, 2)), l=1.0, window=8) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestSinhResidual:
    def test_zero_at_sample_points(self):
        sig = make_signal(np.random.default_rng(2), H3, 3)
        scale = float(np.abs(sig.samples).max())
        for n in (60, 200, 333):
            assert ct.sinh_residual(sig, H3, float(n)) <= 1e-10 * max(scale, 1.0)

    def test_zero_hamiltonian_constant_signal(self):
        v = np.array([1.0, -2.0j])
        sig = ct.BandlimitedSignal(np.tile(v, (100, 1)), l=1.0, window=16)
        assert ct.sinh_residual(sig, gauss_matrix([[0, 0], [0, 0]]), 50.0) <= 1e-12

    def test_off_grid_decreases_with_window_on_average(self):
        rng = np.random.default_rng(4)
        psi0 = random_state(rng, 3)
        psi1 = ct.smooth_partner(H3, psi0)
        states = ct.evolve_float(psi0, psi1, H3, 400)
        ts = np.linspace(150.3, 250.7, 20)
        means = []
        for W in (16, 32, 64):
            sig = ct.BandlimitedSignal(states, l=1.0, window=W)
            means.append(np.mean([ct.sinh_residual(sig, H3, float(t)) for t in ts]))
        assert means[0] > means[1] > means[2]

    def test_bounded_by_boundary_estimate(self):
        sig = make_signal(np.random.default_rng(6), H3, 3, smooth=False)
        for t in (77.3, 150.5, 290.9):
            assert ct.sinh_residual(sig, H3, t) <= ct.sinh_residual_bound(sig, H3, t)


class TestQ1Continuum:
    def test_constant_signal_value(self):
        v = np.array([1.0 + 2.0j, 0.5])
        expect = 2.0 * float(np.vdot(v, v).real)  # 10.5
        sig = ct.BandlimitedSignal(np.tile(v, (200, 1)), l=1.0, window=16)
        for t in (60.0, 90.0, 130.0):
            (res,), _ = ct.q1_constancy(sig, [t])
            assert abs(res.value - expect) <= 1e-9
        (res_cosh,), _ = ct.q1_constancy(sig, [80.0], convention="cosh")
        assert abs(res_cosh.value - expect / 2) <= 1e-9

    def test_sample_point_matches_exact_layer(self):
        traj = evolve(E((1, 1), 2, (0, -1)), E(0, (2, 1), 1), H3, 120)
        sig = ct.BandlimitedSignal([ct.as_state(s) for s in traj], l=1.0, window=24)
        for n in (40, 60, 83):
            (res,), _ = ct.q1_constancy(sig, [float(n)])
            exact = q1(traj[n], traj[n + 1]) / 2 + q1(traj[n - 1], traj[n]) / 2
            assert abs(res.value - exact) <= 1e-9 * max(1.0, abs(exact))
            # conserved, so the two half-contributions agree
            assert exact == q1(traj[n], traj[n + 1])

    def test_constancy_scan(self):
        sig = make_signal(np.random.default_rng(8), H2, 2)
        ts = [float(t) for t in np.linspace(100, 250, 7)]
        results, spread = ct.q1_constancy(sig, ts)
        scale = max(abs(r.value) for r in results)
        assert spread <= 1e-2 * max(scale, 1.0)

    @pytest.mark.parametrize("l", [1e300, 1e-200])
    def test_scale_outside_the_float_range_rejected(self, l):
        # (2l)**2 overflows above the range and is 0 below it
        sig = ct.BandlimitedSignal(np.ones((100, 2), dtype=complex), l=l, window=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^l must be between .* for q1, .* got {re.escape(str(l))}$"):
                ct.q1_constancy(sig, [50 * l])

    def test_expansion_remainder_shrinks_sixteen_fold(self):
        # fixed underlying wave sampled at l, l/2, l/4: the two-term
        # small-l estimate must converge at fourth order
        rng = np.random.default_rng(9)
        sf = ct.spectral_decompose(H3)
        c0 = sf.eigenvectors.conj().T @ random_state(rng, 3)

        def sample(l, count):
            t = np.arange(count) * l
            return (sf.eigenvectors @ (np.exp(-1j * np.outer(sf.eigenvalues, t)) * c0[:, None])).T

        t_eval = 60.0
        rems = []
        for l in (0.25, 0.125, 0.0625):
            count = int(t_eval / l) + 200
            sig = ct.BandlimitedSignal(sample(l, count), l=l, window=16)
            (res,), _ = ct.q1_constancy(sig, [t_eval])
            rems.append(abs(res.remainder))
        assert 10.0 <= rems[0] / rems[1] <= 24.0
        assert 10.0 <= rems[1] / rems[2] <= 24.0


class TestBornConvergence:
    def test_two_state_order_two(self):
        report = ct.born_convergence(H2, [0.8, 0.6], [0.2, 0.1, 0.05])
        errs = report.errors
        assert errs[0] > errs[1] > errs[2]
        for r in report.ratios:
            assert 2.5 <= r <= 6.0

    def test_exact_zero_errors_have_infinite_ratios(self):
        # [1, 1] is an eigenvector of H2: every error is exactly 0, which has converged
        report = ct.born_convergence(H2, [1, 1], [0.2, 0.1, 0.05])
        assert report.errors == [0.0, 0.0, 0.0]
        assert report.ratios == [float("inf"), float("inf")]

    def test_eigenvector_exact_at_every_scale(self):
        sf = ct.spectral_decompose(H2)
        report = ct.born_convergence(H2, sf.eigenvectors[:, 0], [0.2, 0.1, 0.05])
        assert all(e.max_error <= 1e-10 for e in report.entries)

    def test_ontological_pair_rejected(self):
        with pytest.raises(OntologicalRegimeError):
            ct.born_convergence(H2, [1, 0], [0.2, 0.1], psi1=[0, 1])

    def test_scale_too_large_rejected(self):
        with pytest.raises(ValueError):
            ct.born_convergence(H2, [0.8, 0.6], [1.5])

    def test_l_values_must_descend(self):
        with pytest.raises(ValueError):
            ct.born_convergence(H2, [0.8, 0.6], [0.05, 0.1])

    @pytest.mark.parametrize("horizon, ls", [(1e300, [1e-10]), (1e308, [0.2, 1e-300])])
    def test_step_count_past_the_float_range_rejected(self, horizon, ls):
        # horizon / l overflows to inf, which has no int step count
        with pytest.raises(ValueError) as err:
            ct.born_convergence(H2, [0.8, 0.6], ls, horizon=horizon)
        assert str(err.value) == f"horizon / l must be finite, got horizon = {horizon} and l = {ls[-1]}"

    def test_link_total_is_the_exact_link_count(self):
        # psi0 is normalised before the float stepper runs, so its first link
        # total is the exact link count of the integer pair over |psi0|
        psi0, psi1 = E((3, 1), -2, (0, 1)), E(2, (2, -1), (2, 1))
        report = ct.born_convergence(H3, psi0, [0.1], horizon=1.0, psi1=psi1)
        assert link_counts(psi0, psi1).total == 3
        assert report.entries[0].link_total * np.linalg.norm(ct.as_state(psi0)) == pytest.approx(3, rel=1e-12)

    def test_three_state_model_converges_too(self):
        psi = np.array([0.5, 0.5j, np.sqrt(0.5)])
        report = ct.born_convergence(H3, psi, [0.2, 0.1, 0.05])
        for r in report.ratios:
            assert 2.5 <= r <= 6.0


class TestClosedFormOneFormula:
    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_state_at_is_a_row_of_states_upto(self, m):
        # m = 3 has the band-edge eigenvalue -2 (confluent branch)
        H = build_hamiltonian(make_cyclic_model(m))
        rng = np.random.default_rng(5)
        psi0, psi1 = random_state(rng, m), random_state(rng, m)
        solver = ct.ClosedFormSolver(H)
        table = solver.states_upto(psi0, psi1, 150)
        for n in (0, 1, 2, 37, 99, 100, 150):
            assert np.max(np.abs(solver.state_at(psi0, psi1, n) - table[n])) <= 1e-12
