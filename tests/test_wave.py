"""Wave propagation: fine solver, effective propagators, dressing, sources."""

import tracemalloc

import numpy as np
import pytest

from homwave import bloch, correctors, dispersion, oracle1d, torus, wave
from homwave.bloch import solve_fine_wave_exact
from homwave.torus import ConfigurationError
from homwave.wave import (
    BoxCorrectors,
    BoxGrid,
    ErrorBudget,
    boussinesq_decomposition,
    boussinesq_frequency,
    box_coordinates,
    box_l2,
    choose_gamma,
    coefficient_on_box,
    dress_with_correctors,
    error_report,
    filtered_data,
    homogenized_wave_field,
    sample_cell_on_box,
    solve_boussinesq_wave,
    solve_fine_wave,
    solve_homogenized_wave,
    source_term_field,
    spectral_wave_state,
    symbol_coercivity_margin,
    taylor_bloch_ansatz,
    well_prepared_data,
    wrap_guard,
)

from conftest import LAMINATE


LAM_PROFILE = oracle1d.Profile1D(breakpoints=[0, 0.5, 1], values=[1.0, 4.0])


def laminate_model(ell):
    oh = oracle1d.correctors_1d(LAM_PROFILE, max(ell, 2))
    return oh, dispersion.DispersionModel.from_oracle(oh, ell)


def identity_model(ell=2):
    model = dispersion.DispersionModel(
        dim=1, ell=ell, polys=[np.array([1.0])] + [np.array([0.0])] * (ell - 1),
        directions=np.array([[1.0]]), Gamma_bar=1.0)
    model.kmax = dispersion.compute_kmax(model, 1.0)
    return model


class TestBoxGrid:
    def test_epsilon_compatibility(self):
        box = BoxGrid(1, 1024, 16.0)
        box.validate_epsilon(0.25)
        with pytest.raises(ConfigurationError):
            box.validate_epsilon(0.3)
        with pytest.raises(ConfigurationError):
            box.validate_epsilon(1.0 / 128)  # too few points per period

    def test_coefficient_on_box_laminate_exact(self):
        box = BoxGrid(1, 512, 8.0)
        a_box = coefficient_on_box(LAMINATE, box, 0.5)
        x = box_coordinates(box)[0]
        expect = np.where(np.mod(x / 0.5, 1.0) < 0.5, 1.0, 4.0)
        assert np.array_equal(a_box[0, 0], expect)


class TestFineSolver:
    def test_single_mode_free_wave(self):
        box = BoxGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        u0 = np.sin(2 * np.pi * x / 8.0)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box, u0, times=[1.3])
        k = 2 * np.pi / 8.0
        assert np.max(np.abs(traj.u[0] - np.cos(k * 1.3) * u0)) < 1e-4

    def test_zero_data_stays_zero(self):
        box = BoxGrid(1, 64, 4.0)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box,
                               np.zeros(box.shape), times=[1.0])
        assert np.all(traj.u[0] == 0.0)

    def test_second_order_refinement(self):
        k = 2 * np.pi / 8.0
        errs = []
        for n in (256, 512):
            box = BoxGrid(1, n, 8.0)
            x = box_coordinates(box)[0]
            u0 = np.sin(k * x)
            traj = solve_fine_wave(np.ones((1, 1) + box.shape), box, u0,
                                   times=[1.3])
            errs.append(np.max(np.abs(traj.u[0] - np.cos(k * 1.3) * u0)))
        assert 3.0 < errs[0] / errs[1] < 5.5

    def test_energy_invariant_conserved(self):
        box = BoxGrid(1, 512, 16.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        a_box = coefficient_on_box(LAMINATE, box, 0.5)
        traj = solve_fine_wave(a_box, box, u0, times=[1.0, 2.0, 3.0])
        assert traj.energy_drift() < 1e-6

    def test_l2_energy_estimate(self):
        # source-free runs never exceed the initial mass
        box = BoxGrid(1, 512, 16.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        a_box = coefficient_on_box(LAMINATE, box, 0.5)
        traj = solve_fine_wave(a_box, box, u0, times=np.linspace(0.5, 6.0, 12))
        norm0 = box_l2(box, u0)
        for i in range(traj.times.size):
            assert box_l2(box, traj.u[i]) <= norm0 * (1 + 1e-6)

    def test_snapshots_held_once(self):
        # snapshots are written into preallocated arrays, so the peak
        # allocation is one copy of them plus a few work fields
        box = BoxGrid(1, 2048, 16.0)
        x = box_coordinates(box)[0]
        a_box = coefficient_on_box(LAMINATE, box, 0.25)
        tracemalloc.start()
        try:
            traj = solve_fine_wave(a_box, box, np.exp(-((x - 8.0) ** 2)),
                                   times=np.linspace(0.05, 1.65, 33))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (traj.u.nbytes + traj.v.nbytes)

    def test_2d_smooth_medium_runs(self):
        box = BoxGrid(2, 32, 1.0)
        a_box = coefficient_on_box(
            {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0},
            box, 0.5)
        x = box_coordinates(box)
        u0 = np.sin(2 * np.pi * x[0]) * np.sin(2 * np.pi * x[1])
        traj = solve_fine_wave(a_box, box, u0, times=[0.4])
        assert np.all(np.isfinite(traj.u))
        assert traj.energy_drift() < 1e-6


class TestExactFineSolver:
    """The Bloch-block solver against the operator, a dense
    eigendecomposition and leapfrog."""

    @staticmethod
    def laminate_run(n, side, eps):
        box = BoxGrid(1, n, side)
        x = box_coordinates(box)[0]
        u0 = np.exp(-2.0 * (x - 0.5 * side) ** 2)
        v0 = np.sin(2 * np.pi * x / side) * np.exp(-(x - 0.3 * side) ** 2)
        return box, coefficient_on_box(LAMINATE, box, eps), u0, v0

    def test_blocks_reproduce_operator(self, rng):
        box, a_box, _, _ = self.laminate_run(1024, 8.0, 1 / 8)
        p = box.points_per_period(1 / 8)
        cells = box.n // p
        faces = wave._face_harmonic(a_box[0, 0], 0)[:p]
        blocks = bloch.bloch_blocks(faces, box.h,
                                   2 * np.pi * np.arange(cells) / cells)
        u = rng.standard_normal(box.n)
        u_hat = np.fft.fft(u.reshape(cells, p), axis=0)
        lu = -np.fft.ifft(np.einsum("kij,kj->ki", blocks, u_hat), axis=0)
        ref = wave.FluxFormOperator(box, a_box).apply(u)
        assert np.max(np.abs(lu.reshape(-1) - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.allclose(blocks, np.conj(np.swapaxes(blocks, 1, 2)),
                           rtol=0.0, atol=0.0)

    def test_matches_dense_eigendecomposition(self):
        box, a_box, u0, v0 = self.laminate_run(1024, 8.0, 1 / 8)
        op = wave.FluxFormOperator(box, a_box)
        dense = -np.stack([op.apply(e) for e in np.eye(box.n)], axis=1)
        lam, vecs = np.linalg.eigh(0.5 * (dense + dense.T))
        omega = np.sqrt(np.maximum(lam, 0.0))
        safe = np.where(omega > 0, omega, 1.0)
        a0, b0 = vecs.T @ u0, vecs.T @ v0
        times = [0.5, 3.0, 8.0]
        traj = solve_fine_wave_exact(a_box, box, u0, times, 1 / 8, v0=v0)
        for i, t in enumerate(times):
            sinc = np.where(omega > 0, np.sin(omega * t) / safe, t)
            u_ref = vecs @ (a0 * np.cos(omega * t) + b0 * sinc)
            v_ref = vecs @ (b0 * np.cos(omega * t) - a0 * omega * np.sin(omega * t))
            assert box_l2(box, traj.u[i] - u_ref) < 1e-9
            assert box_l2(box, traj.v[i] - v_ref) < 1e-9
        assert traj.energy_drift() < 1e-10
        assert traj.meta["blocks"] == 33 and traj.meta["block_size"] == 16

    def test_leapfrog_converges_at_second_order(self):
        box, a_box, u0, v0 = self.laminate_run(128, 4.0, 1 / 2)
        exact = solve_fine_wave_exact(a_box, box, u0, [1.0], 1 / 2, v0=v0)
        gaps_u, gaps_v = [], []
        for cfl in (0.1, 0.05, 0.025, 0.0125):
            traj = solve_fine_wave(a_box, box, u0, v0=v0, times=[1.0], cfl=cfl)
            gaps_u.append(box_l2(box, traj.u[0] - exact.u[0]))
            gaps_v.append(box_l2(box, traj.v[0] - exact.v[0]))
        for gaps in (gaps_u, gaps_v):
            rates = np.log2(np.asarray(gaps[:-1]) / np.asarray(gaps[1:]))
            assert np.all(np.abs(rates - 2.0) < 0.1), rates

    def test_roundoff_periodic_medium_accepted(self):
        # 16384 cells: the sampled cells differ by about 2e-12 (relative)
        box = BoxGrid(1, 262144, 512.0)
        a_box = coefficient_on_box(
            {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0},
            box, 1 / 32)
        traj = solve_fine_wave_exact(a_box, box, np.zeros(box.shape), [1.0],
                                     1 / 32)
        assert traj.meta["blocks"] == 8193

    def test_rejects_nonperiodic_and_2d(self):
        box, a_box, u0, _ = self.laminate_run(512, 8.0, 1 / 4)
        bumped = a_box.copy()
        bumped[0, 0, 100] += 0.5
        with pytest.raises(ConfigurationError):
            solve_fine_wave_exact(bumped, box, u0, [1.0], 1 / 4)
        box2 = BoxGrid(2, 32, 1.0)
        a2 = coefficient_on_box(LAMINATE, box2, 0.5)
        with pytest.raises(ConfigurationError):
            solve_fine_wave_exact(a2, box2, np.zeros(box2.shape), [1.0], 0.5)


class TestResampling:
    def test_fold_matches_pointwise(self):
        grid = torus.TorusGrid(1, 64)
        x = grid.coordinate_axes()[0].ravel()
        vals = np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x)
        box = BoxGrid(1, 128, 8.0)  # 16 points per period < 64 cell points
        out = sample_cell_on_box(grid, vals, box, 0.5)
        y = np.mod(box_coordinates(box)[0] / 0.5, 1.0)
        ref = np.sin(2 * np.pi * y) + 0.2 * np.cos(6 * np.pi * y)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_prolong_branch(self):
        grid = torus.TorusGrid(1, 8)
        x = grid.coordinate_axes()[0].ravel()
        vals = np.cos(2 * np.pi * x)
        box = BoxGrid(1, 64, 2.0)  # 32 points per period > 8 cell points
        out = sample_cell_on_box(grid, vals, box, 0.5)
        y = np.mod(box_coordinates(box)[0] / 0.5, 1.0)
        assert np.max(np.abs(out - np.cos(2 * np.pi * y))) < 1e-12


class TestEffectivePropagator:
    def test_t0_returns_filtered_data(self):
        model = identity_model()
        spec = dispersion.make_cutoff(model)
        box = BoxGrid(1, 512, 32.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 16.0) ** 2))
        out = homogenized_wave_field(model, spec, u0, box, 0.25, 0.0)
        assert np.array_equal(out, filtered_data(spec, u0, box, 0.25))

    def test_constant_medium_is_exact_filtered_wave(self):
        model = identity_model()
        spec = dispersion.CutoffSpec(kmax=100.0, ell=2)  # pass-through filter
        box = BoxGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 8.0
        u0 = np.sin(k * x)
        out = homogenized_wave_field(model, spec, u0, box, 0.125, 2.1)
        assert np.max(np.abs(out - np.cos(k * 2.1) * u0)) < 1e-12

    def test_output_real(self):
        _, model = laminate_model(4)
        spec = dispersion.make_cutoff(model)
        box = BoxGrid(1, 1024, 32.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 16.0) ** 2)) * (1 + 0.3 * np.sin(x))
        out = homogenized_wave_field(model, spec, u0, box, 0.25, 3.3)
        assert np.isrealobj(out)

    def test_time_reversibility(self):
        _, model = laminate_model(4)
        spec = dispersion.make_cutoff(model)
        box = BoxGrid(1, 512, 32.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 16.0) ** 2))
        from homwave.wave import filtered_dispersion
        w, om = filtered_dispersion(model, spec, box, 0.25)
        u1, v1 = spectral_wave_state(w, om, u0, box, 5.0)
        u2, _ = spectral_wave_state(np.ones_like(w), om, u1, box, -5.0, v0=v1)
        ref = filtered_data(spec, u0, box, 0.25)
        assert np.max(np.abs(u2 - ref)) < 1e-12

    def test_constant_medium_error_is_fine_solver_error(self):
        # vs. the exact effective propagator, the fine solver's own
        # discretization error is all that remains, shrinking ~4x per halving
        model = identity_model()
        spec = dispersion.CutoffSpec(kmax=100.0, ell=2)
        errs = []
        for n in (256, 512):
            box = BoxGrid(1, n, 8.0)
            x = box_coordinates(box)[0]
            u0 = np.sin(2 * np.pi * x / 8.0)
            traj = solve_fine_wave(np.ones((1, 1) + box.shape), box, u0,
                                   times=[1.3])
            eff = homogenized_wave_field(model, spec, u0, box, 0.25, 1.3)
            errs.append(box_l2(box, traj.u[0] - eff))
        assert 3.0 < errs[0] / errs[1] < 5.5

    def test_odd_even_truncation_identical(self):
        _, m3 = laminate_model(3)
        _, m4 = laminate_model(4)
        spec = dispersion.make_cutoff(m3)
        box = BoxGrid(1, 512, 32.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 16.0) ** 2))
        out3 = homogenized_wave_field(m3, spec, u0, box, 0.25, 2.0)
        out4 = homogenized_wave_field(m4, spec, u0, box, 0.25, 2.0)
        assert np.max(np.abs(out3 - out4)) < 1e-14


@pytest.fixture(scope="module")
def laminate_box_correctors():
    oh, model = laminate_model(2)
    spec = dispersion.make_cutoff(model)
    box = BoxGrid(1, 1024, 16.0)
    bc = BoxCorrectors.from_oracle(oh, box, 0.25)
    return oh, model, spec, box, bc


class TestDressing:
    def test_well_prepared_constant_medium_is_filtered(self):
        grid = torus.TorusGrid(1, 64)
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid)
        tens = correctors.tensorize_correctors(a, 2)
        model = identity_model()
        spec = dispersion.make_cutoff(model)
        box = BoxGrid(1, 512, 16.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        bc = BoxCorrectors.from_tensorized(tens, box, 0.25)
        out = well_prepared_data(bc, spec, u0, box, 0.25)
        assert np.max(np.abs(out - filtered_data(spec, u0, box, 0.25))) < 1e-12

    def test_order_zero_is_filtered(self, laminate_box_correctors):
        _, _, spec, box, bc = laminate_box_correctors
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        out = well_prepared_data(bc, spec, u0, box, 0.25, ell=0)
        assert np.max(np.abs(out - filtered_data(spec, u0, box, 0.25))) < 1e-14

    def test_first_order_matches_manual_assembly(self, laminate_box_correctors):
        oh, _, spec, box, bc = laminate_box_correctors
        eps = 0.25
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        uf = filtered_data(spec, u0, box, eps)
        grad = torus.deriv_values(box.torus(), uf, [0])
        manual = uf + eps * oh.phi[1](np.mod(x / eps, 1.0)) * grad
        out = well_prepared_data(bc, spec, u0, box, eps, ell=1)
        assert np.max(np.abs(out - manual)) < 1e-8

    def test_ansatz_t0_equals_well_prepared(self, laminate_box_correctors):
        _, model, spec, box, bc = laminate_box_correctors
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        a1 = taylor_bloch_ansatz(bc, model, spec, u0, box, 0.25, 0.0)
        a2 = well_prepared_data(bc, spec, u0, box, 0.25)
        assert np.max(np.abs(a1 - a2)) < 1e-10

    def test_ansatz_constant_medium_reduces_to_effective(self):
        grid = torus.TorusGrid(1, 64)
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid)
        tens = correctors.tensorize_correctors(a, 2)
        model = identity_model()
        spec = dispersion.make_cutoff(model)
        box = BoxGrid(1, 512, 16.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        bc = BoxCorrectors.from_tensorized(tens, box, 0.25)
        ans = taylor_bloch_ansatz(bc, model, spec, u0, box, 0.25, 1.5)
        eff = homogenized_wave_field(model, spec, u0, box, 0.25, 1.5)
        assert np.max(np.abs(ans - eff)) < 1e-12

    def test_dressed_gradient_matches_spectral_for_smooth_correctors(self):
        grid = torus.TorusGrid(1, 128)
        a = torus.coefficient_from_spec(
            {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0}, grid)
        tens = correctors.tensorize_correctors(a, 2)
        box = BoxGrid(1, 1024, 8.0)
        bc = BoxCorrectors.from_tensorized(tens, box, 0.25)
        x = box_coordinates(box)[0]
        v = np.sin(2 * np.pi * x / 8.0)
        from homwave.wave import dressed_gradient
        g1 = dressed_gradient(bc, v)
        w = dress_with_correctors(bc, v)
        g2 = torus.gradient_values(box.torus(), w)
        assert np.max(np.abs(g1 - g2)) < 1e-8


class TestRegularization:
    def test_low_orders_need_none(self):
        _, model = laminate_model(2)
        assert choose_gamma(model, 2) == 0.0

    def test_nonnegative_dispersion_needs_none(self):
        model = identity_model(4)
        assert choose_gamma(model, 4) == 0.0

    def test_bisection_value(self):
        model = dispersion.DispersionModel(
            dim=1, ell=4,
            polys=[np.array([1.0]), np.array([0.0]), np.array([1.0]),
                   np.array([0.0])],
            directions=np.array([[1.0]]), Gamma_bar=1.0)
        assert choose_gamma(model, 4) == pytest.approx(2.0, abs=1e-9)

    def test_coercivity_margin_nonnegative(self):
        _, model = laminate_model(4)
        gamma = choose_gamma(model, 4)
        box = BoxGrid(1, 512, 16.0)
        assert symbol_coercivity_margin(model, gamma, 0.25, 4, box) >= 0.0

    def test_regularized_wave_trivia(self):
        model = identity_model()
        box = BoxGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 8.0
        u0 = np.sin(k * x)
        outs = solve_homogenized_wave(model, 0.0, u0, box, 0.25, 2, [0.0, 1.7])
        assert np.max(np.abs(outs[0] - u0)) < 1e-13  # unfiltered initial data
        assert np.max(np.abs(outs[1] - np.cos(k * 1.7) * u0)) < 1e-12

    def test_classical_limit_order_one(self):
        _, model = laminate_model(1)
        box = BoxGrid(1, 512, 16.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 16.0
        u0 = np.sin(k * x)
        out = solve_homogenized_wave(model, 0.0, u0, box, 0.25, 1, [1.1])[0]
        ref = np.cos(np.sqrt(1.6) * k * 1.1) * u0
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_negative_symbol_raises(self):
        model = dispersion.DispersionModel(
            dim=1, ell=4,
            polys=[np.array([1.0]), np.array([0.0]), np.array([1.0]),
                   np.array([0.0])],
            directions=np.array([[1.0]]), Gamma_bar=1.0)
        box = BoxGrid(1, 256, 8.0)
        u0 = np.sin(2 * np.pi * box_coordinates(box)[0] / 8.0)
        with pytest.raises(wave.PositivityError):
            solve_homogenized_wave(model, 0.0, u0, box, 1.0, 4, [1.0])


class TestBoussinesq:
    def test_zero_dispersion_gives_zero_tensors(self):
        model = identity_model(3)
        bt = boussinesq_decomposition(model)
        assert bt.beta == 0.0
        assert np.max(np.abs(bt.c_coeffs)) == 0.0

    def test_laminate_1d_values(self):
        oh, model = laminate_model(3)
        bt = boussinesq_decomposition(model)
        assert bt.beta == pytest.approx(oh.lambdas[2] / oh.lambdas[0], rel=1e-12)
        assert abs(bt.c_coeffs[0]) < 1e-15
        assert bt.identity_residual < 1e-10
        assert bt.c_min_on_directions >= -1e-12

    def test_2d_psd_on_directions(self, smooth2d_a):
        model = correctors.reconstruct_dispersion(smooth2d_a, 3)
        bt = boussinesq_decomposition(model, n_directions=64)
        assert bt.beta >= 0.0
        assert bt.c_min_on_directions >= -1e-12
        assert bt.identity_residual < 1e-10

    def test_dispersion_taylor_match(self):
        oh, model = laminate_model(4)
        bt = boussinesq_decomposition(model)
        lam0, lam2 = oh.lambdas[0], oh.lambdas[2]
        # Omega(k)^2 = (lam0 k^2 + c k^4) / (1 + beta k^2)
        #            = lam0 k^2 + (c - beta lam0) k^4 + O(k^6)
        c = float(bt.c_coeffs[0])
        assert abs(c - bt.beta * lam0 + lam2) < 1e-10

    def test_solver_trivia(self):
        model = identity_model(3)
        bt = boussinesq_decomposition(model)
        box = BoxGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 8.0
        u0 = np.sin(k * x)
        outs = solve_boussinesq_wave(model, bt, u0, box, 0.25, [0.0, 1.2])
        assert np.max(np.abs(outs[0] - u0)) < 1e-13
        assert np.max(np.abs(outs[1] - np.cos(k * 1.2) * u0)) < 1e-12

    def test_frequency_nonnegative(self):
        _, model = laminate_model(4)
        bt = boussinesq_decomposition(model)
        k = np.linspace(0.01, 50.0, 500).reshape(1, -1)
        assert np.min(boussinesq_frequency(model, bt, 0.25, k)) >= 0.0


class TestSourceTerm:
    def test_zero_source_gives_zero(self):
        _, model = laminate_model(2)
        spec = dispersion.make_cutoff(model)
        box = BoxGrid(1, 256, 8.0)
        u, ut = source_term_field(model, spec,
                                  lambda s: np.zeros(box.shape), box, 0.25, 2.0)
        assert np.max(np.abs(u)) == 0.0 and np.max(np.abs(ut)) == 0.0

    def test_single_mode_closed_form(self):
        model = identity_model()
        spec = dispersion.CutoffSpec(kmax=100.0, ell=2)
        box = BoxGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 8.0
        f_field = np.sin(k * x)

        def source(s):
            return f_field if s <= 1.0 else 0.0 * f_field

        t = 2.5
        u, ut = source_term_field(model, spec, source, box, 0.25, t)
        # integral of sin(omega (t-s))/omega over s in [0, 1]
        omega = k
        amp = (np.cos(omega * (t - 1.0)) - np.cos(omega * t)) / omega ** 2
        amp_t = (np.sin(omega * t) - np.sin(omega * (t - 1.0))) / omega
        assert np.max(np.abs(u - amp * f_field)) < 1e-10
        assert np.max(np.abs(ut - amp_t * f_field)) < 1e-10

    def test_dressed_equals_simplified_for_constant_medium(self):
        grid = torus.TorusGrid(1, 64)
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid)
        tens = correctors.tensorize_correctors(a, 2)
        model = identity_model()
        spec = dispersion.make_cutoff(model)
        box = BoxGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        f_field = np.sin(2 * np.pi * x / 8.0)

        def source(s):
            return f_field if s <= 1.0 else 0.0 * f_field

        bc = BoxCorrectors.from_tensorized(tens, box, 0.25)
        u_plain, _ = source_term_field(model, spec, source, box, 0.25, 2.0)
        u_drs, _ = source_term_field(model, spec, source, box, 0.25, 2.0, bc=bc)
        assert np.max(np.abs(u_plain - u_drs)) < 1e-12

    def test_coarse_quadrature_rejected(self):
        _, model = laminate_model(2)
        spec = dispersion.make_cutoff(model)
        box = BoxGrid(1, 256, 8.0)
        with pytest.raises(ConfigurationError):
            source_term_field(model, spec, lambda s: np.zeros(box.shape),
                              box, 0.25, 1.0, n_quad=4)


class TestErrorReport:
    def test_self_comparison_is_zero(self):
        box = BoxGrid(1, 128, 8.0)
        x = box_coordinates(box)[0]
        u0 = np.sin(2 * np.pi * x / 8.0)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box, u0,
                               times=[0.5, 1.0])
        rep = error_report(traj, traj.u.copy(), ErrorBudget(ell=2), 0.25)
        assert np.all(rep.l2_error == 0.0)
        assert rep.sup_l2 == 0.0

    def test_budget_formula(self):
        budget = ErrorBudget(ell=2)
        t = np.array([0.0, 1.0, 4.0])
        assert np.allclose(budget.curve(0.5, t), 0.5 + 0.25 * t)

    def test_mu_envelope_invariants(self):
        budget = ErrorBudget(ell=2, alpha=(0.5, 1.0))
        assert budget.mu(0.0) >= 1.0
        t = np.linspace(0.0, 50.0, 200)
        assert np.all(np.diff(budget.mu(t)) >= 0.0)

    def test_wrap_guard(self):
        box = BoxGrid(1, 256, 16.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-10 * (x - 8.0) ** 2)
        ok, r0, reach = wrap_guard(u0, box, np.array([8.0]), 1.0, 1.0)
        assert ok and reach < 8.0
        ok2, _, _ = wrap_guard(u0, box, np.array([8.0]), 20.0, 1.0)
        assert not ok2

    def test_trajectory_roundtrip(self, tmp_path):
        box = BoxGrid(1, 128, 8.0)
        x = box_coordinates(box)[0]
        u0 = np.sin(2 * np.pi * x / 8.0)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box, u0,
                               times=[0.5, 1.0], eps=0.5)
        stem = str(tmp_path / "run")
        wave.save_trajectory(traj, stem)
        back = wave.load_trajectory(stem)
        assert np.array_equal(back.u, traj.u)
        assert np.array_equal(back.v, traj.v)
        assert np.array_equal(back.times, traj.times)
        assert back.eps == traj.eps
