"""Wave propagation: fine solver, effective propagators, dressing, sources."""

import tracemalloc

import numpy as np
import pytest

from homwave import (bloch, correctors, dispersion, oracle1d, torus,
                     transport, wave)
from homwave.bloch import solve_fine_wave_exact
from homwave.torus import ConfigurationError, TorusGrid, l2_norm
from homwave.wave import (
    BoxCorrectors,
    ErrorBudget,
    boussinesq_decomposition,
    box_coordinates,
    box_wavevectors,
    choose_gamma,
    coefficient_on_box,
    dress_with_correctors,
    error_report,
    homogenized_wave_field,
    sample_cell_on_box,
    solve_fine_wave,
    source_term_field,
    spectral_wave_state,
    taylor_bloch_ansatz,
)

from conftest import LAMINATE, anisotropic_model_2d, full_wavenumbers


LAM_PROFILE = oracle1d.Profile1D(breakpoints=[0, 0.5, 1], values=[1.0, 4.0])


def laminate_model(ell):
    oh = oracle1d.correctors_1d(LAM_PROFILE, max(ell, 2))
    return oh, dispersion.DispersionModel.from_oracle(oh, ell)


def identity_model(ell=2, kmax_cap=1.0):
    return dispersion.DispersionModel(
        dim=1, ell=ell, polys=[np.array([1.0])] + [np.array([0.0])] * (ell - 1),
        directions=np.array([[1.0]]), Gamma_bar=1.0, kmax_cap=kmax_cap)


def bending_model():
    """ell = 4, P0 = P2 = 1: the eigenvalue kappa^2 (1 - kappa^2)."""
    return dispersion.DispersionModel(
        dim=1, ell=4,
        polys=[np.array([1.0]), np.array([0.0]), np.array([1.0]),
               np.array([0.0])],
        directions=np.array([[1.0]]), Gamma_bar=1.0)


class TestCoefficientOnBox:
    def test_epsilon_compatibility(self):
        box = TorusGrid(1, 1024, 16.0)
        coefficient_on_box(LAMINATE, box, 0.25)
        with pytest.raises(ConfigurationError, match="does not divide"):
            coefficient_on_box(LAMINATE, box, 0.3)
        with pytest.raises(ConfigurationError, match="periods do not divide"):
            coefficient_on_box(LAMINATE, box, 1.0 / 128)  # more periods than points
        with pytest.raises(ConfigurationError, match="need >= 16"):
            coefficient_on_box(LAMINATE, box, 1.0 / 8)  # 8 points per period

    def test_coefficient_on_box_rejects_raw(self):
        box = TorusGrid(1, 256, 4.0)
        raw = {"kind": "raw", "values": np.ones((1, 1, 16)).tolist()}
        with pytest.raises(ConfigurationError, match="no analytic form"):
            coefficient_on_box(raw, box, 0.25)

    def test_coefficient_on_box_laminate_exact(self):
        box = TorusGrid(1, 512, 8.0)
        a_box = coefficient_on_box(LAMINATE, box, 0.5)
        x = box_coordinates(box)[0]
        expect = np.where(np.mod(x / 0.5, 1.0) < 0.5, 1.0, 4.0)
        assert np.array_equal(a_box[0, 0], expect)


class TestFineSolver:
    def test_single_mode_free_wave(self):
        box = TorusGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        u0 = np.sin(2 * np.pi * x / 8.0)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box, u0, times=[1.3])
        k = 2 * np.pi / 8.0
        assert np.max(np.abs(traj.u[0] - np.cos(k * 1.3) * u0)) < 1e-4

    def test_zero_data_stays_zero(self):
        box = TorusGrid(1, 64, 4.0)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box,
                               np.zeros(box.shape), times=[1.0])
        assert np.all(traj.u[0] == 0.0)

    def test_second_order_refinement(self):
        k = 2 * np.pi / 8.0
        errs = []
        for n in (256, 512):
            box = TorusGrid(1, n, 8.0)
            x = box_coordinates(box)[0]
            u0 = np.sin(k * x)
            traj = solve_fine_wave(np.ones((1, 1) + box.shape), box, u0,
                                   times=[1.3])
            errs.append(np.max(np.abs(traj.u[0] - np.cos(k * 1.3) * u0)))
        assert 3.0 < errs[0] / errs[1] < 5.5

    def test_energy_invariant_conserved(self):
        box = TorusGrid(1, 512, 16.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        a_box = coefficient_on_box(LAMINATE, box, 0.5)
        traj = solve_fine_wave(a_box, box, u0, times=[1.0, 2.0, 3.0])
        assert traj.energy_drift() < 1e-6

    def test_l2_energy_estimate(self):
        # source-free runs never exceed the initial mass
        box = TorusGrid(1, 512, 16.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        a_box = coefficient_on_box(LAMINATE, box, 0.5)
        traj = solve_fine_wave(a_box, box, u0, times=np.linspace(0.5, 6.0, 12))
        norm0 = l2_norm(box, u0)
        for i in range(traj.times.size):
            assert l2_norm(box, traj.u[i]) <= norm0 * (1 + 1e-6)

    def test_snapshots_held_once(self):
        # snapshots are written into preallocated arrays, so the peak
        # allocation is one copy of them plus a few work fields
        box = TorusGrid(1, 2048, 16.0)
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
        box = TorusGrid(2, 32, 1.0)
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
        box = TorusGrid(1, n, side)
        x = box_coordinates(box)[0]
        u0 = np.exp(-2.0 * (x - 0.5 * side) ** 2)
        v0 = np.sin(2 * np.pi * x / side) * np.exp(-(x - 0.3 * side) ** 2)
        return box, coefficient_on_box(LAMINATE, box, eps), u0, v0

    @staticmethod
    def exact_velocity(a_box, box, u0, v0, times, eps):
        """Velocity snapshots of the exact solve: u_t solves the same wave
        equation with data (v0, L u0), so it is the displacement of a second
        solve."""
        accel = wave.FluxFormOperator(box, a_box).apply(u0)
        return solve_fine_wave_exact(a_box, box, v0, times, eps, v0=accel).u

    @staticmethod
    def ramp_run():
        """A ramp cell, p = 16 on a 512-point box at eps 1/4: no reflection
        maps its faces onto equal ones."""
        p = 16
        a_box = np.tile(1.0 + 3.0 * np.arange(p) / p, 32).reshape(1, 1, -1)
        return TorusGrid(1, 512, 8.0), a_box, 0.25

    @pytest.mark.parametrize("cell, field", [("laminate", "real"),
                                             ("ramp", "complex"),
                                             ("trig", "complex")],
                             ids=["laminate", "ramp", "trig"])
    def test_blocks_reproduce_operator(self, rng, cell, field):
        if cell == "ramp":
            box, a_box, eps = self.ramp_run()
        else:
            box, eps = TorusGrid(1, 1024, 8.0), 1 / 8
            spec = (LAMINATE if cell == "laminate" else
                    {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0})
            a_box = coefficient_on_box(spec, box, eps)
        p = box.points_per_period(eps)
        cells = box.n // p
        faces = wave._face_harmonic(a_box[0, 0], 0)[:p]
        phases = 2 * np.pi * np.arange(cells) / cells
        basis = bloch._GaugedBlocks(faces, box.h, phases)
        assert basis.field == field
        blocks = basis.blocks(phases)
        u = rng.standard_normal(box.n)
        u_hat = np.fft.fft(u.reshape(cells, p), axis=0)
        c = basis.to_basis(u_hat[..., None])[..., 0]
        lu = -np.fft.ifft(basis.to_nodes(np.einsum("kij,kj->ki", blocks, c)),
                          axis=0)
        ref = wave.FluxFormOperator(box, a_box).apply(u)
        assert np.max(np.abs(lu.reshape(-1) - ref)) <= 1e-13 * np.max(np.abs(ref))
        if field == "complex":
            assert np.allclose(blocks, np.conj(np.swapaxes(blocks, 1, 2)),
                               rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_lowest_eigenvalue_to_relative_roundoff(self, monkeypatch, field):
        # constant a = 2, p = 64, h = 1/8192 (M = 4096 cells): the lowest
        # band is (4 a / h^2) sin^2(theta / 2p), of size 1e-10 |B| at m = 1
        if field == "complex":
            monkeypatch.setattr(bloch, "_mirror", lambda faces: None)
        p, cells, h = 64, 4096, 1 / 8192
        phases = 2 * np.pi * np.array([1, 4, 16, 1024, 2048]) / cells
        basis = bloch._GaugedBlocks(np.full(p, 2.0), h, phases)
        assert basis.field == field
        _, vecs = np.linalg.eigh(basis.blocks(phases))
        lowest = basis.omega2(phases, vecs)[:, 0]
        exact = 8.0 / h ** 2 * np.sin(phases / (2 * p)) ** 2
        assert np.max(np.abs(lowest - exact) / exact) <= 1e-14

    def test_constant_medium_long_time_matches_closed_form(self):
        # a = 2 on side 32, eps 1/32, p = 64: each Fourier mode of the box
        # turns at (2 sqrt(a) / h) |sin(k h / 2)|; at t = 1024 eigh's
        # eigenvalues alone put 4.5e-4 into the relative error
        box, eps, t = TorusGrid(1, 65536, 32.0), 1 / 32, 1024.0
        x = box_coordinates(box)[0]
        u0 = np.exp(-0.5 * (x - 16.0) ** 2)
        traj = solve_fine_wave_exact(np.full((1, 1, box.n), 2.0), box, u0,
                                     [t], eps)
        k = 2 * np.pi * np.fft.rfftfreq(box.n, box.h)
        omega = 2 * np.sqrt(2.0) / box.h * np.abs(np.sin(0.5 * k * box.h))
        exact = np.fft.irfft(np.fft.rfft(u0) * np.cos(omega * t), n=box.n)
        assert traj.meta["blocks_solved"] == 44
        assert l2_norm(box, traj.u[0] - exact) <= 1e-11 * l2_norm(box, exact)
        assert traj.energy_drift() < 1e-13

    @staticmethod
    def dense_modes(box, a_box):
        """(eigenvectors, frequencies) of the whole box operator, no Bloch
        transform."""
        op = wave.FluxFormOperator(box, a_box)
        dense = -np.stack([op.apply(e) for e in np.eye(box.n)], axis=1)
        lam, vecs = np.linalg.eigh(0.5 * (dense + dense.T))
        return vecs, np.sqrt(np.maximum(lam, 0.0))

    @staticmethod
    def dense_reference(modes, u0, v0, times, source=None):
        """(u, v) snapshots in the ``dense_modes``, with the step source
        ``source`` 1[0, 1](t) in the cos-difference form of its Duhamel
        integral."""
        vecs, omega = modes
        live = omega > 0
        safe = np.where(live, omega, 1.0)
        a0, b0 = vecs.T @ u0, vecs.T @ v0
        c = 0.0 if source is None else vecs.T @ source
        for t in times:
            s = min(t, 1.0)
            sinc = np.where(live, np.sin(omega * t) / safe, t)
            step = np.where(live, (np.cos(omega * (t - s)) - np.cos(omega * t))
                            / safe ** 2, t * s - 0.5 * s ** 2)
            step_t = np.where(live, (np.sin(omega * t)
                                     - np.sin(omega * (t - s))) / safe, s)
            yield (vecs @ (a0 * np.cos(omega * t) + b0 * sinc + c * step),
                   vecs @ (b0 * np.cos(omega * t) - a0 * omega * np.sin(omega * t)
                           + c * step_t))

    def test_matches_dense_eigendecomposition(self):
        box, a_box, u0, v0 = self.laminate_run(1024, 8.0, 1 / 8)
        times = [0.5, 3.0, 8.0]
        traj = solve_fine_wave_exact(a_box, box, u0, times, 1 / 8, v0=v0)
        v_t = self.exact_velocity(a_box, box, u0, v0, times, 1 / 8)
        modes = self.dense_modes(box, a_box)
        refs = self.dense_reference(modes, u0, v0, times)
        for i, (u_ref, v_ref) in enumerate(refs):
            assert l2_norm(box, traj.u[i] - u_ref) < 1e-9
            assert l2_norm(box, v_t[i] - v_ref) < 1e-9
        assert traj.energy_drift() < 1e-10
        assert traj.meta["blocks"] == 33 and traj.meta["block_size"] == 16
        # a step source still acting at the first snapshot and stopped at
        # the others: the energy log is the energy of each dense snapshot
        h = np.roll(v0, 300) + 0.5 * u0
        traj = solve_fine_wave_exact(a_box, box, u0, times, 1 / 8, v0=v0,
                                     source=h)
        op = wave.FluxFormOperator(box, a_box)
        refs = self.dense_reference(modes, u0, v0, times, h)
        for i, (u_ref, v_ref) in enumerate(refs):
            assert l2_norm(box, traj.u[i] - u_ref) < 1e-9
            assert traj.energy[i] == pytest.approx(op.energy(u_ref, v_ref),
                                                   rel=1e-10)
        assert traj.energy[0] < traj.energy[1]

    def test_sourced_energy_log_from_rest(self):
        # zero data: after the source stops, each eigenmode keeps the energy
        # 2 |c|^2 (1 - cos omega) / omega^2 of its amplitude c of h
        box, a_box, u0, v0 = self.laminate_run(1024, 8.0, 1 / 8)
        h, cells, p = v0 - np.roll(u0, 100), 64, 16
        times = [0.25, 0.5, 1.0, 2.0, 8.0]
        traj = solve_fine_wave_exact(a_box, box, np.zeros(box.n), times, 1 / 8,
                                     source=h)
        # the modes of the blocks the solver diagonalizes: the real ones
        faces = wave._face_harmonic(a_box[0, 0], 0)[:p]
        phases = 2 * np.pi * np.arange(cells // 2 + 1) / cells
        basis = bloch._GaugedBlocks(faces, box.h, phases)
        assert basis.field == "real" and traj.meta["block_field"] == "real"
        lam, vecs = np.linalg.eigh(basis.blocks(phases))
        h_hat = np.fft.rfft(h.reshape(cells, p), axis=0)[..., None]
        c = np.einsum("mji,mj->mi", vecs, basis.to_basis(h_hat)[..., 0])
        omega = np.sqrt(np.maximum(lam, 0.0))
        live = omega > 0
        per_mode = np.abs(c) ** 2 * np.where(
            live, 2 * (1 - np.cos(omega)) / np.where(live, omega, 1.0) ** 2, 1.0)
        expected = box.h / (2 * cells) * np.sum(
            bloch._parseval_weights(cells)[:, None] * per_mode)
        after = traj.times >= 1.0
        assert np.all(np.abs(traj.energy[after] - expected) <= 1e-12 * expected)
        assert np.all(traj.energy[~after] < expected)
        stats = traj.solver_stats()
        assert "energy_drift" not in stats and "energy_t0" not in traj.meta
        assert stats["skipped_share"] <= np.finfo(float).eps

    def test_sine_source_diagonalizes_one_block(self):
        # sin(2 pi x / side) lies in Bloch phase 1 alone
        box, a_box, u0, _ = self.laminate_run(2048, 16.0, 1 / 8)
        x = box_coordinates(box)[0]
        zero = np.zeros(box.n)
        traj = solve_fine_wave_exact(a_box, box, zero, [0.5, 4.0], 1 / 8,
                                     source=np.sin(2 * np.pi * x / 16.0))
        assert traj.meta["blocks_solved"] == 1 and traj.meta["blocks"] == 65
        assert np.any(traj.u[0])

    def test_source_shape_checked(self):
        box, a_box, u0, _ = self.laminate_run(1024, 8.0, 1 / 8)
        with pytest.raises(ConfigurationError, match="source shape"):
            solve_fine_wave_exact(a_box, box, u0, [1.0], 1 / 8,
                                  source=u0.reshape(32, 32))

    @pytest.mark.parametrize("with_velocity", [False, True])
    def test_one_inverse_transform_per_snapshot_and_one_apply(
            self, monkeypatch, with_velocity):
        # no velocity snapshots and no per-snapshot energy pass: the one
        # operator apply is the physical energy of the data
        box, a_box, u0, v0 = self.laminate_run(1024, 8.0, 1 / 8)
        calls = {"irfft": 0, "apply": 0}
        irfft, apply = np.fft.irfft, wave.FluxFormOperator.apply

        def counted_irfft(*args, **kwargs):
            calls["irfft"] += 1
            return irfft(*args, **kwargs)

        def counted_apply(op, u):
            calls["apply"] += 1
            return apply(op, u)

        monkeypatch.setattr(np.fft, "irfft", counted_irfft)
        monkeypatch.setattr(wave.FluxFormOperator, "apply", counted_apply)
        times = [0.5, 1.0, 3.0, 8.0]
        traj = solve_fine_wave_exact(a_box, box, u0, times, 1 / 8,
                                     v0=v0 if with_velocity else None)
        assert calls == {"irfft": len(times), "apply": 1}
        assert traj.v is None

    @pytest.mark.parametrize("fault", ["corner phase", "one face"])
    def test_energy_drift_sees_wrong_blocks(self, monkeypatch, fault):
        # the energy log comes from the blocks, energy_t0 from the flux-form
        # operator: blocks that are not the operator's show as drift
        box, a_box, u0, v0 = self.laminate_run(1024, 8.0, 1 / 8)
        times = [0.5, 3.0, 8.0]
        true = solve_fine_wave_exact(a_box, box, u0, times, 1 / 8, v0=v0)
        assert true.energy_drift() < 1e-10
        if fault == "corner phase":
            # the laminate has a mirror: the phase enters its real blocks
            assert true.meta["block_field"] == "real"
            blocks = bloch._GaugedBlocks.blocks
            monkeypatch.setattr(bloch._GaugedBlocks, "blocks",
                                lambda basis, phases: blocks(basis, phases + 0.01))
        else:
            face_harmonic = bloch._face_harmonic

            def perturbed(a, axis):
                faces = face_harmonic(a, axis)
                faces[3] *= 1.0 + 1e-3
                return faces

            monkeypatch.setattr(bloch, "_face_harmonic", perturbed)
        wrong = solve_fine_wave_exact(a_box, box, u0, times, 1 / 8, v0=v0)
        assert wrong.energy_drift() > 1e-6

    @pytest.mark.parametrize("sourced", [False, True])
    def test_real_blocks_match_complex_blocks(self, monkeypatch, sourced):
        # the laminate's real blocks against the complex ones (Q = I) a
        # cell without a mirror takes; over t <= 0.1 the eigenvalue
        # roundoff of either path has not grown past 1e-12 in the
        # displacement.  The energies weigh each mode by omega^2, so they
        # carry that roundoff times the largest eigenvalue: they agree to
        # the energy-drift gate
        box, a_box, u0, v0 = self.laminate_run(1024, 8.0, 1 / 8)
        times = [0.0, 0.05, 0.1]
        h = np.roll(v0, 300) + 0.5 * u0 if sourced else None
        real = solve_fine_wave_exact(a_box, box, u0, times, 1 / 8, v0=v0,
                                     source=h)
        monkeypatch.setattr(bloch, "_mirror", lambda faces: None)
        cplx = solve_fine_wave_exact(a_box, box, u0, times, 1 / 8, v0=v0,
                                     source=h)
        assert real.meta["block_field"] == "real"
        assert cplx.meta["block_field"] == "complex"
        for r, c in zip(real.u, cplx.u):
            assert l2_norm(box, r - c) <= 1e-12 * l2_norm(box, c)
        assert np.all(np.abs(real.energy - cplx.energy) <= 1e-10 * cplx.energy)

    def test_cell_without_mirror_takes_complex_blocks(self):
        box, a_box, eps = self.ramp_run()
        p = box.points_per_period(eps)
        x = box_coordinates(box)[0]
        u0 = np.exp(-2.0 * (x - 4.0) ** 2)
        v0 = np.sin(2 * np.pi * x / 8.0) * np.exp(-(x - 2.4) ** 2)
        h = np.roll(v0, 150) + 0.5 * u0
        times = [0.5, 3.0]
        assert bloch._mirror(wave._face_harmonic(a_box[0, 0], 0)[:p]) is None
        traj = solve_fine_wave_exact(a_box, box, u0, times, eps, v0=v0,
                                     source=h)
        assert traj.meta["block_field"] == "complex"
        refs = self.dense_reference(self.dense_modes(box, a_box), u0, v0,
                                    times, h)
        for i, (u_ref, _) in enumerate(refs):
            assert l2_norm(box, traj.u[i] - u_ref) < 1e-9

    @pytest.mark.parametrize("fraction", [0.3, 0.5, 0.7])
    def test_benchmark_laminates_have_an_exact_mirror(self, fraction):
        # every low phase 1 + 0.05 k the benchmark seeds draw, on the
        # transport box (p = 64, 32, 16) and the wave-compare boxes
        # (p = 16); the sampled trig_checkerboard has none
        grids = ([(TorusGrid(1, 16384, 64.0), eps) for eps in (1 / 4, 1 / 8, 1 / 16)]
                 + [(TorusGrid(1, int(1024 / eps), 64.0), eps)
                    for eps in (1 / 8, 1 / 16, 1 / 32)])

        def mirror(spec, box, eps):
            a = coefficient_on_box(spec, box, eps)[0, 0]
            return bloch._mirror(
                wave._face_harmonic(a, 0)[:box.points_per_period(eps)])

        for k in range(6):
            spec = {"kind": "laminate", "values": [1.0 + 0.05 * k, 4.0],
                    "volume_fraction": fraction}
            assert all(mirror(spec, box, eps) is not None for box, eps in grids)
        trig = {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0}
        assert all(mirror(trig, box, eps) is None for box, eps in grids[:3])

    def test_laminate_run_calls_no_complex_eigh(self, monkeypatch):
        box, a_box, u0, v0 = self.laminate_run(1024, 8.0, 1 / 8)
        dtypes = []
        eigh = np.linalg.eigh

        def spy(blocks, *args, **kwargs):
            dtypes.append(blocks.dtype)
            return eigh(blocks, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        solve_fine_wave_exact(a_box, box, u0, [0.5, 3.0], 1 / 8, v0=v0,
                              source=np.roll(u0, 200))
        assert dtypes and all(d == np.float64 for d in dtypes)

    def test_skipped_phases_leave_dense_reference_unchanged(self):
        # a Gaussian of width 8 periodized over the 64-long box: its Bloch
        # data lie on few phases, and most blocks are never diagonalized
        box, a_box, _, _ = self.laminate_run(1024, 64.0, 1.0)
        x = box_coordinates(box)[0]

        def periodized(center, width):
            return sum(np.exp(-0.5 * ((x - center - s) / width) ** 2)
                       for s in 64.0 * np.arange(-3, 4))

        u0, v0 = periodized(32.0, 8.0), 2.0 * periodized(31.0, 9.6)
        times = [0.25, 0.5]
        traj = solve_fine_wave_exact(a_box, box, u0, times, 1.0, v0=v0)
        assert traj.meta["blocks"] == 33 and traj.meta["blocks_solved"] == 11
        v_t = self.exact_velocity(a_box, box, u0, v0, times, 1.0)
        refs = self.dense_reference(self.dense_modes(box, a_box), u0, v0, times)
        for i, (u_ref, v_ref) in enumerate(refs):
            assert l2_norm(box, traj.u[i] - u_ref) <= 1e-12 * l2_norm(box, u_ref)
            assert l2_norm(box, v_t[i] - v_ref) <= 1e-12 * l2_norm(box, v_ref)

    def test_zero_data_diagonalizes_no_phase(self):
        box, a_box, u0, _ = self.laminate_run(1024, 8.0, 1 / 8)
        zero = np.zeros_like(u0)
        traj = solve_fine_wave_exact(a_box, box, zero, [0.5, 3.0], 1 / 8,
                                     v0=zero)
        assert traj.meta["blocks_solved"] == 0
        assert not np.any(traj.u) and traj.v is None
        assert not np.any(traj.energy) and traj.energy_drift() == 0.0

    def test_white_noise_keeps_every_phase(self, rng):
        box, a_box, u0, _ = self.laminate_run(1024, 8.0, 1 / 8)
        traj = solve_fine_wave_exact(a_box, box, rng.standard_normal(box.n),
                                     [1.0], 1 / 8)
        assert traj.meta["blocks_solved"] == traj.meta["blocks"] == 33

    def test_velocity_only_data_at_time_zero_is_kept(self):
        # with t_max = 0 the velocity still weighs in through one CFL step
        box, a_box, u0, _ = self.laminate_run(1024, 8.0, 1 / 8)
        traj = solve_fine_wave_exact(a_box, box, np.zeros_like(u0), [0.0],
                                     1 / 8, v0=u0)
        assert traj.meta["blocks_solved"] > 0
        v_t = self.exact_velocity(a_box, box, np.zeros_like(u0), u0, [0.0],
                                  1 / 8)
        assert np.max(np.abs(v_t[0] - u0)) <= 1e-13 * np.max(np.abs(u0))

    @staticmethod
    def readme_gaussian(eps):
        """Box, coefficient, data and snapshot times of the README
        wave-compare config at one eps."""
        box = TorusGrid(1, int(16 * 64.0 / eps), 64.0)
        x = box_coordinates(box)[0]
        return (box, coefficient_on_box(LAMINATE, box, eps),
                np.exp(-0.5 * (x - 32.0) ** 2), np.arange(1.0, 9.0))

    @pytest.mark.parametrize("data", ["gaussian", "velocity-only"])
    def test_skipped_phases_spend_at_most_the_budget(self, data):
        eps = 1 / 8
        box, a_box, u0, times = self.readme_gaussian(eps)
        v0 = np.zeros_like(u0)
        if data == "velocity-only":
            # at t_max = 0 the velocity weighs in through one CFL step
            u0, v0, times = v0, u0, np.array([0.0])
        p = box.points_per_period(eps)
        cells = box.n // p
        faces = wave._face_harmonic(a_box[0, 0], 0)[:p]
        lam_bound = 2.0 * np.max(faces + np.roll(faces, 1)) / box.h ** 2
        tau = max(times[-1], 1.0 / np.sqrt(lam_bound))
        # b_m from the full transform: phase m plus its distinct mirror
        u_full = np.fft.fft(u0.reshape(cells, p), axis=0)
        v_full = np.fft.fft(v0.reshape(cells, p), axis=0)
        per_phase = (np.linalg.norm(u_full, axis=1)
                     + tau * np.linalg.norm(v_full, axis=1)) ** 2
        m = np.arange(cells // 2 + 1)
        mirror = (m > 0) & (2 * m != cells)
        b = per_phase[m] + np.where(mirror, per_phase[(cells - m) % cells], 0)

        kept, share = bloch._phases_carrying_data(
            np.fft.rfft(u0.reshape(cells, p), axis=0),
            np.fft.rfft(v0.reshape(cells, p), axis=0), cells, tau)
        skipped = np.setdiff1d(m, kept)
        eps2 = np.finfo(float).eps ** 2
        total = np.sum(b)
        # the in-test b_m differ from the solver's by roundoff only
        assert skipped.size > 0 and np.all(np.diff(kept) > 0)
        assert np.sum(b[skipped]) <= eps2 * total * (1 + 1e-12)
        # the budget is spent: one more phase, the smallest kept, overruns it
        assert np.sum(b[skipped]) + np.min(b[kept]) > eps2 * total * (1 - 1e-12)
        assert share == pytest.approx(np.sqrt(np.sum(b[skipped]) / total),
                                      rel=1e-12)
        assert share <= np.finfo(float).eps
        # the per-phase rule (b_m > eps_mach^2 / n_blocks sum b) keeps more
        assert set(kept) <= set(np.flatnonzero(b > eps2 / m.size * total))

        traj = solve_fine_wave_exact(a_box, box, u0, times, eps, v0=v0)
        assert traj.meta["blocks_solved"] == kept.size
        assert traj.meta["skipped_share"] == share

    def test_phases_solved_on_the_readme_wave_compare_config(self):
        # data and snapshot times of the README wave-compare config: the
        # counts are deterministic, so any change to the rule shows here
        solved = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            box, a_box, u0, times = self.readme_gaussian(eps)
            traj = solve_fine_wave_exact(a_box, box, u0, times, eps)
            solved.append((traj.meta["blocks_solved"], traj.meta["blocks"]))
        assert solved == [(86, 257), (86, 513), (86, 1025)]

    def test_phases_solved_on_the_transport_config(self):
        # the transport-1d benchmark config: one 16384-point box, p = 64,
        # 32 and 16 (gamma_bar only sets the wrap guard, not the solve)
        box = TorusGrid(1, 16384, 64.0)
        rep = transport.ballistic_experiment(LAMINATE, box, [1 / 4, 1 / 8, 1 / 16],
                                             0.0, 1.0, 2, gamma_bar=1.0)
        solved = [(r.solver["blocks_solved"], r.solver["blocks"])
                  for r in rep.rows]
        assert solved == [(86, 129), (86, 257), (86, 513)]

    def test_leapfrog_converges_at_second_order(self):
        box, a_box, u0, v0 = self.laminate_run(128, 4.0, 1 / 2)
        exact = solve_fine_wave_exact(a_box, box, u0, [1.0], 1 / 2, v0=v0)
        v_exact = self.exact_velocity(a_box, box, u0, v0, [1.0], 1 / 2)
        gaps_u, gaps_v = [], []
        for cfl in (0.1, 0.05, 0.025, 0.0125):
            traj = solve_fine_wave(a_box, box, u0, v0=v0, times=[1.0], cfl=cfl)
            gaps_u.append(l2_norm(box, traj.u[0] - exact.u[0]))
            gaps_v.append(l2_norm(box, traj.v[0] - v_exact[0]))
        for gaps in (gaps_u, gaps_v):
            rates = np.log2(np.asarray(gaps[:-1]) / np.asarray(gaps[1:]))
            assert np.all(np.abs(rates - 2.0) < 0.1), rates

    def test_roundoff_periodic_medium_accepted(self):
        # 16384 cells: the sampled cells differ by about 2e-12 (relative)
        box = TorusGrid(1, 262144, 512.0)
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
        box2 = TorusGrid(2, 32, 1.0)
        a2 = coefficient_on_box(LAMINATE, box2, 0.5)
        with pytest.raises(ConfigurationError):
            solve_fine_wave_exact(a2, box2, np.zeros(box2.shape), [1.0], 0.5)


class TestResampling:
    def test_fold_matches_pointwise(self):
        grid = torus.TorusGrid(1, 64)
        x = grid.coordinate_axes()[0].ravel()
        vals = np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x)
        box = TorusGrid(1, 128, 8.0)  # 16 points per period < 64 cell points
        out = sample_cell_on_box(grid, vals, box, 0.5)
        y = np.mod(box_coordinates(box)[0] / 0.5, 1.0)
        ref = np.sin(2 * np.pi * y) + 0.2 * np.cos(6 * np.pi * y)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_prolong_branch(self):
        grid = torus.TorusGrid(1, 8)
        x = grid.coordinate_axes()[0].ravel()
        vals = np.cos(2 * np.pi * x)
        box = TorusGrid(1, 64, 2.0)  # 32 points per period > 8 cell points
        out = sample_cell_on_box(grid, vals, box, 0.5)
        y = np.mod(box_coordinates(box)[0] / 0.5, 1.0)
        assert np.max(np.abs(out - np.cos(2 * np.pi * y))) < 1e-12


    @pytest.mark.parametrize("dim", [1, 2])
    def test_coarsening_is_subsampling(self, rng, dim):
        # box nodes land on every stride-th cell node: the samples
        # themselves, tiled, with leading axes carried along
        grid = torus.TorusGrid(dim, 64)
        vals = rng.standard_normal((3,) + grid.shape)
        box = TorusGrid(dim, 64, 4.0)  # eps 0.5: 8 periods of 8 points
        out = sample_cell_on_box(grid, vals, box, 0.5)
        tile = vals[(Ellipsis,) + (slice(None, None, 8),) * dim]
        assert np.array_equal(out, np.tile(tile, (1,) + (8,) * dim))

    def test_tensorized_gradient_is_bitwise_per_axis_derivative(self, smooth2d_a):
        # one batched transform pair per corrector order gives the same
        # bits as one spectral derivative per axis and monomial
        tens = correctors.tensorize_correctors(smooth2d_a, 2)
        box = TorusGrid(2, 64, 2.0)
        bc = BoxCorrectors.from_tensorized(tens, box, 0.5)
        for j, coeffs in enumerate(tens.phi):
            per_axis = np.stack([
                np.stack([torus.DerivativeCache(tens.grid, torus.rfftn(tens.grid, c))
                          .get((int(ax == 0), int(ax == 1))) for c in coeffs])
                for ax in range(2)])
            ref = sample_cell_on_box(tens.grid, per_axis, box, 0.5) / 0.5
            assert np.array_equal(bc.grad_phi[j], ref)


class TestHalfSpectrumMatchesFullFFT:
    """Effective propagators on 2D white noise, which has content on the
    Nyquist lines of both axes, against in-test references built with the
    full complex FFT on the full mode lattice."""

    EPS = 0.25

    @pytest.fixture
    def case(self, rng):
        box = TorusGrid(2, 32, 8.0)
        return (box, anisotropic_model_2d(), rng.standard_normal(box.shape),
                full_wavenumbers(box))

    @staticmethod
    def assert_close(out, ref):
        assert np.isrealobj(out)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def filtered_reference(self, model, k):
        weights = dispersion.cutoff(model.kmax,
                                    self.EPS * np.sqrt(np.sum(k ** 2, axis=0)))
        eig = np.where(weights > 0, dispersion.eigenvalue(model, self.EPS * k), 0.0)
        return weights, np.sqrt(eig) / self.EPS

    def test_box_wavevectors_are_the_half_lattice(self, case):
        box, _, _, k = case
        half = box_wavevectors(box)
        assert half.shape == (2, 32, 17)
        assert np.array_equal(half[0], k[0][:, :17])
        assert np.array_equal(half[1], np.abs(k[1][:, :17]))

    def test_homogenized_wave_field(self, case):
        box, model, u0, k = case
        weights, omega = self.filtered_reference(model, k)
        times = [0.0, 1.3, 4.0]
        out = homogenized_wave_field(model, u0, box, self.EPS, times)
        u_hat = np.fft.fftn(u0) * weights
        for u, t in zip(out, times):
            self.assert_close(u, np.fft.ifftn(u_hat * np.cos(omega * t)).real)

    def test_spectral_wave_state_velocity(self, case, rng):
        box, model, u0, k = case
        v0 = rng.standard_normal(box.shape)
        operator = {"gamma": choose_gamma(model)}
        num, den = wave.mode_symbol(model, self.EPS, box_wavevectors(box),
                                    **operator)
        times = [0.7, 2.0]
        _, u_t = spectral_wave_state(1.0, np.sqrt(num / den), u0, box, times,
                                     v0=v0)
        num, den = wave.mode_symbol(model, self.EPS, k, **operator)
        omega = np.sqrt(num / den)
        u_hat, v_hat = np.fft.fftn(u0), np.fft.fftn(v0)
        for v, t in zip(u_t, times):
            ref = v_hat * np.cos(omega * t) - u_hat * omega * np.sin(omega * t)
            self.assert_close(v, np.fft.ifftn(ref).real)

    def test_source_term_field(self, case):
        # a source constant on [0, 1]: the Duhamel integral in closed form
        box, model, f, k = case
        weights, omega = self.filtered_reference(model, k)
        times = np.array([0.5, 1.5, 2.5])
        u, u_t = (torus.irfftn(box, half) for half in source_term_field(
            model, f, box, self.EPS, times))
        f_hat = np.fft.fftn(f) * weights
        live = omega > 0
        safe = np.where(live, omega, 1.0)
        for i, t in enumerate(times):
            end = min(t, 1.0)
            disp = np.where(live, (np.cos(omega * (t - end)) - np.cos(omega * t))
                            / safe ** 2, t * end - 0.5 * end ** 2)
            vel = np.where(live, (np.sin(omega * t) - np.sin(omega * (t - end)))
                           / safe, end)
            self.assert_close(u[i], np.fft.ifftn(f_hat * disp).real)
            self.assert_close(u_t[i], np.fft.ifftn(f_hat * vel).real)


class TestEffectivePropagator:
    def test_t0_returns_filtered_data(self):
        model = identity_model()
        box = TorusGrid(1, 512, 32.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 16.0) ** 2))
        out = homogenized_wave_field(model, u0, box, 0.25, [0.0])
        k = box_wavevectors(box)
        weights = dispersion.cutoff(model.kmax, 0.25 * np.sqrt(np.sum(k ** 2, axis=0)))
        assert np.array_equal(out[0], torus.irfftn(box, torus.rfftn(box, u0) * weights))

    def test_constant_medium_is_exact_filtered_wave(self):
        model = identity_model(kmax_cap=100.0)  # pass-through filter
        box = TorusGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 8.0
        u0 = np.sin(k * x)
        out = homogenized_wave_field(model, u0, box, 0.125, [2.1])[0]
        assert np.max(np.abs(out - np.cos(k * 2.1) * u0)) < 1e-12

    def test_output_real(self):
        _, model = laminate_model(4)
        box = TorusGrid(1, 1024, 32.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 16.0) ** 2)) * (1 + 0.3 * np.sin(x))
        out = homogenized_wave_field(model, u0, box, 0.25, [3.3])
        assert np.isrealobj(out)

    def test_time_reversibility(self):
        _, model = laminate_model(4)
        box = TorusGrid(1, 512, 32.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 16.0) ** 2))
        from homwave.wave import filtered_dispersion
        w, om = filtered_dispersion(model, box, 0.25)
        u1, v1 = spectral_wave_state(w, om, u0, box, [5.0])
        u2, _ = spectral_wave_state(np.ones_like(w), om, u1[0], box, [-5.0],
                                    v0=v1[0])
        ref = homogenized_wave_field(model, u0, box, 0.25, [0.0])[0]
        assert np.max(np.abs(u2[0] - ref)) < 1e-12

    def test_displacement_only_rotation_is_bitwise_full_rotation(self):
        # zero velocity: a cos + 0 sinc is a cos, bit for bit
        _, model = laminate_model(4)
        box = TorusGrid(1, 512, 32.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 16.0) ** 2)) * (1 + 0.3 * np.sin(x))
        from homwave.wave import filtered_dispersion
        w, om = filtered_dispersion(model, box, 0.25)
        times = [0.0, 1.7, 5.0]
        full, _ = spectral_wave_state(w, om, u0, box, times)
        out = homogenized_wave_field(model, u0, box, 0.25, times)
        assert np.array_equal(out, full)

    def test_constant_medium_error_is_fine_solver_error(self):
        # vs. the exact effective propagator, the fine solver's own
        # discretization error is all that remains, shrinking ~4x per halving
        model = identity_model(kmax_cap=100.0)
        errs = []
        for n in (256, 512):
            box = TorusGrid(1, n, 8.0)
            x = box_coordinates(box)[0]
            u0 = np.sin(2 * np.pi * x / 8.0)
            traj = solve_fine_wave(np.ones((1, 1) + box.shape), box, u0,
                                   times=[1.3])
            eff = homogenized_wave_field(model, u0, box, 0.25, [1.3])
            errs.append(l2_norm(box, traj.u[0] - eff[0]))
        assert 3.0 < errs[0] / errs[1] < 5.5

    def test_odd_even_truncation_identical(self):
        _, m3 = laminate_model(3)
        _, m4 = laminate_model(4)
        assert m3.kmax == m4.kmax
        box = TorusGrid(1, 512, 32.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 16.0) ** 2))
        out3 = homogenized_wave_field(m3, u0, box, 0.25, [2.0])
        out4 = homogenized_wave_field(m4, u0, box, 0.25, [2.0])
        assert np.max(np.abs(out3 - out4)) < 1e-14

    def test_all_times_share_one_forward_transform(self, monkeypatch):
        _, model = laminate_model(2)
        box = TorusGrid(1, 1024, 32.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 16.0) ** 2))
        times = np.linspace(0.5, 4.0, 8)
        forward = []
        rfftn = np.fft.rfftn

        def counting_rfftn(*args, **kwargs):
            forward.append(1)
            return rfftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfftn", counting_rfftn)
        singles = []
        for t in times:
            forward.clear()
            singles.append(homogenized_wave_field(model, u0, box, 0.25, [t]))
            assert len(forward) == 1
        forward.clear()
        batch = homogenized_wave_field(model, u0, box, 0.25, times)
        assert len(forward) == 1
        assert batch.shape == (8,) + box.shape
        assert np.array_equal(batch, np.concatenate(singles))


@pytest.fixture(scope="module")
def laminate_box_correctors():
    oh, model = laminate_model(2)
    box = TorusGrid(1, 1024, 16.0)
    bc = BoxCorrectors.from_oracle(oh, box, 0.25)
    return oh, model, box, bc


class TestDressing:
    def test_well_prepared_constant_medium_is_filtered(self):
        grid = torus.TorusGrid(1, 64)
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid)
        tens = correctors.tensorize_correctors(a, 2)
        model = identity_model()
        box = TorusGrid(1, 512, 16.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        bc = BoxCorrectors.from_tensorized(tens, box, 0.25)
        out = taylor_bloch_ansatz(bc, model, u0, box, 0.25, [0.0])[0]
        filtered = homogenized_wave_field(model, u0, box, 0.25, [0.0])[0]
        assert np.max(np.abs(out - filtered)) < 1e-12

    def test_order_zero_is_filtered(self, laminate_box_correctors):
        _, model, box, bc = laminate_box_correctors
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        out = taylor_bloch_ansatz(bc, model, u0, box, 0.25, [0.0], ell=0)[0]
        filtered = homogenized_wave_field(model, u0, box, 0.25, [0.0])[0]
        assert np.max(np.abs(out - filtered)) < 1e-14

    def test_first_order_matches_manual_assembly(self, laminate_box_correctors):
        oh, model, box, bc = laminate_box_correctors
        eps = 0.25
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        uf = homogenized_wave_field(model, u0, box, eps, [0.0])[0]
        grad = torus.DerivativeCache(box, torus.rfftn(box, uf)).get((1,))
        manual = uf + eps * oh.phi[1](np.mod(x / eps, 1.0)) * grad
        out = taylor_bloch_ansatz(bc, model, u0, box, eps, [0.0], ell=1)[0]
        assert np.max(np.abs(out - manual)) < 1e-8

    def test_ansatz_t0_equals_well_prepared(self, laminate_box_correctors):
        # well-prepared data: the dressing of the filtered spectrum of u0
        _, model, box, bc = laminate_box_correctors
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        weights, _ = wave.filtered_dispersion(model, box, 0.25)
        prepared = dress_with_correctors(
            bc, torus.DerivativeCache(box, torus.rfftn(box, u0) * weights))
        a1 = taylor_bloch_ansatz(bc, model, u0, box, 0.25, [0.0])
        assert np.array_equal(a1[0], prepared)

    def test_dressing_beyond_corrector_order_rejected(self, laminate_box_correctors):
        _, model, box, bc = laminate_box_correctors
        u0 = np.exp(-((box_coordinates(box)[0] - 8.0) ** 2))
        cache = torus.DerivativeCache(box, torus.rfftn(box, u0))
        for dress in (dress_with_correctors, wave.dressed_gradient):
            with pytest.raises(ConfigurationError, match="corrector order 2"):
                dress(bc, cache, max_order=3)
        with pytest.raises(ConfigurationError, match="corrector order 2"):
            taylor_bloch_ansatz(bc, model, u0, box, 0.25, [0.0], ell=3)

    def test_ansatz_constant_medium_reduces_to_effective(self):
        grid = torus.TorusGrid(1, 64)
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid)
        tens = correctors.tensorize_correctors(a, 2)
        model = identity_model()
        box = TorusGrid(1, 512, 16.0)
        x = box_coordinates(box)[0]
        u0 = np.exp(-((x - 8.0) ** 2))
        bc = BoxCorrectors.from_tensorized(tens, box, 0.25)
        ans = taylor_bloch_ansatz(bc, model, u0, box, 0.25, [1.5])
        eff = homogenized_wave_field(model, u0, box, 0.25, [1.5])
        assert np.max(np.abs(ans - eff)) < 1e-12

    def test_filtered_dressing_matches_closed_form(self):
        # every derivative of the filtered mode u = w sin(k x) is known in
        # closed form; dressed from the filtered spectrum, the field and its
        # gradient carry only the roundoff of the retained modes
        eps, ell = 1 / 8, 4
        oh, model = laminate_model(ell)
        box = TorusGrid(1, 2048, 16.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 16.0
        u0 = np.sin(k * x)
        weights = dispersion.cutoff(model.kmax, eps * np.abs(box_wavevectors(box)[0]))
        du = [weights[1] * k ** j * np.sin(k * x + 0.5 * np.pi * j)
              for j in range(ell + 2)]
        y = np.mod(x / eps, 1.0)
        field = sum(eps ** j * oh.phi[j](y) * du[j] for j in range(ell + 1))
        grad = sum(eps ** j * (oh.phi[j].derivative()(y) / eps * du[j]
                               + oh.phi[j](y) * du[j + 1])
                   for j in range(ell + 1))
        bc = BoxCorrectors.from_oracle(oh, box, eps)
        cache = torus.DerivativeCache(box, torus.rfftn(box, u0) * weights)
        ansatz = taylor_bloch_ansatz(bc, model, u0, box, eps, [0.0])
        for out, ref in ((ansatz[0], field),
                         (wave.dressed_gradient(bc, cache)[0], grad)):
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_dressed_gradient_matches_spectral_for_smooth_correctors(self):
        grid = torus.TorusGrid(1, 128)
        a = torus.coefficient_from_spec(
            {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0}, grid)
        tens = correctors.tensorize_correctors(a, 2)
        box = TorusGrid(1, 1024, 8.0)
        bc = BoxCorrectors.from_tensorized(tens, box, 0.25)
        x = box_coordinates(box)[0]
        v = np.sin(2 * np.pi * x / 8.0)
        from homwave.wave import dressed_gradient
        cache = torus.DerivativeCache(box, torus.rfftn(box, v))
        g1 = dressed_gradient(bc, cache)
        w = dress_with_correctors(bc, cache)
        g2 = torus.gradient_values(box, w)
        assert np.max(np.abs(g1 - g2)) < 1e-8


class TestRegularization:
    def test_low_orders_need_none(self):
        _, model = laminate_model(2)
        assert choose_gamma(model) == 0.0

    def test_nonnegative_dispersion_needs_none(self):
        model = identity_model(4)
        assert choose_gamma(model) == 0.0

    def test_bisection_value(self):
        model = dispersion.DispersionModel(
            dim=1, ell=4,
            polys=[np.array([1.0]), np.array([0.0]), np.array([1.0]),
                   np.array([0.0])],
            directions=np.array([[1.0]]), Gamma_bar=1.0)
        assert choose_gamma(model) == pytest.approx(2.0, abs=1e-9)

    def test_closed_form_is_exact(self):
        # g = u - 1/2 peaks against u^2 at u = 1, so gamma is 2 (1/2 + 1/2)
        assert choose_gamma(bending_model()) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("make", [bending_model,
                                      lambda: laminate_model(4)[1]],
                             ids=["P0=P2=1", "laminate"])
    def test_gamma_is_minimal(self, make):
        # at ell = 4, u g' - 2 g = (2 P0 - 1) - P2 u, so gamma / 2 makes the
        # coercivity inequality tight at u = (2 P0 - 1) / P2 and any smaller
        # constant breaks it there
        model = make()
        half = choose_gamma(model) / 2
        p0, p2 = model.polys[0][0], model.polys[2][0]
        k = np.array([[np.sqrt((2 * p0 - 1) / p2)]])
        target = float(0.5 * (k ** 2 + k ** 6)[0, 0])

        def margin(gamma):
            return float(wave.effective_symbol(model, gamma, 1.0, k)[0]) - target

        assert margin(half) >= -1e-14 * target
        assert margin(half * (1 - 1e-9)) < -1e-10 * target

    def test_coercivity_margin_nonnegative(self):
        # the regularized symbol dominates (|k|^2 + eps^2m |k|^(2m+2)) / 2,
        # m = 2 at ell = 4, at every nonzero box mode
        _, model = laminate_model(4)
        gamma = choose_gamma(model)
        eps = 0.25
        k = box_wavevectors(TorusGrid(1, 512, 16.0))
        num, den = wave.mode_symbol(model, eps, k, gamma=gamma)
        k2 = np.sum(k ** 2, axis=0)
        target = 0.5 * (k2 + eps ** 4 * k2 ** 3) if gamma > 0 else 0.5 * k2
        assert np.min((num / den - target)[k2 > 0]) >= 0.0

    def test_regularized_wave_trivia(self):
        model = identity_model()
        box = TorusGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 8.0
        u0 = np.sin(k * x)
        num, den = wave.mode_symbol(model, 0.25, box_wavevectors(box), gamma=0.0)
        outs = spectral_wave_state(1.0, np.sqrt(num / den), u0, box, [0.0, 1.7])[0]
        assert np.max(np.abs(outs[0] - u0)) < 1e-13  # unfiltered initial data
        assert np.max(np.abs(outs[1] - np.cos(k * 1.7) * u0)) < 1e-12

    def test_classical_limit_order_one(self):
        _, model = laminate_model(1)
        box = TorusGrid(1, 512, 16.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 16.0
        u0 = np.sin(k * x)
        num, den = wave.mode_symbol(model, 0.25, box_wavevectors(box), gamma=0.0)
        out = spectral_wave_state(1.0, np.sqrt(num / den), u0, box, [1.1])[0][0]
        ref = np.cos(np.sqrt(1.6) * k * 1.1) * u0
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_negative_symbol_raises(self):
        model = dispersion.DispersionModel(
            dim=1, ell=4,
            polys=[np.array([1.0]), np.array([0.0]), np.array([1.0]),
                   np.array([0.0])],
            directions=np.array([[1.0]]), Gamma_bar=1.0)
        box = TorusGrid(1, 256, 8.0)
        with pytest.raises(wave.PositivityError):
            wave.mode_symbol(model, 1.0, box_wavevectors(box), gamma=0.0)


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
        box = TorusGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 8.0
        u0 = np.sin(k * x)
        num, den = wave.mode_symbol(model, 0.25, box_wavevectors(box), bt=bt)
        outs = spectral_wave_state(1.0, np.sqrt(num / den), u0, box, [0.0, 1.2])[0]
        assert np.max(np.abs(outs[0] - u0)) < 1e-13
        assert np.max(np.abs(outs[1] - np.cos(k * 1.2) * u0)) < 1e-12

    def test_frequency_nonnegative(self):
        _, model = laminate_model(4)
        bt = boussinesq_decomposition(model)
        k = np.linspace(0.01, 50.0, 500).reshape(1, -1)
        num, den = wave.mode_symbol(model, 0.25, k, bt=bt)
        assert np.min(num / den) >= 0.0


class TestSourceTerm:
    def test_zero_source_gives_zero(self):
        _, model = laminate_model(2)
        box = TorusGrid(1, 256, 8.0)
        u, ut = source_term_field(model, np.zeros(box.shape), box, 0.25, [2.0])
        assert np.max(np.abs(u)) == 0.0 and np.max(np.abs(ut)) == 0.0

    def test_source_shape_checked(self):
        _, model = laminate_model(2)
        box = TorusGrid(1, 256, 8.0)
        with pytest.raises(ConfigurationError, match="source shape"):
            source_term_field(model, np.zeros(255), box, 0.25, [2.0])

    def test_single_mode_closed_form(self):
        model = identity_model(kmax_cap=100.0)
        box = TorusGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 8.0
        f_field = np.sin(k * x)
        t = 2.5
        (u,), (ut,) = (torus.irfftn(box, half) for half in
                       source_term_field(model, f_field, box, 0.25, [t]))
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
        box = TorusGrid(1, 256, 8.0)
        x = box_coordinates(box)[0]
        f_field = np.sin(2 * np.pi * x / 8.0)
        bc = BoxCorrectors.from_tensorized(tens, box, 0.25)
        (u_hat,), _ = source_term_field(model, f_field, box, 0.25, [2.0])
        u_plain = torus.irfftn(box, u_hat)
        u_drs = dress_with_correctors(bc, torus.DerivativeCache(box, u_hat))
        assert np.max(np.abs(u_plain - u_drs)) < 1e-12


class TestErrorReport:
    def test_self_comparison_is_zero(self):
        box = TorusGrid(1, 128, 8.0)
        x = box_coordinates(box)[0]
        u0 = np.sin(2 * np.pi * x / 8.0)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box, u0,
                               times=[0.5, 1.0])
        rep = error_report(traj, traj.u.copy(), ErrorBudget(ell=2), 0.25)
        assert np.all(rep.l2_error == 0.0)
        assert rep.sup_l2 == 0.0

    def test_displacement_only_reference_needs_a_velocity(self):
        # the exact solver returns no velocity: an energy-norm report says so
        box = TorusGrid(1, 512, 8.0)
        u0 = np.exp(-(box_coordinates(box)[0] - 4.0) ** 2)
        traj = solve_fine_wave_exact(np.ones((1, 1) + box.shape), box, u0,
                                     [0.5, 1.0], 1 / 4)
        with pytest.raises(ConfigurationError, match="reference velocity"):
            error_report(traj, traj.u, ErrorBudget(ell=2), 0.25,
                         approx_v=np.zeros_like(traj.u),
                         approx_grad=np.zeros_like(traj.u))
        rep = error_report(traj, traj.u.copy(), ErrorBudget(ell=2), 0.25)
        assert rep.sup_l2 == 0.0 and rep.energy_error is None

    def test_budget_formula(self):
        budget = ErrorBudget(ell=2)
        t = np.array([0.0, 1.0, 4.0])
        assert np.allclose(budget.curve(0.5, t), 0.5 + 0.25 * t)

    def test_mu_envelope_invariants(self):
        budget = ErrorBudget(ell=2, alpha=(0.5, 1.0))
        assert budget.mu(0.0) >= 1.0
        t = np.linspace(0.0, 50.0, 200)
        assert np.all(np.diff(budget.mu(t)) >= 0.0)
