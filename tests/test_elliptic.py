"""Effective elliptic equations, expansions, and representation identities."""

import dataclasses

import numpy as np
import pytest

from homwave import correctors, dispersion, oracle1d, torus, wave
from homwave.elliptic import (
    elliptic_error_sweep_1d,
    elliptic_error_sweep_spectral,
    prepared_rhs,
    residuum_identities,
    solve_effective_elliptic,
)
from homwave.torus import ConfigurationError, SolvabilityError, TorusGrid
from homwave.wave import BoxCorrectors, box_coordinates

from conftest import LAMINATE, SMOOTH2D, anisotropic_model_2d, full_wavenumbers


LAM_PROFILE = oracle1d.Profile1D(breakpoints=[0, 0.5, 1], values=[1.0, 4.0])


def laminate_model(ell):
    oh = oracle1d.correctors_1d(LAM_PROFILE, max(ell, 2))
    return oh, dispersion.DispersionModel.from_oracle(oh, ell)


class TestFineElliptic:
    def test_identity_single_mode(self):
        box = TorusGrid(1, 256, 4.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 4.0
        rhs = np.sin(k * x)
        unit = torus.CoefficientField(box, np.ones((1, 1) + box.shape))
        u = torus.solve_elliptic(unit, rhs)
        assert np.max(np.abs(u - rhs / k ** 2)) < 1e-11

    def test_zero_rhs(self):
        box = TorusGrid(1, 64, 1.0)
        unit = torus.CoefficientField(box, np.ones((1, 1) + box.shape))
        u = torus.solve_elliptic(unit, np.zeros(box.shape))
        assert np.all(u == 0.0)

    def test_residual_contract(self):
        box = TorusGrid(1, 512, 2.0)
        a_box = wave.coefficient_on_box(LAMINATE, box, 0.125)
        x = box_coordinates(box)[0]
        rhs = np.sin(2 * np.pi * x / 2.0)
        cf = torus.CoefficientField(box, a_box)
        u = torus.solve_elliptic(cf, rhs)
        res = torus.apply_div_a_grad(cf, u) - rhs
        assert np.sqrt(np.mean(res ** 2)) / np.sqrt(np.mean(rhs ** 2)) < 1e-10

    def test_nonzero_mean_rejected(self):
        box = TorusGrid(1, 64, 1.0)
        unit = torus.CoefficientField(box, np.ones((1, 1) + box.shape))
        with pytest.raises(SolvabilityError):
            torus.solve_elliptic(unit, np.ones(box.shape))


class TestHomogenizedElliptic:
    def test_classical_single_mode(self):
        _, model = laminate_model(1)
        box = TorusGrid(1, 256, 4.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 4.0
        f = np.sin(k * x)
        u = solve_effective_elliptic(model, f, box, 0.25, gamma=0.0)
        assert np.max(np.abs(u - f / (1.6 * k ** 2))) < 1e-12

    def test_nonzero_mean_source_rejected(self):
        _, model = laminate_model(2)
        box = TorusGrid(1, 64, 4.0)
        with pytest.raises(SolvabilityError, match="source has mean"):
            solve_effective_elliptic(model, np.ones(box.shape), box, 0.25,
                                     gamma=0.0)

    def test_low_order_symbol_has_no_regularization(self):
        _, model = laminate_model(2)
        k = wave.box_wavevectors(TorusGrid(1, 64, 4.0))
        sym = wave.effective_symbol(model, 0.0, 0.25, k)
        assert np.allclose(sym, 1.6 * np.sum(k ** 2, axis=0))

    def test_linearity(self):
        _, model = laminate_model(2)
        box = TorusGrid(1, 256, 4.0)
        x = box_coordinates(box)[0]
        f = np.sin(2 * np.pi * x / 4.0) + 0.3 * np.sin(4 * np.pi * x / 4.0)
        u1 = solve_effective_elliptic(model, f, box, 0.25, gamma=0.0)
        u2 = solve_effective_elliptic(model, 2.0 * f, box, 0.25, gamma=0.0)
        assert np.max(np.abs(u2 - 2.0 * u1)) < 1e-13


def full_fft_effective_solve(model, f, box, eps, **operator):
    """Reference effective elliptic solve by the full complex FFT on the
    full mode lattice."""
    k = full_wavenumbers(box)
    num, den = wave.mode_symbol(model, eps, k, **operator)
    nz = np.sum(k ** 2, axis=0) > 0
    f_hat = np.fft.fftn(f)
    u_hat = np.zeros_like(f_hat)
    u_hat[nz] = f_hat[nz] * np.broadcast_to(den, num.shape)[nz] / num[nz]
    return np.fft.ifftn(u_hat).real


class TestHalfSpectrumSolve:
    @pytest.mark.parametrize("operator", ["regularized", "boussinesq"])
    def test_matches_full_fft_on_white_noise(self, rng, operator):
        # white noise carries content on the Nyquist lines of both axes
        model = anisotropic_model_2d()
        op = ({"gamma": wave.choose_gamma(model)}
              if operator == "regularized"
              else {"bt": wave.boussinesq_decomposition(model)})
        box = TorusGrid(2, 32, 8.0)
        f = rng.standard_normal(box.shape)
        f -= f.mean()
        u = solve_effective_elliptic(model, f, box, 0.25, **op)
        ref = full_fft_effective_solve(model, f, box, 0.25, **op)
        assert np.isrealobj(u)
        assert np.max(np.abs(u - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_mixed_symbol_differs_only_on_the_first_axis_nyquist_row(self, rng):
        # a k0 k1 term is even in k but not in k1 alone: on the row
        # k0 = -n/2 the half lattice evaluates the symbol at (-n/2, |k1|)
        # for both signs of k1, where the real part of the full-FFT solve
        # averages the two signs.  Everywhere else the solves agree.
        model = dispersion.DispersionModel(
            dim=2, ell=2, polys=[np.array([1.5, 0.6, 1.2]), np.zeros(4)],
            directions=correctors.half_circle_directions(2, 8), Gamma_bar=1.5)
        box = TorusGrid(2, 32, 8.0)
        f_hat = np.fft.fftn(rng.standard_normal(box.shape))
        f_hat[0, 0] = 0.0
        f = np.fft.ifftn(f_hat).real
        op = {"gamma": 0.0}
        gap = (solve_effective_elliptic(model, f, box, 0.25, **op)
               - full_fft_effective_solve(model, f, box, 0.25, **op))
        assert np.max(np.abs(gap)) > 1e-6
        f_hat[box.n // 2, :] = 0.0
        f = np.fft.ifftn(f_hat).real
        u = solve_effective_elliptic(model, f, box, 0.25, **op)
        ref = full_fft_effective_solve(model, f, box, 0.25, **op)
        assert np.max(np.abs(u - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestBoussinesqElliptic:
    def test_zero_tensors_reduce_to_classical(self):
        model = dispersion.DispersionModel(
            dim=1, ell=3,
            polys=[np.array([1.0]), np.array([0.0]), np.array([0.0])],
            directions=np.array([[1.0]]), Gamma_bar=1.0)
        bt = wave.boussinesq_decomposition(model)
        box = TorusGrid(1, 256, 4.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 4.0
        f = np.sin(k * x)
        u = solve_effective_elliptic(model, f, box, 0.25, bt=bt)
        assert np.max(np.abs(u - f / k ** 2)) < 1e-12

    def test_single_mode_ratio(self):
        oh, model = laminate_model(3)
        bt = wave.boussinesq_decomposition(model)
        box = TorusGrid(1, 256, 4.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 4.0
        eps = 0.25
        f = np.sin(k * x)
        u = solve_effective_elliptic(model, f, box, eps, bt=bt)
        expect = (1 + eps ** 2 * bt.beta * k ** 2) / (
            oh.lambdas[0] * k ** 2 + eps ** 2 * float(bt.c_coeffs[0]) * k ** 4)
        assert np.max(np.abs(u - expect * f)) < 1e-12

    def test_wave_symbol_inverts_elliptic_solve(self, rng):
        # the elliptic and wave Boussinesq solves share one symbol: the wave
        # propagator's omega^2 applied to the elliptic solution returns the
        # source on every nonzero mode
        _, model = laminate_model(4)
        bt = wave.boussinesq_decomposition(model)
        box = TorusGrid(1, 256, 4.0)
        eps = 0.25
        f = rng.standard_normal(box.shape)
        f -= f.mean()
        u = solve_effective_elliptic(model, f, box, eps, bt=bt)
        k = wave.box_wavevectors(box)
        num, den = wave.mode_symbol(model, eps, k, bt=bt)
        f_hat = torus.rfftn(box, f)
        back = num / den * torus.rfftn(box, u)
        nz = k[0] != 0.0
        gap = np.max(np.abs(back[nz] - f_hat[nz])) / np.max(np.abs(f_hat))
        assert gap < 1e-12

    def test_small_eps_limit(self):
        oh, model = laminate_model(3)
        bt = wave.boussinesq_decomposition(model)
        box = TorusGrid(1, 512, 4.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 4.0
        f = np.sin(k * x)
        classical = f / (oh.lambdas[0] * k ** 2)
        gaps = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            u = solve_effective_elliptic(model, f, box, eps, bt=bt)
            gaps.append(np.max(np.abs(u - classical)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-3 * np.max(np.abs(classical))


class TestPreparedRhsAndExpansion:
    def test_constant_medium_returns_f(self):
        grid = torus.TorusGrid(1, 64)
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid)
        tens = correctors.tensorize_correctors(a, 2)
        box = TorusGrid(1, 512, 2.0)
        bc = BoxCorrectors.from_tensorized(tens, box, 0.125)
        x = box_coordinates(box)[0]
        f = np.sin(2 * np.pi * x / 2.0)
        assert np.max(np.abs(prepared_rhs(bc, f) - f)) < 1e-12

    def test_order_zero_returns_f(self):
        oh = oracle1d.correctors_1d(LAM_PROFILE, 2)
        box = TorusGrid(1, 512, 2.0)
        bc = BoxCorrectors.from_oracle(oh, box, 0.125)
        x = box_coordinates(box)[0]
        f = np.sin(2 * np.pi * x / 2.0)
        assert np.max(np.abs(prepared_rhs(bc, f, ell=0) - f)) < 1e-14

    def test_first_order_matches_manual(self):
        oh = oracle1d.correctors_1d(LAM_PROFILE, 1)
        box = TorusGrid(1, 512, 2.0)
        eps = 0.125
        bc = BoxCorrectors.from_oracle(oh, box, eps)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 2.0
        f = np.sin(k * x)
        manual = f + eps * oh.phi[1](np.mod(x / eps, 1.0)) * k * np.cos(k * x)
        assert np.max(np.abs(prepared_rhs(bc, f, ell=1) - manual)) < 1e-8

    def test_order_beyond_correctors_rejected(self):
        oh = oracle1d.correctors_1d(LAM_PROFILE, 2)
        box = TorusGrid(1, 512, 2.0)
        bc = BoxCorrectors.from_oracle(oh, box, 0.125)
        f = np.sin(2 * np.pi * box_coordinates(box)[0] / 2.0)
        with pytest.raises(ConfigurationError, match="corrector order 2"):
            prepared_rhs(bc, f, ell=3)

    def test_nonzero_mean_rejected(self):
        oh = oracle1d.correctors_1d(LAM_PROFILE, 1)
        box = TorusGrid(1, 512, 2.0)
        bc = BoxCorrectors.from_oracle(oh, box, 0.125)
        with pytest.raises(SolvabilityError):
            prepared_rhs(bc, np.ones(box.shape))


@pytest.fixture(scope="module")
def smooth_setup():
    grid = torus.TorusGrid(2, 64)
    a = torus.coefficient_from_spec(SMOOTH2D, grid)
    tens = correctors.tensorize_correctors(a, 2)
    model = correctors.reconstruct_dispersion(a, 2, tensors=tens)
    return a, model, tens


class TestResiduumIdentities:
    def test_constant_medium(self, grid2d):
        a = torus.coefficient_from_spec({"kind": "constant", "value": 2.0}, grid2d)
        tens = correctors.tensorize_correctors(a, 2)
        model = correctors.reconstruct_dispersion(a, 2, tensors=tens)
        x, y = (np.broadcast_to(ax, grid2d.shape)
                for ax in grid2d.coordinate_axes())
        v = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        rep = residuum_identities(a, tens, model, v, 2)
        assert rep.full < 1e-12
        assert rep.raw < 1e-12
        assert rep.second_order < 1e-12

    def test_smooth_field_contract(self, smooth_setup):
        a, model, tens = smooth_setup
        grid = a.grid
        x, y = (np.broadcast_to(ax, grid.shape) for ax in grid.coordinate_axes())
        v = np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y) + 0.5 * np.cos(
            2 * np.pi * (x + y))
        rep = residuum_identities(a, tens, model, v, 2)
        assert rep.second_order < 1e-7
        assert rep.full < 1e-7
        assert rep.raw < 1e-7
        assert rep.full_vs_raw < 1e-7

    def test_gauge_invariance_in_chi(self, smooth_setup):
        a, model, tens = smooth_setup
        grid = a.grid
        x, y = (np.broadcast_to(ax, grid.shape) for ax in grid.coordinate_axes())
        v = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        rep0 = residuum_identities(a, tens, model, v, 2)
        shifted_chi = [c.copy() for c in tens.chi]
        shifted_chi[2] = shifted_chi[2] + 0.61  # constant shift, all monomials
        tens2 = dataclasses.replace(tens, chi=shifted_chi)
        rep1 = residuum_identities(a, tens2, model, v, 2)
        assert abs(rep0.full - rep1.full) < 1e-10

    def test_1d_laminate_reported(self):
        grid = torus.TorusGrid(1, 1024)
        a = torus.coefficient_from_spec(LAMINATE, grid)
        tens = correctors.tensorize_correctors(a, 2)
        model = correctors.reconstruct_dispersion(a, 2, tensors=tens)
        x = np.broadcast_to(grid.coordinate_axes()[0], grid.shape)
        v = np.sin(2 * np.pi * x)
        rep = residuum_identities(a, tens, model, v, 2)
        # Gibbs-limited for discontinuous coefficients: recorded, not tiny
        assert np.isfinite(rep.full)
        assert rep.full_vs_raw < 1e-6  # chi-rewriting is still near-exact


class TestRateStudies:
    def test_laminate_rates_smoke(self):
        st = elliptic_error_sweep_1d(LAM_PROFILE, 2, [1 / 4, 1 / 8],
                                     mode="prepared")
        assert st.fitted_order > 1.5

    def test_boussinesq_operator_variant(self):
        st = elliptic_error_sweep_1d(LAM_PROFILE, 3, [1 / 4, 1 / 8],
                                     mode="prepared", operator="boussinesq")
        assert st.fitted_order > 1.5

    def test_scaling_reduction_to_unit_eps(self):
        # solving at eps on [0, L) matches eps = 1 on [0, L/eps) rescaled
        eps, L = 0.25, 1.0
        a_box, _ = oracle1d.coefficient_on_box(LAM_PROFILE, eps, L)
        rhs = oracle1d.PiecewisePoly.from_callable(
            lambda x: np.sin(2 * np.pi * x / L), a_box.breaks, 14)
        u = oracle1d.solve_elliptic_box(LAM_PROFILE, eps, L, rhs)
        a_big, _ = oracle1d.coefficient_on_box(LAM_PROFILE, 1.0, L / eps)
        rhs_big = oracle1d.PiecewisePoly.from_callable(
            lambda y: np.sin(2 * np.pi * eps * y / L), a_big.breaks, 14)
        v = oracle1d.solve_elliptic_box(LAM_PROFILE, 1.0, L / eps, rhs_big)
        x = np.linspace(0, L * 0.999, 400)
        gap = np.max(np.abs(u(x) - eps ** 2 * v(x / eps)))
        assert gap < 1e-10

    def test_spectral_sweep_on_smooth_1d(self):
        grid = torus.TorusGrid(1, 128)
        spec_tag = {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0}
        a = torus.coefficient_from_spec(spec_tag, grid)
        tens = correctors.tensorize_correctors(a, 2)
        model = correctors.reconstruct_dispersion(a, 2, tensors=tens)
        box = TorusGrid(1, 1024, 1.0)
        x = box_coordinates(box)[0]
        f = np.sin(2 * np.pi * x)
        st = elliptic_error_sweep_spectral(spec_tag, tens, model,
                                           [1 / 16, 1 / 32], box, f)
        assert st.fitted_order > 1.7

    def test_boussinesq_fourth_order_sweep_with_coarse_cell(self):
        # a 32-point cell on a 1024-point box: at eps = 1/4 the fourth
        # derivative of f's transform roundoff would reach the Nyquist mode
        grid = torus.TorusGrid(1, 32)
        spec_tag = {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0}
        a = torus.coefficient_from_spec(spec_tag, grid)
        tens = correctors.tensorize_correctors(a, 4)
        model = correctors.reconstruct_dispersion(a, 4, tensors=tens)
        box = TorusGrid(1, 1024, 1.0)
        f = np.sin(2 * np.pi * box_coordinates(box)[0])
        st = elliptic_error_sweep_spectral(spec_tag, tens, model,
                                           [1 / 4, 1 / 8, 1 / 16], box, f,
                                           operator="boussinesq")
        assert np.all(np.diff(st.errors) < 0)
        assert st.fitted_order >= 3.8
