"""Effective elliptic equations, expansions, and representation identities."""

import numpy as np
import pytest

from homwave import correctors, dispersion, elliptic, oracle1d, torus, wave
from homwave.elliptic import (
    elliptic_error_sweep_1d,
    elliptic_error_sweep_spectral,
    prepared_rhs,
    residuum_identities,
    solve_boussinesq_elliptic,
    solve_fine_elliptic,
    solve_homogenized_elliptic,
    two_scale_expansion,
)
from homwave.torus import SolvabilityError
from homwave.wave import BoxCorrectors, BoxGrid, box_coordinates

from conftest import LAMINATE, SMOOTH2D


LAM_PROFILE = oracle1d.Profile1D(breakpoints=[0, 0.5, 1], values=[1.0, 4.0])


def laminate_model(ell):
    oh = oracle1d.correctors_1d(LAM_PROFILE, max(ell, 2))
    return oh, dispersion.DispersionModel.from_oracle(oh, ell)


class TestFineElliptic:
    def test_identity_single_mode(self):
        box = BoxGrid(1, 256, 4.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 4.0
        rhs = np.sin(k * x)
        u = solve_fine_elliptic(np.ones((1, 1) + box.shape), box, rhs)
        assert np.max(np.abs(u - rhs / k ** 2)) < 1e-11

    def test_zero_rhs(self):
        box = BoxGrid(1, 64, 1.0)
        u = solve_fine_elliptic(np.ones((1, 1) + box.shape), box,
                                np.zeros(box.shape))
        assert np.all(u == 0.0)

    def test_residual_contract(self):
        box = BoxGrid(1, 512, 2.0)
        a_box = wave.coefficient_on_box(LAMINATE, box, 0.125)
        x = box_coordinates(box)[0]
        rhs = np.sin(2 * np.pi * x / 2.0)
        u = solve_fine_elliptic(a_box, box, rhs)
        cf = torus.CoefficientField(box.torus(), a_box)
        res = torus.apply_div_a_grad(cf, u) - rhs
        assert np.sqrt(np.mean(res ** 2)) / np.sqrt(np.mean(rhs ** 2)) < 1e-10

    def test_nonzero_mean_rejected(self):
        box = BoxGrid(1, 64, 1.0)
        with pytest.raises(SolvabilityError):
            solve_fine_elliptic(np.ones((1, 1) + box.shape), box,
                                np.ones(box.shape))


class TestHomogenizedElliptic:
    def test_classical_single_mode(self):
        _, model = laminate_model(1)
        box = BoxGrid(1, 256, 4.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 4.0
        f = np.sin(k * x)
        u = solve_homogenized_elliptic(model, 0.0, f, box, 0.25, 1)
        assert np.max(np.abs(u - f / (1.6 * k ** 2))) < 1e-12

    def test_low_order_symbol_has_no_regularization(self):
        _, model = laminate_model(2)
        k = wave.box_wavevectors(BoxGrid(1, 64, 4.0))
        sym = wave.effective_symbol(model, 0.0, 0.25, 2, k)
        assert np.allclose(sym, 1.6 * np.sum(k ** 2, axis=0))

    def test_linearity(self):
        _, model = laminate_model(2)
        box = BoxGrid(1, 256, 4.0)
        x = box_coordinates(box)[0]
        f = np.sin(2 * np.pi * x / 4.0) + 0.3 * np.sin(4 * np.pi * x / 4.0)
        u1 = solve_homogenized_elliptic(model, 0.0, f, box, 0.25, 2)
        u2 = solve_homogenized_elliptic(model, 0.0, 2.0 * f, box, 0.25, 2)
        assert np.max(np.abs(u2 - 2.0 * u1)) < 1e-13


class TestBoussinesqElliptic:
    def test_zero_tensors_reduce_to_classical(self):
        model = dispersion.DispersionModel(
            dim=1, ell=3,
            polys=[np.array([1.0]), np.array([0.0]), np.array([0.0])],
            directions=np.array([[1.0]]), Gamma_bar=1.0)
        bt = wave.boussinesq_decomposition(model)
        box = BoxGrid(1, 256, 4.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 4.0
        f = np.sin(k * x)
        u = solve_boussinesq_elliptic(model, bt, f, box, 0.25)
        assert np.max(np.abs(u - f / k ** 2)) < 1e-12

    def test_single_mode_ratio(self):
        oh, model = laminate_model(3)
        bt = wave.boussinesq_decomposition(model)
        box = BoxGrid(1, 256, 4.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 4.0
        eps = 0.25
        f = np.sin(k * x)
        u = solve_boussinesq_elliptic(model, bt, f, box, eps)
        expect = (1 + eps ** 2 * bt.beta * k ** 2) / (
            oh.lambdas[0] * k ** 2 + eps ** 2 * float(bt.c_coeffs[0]) * k ** 4)
        assert np.max(np.abs(u - expect * f)) < 1e-12

    def test_small_eps_limit(self):
        oh, model = laminate_model(3)
        bt = wave.boussinesq_decomposition(model)
        box = BoxGrid(1, 512, 4.0)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 4.0
        f = np.sin(k * x)
        classical = f / (oh.lambdas[0] * k ** 2)
        gaps = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            u = solve_boussinesq_elliptic(model, bt, f, box, eps)
            gaps.append(np.max(np.abs(u - classical)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-3 * np.max(np.abs(classical))


class TestPreparedRhsAndExpansion:
    def test_constant_medium_returns_f(self):
        grid = torus.TorusGrid(1, 64)
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid)
        tens = correctors.tensorize_correctors(a, 2)
        box = BoxGrid(1, 512, 2.0)
        bc = BoxCorrectors.from_tensorized(tens, box, 0.125)
        x = box_coordinates(box)[0]
        f = np.sin(2 * np.pi * x / 2.0)
        assert np.max(np.abs(prepared_rhs(bc, f) - f)) < 1e-12

    def test_order_zero_returns_f(self):
        oh = oracle1d.correctors_1d(LAM_PROFILE, 2)
        box = BoxGrid(1, 512, 2.0)
        bc = BoxCorrectors.from_oracle(oh, box, 0.125)
        x = box_coordinates(box)[0]
        f = np.sin(2 * np.pi * x / 2.0)
        assert np.max(np.abs(prepared_rhs(bc, f, ell=0) - f)) < 1e-14

    def test_first_order_matches_manual(self):
        oh = oracle1d.correctors_1d(LAM_PROFILE, 1)
        box = BoxGrid(1, 512, 2.0)
        eps = 0.125
        bc = BoxCorrectors.from_oracle(oh, box, eps)
        x = box_coordinates(box)[0]
        k = 2 * np.pi / 2.0
        f = np.sin(k * x)
        manual = f + eps * oh.phi[1](np.mod(x / eps, 1.0)) * k * np.cos(k * x)
        assert np.max(np.abs(prepared_rhs(bc, f, ell=1) - manual)) < 1e-8

    def test_nonzero_mean_rejected(self):
        oh = oracle1d.correctors_1d(LAM_PROFILE, 1)
        box = BoxGrid(1, 512, 2.0)
        bc = BoxCorrectors.from_oracle(oh, box, 0.125)
        with pytest.raises(SolvabilityError):
            prepared_rhs(bc, np.ones(box.shape))

    def test_two_scale_trivia(self):
        grid = torus.TorusGrid(1, 64)
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid)
        tens = correctors.tensorize_correctors(a, 2)
        model = correctors.reconstruct_dispersion(a, 2)
        box = BoxGrid(1, 512, 2.0)
        bc = BoxCorrectors.from_tensorized(tens, box, 0.125)
        x = box_coordinates(box)[0]
        v = np.sin(2 * np.pi * x / 2.0)
        exp = two_scale_expansion(bc, model, v, 2)
        assert np.max(np.abs(exp.w - v)) < 1e-12
        assert np.max(np.abs(exp.s)) < 1e-10
        exp0 = two_scale_expansion(bc, model, v, 0)
        assert np.max(np.abs(exp0.w - v)) < 1e-14


@pytest.fixture(scope="module")
def smooth_setup():
    grid = torus.TorusGrid(2, 64)
    a = torus.coefficient_from_spec(SMOOTH2D, grid)
    hier = correctors.build_hierarchies(a, 2, correctors.default_directions(2, 2))
    model = correctors.reconstruct_dispersion(a, 2, hierarchies=hier)
    tens = correctors.tensorize_correctors(a, 2, hierarchies=hier)
    return a, model, tens


class TestResiduumIdentities:
    def test_constant_medium(self, grid2d):
        a = torus.coefficient_from_spec({"kind": "constant", "value": 2.0}, grid2d)
        hier = correctors.build_hierarchies(a, 2, correctors.default_directions(2, 2))
        model = correctors.reconstruct_dispersion(a, 2, hierarchies=hier)
        tens = correctors.tensorize_correctors(a, 2, hierarchies=hier)
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
        tens2 = correctors.TensorizedCorrectors(
            grid=tens.grid, dim=tens.dim, order=tens.order,
            directions=tens.directions, phi=tens.phi, sigma12=tens.sigma12,
            chi=shifted_chi, fit_residual=tens.fit_residual)
        rep1 = residuum_identities(a, tens2, model, v, 2)
        assert abs(rep0.full - rep1.full) < 1e-10

    def test_1d_laminate_reported(self):
        grid = torus.TorusGrid(1, 1024)
        a = torus.coefficient_from_spec(LAMINATE, grid)
        h = correctors.build_hierarchy(a, [1.0], 2)
        model = correctors.reconstruct_dispersion(a, 2, hierarchies=[h])
        tens = correctors.tensorize_correctors(a, 2, hierarchies=[h])
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
        h = correctors.build_hierarchy(a, [1.0], 2)
        model = correctors.reconstruct_dispersion(a, 2, hierarchies=[h])
        tens = correctors.tensorize_correctors(a, 2, hierarchies=[h])
        box = BoxGrid(1, 1024, 1.0)
        x = box_coordinates(box)[0]
        f = np.sin(2 * np.pi * x)
        st = elliptic_error_sweep_spectral(spec_tag, tens, model, 2,
                                           [1 / 16, 1 / 32], box, f)
        assert st.fitted_order > 1.7
