"""Truncated Bloch dispersion: eigenvalues, cutoff, waves, eigendefects."""

import dataclasses

import numpy as np
import pytest

from homwave import correctors, dispersion, oracle1d, torus
from homwave.dispersion import (
    DispersionModel,
    compute_kmax,
    cutoff,
    dispersion_Lambda,
    eigendefect,
    eigendefect_residual,
    eigenvalue,
    taylor_bloch_wave,
)

from conftest import LAMINATE, SMOOTH2D


def toy_model(lams, ell, dim=1):
    polys = [np.array([lam]) for lam in lams[:ell]]
    return DispersionModel(dim=dim, ell=ell, polys=polys,
                           directions=np.array([[1.0]]))


class TestEigenvalue:
    def test_identity_medium(self):
        m = toy_model([1.0], 1)
        assert eigenvalue(m, np.array([0.5])) == pytest.approx(0.25)

    def test_dispersive_polynomial(self):
        m = toy_model([1.0, 0.0, 1.0], 3)
        assert eigenvalue(m, np.array([0.5])) == pytest.approx(0.1875)

    def test_zero_wavevector(self):
        m = toy_model([1.0, 0.0, 1.0], 3)
        assert eigenvalue(m, np.array([0.0])) == 0.0

    def test_parity(self):
        m = toy_model([1.3, 0.0, 0.2], 3)
        k = np.array([0.37])
        assert eigenvalue(m, k) == eigenvalue(m, -k)

    def test_truncation_pairs_coincide(self):
        # adding an odd level never changes the even-only sum
        lams = [1.0, 0.0, 0.7, 0.0]
        m3 = toy_model(lams, 3)
        m4 = toy_model(lams, 4)
        k = np.array([0.4])
        assert eigenvalue(m3, k) == eigenvalue(m4, k)

    def test_value_is_real_scalar(self):
        m = toy_model([1.0, 0.0, 1.0], 3)
        assert isinstance(eigenvalue(m, np.array([0.3])), float)


class TestKmax:
    def test_constant_hits_cap(self):
        m = toy_model([1.0], 1)
        assert compute_kmax(m, 1.0) == 1.0

    def test_dispersive_root(self):
        m = toy_model([1.0, 0.0, 1.0], 4)
        assert compute_kmax(m, 1.0) == pytest.approx(np.sqrt(3) / 2, abs=1e-9)

    def test_cap_clips(self):
        m = toy_model([1.0, 0.0, 1.0], 4)
        assert compute_kmax(m, 0.5) == 0.5

    def test_root_is_exact(self):
        # deficit 3/4 - u: the radius is sqrt(3)/2 to rounding
        m = toy_model([1.0, 0.0, 1.0], 4)
        assert compute_kmax(m, 1.0) == pytest.approx(np.sqrt(3) / 2, rel=1e-15)

    def test_narrow_dip_is_found(self):
        # deficit (u - 0.5)(u - 0.5001): the eigenvalue drops below |k|^2 / 4
        # only on kappa in (0.70711, 0.70718), narrower than a grid scan's
        # step.  The pair's separation of 1e-4 conditions the root, so the
        # tolerance allows roundoff of about eps_mach / 1e-4 relative.
        m = toy_model([0.25 + 0.5 * 0.5001, 0.0, 0.5 + 0.5001, 0.0, 1.0, 0.0], 6)
        assert compute_kmax(m, 1.0) == pytest.approx(np.sqrt(0.5), rel=5e-12)


class TestCutoff:
    def test_plateau_and_decay(self):
        assert cutoff(0.8, 0.0) == 1.0
        assert cutoff(0.8, 0.39) == 1.0
        assert cutoff(0.8, 0.8) == 0.0
        assert cutoff(0.8, 5.0) == 0.0
        mid = cutoff(0.8, 0.6)
        assert 0.0 < mid < 1.0

    def test_monotone(self):
        r = np.linspace(0.0, 1.2, 400)
        vals = cutoff(1.0, r)
        assert np.all(np.diff(vals) <= 1e-14)

    def test_smooth_at_junctions(self):
        # numerically flat derivatives at the plateau edges
        for r0 in (0.5, 1.0):
            h = 1e-4
            d1 = (cutoff(1.0, r0 + h) - cutoff(1.0, r0 - h)) / (2 * h)
            assert abs(d1) < 1e-3


class TestLambda:
    def test_identity_medium_is_linear(self):
        m = toy_model([1.0], 1)
        k = np.array([0.3])
        assert dispersion_Lambda(m, k) == pytest.approx(0.3)

    def test_value(self):
        m = toy_model([1.0, 0.0, 1.0], 3)
        assert dispersion_Lambda(m, np.array([0.5])) == pytest.approx(
            np.sqrt(0.1875))

    def test_even_in_k(self):
        m = toy_model([1.4, 0.0, 0.3], 3)
        for kappa in (0.1, 0.45):
            assert dispersion_Lambda(m, np.array([kappa])) == dispersion_Lambda(
                m, np.array([-kappa]))

    def test_negative_eigenvalue_raises(self):
        m = toy_model([1.0, 0.0, 50.0], 3)
        with pytest.raises(dispersion.PositivityError):
            dispersion_Lambda(m, np.array([1.0]))


@pytest.fixture(scope="module")
def laminate_hierarchy():
    grid = torus.TorusGrid(1, 512)
    a = torus.coefficient_from_spec(LAMINATE, grid)
    return correctors.build_hierarchy(a, [1.0], 2)


@pytest.fixture(scope="module")
def smooth_hierarchy_l3():
    grid = torus.TorusGrid(2, 32)
    a = torus.coefficient_from_spec(SMOOTH2D, grid)
    return correctors.build_hierarchy(a, [1.0, 0.0], 3)


class TestBlochWave:
    def test_kappa_zero_is_one(self, laminate_hierarchy):
        psi, lam = taylor_bloch_wave(laminate_hierarchy, 0.0)
        assert np.max(np.abs(psi - 1.0)) < 1e-14
        assert lam == 0.0

    def test_constant_medium_wave_is_one(self, grid2d):
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid2d)
        h = correctors.build_hierarchy(a, [1.0, 0.0], 2)
        psi, _ = taylor_bloch_wave(h, 0.7)
        assert np.max(np.abs(psi - 1.0)) < 1e-11

    def test_laminate_matches_oracle_assembly(self, laminate_hierarchy):
        kappa = 0.1
        prof = oracle1d.Profile1D(breakpoints=[0, 0.5, 1], values=[1.0, 4.0])
        oh = oracle1d.correctors_1d(prof, 2)
        x = np.arange(512) / 512.0
        ref = 1.0 + 1j * kappa * oh.phi[1](x) - kappa ** 2 * oh.phi[2](x)
        got, lam = taylor_bloch_wave(laminate_hierarchy, kappa)
        assert np.sqrt(np.mean(np.abs(got - ref) ** 2)) < 2e-4  # field Gibbs floor
        # eigenvalue agrees at solver tolerance
        assert lam == pytest.approx(kappa ** 2 * 1.6, rel=1e-10)


class TestEigendefect:
    def test_constant_medium_vanishes(self, grid2d):
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid2d)
        h = correctors.build_hierarchy(a, [1.0, 0.0], 2)
        defect = eigendefect(h, 0.3)
        assert np.max(np.abs(defect)) < 1e-10

    def test_kappa_zero_is_pure_divergence(self, smooth_hierarchy_l3):
        h = smooth_hierarchy_l3
        defect = eigendefect(h, 0.0)
        grid = h.grid
        ae = np.einsum("mn...,n->m...", h.a.values, h.direction)
        sig_e = np.einsum("mn...,n->m...", h.sigma[3], h.direction)
        vec = -sig_e + ae * h.phi[3] + torus.gradient_values(grid, h.chi[3])
        ref = torus.divergence_values(grid, vec)
        assert np.max(np.abs(defect - ref)) < 1e-14

    def test_residual_contract_smooth(self, smooth_hierarchy_l3):
        assert eigendefect_residual(smooth_hierarchy_l3, 0.3) < 1e-8

    def test_residual_decays_under_refinement(self):
        res = {}
        for n in (32, 64):
            grid = torus.TorusGrid(2, n)
            a = torus.coefficient_from_spec(SMOOTH2D, grid)
            h = correctors.build_hierarchy(a, [1.0, 0.0], 2)
            res[n] = eigendefect_residual(h, 0.3, refine=2)
        assert res[64] < res[32] / 10.0

    def test_gauge_invariance_in_chi(self, smooth_hierarchy_l3):
        h = smooth_hierarchy_l3
        shifted = dataclasses.replace(h, chi=h.chi[:-1] + [h.chi[-1] + 0.37])
        r0 = eigendefect_residual(h, 0.25)
        r1 = eigendefect_residual(shifted, 0.25)
        assert abs(r0 - r1) < 1e-12

    def test_laminate_defect_finite_and_residual_recorded(self, laminate_hierarchy):
        res = eigendefect_residual(laminate_hierarchy, 0.2)
        assert np.isfinite(res)
        assert res < 1e-7  # 1D: no aliasing obstruction at this order


class TestModelKmax:
    def test_set_on_construction(self, laminate_hierarchy):
        model = correctors.reconstruct_dispersion(laminate_hierarchy.a, 4,
                                                  kmax_cap=20.0)
        assert isinstance(model.kmax, float)
        assert model.kmax == compute_kmax(model, 20.0)
        assert 0.0 < model.kmax < 20.0  # the ell = 4 laminate bends down
        oh = oracle1d.correctors_1d(oracle1d.profile_from_spec(LAMINATE), 4)
        m = DispersionModel.from_oracle(oh, 4)
        assert m.kmax == compute_kmax(m, 1.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(torus.ConfigurationError, match="cap"):
            DispersionModel(dim=1, ell=1, polys=[np.array([1.0])],
                            directions=np.array([[1.0]]), kmax_cap=0.0)
        # below lambda_0 = 1/4 no radius has eigenvalue >= |k|^2 / 4
        with pytest.raises(torus.ConfigurationError, match="kmax must be positive"):
            toy_model([0.1], 1)
