"""Corrector hierarchies: recursion, invariants, identities, tensors."""

import numpy as np
import pytest

from homwave import correctors, oracle1d, torus
from homwave.correctors import (
    build_hierarchy,
    half_circle_directions,
    hierarchy_invariants,
    reconstruct_dispersion,
    tensorize_correctors,
    verify_corrector_identities,
)

from conftest import LAMINATE, SMOOTH2D


class TestBuildHierarchy:
    def test_constant_identity_everything_vanishes(self, grid2d):
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid2d)
        h = build_hierarchy(a, [1.0, 0.0], 4)
        assert h.lambdas[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(h.lambdas[1:])) < 1e-12
        for j in range(1, 5):
            assert np.max(np.abs(h.phi[j])) < 1e-12
            assert np.max(np.abs(h.sigma[j])) < 1e-12
            assert np.max(np.abs(h.chi[j])) < 1e-12

    def test_cg_budget_exhausted_names_the_level(self, smooth2d_a, monkeypatch):
        monkeypatch.setattr(torus, "CG_MAXITER", 3)
        with pytest.raises(torus.ConvergenceError, match="at level 1") as err:
            build_hierarchy(smooth2d_a, [1.0, 0.0], 2)
        assert err.value.iterations == 3
        assert err.value.residual > torus.CG_TOL

    def test_constant_diagonal(self, grid2d):
        a = torus.coefficient_from_spec({"kind": "diagonal", "entries": [2.0, 3.0]},
                                        grid2d)
        h = build_hierarchy(a, [1.0, 0.0], 2)
        assert h.lambdas[0] == pytest.approx(2.0, abs=1e-12)
        assert np.max(np.abs(h.phi[1])) < 1e-12

    def test_laminate_harmonic_mean_and_odd_vanishing(self, laminate_a):
        h = build_hierarchy(laminate_a, [1.0], 2)
        assert h.lambdas[0] == pytest.approx(1.6, abs=1e-12)
        assert abs(h.lambdas[1]) < 1e-8 * h.lambdas[0]

    def test_direction_normalized(self, smooth2d_a):
        h1 = build_hierarchy(smooth2d_a, [2.0, 0.0], 1)
        h2 = build_hierarchy(smooth2d_a, [1.0, 0.0], 1)
        assert np.allclose(h1.phi[1], h2.phi[1])

    def test_order_consistency_bitwise(self, smooth2d_a):
        h4 = build_hierarchy(smooth2d_a, [1.0, 0.0], 4)
        h2 = build_hierarchy(smooth2d_a, [1.0, 0.0], 2)
        for j in range(3):
            assert np.array_equal(h4.phi[j], h2.phi[j])
            assert np.array_equal(h4.sigma[j], h2.sigma[j])
            assert np.array_equal(h4.chi[j], h2.chi[j])
        assert np.array_equal(h4.lambdas[:2], h2.lambdas)


@pytest.fixture(scope="module")
def smooth_hierarchy():
    # 64^2: the flux-exactness gap is Nyquist-line aliasing and needs the
    # production resolution to sit below its contract
    grid = torus.TorusGrid(2, 64)
    a = torus.coefficient_from_spec(SMOOTH2D, grid)
    return build_hierarchy(a, [1.0, 0.0], 4)


@pytest.fixture(scope="module")
def smooth_report():
    grid = torus.TorusGrid(2, 32)
    a = torus.coefficient_from_spec(SMOOTH2D, grid)
    return verify_corrector_identities(build_hierarchy(a, [1.0, 0.0], 5))


class TestInvariants:

    def test_structure_suite(self, smooth_hierarchy):
        inv = hierarchy_invariants(smooth_hierarchy)
        assert inv["skew_gap"] == 0.0
        assert inv["flux_exactness"] < 1e-9
        assert inv["q_nyquist"] < 1e-9
        assert inv["div_q"] < 1e-9
        assert inv["mean_q"] < 1e-12
        assert inv["mean_phi"] < 1e-12
        assert inv["mean_sigma"] < 1e-12
        assert inv["mean_chi"] < 1e-12
        assert inv["lambda0"] >= 1.0

    def test_under_resolved_flux_shows_on_the_nyquist_lines(self, smooth2d_a):
        # 32^2 does not resolve q_3 of the checkerboard: div sigma matches
        # q off the Nyquist lines to CG tolerance, and the unresolved share
        # of q is what fails
        inv = hierarchy_invariants(build_hierarchy(smooth2d_a, [1.0, 0.0], 3))
        assert inv["flux_exactness"] < 1e-10
        assert 1e-9 < inv["q_nyquist"] < 1e-8

    def test_1d_flux_vanishes(self, laminate_a):
        h = build_hierarchy(laminate_a, [1.0], 3)
        inv = hierarchy_invariants(h)
        assert inv["flux_exactness"] < 1e-8  # |q| itself, against flux scale


class TestIdentities:
    def test_constant_all_zero(self, grid2d):
        a = torus.coefficient_from_spec({"kind": "constant", "value": 2.0}, grid2d)
        rep = verify_corrector_identities(build_hierarchy(a, [0.0, 1.0], 3))
        assert rep.lambda2_def == pytest.approx(0.0, abs=1e-12)
        assert rep.lambda2_quadratic == pytest.approx(0.0, abs=1e-12)
        assert max(rep.pair_identity.values()) < 1e-12

    def test_odd_orders_vanish(self, smooth_report):
        assert max(smooth_report.odd_lambda.values()) < 1e-8

    def test_second_order_two_ways(self, smooth_report):
        assert smooth_report.lambda2_gap < 1e-8
        assert smooth_report.lambda2_quadratic >= -1e-10

    def test_fourth_order_reformulation(self, smooth_report):
        assert smooth_report.lambda4_gap < 1e-7

    def test_summation_identities(self, smooth_report):
        assert max(smooth_report.pair_identity.values()) < 1e-8
        assert max(smooth_report.step_identity.values()) < 1e-8

    def test_laminate_identities(self, laminate_a):
        # the quadratic-form route differentiates products of kinked fields,
        # so its gap is aliasing-limited on laminates and shrinks with the
        # grid; the exact-pipeline counterpart is checked in the 1D oracle
        rep = verify_corrector_identities(build_hierarchy(laminate_a, [1.0], 3))
        assert max(rep.odd_lambda.values()) < 1e-8
        assert rep.lambda2_gap < 5e-4
        assert rep.lambda2_quadratic >= -1e-10
        fine = torus.coefficient_from_spec(LAMINATE, torus.TorusGrid(1, 1024))
        rep_fine = verify_corrector_identities(build_hierarchy(fine, [1.0], 3))
        assert rep_fine.lambda2_gap < 0.2 * rep.lambda2_gap


class TestDispersionReconstruction:
    def test_constant_identity(self, grid2d):
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid2d)
        model = reconstruct_dispersion(a, 2)
        for e in ((1.0, 0.0), (0.6, 0.8)):
            val = model.poly_value(0, np.asarray(e).reshape(2, 1))[0]
            assert val == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(model.polys[1])) == 0.0

    def test_diagonal_quadratic_form(self, grid2d):
        a = torus.coefficient_from_spec({"kind": "diagonal", "entries": [2.0, 3.0]},
                                        grid2d)
        model = reconstruct_dispersion(a, 2)
        e = np.array([0.6, 0.8]).reshape(2, 1)
        assert model.poly_value(0, e)[0] == pytest.approx(2 * 0.36 + 3 * 0.64,
                                                          abs=1e-10)

    def test_heldout_direction(self, grid2d, smooth2d_a):
        model = reconstruct_dispersion(smooth2d_a, 3)
        e = np.array([np.cos(0.37), np.sin(0.37)])
        h = build_hierarchy(smooth2d_a, e, 3)
        fit = model.poly_value(2, e.reshape(2, 1))[0]
        assert abs(fit - h.lambdas[2]) / abs(h.lambdas[2]) < 1e-6

    def test_too_few_directions_rejected(self, smooth2d_a):
        dirs = correctors.default_directions(2, 3)[:3]
        with pytest.raises(torus.ConfigurationError):
            reconstruct_dispersion(smooth2d_a, 3, directions=dirs)


def assert_bitwise(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


class TestDirectionSampler:
    """The one half-circle sampler reproduces, bit for bit, the three angle
    sets it replaced; their formulas are kept here as the reference."""

    @pytest.mark.parametrize("ell", [2, 4])
    def test_default_equispaced(self, ell):
        m = 2 * ell + 4
        theta = np.arange(m) * np.pi / m
        ref = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        assert_bitwise(correctors.default_directions(2, ell), ref)
        assert_bitwise(half_circle_directions(2, m), ref)

    def test_cli_direction_count(self):
        n_dirs = 7
        ref = np.stack([np.cos(np.arange(n_dirs) * np.pi / n_dirs),
                        np.sin(np.arange(n_dirs) * np.pi / n_dirs)], axis=1)
        assert_bitwise(half_circle_directions(2, n_dirs), ref)

    def test_boussinesq_midpoints(self):
        n_directions = 64
        theta = (np.arange(n_directions) + 0.5) * np.pi / n_directions
        ref = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        assert_bitwise(half_circle_directions(2, n_directions, offset=0.5), ref)

    def test_one_dimension(self):
        ref = np.array([[1.0]])
        assert_bitwise(correctors.default_directions(1, 4), ref)
        for n, offset in ((7, 0.0), (64, 0.5)):
            assert_bitwise(half_circle_directions(1, n, offset=offset), ref)


class TestTensorizedCorrectors:
    def test_zeroth_is_one(self, smooth2d_a):
        tens = tensorize_correctors(smooth2d_a, 1)
        assert np.allclose(tens.phi[0][0], 1.0, atol=1e-12)

    def test_constant_coefficients_zero_tensors(self, grid2d):
        a = torus.coefficient_from_spec({"kind": "constant", "value": 1.0}, grid2d)
        tens = tensorize_correctors(a, 2)
        assert np.max(np.abs(tens.phi[1])) < 1e-12
        assert np.max(np.abs(tens.phi[2])) < 1e-12

    def test_laminate_level1_matches_oracle(self, laminate_a):
        tens = tensorize_correctors(laminate_a, 1)
        prof = oracle1d.Profile1D(breakpoints=[0, 0.5, 1], values=[1.0, 4.0])
        oh = oracle1d.correctors_1d(prof, 1)
        x = np.arange(laminate_a.grid.n) * laminate_a.grid.h
        gap = np.sqrt(np.mean((tens.phi[1][0] - oh.phi[1](x)) ** 2))
        assert gap < 2e-3  # interface-aliasing-limited at this grid

    def test_heldout_direction_field(self, smooth2d_a):
        tens = tensorize_correctors(smooth2d_a, 2)
        e = np.array([np.cos(1.1), np.sin(1.1)])
        h = build_hierarchy(smooth2d_a, e, 2)
        recon = tens.in_direction(e).phi[2]
        rel = (np.sqrt(np.mean((recon - h.phi[2]) ** 2))
               / np.sqrt(np.mean(h.phi[2] ** 2)))
        assert rel < 1e-6

    def test_one_dimensional_direction_sign(self, laminate_a):
        tens = tensorize_correctors(laminate_a, 3)
        h = tens.in_direction([-1.0])
        for j in range(4):
            assert np.array_equal(h.phi[j], tens.phi[j][0] * (-1.0) ** j)


class TestMonomialBuild:
    """The monomial build against the per-direction recursion it shares."""

    @pytest.fixture(scope="class")
    def smooth64(self):
        return torus.coefficient_from_spec(SMOOTH2D, torus.TorusGrid(2, 64))

    def test_contraction_matches_per_direction_builds(self, smooth64):
        tens = tensorize_correctors(smooth64, 4)
        tol = 10 * torus.CG_TOL

        def gap(x, y):
            return np.max(np.abs(x - y)) / max(np.max(np.abs(x)), 1e-300)

        for e in half_circle_directions(2, 12):
            cold = build_hierarchy(smooth64, e, 4)
            h = tens.in_direction(e)
            assert np.max(np.abs(h.lambdas - cold.lambdas)) <= tol * cold.lambdas[0]
            for j in range(1, 5):
                assert gap(cold.phi[j], h.phi[j]) <= tol
                assert gap(cold.sigma[j], h.sigma[j]) <= tol
                assert gap(cold.chi[j], h.chi[j]) <= tol

    def test_first_axis_build_is_coefficient_zero(self, smooth2d_a):
        # e1^k is the only monomial that does not vanish at e = (1, 0), and
        # coefficient 0 of a product needs coefficient 0 of its factors only
        tens = tensorize_correctors(smooth2d_a, 3)
        h = build_hierarchy(smooth2d_a, [1.0, 0.0], 3)
        assert h.cg_iterations == [its[0] for its in tens.cg_iterations]
        for j in range(4):
            assert np.array_equal(h.phi[j], tens.phi[j][0])
            assert np.array_equal(h.sigma[j][0, 1], tens.sigma12[j][0])
            assert np.array_equal(h.chi[j], tens.chi[j][0])
        assert np.array_equal(h.lambdas,
                              [lam[0] for lam in tens.lambdas])

    def test_one_dimensional_parity(self, laminate_a):
        # phi_j is homogeneous of degree j in e = +-1
        plus = build_hierarchy(laminate_a, [1.0], 4)
        minus = build_hierarchy(laminate_a, [-1.0], 4)
        for j in range(5):
            assert np.max(np.abs(minus.phi[j] - (-1) ** j * plus.phi[j])) <= (
                10 * torus.CG_TOL * np.max(np.abs(plus.phi[j])))

    def test_one_solve_call_per_level(self, smooth2d_a, monkeypatch):
        # the j + 1 coefficients of phi_j share one operator and one
        # coarse-grid start, so each level is one stacked solve
        shapes = []
        solve = correctors._pcg_div_a_grad

        def counted(a, rhs_hat):
            shapes.append(np.shape(rhs_hat))
            return solve(a, rhs_hat)

        monkeypatch.setattr(correctors, "_pcg_div_a_grad", counted)
        tens = tensorize_correctors(smooth2d_a, 3)
        grid = smooth2d_a.grid
        assert shapes == [(j + 1,) + grid.half_shape for j in (1, 2, 3)]
        assert [len(its) for its in tens.cg_iterations] == [2, 3, 4]
        assert all(start[8] == 0 for starts in tens.cg_coarse_iterations
                   for start in starts)

    def test_transform_budget(self, monkeypatch):
        # numpy.fft calls of the 32^2 checkerboard build at ell 3, floor
        # inverse included: 354 with every field held as its half spectrum
        # (389 when each level went back and forth between samples and
        # spectra, 784 with a solve per coefficient, each with its own
        # coarse ladder).  Counters are deterministic, so this is exact.
        calls, _ = count_transforms(monkeypatch)
        a = torus.coefficient_from_spec(SMOOTH2D, torus.TorusGrid(2, 32))
        tensorize_correctors(a, 3)
        assert len(calls) == 354

    def test_transformed_field_budget(self, monkeypatch):
        # the same build and the correctors kind's checks, counted in fields
        # per grid size rather than in calls, so that stacking cannot hide
        # work: 555 fields at 32^2 (700 when the build and the checks turned
        # their fields back and forth between samples and spectra), and the
        # coarse ladder's 520 at 16^2 and 506 at 8^2, floor inverse included
        _, fields = count_transforms(monkeypatch)
        a = torus.coefficient_from_spec(SMOOTH2D, torus.TorusGrid(2, 32))
        h0 = tensorize_correctors(a, 3).in_direction(
            correctors.default_directions(2, 3)[0])
        hierarchy_invariants(h0)
        verify_corrector_identities(h0)
        assert fields == {32: 555, 16: 520, 8: 506}


def count_transforms(monkeypatch):
    """Count every numpy.fft call: a list with one entry per call, and the
    fields transformed per points per axis (the package passes ``axes``)."""
    calls, fields = [], {}
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2",
                 "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _orig=getattr(np.fft, name), **kwargs):
            calls.append(1)
            shape, axes = np.shape(args[0]), kwargs["axes"]
            n = kwargs["s"][0] if "s" in kwargs else shape[axes[0]]
            fields[n] = fields.get(n, 0) + int(np.prod(shape[:axes[0]]))
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls, fields


def sample_invariants(h) -> dict:
    """``hierarchy_invariants`` by its sample formulas: every mean, norm,
    divergence and Nyquist part taken on the samples the hierarchy hands
    out, with a forward transform wherever one is needed."""
    grid = h.grid
    d = grid.dim
    phi, sigma, chi, q = list(h.phi), list(h.sigma), list(h.chi), list(h.q)
    e_col = h.direction.reshape((d,) + (1,) * d)

    def mean(x):
        return float(np.max(np.abs(torus.mean_values(grid, x))))

    def nyquist_part(x):
        return torus.irfftn(grid, torus.rfftn(grid, x) * torus._nyquist_lines(grid))

    out = {"mean_phi": 0.0, "mean_sigma": 0.0, "mean_chi": 0.0, "mean_q": 0.0,
           "div_q": 0.0, "flux_exactness": 0.0, "q_nyquist": 0.0,
           "skew_gap": 0.0, "lambda0": float(h.lambdas[0])}
    for j in range(1, h.order + 1):
        out["mean_phi"] = max(out["mean_phi"], mean(phi[j]))
        out["mean_sigma"] = max(out["mean_sigma"], mean(sigma[j]))
        out["mean_chi"] = max(out["mean_chi"], mean(chi[j]))
        out["mean_q"] = max(out["mean_q"], mean(q[j]))
        a_grad_phi = torus._matvec(h.a.values, torus.gradient_values(grid, phi[j]))
        scale = max(torus.l2_norm(grid, a_grad_phi),
                    torus.l2_norm(grid, phi[j - 1] * torus._matvec(h.a.values, e_col)),
                    torus.l2_norm(grid, torus.gradient_values(grid, chi[j - 1])),
                    float(h.lambdas[0]))
        out["div_q"] = max(out["div_q"], torus.l2_norm(
            grid, torus.divergence_values(grid, q[j])) / scale)
        q_scale = torus.l2_norm(grid, q[j])
        if d == 1:
            out["flux_exactness"] = max(out["flux_exactness"], q_scale / scale)
        elif q_scale > 1e-12 * scale:
            div_sigma = np.stack([torus.divergence_values(grid, sigma[j][m])
                                  for m in range(d)])
            gap = div_sigma - q[j]
            out["flux_exactness"] = max(out["flux_exactness"], torus.l2_norm(
                grid, gap - nyquist_part(gap)) / q_scale)
            out["q_nyquist"] = max(out["q_nyquist"], torus.l2_norm(
                grid, nyquist_part(q[j])) / q_scale)
        out["skew_gap"] = max(out["skew_gap"], float(np.max(np.abs(
            sigma[j] + np.swapaxes(sigma[j], 0, 1)))))
    return out


def sample_identities(h) -> dict:
    """The values of ``verify_corrector_identities`` by its sample formulas,
    the gradients taken from the samples by a forward transform each."""
    grid = h.grid
    ell = h.order
    a_values = h.a.values
    e = h.direction
    eae = np.einsum("m,mn...,n->...", e, a_values, e)
    lam = h.lambdas
    lam0 = float(lam[0])
    phi = list(h.phi)
    grads = [torus.gradient_values(grid, p) for p in phi]
    agrads = [torus._matvec(a_values, g) for g in grads]

    def m(x):
        return float(torus.mean_values(grid, x))

    def dirichlet(i, j):
        return m(np.einsum("m...,m...->...", grads[i], agrads[j]))

    out = {}
    for j in range(1, ell):
        for l in range(j + 1, ell + 1):
            terms = [dirichlet(j, l), -m(phi[j - 1] * phi[l - 1] * eae),
                     dirichlet(j + 1, l - 1), -m(phi[j] * phi[l - 2] * eae)]
            corr = sum(lam[j - 1 - mm] * m(phi[l - 1] * phi[mm])
                       for mm in range(1, j))
            corr += sum(lam[l - 2 - mm] * m(phi[mm] * phi[j])
                        for mm in range(1, l - 1))
            scale = max([abs(t) for t in terms] + [abs(corr), lam0])
            out[("pair", j, l)] = abs(sum(terms) + corr) / scale
        lhs = dirichlet(j, j + 1) - m(phi[j - 1] * phi[j] * eae)
        rhs = -sum(lam[j - 1 - mm] * m(phi[mm] * phi[j]) for mm in range(1, j))
        out[("step", j)] = abs(lhs - rhs) / max(abs(dirichlet(j, j + 1)),
                                                abs(rhs), lam0)
    if ell >= 3:
        gw = torus.gradient_values(grid, phi[2] - 0.5 * phi[1] ** 2)
        out["lambda2_quadratic"] = m(np.einsum(
            "m...,m...->...", gw, torus._matvec(a_values, gw)))
    if ell >= 5:
        out["lambda4_reformulated"] = m(
            -np.einsum("m...,m...->...", grads[3], agrads[3])
            + phi[2] ** 2 * eae - lam0 * phi[2] ** 2 + float(lam[2]) * phi[1] ** 2)
    return out


class TestSpectralChecks:
    """The checks read the hierarchy's spectra (means from the zero mode,
    norms by Parseval); their sample formulas, kept above, agree."""

    @pytest.fixture(scope="class", params=["32-l3", "64-l5"])
    def hierarchy(self, request):
        # 32^2 at ell 3 is the under-resolved case the correctors kind
        # fails on q_nyquist alone; 64^2 at ell 5 a resolved one, in a
        # direction off the axes, with lambda_4
        if request.param == "32-l3":
            a = torus.coefficient_from_spec(SMOOTH2D, torus.TorusGrid(2, 32))
            return tensorize_correctors(a, 3).in_direction(
                correctors.default_directions(2, 3)[0])
        a = torus.coefficient_from_spec(SMOOTH2D, torus.TorusGrid(2, 64))
        return build_hierarchy(a, [np.cos(0.37), np.sin(0.37)], 5)

    def test_invariants_match_the_sample_formulas(self, hierarchy):
        # every invariant is a ratio to a scale of its level, a mean of
        # fields of unit size, or lambda_0, so agreement to 1e-12 in value
        # is agreement to 1e-12 relative to that scale
        got = hierarchy_invariants(hierarchy)
        ref = sample_invariants(hierarchy)
        assert got.keys() == ref.keys()
        for key in ref:
            assert abs(got[key] - ref[key]) <= 1e-12 * max(1.0, abs(ref[key])), key
        if hierarchy.grid.n == 32:
            assert 1e-9 < got["q_nyquist"] < 1e-8
            assert got["flux_exactness"] < 1e-10

    def test_identities_match_the_sample_formulas(self, hierarchy):
        rep = verify_corrector_identities(hierarchy)
        ref = sample_identities(hierarchy)
        got = {("pair",) + key: value for key, value in rep.pair_identity.items()}
        got.update({("step", j): value for j, value in rep.step_identity.items()})
        got["lambda2_quadratic"] = rep.lambda2_quadratic
        if hierarchy.order >= 5:
            got["lambda4_reformulated"] = rep.lambda4_reformulated
        assert got.keys() == ref.keys()
        for key in ref:
            assert abs(got[key] - ref[key]) <= 1e-12 * rep.lambda0, key


class TestParallelAndSerialization:
    def test_lambda_csv_rows(self, laminate_a):
        model = reconstruct_dispersion(laminate_a, 2)
        rows = correctors.lambda_table_rows(model)
        assert rows[0] == ("order", "degree", "monomial_coefficients")
        assert float(rows[1][2]) == pytest.approx(1.6, abs=1e-10)
