"""Spectral substrate: transforms, derivatives, Poisson and elliptic solves."""

import time

import numpy as np
import pytest

from homwave import dispersion, torus
from homwave.torus import (
    CoefficientField,
    ConfigurationError,
    SolvabilityError,
    TorusGrid,
    coefficient_from_spec,
    divergence_values,
    gradient_values,
    irfftn,
    mean_values,
    prolong_values,
    rfftn,
    solve_div_a_grad,
    solve_elliptic,
    solve_poisson_values,
)

from conftest import LAMINATE, SMOOTH2D, band_limited, full_wavenumbers


def full_derivative(grid, values, orders):
    """Reference derivative by the full complex FFT, Nyquist zeroed for odd
    orders; complex values stay complex."""
    mult = np.ones(grid.shape, dtype=complex)
    for ax, (k, m) in enumerate(zip(full_wavenumbers(grid), orders)):
        ikm = (1j * k) ** m
        if m % 2:
            nyq = [slice(None)] * grid.dim
            nyq[ax] = grid.n // 2
            ikm[tuple(nyq)] = 0.0
        mult = mult * ikm
    axes = tuple(range(-grid.dim, 0))
    return np.fft.ifftn(np.fft.fftn(values, axes=axes) * mult, axes=axes)


def derivative(grid, values, orders):
    """The derivative of per-axis ``orders`` the dressings read: from a
    ``DerivativeCache`` of the half spectrum."""
    return torus.DerivativeCache(grid, rfftn(grid, values)).get(orders)


def full_prolongation(grid, values, factor):
    """Reference zero-padded prolongation by the full complex FFT."""
    m = grid.n * factor
    S = torus._spread_matrix(grid.n, m)
    axes = tuple(range(-grid.dim, 0))
    spec = np.fft.fftn(values, axes=axes)
    if grid.dim == 1:
        out = np.einsum("ai,...i->...a", S, spec)
    else:
        out = np.einsum("ai,bj,...ij->...ab", S, S, spec)
    return np.fft.ifftn(out * float(factor) ** grid.dim, axes=axes)


class TestGridAndField:
    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            TorusGrid(3, 16)
        with pytest.raises(ConfigurationError):
            TorusGrid(1, 24)  # not a power of two
        with pytest.raises(ConfigurationError):
            TorusGrid(1, 4)   # too small

    def test_points_per_period(self):
        assert TorusGrid(1, 1024, 16.0).points_per_period(0.25) == 16
        # eps = h is one node per period: no floor on the count here
        assert TorusGrid(1, 64, 8.0).points_per_period(0.125) == 1

    def test_points_per_period_needs_eps_dividing_the_period(self):
        with pytest.raises(ConfigurationError, match="does not divide the period"):
            TorusGrid(1, 1024, 16.0).points_per_period(0.3)

    def test_points_per_period_needs_the_period_count_dividing_n(self):
        with pytest.raises(ConfigurationError,
                           match="6 periods do not divide 64 points"):
            TorusGrid(1, 64, 6.0).points_per_period(1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_l2_norm(self, dim, rng):
        # the L2 norm over the torus: a mode sin(2 pi x / L) has
        # |u|^2 = L^dim / 2, and on the unit cell the norm is the RMS
        box = TorusGrid(dim, 32, 8.0)
        x = box.coordinate_axes()[0]
        u = np.broadcast_to(np.sin(2 * np.pi * x / 8.0), box.shape)
        assert abs(torus.l2_norm(box, u) / np.sqrt(8.0 ** dim / 2) - 1) < 1e-14
        v = rng.standard_normal(TorusGrid(dim, 32).shape)
        assert torus.l2_norm(TorusGrid(dim, 32), v) == float(
            np.sqrt(np.mean(v ** 2)))


class TestSpectralTransform:
    def test_constant_has_single_zero_mode(self, grid1d):
        spec = rfftn(grid1d, np.ones(grid1d.shape))
        assert spec.shape == grid1d.half_shape
        assert abs(spec[0] - grid1d.n) < 1e-12
        assert np.max(np.abs(spec[1:])) < 1e-12

    def test_roundtrip(self, grid2d, rng):
        f = rng.standard_normal(grid2d.shape)
        back = irfftn(grid2d, rfftn(grid2d, f))
        rel = np.max(np.abs(back - f)) / np.max(np.abs(f))
        assert rel < 1e-13

    def test_real_input_hermitian_output(self, grid1d, rng):
        # the half spectrum is the nonnegative half of the Hermitian full
        # spectrum; the self-conjugate modes 0 and n/2 are real
        f = rng.standard_normal(grid1d.shape)
        spec = rfftn(grid1d, f)
        assert np.allclose(spec, np.fft.fft(f)[: grid1d.n // 2 + 1], atol=1e-10)
        assert abs(spec[0].imag) < 1e-10 and abs(spec[-1].imag) < 1e-10

    def test_single_mode_pair(self, grid1d):
        # the pair of modes +-1 is held once, at frequency 1
        x = grid1d.coordinate_axes()[0].ravel()
        spec = rfftn(grid1d, np.sin(2 * np.pi * x))
        live = np.nonzero(np.abs(spec) > 1e-9)[0]
        assert set(live) == {1}

    def test_half_lattice_wavenumbers(self, grid2d):
        k0, k1 = grid2d.wavenumber_axes()
        full = 2 * np.pi * np.fft.fftfreq(grid2d.n, 1.0 / grid2d.n)
        assert np.array_equal(k0.ravel(), full)
        assert np.array_equal(k1.ravel(), np.abs(full[: grid2d.n // 2 + 1]))
        assert torus._k_squared(grid2d).shape == grid2d.half_shape


class TestDerivative:
    def test_sin_derivative(self, grid1d):
        x = grid1d.coordinate_axes()[0].ravel()
        df = derivative(grid1d, np.sin(2 * np.pi * x), (1,))
        assert np.max(np.abs(df - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-12

    # (dim, degree, shift, coefficients, derivative multi-indices they weigh):
    # monomial r of degree j weighs d^(j-r)/dx0 d^r/dx1, plus one more
    # derivative along the shift axis
    CONTRACTIONS = [
        (1, 2, None, "fields", [[0, 0]]),
        (1, 2, 0, "fields", [[0, 0, 0]]),
        (2, 2, None, "fields", [[0, 0], [0, 1], [1, 1]]),
        (2, 2, 0, "fields", [[0, 0, 0], [0, 0, 1], [0, 1, 1]]),
        (2, 2, 1, "fields", [[0, 0, 1], [0, 1, 1], [1, 1, 1]]),
        (2, 3, 1, [1.5, 0.0, -0.5, 2.0], [[0, 0, 0, 1], [0, 0, 1, 1],
                                           [0, 1, 1, 1], [1, 1, 1, 1]]),
    ]

    def test_derivative_cache_matches_direct_derivatives(self, grid1d, grid2d,
                                                         rng):
        grids = {1: grid1d, 2: grid2d}
        for grid, orders in ((grid1d, (3,)), (grid2d, (2, 1))):
            f = band_limited(grid, rng)
            cache = torus.DerivativeCache(grid, rfftn(grid, f))
            # order zero is the inverse transform of the spectrum
            zero = cache.get((0,) * grid.dim)
            assert np.max(np.abs(zero - f)) <= 1e-14 * np.max(np.abs(f))
            d = cache.get(orders)
            assert np.array_equal(d, derivative(grid, f, orders))
            assert cache.get(orders) is d
        for dim, degree, shift, coeffs, multis in self.CONTRACTIONS:
            grid = grids[dim]
            f = band_limited(grid, rng)
            if coeffs == "fields":
                coeffs = rng.standard_normal((len(multis),) + grid.shape)
            ref = sum(c * derivative(grid, f, tuple(m.count(ax) for ax in range(dim)))
                      for c, m in zip(coeffs, multis))
            cache = torus.DerivativeCache(grid, rfftn(grid, f))
            assert np.array_equal(cache.contract(coeffs, degree, shift), ref)

    def test_laplacian_of_constant(self, grid2d):
        f = np.full(grid2d.shape, 3.5)
        out = divergence_values(grid2d, gradient_values(grid2d, f))
        assert np.max(np.abs(out)) < 1e-12

    def test_mixed_partials_commute(self, grid2d, rng):
        f = band_limited(grid2d, rng)
        d01 = derivative(grid2d, derivative(grid2d, f, (1, 0)), (0, 1))
        d10 = derivative(grid2d, derivative(grid2d, f, (0, 1)), (1, 0))
        assert np.max(np.abs(d01 - d10)) < 1e-10

    @pytest.mark.parametrize("multi", [[0], [1, 1], [0, 1]])
    def test_real_half_spectrum_matches_complex_path(self, grid2d, rng, multi):
        # white noise carries content on the Nyquist lines of both axes
        f = rng.standard_normal(grid2d.shape)
        orders = tuple(multi.count(ax) for ax in range(grid2d.dim))
        full = full_derivative(grid2d, f, orders).real
        half = derivative(grid2d, f, orders)
        assert np.isrealobj(half)
        assert np.max(np.abs(half - full)) <= 1e-13 * np.max(np.abs(full))
        # complex fields (the Bloch wave and its defect) go by parts
        z = f + 1j * rng.standard_normal(grid2d.shape)
        full = full_derivative(grid2d, z, orders)
        parts = dispersion._by_parts(derivative, grid2d, z, orders)
        assert np.max(np.abs(parts - full)) <= 1e-13 * np.max(np.abs(full))

    def test_integration_by_parts_is_exact(self, grid2d, rng):
        u = rng.standard_normal(grid2d.shape)
        v = rng.standard_normal(grid2d.shape)
        lhs = np.mean(u * derivative(grid2d, v, (1, 0)))
        rhs = np.mean(derivative(grid2d, u, (1, 0)) * v)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs + rhs) / scale < 1e-12

    def test_nyquist_part_is_the_content_no_divergence_reaches(self, grid2d, rng):
        x0, x1 = grid2d.coordinate_axes()
        smooth = band_limited(grid2d, rng)
        assert np.max(np.abs(nyquist_part(grid2d, smooth))) <= 1e-15
        # frequency n/2 along axis 0: wholly on a Nyquist line, and the
        # derivative along that axis is zero
        line = np.cos(np.pi * grid2d.n * x0) * (1.0 + np.sin(2 * np.pi * x1))
        assert np.max(np.abs(nyquist_part(grid2d, line) - line)) <= 1e-14
        assert not np.any(derivative(grid2d, line, (1, 0)))
        noise = rng.standard_normal(grid2d.shape)
        on = nyquist_part(grid2d, noise)
        assert np.max(np.abs(nyquist_part(grid2d, on) - on)) <= 1e-14
        assert np.max(np.abs(nyquist_part(grid2d, noise - on))) <= 1e-14


def nyquist_part(grid, values):
    """The part of real samples on the Nyquist lines ``torus._nyquist_lines``,
    the mask the corrector checks read: the sample-space reference."""
    return irfftn(grid, rfftn(grid, values) * torus._nyquist_lines(grid))


class TestPoisson:
    def test_single_mode(self, grid1d):
        x = grid1d.coordinate_axes()[0].ravel()
        rhs = np.cos(2 * np.pi * x)
        u, _ = solve_poisson_values(grid1d, rhs)
        assert np.max(np.abs(u - rhs / (4 * np.pi ** 2))) < 1e-13

    def test_zero_rhs(self, grid2d):
        u, _ = solve_poisson_values(grid2d, np.zeros(grid2d.shape))
        assert np.all(u == 0.0)

    def test_random_zero_mean_residual(self, grid2d, rng):
        rhs = band_limited(grid2d, rng)
        rhs -= rhs.mean()
        u, _ = solve_poisson_values(grid2d, rhs)
        res = -divergence_values(grid2d, gradient_values(grid2d, u)) - rhs
        assert np.sqrt(np.mean(res ** 2)) / np.sqrt(np.mean(rhs ** 2)) < 1e-12
        assert abs(u.mean()) < 1e-14

    def test_real_and_complex_paths_agree(self, grid2d, rng):
        # the half-spectrum solve against a full complex-FFT solve
        rhs = rng.standard_normal(grid2d.shape)
        u, mean = solve_poisson_values(grid2d, rhs)
        k2 = np.sum(full_wavenumbers(grid2d) ** 2, axis=0)
        inv = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
        uc = np.fft.ifftn(np.fft.fftn(rhs) * inv).real
        assert np.isrealobj(u)
        assert np.max(np.abs(u - uc)) <= 1e-13 * np.max(np.abs(u))
        assert mean == pytest.approx(rhs.mean(), abs=1e-15)

    def test_mean_recorded(self, grid1d):
        u, dropped = solve_poisson_values(grid1d, np.ones(grid1d.shape) * 2.0)
        assert abs(dropped - 2.0) < 1e-14
        assert np.max(np.abs(u)) < 1e-14

    def test_resolve_is_fixed_point(self, grid2d, rng):
        rhs = band_limited(grid2d, rng)
        rhs -= rhs.mean()
        u1, _ = solve_poisson_values(grid2d, rhs)
        u2, _ = solve_poisson_values(
            grid2d, -divergence_values(grid2d, gradient_values(grid2d, u1)))
        assert np.max(np.abs(u1 - u2)) < 1e-12 * np.max(np.abs(u1))


class TestVariableCoefficientSolve:
    def test_identity_constant_flux(self, grid2d):
        a = coefficient_from_spec({"kind": "constant", "value": 1.0}, grid2d)
        flux = np.zeros((2,) + grid2d.shape)
        flux[0] = 1.0
        phi, _, _ = solve_div_a_grad(a, flux)
        assert np.max(np.abs(phi)) < 1e-12

    def test_laminate_first_corrector_matches_oracle(self):
        # field values are interface-aliasing-limited (O(h)); the averaged
        # functionals agree to solver tolerance
        from homwave import oracle1d
        prof = oracle1d.Profile1D(breakpoints=[0, 0.5, 1], values=[1.0, 4.0])
        oh = oracle1d.correctors_1d(prof, 1)
        gaps = []
        for n in (512, 1024):
            grid = torus.TorusGrid(1, n)
            a = coefficient_from_spec(LAMINATE, grid)
            flux = a.values[:, 0, :] * 1.0  # a e with e = +1
            phi, _, _ = solve_div_a_grad(a, flux.reshape((1,) + grid.shape))
            x = np.arange(grid.n) * grid.h
            gaps.append(np.sqrt(np.mean((phi - oh.phi[1](x)) ** 2)))
            lam0 = (a.values[0, 0] * (gradient_values(grid, phi)[0] + 1.0)).mean()
            assert abs(lam0 - 1.6) < 1e-8
        assert gaps[1] < 1e-3
        assert gaps[1] < 0.6 * gaps[0]  # refines with the grid

    def test_weak_residual_contract(self, smooth2d_a, rng):
        flux = np.stack([band_limited(smooth2d_a.grid, rng),
                         band_limited(smooth2d_a.grid, rng)])
        phi, _, _ = solve_div_a_grad(smooth2d_a, flux)
        rhs = divergence_values(smooth2d_a.grid, flux)
        res = torus.apply_div_a_grad(smooth2d_a, phi) - rhs
        assert np.linalg.norm(res) / np.linalg.norm(rhs) < 1e-10

    def test_deterministic(self, smooth2d_a, rng):
        flux = np.stack([band_limited(smooth2d_a.grid, rng),
                         band_limited(smooth2d_a.grid, rng)])
        phi1, _, _ = solve_div_a_grad(smooth2d_a, flux)
        phi2, _, _ = solve_div_a_grad(smooth2d_a, flux)
        assert np.array_equal(phi1, phi2)

    def test_anisotropic_mean_coefficient(self, grid2d, rng):
        # an off-diagonal cell mean puts mixed terms into the preconditioner
        x, y = (np.broadcast_to(ax, grid2d.shape)
                for ax in grid2d.coordinate_axes())
        vals = np.zeros((2, 2) + grid2d.shape)
        vals[0, 0] = 3.0 + np.sin(2 * np.pi * x)
        vals[1, 1] = 3.0 + np.cos(2 * np.pi * y)
        vals[0, 1] = vals[1, 0] = 0.8 + 0.2 * np.sin(2 * np.pi * (x + y))
        a = CoefficientField(grid2d, vals)
        flux = np.stack([band_limited(grid2d, rng), band_limited(grid2d, rng)])
        phi, _, residual = solve_div_a_grad(a, flux)
        assert residual <= torus.CG_TOL
        rhs = divergence_values(grid2d, flux)
        res = torus.apply_div_a_grad(a, phi) - rhs
        assert np.linalg.norm(res) / np.linalg.norm(rhs) < 1e-10
        assert abs(phi.mean()) < 1e-15

    @staticmethod
    def _count_transforms(monkeypatch):
        """Route every numpy FFT through a recorder of (name, shape)."""
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2",
                     "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
            def counted(x, *args, _name=name, _orig=getattr(np.fft, name),
                        **kwargs):
                calls.append((_name, np.shape(x)))
                return _orig(x, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return calls

    @staticmethod
    def _per_grid(calls, dim):
        """Transforms per (name, points per axis), fields of a stack counted
        one by one; forward ones read samples, inverse ones half spectra."""
        out = {}
        for name, shape in calls:
            assert name in ("rfftn", "irfftn")
            n = shape[-dim]
            grid_shape = (n,) * dim
            half = grid_shape[:-1] + (n // 2 + 1,)
            assert shape[-dim:] == (grid_shape if name == "rfftn" else half)
            key = (name, n)
            out[key] = out.get(key, 0) + int(np.prod(shape[:-dim]))
        return out

    def test_pcg_runs_on_half_spectra(self, smooth2d_a, rng, monkeypatch):
        # per iteration on each grid: dim inverse and dim forward half-size
        # transforms, and as many for the residual of each start.  Besides,
        # on the fine grid: dim forward ones for the right-hand side and one
        # inverse for the solution; on the 8^2 floor, one inverse and one
        # forward around the direct start.  Restriction and prolongation
        # act on half spectra and take none.
        grid = smooth2d_a.grid
        d = grid.dim
        flux = np.stack([band_limited(grid, rng), band_limited(grid, rng)])
        assert smooth2d_a.direct_grid == 8  # the resolution tests run
        smooth2d_a.coarse.coarse.floor_inverse  # built once per field
        calls = self._count_transforms(monkeypatch)
        solved = solve_div_a_grad(smooth2d_a, flux)
        its = {grid.n: solved[1], **solved.coarse_iterations}
        assert sorted(its) == [8, 16, 32]
        assert its[8] == 0
        expected = {}
        for n, k in its.items():
            direct, fine = n == 8, n == grid.n
            expected[("rfftn", n)] = d * k + d + direct + fine * d
            expected[("irfftn", n)] = d * k + d + direct + fine
        assert self._per_grid(calls, d) == expected

    def test_floor_inverse_is_built_once(self, smooth2d_a, monkeypatch):
        # one stacked operator apply to the 64 unit fields, one inverse
        # transform of the result and one of the deflation projector
        floor = smooth2d_a.coarse.coarse
        N, d = floor.grid.n ** 2, floor.grid.dim
        calls = self._count_transforms(monkeypatch)
        inverse = floor.floor_inverse
        assert self._per_grid(calls, d) == {("rfftn", 8): N + d * N,
                                            ("irfftn", 8): d * N + 2 * N}
        assert floor.floor_inverse is inverse
        assert len(calls) == 5

    def test_pcg_cold_start_transforms(self, grid2d, rng, monkeypatch):
        # a laminate takes no coarse level: the cold solve, with its exact
        # transform counts
        a = coefficient_from_spec(LAMINATE, grid2d)
        flux = np.stack([band_limited(grid2d, rng), band_limited(grid2d, rng)])
        assert a.coarse is None  # the resolution test runs
        calls = self._count_transforms(monkeypatch)
        solved = solve_div_a_grad(a, flux)
        d = grid2d.dim
        assert solved.coarse_iterations == {}
        assert solved[1] > 0
        assert self._per_grid(calls, d) == {
            ("rfftn", grid2d.n): d * solved[1] + d,
            ("irfftn", grid2d.n): d * solved[1] + 1}

    def test_solve_elliptic_rejects_mean(self, smooth2d_a):
        with pytest.raises(SolvabilityError):
            solve_elliptic(smooth2d_a, np.ones(smooth2d_a.grid.shape))


def cold(monkeypatch):
    """Switch the coarse-grid start off: no coefficient is resolved."""
    monkeypatch.setattr(CoefficientField, "coarse", property(lambda self: None))


class TestCoarseStart:
    @pytest.mark.parametrize("n", [64, 128])
    def test_matches_cold_solve(self, n, rng, monkeypatch):
        grid = TorusGrid(2, n)
        a = coefficient_from_spec(SMOOTH2D, grid)
        flux = np.stack([band_limited(grid, rng), a.values[0, 0] * 1.0])
        phi, iterations, residual = solved = solve_div_a_grad(a, flux)
        assert sorted(solved.coarse_iterations) == [
            m for m in (8, 16, 32, 64) if m < n]
        assert residual <= torus.CG_TOL
        rhs = divergence_values(grid, flux)
        res = torus.apply_div_a_grad(a, phi) - rhs
        assert np.linalg.norm(res) / np.linalg.norm(rhs) <= torus.CG_TOL
        cold(monkeypatch)
        ref, cold_iterations, _ = solve_div_a_grad(
            coefficient_from_spec(SMOOTH2D, grid), flux)
        assert iterations < cold_iterations
        assert (np.linalg.norm(phi - ref)
                <= 10 * torus.CG_TOL * np.linalg.norm(ref))

    def test_solve_elliptic_takes_the_start(self, smooth2d_a, rng):
        rhs = band_limited(smooth2d_a.grid, rng)
        rhs -= rhs.mean()
        u = solve_elliptic(smooth2d_a, rhs)
        res = torus.apply_div_a_grad(smooth2d_a, u) - rhs
        assert np.linalg.norm(res) <= torus.CG_TOL * np.linalg.norm(rhs)

    def test_resolution(self, rng):
        ladder = []
        a = coefficient_from_spec(SMOOTH2D, TorusGrid(2, 128))
        while a is not None:
            ladder.append(a.grid.n)
            half = a.coarse
            if half is not None:
                assert np.array_equal(half.values, a.values[..., ::2, ::2])
            a = half
        assert ladder == [128, 64, 32, 16, 8]
        for dim in (1, 2):
            grid = TorusGrid(dim, 64)
            assert coefficient_from_spec(LAMINATE, grid).coarse is None
            noise = 2.0 + rng.random(grid.shape)
            assert CoefficientField(grid, noise * np.eye(dim).reshape(
                (dim, dim) + (1,) * dim)).coarse is None

    def test_checkerboard_hierarchy_polishes_only(self):
        # the README cell: each of the 14 fine solves starts within a
        # handful of iterations of CG_TOL
        from homwave import correctors
        a = coefficient_from_spec(SMOOTH2D, TorusGrid(2, 128))
        tens = correctors.tensorize_correctors(a, 4)
        assert sum(len(its) for its in tens.cg_iterations) == 14
        assert sum(sum(its) for its in tens.cg_iterations) <= 14
        assert max(max(res) for res in tens.cg_residual) <= torus.CG_TOL
        assert all(sorted(start) == [8, 16, 32, 64]
                   for starts in tens.cg_coarse_iterations for start in starts)


def textbook_cold_pcg(a, flux):
    """The cold-start PCG on one right-hand side, one ``vdot`` Parseval
    product at a time, with the mean alone dropped: the reference
    arithmetic that a solve on an unresolved coefficient keeps bit for
    bit."""
    grid = a.grid
    ik = torus._half_gradient_multiplier(grid)
    r = np.sum(ik * rfftn(grid, flux), axis=0)
    r.flat[0] = 0.0

    def dot(x, y):
        return (2.0 * np.vdot(x, y).real - np.vdot(x[..., 0], y[..., 0]).real
                - np.vdot(x[..., -1], y[..., -1]).real)

    rhs_norm = np.sqrt(dot(r, r))
    kak = -np.einsum("mn,m...,n...->...", a.mean_matrix, ik, ik).real
    inv = np.zeros_like(kak)
    inv[kak > 0] = 1.0 / kak[kak > 0]
    u = np.zeros_like(r)
    z = inv * r
    p = z.copy()
    rz = dot(r, z)
    for it in range(torus.CG_MAXITER):
        if np.sqrt(dot(r, r)) / rhs_norm <= torus.CG_TOL:
            return irfftn(grid, u), it
        Ap = torus._div_a_grad_hat(a, p)
        alpha = rz / dot(p, Ap)
        u += alpha * p
        r -= alpha * Ap
        np.multiply(inv, r, out=z)
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise AssertionError("reference CG did not converge")


class TestStackedSolve:
    def test_stack_equals_column_solves(self, rng):
        # each column has its own alpha, beta and stopping test, and its
        # own Parseval products, so a column solves as it would alone; the
        # zero column is met by the zero start
        grid = TorusGrid(2, 64)
        a = coefficient_from_spec(SMOOTH2D, grid)
        flux = np.zeros((2, 4) + grid.shape)
        flux[:, 0] = [band_limited(grid, rng), band_limited(grid, rng)]
        flux[0, 1] = a.values[0, 0]
        flux[:, 3] = [band_limited(grid, rng, kmax=12), a.values[1, 1]]
        phi, its, res = stacked = solve_div_a_grad(a, flux)
        assert phi.shape == (4,) + grid.shape
        assert len(its) == len(res) == len(stacked.coarse_iterations) == 4
        assert its[2] == 0 and res[2] == 0.0 and not np.any(phi[2])
        for c in range(4):
            one = solve_div_a_grad(a, flux[:, c])
            assert (np.linalg.norm(one[0] - phi[c])
                    <= 10 * torus.CG_TOL * np.linalg.norm(one[0]))
            assert np.array_equal(one[0], phi[c])
            assert (one[1], one[2]) == (its[c], res[c])
            assert one.coarse_iterations == stacked.coarse_iterations[c]
            assert res[c] <= torus.CG_TOL

    @pytest.mark.parametrize("dim", [1, 2])
    def test_unresolved_coefficients_keep_the_textbook_cold_solve(self, dim, rng):
        # laminates take no coarse level: the solve is the textbook cold
        # PCG bit for bit
        grid = TorusGrid(dim, 32 if dim == 2 else 256)
        a = coefficient_from_spec(LAMINATE, grid)
        assert a.coarse is None and a.direct_grid is None
        flux = rng.standard_normal((dim,) + grid.shape)
        phi, its, _ = solve_div_a_grad(a, flux)
        ref, ref_its = textbook_cold_pcg(a, flux)
        assert its == ref_its > 0
        assert np.array_equal(phi, ref)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_direct_floor_start_matches_cold_solve(self, dim, rng):
        # on the ladder's 8-point floor the start is the direct solve, so
        # CG takes no iteration; the caller's own grid starts cold.  White
        # noise carries content on every mode no divergence reaches, which
        # both drop.
        grid = TorusGrid(dim, 8)
        a = coefficient_from_spec(SMOOTH2D, grid)
        rhs_hat = rfftn(grid, rng.standard_normal((3,) + grid.shape))
        u, its, res, _ = torus._pcg_div_a_grad(a, rhs_hat.copy(), polish=False)
        assert its == [0, 0, 0]
        assert max(res) <= torus.CG_TOL
        cold_hat, cold_its, _, _ = torus._pcg_div_a_grad(a, rhs_hat.copy())
        assert min(cold_its) > 0
        cold = irfftn(grid, cold_hat)
        direct = irfftn(grid, u)
        for c in range(3):
            assert (np.linalg.norm(direct[c] - cold[c])
                    <= 10 * torus.CG_TOL * np.linalg.norm(cold[c]))
            assert abs(direct[c].mean()) <= 1e-15 * np.max(np.abs(direct[c]))

    def test_budget_exhausted_names_grid_and_column(self, smooth2d_a, rng,
                                                    monkeypatch):
        grid = smooth2d_a.grid
        flux = np.zeros((2, 3) + grid.shape)
        flux[:, 1] = [band_limited(grid, rng), band_limited(grid, rng)]
        monkeypatch.setattr(torus, "CG_MAXITER", 2)
        with pytest.raises(torus.ConvergenceError,
                           match="16-point grid.*column 1") as err:
            solve_div_a_grad(smooth2d_a, flux)
        assert err.value.column == 1
        assert err.value.iterations == 2
        assert err.value.residual > torus.CG_TOL


class TestHalfDot:
    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 16384), (2, 8), (2, 128)])
    def test_equals_the_per_column_vdot(self, dim, n, rng):
        # the stacked vecdot form is bit for bit the per-column vdot it
        # replaced, for a whole stack and for each column alone, and with
        # the point count it is the sample inner product (Parseval)
        grid = TorusGrid(dim, n)
        for k in (1, 3, 14):
            u, v = rng.standard_normal((2, k) + grid.shape)
            x, y = rfftn(grid, u), rfftn(grid, v)
            ref = np.array([2.0 * np.vdot(xc, yc).real
                            - np.vdot(xc[..., 0], yc[..., 0]).real
                            - np.vdot(xc[..., -1], yc[..., -1]).real
                            for xc, yc in zip(x, y)])
            got = torus._half_dot(x, y)
            assert got.tobytes() == ref.tobytes()
            for c in range(k):
                assert torus._half_dot(x[c:c + 1], y[c:c + 1])[0] == got[c]
            sample = np.sum(u * v, axis=tuple(range(1, dim + 1))) * grid.n ** dim
            assert np.max(np.abs(got - sample)) <= 1e-12 * np.max(np.abs(sample))
            assert torus.l2_norm_hat(grid, x) == pytest.approx(
                torus.l2_norm(grid, u), rel=1e-13)


class TestUnreachableContent:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    @pytest.mark.parametrize("spec", [SMOOTH2D, LAMINATE])
    def test_rejected_at_once(self, dim, n, spec, rng):
        # zero-mean white noise has content on the Nyquist modes no
        # divergence reaches: rejected like a mean, before any iteration
        grid = TorusGrid(dim, n)
        a = coefficient_from_spec(spec, grid)
        rhs = rng.standard_normal(grid.shape)
        rhs -= rhs.mean()
        start = time.perf_counter()
        with pytest.raises(SolvabilityError, match="Nyquist"):
            solve_elliptic(a, rhs)
        assert time.perf_counter() - start < 0.1
        # without that content, or with roundoff of it, the solve converges
        reachable = irfftn(grid, rfftn(grid, rhs) * torus._divergence_range(grid))
        nyquist = np.cos(np.pi * grid.n * grid.coordinate_axes()[0])
        for f in (reachable, reachable + 1e-13 * nyquist):
            u = solve_elliptic(a, f)
            res = torus.apply_div_a_grad(a, u) - reachable
            assert np.linalg.norm(res) <= torus.CG_TOL * np.linalg.norm(reachable)


class TestHalfSpectrumTransfers:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_restriction_is_sampling(self, dim, lead, rng):
        for n in (16, 64):
            grid = TorusGrid(dim, n)
            f = rng.standard_normal(lead + grid.shape)
            sampled = rfftn(grid.half_grid, f[torus._every_other(grid)])
            folded = torus._restrict_hat(grid, rfftn(grid, f))
            assert (np.linalg.norm(folded - sampled)
                    <= 1e-15 * np.linalg.norm(sampled))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_prolongation_is_prolong_values(self, dim, lead, rng):
        for n in (8, 32):
            grid = TorusGrid(dim, n)
            f = rng.standard_normal(lead + grid.shape)
            fine = TorusGrid(dim, 2 * n)
            spread = torus._prolong_hat(grid, rfftn(grid, f), 2)
            round_trip = rfftn(fine, prolong_values(grid, f, 2))
            assert (np.linalg.norm(spread - round_trip)
                    <= 1e-15 * np.linalg.norm(round_trip))
            assert np.array_equal(irfftn(fine, spread), prolong_values(grid, f, 2))

    def test_half_grid(self):
        assert TorusGrid(2, 16, 2.0).half_grid == TorusGrid(2, 8, 2.0)
        assert TorusGrid(1, 8).half_grid is None


class TestCellAverage:
    def test_constant(self, grid2d):
        assert mean_values(grid2d, np.full(grid2d.shape, 4.2)) == pytest.approx(4.2)

    def test_pure_mode(self, grid1d):
        x = grid1d.coordinate_axes()[0].ravel()
        assert abs(mean_values(grid1d, np.sin(2 * np.pi * x))) < 1e-14

    def test_laminate_homogenized_flux(self):
        grid = torus.TorusGrid(1, 1024)
        a = coefficient_from_spec(LAMINATE, grid)
        flux = a.values[:, 0, :]
        phi, _, _ = solve_div_a_grad(a, flux.reshape((1,) + grid.shape))
        total = a.values[0, 0] * (gradient_values(grid, phi)[0] + 1.0)
        assert abs(total.mean() - 1.6) < 1e-8


class TestCoefficientField:
    def test_ellipticity_enforced(self, grid1d):
        bad = np.full((1, 1) + grid1d.shape, 0.5)
        with pytest.raises(ConfigurationError):
            CoefficientField(grid1d, bad)

    def test_non_finite_samples_rejected(self, grid1d):
        # NaN fails every comparison: the symmetry and ellipticity checks
        # alone built this field, with ellipticity nan
        bad = np.full((1, 1) + grid1d.shape, 2.0)
        bad[0, 0, 3] = np.nan
        with pytest.raises(ConfigurationError, match="must be finite"):
            CoefficientField(grid1d, bad)
        with pytest.raises(ConfigurationError, match="must be finite"):
            coefficient_from_spec({"kind": "raw", "values": bad.tolist()}, grid1d)

    def test_symmetry_enforced(self, grid2d):
        vals = np.zeros((2, 2) + grid2d.shape)
        vals[0, 0] = vals[1, 1] = 2.0
        vals[0, 1] = 0.5
        with pytest.raises(ConfigurationError):
            CoefficientField(grid2d, vals)

    def test_bounds(self, smooth2d_a):
        assert smooth2d_a.ellipticity >= 1.0 - 1e-10
        assert smooth2d_a.Lambda == pytest.approx(3.0, abs=1e-6)

    def test_laminate_volume_fraction_exact(self, laminate_a):
        diag = laminate_a.values[0, 0]
        assert np.sum(diag == 1.0) == laminate_a.grid.n // 2
        assert np.sum(diag == 4.0) == laminate_a.grid.n // 2

    def test_raw_roundtrip(self, grid1d, laminate_a):
        again = coefficient_from_spec(
            {"kind": "raw", "values": laminate_a.values.tolist()}, grid1d)
        assert np.array_equal(again.values, laminate_a.values)

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "laminate", "value": [1.0, 4.0]}, "needs ['values']"),
        ({"kind": "laminate", "values": [1.0, 4.0, 9.0]}, "shape (2,)"),
        ({"kind": "laminate", "values": ["one", 4.0]}, "must be numbers"),
        ({"kind": "constant", "values": 2.0}, "fields: ['values']"),
        ({"kind": "diagonal", "entries": [2.0]}, "shape (2,)"),
        ({"kind": "checkerboard"}, "unknown coefficient kind"),
        # a >= 1 from each scalar kind's closed-form minimum
        ({"kind": "constant", "value": 0.5}, "a below 1: value = 0.5"),
        ({"kind": "diagonal", "entries": [2.0, 0.5]},
         "a below 1: min(entries) = 0.5"),
        ({"kind": "laminate", "values": [0.5, 4.0]}, "a below 1: min(values) = 0.5"),
        ({"kind": "trig_checkerboard", "amplitude": -1.5},
         "a below 1: base - |amplitude| = 0.5"),
        # a constant matrix is checked where it is sampled
        ({"kind": "constant", "value": [[0.5, 0.0], [0.0, 2.0]]},
         "ellipticity violated"),
        ({"kind": "trig_checkerboard", "period": float("inf")},
         "field 'period' must be finite"),
    ])
    def test_spec_fields_are_configuration_errors(self, grid2d, spec, message):
        with pytest.raises(ConfigurationError) as err:
            coefficient_from_spec(spec, grid2d)
        assert message in str(err.value)


class TestProlongation:
    def test_exact_on_band_limited(self, grid2d, rng):
        f = band_limited(grid2d, rng, kmax=6)
        fine_grid = TorusGrid(2, grid2d.n * 2)
        coarse_on_fine = prolong_values(grid2d, f, 2)
        x, y = (np.broadcast_to(ax, fine_grid.shape)
                for ax in fine_grid.coordinate_axes())
        # compare against direct evaluation of two representative modes
        probe = np.cos(2 * np.pi * 3 * x) * np.sin(2 * np.pi * 2 * y)
        xc, yc = (np.broadcast_to(ax, grid2d.shape)
                  for ax in grid2d.coordinate_axes())
        probe_c = np.cos(2 * np.pi * 3 * xc) * np.sin(2 * np.pi * 2 * yc)
        assert np.max(np.abs(prolong_values(grid2d, probe_c, 2) - probe)) < 1e-12
        assert coarse_on_fine.shape == fine_grid.shape
        assert np.isrealobj(coarse_on_fine)

    def test_2d_product_is_the_einsum_bit_for_bit(self, rng):
        # each output mode takes one nonzero term or the two exact halves of
        # a Nyquist mode, so matrix products and the three-operand einsum
        # agree exactly, on single fields and stacks alike
        for n in (8, 32):
            grid = TorusGrid(2, n)
            for shape in (grid.shape, (3,) + grid.shape, (2, 2) + grid.shape):
                f = rng.standard_normal(shape)
                for factor in (2, 4):
                    m = n * factor
                    S = torus._spread_matrix(n, m)
                    spec = rfftn(grid, f)
                    out = np.einsum("ai,bj,...ij->...ab", S,
                                    S[: m // 2 + 1, : n // 2 + 1], spec)
                    ref = irfftn(TorusGrid(2, m), out * float(factor) ** 2)
                    assert np.array_equal(prolong_values(grid, f, factor), ref)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_half_spectrum_matches_full_complex_fft(self, rng, dim):
        # white noise: Nyquist content on every axis, split between +-n/2;
        # leading axes ride along, complex fields are prolonged by parts
        grid = TorusGrid(dim, 16)
        f = rng.standard_normal((3,) + grid.shape)
        z = f + 1j * rng.standard_normal(grid.shape)
        for factor in (2, 4):
            full = full_prolongation(grid, f, factor)
            half = prolong_values(grid, f, factor)
            assert np.isrealobj(half)
            assert np.max(np.abs(half - full.real)) <= 1e-14 * np.max(np.abs(full))
            full_z = full_prolongation(grid, z, factor)
            parts = dispersion._by_parts(prolong_values, grid, z, factor)
            assert np.max(np.abs(parts - full_z)) <= 1e-14 * np.max(np.abs(full_z))
