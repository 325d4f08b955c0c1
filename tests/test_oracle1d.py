"""Exact 1D reference: piecewise-Legendre calculus and the corrector recursion."""

import operator
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre

from homwave import elliptic, oracle1d, torus
from homwave.dispersion import DispersionModel
from homwave.wave import choose_gamma, mode_symbol
from homwave.oracle1d import (
    PiecewisePoly,
    Profile1D,
    correctors_1d,
    compare_with_spectral,
    profile_from_spec,
    solve_elliptic_box,
    tile_to_box,
)

from conftest import LAMINATE


@pytest.fixture
def laminate():
    return Profile1D(breakpoints=[0.0, 0.5, 1.0], values=[1.0, 4.0])


class TestPiecewisePoly:
    def test_arithmetic_and_mean(self):
        p = PiecewisePoly.from_callable(lambda x: x ** 2, [0.0, 0.3, 1.0], 4)
        q = PiecewisePoly.from_callable(lambda x: 1.0 + x, [0.0, 0.3, 1.0], 3)
        prod = p * q
        x = np.linspace(0, 0.999, 301)
        assert np.max(np.abs(prod(x) - x ** 2 * (1 + x))) < 1e-13
        assert prod.mean() == pytest.approx(1 / 3 + 1 / 4, abs=1e-14)
        # operands on different partitions are rejected, not realigned
        other = PiecewisePoly.from_callable(lambda x: 1.0 + x, [0.0, 1.0], 3)
        for op in (operator.mul, operator.add, operator.sub):
            with pytest.raises(torus.ConfigurationError,
                               match="different partitions"):
                op(p, other)

    def test_antiderivative_continuous(self):
        p = PiecewisePoly.from_callable(lambda x: 3 * x ** 2, [0.0, 0.4, 1.0], 4)
        F = p.antiderivative()
        x = np.linspace(0, 0.999, 301)
        assert np.max(np.abs(F(x) - x ** 3)) < 1e-13

    def test_derivative_inverts_antiderivative(self):
        p = PiecewisePoly.from_callable(np.cos, [0.0, 0.5, 1.0], 10)
        back = p.antiderivative().derivative()
        x = np.linspace(0, 0.999, 100)
        assert np.max(np.abs(back(x) - np.cos(x))) < 1e-12

    def test_tile_to_box_matches_rescaled_cell(self):
        p = PiecewisePoly.from_callable(lambda x: np.sin(2 * np.pi * x),
                                        [0.0, 0.5, 1.0], 12)
        tiled = tile_to_box(p, 0.25, 2.0)
        x = np.linspace(0, 1.999, 401)
        assert np.max(np.abs(tiled(x) - np.sin(2 * np.pi * x / 0.25))) < 1e-10


# -- per-segment reference: one numpy.polynomial.legendre call per segment --

def ref_eval(breaks, rows, x):
    out = np.empty(len(x))
    for j, xj in enumerate(x):
        i = min(max(np.searchsorted(breaks, xj, side="right") - 1, 0), len(rows) - 1)
        a, b = breaks[i], breaks[i + 1]
        out[j] = legendre.legval((2.0 * xj - a - b) / (b - a), rows[i])
    return out


def ref_derivative(breaks, rows):
    return [legendre.legder(c) * (2.0 / (b - a))
            for c, a, b in zip(rows, breaks[:-1], breaks[1:])]


def ref_antiderivative(breaks, rows):
    out, offset = [], 0.0
    for c, a, b in zip(rows, breaks[:-1], breaks[1:]):
        ci = legendre.legint(c) * (0.5 * (b - a))
        ci[0] += offset - legendre.legval(-1.0, ci)
        out.append(ci)
        offset = legendre.legval(1.0, ci)
    return out


def assert_close(got, want, rtol=1e-12):
    assert np.max(np.abs(got - want)) <= rtol * max(1.0, np.max(np.abs(want)))


@st.composite
def piecewise(draw, max_segments=12, max_degree=6):
    """(breaks, rows, pp) on [0, 1) with segments at least 1e-3 wide."""
    n = draw(st.integers(1, max_segments))
    inner = draw(st.lists(st.floats(0.01, 0.99), min_size=n - 1, max_size=n - 1,
                          unique=True))
    breaks = np.array([0.0] + sorted(inner) + [1.0])
    if np.min(np.diff(breaks)) < 1e-3:
        breaks = np.linspace(0.0, 1.0, n + 1)
    width = draw(st.integers(1, max_degree + 1))
    seed = draw(st.integers(0, 2 ** 31))
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, width))
    return breaks, rows, PiecewisePoly(breaks, rows)


EPS = float(np.finfo(float).eps)
SAMPLES = np.random.default_rng(7).uniform(0.0, 1.0, 200)
PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)


class TestArrayBackedProperties:
    """Batched operations against the per-segment reference loop, on
    random breakpoints."""

    @PROPERTY
    @given(piecewise(), st.integers(1, 7), st.integers(0, 2 ** 31))
    def test_product_and_sum(self, p, width, seed):
        # the second operand: its own coefficients on an equal copy of the
        # first one's breaks
        bp, rp, pp = p
        rq = np.random.default_rng(seed).uniform(-1.0, 1.0, (len(bp) - 1, width))
        qq = PiecewisePoly(bp.copy(), rq)
        vp, vq = ref_eval(bp, rp, SAMPLES), ref_eval(bp, rq, SAMPLES)
        assert_close((pp * qq)(SAMPLES), vp * vq)
        assert_close((pp + qq)(SAMPLES), vp + vq)
        assert_close((pp - 0.5 * qq)(SAMPLES), vp - 0.5 * vq)

    @PROPERTY
    @given(piecewise())
    def test_derivative_and_antiderivative(self, p):
        breaks, rows, pp = p
        assert_close(pp.derivative()(SAMPLES),
                     ref_eval(breaks, ref_derivative(breaks, rows), SAMPLES))
        assert_close(pp.antiderivative()(SAMPLES),
                     ref_eval(breaks, ref_antiderivative(breaks, rows), SAMPLES))

    @PROPERTY
    @given(piecewise(max_degree=8))
    def test_evaluation_right_continuous_and_clipped(self, p):
        breaks, rows, pp = p
        at_left_ends = rows @ (-1.0) ** np.arange(rows.shape[1])
        assert_close(pp(breaks[:-1]), at_left_ends)
        # the right endpoint belongs to the last segment, as do points past it
        assert_close(pp(breaks[-1]), rows[-1].sum())
        outside = np.array([-0.25, 1.25])
        assert_close(pp(outside), ref_eval(breaks, rows, outside))

    def test_antiderivative_continuous_over_many_segments(self):
        rng = np.random.default_rng(3)
        breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, 640))])
        rows = rng.uniform(-1.0, 1.0, (640, 9))
        F = PiecewisePoly(breaks, rows).antiderivative()
        right_ends = F.coeffs.sum(axis=1)                  # P_k(1) = 1
        assert abs(F(0.0)) < 1e-15
        assert_close(F(breaks[1:-1]), right_ends[:-1], rtol=1e-13)

    @pytest.mark.parametrize("eps,length", [(0.25, 2.0), (1 / 128, 1.0),
                                            (1 / 1024, 1.0), (0.1, 3.0)])
    def test_tile_to_box_breaks_match_loop(self, eps, length):
        p = PiecewisePoly(np.array([0.0, 0.3, 0.5, 1.0]), np.ones((3, 2)))
        m, cell = int(round(length / eps)), p.domain_length
        loop = [0.0]
        for j in range(m):
            for i in range(3):
                loop.append((j * cell + (p.breaks[i + 1] - p.breaks[0])) * eps)
        loop[-1] = length
        tiled = tile_to_box(p, eps, length)
        assert np.array_equal(tiled.breaks, np.asarray(loop))
        assert tiled.coeffs.shape == (3 * m, 2)


LAM14 = Profile1D(breakpoints=[0.0, 0.5, 1.0], values=[1.0, 4.0])


class TestPerOperationOverhead:
    """The same arithmetic with fewer numpy calls: shared partitions skip
    alignment, and Legendre calculus is one cached matrix per width."""

    def test_equal_partitions_skip_alignment(self, monkeypatch):
        rng = np.random.default_rng(5)
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 7)), [1.0]])
        p = PiecewisePoly(breaks, rng.uniform(-1, 1, (8, 4)))
        q_rows = rng.uniform(-1, 1, (8, 6))
        shared = PiecewisePoly(breaks, q_rows)
        want = [p * shared, p + shared, p - shared]

        def forbidden(*args, **kwargs):
            raise AssertionError("equal partitions reached the alignment path")

        monkeypatch.setattr(np, "allclose", forbidden)
        distinct = PiecewisePoly(breaks.copy(), q_rows)
        got = [p * distinct, p + distinct, p - distinct]
        for g, w in zip(got, want):
            assert g.breaks is p.breaks
            assert np.array_equal(g.coeffs, w.coeffs)

    @pytest.mark.parametrize("width", [1, 2, 5, 15, 29])
    def test_calculus_matrices_match_numpy(self, width):
        rows = np.random.default_rng(width).uniform(-1.0, 1.0, (40, width))
        der, anti = oracle1d._calculus(width)
        sampler = oracle1d._sampler(16, width)
        t = oracle1d._gauss(16)[0]
        # roundoff of each entry against the sum of its terms' magnitudes;
        # Clenshaw's own error grows with the degree
        for mat, ref, ulps in [(der, legendre.legder(rows, axis=1), 4),
                               (anti, legendre.legint(rows, axis=1), 4),
                               (sampler, legendre.legval(t, rows.T), 16)]:
            scale = np.abs(rows) @ np.abs(mat)
            assert np.all(np.abs(rows @ mat - ref) <= ulps * EPS * scale)

    def test_sweep_derivative_orders_match_mode_sums(self, monkeypatch):
        # each order from one sin/cos pair against sin(k x + j pi / 2), the
        # one-sin-per-order fit the sweep made before
        f_modes, eps, degree = {1: 1.0, 3: 0.5}, 1 / 16, 14
        fits = []
        orig = PiecewisePoly.from_callable.__func__

        def recorded(cls, func, breaks, degree=12):
            fits.append(orig(cls, func, breaks, degree))
            return fits[-1]

        monkeypatch.setattr(PiecewisePoly, "from_callable", classmethod(recorded))
        # a second eps for the fitted order; the first one's fits are checked
        elliptic.elliptic_error_sweep_1d(LAM14, 2, [eps, eps / 2],
                                         f_modes=f_modes, pp_degree=degree)
        model = DispersionModel.from_oracle(correctors_1d(LAM14, 2), 2)
        ks = np.array([[2 * np.pi * q for q in f_modes]])
        num, den = mode_symbol(model, eps, ks, gamma=choose_gamma(model))
        den = np.broadcast_to(den, num.shape)
        u_modes = {q: c * float(den[i]) / float(num[i])
                   for i, (q, c) in enumerate(f_modes.items())}
        # prepared data: f and its first two derivatives, then the first
        # three derivatives of the effective solution u
        orders = [(f_modes, 0), (f_modes, 1), (f_modes, 2),
                  (u_modes, 1), (u_modes, 2), (u_modes, 3)]
        assert len(fits) == 2 * len(orders)
        for fit, (modes, j) in zip(fits, orders):
            def mode_sum(x, modes=modes, j=j):
                return sum(c * (2 * np.pi * q) ** j
                           * np.sin(2 * np.pi * q * x + 0.5 * np.pi * j)
                           for q, c in modes.items())
            ref = orig(PiecewisePoly, mode_sum, fit.breaks, degree)
            gap = np.max(np.abs(fit.coeffs - ref.coeffs))
            assert gap <= 1e-14 * np.max(np.abs(ref.coeffs))

    def test_sweep_calls_after_cache_fill(self, monkeypatch):
        eps_list, ell = [1 / 8, 1 / 16, 1 / 32], 2
        elliptic.elliptic_error_sweep_1d(LAM14, ell, eps_list)   # fill caches
        calls = {"legint": 0, "legder": 0, "allclose": 0, "from_callable": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        view = types.ModuleType(legendre.__name__)
        view.__dict__.update(vars(legendre))
        for name in ("legint", "legder"):
            setattr(view, name, counted(name, getattr(legendre, name)))
        monkeypatch.setattr(oracle1d, "leg", view)
        monkeypatch.setattr(np, "allclose", counted("allclose", np.allclose))
        fit = counted("from_callable", PiecewisePoly.from_callable.__func__)
        monkeypatch.setattr(PiecewisePoly, "from_callable", classmethod(fit))
        elliptic.elliptic_error_sweep_1d(LAM14, ell, eps_list)
        assert calls["legint"] == calls["legder"] == calls["allclose"] == 0
        assert 0 < calls["from_callable"] <= (2 * ell + 3) * len(eps_list)


class TestSweepScaling:
    def _legendre_calls(self, monkeypatch, eps_list):
        calls = []
        view = types.ModuleType(legendre.__name__)
        view.__dict__.update(vars(legendre))
        for name in ("legval", "legfit"):
            def counted(*args, _f=getattr(legendre, name), **kwargs):
                calls.append(1)
                return _f(*args, **kwargs)
            setattr(view, name, counted)
        monkeypatch.setattr(oracle1d, "leg", view)
        elliptic.elliptic_error_sweep_1d(LAM14, 2, eps_list, mode="prepared")
        return len(calls)

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
    def test_legendre_calls_independent_of_segment_count(self, monkeypatch):
        few = self._legendre_calls(monkeypatch, [1 / 8])
        many = self._legendre_calls(monkeypatch, [1 / 256])
        assert few == many
        assert few < 20

    @pytest.mark.parametrize("mode", ["prepared", "plain"])
    def test_rate_down_to_eps_1024(self, mode):
        study = elliptic.elliptic_error_sweep_1d(
            LAM14, 2, [2.0 ** -j for j in range(3, 11)], mode=mode)
        assert study.fitted_order >= 1.8


class TestHarmonicMean:
    def test_constant(self):
        prof = Profile1D(breakpoints=[0, 1], values=[3.0])
        assert correctors_1d(prof, 1).lambdas[0] == pytest.approx(3.0, abs=1e-14)

    def test_laminate_14(self, laminate):
        assert correctors_1d(laminate, 1).lambdas[0] == pytest.approx(1.6, abs=1e-14)

    def test_laminate_19(self):
        prof = Profile1D(breakpoints=[0, 0.5, 1], values=[1.0, 9.0])
        assert correctors_1d(prof, 1).lambdas[0] == pytest.approx(1.8, abs=1e-14)


class TestCorrectorRecursion:
    def test_constant_profile(self):
        prof = Profile1D(breakpoints=[0, 1], values=[2.5])
        h = correctors_1d(prof, 3)
        assert h.lambdas[0] == pytest.approx(2.5, abs=1e-14)
        assert np.max(np.abs(h.lambdas[1:])) < 1e-14
        x = np.linspace(0, 0.999, 64)
        for j in range(1, 4):
            assert np.max(np.abs(h.phi[j](x))) < 1e-13

    def test_odd_coefficients_vanish(self, laminate):
        h = correctors_1d(laminate, 5)
        assert abs(h.lambdas[1]) < 1e-12
        assert abs(h.lambdas[3]) < 1e-12

    def test_flux_vanishes_pointwise(self, laminate):
        h = correctors_1d(laminate, 5)
        assert np.max(h.flux_residuals) < 1e-12

    def test_second_order_coefficient_two_pipelines(self, laminate):
        # recursion value vs the nonnegative quadratic form assembled from
        # the oracle fields
        h = correctors_1d(laminate, 3)
        w = h.phi[2] - 0.5 * (h.phi[1] * h.phi[1])
        wp = w.derivative()
        quad = (laminate.a_pp * wp * wp).mean()
        assert quad == pytest.approx(h.lambdas[2], rel=1e-10)
        assert quad >= 0.0

    def test_values_are_quadrature_free(self, laminate):
        h1 = correctors_1d(laminate, 4)
        # piecewise representation is exact: the same cell on a finer
        # partition gives the same tensors
        lam2 = Profile1D(breakpoints=[0.0, 0.25, 0.5, 0.75, 1.0],
                         values=[1.0, 1.0, 4.0, 4.0])
        h2 = correctors_1d(lam2, 4)
        assert np.max(np.abs(h1.lambdas - h2.lambdas)) < 1e-12

    def test_zero_mean_gauge(self, laminate):
        h = correctors_1d(laminate, 4)
        for j in range(1, 5):
            assert abs(h.phi[j].mean()) < 1e-13
            assert abs(h.chi[j].mean()) < 1e-13

    def test_order_cap(self, laminate):
        with pytest.raises(torus.ConfigurationError):
            correctors_1d(laminate, 7)


class TestCompareWithSpectral:
    def test_constant_profile_gaps_vanish(self):
        prof = Profile1D(breakpoints=[0, 1], values=[2.0])
        from homwave import correctors
        grid = torus.TorusGrid(1, 256)
        a = torus.coefficient_from_spec({"kind": "constant", "value": 2.0}, grid)
        h = correctors.build_hierarchy(a, [1.0], 3)
        rep = compare_with_spectral(prof, h)
        assert max(rep["lambda_gap"].values()) < 1e-12
        assert max(rep["phi_gap"].values()) < 1e-12

    def test_smooth_profile(self):
        from homwave import correctors
        prof = Profile1D(func=lambda x: 2.0 + np.sin(2 * np.pi * x))
        grid = torus.TorusGrid(1, 256)
        a = torus.coefficient_from_spec(
            {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0}, grid)
        h = correctors.build_hierarchy(a, [1.0], 3)
        rep = compare_with_spectral(prof, h)
        assert max(rep["lambda_gap"].values()) < 1e-8
        assert max(rep["phi_gap"].values()) < 1e-8

    def test_laminate_gaps_recorded_refine(self, laminate):
        from homwave import correctors
        gaps = []
        for n in (512, 1024):
            grid = torus.TorusGrid(1, n)
            a = torus.coefficient_from_spec(LAMINATE, grid)
            h = correctors.build_hierarchy(a, [1.0], 2)
            gaps.append(max(compare_with_spectral(laminate, h)["phi_gap"].values()))
        assert gaps[1] < 0.6 * gaps[0]


class TestBoxElliptic:
    def test_constant_coefficient_single_mode(self):
        prof = Profile1D(breakpoints=[0, 1], values=[1.0])
        L = 2.0
        ainv_box = tile_to_box(prof.ainv_pp, 0.5, L)
        rhs = PiecewisePoly.from_callable(
            lambda x: np.sin(2 * np.pi * x / L), ainv_box.breaks, 14)
        u = solve_elliptic_box(ainv_box, rhs)
        k = 2 * np.pi / L
        x = np.linspace(0, 1.999, 200)
        assert np.max(np.abs(u(x) - np.sin(k * x) / k ** 2)) < 1e-11

    def test_laminate_residual(self, laminate):
        L, eps = 1.0, 0.125
        a_box = tile_to_box(laminate.a_pp, eps, L)
        rhs = PiecewisePoly.from_callable(
            lambda x: np.sin(2 * np.pi * x), a_box.breaks, 14)
        u = solve_elliptic_box(tile_to_box(laminate.ainv_pp, eps, L), rhs)
        res = (a_box * u.derivative()).derivative() + rhs
        assert res.l2_mean() < 1e-9 * rhs.l2_mean() + 1e-11

    def test_rejects_nonzero_mean(self, laminate):
        rhs = PiecewisePoly.constant(1.0, [0.0, 1.0])
        with pytest.raises(torus.SolvabilityError):
            solve_elliptic_box(tile_to_box(laminate.ainv_pp, 0.125, 1.0), rhs)


# a value of each catalog field that a 1D profile on the unit cell accepts
FIELD_SAMPLES = {"value": 2.5, "entries": [3.0], "values": [1.5, 4.0],
                 "volume_fraction": 0.3, "axis": 0, "period": 1.0,
                 "base": 3.0, "amplitude": -0.75}


def catalog_specs():
    """Each analytic catalog kind with its required fields only, then with
    each optional field set (``raw`` has no analytic form)."""
    for kind, (required, defaults, _) in torus._SPEC_FIELDS.items():
        if kind == "raw":
            continue
        spec = {"kind": kind, **{key: FIELD_SAMPLES[key] for key in required}}
        yield spec
        for key in defaults:
            yield {**spec, key: FIELD_SAMPLES[key]}


class TestProfileFromSpec:
    def test_laminate_tag(self):
        prof = profile_from_spec(LAMINATE)
        assert correctors_1d(prof, 1).lambdas[0] == pytest.approx(1.6, abs=1e-14)

    def test_trig_tag(self):
        prof = profile_from_spec({"kind": "trig_checkerboard", "base": 2.0,
                                  "amplitude": 1.0})
        assert prof.func(0.25) == pytest.approx(3.0)

    @pytest.mark.parametrize("spec", list(catalog_specs()), ids=str)
    def test_profile_is_the_sampled_catalog(self, spec):
        # the profile (its pieces, or the formula a smooth profile fits) and
        # the torus samples read one table: equal at the nodes, bit for bit
        grid = torus.TorusGrid(1, 64)
        x = grid.coordinate_axes()[0]
        field = torus.coefficient_from_spec(spec, grid).values[0, 0]
        prof = profile_from_spec(spec)
        assert np.array_equal(prof.a_pp(x) if prof.func is None else prof.func(x),
                              field)

    @pytest.mark.parametrize("spec", [
        {"kind": "laminate", "values": [1.0, 4.0], "period": 0.5},
        {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0,
         "period": 2.0},
        {"kind": "laminate", "values": [1.0, 4.0], "axis": 1},
    ])
    def test_other_cell_rejected(self, spec):
        # the torus pipeline honours period and axis: an oracle that ignored
        # them would model a different cell than the fine medium
        with pytest.raises(torus.ConfigurationError):
            profile_from_spec(spec)
