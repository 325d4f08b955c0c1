"""Transport moments and the scaled ballistic experiment."""

import numpy as np
import pytest

from homwave import transport, wave
from homwave.torus import ConfigurationError, TorusGrid
from homwave.transport import (
    affine_ballistic_fit,
    ballistic_experiment,
    constant_medium_moment_scan,
    gaussian_data,
    min_image_radius,
    transport_moment,
    windowed_moment,
    wrap_guard,
)
from homwave.bloch import solve_fine_wave_exact
from homwave.wave import solve_fine_wave

from conftest import LAMINATE


class TestGaussianData:
    def test_l2_mass_1d(self):
        box = TorusGrid(1, 2048, 48.0)
        g = gaussian_data(box, 1.0)
        mass = np.sum(g ** 2) * box.h
        assert mass == pytest.approx(np.pi ** -0.5, rel=1e-8)

    def test_peak_value(self):
        box = TorusGrid(1, 2048, 48.0)
        g = gaussian_data(box, 1.0)
        assert np.max(g) == pytest.approx((1.0 / np.pi) ** 0.5, rel=1e-12)

    def test_symmetry(self):
        box = TorusGrid(1, 256, 32.0)
        g = gaussian_data(box, 1.0)
        assert np.max(np.abs(g - g[::-1].take(range(-1, 255), mode="wrap"))) < 1e-12

    def test_support_guard(self):
        box = TorusGrid(1, 64, 4.0)
        with pytest.raises(ConfigurationError):
            gaussian_data(box, 1.0)


class TestTransportMoment:
    def test_zero_field(self):
        box = TorusGrid(1, 256, 32.0)
        assert transport_moment(np.zeros(box.shape), box, 1.0) == 0.0

    def test_closed_form_at_t0(self):
        box = TorusGrid(1, 2048, 48.0)
        g = gaussian_data(box, 1.0)
        m = transport_moment(g, box, 1.0)
        # pi^-1/2 + 2/pi + pi^-1/2 / 2 under the square root
        ref = np.sqrt(np.pi ** -0.5 + 2 / np.pi + 0.5 * np.pi ** -0.5)
        assert m == pytest.approx(ref, rel=1e-4)  # |x| kink limits node quadrature
        assert m == pytest.approx(1.21775, rel=1e-4)

    def test_homogeneity(self):
        box = TorusGrid(1, 512, 32.0)
        g = gaussian_data(box, 1.0)
        assert transport_moment(2 * g, box, 1.0) == pytest.approx(
            2 * transport_moment(g, box, 1.0), rel=1e-14)

    def test_monotone_under_pointwise_increase(self, rng):
        box = TorusGrid(1, 512, 32.0)
        u = gaussian_data(box, 1.0)
        bigger = u * (1.0 + 0.5 * rng.random(box.shape))
        assert transport_moment(bigger, box, 1.0) >= transport_moment(
            u, box, 1.0)

    def test_min_image_metric(self):
        # distances to the box center 4: at most half the side, and the
        # same from both ends of the periodic box
        box = TorusGrid(1, 64, 8.0)
        r = min_image_radius(box)
        assert np.max(r) <= 4.0 + 1e-12
        assert r[0] == 4.0 and r[32] == 0.0
        assert np.array_equal(r[1:], r[:0:-1])


class TestWrapGuard:
    def test_wrap_guard(self):
        box = TorusGrid(1, 256, 16.0)
        x = wave.box_coordinates(box)[0]
        u0 = np.exp(-10 * (x - 8.0) ** 2)
        ok, r0, reach = wrap_guard(u0, box, 1.0, 1.0)
        assert ok and reach < 8.0
        ok2, _, _ = wrap_guard(u0, box, 20.0, 1.0)
        assert not ok2


class TestWindowedMoment:
    def test_zero_trajectory(self):
        box = TorusGrid(1, 256, 32.0)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box,
                               np.zeros(box.shape),
                               times=np.linspace(1.0, 2.0, 17))
        assert windowed_moment(traj, 1.0, 1.0) == 0.0

    def test_insufficient_snapshots_rejected(self):
        box = TorusGrid(1, 256, 32.0)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box,
                               gaussian_data(box, 1.0), times=[1.0, 2.0])
        with pytest.raises(ConfigurationError):
            windowed_moment(traj, 1.0, 1.0)

    def test_consistent_with_stored_history(self):
        box = TorusGrid(1, 512, 32.0)
        times = np.linspace(1.0, 2.0, 17)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box,
                               gaussian_data(box, 1.0), times=times)
        m = np.array([transport_moment(u, box, 1.0) for u in traj.u])
        manual = np.sqrt(np.trapezoid(m ** 2, traj.times))
        assert windowed_moment(traj, 1.0, 1.0) == pytest.approx(
            manual, abs=1e-12)

    def test_weight_formed_once_per_trajectory(self, monkeypatch):
        box = TorusGrid(1, 512, 32.0)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box,
                               gaussian_data(box, 1.0),
                               times=np.linspace(1.0, 2.0, 17))
        each = [transport_moment(u, box, 1.0) for u in traj.u]
        calls = []
        radius = transport.min_image_radius
        monkeypatch.setattr(transport, "min_image_radius",
                            lambda *args: calls.append(1) or radius(*args))
        windowed = windowed_moment(traj, 1.0, 1.0)
        assert len(calls) == 1
        assert windowed == np.sqrt(np.trapezoid(np.square(each), traj.times))

    def test_short_window_factor_four_of_closed_form(self):
        box = TorusGrid(1, 1024, 48.0)
        times = np.linspace(0.0, 1.0, 17)
        traj = solve_fine_wave(np.ones((1, 1) + box.shape), box,
                               gaussian_data(box, 1.0), times=times)
        got = windowed_moment(traj, 1.0, 0.0)
        closed = 1.21775  # instantaneous moment at t = 0
        assert closed / 4 <= got <= closed * 4


@pytest.fixture(scope="module")
def scan():
    box = TorusGrid(1, 2048, 48.0)
    return constant_medium_moment_scan(box, 1.0, [1, 2, 4, 8])


class TestBallisticScaling:

    def test_affine_slope_is_flat(self, scan):
        offset, slope, per_T = affine_ballistic_fit(
            list(scan.windowed), list(scan.windowed.values()))
        assert slope > 0
        assert np.max(np.abs(per_T / slope - 1.0)) < 0.25

    def test_offset_is_order_one(self, scan):
        offset, _, _ = affine_ballistic_fit(list(scan.windowed),
                                            list(scan.windowed.values()))
        assert 0.25 <= abs(offset) <= 4.0

    def test_guard_valid(self, scan):
        assert scan.valid

    def test_rescaled_constant_medium_is_eps_independent(self):
        # after the hyperbolic rescaling the constant-coefficient run depends
        # on eps only through the window offset: the measured moments must sit
        # on the single eps-free reference curve, here one exact-in-time run
        # (with a third block size) holding both windows
        box = TorusGrid(1, 2048, 32.0)
        rep = ballistic_experiment({"kind": "constant", "value": 1.0}, box,
                                   [1 / 2, 1 / 4], 0.0, 1.0, 2, gamma_bar=1.0)
        times = np.concatenate([np.linspace(T, T + 1.0, 17) for T in (2.0, 4.0)])
        ref = solve_fine_wave_exact(np.ones((1, 1) + box.shape), box,
                                    gaussian_data(box, 1.0), times, 1 / 8)
        for row, T in zip(rep.rows, (2.0, 4.0)):
            assert row.T_rescaled == T
            assert row.windowed == pytest.approx(
                windowed_moment(ref, 1.0, T), rel=1e-9)

    def test_laminate_nondegeneration(self):
        box = TorusGrid(1, 8192, 64.0)
        rep = ballistic_experiment(LAMINATE, box, [1 / 4, 1 / 8], 0.0, 1.0, 2,
                                   gamma_bar=1.6)
        rows = rep.rows
        assert all(row.valid for row in rows)
        assert rows[1].ratio >= 0.8 * rows[0].ratio
        assert [row.solver["block_size"] for row in rows] == [32, 16]
        assert all(row.solver["energy_drift"] < 1e-10 for row in rows)

    def test_inconclusive_regime_flagged(self):
        box = TorusGrid(1, 2048, 32.0)
        rep = ballistic_experiment({"kind": "constant", "value": 1.0}, box,
                                   [1 / 2], 1.5, 1.0, 2, gamma_bar=1.0)
        assert not rep.rows[0].conclusive  # defect bound exceeds one
