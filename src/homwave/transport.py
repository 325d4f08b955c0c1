"""Weighted transport moments and the scaled ballistic experiment.

The moment of a wave field weights its mass by (1 + lam |x|)^2 around the
box center, where the data are centered (minimum-image distance on the
periodic box), and the windowed moment averages its square over one
interaction time 1/lam.  Ballistic transport shows up as linear growth of
the windowed moment along the hyperbolically rescaled time axis; the
experiment measures the growth ratio against the dispersive defect budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bloch import solve_fine_wave_exact
from .oracle1d import profile_from_spec
from .torus import ConfigurationError, TorusGrid, l2_norm
from .wave import WaveTrajectory, box_coordinates, coefficient_on_box

# snapshots per window 1/lam, evenly spaced ends included: spacing 1/(16 lam)
SNAPSHOTS_PER_WINDOW = 17


def min_image_radius(box: TorusGrid) -> np.ndarray:
    """Distance to the box center with the periodic minimum-image
    convention."""
    center = np.full(box.dim, 0.5 * box.period)
    x = box_coordinates(box)
    delta = np.abs(x - center.reshape((box.dim,) + (1,) * box.dim))
    delta = np.minimum(delta, box.period - delta)
    return np.sqrt(np.sum(delta ** 2, axis=0))


def wrap_guard(u0: np.ndarray, box: TorusGrid, final_time: float,
               lambda0: float):
    """Check r0 + T sqrt(lambda0) < side/2: the front, moving at the
    effective speed sqrt(lambda0), must not wrap.

    r0 is the radius of the smallest ball around the box center holding
    every node where |u0| exceeds 1e-8 of its maximum.  Returns (ok, r0,
    reach); failing the guard invalidates weighted-moment readings, while
    plain L2 comparisons of two periodized evolutions stay meaningful.
    """
    mask = np.abs(u0) > 1e-8 * float(np.max(np.abs(u0)))
    r0 = float(np.max(min_image_radius(box)[mask])) if np.any(mask) else 0.0
    reach = r0 + final_time * math.sqrt(lambda0)
    return reach < 0.5 * box.period, r0, reach


def gaussian_data(box: TorusGrid, lam: float) -> np.ndarray:
    """Gaussian (lam/pi)^(d/2) exp(-lam^2 |x|^2 / 2) around the box center.

    The formula is used verbatim (its L2 norm is pi^(-d/4), not 1).  The
    tail must fit the box: exp(-lam^2 (L/2)^2 / 2) below 1e-12.
    """
    tail = math.exp(-0.5 * (lam * 0.5 * box.period) ** 2)
    if tail > 1e-12:
        raise ConfigurationError(
            f"Gaussian of width 1/{lam:g} does not fit the box "
            f"(tail {tail:.2e} at side/2)")
    r = min_image_radius(box)
    return (lam / math.pi) ** (box.dim / 2.0) * np.exp(-0.5 * (lam * r) ** 2)


def _moment_weight(box: TorusGrid, lam: float) -> np.ndarray:
    """1 + lam |x|, the root of the moment weight (minimum-image |x|)."""
    return 1.0 + lam * min_image_radius(box)


def transport_moment(u: np.ndarray, box: TorusGrid, lam: float) -> float:
    """Weighted mass ( integral (1 + lam |x|)^2 u^2 )^(1/2)."""
    return l2_norm(box, _moment_weight(box, lam) * u)


def windowed_moment(traj: WaveTrajectory, lam: float, T: float) -> float:
    """sqrt of the integral of the squared moment over [T, T + 1/lam].

    Needs snapshots covering the window with spacing at most 1/(16 lam);
    integration is trapezoidal in time.
    """
    window = 1.0 / lam
    sel = (traj.times >= T - 1e-12) & (traj.times <= T + window + 1e-12)
    ts = traj.times[sel]
    if ts.size < 2 or ts[0] > T + 1e-9 or ts[-1] < T + window - 1e-9:
        raise ConfigurationError(
            f"snapshots do not cover the window [{T}, {T + window}]")
    if np.max(np.diff(ts)) > window / 16.0 + 1e-12:
        raise ConfigurationError(
            f"snapshot spacing exceeds {window / 16.0:g} over the window")
    w = _moment_weight(traj.box, lam)
    msq = np.array([l2_norm(traj.box, w * traj.u[i]) ** 2
                    for i in np.nonzero(sel)[0]])
    return float(math.sqrt(np.trapezoid(msq, ts)))


@dataclass
class MomentReport:
    windowed: dict
    valid: bool


@dataclass
class BallisticRow:
    eps: float
    T_rescaled: float
    windowed: float
    ratio: float
    defect_bound: float
    conclusive: bool
    valid: bool
    guard_reach: float
    solver: dict = dc_field(default_factory=dict)


@dataclass
class BallisticReport:
    gamma: float
    T: float
    ell: int
    rows: list

    def table(self):
        out = [("eps", "T_rescaled", "windowed_moment", "ratio",
                "defect_bound", "conclusive", "valid")]
        for r in self.rows:
            out.append((format(r.eps, ".17g"), format(r.T_rescaled, ".17g"),
                        format(r.windowed, ".17g"), format(r.ratio, ".17g"),
                        format(r.defect_bound, ".17g"),
                        str(r.conclusive), str(r.valid)))
        return out


def ballistic_experiment(coeff_spec: dict, box: TorusGrid, eps_list, gamma: float,
                         T: float, ell: int) -> BallisticReport:
    """Scaled transport experiment after the hyperbolic rescaling.

    For each eps the fine wave is solved exactly in time (Bloch blocks, see
    ``solve_fine_wave_exact``) with unit-width Gaussian data around the box
    center in the rescaled variables up to T' = eps^(-1-gamma) T, at
    ``SNAPSHOTS_PER_WINDOW`` times over [T', T'+1]; the windowed moment
    there measured against T' is the ballistic ratio, reported next to the
    dispersive defect budget eps^(ell-1-gamma) T (the growth envelope of a
    periodic medium is 1).  Wrap-around of the wavefront (``wrap_guard`` at
    lambda0 = 1 / <1/a>) invalidates the weighted moment and flags the row.
    """
    lambda0 = 1.0 / profile_from_spec(coeff_spec).ainv_pp.mean()
    rows = []
    for eps in eps_list:
        t_resc = eps ** (-1.0 - gamma) * T
        a_box = coefficient_on_box(coeff_spec, box, eps)
        g1 = gaussian_data(box, 1.0)
        ok, _, reach = wrap_guard(g1, box, t_resc + 1.0, lambda0)
        times = np.linspace(t_resc, t_resc + 1.0, SNAPSHOTS_PER_WINDOW)
        traj = solve_fine_wave_exact(a_box, box, g1, times, eps)
        m_win = windowed_moment(traj, 1.0, t_resc)
        stats = traj.solver_stats()
        del traj  # free the snapshots before the next eps allocates its own
        defect = float(eps ** (ell - 1.0 - gamma) * T)
        rows.append(BallisticRow(
            eps=float(eps), T_rescaled=t_resc, windowed=m_win,
            ratio=m_win / t_resc, defect_bound=defect,
            conclusive=defect < 1.0, valid=bool(ok), guard_reach=reach,
            solver=stats))
    return BallisticReport(gamma=gamma, T=T, ell=ell, rows=rows)


def affine_ballistic_fit(T_values, windowed_values):
    """Fit windowed moments to offset + slope * T and return per-T slopes.

    The windowed moment at zero offset is an O(1) quantity (the data's own
    weighted mass), so the ballistic law is affine in the window offset;
    removing the fitted offset isolates the transport rate, whose per-T
    values should be flat for a ballistic medium.
    """
    T = np.asarray(list(T_values), dtype=float)
    M = np.asarray(list(windowed_values), dtype=float)
    slope, offset = np.polyfit(T, M, 1)
    per_T = (M - offset) / T
    return float(offset), float(slope), per_T


def constant_medium_moment_scan(box: TorusGrid, lam: float, T_values) -> MomentReport:
    """Windowed moments of free propagation at several window offsets.

    Used to exhibit the ballistic scaling M(lam, T/lam) ~ T for the
    homogeneous 1D medium; all windows are gathered from one exact
    trajectory, whose Bloch blocks are 1 x 1 (one node per period, eps = h).
    """
    a_box = np.ones((1, 1) + box.shape)
    u0 = gaussian_data(box, lam)
    window = 1.0 / lam
    times = set()
    for T in T_values:
        start = T / lam
        times.update(np.linspace(start, start + window,
                                 SNAPSHOTS_PER_WINDOW).tolist())
    traj = solve_fine_wave_exact(a_box, box, u0, sorted(times), box.h)
    ok, _, _ = wrap_guard(u0, box, max(T_values) / lam + window, 1.0)
    return MomentReport(
        windowed={float(T): windowed_moment(traj, lam, T / lam)
                  for T in T_values},
        valid=bool(ok))
