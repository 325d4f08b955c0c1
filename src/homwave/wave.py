"""Wave propagation on a periodic box: fine-scale and effective solvers.

The fine scale discretizes div(a(x/eps) grad) in conservative flux form
with harmonic face averaging (robust for laminates).  Two solvers share
that operator:

- ``homwave.bloch.solve_fine_wave_exact`` (1D, periodic medium, no source)
  splits the operator into Bloch blocks and evolves every mode exactly in
  time.  It is the reference of the ``wave-compare`` and ``transport``
  experiments, so their errors carry no time-stepping error.
- ``solve_fine_wave`` steps with the leapfrog scheme in kick-drift-kick
  form, which carries the velocity and makes energy-norm errors directly
  measurable.  It takes sources and any dimension, and is the reference of
  the ``source-term`` experiment and the constant-medium moment scan, and
  the independent cross-check of the exact solver.

All effective equations are constant-coefficient and are solved exactly
per Fourier mode; corrector dressing turns the effective fields into
fine-scale approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dispersion import CutoffSpec, DispersionModel, cutoff
from .torus import (
    ConfigurationError,
    TorusGrid,
    _sym_eig_bounds,
    deriv_values,
    evaluate_coefficient,
    fftn,
    gradient_values,
    ifftn,
    prolong_values,
)


class InstabilityError(RuntimeError):
    """Time stepping produced non-finite values."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class PositivityError(RuntimeError):
    """Effective symbol is negative at a retained mode."""


@dataclass(frozen=True)
class BoxGrid:
    """Periodic computational box [0, side)^dim standing in for free space."""

    dim: int
    n: int
    side: float

    def __post_init__(self):
        TorusGrid(self.dim, self.n, self.side)  # validates

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def h(self) -> float:
        return self.side / self.n

    def torus(self) -> TorusGrid:
        return TorusGrid(self.dim, self.n, self.side)

    def points_per_period(self, eps: float) -> int:
        m = self.side / eps
        m_int = int(round(m))
        if abs(m - m_int) > 1e-9 * max(1.0, m) or m_int < 1:
            raise ConfigurationError(
                f"eps={eps} does not divide the box side {self.side}")
        if self.n % m_int != 0:
            raise ConfigurationError(
                f"eps={eps}: {m_int} periods do not divide {self.n} points")
        return self.n // m_int

    def validate_epsilon(self, eps: float, min_points: int = 16) -> None:
        p = self.points_per_period(eps)
        if p < min_points:
            raise ConfigurationError(
                f"only {p} points per period eps={eps}; need >= {min_points}")


def box_coordinates(box: BoxGrid) -> np.ndarray:
    axes = box.torus().coordinate_axes()
    return np.stack([np.broadcast_to(ax, box.shape) for ax in axes])


def box_wavevectors(box: BoxGrid) -> np.ndarray:
    axes = box.torus().wavenumber_axes()
    return np.stack([np.broadcast_to(ax, box.shape) for ax in axes])


def coefficient_on_box(spec: dict, box: BoxGrid, eps: float) -> np.ndarray:
    """Sample a(x / eps) at box nodes from an analytic catalog entry.

    Raw-grid coefficients are extended piecewise-constantly (nearest cell
    sample) when the box lattice refines the cell lattice, and by exact
    subsampling when it coarsens it.
    """
    box.validate_epsilon(eps)
    if spec.get("kind") != "raw":
        x = box_coordinates(box) / eps
        return evaluate_coefficient(spec, x, box.dim)
    raw = np.asarray(spec["values"], dtype=float)
    n_cell = raw.shape[-1]
    p = box.points_per_period(eps)
    if p % n_cell == 0:
        rep = p // n_cell
        out = raw
        for ax in range(box.dim):
            out = np.repeat(out, rep, axis=2 + ax)
    elif n_cell % p == 0:
        stride = n_cell // p
        sl = (slice(None), slice(None)) + (slice(None, None, stride),) * box.dim
        out = raw[sl]
    else:
        raise ConfigurationError(
            f"box lattice ({p}/period) incommensurate with raw cell grid {n_cell}")
    reps = (1, 1) + (box.n // out.shape[-1],) * box.dim
    return np.tile(out, reps)


# ---------------------------------------------------------------------------
# resampling unit-cell fields onto the box
# ---------------------------------------------------------------------------

def _fold_axis(spec: np.ndarray, axis: int, p: int) -> np.ndarray:
    n = spec.shape[axis]
    moved = np.moveaxis(spec, axis, -1)
    folded = moved.reshape(moved.shape[:-1] + (n // p, p)).sum(axis=-2)
    return np.moveaxis(folded, -1, axis)


def sample_cell_on_box(cell_grid: TorusGrid, values: np.ndarray,
                       box: BoxGrid, eps: float) -> np.ndarray:
    """Evaluate the trig interpolant of a unit-cell field at box nodes x/eps.

    Box nodes hit an equispaced sublattice of the rescaled cell, so the exact
    evaluation reduces to spectral folding (coarser) or zero-padding (finer)
    followed by periodic tiling.
    """
    if abs(cell_grid.period - 1.0) > 1e-12:
        raise ConfigurationError("cell fields must live on the unit cell")
    p = box.points_per_period(eps)
    n_cell = cell_grid.n
    if p == n_cell:
        tile = values
    elif p < n_cell:
        if n_cell % p:
            raise ConfigurationError("cell grid does not refine the box lattice")
        spec = fftn(cell_grid, values)
        for ax in range(box.dim):
            spec = _fold_axis(spec, spec.ndim - box.dim + ax, p)
        small = TorusGrid(box.dim, p, 1.0)
        tile = ifftn(small, spec, real=False) * (p / n_cell) ** box.dim
        if np.isrealobj(values):
            tile = tile.real
    else:
        if p % n_cell:
            raise ConfigurationError("box lattice does not refine the cell grid")
        tile = prolong_values(cell_grid, values, p // n_cell)
    reps = (1,) * (values.ndim - box.dim) + (box.n // p,) * box.dim
    return np.tile(tile, reps)


@dataclass
class BoxCorrectors:
    """Tensorized corrector coefficient fields materialized at box nodes.

    ``phi[j]`` has shape (n_monomials, box...); ``grad_phi[j]`` has shape
    (dim, n_monomials, box...) and is the physical-space gradient of
    phi_j(x/eps), i.e. it carries the 1/eps factor.
    """

    box: BoxGrid
    eps: float
    order: int
    dim: int
    phi: list
    grad_phi: list

    @classmethod
    def from_tensorized(cls, tensors, box: BoxGrid, eps: float) -> "BoxCorrectors":
        grid = tensors.grid
        phi, grad_phi = [], []
        for j in range(tensors.order + 1):
            coeffs = tensors.phi[j]
            phi.append(sample_cell_on_box(grid, coeffs, box, eps))
            cell_grad = np.stack([
                np.stack([deriv_values(grid, coeffs[r], [ax])
                          for r in range(coeffs.shape[0])])
                for ax in range(grid.dim)])
            grad_phi.append(sample_cell_on_box(grid, cell_grad, box, eps) / eps)
        return cls(box=box, eps=eps, order=tensors.order, dim=box.dim,
                   phi=phi, grad_phi=grad_phi)

    @classmethod
    def from_oracle(cls, hierarchy1d, box: BoxGrid, eps: float) -> "BoxCorrectors":
        """Exact piecewise evaluation for 1D profiles (no Gibbs)."""
        if box.dim != 1:
            raise ConfigurationError("oracle correctors are one-dimensional")
        x = box_coordinates(box)[0]
        y = np.mod(x / eps, 1.0)
        phi, grad_phi = [], []
        for j in range(hierarchy1d.order + 1):
            pp = hierarchy1d.phi[j]
            phi.append(pp(y)[None])
            grad_phi.append((pp.derivative()(y) / eps)[None, None])
        return cls(box=box, eps=eps, order=hierarchy1d.order, dim=1,
                   phi=phi, grad_phi=grad_phi)


def _box_derivative(box: BoxGrid, values: np.ndarray, orders) -> np.ndarray:
    multi = []
    for ax, m in enumerate(orders):
        multi.extend([ax] * m)
    return deriv_values(box.torus(), values, multi)


class _DerivCache:
    def __init__(self, box: BoxGrid, values: np.ndarray):
        self.box = box
        self.cache = {(0,) * box.dim: np.asarray(values)}

    def get(self, orders: tuple) -> np.ndarray:
        if orders not in self.cache:
            base = self.cache[(0,) * self.box.dim]
            self.cache[orders] = _box_derivative(self.box, base, orders)
        return self.cache[orders]


def dress_with_correctors(bc: BoxCorrectors, values: np.ndarray,
                          max_order: int | None = None,
                          cache: _DerivCache | None = None) -> np.ndarray:
    """Corrector-dressed expansion sum_j eps^j phi_j(x/eps) . grad^j values."""
    ell = bc.order if max_order is None else max_order
    cache = cache or _DerivCache(bc.box, values)
    out = np.zeros_like(np.asarray(values, dtype=float))
    for j in range(ell + 1):
        coeffs = bc.phi[j]
        for r in range(coeffs.shape[0]):
            orders = (j - r, r) if bc.dim == 2 else (j,)
            out = out + bc.eps ** j * coeffs[r] * cache.get(orders)
    return out


def dressed_gradient(bc: BoxCorrectors, values: np.ndarray,
                     max_order: int | None = None,
                     cache: _DerivCache | None = None) -> np.ndarray:
    """Exact gradient of the dressed expansion via the product rule.

    Avoids spectrally differentiating the assembled product, which would be
    Gibbs-limited when the corrector fields have kinks.
    """
    ell = bc.order if max_order is None else max_order
    cache = cache or _DerivCache(bc.box, values)
    out = np.zeros((bc.dim,) + bc.box.shape)
    for j in range(ell + 1):
        coeffs = bc.phi[j]
        gcoeffs = bc.grad_phi[j]
        for r in range(coeffs.shape[0]):
            orders = (j - r, r) if bc.dim == 2 else (j,)
            base = cache.get(orders)
            for m in range(bc.dim):
                bumped = list(orders)
                bumped[m] += 1
                out[m] = out[m] + bc.eps ** j * (
                    gcoeffs[m, r] * base + coeffs[r] * cache.get(tuple(bumped)))
    return out


# ---------------------------------------------------------------------------
# fine-scale solver
# ---------------------------------------------------------------------------

@dataclass
class WaveTrajectory:
    """Snapshots (u, du/dt) of a fine-scale run, with an energy log."""

    box: BoxGrid
    eps: float | None
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dt: float
    energy: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    def energy_drift(self) -> float:
        e0 = self.meta.get("energy_t0", self.energy[0])
        if e0 == 0.0:
            return float(np.max(np.abs(self.energy)))
        return float(np.max(np.abs(self.energy - e0)) / abs(e0))

    def solver_stats(self) -> dict:
        """Solver name, its work counts and the energy drift, for manifests."""
        stats = {key: self.meta[key]
                 for key in ("solver", "blocks", "block_size", "steps")
                 if key in self.meta}
        stats["energy_drift"] = self.energy_drift()
        return stats


def _face_harmonic(a_diag: np.ndarray, axis: int) -> np.ndarray:
    nxt = np.roll(a_diag, -1, axis=axis)
    return 2.0 * a_diag * nxt / (a_diag + nxt)


class FluxFormOperator:
    """Conservative second-order discretization of div(a grad u).

    Diagonal entries use flux form with harmonic face averages; off-diagonal
    entries (if any) use centered differences, keeping the operator symmetric.
    """

    def __init__(self, box: BoxGrid, a_values: np.ndarray):
        d = box.dim
        if a_values.shape != (d, d) + box.shape:
            raise ConfigurationError("coefficient shape does not match box")
        self.box = box
        self.h = box.h
        self.faces = [_face_harmonic(a_values[m, m], m) for m in range(d)]
        self.offdiag = []
        if d == 2 and np.any(a_values[0, 1]):
            self.offdiag = [(0, 1, a_values[0, 1]), (1, 0, a_values[1, 0])]
        _, lam_max = _sym_eig_bounds(a_values, d)
        self.lambda_max = lam_max

    def apply(self, u: np.ndarray) -> np.ndarray:
        h2 = self.h ** 2
        out = np.zeros_like(u)
        for m, af in enumerate(self.faces):
            flux = af * (np.roll(u, -1, axis=m) - u)
            out += (flux - np.roll(flux, 1, axis=m)) / h2
        for m, n, amn in self.offdiag:
            dn = (np.roll(u, -1, axis=n) - np.roll(u, 1, axis=n)) / (2 * self.h)
            w = amn * dn
            out += (np.roll(w, -1, axis=m) - np.roll(w, 1, axis=m)) / (2 * self.h)
        return out

    def cfl_dt(self, factor: float = 0.9) -> float:
        return factor * self.h / (math.sqrt(self.box.dim)
                                  * math.sqrt(self.lambda_max))

    def energy(self, u: np.ndarray, v: np.ndarray) -> float:
        cell = self.h ** self.box.dim
        return float(0.5 * np.sum(v * v) * cell
                     - 0.5 * np.sum(u * self.apply(u)) * cell)


def _global_substep(gaps: np.ndarray, dt_max: float) -> float | None:
    """Largest dt <= dt_max dividing every snapshot gap, if one exists.

    A shared substep keeps the staggered leapfrog energy an exact invariant
    of the whole run; with incommensurate gaps each span gets its own dt and
    the invariant is conserved per span only.
    """
    gaps = gaps[gaps > 1e-14]
    if gaps.size == 0:
        return dt_max
    dt = gaps.min() / math.ceil(gaps.min() / dt_max - 1e-12)
    ratios = gaps / dt
    if np.all(np.abs(ratios - np.round(ratios)) < 1e-9):
        return dt
    return None


def _fine_inputs(box: BoxGrid, u0, v0, times):
    """Validated fine-solver inputs: sorted snapshot times and float copies
    of the initial displacement and velocity (zero when ``v0`` is None)."""
    times = np.asarray(sorted(float(t) for t in times))
    if times.size == 0 or times[0] < 0:
        raise ConfigurationError("snapshot times must be nonnegative")
    u = np.array(u0, dtype=float)
    v = np.zeros_like(u) if v0 is None else np.array(v0, dtype=float)
    if u.shape != box.shape or v.shape != box.shape:
        raise ConfigurationError("initial data shape does not match box")
    return times, u, v


def solve_fine_wave(a_box: np.ndarray, box: BoxGrid, u0: np.ndarray,
                    v0: np.ndarray | None = None, source=None,
                    times=(1.0,), eps: float | None = None,
                    cfl: float = 0.9) -> WaveTrajectory:
    """Integrate u_tt = div(a grad u) + f with periodic leapfrog stepping.

    Leapfrog is run in kick-drift-kick form so (u, du/dt) is available at
    every snapshot; snapshot times are hit exactly.  The energy log records
    the staggered leapfrog invariant 0.5 |v_half|^2 - 0.5 <L u_n, u_n+1>,
    which the scheme conserves to roundoff for a source-free run (the
    instantaneous physical energy only oscillates at O(dt^2) and is kept in
    ``meta``).
    """
    op = FluxFormOperator(box, a_box)
    dt_max = op.cfl_dt(cfl)
    if dt_max <= 0:
        raise ConfigurationError("CFL limit is not positive")
    times, u, v = _fine_inputs(box, u0, v0, times)

    snap_times = times if times[0] == 0.0 else np.concatenate([[0.0], times])
    dt_shared = _global_substep(np.diff(np.concatenate([[0.0], snap_times])), dt_max)
    cell = box.h ** box.dim

    def staggered_energy(v_half, lap_old, u_new):
        return float(0.5 * np.sum(v_half * v_half) * cell
                     - 0.5 * np.sum(lap_old * u_new) * cell)

    skip = len(snap_times) - len(times)     # 1 when t = 0 was prepended
    u_snaps = np.empty((len(times),) + u.shape)
    v_snaps = np.empty_like(u_snaps)
    energies, phys = [], []
    t = 0.0
    lap = op.apply(u)
    ft = source(0.0) if source is not None else None
    accel = lap if ft is None else lap + ft
    # invariant baseline from a probe step (state not advanced)
    dt0 = dt_shared if dt_shared is not None else dt_max
    v_probe = v + 0.5 * dt0 * accel
    estar = staggered_energy(v_probe, lap, u + dt0 * v_probe)
    step_count = 0
    for i, target in enumerate(snap_times):
        span = target - t
        if span > 1e-14:
            if dt_shared is not None:
                nsub = int(round(span / dt_shared))
                dt = dt_shared
            else:
                nsub = max(1, int(math.ceil(span / dt_max - 1e-12)))
                dt = span / nsub
            for _ in range(nsub):
                v_half = v + 0.5 * dt * accel
                u_new = u + dt * v_half
                t += dt
                lap_new = op.apply(u_new)
                ft = source(t) if source is not None else None
                accel = lap_new if ft is None else lap_new + ft
                v = v_half + 0.5 * dt * accel
                lap_old = lap
                u, lap = u_new, lap_new
                step_count += 1
            # the invariant is read only at snapshots, from the last step
            estar = staggered_energy(v_half, lap_old, u)
            t = target
        if not np.all(np.isfinite(u)):
            raise InstabilityError(
                f"non-finite field at t={t:.6g}", step=step_count)
        if i >= skip:
            u_snaps[i - skip] = u
            v_snaps[i - skip] = v
        energies.append(estar)
        phys.append(float(0.5 * np.sum(v * v) * cell - 0.5 * np.sum(lap * u) * cell))

    return WaveTrajectory(
        box=box, eps=eps, times=snap_times[skip:], u=u_snaps, v=v_snaps,
        dt=dt0, energy=np.asarray(energies[skip:]),
        meta={"solver": "leapfrog", "steps": step_count, "cfl_dt": dt_max,
              "shared_dt": dt_shared,
              "energy_t0": energies[0], "physical_energy": np.asarray(phys[skip:]),
              "source_active": source is not None})


# ---------------------------------------------------------------------------
# spectral effective propagators
# ---------------------------------------------------------------------------

def filtered_dispersion(model: DispersionModel, spec: CutoffSpec,
                        box: BoxGrid, eps: float):
    """(filter weights, propagation frequency) on the box mode lattice.

    The frequency is Lambda(eps k) / eps evaluated only where the filter is
    positive, which is exactly where the truncated eigenvalue is guaranteed
    nonnegative.
    """
    k = box_wavevectors(box)
    radii = np.sqrt(np.sum(k ** 2, axis=0))
    weights = cutoff(spec, eps * radii)
    mask = weights > 0.0
    from .dispersion import eigenvalue as _eig
    eig = np.zeros(box.shape)
    if np.any(mask):
        km = eps * k[:, mask]
        eig_vals = _eig(model, km)
        if np.any(eig_vals < -1e-13 * max(1.0, float(np.max(np.abs(eig_vals))))):
            raise PositivityError(
                "truncated eigenvalue negative inside the filter support")
        eig[mask] = np.maximum(eig_vals, 0.0)
    omega = np.sqrt(eig) / eps
    return weights, omega


def spectral_wave_state(weights: np.ndarray, omega: np.ndarray,
                        u0: np.ndarray, box: BoxGrid, t: float,
                        v0: np.ndarray | None = None):
    """Exact per-mode evolution of (u, u_t) for u_tt + omega^2 u = 0.

    Modes are premultiplied by the filter ``weights``; time reversal is exact
    since the mode evolution is a rotation.
    """
    grid = box.torus()
    u_hat = fftn(grid, u0) * weights
    v_hat = fftn(grid, v0) * weights if v0 is not None else None
    cos_t = np.cos(omega * t)
    u_t_hat = u_hat * cos_t
    if v_hat is not None:
        sinc = np.where(omega > 0, np.sin(omega * t) / np.where(omega > 0, omega, 1.0), t)
        u_t_hat = u_t_hat + v_hat * sinc
    vel_hat = -omega * np.sin(omega * t) * u_hat
    if v_hat is not None:
        vel_hat = vel_hat + np.cos(omega * t) * v_hat
    return (ifftn(grid, u_t_hat, real=True), ifftn(grid, vel_hat, real=True))


def homogenized_wave_field(model: DispersionModel, spec: CutoffSpec,
                           u0: np.ndarray, box: BoxGrid, eps: float,
                           t: float, return_velocity: bool = False):
    """Filtered effective wave field: per-mode cosine of the dispersion.

    At t = 0 this returns the low-pass filtered data; the output is real
    because the symbol is even in k.
    """
    weights, omega = filtered_dispersion(model, spec, box, eps)
    u, v = spectral_wave_state(weights, omega, u0, box, t)
    return (u, v) if return_velocity else u


def filtered_data(spec: CutoffSpec, u0: np.ndarray, box: BoxGrid,
                  eps: float) -> np.ndarray:
    grid = box.torus()
    k = box_wavevectors(box)
    radii = np.sqrt(np.sum(k ** 2, axis=0))
    weights = cutoff(spec, eps * radii)
    return ifftn(grid, fftn(grid, u0) * weights, real=True)


def well_prepared_data(bc: BoxCorrectors, spec: CutoffSpec, u0: np.ndarray,
                       box: BoxGrid, eps: float, ell: int | None = None) -> np.ndarray:
    """Corrector-dressed filtered data: the expansion applied to the low-pass
    part of u0."""
    if ell is not None and ell > bc.order:
        raise ConfigurationError(
            f"corrector order {bc.order} below requested order {ell}")
    return dress_with_correctors(bc, filtered_data(spec, u0, box, eps),
                                 max_order=ell)


def taylor_bloch_ansatz(bc: BoxCorrectors, model: DispersionModel,
                        spec: CutoffSpec, u0: np.ndarray, box: BoxGrid,
                        eps: float, t: float, ell: int | None = None) -> np.ndarray:
    """Bloch-wave-dressed effective field.

    Per mode, the dressing multiplies by the truncated Bloch wave at eps*k;
    summed over modes this is exactly the corrector-dressed expansion of the
    effective field, which is how it is assembled here.
    """
    u_eff = homogenized_wave_field(model, spec, u0, box, eps, t)
    return dress_with_correctors(bc, u_eff, max_order=ell)


# ---------------------------------------------------------------------------
# regularized effective operator
# ---------------------------------------------------------------------------

def regularization_order(ell: int) -> int:
    return (ell - 1) // 2 + 1


def effective_symbol(model: DispersionModel, gamma: float, eps: float,
                     ell: int, k: np.ndarray) -> np.ndarray:
    """Symbol of the effective elliptic operator with coercive regularization.

    sum over even j < ell of (-1)^(j/2) eps^j P_j(k) plus
    gamma eps^(2m) |k|^(2m+2), m = floor((ell-1)/2) + 1.
    """
    out = np.zeros(k.shape[1:])
    for j in range(0, ell, 2):
        out = out + (-1.0) ** (j // 2) * eps ** j * model.poly_value(j, k)
    if gamma != 0.0:
        m = regularization_order(ell)
        k2 = np.sum(k ** 2, axis=0)
        out = out + gamma * eps ** (2 * m) * k2 ** (m + 1)
    return out


def _coercivity_polynomial(model: DispersionModel, gamma: float, ell: int,
                           e: np.ndarray) -> np.ndarray:
    """Deficit polynomial p(s^2) = [symbol - target] / s^2 along direction e.

    After the rescaling s = eps * kappa the coercivity inequality
    symbol >= (s^2 + s^(2m+2)) / 2 is eps-independent; p is returned in
    powers of u = s^2 (low to high).
    """
    m = regularization_order(ell)
    coeffs = np.zeros(m + 1)
    e = np.asarray(e, dtype=float).reshape(model.dim, 1)
    for j in range(0, ell, 2):
        coeffs[j // 2] += (-1.0) ** (j // 2) * float(model.poly_value(j, e)[0])
    coeffs[0] -= 0.5
    coeffs[m] += gamma - 0.5
    return coeffs


def _poly_nonneg_on_halfline(coeffs: np.ndarray) -> bool:
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if coeffs.size == 0:
        return True
    if coeffs[-1] < 0 or coeffs[0] < 0:
        return False
    from numpy.polynomial import polynomial as npoly
    crit = npoly.polyroots(npoly.polyder(coeffs)) if coeffs.size > 2 else np.array([])
    for root in np.atleast_1d(crit):
        if abs(root.imag) < 1e-9 and root.real > 0:
            if npoly.polyval(root.real, coeffs) < -1e-12 * max(1.0, abs(coeffs[0])):
                return False
    return True


def choose_gamma(model: DispersionModel, ell: int) -> float:
    """Coercivity constant for the regularized effective operator.

    Orders <= 2 need no regularization.  If the unregularized symbol already
    dominates |k|^2 / 2 along every sampled direction (no negative dispersive
    correction), zero suffices.  Otherwise the minimal gamma making the
    rescaled one-variable inequality hold is found by bisection and doubled
    for margin; the result does not depend on eps.
    """
    if ell <= 2:
        return 0.0
    dirs = model.directions

    def feasible(gamma: float, drop_high_order: bool = False) -> bool:
        for e in dirs:
            coeffs = _coercivity_polynomial(model, gamma, ell, e)
            if drop_high_order:
                coeffs = coeffs.copy()
                coeffs[-1] += 0.5  # target without the high-order term
            if not _poly_nonneg_on_halfline(coeffs):
                return False
        return True

    if feasible(0.0, drop_high_order=True):
        return 0.0
    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > 1e12:
            raise PositivityError("no feasible regularization constant found")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return 2.0 * hi


def symbol_coercivity_margin(model: DispersionModel, gamma: float, eps: float,
                             ell: int, box: BoxGrid) -> float:
    """min over nonzero modes of symbol - target (target drops the
    high-order part when gamma = 0)."""
    k = box_wavevectors(box)
    sym = effective_symbol(model, gamma, eps, ell, k)
    k2 = np.sum(k ** 2, axis=0)
    m = regularization_order(ell)
    target = 0.5 * k2
    if gamma > 0:
        target = target + 0.5 * eps ** (2 * m) * k2 ** (m + 1)
    margin = sym - target
    nz = k2 > 0
    return float(np.min(margin[nz]))


def solve_homogenized_wave(model: DispersionModel, gamma: float,
                           u0: np.ndarray, box: BoxGrid, eps: float, ell: int,
                           times, return_velocity: bool = False):
    """Exact per-mode solve of the regularized effective wave equation.

    The initial data is NOT filtered here; positivity of the symbol at every
    retained mode is required and checked.
    """
    k = box_wavevectors(box)
    sym = effective_symbol(model, gamma, eps, ell, k)
    bad = sym < -1e-13 * max(1.0, float(np.max(np.abs(sym))))
    if np.any(bad):
        idx = tuple(np.argwhere(bad)[0])
        kbad = [float(k[m][idx]) for m in range(box.dim)]
        raise PositivityError(
            f"effective symbol negative at mode k={kbad}: {float(sym[idx]):.3e}; "
            "increase the regularization constant")
    omega = np.sqrt(np.maximum(sym, 0.0))
    weights = np.ones(box.shape)
    out = []
    for t in times:
        out.append(spectral_wave_state(weights, omega, u0, box, float(t)))
    if return_velocity:
        return out
    return [u for u, _ in out]


# ---------------------------------------------------------------------------
# dispersive reformulation with nonnegative tensors
# ---------------------------------------------------------------------------

@dataclass
class BoussinesqTensors:
    """Nonnegative second/fourth-order pair replacing the dispersive term.

    b = beta * Id and the direction polynomial c(e) = beta P0(e) - P2(e)
    satisfy P2 = beta P0 |e|^2 - c with both sides PSD on directions.
    """

    dim: int
    beta: float
    c_coeffs: np.ndarray
    identity_residual: float
    c_min_on_directions: float

    def b_quadratic(self, k: np.ndarray) -> np.ndarray:
        return self.beta * np.sum(k ** 2, axis=0)

    def c_quartic(self, k: np.ndarray) -> np.ndarray:
        from .correctors import evaluate_monomials
        return evaluate_monomials(self.c_coeffs, 4, k)


def _poly_times_k2(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Multiply a homogeneous direction polynomial by |e|^2 (monomial basis)."""
    if dim == 1:
        return np.asarray(coeffs, dtype=float)
    out = np.zeros(len(coeffs) + 2)
    out[:-2] += coeffs  # * e1^2
    out[2:] += coeffs   # * e2^2
    return out


def boussinesq_decomposition(model: DispersionModel,
                             n_directions: int = 64) -> BoussinesqTensors:
    """Split the fourth-order dispersive tensor into nonnegative parts.

    beta is the smallest constant with beta P0(e) >= P2(e) on sampled unit
    directions (clipped at zero), so c = beta P0 |e|^2 - P2 is pointwise
    nonnegative there; the splitting identity is exact by construction and
    its residual is re-verified on the samples.
    """
    if model.ell < 3:
        raise ConfigurationError("needs the order-2 dispersion polynomial")
    if model.dim == 1:
        dirs = np.array([[1.0]])
    else:
        theta = (np.arange(n_directions) + 0.5) * np.pi / n_directions
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    p0 = np.array([float(model.poly_value(0, e.reshape(model.dim, 1))[0])
                   for e in dirs])
    p2 = np.array([float(model.poly_value(2, e.reshape(model.dim, 1))[0])
                   for e in dirs])
    beta = max(0.0, float(np.max(p2 / p0)))
    c_full = (beta * _poly_times_k2(np.atleast_1d(model.polys[0]), model.dim)
              - np.atleast_1d(model.polys[2]))

    from .correctors import evaluate_monomials
    c_vals = np.array([float(evaluate_monomials(c_full, 4, e.reshape(model.dim, 1))[0])
                       for e in dirs])
    ident = np.max(np.abs(beta * p0 - c_vals - p2)) / max(1.0, np.max(np.abs(p2)),
                                                          beta * np.max(p0))
    return BoussinesqTensors(dim=model.dim, beta=beta, c_coeffs=c_full,
                             identity_residual=float(ident),
                             c_min_on_directions=float(np.min(c_vals)))


def boussinesq_frequency(model: DispersionModel, bt: BoussinesqTensors,
                         eps: float, k: np.ndarray) -> np.ndarray:
    """Omega(k)^2 = (P0(k) + eps^2 c(k)) / (1 + eps^2 b(k)), nonneg by PSD."""
    num = model.poly_value(0, k) + eps ** 2 * bt.c_quartic(k)
    den = 1.0 + eps ** 2 * bt.b_quadratic(k)
    return num / den


def solve_boussinesq_wave(model: DispersionModel, bt: BoussinesqTensors,
                          u0: np.ndarray, box: BoxGrid, eps: float, times,
                          return_velocity: bool = False):
    """Per-mode exact solve of the dispersive equation with inert mass term."""
    k = box_wavevectors(box)
    omega2 = boussinesq_frequency(model, bt, eps, k)
    omega = np.sqrt(np.maximum(omega2, 0.0))
    weights = np.ones(box.shape)
    out = [spectral_wave_state(weights, omega, u0, box, float(t)) for t in times]
    if return_velocity:
        return out
    return [u for u, _ in out]


# ---------------------------------------------------------------------------
# localized-in-time source terms
# ---------------------------------------------------------------------------

def source_term_field(model: DispersionModel, spec: CutoffSpec, source,
                      box: BoxGrid, eps: float, t: float,
                      bc: BoxCorrectors | None = None,
                      n_quad: int = 96, support: float = 1.0):
    """Duhamel solution of the filtered effective equation with source f.

    Per mode, u(t) integrates f against the kernel sin(omega (t-s)) / omega
    over s in [0, min(t, support)] with Gauss-Legendre quadrature dense
    enough for the fastest retained frequency.  ``bc`` switches on corrector
    dressing (the dressed and plain variants share the time integral).
    Returns (u, u_t).
    """
    weights, omega = filtered_dispersion(model, spec, box, eps)
    omega_max = float(np.max(omega))
    s_end = min(t, support)
    if s_end < 0:
        raise ConfigurationError("time must be nonnegative")
    if n_quad < 2 * omega_max * s_end / math.pi + 16:
        raise ConfigurationError(
            f"quadrature too coarse: need >= {2 * omega_max * s_end / math.pi + 16:.0f} "
            f"nodes for frequency {omega_max:.3g}")
    grid = box.torus()
    u_hat = np.zeros(box.shape, dtype=complex)
    ut_hat = np.zeros(box.shape, dtype=complex)
    if s_end > 0:
        nodes, wq = np.polynomial.legendre.leggauss(n_quad)
        s = 0.5 * s_end * (nodes + 1.0)
        wq = 0.5 * s_end * wq
        sinc_arg = omega
        for sq, wgt in zip(s, wq):
            f_hat = fftn(grid, source(sq)) * weights
            phase = sinc_arg * (t - sq)
            kern = np.where(sinc_arg > 0,
                            np.sin(phase) / np.where(sinc_arg > 0, sinc_arg, 1.0),
                            t - sq)
            u_hat += wgt * f_hat * kern
            ut_hat += wgt * f_hat * np.cos(phase)
    u = ifftn(grid, u_hat, real=True)
    ut = ifftn(grid, ut_hat, real=True)
    if bc is not None:
        u = dress_with_correctors(bc, u)
        ut = dress_with_correctors(bc, ut)
    return u, ut


# ---------------------------------------------------------------------------
# error budgets and reports
# ---------------------------------------------------------------------------

@dataclass
class ErrorBudget:
    """Error envelope eps + eps^ell * t * mu(t / eps) with growth exponents.

    mu(t) = (1 + t)^alpha1 * log2(2 + t)^alpha2 is identically 1 for
    periodic media (alpha = (0, 0)); other exponents are reporting envelopes
    supplied by the user.
    """

    ell: int
    alpha: tuple = (0.0, 0.0)
    prefactor: float = 1.0

    def mu(self, t) -> np.ndarray:
        a1, a2 = self.alpha
        t = np.asarray(t, dtype=float)
        return (1.0 + t) ** a1 * np.log2(2.0 + t) ** a2

    def curve(self, eps: float, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.prefactor * (eps + eps ** self.ell * t * self.mu(t / eps))


def box_l2(box: BoxGrid, values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(values) ** 2) * box.side ** box.dim))


@dataclass
class ErrorReport:
    times: np.ndarray
    l2_error: np.ndarray
    energy_error: np.ndarray | None
    budget: np.ndarray
    sup_l2: float
    warnings: list = dc_field(default_factory=list)

    def rows(self):
        out = [("t", "l2_error", "energy_error", "budget")]
        for i, t in enumerate(self.times):
            en = "" if self.energy_error is None else format(self.energy_error[i], ".17g")
            out.append((format(t, ".17g"), format(self.l2_error[i], ".17g"),
                        en, format(self.budget[i], ".17g")))
        return out


def error_report(reference: WaveTrajectory, approx_u: np.ndarray,
                 budget: ErrorBudget, eps: float,
                 approx_v: np.ndarray | None = None,
                 approx_grad: np.ndarray | None = None,
                 warnings=()) -> ErrorReport:
    """Per-time L2 (and energy-norm) gaps against the budget curve.

    ``approx_u`` has shape (n_times, box...); the energy norm combines the
    velocity gap with the gradient gap and needs both supplied (the
    reference gradient is formed spectrally on the box).
    """
    box = reference.box
    times = reference.times
    if approx_u.shape[0] != times.size:
        raise ConfigurationError("approximation snapshots do not match times")
    l2 = np.array([box_l2(box, reference.u[i] - approx_u[i])
                   for i in range(times.size)])
    energy = None
    if approx_v is not None and approx_grad is not None:
        grid = box.torus()
        energy = np.zeros(times.size)
        for i in range(times.size):
            dv = reference.v[i] - approx_v[i]
            dg = gradient_values(grid, reference.u[i]) - approx_grad[i]
            energy[i] = math.sqrt(box_l2(box, dv) ** 2 + box_l2(box, dg) ** 2)
    return ErrorReport(times=times, l2_error=l2, energy_error=energy,
                       budget=budget.curve(eps, times), sup_l2=float(np.max(l2)),
                       warnings=list(warnings))


def save_trajectory(traj: WaveTrajectory, stem: str) -> None:
    """Write snapshots as flat binary arrays plus a JSON sidecar.

    ``stem`` gets the suffixes ``.u.bin``, ``.v.bin`` (float64, C order,
    snapshots-major) and ``.json`` (grid, times, eps, dt, energy log).
    """
    import json

    np.asarray(traj.u, dtype=np.float64).tofile(f"{stem}.u.bin")
    np.asarray(traj.v, dtype=np.float64).tofile(f"{stem}.v.bin")
    sidecar = {"dim": traj.box.dim, "n": traj.box.n, "side": traj.box.side,
               "eps": traj.eps, "dt": traj.dt,
               "times": [float(t) for t in traj.times],
               "energy": [float(e) for e in traj.energy],
               "energy_t0": float(traj.meta.get("energy_t0", traj.energy[0]))}
    with open(f"{stem}.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trajectory(stem: str) -> WaveTrajectory:
    import json

    with open(f"{stem}.json") as fh:
        sidecar = json.load(fh)
    box = BoxGrid(sidecar["dim"], sidecar["n"], sidecar["side"])
    n_times = len(sidecar["times"])
    shape = (n_times,) + box.shape
    u = np.fromfile(f"{stem}.u.bin", dtype=np.float64).reshape(shape)
    v = np.fromfile(f"{stem}.v.bin", dtype=np.float64).reshape(shape)
    return WaveTrajectory(
        box=box, eps=sidecar["eps"], times=np.asarray(sidecar["times"]),
        u=u, v=v, dt=sidecar["dt"], energy=np.asarray(sidecar["energy"]),
        meta={"energy_t0": sidecar["energy_t0"]})


def support_radius(u0: np.ndarray, box: BoxGrid, center: np.ndarray,
                   threshold: float = 1e-8) -> float:
    """Radius of the smallest centered ball holding all mass above threshold."""
    x = box_coordinates(box)
    delta = np.abs(x - center.reshape((box.dim,) + (1,) * box.dim))
    delta = np.minimum(delta, box.side - delta)
    r = np.sqrt(np.sum(delta ** 2, axis=0))
    mask = np.abs(u0) > threshold * float(np.max(np.abs(u0)))
    if not np.any(mask):
        return 0.0
    return float(np.max(r[mask]))


def wrap_guard(u0: np.ndarray, box: BoxGrid, center: np.ndarray,
               final_time: float, gamma_bar: float):
    """Check r0 + T sqrt(Gamma_bar) < side/2 (wavefront must not wrap).

    Returns (ok, r0, reach); failing the guard invalidates weighted-moment
    readings, while plain L2 comparisons of two periodized evolutions stay
    meaningful.
    """
    r0 = support_radius(u0, box, center)
    reach = r0 + final_time * math.sqrt(max(gamma_bar, 1.0))
    return reach < 0.5 * box.side, r0, reach
