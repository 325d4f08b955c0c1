"""Wave propagation on a periodic box: fine-scale and effective solvers.

The box [0, L)^dim stands in for free space; it is a ``torus.TorusGrid``
of period L, like the unit cell.  The fine scale discretizes
div(a(x/eps) grad) in conservative flux form with harmonic face averaging
(robust for laminates).  Two solvers share that operator:

- ``homwave.bloch.solve_fine_wave_exact`` (1D, periodic medium) splits the
  operator into Bloch blocks, evolves every mode exactly in time, with or
  without a step source h(x) 1[0, 1](t), and returns displacements
  only.  It is the one reference of every wave experiment
  (``wave-compare``, ``transport``, ``source-term`` and the constant-medium
  moment scan), so their errors carry no time-stepping error.
- ``solve_fine_wave`` steps with the leapfrog scheme in kick-drift-kick
  form, in any dimension and without a source.  No experiment runs it: it
  is the independent cross-check of the exact solver.

Every effective model is one constant-coefficient symbol omega^2(k) per
Fourier mode: the filtered truncated Bloch eigenvalue
(``filtered_dispersion``), the regularized operator or the Boussinesq
splitting (``mode_symbol``).  Symbols, filter weights and wavevectors live
on the ``torus`` half lattice (``box_wavevectors``) and fields move through
the one ``torus.rfftn``/``torus.irfftn`` pair; every symbol is even in k,
so the half lattice carries all of its values (``homwave.torus`` states the
one Nyquist-row convention this takes in 2D).  Positivity is checked
once, by ``dispersion``'s one check and error class (``PositivityError``);
the regularization constant of the ell >= 3 symbols (``choose_gamma``) is
a closed form in the roots of one radial polynomial.  The elliptic solve
in ``homwave.elliptic`` divides by omega^2 and every exact wave solve
(effective or Bloch block) rotates each mode through one kernel,
``_rotate``; a step source adds its closed-form Duhamel integral,
``_step_source``, on both sides.  Corrector dressing
(``dress_with_correctors``, ``dressed_gradient``) makes the fields
fine-scale approximations.  It reads the derivatives of a field from a
``torus.DerivativeCache`` of its half spectrum; the effective fields
(``taylor_bloch_ansatz``, whose t = 0 snapshot is the well-prepared data,
and ``source_term_field``) reach it as their filtered spectrum, so no
content above the filter is differentiated.  The ``DispersionModel`` is
the one input that carries the effective order ``ell`` and the filter
radius ``kmax``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.polynomial.polynomial import polyval

from .dispersion import (DispersionModel, PositivityError, _positive_real_roots,
                         _radial_coefficients, _require_positive, cutoff,
                         eigenvalue)
from .torus import (
    ConfigurationError,
    DerivativeCache,
    TorusGrid,
    _half_gradient_multiplier,
    _sym_eig_bounds,
    evaluate_coefficient,
    gradient_values,
    irfftn,
    l2_norm,
    prolong_values,
    rfftn,
)


class InstabilityError(RuntimeError):
    """Time stepping produced non-finite values."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


def box_coordinates(box: TorusGrid) -> np.ndarray:
    return np.stack([np.broadcast_to(ax, box.shape)
                     for ax in box.coordinate_axes()])


def box_wavevectors(box: TorusGrid) -> np.ndarray:
    """Wavevectors of the box modes on the half lattice, shape
    (dim,) + half spectrum."""
    return np.stack([np.broadcast_to(ax, box.half_shape)
                     for ax in box.wavenumber_axes()])


def coefficient_on_box(spec: dict, box: TorusGrid, eps: float) -> np.ndarray:
    """Sample a(x / eps) at the box nodes, at least 16 per period eps, from
    an analytic catalog entry; a ``raw`` grid has none and is rejected."""
    p = box.points_per_period(eps)
    if p < 16:
        raise ConfigurationError(f"only {p} points per period eps={eps}; need >= 16")
    return evaluate_coefficient(spec, box_coordinates(box) / eps, box.dim)


# ---------------------------------------------------------------------------
# resampling unit-cell fields onto the box
# ---------------------------------------------------------------------------

def sample_cell_on_box(cell_grid: TorusGrid, values: np.ndarray,
                       box: TorusGrid, eps: float) -> np.ndarray:
    """Evaluate the trig interpolant of a unit-cell field at box nodes x/eps.

    Box nodes hit an equispaced sublattice of the rescaled cell, so the exact
    evaluation is subsampling of the cell samples (coarser) or zero-padded
    prolongation (finer), followed by periodic tiling; both point counts are
    powers of two, so the coarser divides the finer.
    """
    if abs(cell_grid.period - 1.0) > 1e-12:
        raise ConfigurationError("cell fields must live on the unit cell")
    p = box.points_per_period(eps)
    n_cell = cell_grid.n
    if p == n_cell:
        tile = values
    elif p < n_cell:
        tile = values[(Ellipsis,) + (slice(None, None, n_cell // p),) * box.dim]
    else:
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

    box: TorusGrid
    eps: float
    order: int
    phi: list
    grad_phi: list

    @classmethod
    def from_tensorized(cls, tensors, box: TorusGrid, eps: float) -> "BoxCorrectors":
        grid = tensors.grid
        phi, grad_phi = [], []
        for j in range(tensors.order + 1):
            coeffs = tensors.phi[j]
            phi.append(sample_cell_on_box(grid, coeffs, box, eps))
            # one forward transform per coefficient, one inverse for all axes
            cell_grad = irfftn(grid, _half_gradient_multiplier(grid)[:, None]
                               * rfftn(grid, coeffs))
            grad_phi.append(sample_cell_on_box(grid, cell_grad, box, eps) / eps)
        return cls(box=box, eps=eps, order=tensors.order, phi=phi, grad_phi=grad_phi)

    @classmethod
    def from_oracle(cls, hierarchy1d, box: TorusGrid, eps: float) -> "BoxCorrectors":
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
        return cls(box=box, eps=eps, order=hierarchy1d.order,
                   phi=phi, grad_phi=grad_phi)


def _dressing_order(bc: BoxCorrectors, max_order: int | None) -> int:
    """The dressing order: all of ``bc`` by default, never beyond it."""
    if max_order is None:
        return bc.order
    if max_order > bc.order:
        raise ConfigurationError(
            f"corrector order {bc.order} below requested order {max_order}")
    return max_order


def dress_with_correctors(bc: BoxCorrectors, cache: DerivativeCache,
                          max_order: int | None = None) -> np.ndarray:
    """Corrector-dressed expansion sum_j eps^j phi_j(x/eps) . grad^j u of
    the box field u whose derivatives ``cache`` holds."""
    ell = _dressing_order(bc, max_order)
    return sum(bc.eps ** j * cache.contract(bc.phi[j], j) for j in range(ell + 1))


def dressed_gradient(bc: BoxCorrectors, cache: DerivativeCache,
                     max_order: int | None = None) -> np.ndarray:
    """Exact gradient of the dressed expansion via the product rule.

    Avoids spectrally differentiating the assembled product, which would be
    Gibbs-limited when the corrector fields have kinks.
    """
    ell = _dressing_order(bc, max_order)
    return np.stack([
        sum(bc.eps ** j * (cache.contract(bc.grad_phi[j][m], j)
                           + cache.contract(bc.phi[j], j, shift=m))
            for j in range(ell + 1))
        for m in range(bc.box.dim)])


# ---------------------------------------------------------------------------
# fine-scale solver
# ---------------------------------------------------------------------------

@dataclass
class WaveTrajectory:
    """Snapshots (u, du/dt) of a fine-scale run, with an energy log.

    ``v`` is None where the solver returns displacements only
    (``bloch.solve_fine_wave_exact``)."""

    box: TorusGrid
    eps: float | None
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray | None
    dt: float
    energy: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    def energy_drift(self) -> float:
        e0 = self.meta.get("energy_t0", self.energy[0])
        if e0 == 0.0:
            return float(np.max(np.abs(self.energy)))
        return float(np.max(np.abs(self.energy - e0)) / abs(e0))

    def solver_stats(self) -> dict:
        """Solver name, work counts and (source-free) energy drift."""
        stats = {key: self.meta[key]
                 for key in ("solver", "blocks", "blocks_solved",
                             "skipped_share", "block_size", "block_field",
                             "eigenvalue_correction", "steps")
                 if key in self.meta}
        if "energy_t0" in self.meta:
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

    def __init__(self, box: TorusGrid, a_values: np.ndarray):
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


def _fine_inputs(box: TorusGrid, u0, v0, times):
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


def solve_fine_wave(a_box: np.ndarray, box: TorusGrid, u0: np.ndarray,
                    v0: np.ndarray | None = None,
                    times=(1.0,), eps: float | None = None,
                    cfl: float = 0.9) -> WaveTrajectory:
    """Integrate u_tt = div(a grad u) with periodic leapfrog stepping.

    Leapfrog is run in kick-drift-kick form so (u, du/dt) is available at
    every snapshot; snapshot times are hit exactly.  The energy log records
    the staggered leapfrog invariant 0.5 |v_half|^2 - 0.5 <L u_n, u_n+1>,
    which the scheme conserves to roundoff (the instantaneous physical
    energy only oscillates at O(dt^2)).  This is the independent
    cross-check of ``bloch.solve_fine_wave_exact``, not an experiment's
    reference.
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
    energies = []
    t = 0.0
    lap = op.apply(u)
    # invariant baseline from a probe step (state not advanced)
    dt0 = dt_shared if dt_shared is not None else dt_max
    v_probe = v + 0.5 * dt0 * lap
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
                v_half = v + 0.5 * dt * lap
                u_new = u + dt * v_half
                t += dt
                lap_new = op.apply(u_new)
                v = v_half + 0.5 * dt * lap_new
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

    return WaveTrajectory(
        box=box, eps=eps, times=snap_times[skip:], u=u_snaps, v=v_snaps,
        dt=dt0, energy=np.asarray(energies[skip:]),
        meta={"solver": "leapfrog", "steps": step_count, "cfl_dt": dt_max,
              "shared_dt": dt_shared, "energy_t0": energies[0]})


# ---------------------------------------------------------------------------
# spectral effective propagators
# ---------------------------------------------------------------------------

def filtered_dispersion(model: DispersionModel, box: TorusGrid, eps: float):
    """(filter weights, propagation frequency) on the box mode lattice.

    The weights are the model's filter ``cutoff(model.kmax, eps |k|)``.  The
    frequency is Lambda(eps k) / eps evaluated only where the filter is
    positive, which is exactly where the truncated eigenvalue is guaranteed
    positive.
    """
    k = box_wavevectors(box)
    weights = cutoff(model.kmax, eps * np.sqrt(np.sum(k ** 2, axis=0)))
    mask = weights > 0.0
    eig = np.zeros(weights.shape)
    if np.any(mask):
        km = eps * k[:, mask]
        eig_vals = eigenvalue(model, km)
        _require_positive(eig_vals, km)
        eig[mask] = eig_vals
    return weights, np.sqrt(eig) / eps


def _rotate(a, b, omega: np.ndarray, t):
    """(u, u_t) = (a, b) of u_tt + omega^2 u = 0 per mode, rotated through
    time t; sin(omega t) / omega is continued by t where omega = 0.

    ``b = None`` is zero velocity and returns the displacement a cos(omega t)
    alone."""
    cos_t = np.cos(omega * t)
    if b is None:
        return a * cos_t
    sin_t = np.sin(omega * t)
    sinc = np.where(omega > 0, sin_t / np.where(omega > 0, omega, 1.0), t)
    return a * cos_t + b * sinc, b * cos_t - a * omega * sin_t


_SOURCE_SUPPORT = 1.0   # every step source acts on the time interval [0, 1]


def _step_source(h, omega: np.ndarray, t):
    """(u, u_t) at time t of u_tt + omega^2 u = h 1[0, 1](t) from rest, per
    mode: u = h (cos omega (t - s) - cos omega t) / omega^2 and
    u_t = h (sin omega t - sin omega (t - s)) / omega, s = min(t, 1).

    This is the free wave launched at time s / 2 with velocity
    h 2 sin(omega s / 2) / omega, evaluated through ``_rotate``: free of
    cancellation at small omega and continued to (h (t s - s^2 / 2), h s)
    at omega = 0.  ``t`` broadcasts against ``omega``."""
    half = 0.5 * np.minimum(t, _SOURCE_SUPPORT)
    kick = 2.0 * _rotate(0.0, h, omega, half)[0]
    return _rotate(0.0, kick, omega, t - half)


def spectral_wave_state(weights, omega: np.ndarray,
                        u0: np.ndarray, box: TorusGrid, times,
                        v0: np.ndarray | None = None):
    """Exact per-mode evolution of (u, u_t) for u_tt + omega^2 u = 0, each
    of shape (times, box...).

    Modes are premultiplied by the filter ``weights``; time reversal is exact
    since the mode evolution is a rotation.
    """
    u_hat = rfftn(box, u0) * weights
    v_hat = 0.0 if v0 is None else rfftn(box, v0) * weights
    u = np.empty((len(times),) + box.shape)
    u_t = np.empty_like(u)
    for i, t in enumerate(times):
        u_t_hat, vel_hat = _rotate(u_hat, v_hat, omega, t)
        u[i] = irfftn(box, u_t_hat)
        u_t[i] = irfftn(box, vel_hat)
    return u, u_t


def homogenized_wave_field(model: DispersionModel, u0: np.ndarray,
                           box: TorusGrid, eps: float, times) -> np.ndarray:
    """Filtered effective wave field at each snapshot time, shape
    (times, box...): per-mode cosine of the dispersion.

    At t = 0 this returns the low-pass filtered data.  It inverts no
    velocity, which would double the inverse transforms and the snapshot
    memory.
    """
    weights, omega = filtered_dispersion(model, box, eps)
    u_hat = rfftn(box, u0) * weights
    u = np.empty((len(times),) + box.shape)
    for i, t in enumerate(times):
        u[i] = irfftn(box, _rotate(u_hat, None, omega, t))
    return u


def taylor_bloch_ansatz(bc: BoxCorrectors, model: DispersionModel,
                        u0: np.ndarray, box: TorusGrid, eps: float, times,
                        ell: int | None = None) -> np.ndarray:
    """Bloch-wave-dressed effective field, shape (times, box...), dressed
    to order ``ell`` (all of ``bc`` by default).

    Per mode, the dressing multiplies by the truncated Bloch wave at eps*k;
    summed over modes this is exactly the corrector-dressed expansion of the
    effective field, which is how it is assembled here, from the filtered
    spectrum of the effective field at each time.  At t = 0 it is the
    well-prepared data: the dressing of the low-pass part of u0.
    """
    weights, omega = filtered_dispersion(model, box, eps)
    u_hat = rfftn(box, u0) * weights
    return np.stack([
        dress_with_correctors(
            bc, DerivativeCache(box, _rotate(u_hat, None, omega, t)), max_order=ell)
        for t in times])


# ---------------------------------------------------------------------------
# regularized effective operator
# ---------------------------------------------------------------------------

def regularization_order(ell: int) -> int:
    return (ell - 1) // 2 + 1


def effective_symbol(model: DispersionModel, gamma: float, eps: float,
                     k: np.ndarray) -> np.ndarray:
    """Symbol of the effective elliptic operator with coercive regularization.

    sum over even j < ell of (-1)^(j/2) eps^j P_j(k) plus
    gamma eps^(2m) |k|^(2m+2), m = floor((ell-1)/2) + 1, ell = model.ell.
    """
    out = np.zeros(k.shape[1:])
    for j in range(0, model.ell, 2):
        out = out + (-1.0) ** (j // 2) * eps ** j * model.poly_value(j, k)
    if gamma != 0.0:
        m = regularization_order(model.ell)
        k2 = np.sum(k ** 2, axis=0)
        out = out + gamma * eps ** (2 * m) * k2 ** (m + 1)
    return out


def choose_gamma(model: DispersionModel) -> float:
    """Coercivity constant for the regularized effective operator.

    With s = eps kappa along a unit direction e and u = s^2, the inequality
    symbol >= (s^2 + s^(2m+2)) / 2 reads (gamma - 1/2) u^m >= g(u), where
    g = 1/2 - sum_{i<m} c_i u^i (``dispersion._radial_coefficients``); it
    does not depend on eps.  Orders <= 2 need no regularization, nor do
    models with g <= 0 on every direction (the symbol already dominates
    |k|^2 / 2): both give 0.  Otherwise the least gamma is 1/2 + max g / u^m
    over u > 0, reached at a positive root of u g' - m g, and it is doubled
    for margin.  g(0) >= 0 on a direction (lambda_0 <= 1/2 there) raises
    ``PositivityError``: the inequality then fails, or at best holds with
    equality, as u -> 0.
    """
    if model.ell <= 2:
        return 0.0
    m = regularization_order(model.ell)
    g = -_radial_coefficients(model)
    g[:, 0] += 0.5
    if np.any(g[:, 0] >= 0.0):
        raise PositivityError("lambda_0 <= 1/2 on a direction: no "
                              "regularization constant is coercive")
    peak = 0.0
    for gd in g:
        for u in _positive_real_roots((np.arange(m) - m) * gd):
            peak = max(peak, float(polyval(u, gd) / u ** m))
    return 2.0 * (0.5 + peak) if peak > 0.0 else 0.0


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
    from .correctors import evaluate_monomials, half_circle_directions
    dirs = half_circle_directions(model.dim, n_directions, offset=0.5).T
    p0 = model.poly_value(0, dirs)
    p2 = model.poly_value(2, dirs)
    beta = max(0.0, float(np.max(p2 / p0)))
    c_full = (beta * _poly_times_k2(np.atleast_1d(model.polys[0]), model.dim)
              - np.atleast_1d(model.polys[2]))
    c_vals = evaluate_monomials(c_full, 4, dirs)
    ident = np.max(np.abs(beta * p0 - c_vals - p2)) / max(1.0, np.max(np.abs(p2)),
                                                          beta * np.max(p0))
    return BoussinesqTensors(dim=model.dim, beta=beta, c_coeffs=c_full,
                             identity_residual=float(ident),
                             c_min_on_directions=float(np.min(c_vals)))


# ---------------------------------------------------------------------------
# per-mode effective wave solves
# ---------------------------------------------------------------------------

def mode_symbol(model: DispersionModel, eps: float, k: np.ndarray,
                gamma: float = 0.0, bt: BoussinesqTensors | None = None):
    """(num, den) with omega^2(k) = num / den for one effective operator.

    Without ``bt`` it is the regularized symbol ``effective_symbol`` over 1;
    with ``bt`` the Boussinesq pair P0(k) + eps^2 c(k) over 1 + eps^2 b(k).
    The numerator is checked positive at every nonzero wavevector, so the
    wave solves may rotate by omega and the elliptic solves divide by it.
    """
    if bt is None:
        num, den = effective_symbol(model, gamma, eps, k), 1.0
    else:
        num = model.poly_value(0, k) + eps ** 2 * bt.c_quartic(k)
        den = 1.0 + eps ** 2 * bt.b_quadratic(k)
    _require_positive(num, k)
    return num, den


# ---------------------------------------------------------------------------
# localized-in-time source terms
# ---------------------------------------------------------------------------

def source_term_field(model: DispersionModel, h: np.ndarray, box: TorusGrid,
                      eps: float, times):
    """Solution of the filtered effective equation from rest with the step
    source h(x) 1[0, 1](t).

    Per mode this is the closed-form Duhamel integral ``_step_source`` of
    the filtered spectrum of h.  Returns the filtered half spectra
    (u_hat, u_t_hat), each of shape (times,) + half spectrum: samples are
    ``torus.irfftn`` of them, and a dressing reads them through a
    ``DerivativeCache``.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ConfigurationError("time must be nonnegative")
    if np.shape(h) != box.shape:
        raise ConfigurationError("source shape does not match box")
    weights, omega = filtered_dispersion(model, box, eps)
    h_hat = rfftn(box, h) * weights
    return _step_source(h_hat, omega, times.reshape(times.shape + (1,) * omega.ndim))


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


def fit_order(eps_list, errors) -> float:
    """Least-squares slope of log(error) against log(eps); zero errors are
    read as 1e-300."""
    errors = np.maximum(np.asarray(errors, dtype=float), 1e-300)
    return float(np.polyfit(np.log(np.asarray(eps_list, dtype=float)),
                            np.log(errors), 1)[0])


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
    if approx_v is not None and reference.v is None:
        raise ConfigurationError("approx_v needs a reference velocity")
    l2 = np.array([l2_norm(box, reference.u[i] - approx_u[i])
                   for i in range(times.size)])
    energy = None
    if approx_v is not None and approx_grad is not None:
        energy = np.zeros(times.size)
        for i in range(times.size):
            dv = reference.v[i] - approx_v[i]
            dg = gradient_values(box, reference.u[i]) - approx_grad[i]
            energy[i] = math.sqrt(l2_norm(box, dv) ** 2 + l2_norm(box, dg) ** 2)
    return ErrorReport(times=times, l2_error=l2, energy_error=energy,
                       budget=budget.curve(eps, times), sup_l2=float(np.max(l2)),
                       warnings=list(warnings))
