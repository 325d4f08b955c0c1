"""Higher-order effective elliptic equations and two-scale expansions.

The corrector-dressed expansion of a slowly varying profile turns the
heterogeneous operator into the effective one plus divergence-form and
higher-order remainders; this module assembles those representation
identities on the grid, solves the effective equations per mode, and runs
the gradient-error rate studies against fine-scale solves.

For 1D piecewise-constant coefficients the fine solves and dressings use
the exact piecewise pipeline so measured rates are not Gibbs-limited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import oracle1d, wave
from .dispersion import DispersionModel
from .correctors import TensorizedCorrectors
from .torus import (
    CoefficientField,
    ConfigurationError,
    SolvabilityError,
    TorusGrid,
    deriv_values,
    divergence_values,
    fftn,
    gradient_values,
    ifftn,
    solve_elliptic,
)
from .wave import (
    BoxCorrectors,
    BoxGrid,
    PositivityError,
    _DerivCache,
    box_l2,
    box_wavevectors,
    dress_with_correctors,
    dressed_gradient,
    effective_symbol,
)


# ---------------------------------------------------------------------------
# effective elliptic solves (per Fourier mode)
# ---------------------------------------------------------------------------

def _require_zero_mean(values: np.ndarray, what: str) -> None:
    mean = float(np.mean(values))
    if abs(mean) > 1e-10 * max(1.0, float(np.max(np.abs(values)))):
        raise SolvabilityError(f"{what} has mean {mean:.3e}; needs zero mean")


def solve_fine_elliptic(a_box: np.ndarray, box: BoxGrid, rhs: np.ndarray,
                        tol: float = 1e-10, maxiter: int = 10000) -> np.ndarray:
    """-div(a(x/eps) grad u) = rhs on the box, spectral CG, zero-mean u."""
    _require_zero_mean(rhs, "rhs")
    cf = CoefficientField(box.torus(), a_box)
    return solve_elliptic(cf, rhs, tol=tol, maxiter=maxiter)


def solve_homogenized_elliptic(model: DispersionModel, gamma: float,
                               f: np.ndarray, box: BoxGrid, eps: float,
                               ell: int) -> np.ndarray:
    """Divide per mode by the regularized effective symbol; zero-mean output."""
    _require_zero_mean(f, "source")
    k = box_wavevectors(box)
    sym = effective_symbol(model, gamma, eps, ell, k)
    k2 = np.sum(k ** 2, axis=0)
    nz = k2 > 0
    if np.any(sym[nz] <= 0):
        idx = tuple(np.argwhere(nz & (sym <= 0))[0])
        raise PositivityError(
            f"effective symbol nonpositive at mode index {idx}")
    grid = box.torus()
    f_hat = fftn(grid, f)
    u_hat = np.zeros_like(f_hat)
    u_hat[nz] = f_hat[nz] / sym[nz]
    return ifftn(grid, u_hat, real=True)


def solve_boussinesq_elliptic(model: DispersionModel, bt, f: np.ndarray,
                              box: BoxGrid, eps: float) -> np.ndarray:
    """Fourth-order nonnegative reformulation with the mass-modified source."""
    _require_zero_mean(f, "source")
    k = box_wavevectors(box)
    k2 = np.sum(k ** 2, axis=0)
    sym = model.poly_value(0, k) + eps ** 2 * bt.c_quartic(k)
    rhs_factor = 1.0 + eps ** 2 * bt.b_quadratic(k)
    nz = k2 > 0
    grid = box.torus()
    f_hat = fftn(grid, f)
    u_hat = np.zeros_like(f_hat)
    u_hat[nz] = f_hat[nz] * rhs_factor[nz] / sym[nz]
    return ifftn(grid, u_hat, real=True)


def prepared_rhs(bc: BoxCorrectors, f: np.ndarray,
                 ell: int | None = None) -> np.ndarray:
    """Corrector-dressed source sum_j eps^j phi_j(x/eps) . grad^j f."""
    _require_zero_mean(f, "source")
    return dress_with_correctors(bc, f, max_order=ell)


@dataclass
class TwoScaleExpansion:
    """Dressed field w and the lower-order coupling field S of a profile v."""

    order: int
    eps: float
    w: np.ndarray
    s: np.ndarray


def _coupling_field(bc: BoxCorrectors, model: DispersionModel,
                    cache: _DerivCache, ell: int, eps: float) -> np.ndarray:
    """S_m(v): cross terms (phi_j x effective tensor_p) . grad^(p+j+2) v."""
    dim = bc.dim
    out = np.zeros(bc.box.shape)
    for p in range(0, ell - 1):
        pcoef = np.atleast_1d(model.polys[p])
        if not np.any(pcoef):
            continue
        for j in range(1, ell - p):
            phi = bc.phi[j]
            for r in range(phi.shape[0]):
                for s in range(pcoef.shape[0]):
                    if pcoef[s] == 0.0:
                        continue
                    if dim == 2:
                        orders = ((j - r) + (p + 2 - s), r + s)
                    else:
                        orders = (j + p + 2,)
                    out = out + (eps ** (p + j) * pcoef[s]
                                 * phi[r] * cache.get(orders))
    return out


def two_scale_expansion(bc: BoxCorrectors, model: DispersionModel,
                        v: np.ndarray, ell: int) -> TwoScaleExpansion:
    cache = _DerivCache(bc.box, v)
    w = dress_with_correctors(bc, v, max_order=ell, cache=cache)
    s = _coupling_field(bc, model, cache, ell, bc.eps)
    return TwoScaleExpansion(order=ell, eps=bc.eps, w=w, s=s)


# ---------------------------------------------------------------------------
# residuum representation identities on the unit cell
# ---------------------------------------------------------------------------

@dataclass
class ResiduumReport:
    """Relative residuals of the divergence-form representation identities.

    ``second_order`` is the compact form available at orders <= 2,
    ``full`` the general form with the dispersion-potential terms,
    ``raw`` the pre-rewriting variant, and ``full_vs_raw`` their mutual gap
    (zero once the dispersion potential satisfies its defining equation).
    """

    order: int
    lhs_norm: float
    second_order: float | None
    full: float
    raw: float
    full_vs_raw: float


class _CellDerivs:
    def __init__(self, grid: TorusGrid, values: np.ndarray):
        self.grid = grid
        self.cache = {(0,) * grid.dim: np.asarray(values)}

    def get(self, orders: tuple) -> np.ndarray:
        if orders not in self.cache:
            base = self.cache[(0,) * self.grid.dim]
            multi = []
            for ax, m in enumerate(orders):
                multi.extend([ax] * m)
            self.cache[orders] = deriv_values(self.grid, base, multi)
        return self.cache[orders]


def _contract(coeffs: np.ndarray, degree: int, cache: _CellDerivs,
              dim: int, extra=None) -> np.ndarray:
    """sum_r coeffs[r] * d^(degree-r [+extra_1], r [+extra_2]) v."""
    e1, e2 = (0, 0)
    if extra is not None:
        if dim == 2:
            e1, e2 = (1, 0) if extra == 0 else (0, 1)
        else:
            e1 = 1
    out = np.zeros(cache.cache[(0,) * dim].shape)
    for r in range(coeffs.shape[0]):
        orders = (degree - r + e1, r + e2) if dim == 2 else (degree + e1,)
        out = out + coeffs[r] * cache.get(orders)
    return out


def residuum_identities(a: CoefficientField, tensors: TensorizedCorrectors,
                        model: DispersionModel, v: np.ndarray,
                        ell: int) -> ResiduumReport:
    """Assemble both sides of the representation identities at unit scale.

    LHS is -div(a grad w_ell(v)) for a band-limited cell profile v; the RHS
    variants exchange flux-potential divergence terms for effective-tensor
    and dispersion-potential terms.  Residuals are relative to the LHS norm
    and reflect the corrector solve tolerance plus (for rough coefficients)
    aliasing.
    """
    grid = a.grid
    dim = grid.dim
    if ell > tensors.order:
        raise ConfigurationError("tensorized correctors below requested order")
    cache = _CellDerivs(grid, v)

    # w and LHS
    w = np.zeros(grid.shape)
    for j in range(ell + 1):
        w = w + _contract(tensors.phi[j], j, cache, dim)
    lhs = -divergence_values(
        grid, np.einsum("mn...,n...->m...", a.values, gradient_values(grid, w)))
    lhs_norm = float(np.sqrt(np.mean(lhs ** 2)))

    # effective-tensor terms
    eff = np.zeros(grid.shape)
    for j in range(0, ell, 2):
        pc = np.atleast_1d(model.polys[j])
        for s in range(pc.shape[0]):
            if pc[s] == 0.0:
                continue
            orders = (j + 2 - s, s) if dim == 2 else (j + 2,)
            eff = eff + pc[s] * cache.get(orders)

    def coupling(m):
        out = np.zeros(grid.shape)
        for p in range(0, m - 1):
            pc = np.atleast_1d(model.polys[p])
            for j in range(1, m - p):
                for r in range(tensors.phi[j].shape[0]):
                    for s in range(pc.shape[0]):
                        if pc[s] == 0.0:
                            continue
                        orders = ((j - r) + (p + 2 - s), r + s) if dim == 2 \
                            else (j + p + 2,)
                        out = out + pc[s] * tensors.phi[j][r] * cache.get(orders)
        return out

    # gradient fields of the dispersion potentials
    def grad_chi_terms(level, n_derivs):
        """(grad chi_level) . grad^(n_derivs) v, n_derivs = level+1 or level+2."""
        coeffs = tensors.chi[level]  # degree level + 1
        out = np.zeros(grid.shape)
        for m in range(dim):
            gc = np.stack([deriv_values(grid, coeffs[r], [m])
                           for r in range(coeffs.shape[0])])
            extra = m if n_derivs == level + 2 else None
            out = out + _contract(gc, level + 1, cache, dim, extra=extra)
        return out

    def divergence_term(include_chi: bool):
        """div[(a x phi_ell - sigma_ell [+ grad chi_ell]) . grad^(ell+1) v]."""
        vec = np.zeros((dim,) + grid.shape)
        phi_l = tensors.phi[ell]
        for n in range(dim):
            extra = n if dim == 2 else 0
            contr = _contract(phi_l, ell, cache, dim,
                              extra=extra if dim == 2 else 0)
            for m in range(dim):
                vec[m] = vec[m] + a.values[m, n] * contr
        if dim == 2 and tensors.sigma12[ell] is not None:
            s_l = tensors.sigma12[ell]
            contr0 = _contract(s_l, ell, cache, dim, extra=0)
            contr1 = _contract(s_l, ell, cache, dim, extra=1)
            # sigma = s * J with J = [[0, 1], [-1, 0]]; (sigma . D)_m = J[m,n] S_n
            vec[0] = vec[0] - contr1
            vec[1] = vec[1] + contr0
        if include_chi:
            coeffs = tensors.chi[ell]
            for m in range(dim):
                gc = np.stack([deriv_values(grid, coeffs[r], [m])
                               for r in range(coeffs.shape[0])])
                vec[m] = vec[m] + _contract(gc, ell + 1, cache, dim)
        return divergence_values(grid, vec)

    rhs_raw = -(eff + coupling(ell - 1)
                - (grad_chi_terms(ell - 1, ell + 1) if ell >= 1 else 0.0)
                + divergence_term(include_chi=False))
    rhs_full = (-eff - coupling(ell)
                + grad_chi_terms(ell, ell + 2)
                - divergence_term(include_chi=True))

    def rel(x):
        return float(np.sqrt(np.mean((lhs - x) ** 2))) / max(lhs_norm, 1e-30)

    second = None
    if ell <= 2:
        p0 = np.atleast_1d(model.polys[0])
        lead = np.zeros(grid.shape)
        for s in range(p0.shape[0]):
            orders = (2 - s, s) if dim == 2 else (2,)
            lead = lead + p0[s] * cache.get(orders)
        rhs_21 = -(lead + divergence_term(include_chi=False))
        second = rel(rhs_21)

    gap = float(np.sqrt(np.mean((rhs_full - rhs_raw) ** 2))) / max(lhs_norm, 1e-30)
    return ResiduumReport(order=ell, lhs_norm=lhs_norm, second_order=second,
                          full=rel(rhs_full), raw=rel(rhs_raw), full_vs_raw=gap)


# ---------------------------------------------------------------------------
# gradient-error rate studies
# ---------------------------------------------------------------------------

@dataclass
class RateStudy:
    eps_list: np.ndarray
    errors: np.ndarray
    fitted_order: float
    mode: str
    operator: str
    details: dict = dc_field(default_factory=dict)

    def rows(self):
        out = [("eps", "gradient_error", "fitted_order")]
        for e, err in zip(self.eps_list, self.errors):
            out.append((format(e, ".17g"), format(err, ".17g"),
                        format(self.fitted_order, ".17g")))
        return out


def _fit_order(eps_list, errors) -> float:
    eps_list = np.asarray(eps_list, dtype=float)
    errors = np.maximum(np.asarray(errors, dtype=float), 1e-300)
    slope = np.polyfit(np.log(eps_list), np.log(errors), 1)[0]
    return float(slope)


def _mode_symbol_1d(model, gamma, eps, ell, k, operator, bt=None):
    kv = np.array([[k]])
    if operator == "boussinesq":
        num = float(model.poly_value(0, kv)[0]) + eps ** 2 * float(bt.c_quartic(kv)[0])
        den = 1.0 + eps ** 2 * float(bt.b_quadratic(kv)[0])
        return num, den
    sym = float(effective_symbol(model, gamma, eps, ell, kv)[0])
    return sym, 1.0


def elliptic_error_sweep_1d(profile: oracle1d.Profile1D, ell: int, eps_list,
                            side: float = 1.0, f_modes=None, mode: str = "prepared",
                            operator: str = "regularized", gamma: float | None = None,
                            pp_degree: int = 14) -> RateStudy:
    """Gradient error of the dressed effective solution, exact 1D pipeline.

    The fine equation, the dressing, and the error norm are evaluated in
    piecewise-polynomial arithmetic with breakpoints at all coefficient
    interfaces, so the measured error is purely the model error in eps.
    ``f_modes`` maps integer mode numbers q to amplitudes of sin(2 pi q x/L).
    """
    if f_modes is None:
        f_modes = {1: 1.0}
    oh = oracle1d.correctors_1d(profile, ell)
    model = DispersionModel.from_oracle(oh, ell)
    if gamma is None:
        gamma = wave.choose_gamma(model, ell)
    bt = wave.boussinesq_decomposition(model) if operator == "boussinesq" else None

    def mode_sum(coeffs_by_q, deriv: int):
        """callable for sum_q c_q * d^deriv sin(2 pi q x / L)."""
        def f(x):
            out = np.zeros_like(np.asarray(x, dtype=float))
            for q, c in coeffs_by_q.items():
                k = 2.0 * math.pi * q / side
                phase = k * np.asarray(x) + 0.5 * math.pi * deriv
                out = out + c * k ** deriv * np.sin(phase)
            return out
        return f

    errors = []
    for eps in eps_list:
        a_box, _ = oracle1d.coefficient_on_box(profile, eps, side)
        breaks = a_box.breaks
        phi_box = [oracle1d.tile_to_box(p, eps, side) for p in oh.phi[: ell + 1]]

        f_pp = oracle1d.PiecewisePoly.from_callable(mode_sum(f_modes, 0),
                                                    breaks, pp_degree)
        if mode == "prepared":
            rhs_pp = f_pp
            for j in range(1, ell + 1):
                fj = oracle1d.PiecewisePoly.from_callable(
                    mode_sum(f_modes, j), breaks, pp_degree)
                rhs_pp = rhs_pp + (eps ** j) * (phi_box[j] * fj)
        else:
            rhs_pp = f_pp
        u_fine = oracle1d.solve_elliptic_box(profile, eps, side, rhs_pp)

        u_coeffs = {}
        for q, c in f_modes.items():
            k = 2.0 * math.pi * q / side
            num, den = _mode_symbol_1d(model, gamma, eps, ell, k, operator, bt)
            u_coeffs[q] = c * den / num

        w_prime = oracle1d.PiecewisePoly.constant(0.0, breaks)
        for j in range(ell + 1):
            uj = oracle1d.PiecewisePoly.from_callable(
                mode_sum(u_coeffs, j), breaks, pp_degree)
            uj1 = oracle1d.PiecewisePoly.from_callable(
                mode_sum(u_coeffs, j + 1), breaks, pp_degree)
            w_prime = w_prime + (eps ** j) * (phi_box[j] * uj1)
            if j >= 1:
                # the tiled derivative already carries the 1/eps chain factor
                w_prime = w_prime + (eps ** j) * (phi_box[j].derivative() * uj)
        diff = u_fine.derivative() - w_prime
        errors.append(math.sqrt(max((diff * diff).integral(), 0.0)))

    return RateStudy(eps_list=np.asarray(list(eps_list), dtype=float),
                     errors=np.asarray(errors),
                     fitted_order=_fit_order(eps_list, errors),
                     mode=mode, operator=operator,
                     details={"gamma": gamma, "lambdas": oh.lambdas.tolist()})


def elliptic_error_sweep_spectral(coeff_spec: dict, tensors: TensorizedCorrectors,
                                  model: DispersionModel, ell: int, eps_list,
                                  box: BoxGrid, f: np.ndarray,
                                  mode: str = "prepared",
                                  operator: str = "regularized",
                                  gamma: float | None = None,
                                  tol: float = 1e-10) -> RateStudy:
    """Gradient-error sweep on the box with the spectral pipeline.

    Suitable for smooth coefficients; for discontinuous 1D profiles use the
    exact piecewise variant.
    """
    if gamma is None:
        gamma = wave.choose_gamma(model, ell)
    bt = wave.boussinesq_decomposition(model) if operator == "boussinesq" else None
    grid = box.torus()
    errors = []
    for eps in eps_list:
        a_box = wave.coefficient_on_box(coeff_spec, box, eps)
        bc = BoxCorrectors.from_tensorized(tensors, box, eps)
        rhs = prepared_rhs(bc, f, ell) if mode == "prepared" else f
        u_fine = solve_fine_elliptic(a_box, box, rhs, tol=tol)
        if operator == "boussinesq":
            u_hom = solve_boussinesq_elliptic(model, bt, f, box, eps)
        else:
            u_hom = solve_homogenized_elliptic(model, gamma, f, box, eps, ell)
        grad_fine = gradient_values(grid, u_fine)
        grad_dressed = dressed_gradient(bc, u_hom, max_order=ell)
        errors.append(box_l2(box, grad_fine - grad_dressed))
    return RateStudy(eps_list=np.asarray(list(eps_list), dtype=float),
                     errors=np.asarray(errors),
                     fitted_order=_fit_order(eps_list, errors),
                     mode=mode, operator=operator, details={"gamma": gamma})
