"""Higher-order effective elliptic equations and representation identities.

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
from .correctors import TensorizedCorrectors
from .dispersion import DispersionModel, times_polynomial
from .torus import (
    CoefficientField,
    ConfigurationError,
    DerivativeCache,
    TorusGrid,
    _matvec,
    divergence_values,
    gradient_values,
    irfftn,
    l2_norm,
    require_zero_mean,
    rfftn,
    solve_elliptic,
)
from .wave import (
    BoxCorrectors,
    box_wavevectors,
    dress_with_correctors,
    dressed_gradient,
    mode_symbol,
)


# ---------------------------------------------------------------------------
# effective elliptic solves (per Fourier mode)
# ---------------------------------------------------------------------------

def solve_effective_elliptic(model: DispersionModel, f: np.ndarray,
                             box: TorusGrid, eps: float, **operator) -> np.ndarray:
    """Divide each nonzero mode of the zero-mean source ``f`` by the symbol
    ``mode_symbol(model, eps, k, **operator)`` (``gamma`` for the
    regularized operator, ``bt`` for the Boussinesq one); zero-mean output."""
    require_zero_mean(f, "source")
    k = box_wavevectors(box)
    num, den = mode_symbol(model, eps, k, **operator)
    nz = np.sum(k ** 2, axis=0) > 0
    f_hat = rfftn(box, f)
    u_hat = np.zeros_like(f_hat)
    u_hat[nz] = f_hat[nz] * np.broadcast_to(den, num.shape)[nz] / num[nz]
    return irfftn(box, u_hat)


def prepared_rhs(bc: BoxCorrectors, f: np.ndarray,
                 ell: int | None = None) -> np.ndarray:
    """Corrector-dressed source sum_j eps^j phi_j(x/eps) . grad^j f.

    f is dressed from its modes below half the box Nyquist frequency
    (|m| < n/4 per axis).  Above that band a source resolved on the box
    holds only the roundoff of its forward transform, about eps_mach |f|,
    and grad^j multiplies it by up to k_Nyq^j.  Uncut, the ell = 4 dressing
    of sin 2 pi x on a 1024-point box (32-point checkerboard cell,
    eps = 1/4) put 2.2e-10 on the Nyquist mode, which no divergence reaches
    and where the fine solve needs the right-hand side to vanish; cutting
    only that mode left the same.  Below the cut, the product with corrector
    fields that have no content at or above n/4 either (cells sampled from a
    grid of at most half the box's points per period) stays strictly below
    the Nyquist mode.
    """
    require_zero_mean(f, "source")
    f_hat = rfftn(bc.box, f)
    modes = np.abs(box_wavevectors(bc.box)) * (bc.box.period / (2 * np.pi))
    f_hat[np.any(np.rint(modes) >= bc.box.n // 4, axis=0)] = 0.0
    return dress_with_correctors(bc, DerivativeCache(bc.box, f_hat), max_order=ell)


def _coupling_field(phi: list, model: DispersionModel, cache: DerivativeCache,
                    ell: int) -> np.ndarray:
    """S_ell(v): cross terms (phi_j x effective tensor_p) . grad^(p+j+2) v
    at unit scale, p + j < ell.

    ``phi[j]`` holds the tensorized corrector coefficients on the unit cell.
    The monomial coefficients of phi_j x tensor_p are the product of the two
    direction polynomials.
    """
    out = np.zeros(cache.grid.shape)
    for p in range(0, ell - 1):
        pcoef = np.atleast_1d(model.polys[p])
        for j in range(1, ell - p):
            out = out + cache.contract(
                times_polynomial(pcoef, phi[j]), j + p + 2)
    return out


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
    second_order: float | None
    full: float
    raw: float
    full_vs_raw: float


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
    cache = DerivativeCache(grid, rfftn(grid, v))

    # w and LHS
    w = sum(cache.contract(tensors.phi[j], j) for j in range(ell + 1))
    lhs = -divergence_values(grid, _matvec(a.values, gradient_values(grid, w)))
    lhs_norm = l2_norm(grid, lhs)

    # effective-tensor terms
    eff = sum(cache.contract(np.atleast_1d(model.polys[j]), j + 2)
              for j in range(0, ell, 2))

    # gradients of the dispersion potentials chi_(ell-1) and chi_ell, each
    # of shape (dim, monomials, cell...)
    grad_chi = {level: gradient_values(grid, tensors.chi[level])
                for level in (ell - 1, ell) if level >= 0}

    def grad_chi_terms(level):
        """(grad chi_level) . grad^(level+2) v."""
        return sum(cache.contract(gc, level + 1, shift=m)
                   for m, gc in enumerate(grad_chi[level]))

    def divergence_term(include_chi: bool):
        """div[(a x phi_ell - sigma_ell [+ grad chi_ell]) . grad^(ell+1) v]."""
        vec = _matvec(a.values, np.stack([
            cache.contract(tensors.phi[ell], ell, shift=n) for n in range(dim)]))
        if dim == 2 and tensors.sigma12[ell] is not None:
            s_l = tensors.sigma12[ell]
            # sigma = s * J with J = [[0, 1], [-1, 0]]; (sigma . D)_m = J[m,n] S_n
            vec[0] = vec[0] - cache.contract(s_l, ell, shift=1)
            vec[1] = vec[1] + cache.contract(s_l, ell, shift=0)
        if include_chi:
            vec = vec + np.stack([cache.contract(gc, ell + 1)
                                  for gc in grad_chi[ell]])
        return divergence_values(grid, vec)

    rhs_raw = -(eff + _coupling_field(tensors.phi, model, cache, ell - 1)
                - (grad_chi_terms(ell - 1) if ell >= 1 else 0.0)
                + divergence_term(include_chi=False))
    rhs_full = (-eff - _coupling_field(tensors.phi, model, cache, ell)
                + grad_chi_terms(ell)
                - divergence_term(include_chi=True))

    def rel(x):
        return l2_norm(grid, lhs - x) / max(lhs_norm, 1e-30)

    second = None
    if ell <= 2:
        lead = cache.contract(np.atleast_1d(model.polys[0]), 2)
        rhs_21 = -(lead + divergence_term(include_chi=False))
        second = rel(rhs_21)

    gap = l2_norm(grid, rhs_full - rhs_raw) / max(lhs_norm, 1e-30)
    return ResiduumReport(order=ell, second_order=second,
                          full=rel(rhs_full), raw=rel(rhs_raw), full_vs_raw=gap)


# ---------------------------------------------------------------------------
# gradient-error rate studies
# ---------------------------------------------------------------------------

def check_sweep_options(mode: str, operator: str) -> None:
    """Reject a ``mode`` or ``operator`` that no branch of the sweeps reads."""
    if mode not in ("prepared", "plain"):
        raise ConfigurationError(
            f"mode must be prepared or plain, got {mode!r}")
    if operator not in ("regularized", "boussinesq"):
        raise ConfigurationError("operator must be regularized or boussinesq, "
                                 f"got {operator!r}")


def _effective_operator(model: DispersionModel, operator: str,
                        gamma: float | None):
    """(gamma, bt) of a sweep: gamma defaults to ``choose_gamma(model)``, and
    bt is the model's Boussinesq split for that operator, else None."""
    if gamma is None:
        gamma = wave.choose_gamma(model)
    return gamma, (wave.boussinesq_decomposition(model)
                   if operator == "boussinesq" else None)


@dataclass
class RateStudy:
    """Gradient errors at each eps and the order fitted to them."""

    eps_list: np.ndarray
    errors: np.ndarray
    mode: str
    operator: str
    details: dict = dc_field(default_factory=dict)
    fitted_order: float = dc_field(init=False)

    def __post_init__(self):
        self.eps_list = np.asarray(self.eps_list, dtype=float)
        self.errors = np.asarray(self.errors)
        self.fitted_order = wave.fit_order(self.eps_list, self.errors)

    def rows(self):
        out = [("eps", "gradient_error", "fitted_order")]
        for e, err in zip(self.eps_list, self.errors):
            out.append((format(e, ".17g"), format(err, ".17g"),
                        format(self.fitted_order, ".17g")))
        return out


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
    check_sweep_options(mode, operator)
    if f_modes is None:
        f_modes = {1: 1.0}
    oh = oracle1d.correctors_1d(profile, ell)
    model = DispersionModel.from_oracle(oh, ell)
    gamma, bt = _effective_operator(model, operator, gamma)

    t = oracle1d._gauss(pp_degree + 1)[0]
    ks = [2.0 * math.pi * q / side for q in f_modes]
    f_amps = list(f_modes.values())

    errors = []
    for eps in eps_list:
        ainv_box = oracle1d.tile_to_box(profile.ainv_pp, eps, side)
        breaks = ainv_box.breaks
        phi_box = [oracle1d.tile_to_box(p, eps, side) for p in oh.phi[: ell + 1]]
        # one sin/cos pair per mode at the nodes from_callable samples; the
        # derivatives of sin(k x) cycle through sin, cos, -sin, -cos
        x = oracle1d._nodes_on(breaks, t)
        pairs = [(np.sin(k * x), np.cos(k * x)) for k in ks]

        def fit(amplitudes, j: int):
            """d^j/dx^j of sum_q c_q sin(k_q x), fitted on the box partition."""
            sign = -1.0 if j % 4 >= 2 else 1.0
            vals = 0.0
            for c, k, pair in zip(amplitudes, ks, pairs):
                vals = vals + sign * c * k ** j * pair[j % 2]
            return oracle1d.PiecewisePoly.from_callable(lambda _: vals, breaks,
                                                        pp_degree)

        rhs_pp = fit(f_amps, 0)
        if mode == "prepared":
            for j in range(1, ell + 1):
                rhs_pp = rhs_pp + (eps ** j) * (phi_box[j] * fit(f_amps, j))
        u_fine = oracle1d.solve_elliptic_box(ainv_box, rhs_pp)

        num, den = mode_symbol(model, eps, np.array([ks]), gamma=gamma, bt=bt)
        den = np.broadcast_to(den, num.shape)
        u_amps = [c * float(den[i]) / float(num[i]) for i, c in enumerate(f_amps)]

        # w' = sum_j eps^j (phi_j d^(j+1) u + phi_j' d^j u), where the tiled
        # derivative already carries the 1/eps chain factor (phi_0' = 0)
        du = {j: fit(u_amps, j) for j in range(1, ell + 2)}
        w_prime = phi_box[0] * du[1]
        for j in range(1, ell + 1):
            w_prime = w_prime + (eps ** j) * (phi_box[j] * du[j + 1])
            w_prime = w_prime + (eps ** j) * (phi_box[j].derivative() * du[j])
        diff = u_fine.derivative() - w_prime
        errors.append(math.sqrt(max((diff * diff).integral(), 0.0)))

    return RateStudy(eps_list, errors, mode, operator,
                     {"gamma": gamma, "lambdas": oh.lambdas.tolist()})


def elliptic_error_sweep_spectral(coeff_spec: dict, tensors: TensorizedCorrectors,
                                  model: DispersionModel, eps_list,
                                  box: TorusGrid, f: np.ndarray,
                                  operator: str = "regularized") -> RateStudy:
    """Gradient-error sweep on the box with the spectral pipeline: prepared
    data, dressed to the model's order, and the regularization constant
    ``choose_gamma(model)``.

    Suitable for smooth coefficients; for discontinuous 1D profiles use the
    exact piecewise variant.
    """
    check_sweep_options("prepared", operator)
    ell = model.ell
    gamma, bt = _effective_operator(model, operator, None)
    errors = []
    for eps in eps_list:
        a_box = wave.coefficient_on_box(coeff_spec, box, eps)
        bc = BoxCorrectors.from_tensorized(tensors, box, eps)
        u_fine = solve_elliptic(CoefficientField(box, a_box),
                                prepared_rhs(bc, f, ell))
        u_hom = solve_effective_elliptic(model, f, box, eps, gamma=gamma, bt=bt)
        grad_fine = gradient_values(box, u_fine)
        grad_dressed = dressed_gradient(
            bc, DerivativeCache(box, rfftn(box, u_hom)), max_order=ell)
        errors.append(l2_norm(box, grad_fine - grad_dressed))
    return RateStudy(eps_list, errors, "prepared", operator, {"gamma": gamma})
