"""Extended corrector hierarchies and homogenized dispersion tensors.

For a fixed unit direction e, the hierarchy interleaves four families of
periodic cell fields: scalar correctors phi_j, higher-order fluxes q_j,
skew-symmetric flux potentials sigma_j with div(sigma_j) = q_j, and scalar
potentials chi_j absorbing lower-order dispersion.  Each level feeds the
next, so a single build is inherently sequential:

    phi_j  ->  atilde_{j-1}, lambda_{j-1}  ->  q_j  ->  sigma_j  ->  chi_j

Direction-resolved quantities are homogeneous polynomials in e; fitting them
over sampled directions recovers the effective tensors (as direction
polynomials) and the tensorized corrector fields used to dress slowly
varying profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import dispersion as _dispersion
from .torus import (
    CoefficientField,
    ConfigurationError,
    ConvergenceError,
    TorusGrid,
    _matvec,
    deriv_values,
    divergence_values,
    gradient_values,
    matrix_divergence_values,
    mean_values,
    nyquist_part,
    solve_div_a_grad,
    solve_poisson_values,
)


class ReconstructionError(RuntimeError):
    """Direction-polynomial fit failed to reproduce the sampled values."""


@dataclass
class CorrectorHierarchy:
    """Per-direction extended correctors up to a given order.

    ``lambdas[j]`` is the direction-diagonal homogenized coefficient of order
    j (j = 0..order-1), ``atilde[j]`` the corresponding flux-average vector.
    ``cg_iterations[j - 1]`` and ``cg_residual[j - 1]`` record the CG solve
    for phi_j (j = 1..order).
    """

    a: CoefficientField
    direction: np.ndarray
    order: int
    phi: list
    sigma: list
    chi: list
    q: list
    lambdas: np.ndarray
    atilde: np.ndarray
    cg_iterations: list = dc_field(default_factory=list)
    cg_residual: list = dc_field(default_factory=list)

    @property
    def grid(self) -> TorusGrid:
        return self.a.grid


def _fitted_guess(solved, e: np.ndarray, j: int) -> np.ndarray | None:
    """phi_j in direction e from the least-squares degree-j direction
    polynomial through the ``solved`` hierarchies' phi_j; None in 1D or
    while fewer than j + 1 directions are solved."""
    if e.shape[0] == 1 or len(solved) < j + 1:
        return None
    design = _monomial_design(np.stack([h.direction for h in solved]), j)
    weights = _monomial_design(e[None, :], j) @ np.linalg.pinv(design)
    guess = np.zeros(solved[0].phi[j].shape)
    for w, h in zip(weights[0], solved):
        guess += w * h.phi[j]
    return guess


def build_hierarchy(a: CoefficientField, e, ell: int,
                    solved=()) -> CorrectorHierarchy:
    """Build the extended corrector hierarchy in direction e up to order ell.

    ``solved`` holds hierarchies already built for the same coefficient;
    each phi_j solve starts from their direction-polynomial fit (see
    ``_fitted_guess``) and stops at the same ``CG_TOL`` as a cold start.
    """
    if ell < 1:
        raise ConfigurationError("hierarchy order must be >= 1")
    grid = a.grid
    d = grid.dim
    e = np.asarray(e, dtype=float).reshape(d)
    norm = np.linalg.norm(e)
    if norm == 0:
        raise ConfigurationError("direction must be nonzero")
    e = e / norm

    ae = _matvec(a.values, e.reshape((d,) + (1,) * d))
    shape = grid.shape
    phi = [np.ones(shape)]
    sigma = [np.zeros((d, d) + shape)]
    chi = [np.zeros(shape), np.zeros(shape)]
    q = [None]
    lambdas = np.zeros(ell)
    atilde = np.zeros((ell, d))
    cg_iterations, cg_residual = [], []

    for j in range(1, ell + 1):
        grad_chi = gradient_values(grid, chi[j - 1])
        sig_e = np.einsum("mn...,n->m...", sigma[j - 1], e)
        flux_src = -sig_e + ae * phi[j - 1] + grad_chi
        try:
            phi_j, iterations, residual = solve_div_a_grad(
                a, flux_src, _fitted_guess(solved, e, j))
        except ConvergenceError as err:
            raise ConvergenceError(
                f"corrector solve failed at level {j}: {err}",
                residual=err.residual, iterations=err.iterations) from err
        phi.append(phi_j)
        cg_iterations.append(iterations)
        cg_residual.append(residual)

        flux = _matvec(a.values, gradient_values(grid, phi_j)) + ae * phi[j - 1]
        at = mean_values(grid, flux)
        atilde[j - 1] = at
        lambdas[j - 1] = float(e @ at)

        q_j = flux - at.reshape((d,) + (1,) * d) + grad_chi - sig_e
        q.append(q_j)

        if d == 1:
            # 1x1 skew-symmetry: the flux potential vanishes identically and
            # the flux itself is zero up to the elliptic solver residual.
            sigma.append(np.zeros((1, 1) + shape))
        else:
            curl = deriv_values(grid, q_j[1], [0]) - deriv_values(grid, q_j[0], [1])
            s, _ = solve_poisson_values(grid, curl)
            sig = np.zeros((2, 2) + shape)
            sig[0, 1] = s
            sig[1, 0] = -s
            sigma.append(sig)

        if j >= 2:
            src = np.einsum("m...,m->...", grad_chi, e)
            for p in range(1, j):
                src = src + lambdas[j - 1 - p] * phi[p]
            chi_j, _ = solve_poisson_values(grid, src)
            chi.append(chi_j)

    return CorrectorHierarchy(a=a, direction=e, order=ell,
                              phi=phi, sigma=sigma, chi=chi[: ell + 1], q=q,
                              lambdas=lambdas, atilde=atilde,
                              cg_iterations=cg_iterations,
                              cg_residual=cg_residual)


def _l2(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(values) ** 2)))


def hierarchy_invariants(h: CorrectorHierarchy) -> dict:
    """Structural residuals of the hierarchy (all should be tiny).

    Keys: mean_phi, mean_sigma, mean_chi, mean_q, div_q, flux_exactness,
    q_nyquist, skew_gap, lambda0.  Residuals are measured against the size
    of the flux constituents at each level (the flux itself can vanish
    identically, e.g. at even 1D levels).  In 1D flux_exactness reports
    |q_j| itself, which must vanish since the flux potential is identically
    zero there, and q_nyquist is 0.  In 2D flux_exactness is the gap
    |div sigma_j - q_j| / |q_j| off the Nyquist lines, where div sigma_j can
    reproduce q_j; the odd derivatives zero the Nyquist lines, so what q_j
    carries there is reported on its own as q_nyquist, the share of |q_j|
    the grid does not resolve.
    """
    grid = h.grid
    d = grid.dim
    e_col = h.direction.reshape((d,) + (1,) * d)
    out = {"mean_phi": 0.0, "mean_sigma": 0.0, "mean_chi": 0.0, "mean_q": 0.0,
           "div_q": 0.0, "flux_exactness": 0.0, "q_nyquist": 0.0,
           "skew_gap": 0.0, "lambda0": float(h.lambdas[0])}
    for j in range(1, h.order + 1):
        out["mean_phi"] = max(out["mean_phi"], abs(float(mean_values(grid, h.phi[j]))))
        out["mean_sigma"] = max(out["mean_sigma"],
                                float(np.max(np.abs(mean_values(grid, h.sigma[j])))))
        out["mean_chi"] = max(out["mean_chi"], abs(float(mean_values(grid, h.chi[j]))))
        q_j = h.q[j]
        out["mean_q"] = max(out["mean_q"], float(np.max(np.abs(mean_values(grid, q_j)))))
        scale = max(_l2(_matvec(h.a.values, gradient_values(grid, h.phi[j]))),
                    _l2(h.phi[j - 1] * _matvec(h.a.values, e_col)),
                    _l2(gradient_values(grid, h.chi[j - 1])),
                    float(h.lambdas[0]))
        out["div_q"] = max(out["div_q"],
                           _l2(divergence_values(grid, q_j)) / scale)
        if d == 1:
            out["flux_exactness"] = max(out["flux_exactness"],
                                        _l2(q_j) / scale)
        else:
            q_scale = _l2(q_j)
            if q_scale > 1e-12 * scale:
                gap = matrix_divergence_values(grid, h.sigma[j]) - q_j
                out["flux_exactness"] = max(
                    out["flux_exactness"],
                    _l2(gap - nyquist_part(grid, gap)) / q_scale)
                out["q_nyquist"] = max(out["q_nyquist"],
                                       _l2(nyquist_part(grid, q_j)) / q_scale)
            out["skew_gap"] = max(out["skew_gap"], float(np.max(np.abs(
                h.sigma[j] + np.swapaxes(h.sigma[j], 0, 1)))))
    return out


# ---------------------------------------------------------------------------
# algebraic identity checks
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    """Residuals of the corrector algebra for one hierarchy.

    * odd_lambda:      {j: |lambda_j| / lambda_0} for odd j
    * lambda2_*:       order-2 coefficient by definition vs. as the Dirichlet
                       quadratic form of phi_2 - phi_1^2/2 (nonnegative)
    * lambda4_*:       order-4 coefficient by definition vs. its mixed
                       quadratic reformulation (needs order >= 5)
    * pair_identity:   {(j, l): residual} of the two-level summation identity
    * step_identity:   {j: residual} of its diagonal l = j + 1 case
    """

    lambda0: float
    odd_lambda: dict
    lambda2_def: float | None
    lambda2_quadratic: float | None
    lambda2_gap: float | None
    lambda4_def: float | None
    lambda4_reformulated: float | None
    lambda4_gap: float | None
    pair_identity: dict = dc_field(default_factory=dict)
    step_identity: dict = dc_field(default_factory=dict)

    def max_pair_residual(self) -> float:
        return max(self.pair_identity.values(), default=0.0)

    def max_step_residual(self) -> float:
        return max(self.step_identity.values(), default=0.0)


def verify_corrector_identities(h: CorrectorHierarchy) -> IdentityReport:
    """Check the algebraic structure of the hierarchy on the grid.

    All identities are consequences of the corrector equations, discrete
    integration by parts (exact for trigonometric collocation), and the
    skew-symmetry of the flux potentials, so their residuals measure only
    the iterative solver tolerance.
    """
    grid = h.grid
    d = grid.dim
    ell = h.order
    a_values = h.a.values
    e = h.direction
    eae = np.einsum("m,mn...,n->...", e, a_values, e)
    lam = h.lambdas
    lam0 = float(lam[0])

    grads = [gradient_values(grid, p) for p in h.phi]
    agrads = [_matvec(a_values, g) for g in grads]

    def m(x):
        return float(mean_values(grid, x))

    def dirichlet(i, j):
        return m(np.einsum("m...,m...->...", grads[i], agrads[j]))

    report_pairs = {}
    for j in range(1, ell):  # needs phi_{j+1}
        for l in range(j + 1, ell + 1):  # needs phi_l
            terms = [dirichlet(j, l), -m(h.phi[j - 1] * h.phi[l - 1] * eae),
                     dirichlet(j + 1, l - 1), -m(h.phi[j] * h.phi[l - 2] * eae)]
            side = terms[0] + terms[1] + terms[2] + terms[3]
            corr = 0.0
            for mm in range(1, j):
                corr += lam[j - 1 - mm] * m(h.phi[l - 1] * h.phi[mm])
            for mm in range(1, l - 1):
                corr += lam[l - 2 - mm] * m(h.phi[mm] * h.phi[j])
            scale = max([abs(t) for t in terms] + [abs(corr), lam0])
            report_pairs[(j, l)] = abs(side + corr) / scale

    report_steps = {}
    for j in range(1, ell):
        lhs = dirichlet(j, j + 1) - m(h.phi[j - 1] * h.phi[j] * eae)
        rhs = 0.0
        for mm in range(1, j):
            rhs -= lam[j - 1 - mm] * m(h.phi[mm] * h.phi[j])
        scale = max(abs(dirichlet(j, j + 1)), abs(rhs), lam0)
        report_steps[j] = abs(lhs - rhs) / scale

    odd = {j: abs(float(lam[j])) / lam0 for j in range(1, ell, 2)}

    lambda2_def = lambda2_quad = lambda2_gap = None
    if ell >= 3:
        lambda2_def = float(lam[2])
        w = h.phi[2] - 0.5 * h.phi[1] ** 2
        gw = gradient_values(grid, w)
        lambda2_quad = m(np.einsum("m...,m...->...", gw, _matvec(a_values, gw)))
        denom = max(abs(lambda2_def), abs(lambda2_quad), 1e-14 * lam0)
        lambda2_gap = abs(lambda2_def - lambda2_quad) / denom

    lambda4_def = lambda4_ref = lambda4_gap = None
    if ell >= 5:
        lambda4_def = float(lam[4])
        lambda4_ref = m(-np.einsum("m...,m...->...", grads[3], agrads[3])
                        + h.phi[2] ** 2 * eae - lam0 * h.phi[2] ** 2
                        + float(lam[2]) * h.phi[1] ** 2)
        denom = max(abs(lambda4_def), abs(lambda4_ref), 1e-14 * lam0)
        lambda4_gap = abs(lambda4_def - lambda4_ref) / denom

    return IdentityReport(lambda0=lam0, odd_lambda=odd,
                          lambda2_def=lambda2_def, lambda2_quadratic=lambda2_quad,
                          lambda2_gap=lambda2_gap, lambda4_def=lambda4_def,
                          lambda4_reformulated=lambda4_ref, lambda4_gap=lambda4_gap,
                          pair_identity=report_pairs, step_identity=report_steps)


# ---------------------------------------------------------------------------
# direction sampling and polynomial reconstruction
# ---------------------------------------------------------------------------

def half_circle_directions(dim: int, n: int, offset: float = 0.0) -> np.ndarray:
    """Unit directions at the angles (i + offset) pi / n, i = 0..n-1, as rows;
    the single direction [[1.0]] in 1D."""
    if dim == 1:
        return np.array([[1.0]])
    theta = (np.arange(n) + offset) * np.pi / n
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def default_directions(dim: int, ell: int) -> np.ndarray:
    """Direction samples: 2*ell + 4 equispaced half-circle angles in 2D."""
    return half_circle_directions(dim, 2 * ell + 4)


def build_hierarchies(a: CoefficientField, ell: int, directions) -> list:
    """Hierarchies for several directions, one after the other; each build
    warm-starts its solves from the directions built before it."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    hierarchies = []
    for e in directions:
        hierarchies.append(build_hierarchy(a, e, ell, solved=hierarchies))
    return hierarchies


def _monomial_design(directions: np.ndarray, degree: int) -> np.ndarray:
    """Rows evaluate the monomials e1^(degree-r) e2^r, r = 0..degree."""
    e1, e2 = directions[:, 0], directions[:, 1]
    return np.stack([e1 ** (degree - r) * e2 ** r for r in range(degree + 1)],
                    axis=1)


def fit_direction_polynomial(directions: np.ndarray, samples: np.ndarray,
                             degree: int):
    """Least-squares homogeneous polynomial fit over unit directions.

    ``samples`` has shape (n_directions, ...); returns (coeffs, max relative
    residual) where coeffs has shape (degree + 1, ...) in the monomial basis
    e1^(degree-r) e2^r.  In 1D the single coefficient is the e = +1 sample.
    """
    samples = np.asarray(samples, dtype=float)
    if directions.shape[1] == 1:
        coeffs = samples[:1].copy()
        return coeffs, 0.0
    design = _monomial_design(directions, degree)
    flat = samples.reshape(samples.shape[0], -1)
    coeffs, *_ = np.linalg.lstsq(design, flat, rcond=None)
    recon = design @ coeffs
    scale = max(float(np.max(np.abs(flat))), 1e-30)
    residual = float(np.max(np.abs(recon - flat))) / scale
    return coeffs.reshape((degree + 1,) + samples.shape[1:]), residual


def evaluate_monomials(coeffs: np.ndarray, degree: int, vec) -> np.ndarray:
    """Evaluate a homogeneous polynomial at (stacked) vectors.

    ``vec`` has shape (d, ...); returns sum_r coeffs[r] * v1^(degree-r) v2^r,
    which for unit vectors is the direction value and in general scales as
    |v|^degree.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[0] == 1:
        return coeffs[0] * vec[0] ** degree
    out = np.zeros(np.broadcast_shapes(coeffs[0].shape if coeffs[0].ndim else (),
                                       vec.shape[1:]))
    for r in range(degree + 1):
        out = out + coeffs[r] * vec[0] ** (degree - r) * vec[1] ** r
    return out


def reconstruct_dispersion(a: CoefficientField, ell: int, directions=None,
                           kmax_cap: float = 1.0, hierarchies=None,
                           fit_tol: float = 1e-6):
    """Fit the homogenized tensors of orders 0..ell-1 as direction polynomials.

    Per-direction hierarchies give lambda_j^e; each is a homogeneous
    polynomial of degree j + 2 in e, recovered by least squares over the
    sampled directions.  Odd orders are checked to vanish (symmetric
    coefficients) and stored as zero.  Returns a dispersion model carrying
    the polynomials, their sup magnitude, and the positivity radius k_max.
    """
    if directions is None:
        directions = default_directions(a.grid.dim, ell)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    needed = ell + 2  # coefficients of the highest-degree polynomial
    if a.grid.dim == 2 and directions.shape[0] < needed:
        raise ConfigurationError(
            f"need at least {needed} directions for order {ell}")
    if hierarchies is None:
        hierarchies = build_hierarchies(a, ell, directions)
    lam = np.stack([h.lambdas for h in hierarchies])  # (n_dir, ell)
    lam0 = float(np.min(lam[:, 0]))

    polys = []
    residuals = []
    for j in range(ell):
        degree = j + 2
        if j % 2 == 1:
            mag = float(np.max(np.abs(lam[:, j])))
            if mag > fit_tol * lam0:
                raise ReconstructionError(
                    f"odd-order coefficient {j} has magnitude {mag:.3e}, "
                    f"exceeds {fit_tol:g} * lambda_0")
            polys.append(np.zeros(degree + 1 if a.grid.dim == 2 else 1))
            residuals.append(mag / lam0)
            continue
        coeffs, res = fit_direction_polynomial(directions, lam[:, j], degree)
        if res > fit_tol:
            raise ReconstructionError(
                f"direction fit at order {j} has relative residual {res:.3e}")
        polys.append(coeffs)
        residuals.append(res)

    gamma_bar = max(float(np.max(np.abs(lam[:, j]))) for j in range(ell))
    model = _dispersion.DispersionModel(
        dim=a.grid.dim, ell=ell, polys=polys, directions=directions,
        Gamma_bar=gamma_bar, kmax_cap=float(kmax_cap),
        fit_residuals=np.asarray(residuals))
    model.kmax = _dispersion.compute_kmax(model, kmax_cap)
    return model


# ---------------------------------------------------------------------------
# tensorized correctors
# ---------------------------------------------------------------------------

@dataclass
class TensorizedCorrectors:
    """Corrector fields as nodewise homogeneous polynomials in the direction.

    ``phi[j]`` has shape (n_monomials, grid...) with n_monomials = j + 1 in
    2D (monomial basis e1^(j-r) e2^r) and 1 in 1D; contracting against the
    j-th derivative tensor of a slowly varying profile realizes the
    corrector-dressed expansion.  ``sigma12`` (2D only) and ``chi`` carry the
    flux potential component and the dispersion potential at degrees j and
    j + 1 respectively; they feed the divergence-form residuum identities.
    """

    grid: TorusGrid
    dim: int
    order: int
    directions: np.ndarray
    phi: list
    sigma12: list
    chi: list
    fit_residual: float

    def phi_in_direction(self, j: int, e) -> np.ndarray:
        e = np.asarray(e, dtype=float).reshape(self.dim, 1)
        if self.dim == 1:
            return self.phi[j][0] * float(e[0, 0]) ** j
        flat = evaluate_monomials(
            self.phi[j].reshape(j + 1, -1), j, e)
        return flat.reshape(self.grid.shape)


def tensorize_correctors(a: CoefficientField, ell: int, directions=None,
                         hierarchies=None) -> TensorizedCorrectors:
    """Nodewise direction-polynomial fit of the corrector fields.

    phi_j is homogeneous of degree j in the direction, the flux potential of
    degree j, and chi_j of degree j + 1; the recursion preserves these
    degrees, which the recorded fit residual confirms a posteriori.
    """
    if directions is None:
        directions = default_directions(a.grid.dim, ell)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if a.grid.dim == 2 and directions.shape[0] < ell + 2:
        raise ConfigurationError(
            f"need at least {ell + 2} directions to tensorize order {ell}")
    if hierarchies is None:
        hierarchies = build_hierarchies(a, ell, directions)

    worst = 0.0
    phi_t, sig_t, chi_t = [], [], []
    for j in range(ell + 1):
        phi_samples = np.stack([h.phi[j] for h in hierarchies])
        coeffs, res = fit_direction_polynomial(directions, phi_samples, j)
        worst = max(worst, res)
        phi_t.append(coeffs)
        if a.grid.dim == 2:
            sig_samples = np.stack([h.sigma[j][0, 1] for h in hierarchies])
            coeffs, res = fit_direction_polynomial(directions, sig_samples, j)
            worst = max(worst, res)
            sig_t.append(coeffs)
        else:
            sig_t.append(None)
        chi_samples = np.stack([h.chi[j] for h in hierarchies])
        coeffs, res = fit_direction_polynomial(directions, chi_samples, j + 1)
        worst = max(worst, res)
        chi_t.append(coeffs)

    return TensorizedCorrectors(grid=a.grid, dim=a.grid.dim, order=ell,
                                directions=directions, phi=phi_t,
                                sigma12=sig_t, chi=chi_t, fit_residual=worst)


def lambda_table_rows(model) -> list:
    """CSV-ready rows (order, coefficient...) for a dispersion model."""
    rows = [("order", "degree", "monomial_coefficients")]
    for j, coeffs in enumerate(model.polys):
        rows.append((j, j + 2, " ".join(format(c, ".17g")
                                        for c in np.atleast_1d(coeffs))))
    return rows
