"""Extended corrector hierarchies and homogenized dispersion tensors.

For a unit direction e, the hierarchy interleaves four families of periodic
cell fields: scalar correctors phi_j, higher-order fluxes q_j,
skew-symmetric flux potentials sigma_j with div(sigma_j) = q_j, and scalar
potentials chi_j absorbing lower-order dispersion.  Each level feeds the
next, so the recursion is sequential in j:

    phi_j  ->  atilde_{j-1}, lambda_{j-1}  ->  q_j  ->  sigma_j  ->  chi_j

Every field is a homogeneous polynomial in e: phi_j, sigma_j and q_j of
degree j, chi_j and lambda_{j-1} of degree j + 1 (the multi-index
correctors of Bakhvalov & Panasenko).  The recursion therefore runs on
coefficient stacks.  A degree-k field is held as its coefficients over the
degree-k monomials of a few direction variables.  Multiplying by a
component of e is a convolution with that component's coefficients, and
the coefficients of phi_j are one stacked elliptic solve.  With the
monomial basis e1^(k-r) e2^r (``tensorize_correctors``) the recursion gives
the effective tensors and the tensorized corrector fields exactly, with
j + 1 right-hand sides at level j in 2D.  With one variable t and e = t e0
(``build_hierarchy``) it is the hierarchy in the one direction e0, with one
solve per level.
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
    curl_values,
    divergence_values,
    gradient_values,
    l2_norm,
    matrix_divergence_values,
    mean_values,
    nyquist_part,
    solve_div_a_grad,
    solve_poisson_values,
)


class ReconstructionError(RuntimeError):
    """An odd-order effective tensor does not vanish on the sampled
    directions."""


@dataclass
class CorrectorHierarchy:
    """Per-direction extended correctors up to a given order.

    ``lambdas[j]`` is the direction-diagonal homogenized coefficient of order
    j (j = 0..order-1), e . atilde_j for the flux average atilde_j.
    ``cg_iterations[j - 1]`` and ``cg_residual[j - 1]`` record the CG solves
    behind phi_j (j = 1..order): their total iteration count and their
    largest final relative residual.
    """

    a: CoefficientField
    direction: np.ndarray
    order: int
    phi: list
    sigma: list
    chi: list
    q: list
    lambdas: np.ndarray
    cg_iterations: list = dc_field(default_factory=list)
    cg_residual: list = dc_field(default_factory=list)

    @property
    def grid(self) -> TorusGrid:
        return self.a.grid


# ---------------------------------------------------------------------------
# the recursion on coefficient stacks
# ---------------------------------------------------------------------------

@dataclass
class TensorizedCorrectors:
    """The corrector hierarchy as homogeneous polynomials in the direction.

    Every entry is a coefficient stack over the monomials e1^(k-r) e2^r,
    r = 0..k, of its degree k (one coefficient e1^k in 1D), on the leading
    axis of the fields.  ``phi[j]`` (degree j) and ``chi[j]`` (degree j + 1)
    have shape (n_coefficients, grid...); contracting phi_j against the j-th
    derivative tensor of a slowly varying profile realizes the
    corrector-dressed expansion.  ``sigma12[j]`` is the one component s of
    the skew flux potential sigma_j = s [[0, 1], [-1, 0]] (degree j; None in
    1D, where sigma_j vanishes).  ``q[j]`` (j >= 1, degree j) has shape
    (dim, n_coefficients, grid...), and ``lambdas[j]`` holds the
    coefficients of the effective tensor lambda_j (degree j + 2),
    j = 0..order-1.
    ``cg_iterations[j - 1]`` and ``cg_residual[j - 1]`` list the CG solve of
    each coefficient of phi_j, and ``cg_coarse_iterations[j - 1]`` the CG
    iterations of its coarse-grid start, each a dict keyed by the points per
    axis of the coarser grid (``torus.PCGSolve``).
    """

    a: CoefficientField
    order: int
    phi: list
    sigma12: list
    chi: list
    q: list
    lambdas: list
    cg_iterations: list
    cg_residual: list
    cg_coarse_iterations: list

    @property
    def grid(self) -> TorusGrid:
        return self.a.grid

    def in_direction(self, e) -> CorrectorHierarchy:
        """The hierarchy in direction e, contracted from the coefficients
        (no solve)."""
        e = _unit_direction(self.grid.dim, e)
        return _contract(self, e, e)


def times_polynomial(poly, stack) -> np.ndarray:
    """Coefficient stack of the product of the direction polynomial with
    coefficients ``poly`` (numbers) and the field held as ``stack``, both in
    the same monomial basis: their convolution along the leading axis."""
    out = np.zeros((len(poly) + len(stack) - 1,) + np.shape(stack)[1:])
    for r, c in enumerate(poly):
        out[r:r + len(stack)] += c * stack
    return out


def _unit_direction(dim: int, e) -> np.ndarray:
    e = np.asarray(e, dtype=float).reshape(dim)
    norm = np.linalg.norm(e)
    if norm == 0:
        raise ConfigurationError("direction must be nonzero")
    return e / norm


def check_order(ell: int) -> None:
    """Reject a hierarchy order below 1."""
    if ell < 1:
        raise ConfigurationError("hierarchy order must be >= 1")


def _corrector_stacks(a: CoefficientField, ell: int,
                      basis: np.ndarray) -> TensorizedCorrectors:
    """The corrector recursion up to order ell on coefficient stacks.

    The direction is e = sum_i t_i basis[i] for the variables t_i, so column
    m of ``basis`` holds the coefficients of e_m, and a degree-k field has
    (len(basis) - 1) k + 1 coefficients, on the monomials of t.  The
    coefficients of phi_j share one operator, so one PCG call solves them
    all, each to ``CG_TOL``; the curl and chi Poisson solves take a whole
    stack per transform.
    """
    check_order(ell)
    grid = a.grid
    d = grid.dim
    e = basis.T
    # a broadcast against the coefficient axis of a stack of vector fields
    a_stack = a.values[:, :, None]

    def zeros(degree):
        return np.zeros(((len(basis) - 1) * degree + 1,) + grid.shape)

    def dot_e(vec):
        return sum(times_polynomial(e[m], vec[m]) for m in range(d))

    phi = [np.ones((1,) + grid.shape)]
    s = [zeros(0) if d == 2 else None]
    chi = [zeros(1), zeros(2)]
    q = [None]
    lambdas = []
    cg_iterations, cg_residual, cg_coarse_iterations = [], [], []

    for j in range(1, ell + 1):
        grad_chi = gradient_values(grid, chi[j - 1])
        # sigma e for sigma = s [[0, 1], [-1, 0]]
        sig_e = 0.0 if d == 1 else np.stack([times_polynomial(e[1], s[j - 1]),
                                             -times_polynomial(e[0], s[j - 1])])
        a_e_phi = _matvec(a_stack, np.stack([times_polynomial(e[m], phi[j - 1])
                                             for m in range(d)]))
        flux_src = a_e_phi + grad_chi - sig_e
        try:
            solved = solve_div_a_grad(a, flux_src)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"corrector solve failed at level {j}, coefficient "
                f"{err.column}: {err}", residual=err.residual,
                iterations=err.iterations, column=err.column) from err
        del flux_src  # not needed past the solve; frees a level-sized stack
        phi_j, its, res = solved
        phi.append(phi_j)
        cg_iterations.append(its)
        cg_residual.append(res)
        cg_coarse_iterations.append(solved.coarse_iterations)

        flux = _matvec(a_stack, gradient_values(grid, phi_j)) + a_e_phi
        at = mean_values(grid, flux)
        lambdas.append(dot_e(at))
        q_j = flux - at[(...,) + (None,) * d] + grad_chi - sig_e
        q.append(q_j)

        if d == 1:
            # 1x1 skew-symmetry: the flux potential vanishes identically and
            # the flux itself is zero up to the elliptic solver residual.
            s.append(None)
        else:
            s.append(solve_poisson_values(grid, curl_values(grid, q_j))[0])

        if j >= 2:
            src = dot_e(grad_chi)
            for p in range(1, j):
                src = src + times_polynomial(lambdas[j - 1 - p], phi[p])
            chi.append(solve_poisson_values(grid, src)[0])

    return TensorizedCorrectors(a=a, order=ell, phi=phi, sigma12=s, chi=chi,
                                q=q, lambdas=lambdas,
                                cg_iterations=cg_iterations,
                                cg_residual=cg_residual,
                                cg_coarse_iterations=cg_coarse_iterations)


def _contract(t: TensorizedCorrectors, e: np.ndarray,
              coords) -> CorrectorHierarchy:
    """The hierarchy in the unit direction e from the stacks of ``t``, each
    evaluated at ``coords``, the values of t's direction variables at e."""
    d = t.grid.dim
    shape = t.grid.shape

    def value(stack, degree):
        return evaluate_monomials(stack, degree, coords)

    sigma = []
    for j, s in enumerate(t.sigma12):
        sig = np.zeros((d, d) + shape)
        if d == 2:
            sig[0, 1] = value(s, j)
            sig[1, 0] = -sig[0, 1]
        sigma.append(sig)
    return CorrectorHierarchy(
        a=t.a, direction=e, order=t.order,
        phi=[value(p, j) for j, p in enumerate(t.phi)],
        sigma=sigma,
        chi=[value(c, j + 1) for j, c in enumerate(t.chi)],
        q=[None] + [np.stack([value(qm, j) for qm in t.q[j]])
                    for j in range(1, t.order + 1)],
        lambdas=np.array([float(value(lam, j + 2))
                          for j, lam in enumerate(t.lambdas)]),
        cg_iterations=[sum(its) for its in t.cg_iterations],
        cg_residual=[max(res) for res in t.cg_residual])


def build_hierarchy(a: CoefficientField, e, ell: int) -> CorrectorHierarchy:
    """Build the extended corrector hierarchy in direction e up to order ell:
    the recursion of ``tensorize_correctors`` with the direction fixed, one
    CG solve per level."""
    e = _unit_direction(a.grid.dim, e)
    return _contract(_corrector_stacks(a, ell, e[None, :]), e, [1.0])


def tensorize_correctors(a: CoefficientField, ell: int) -> TensorizedCorrectors:
    """Monomial coefficients of the corrector hierarchy up to order ell: one
    stacked CG solve per level, of j + 1 right-hand sides at level j in 2D
    and one in 1D."""
    return _corrector_stacks(a, ell, np.eye(a.grid.dim))


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
        a_grad_phi = _matvec(h.a.values, gradient_values(grid, h.phi[j]))
        scale = max(l2_norm(grid, a_grad_phi),
                    l2_norm(grid, h.phi[j - 1] * _matvec(h.a.values, e_col)),
                    l2_norm(grid, gradient_values(grid, h.chi[j - 1])),
                    float(h.lambdas[0]))
        out["div_q"] = max(out["div_q"],
                           l2_norm(grid, divergence_values(grid, q_j)) / scale)
        if d == 1:
            out["flux_exactness"] = max(out["flux_exactness"],
                                        l2_norm(grid, q_j) / scale)
        else:
            q_scale = l2_norm(grid, q_j)
            if q_scale > 1e-12 * scale:
                gap = matrix_divergence_values(grid, h.sigma[j]) - q_j
                out["flux_exactness"] = max(
                    out["flux_exactness"],
                    l2_norm(grid, gap - nyquist_part(grid, gap)) / q_scale)
                out["q_nyquist"] = max(
                    out["q_nyquist"], l2_norm(grid, nyquist_part(grid, q_j)) / q_scale)
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
# direction sampling and the effective tensors
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
                           kmax_cap: float = 1.0, tensors=None,
                           fit_tol: float = 1e-6):
    """The homogenized tensors of orders 0..ell-1 as direction polynomials.

    lambda_j is a homogeneous polynomial of degree j + 2 in e, and the
    monomial build (``tensors``, built when not given) holds its
    coefficients exactly.  The sampled directions are evaluation points:
    odd orders (zero for symmetric coefficients) must vanish on them to
    ``fit_tol`` lambda_0 and are stored as zero, and ``Gamma_bar`` is the
    largest |lambda_j| on them.  A degree-(ell + 1) polynomial that vanishes
    at ell + 2 distinct half-circle directions vanishes identically, so at
    least that many are required in 2D.  Returns a dispersion model carrying
    the polynomials, the odd-order magnitudes as ``fit_residuals`` (0 at
    even orders), and the positivity radius k_max.
    """
    dim = a.grid.dim
    if directions is None:
        directions = default_directions(dim, ell)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    needed = ell + 2
    if dim == 2 and directions.shape[0] < needed:
        raise ConfigurationError(
            f"need at least {needed} directions for order {ell}")
    if tensors is None:
        tensors = tensorize_correctors(a, ell)
    if tensors.order < ell:
        raise ConfigurationError("tensorized correctors below requested order")
    lam = np.stack([evaluate_monomials(tensors.lambdas[j], j + 2, directions.T)
                    for j in range(ell)], axis=1)  # (n_dir, ell)
    lam0 = float(np.min(lam[:, 0]))

    polys = []
    residuals = []
    for j in range(ell):
        if j % 2 == 0:
            polys.append(tensors.lambdas[j])
            residuals.append(0.0)
            continue
        mag = float(np.max(np.abs(lam[:, j])))
        if mag > fit_tol * lam0:
            raise ReconstructionError(
                f"odd-order coefficient {j} has magnitude {mag:.3e}, "
                f"exceeds {fit_tol:g} * lambda_0")
        polys.append(np.zeros_like(tensors.lambdas[j]))
        residuals.append(mag / lam0)

    gamma_bar = float(np.max(np.abs(lam)))
    return _dispersion.DispersionModel(
        dim=dim, ell=ell, polys=polys, directions=directions,
        Gamma_bar=gamma_bar, kmax_cap=float(kmax_cap),
        fit_residuals=np.asarray(residuals))


def lambda_table_rows(model) -> list:
    """CSV-ready rows (order, coefficient...) for a dispersion model."""
    rows = [("order", "degree", "monomial_coefficients")]
    for j, coeffs in enumerate(model.polys):
        rows.append((j, j + 2, " ".join(format(c, ".17g")
                                        for c in np.atleast_1d(coeffs))))
    return rows
