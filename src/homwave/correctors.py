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
component of e is a convolution with that component's coefficients
(``dispersion.times_polynomial``), and
the coefficients of phi_j are one stacked elliptic solve.  With the
monomial basis e1^(k-r) e2^r (``tensorize_correctors``) the recursion gives
the effective tensors and the tensorized corrector fields exactly, with
j + 1 right-hand sides at level j in 2D.  With one variable t and e = t e0
(``build_hierarchy``) it is the hierarchy in the one direction e0, with one
solve per level.

Every field is held once, as its half spectrum: samples are formed only
for the products with a, and handed out by ``Samples``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dispersion import (DispersionModel, evaluate_monomials,
                         half_circle_directions, times_polynomial)
from .torus import (
    CoefficientField,
    ConfigurationError,
    ConvergenceError,
    TorusGrid,
    _half_gradient_multiplier,
    _inverse_laplacian,
    _matvec,
    _nyquist_lines,
    _pcg_div_a_grad,
    gradient_values,
    irfftn,
    l2_norm,
    l2_norm_hat,
    rfftn,
)


class ReconstructionError(RuntimeError):
    """An odd-order effective tensor does not vanish on the sampled
    directions."""


class Samples(Sequence):
    """Samples of the list ``spectra`` of half spectra (None stays None),
    each formed by ``form`` (default ``irfftn``) when read, and not kept."""

    def __init__(self, grid: TorusGrid, spectra: list, form=None):
        self.spectra = spectra
        self.form = form or (lambda spec: None if spec is None
                             else irfftn(grid, spec))

    def __len__(self):
        return len(self.spectra)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self.form(spec) for spec in self.spectra[j]]
        return self.form(self.spectra[j])


@dataclass
class CorrectorHierarchy:
    """Per-direction extended correctors up to a given order.

    ``sigma[j]`` is the (dim, dim) matrix field of the skew component held
    (zero in 1D, where none is held).
    ``lambdas[j]`` is the direction-diagonal homogenized coefficient of order
    j (j = 0..order-1), e . atilde_j for the flux average atilde_j.
    ``cg_iterations[j - 1]`` and ``cg_residual[j - 1]`` record the CG solves
    behind phi_j (j = 1..order): their total iteration count and their
    largest final relative residual.
    """

    a: CoefficientField
    direction: np.ndarray
    order: int
    phi: Samples
    sigma: Samples
    chi: Samples
    q: Samples
    lambdas: np.ndarray
    cg_iterations: list
    cg_residual: list

    @property
    def grid(self) -> TorusGrid:
        return self.a.grid


# ---------------------------------------------------------------------------
# the recursion on coefficient stacks
# ---------------------------------------------------------------------------

@dataclass
class TensorizedCorrectors:
    """The corrector hierarchy as homogeneous polynomials in the direction.

    Every field is a stack of its coefficients over the monomials
    e1^(k-r) e2^r, r = 0..k, of its degree k (e1^k in 1D), on the leading
    axis: ``phi[j]`` (degree j), ``chi[j]`` (degree j + 1), ``sigma12[j]``,
    the component s of sigma_j = s [[0, 1], [-1, 0]] (degree j; None in
    1D), and ``q[j]`` (degree j, j >= 1, shape (dim, n_coefficients,
    grid...)).  ``lambdas[j]`` holds the coefficients of the effective
    tensor lambda_j (degree j + 2), j = 0..order-1.  ``cg_iterations[j - 1]``
    and ``cg_residual[j - 1]`` list the CG solve of each coefficient of
    phi_j, and ``cg_coarse_iterations[j - 1]`` the CG iterations of its
    coarse-grid start, each a dict keyed by the points per axis of the
    coarser grid (``torus.PCGSolve``).
    """

    a: CoefficientField
    order: int
    phi: Samples
    sigma12: Samples
    chi: Samples
    q: Samples
    lambdas: list
    cg_iterations: list
    cg_residual: list
    cg_coarse_iterations: list

    @property
    def grid(self) -> TorusGrid:
        return self.a.grid

    def in_direction(self, e) -> CorrectorHierarchy:
        """The hierarchy in direction e, contracted from the coefficient
        spectra (no solve, no transform)."""
        e = _unit_direction(self.grid.dim, e)
        return _contract(self, e, e)


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
    all, each to ``CG_TOL``.  The products with a are formed on samples,
    one forward transform each; all else is Fourier multipliers.
    """
    check_order(ell)
    grid = a.grid
    d = grid.dim
    e = basis.T
    # a broadcast against the coefficient axis of a stack of vector fields,
    # and i k against the coefficient axis of a stack of spectra
    a_stack = a.values[:, :, None]
    ik = _half_gradient_multiplier(grid)[:, None]
    mean = (...,) + (0,) * d  # the zero mode: the cell mean times n^d

    def zeros(degree):
        return np.zeros(((len(basis) - 1) * degree + 1,) + grid.half_shape,
                        complex)

    def dot_e(vec):
        return sum(times_polynomial(e[m], vec[m]) for m in range(d))

    def times_a(vec):
        return rfftn(grid, _matvec(a_stack, vec))

    phi = [zeros(0)]
    phi[0][mean] = grid.n ** d          # phi_0 = 1
    phi_prev = np.ones((1,) + grid.shape)  # samples of phi_{j-1}
    s = [zeros(0) if d == 2 else None]
    chi = [zeros(1), zeros(2)]
    q = [None]
    lambdas = []
    cg_iterations, cg_residual, cg_coarse_iterations = [], [], []

    for j in range(1, ell + 1):
        rest = ik * chi[j - 1]
        if j >= 2:
            # chi_j reads lambda_{j-2} .. lambda_0 only
            src = dot_e(rest)
            for p in range(1, j):
                src += times_polynomial(lambdas[j - 1 - p], phi[p])
            chi.append(src * _inverse_laplacian(grid))
        if d == 2:
            # rest = grad chi - sigma e, for sigma = s [[0, 1], [-1, 0]]
            rest[0] -= times_polynomial(e[1], s[j - 1])
            rest[1] += times_polynomial(e[0], s[j - 1])
        a_e_phi = times_a(np.stack([times_polynomial(e[m], phi_prev)
                                    for m in range(d)]))
        try:
            phi_j, its, res, coarse = _pcg_div_a_grad(
                a, sum(ik[m] * (a_e_phi[m] + rest[m]) for m in range(d)))
        except ConvergenceError as err:
            err.args = (f"corrector solve failed at level {j}, coefficient "
                        f"{err.column}: {err}",)
            raise
        phi.append(phi_j)
        cg_iterations.append(its)
        cg_residual.append(res)
        cg_coarse_iterations.append(coarse)

        q_j = times_a(irfftn(grid, ik * phi_j))
        q_j += a_e_phi
        del a_e_phi
        lambdas.append(dot_e(q_j[mean].real / grid.n ** d))
        q_j[mean] = 0.0
        q_j += rest
        q.append(q_j)
        # in 1D sigma_j vanishes (1x1 skew), and q_j up to the CG residual
        s.append(None if d == 1 else
                 (ik[0] * q_j[1] - ik[1] * q_j[0]) * _inverse_laplacian(grid))
        if j < ell:
            phi_prev = irfftn(grid, phi_j)

    return TensorizedCorrectors(
        a=a, order=ell, phi=Samples(grid, phi), sigma12=Samples(grid, s),
        chi=Samples(grid, chi), q=Samples(grid, q), lambdas=lambdas,
        cg_iterations=cg_iterations, cg_residual=cg_residual,
        cg_coarse_iterations=cg_coarse_iterations)


def _contract(t: TensorizedCorrectors, e: np.ndarray,
              coords) -> CorrectorHierarchy:
    """The hierarchy in the unit direction e from the spectra of ``t``, each
    evaluated at ``coords``, the values of t's direction variables at e."""
    grid = t.grid
    d = grid.dim

    def value(stack, degree):
        return evaluate_monomials(stack, degree, coords)

    def skew(spec):
        sig = np.zeros((d, d) + grid.shape)
        if spec is not None:
            sig[0, 1] = irfftn(grid, spec)
            sig[1, 0] = -sig[0, 1]
        return sig

    return CorrectorHierarchy(
        a=t.a, direction=e, order=t.order,
        phi=Samples(grid, [value(p, j) for j, p in enumerate(t.phi.spectra)]),
        sigma=Samples(grid, [None if s is None else value(s, j)
                             for j, s in enumerate(t.sigma12.spectra)], skew),
        chi=Samples(grid, [value(c, j + 1) for j, c in enumerate(t.chi.spectra)]),
        q=Samples(grid, [None] + [np.stack([value(qm, j) for qm in t.q.spectra[j]])
                                  for j in range(1, t.order + 1)]),
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
    """Structural residuals of the hierarchy (all should be tiny), read from
    its spectra: means from the zero mode, L2 norms by Parseval.

    Keys: mean_phi, mean_sigma, mean_chi, mean_q, div_q, flux_exactness,
    q_nyquist, skew_gap, lambda0.  Residuals are measured against the size
    of the flux constituents at each level (the flux itself can vanish
    identically, e.g. at even 1D levels).  In 1D flux_exactness reports
    |q_j| itself, which must vanish since the flux potential is identically
    zero there, and q_nyquist is 0.  In 2D flux_exactness is the gap
    |div sigma_j - q_j| / |q_j| off the Nyquist lines, where div sigma_j can
    reproduce q_j; the odd derivatives zero the Nyquist lines, so what q_j
    carries there is reported on its own as q_nyquist, the share of |q_j|
    the grid does not resolve.  skew_gap is 0: sigma_j is held skew.
    """
    grid = h.grid
    d = grid.dim
    ik = _half_gradient_multiplier(grid)
    ae = _matvec(h.a.values, h.direction.reshape((d,) + (1,) * d))
    phi, s, chi, q = (h.phi.spectra, h.sigma.spectra, h.chi.spectra,
                      h.q.spectra)

    def mean(spec):
        return float(np.max(np.abs(spec[(...,) + (0,) * d]))) / grid.n ** d

    def norm(spec):
        return l2_norm_hat(grid, spec)

    out = dict.fromkeys(("mean_phi", "mean_sigma", "mean_chi", "mean_q", "div_q",
                         "flux_exactness", "q_nyquist", "skew_gap"), 0.0)
    out["lambda0"] = float(h.lambdas[0])

    def keep(key, value):
        out[key] = max(out[key], value)

    for j in range(1, h.order + 1):
        keep("mean_phi", mean(phi[j]))
        keep("mean_sigma", 0.0 if d == 1 else mean(s[j]))
        keep("mean_chi", mean(chi[j]))
        keep("mean_q", mean(q[j]))
        scale = max(l2_norm(grid, _matvec(h.a.values, irfftn(grid, ik * phi[j]))),
                    l2_norm(grid, irfftn(grid, phi[j - 1]) * ae),
                    norm(ik * chi[j - 1]), out["lambda0"])
        keep("div_q", norm(np.sum(ik * q[j], axis=0)) / scale)
        q_scale = norm(q[j])
        if d == 1:
            keep("flux_exactness", q_scale / scale)
        elif q_scale > 1e-12 * scale:
            nyquist = _nyquist_lines(grid)
            # div sigma_j - q_j, row m of div sigma being sum_n d_n sigma_mn
            gap = np.stack([ik[1] * s[j] - q[j][0], -ik[0] * s[j] - q[j][1]])
            keep("flux_exactness", norm(gap * ~nyquist) / q_scale)
            keep("q_nyquist", norm(q[j] * nyquist) / q_scale)
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
    * lambda4_*:       order-4 coefficient as its mixed quadratic
                       reformulation, and its gap to the definition (needs
                       order >= 5)
    * pair_identity:   {(j, l): residual} of the two-level summation identity
    * step_identity:   {j: residual} of its diagonal l = j + 1 case
    """

    lambda0: float
    odd_lambda: dict
    lambda2_def: float | None
    lambda2_quadratic: float | None
    lambda2_gap: float | None
    lambda4_reformulated: float | None
    lambda4_gap: float | None
    pair_identity: dict = dc_field(default_factory=dict)
    step_identity: dict = dc_field(default_factory=dict)


def verify_corrector_identities(h: CorrectorHierarchy) -> IdentityReport:
    """Check the algebraic structure of the hierarchy on the grid.

    All identities are consequences of the corrector equations, discrete
    integration by parts (exact for trigonometric collocation), and the
    skew-symmetry of the flux potentials, so their residuals measure only
    the iterative solver tolerance.  They are means of products, taken on
    samples.
    """
    grid = h.grid
    ell = h.order
    a_values = h.a.values
    e = h.direction
    eae = np.einsum("m,mn...,n->...", e, a_values, e)
    lam = h.lambdas
    lam0 = float(lam[0])

    phi = list(h.phi)
    ik = _half_gradient_multiplier(grid)
    grads = [irfftn(grid, ik * spec) for spec in h.phi.spectra]
    agrads = [_matvec(a_values, g) for g in grads]

    def m(x):
        return float(np.mean(x))

    def dirichlet(i, j):
        return m(np.einsum("m...,m...->...", grads[i], agrads[j]))

    report_pairs = {}
    for j in range(1, ell):  # needs phi_{j+1}
        for l in range(j + 1, ell + 1):  # needs phi_l
            terms = [dirichlet(j, l), -m(phi[j - 1] * phi[l - 1] * eae),
                     dirichlet(j + 1, l - 1), -m(phi[j] * phi[l - 2] * eae)]
            side = terms[0] + terms[1] + terms[2] + terms[3]
            corr = 0.0
            for mm in range(1, j):
                corr += lam[j - 1 - mm] * m(phi[l - 1] * phi[mm])
            for mm in range(1, l - 1):
                corr += lam[l - 2 - mm] * m(phi[mm] * phi[j])
            scale = max([abs(t) for t in terms] + [abs(corr), lam0])
            report_pairs[(j, l)] = abs(side + corr) / scale

    report_steps = {}
    for j in range(1, ell):
        lhs = dirichlet(j, j + 1) - m(phi[j - 1] * phi[j] * eae)
        rhs = 0.0
        for mm in range(1, j):
            rhs -= lam[j - 1 - mm] * m(phi[mm] * phi[j])
        scale = max(abs(dirichlet(j, j + 1)), abs(rhs), lam0)
        report_steps[j] = abs(lhs - rhs) / scale

    odd = {j: abs(float(lam[j])) / lam0 for j in range(1, ell, 2)}

    lambda2_def = lambda2_quad = lambda2_gap = None
    if ell >= 3:
        lambda2_def = float(lam[2])
        gw = gradient_values(grid, phi[2] - 0.5 * phi[1] ** 2)
        lambda2_quad = m(np.einsum("m...,m...->...", gw, _matvec(a_values, gw)))
        denom = max(abs(lambda2_def), abs(lambda2_quad), 1e-14 * lam0)
        lambda2_gap = abs(lambda2_def - lambda2_quad) / denom

    lambda4_ref = lambda4_gap = None
    if ell >= 5:
        lambda4_def = float(lam[4])
        lambda4_ref = m(-np.einsum("m...,m...->...", grads[3], agrads[3])
                        + phi[2] ** 2 * eae - lam0 * phi[2] ** 2
                        + float(lam[2]) * phi[1] ** 2)
        denom = max(abs(lambda4_def), abs(lambda4_ref), 1e-14 * lam0)
        lambda4_gap = abs(lambda4_def - lambda4_ref) / denom

    return IdentityReport(lambda0=lam0, odd_lambda=odd,
                          lambda2_def=lambda2_def, lambda2_quadratic=lambda2_quad,
                          lambda2_gap=lambda2_gap,
                          lambda4_reformulated=lambda4_ref, lambda4_gap=lambda4_gap,
                          pair_identity=report_pairs, step_identity=report_steps)


# ---------------------------------------------------------------------------
# direction sampling and the effective tensors
# ---------------------------------------------------------------------------

def default_directions(dim: int, ell: int) -> np.ndarray:
    """Direction samples: 2*ell + 4 equispaced half-circle angles in 2D."""
    return half_circle_directions(dim, 2 * ell + 4)


def check_directions(dim: int, ell: int, count: int) -> None:
    """Reject fewer directions than the order-ell fit needs: in 2D a
    degree-(ell + 1) polynomial that vanishes at ell + 2 distinct
    half-circle directions vanishes identically; 1D has one direction."""
    needed = ell + 2 if dim == 2 else 1
    if count < needed:
        raise ConfigurationError(
            f"need at least {needed} directions for order {ell}")


# the largest odd-order tensor magnitude, relative to lambda_0, read as zero
FIT_TOL = 1e-6


def reconstruct_dispersion(a: CoefficientField, ell: int, directions=None,
                           kmax_cap: float = 1.0, tensors=None):
    """The homogenized tensors of orders 0..ell-1 as direction polynomials.

    lambda_j is a homogeneous polynomial of degree j + 2 in e, and the
    monomial build (``tensors``, built when not given) holds its
    coefficients exactly.  The sampled directions are evaluation points:
    odd orders (zero for symmetric coefficients) must vanish on them to
    ``FIT_TOL`` lambda_0 and are stored as zero, so there must be enough
    of them (``check_directions``).  Returns a dispersion model carrying
    the polynomials, the odd-order magnitudes as ``fit_residuals`` (0 at
    even orders), and the positivity radius k_max.
    """
    dim = a.grid.dim
    if directions is None:
        directions = default_directions(dim, ell)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    check_directions(dim, ell, directions.shape[0])
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
        if mag > FIT_TOL * lam0:
            raise ReconstructionError(
                f"odd-order coefficient {j} has magnitude {mag:.3e}, "
                f"exceeds {FIT_TOL:g} * lambda_0")
        polys.append(np.zeros_like(tensors.lambdas[j]))
        residuals.append(mag / lam0)

    return DispersionModel(
        dim=dim, ell=ell, polys=polys, directions=directions,
        kmax_cap=float(kmax_cap), fit_residuals=np.asarray(residuals))


def lambda_table_rows(model) -> list:
    """CSV-ready rows (order, coefficient...) for a dispersion model."""
    rows = [("order", "degree", "monomial_coefficients")]
    for j, coeffs in enumerate(model.polys):
        rows.append((j, j + 2, " ".join(format(c, ".17g")
                                        for c in np.atleast_1d(coeffs))))
    return rows
