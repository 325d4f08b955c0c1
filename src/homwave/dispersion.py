"""Truncated Bloch-wave dispersion: eigenvalues, waves, and eigendefects.

The dispersion model collects the effective tensors of each order as
homogeneous direction polynomials; the truncated Bloch eigenvalue is the
even-order alternating sum of those polynomials, real by symmetry of the
coefficient field.  It is positive on a ball |k| <= k_max, which fixes the
support of the low-pass filter every spectral propagator uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import (
    ConfigurationError,
    Field,
    divergence_values,
    gradient_values,
)


class InternalConsistencyError(RuntimeError):
    """Dispersion evaluated where its positivity guarantee does not hold."""


@dataclass
class DispersionModel:
    """Effective direction polynomials P_j of degree j + 2, j = 0..ell-1.

    ``polys[j]`` holds monomial coefficients (basis e1^(deg-r) e2^r; a single
    coefficient in 1D); odd orders are identically zero.  ``Gamma_bar`` is
    the largest coefficient magnitude over sampled directions, ``kmax`` the
    validated positivity radius (<= kmax_cap).
    """

    dim: int
    ell: int
    polys: list
    directions: np.ndarray
    Gamma_bar: float
    kmax_cap: float = 1.0
    kmax: float | None = None
    fit_residuals: np.ndarray | None = None

    def poly_value(self, j: int, k) -> np.ndarray:
        """P_j evaluated at (stacked) wavevectors k of shape (dim, ...)."""
        from .correctors import evaluate_monomials
        return evaluate_monomials(np.atleast_1d(self.polys[j]), j + 2,
                                  np.asarray(k, dtype=float))

    @classmethod
    def from_oracle(cls, oh, ell: int) -> "DispersionModel":
        """1D model of order ``ell`` from an exact oracle hierarchy ``oh``
        (``oracle1d.Hierarchy1D`` of order >= ell), with kmax validated."""
        lams = oh.lambdas[:ell]
        model = cls(dim=1, ell=ell, polys=[np.array([lam]) for lam in lams],
                    directions=np.array([[1.0]]),
                    Gamma_bar=float(np.max(np.abs(lams))))
        model.kmax = compute_kmax(model, 1.0)
        return model


def eigenvalue(model: DispersionModel, k) -> np.ndarray:
    """Truncated Bloch eigenvalue at wavevector(s) k, real by construction.

    Equal to |k|^2 sum over even j <= ell-1 of (-1)^(j/2) |k|^j P_j(k/|k|),
    evaluated without normalizing k since P_j is homogeneous of degree j + 2.
    Odd orders vanish for symmetric coefficients and are excluded, so the
    value is exactly real; identical for truncation orders 2m+1 and 2m+2.
    ``k`` has shape (dim,) or (dim, ...); returns a scalar or matching array.
    """
    k = np.asarray(k, dtype=float)
    scalar = k.ndim == 1
    if scalar:
        k = k.reshape(model.dim, 1)
    out = np.zeros(k.shape[1:])
    for j in range(0, model.ell, 2):
        out = out + (-1.0) ** (j // 2) * model.poly_value(j, k)
    return float(out[0]) if scalar else out


def compute_kmax(model: DispersionModel, cap: float) -> float:
    """Largest radius (up to cap) with eigenvalue(k) >= |k|^2 / 4 throughout.

    Scans each sampled direction for the first crossing of the deficit
    polynomial and bisects it to 1e-10; the model's positivity at k = 0
    (P_0 >= 1) guarantees a positive radius.
    """
    if cap <= 0:
        raise ConfigurationError("kmax cap must be positive")
    best = cap
    for e in model.directions:
        def ratio(kappa, e=e):
            k = np.asarray(e, dtype=float).reshape(model.dim, 1) * kappa
            val = eigenvalue(model, k)
            return np.where(kappa > 0, val / np.maximum(kappa, 1e-300) ** 2,
                            model.poly_value(0, np.asarray(e).reshape(model.dim, 1)))

        kappas = np.linspace(1e-6, cap, 512)
        vals = ratio(kappas)
        below = np.nonzero(vals < 0.25)[0]
        if below.size == 0:
            continue
        hi_idx = below[0]
        lo = kappas[hi_idx - 1] if hi_idx > 0 else 0.0
        hi = kappas[hi_idx]
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if float(ratio(np.array([mid]))[0]) >= 0.25:
                lo = mid
            else:
                hi = mid
        best = min(best, lo)
    return float(best)


@dataclass
class CutoffSpec:
    """Smooth low-pass profile: 1 on [0, kmax/2], 0 on [kmax, inf)."""

    kmax: float
    ell: int

    def __post_init__(self):
        if self.kmax <= 0:
            raise ConfigurationError("kmax must be positive")


def cutoff(spec: CutoffSpec, r) -> np.ndarray:
    """Evaluate the filter at radii r (vectorized), values in [0, 1].

    The transition uses the standard smooth-step built from exp(-1/t),
    infinitely differentiable and monotone.
    """
    r = np.asarray(r, dtype=float)
    t = (spec.kmax - r) / (0.5 * spec.kmax)

    def bump(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    t_clipped = np.clip(t, 0.0, 1.0)
    num = bump(t_clipped)
    den = num + bump(1.0 - t_clipped)
    out = np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, num / np.where(den > 0, den, 1.0)))
    return out if out.ndim else float(out)


def make_cutoff(model: DispersionModel) -> CutoffSpec:
    if model.kmax is None:
        model.kmax = compute_kmax(model, model.kmax_cap)
    return CutoffSpec(kmax=model.kmax, ell=model.ell)


def dispersion_Lambda(model: DispersionModel, k) -> np.ndarray:
    """sqrt of the truncated Bloch eigenvalue; even in k.

    Only meaningful inside the filter support; a negative eigenvalue there
    signals an invalid positivity radius and raises.
    """
    val = eigenvalue(model, k)
    bad = np.atleast_1d(val) < -1e-13 * max(1.0, float(np.max(np.abs(val))))
    if np.any(bad):
        raise InternalConsistencyError(
            "negative truncated eigenvalue inside the admissible ball; "
            "k_max is inconsistent with the dispersion polynomials")
    return np.sqrt(np.maximum(val, 0.0))


# ---------------------------------------------------------------------------
# Bloch waves and eigendefects on the unit cell
# ---------------------------------------------------------------------------

@dataclass
class TaylorBlochMode:
    """Truncated Bloch wave data at wavevector kappa * e on the unit cell."""

    kappa: float
    direction: np.ndarray
    order: int
    wave: Field | None = None
    eigenvalue: float | None = None
    defect: Field | None = None


def taylor_bloch_wave(h, kappa: float) -> TaylorBlochMode:
    """Assemble the truncated wave sum_j (i kappa)^j phi_j as a complex field."""
    grid = h.grid
    psi = np.zeros(grid.shape, dtype=complex)
    for j in range(h.order + 1):
        psi += (1j * kappa) ** j * h.phi[j]
    lam = kappa ** 2 * sum(
        (1j * kappa) ** j * h.lambdas[j] for j in range(0, h.order, 2))
    return TaylorBlochMode(kappa=kappa, direction=h.direction, order=h.order,
                           wave=Field(grid, psi), eigenvalue=float(lam.real))


def eigendefect(h, kappa: float) -> TaylorBlochMode:
    """Assemble the order-(ell+1) defect field of the truncated eigenrelation."""
    grid = h.grid
    d = grid.dim
    ell = h.order
    e = h.direction
    ae = np.einsum("mn...,n->m...", h.a.values, e)
    eae = np.einsum("m,m...->...", e, ae)
    sig_e = np.einsum("mn...,n->m...", h.sigma[ell], e)
    vec = -sig_e + ae * h.phi[ell] + gradient_values(grid, h.chi[ell])
    defect = divergence_values(grid, vec).astype(complex)
    series = np.zeros(grid.shape, dtype=complex)
    for j in range(1, ell + 1):
        for l in range(ell - j, ell):
            series += (1j * kappa) ** (j + l - ell) * h.lambdas[l] * h.phi[j]
    defect = defect + 1j * kappa * (eae * h.phi[ell] - series)
    return TaylorBlochMode(kappa=kappa, direction=e, order=ell,
                           defect=Field(grid, defect))


def eigendefect_residual(h, kappa: float, refine: int = 1) -> float:
    """Relative residual of the approximate eigenrelation on the cell grid.

    Applies -(grad + i kappa e) . a (grad + i kappa e) to the truncated wave
    and compares with eigenvalue * wave - (i kappa)^(ell+1) * defect.

    With ``refine`` > 1 the identity is assembled on a refined grid with a
    freshly sampled coefficient (falling back to trigonometric prolongation
    of a raw coefficient).  The on-grid assembly closes to the elliptic
    solver tolerance by construction; the refined assembly instead measures
    how well the coarse-built mode satisfies the continuum eigenrelation,
    which decays spectrally for smooth coefficients.
    """
    from .torus import TorusGrid, coefficient_from_spec, prolong_values

    grid = h.grid
    e = h.direction
    mode = taylor_bloch_wave(h, kappa)
    psi = mode.wave.values
    a_values = h.a.values
    defect = eigendefect(h, kappa).defect.values
    if refine > 1:
        fine = TorusGrid(grid.dim, grid.n * refine, grid.period)
        if h.a.spec is not None and h.a.spec.get("kind") != "raw":
            a_values = coefficient_from_spec(h.a.spec, fine).values
        else:
            a_values = prolong_values(grid, a_values, refine)
        psi = prolong_values(grid, psi, refine)
        defect = prolong_values(grid, defect, refine)
        grid = fine
    grad_psi = gradient_values(grid, psi)
    a_grad = np.einsum("mn...,n...->m...", a_values, grad_psi)
    ae = np.einsum("mn...,n->m...", a_values, e)
    lhs = (-divergence_values(grid, a_grad)
           - 1j * kappa * divergence_values(grid, ae * psi)
           - 1j * kappa * np.einsum("m,m...->...", e, a_grad)
           + kappa ** 2 * np.einsum("m,m...->...", e, ae) * psi)
    rhs = mode.eigenvalue * psi - (1j * kappa) ** (h.order + 1) * defect
    num = float(np.sqrt(np.mean(np.abs(lhs - rhs) ** 2)))
    den = float(np.sqrt(np.mean(np.abs(rhs) ** 2)))
    if den == 0.0:
        return num
    return num / den
