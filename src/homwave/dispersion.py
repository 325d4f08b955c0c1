"""Truncated Bloch-wave dispersion: eigenvalues, waves, and eigendefects.

The dispersion model collects the effective tensors of each order as
homogeneous direction polynomials; the truncated Bloch eigenvalue is the
even-order alternating sum of those polynomials, real by symmetry of the
coefficient field.  Along a unit direction e it is
kappa^2 sum_i c_i u^i with u = kappa^2 and c_i = (-1)^i P_2i(e), so the
bounds on it are roots of one polynomial in u.  It is at least |k|^2 / 4
on a ball |k| <= k_max, found when the model is built; the model's order
``ell`` and radius ``kmax`` fix every symbol and the support of the
low-pass filter ``cutoff(kmax, r)`` that every spectral propagator uses.
A symbol that is not positive where it must be raises ``PositivityError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyroots

from .torus import (ConfigurationError, _matvec, divergence_values,
                    gradient_values, l2_norm)


class PositivityError(RuntimeError):
    """Effective symbol is not positive at a retained mode."""


def _require_positive(sym: np.ndarray, k: np.ndarray) -> None:
    """Raise PositivityError unless the symbol is positive at every nonzero
    wavevector in ``k`` (shape (dim, ...), matching ``sym``)."""
    bad = (sym <= 0.0) & np.any(k != 0.0, axis=0)
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), bad.shape)
        raise PositivityError(
            f"effective symbol nonpositive at mode k={[float(c[idx]) for c in k]}: "
            f"{float(sym[idx]):.3e}")


@dataclass
class DispersionModel:
    """Effective direction polynomials P_j of degree j + 2, j = 0..ell-1.

    ``polys[j]`` holds monomial coefficients (basis e1^(deg-r) e2^r; a single
    coefficient in 1D); odd orders are identically zero.  ``Gamma_bar`` is
    the largest coefficient magnitude over sampled directions, ``kmax`` the
    validated positivity radius (<= kmax_cap), computed on construction.
    """

    dim: int
    ell: int
    polys: list
    directions: np.ndarray
    Gamma_bar: float
    kmax_cap: float = 1.0
    fit_residuals: np.ndarray | None = None
    kmax: float = field(init=False)

    def __post_init__(self):
        self.kmax = compute_kmax(self, self.kmax_cap)
        if self.kmax <= 0:
            raise ConfigurationError("kmax must be positive")

    def poly_value(self, j: int, k) -> np.ndarray:
        """P_j evaluated at (stacked) wavevectors k of shape (dim, ...)."""
        from .correctors import evaluate_monomials
        return evaluate_monomials(np.atleast_1d(self.polys[j]), j + 2,
                                  np.asarray(k, dtype=float))

    @classmethod
    def from_oracle(cls, oh, ell: int,
                    kmax_cap: float = 1.0) -> "DispersionModel":
        """1D model of order ``ell`` from an exact oracle hierarchy ``oh``
        (``oracle1d.Hierarchy1D`` of order >= ell), its positivity radius
        capped at ``kmax_cap``."""
        lams = oh.lambdas[:ell]
        return cls(dim=1, ell=ell, polys=[np.array([lam]) for lam in lams],
                   directions=np.array([[1.0]]),
                   Gamma_bar=float(np.max(np.abs(lams))), kmax_cap=kmax_cap)


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


def _radial_coefficients(model: DispersionModel) -> np.ndarray:
    """Rows c, one per model direction e, with eigenvalue(kappa e) =
    kappa^2 sum_i c[i] kappa^(2i): c[i] = (-1)^i P_2i(e), i < (ell + 1) // 2."""
    e = np.asarray(model.directions, dtype=float).T
    return np.stack([(-1.0) ** i * model.poly_value(2 * i, e)
                     for i in range((model.ell + 1) // 2)], axis=1)


def _positive_real_roots(coeffs: np.ndarray) -> np.ndarray:
    """The positive roots of a polynomial (coefficients low to high) that
    numpy returns as real, with an imaginary part of exactly zero."""
    roots = polyroots(coeffs)
    return roots.real[(roots.imag == 0.0) & (roots.real > 0.0)]


def compute_kmax(model: DispersionModel, cap: float) -> float:
    """Largest radius (up to cap) with eigenvalue(k) >= |k|^2 / 4 throughout.

    Along each direction it is the square root of the smallest positive root
    of sum_i c_i u^i - 1/4 (``_radial_coefficients``), ``cap`` when there is
    none, and 0 unless c_0 > 1/4; the result is the least over directions.
    """
    if cap <= 0:
        raise ConfigurationError("kmax cap must be positive")
    best = cap
    for c in _radial_coefficients(model):
        if c[0] <= 0.25:
            return 0.0
        roots = _positive_real_roots(np.r_[c[0] - 0.25, c[1:]])
        if roots.size:
            best = min(best, float(np.sqrt(roots.min())))
    return float(best)


def cutoff(kmax: float, r) -> np.ndarray:
    """Smooth low-pass filter at radii r (vectorized), values in [0, 1]:
    1 on [0, kmax/2], 0 on [kmax, inf).

    The transition uses the standard smooth-step built from exp(-1/t),
    infinitely differentiable and monotone.
    """
    r = np.asarray(r, dtype=float)
    t = (kmax - r) / (0.5 * kmax)

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


def dispersion_Lambda(model: DispersionModel, k) -> np.ndarray:
    """sqrt of the truncated Bloch eigenvalue; even in k.

    Only meaningful inside the filter support, where the eigenvalue is at
    least |k|^2 / 4; one that is not positive at a nonzero k raises
    ``PositivityError``.
    """
    val = eigenvalue(model, k)
    _require_positive(np.asarray(val), np.asarray(k, dtype=float))
    return np.sqrt(val)


# ---------------------------------------------------------------------------
# Bloch waves and eigendefects on the unit cell
# ---------------------------------------------------------------------------

@dataclass
class TaylorBlochMode:
    """Truncated Bloch wave data at wavevector kappa * e on the unit cell;
    ``wave`` and ``defect`` are complex samples on the cell grid."""

    kappa: float
    direction: np.ndarray
    order: int
    wave: np.ndarray | None = None
    eigenvalue: float | None = None
    defect: np.ndarray | None = None


def taylor_bloch_wave(h, kappa: float) -> TaylorBlochMode:
    """Assemble the truncated wave sum_j (i kappa)^j phi_j as a complex field."""
    grid = h.grid
    psi = np.zeros(grid.shape, dtype=complex)
    for j in range(h.order + 1):
        psi += (1j * kappa) ** j * h.phi[j]
    lam = kappa ** 2 * sum(
        (1j * kappa) ** j * h.lambdas[j] for j in range(0, h.order, 2))
    return TaylorBlochMode(kappa=kappa, direction=h.direction, order=h.order,
                           wave=psi, eigenvalue=float(lam.real))


def eigendefect(h, kappa: float) -> TaylorBlochMode:
    """Assemble the order-(ell+1) defect field of the truncated eigenrelation."""
    grid = h.grid
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
                           defect=defect)


def _by_parts(op, grid, values: np.ndarray, *args) -> np.ndarray:
    """A real spectral operator ``op(grid, values, *args)`` applied to a
    complex field: to its real part and to its imaginary part."""
    return op(grid, values.real, *args) + 1j * op(grid, values.imag, *args)


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
    psi = mode.wave
    a_values = h.a.values
    defect = eigendefect(h, kappa).defect
    if refine > 1:
        fine = TorusGrid(grid.dim, grid.n * refine, grid.period)
        if h.a.spec is not None and h.a.spec.get("kind") != "raw":
            a_values = coefficient_from_spec(h.a.spec, fine).values
        else:
            a_values = prolong_values(grid, a_values, refine)
        psi = _by_parts(prolong_values, grid, psi, refine)
        defect = _by_parts(prolong_values, grid, defect, refine)
        grid = fine
    grad_psi = _by_parts(gradient_values, grid, psi)
    a_grad = _matvec(a_values, grad_psi)
    ae = np.einsum("mn...,n->m...", a_values, e)
    lhs = (-_by_parts(divergence_values, grid, a_grad)
           - 1j * kappa * _by_parts(divergence_values, grid, ae * psi)
           - 1j * kappa * np.einsum("m,m...->...", e, a_grad)
           + kappa ** 2 * np.einsum("m,m...->...", e, ae) * psi)
    rhs = mode.eigenvalue * psi - (1j * kappa) ** (h.order + 1) * defect
    num = l2_norm(grid, lhs - rhs)
    den = l2_norm(grid, rhs)
    if den == 0.0:
        return num
    return num / den
