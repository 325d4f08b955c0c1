"""Closed-form 1D reference pipeline.

In one dimension the higher-order flux is divergence-free and zero-mean,
hence identically zero, so the whole corrector recursion collapses to
successive antiderivatives of 1/a.  This module carries that out in exact
piecewise-polynomial arithmetic (per-segment Legendre bases), giving a
quadrature oracle that is several orders more accurate than the spectral
pipeline it is used to test.

It also provides exact periodic elliptic solves on a 1D box for
piecewise-represented coefficients, used by the convergence-rate studies
where spectral accuracy would be Gibbs-limited.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as leg

from .torus import (ConfigurationError, SolvabilityError, _solvability_tolerance,
                    check_coefficient_spec, evaluate_coefficient, l2_norm)


@functools.cache
def _gauss(n: int):
    """Gauss-Legendre nodes t, Vandermonde V[i, k] = P_k(t_i) and projection
    Q[i, k] = (k + 1/2) w_i P_k(t_i) for n nodes: ``values @ Q`` are the
    Legendre coefficients of the degree < n interpolant of ``values``."""
    t, w = leg.leggauss(n)
    vander = leg.legvander(t, n - 1)
    proj = w[:, None] * vander * (np.arange(n) + 0.5)
    for arr in (t, vander, proj):
        arr.setflags(write=False)
    return t, vander, proj


@functools.cache
def _calculus(width: int):
    """Legendre calculus on rows of ``width`` coefficients as matrices:
    ``coeffs @ der`` is ``legder(coeffs, axis=1)`` and ``coeffs @ anti`` is
    ``legint(coeffs, axis=1)``, each built by numpy from the identity."""
    eye = np.eye(width)
    der, anti = leg.legder(eye, axis=1), leg.legint(eye, axis=1)
    for arr in (der, anti):
        arr.setflags(write=False)
    return der, anti


@functools.cache
def _sampler(samples: int, width: int) -> np.ndarray:
    """``coeffs @ _sampler(samples, width)`` are the values of rows of
    ``width`` coefficients at the ``samples`` Gauss nodes."""
    vals = leg.legvander(_gauss(samples)[0], width - 1).T
    vals.setflags(write=False)
    return vals


def _nodes_on(breaks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Nodes t mapped onto every segment: shape (segments, len(t))."""
    a, b = breaks[:-1, None], breaks[1:, None]
    return 0.5 * (a + b) + 0.5 * (b - a) * t


class PiecewisePoly:
    """Piecewise polynomial on [breaks[0], breaks[-1]) in Legendre bases.

    Row i of ``coeffs`` (shape (segments, ncoef), zero-padded to a common
    width) holds the Legendre coefficients of segment [breaks[i],
    breaks[i+1]) in the affine coordinate t in [-1, 1].  All arithmetic
    (sums, products, antiderivatives, means) is exact for polynomial
    operands and acts on every segment at once.  The two operands of a sum
    or product share one partition (the oracle builds every field of a cell
    or a box on the same breaks); operands on different partitions are a
    ``ConfigurationError``.
    """

    def __init__(self, breaks, coeffs):
        self.breaks = np.asarray(breaks, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 2 or len(self.coeffs) != len(self.breaks) - 1:
            raise ConfigurationError("need one coefficient row per segment")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, breaks=(0.0, 1.0)) -> "PiecewisePoly":
        breaks = np.asarray(breaks, dtype=float)
        return cls(breaks, np.full((len(breaks) - 1, 1), float(value)))

    @classmethod
    def from_callable(cls, func, breaks, degree: int = 12) -> "PiecewisePoly":
        """Per-segment Legendre interpolation of ``func`` at Gauss nodes;
        ``func`` is called once, on the (segments, degree + 1) node array."""
        breaks = np.asarray(breaks, dtype=float)
        t, _, proj = _gauss(degree + 1)
        x = _nodes_on(breaks, t)
        return cls(breaks, np.broadcast_to(func(x), x.shape) @ proj)

    # -- helpers -----------------------------------------------------------

    @property
    def domain_length(self) -> float:
        return float(self.breaks[-1] - self.breaks[0])

    def _aligned(self, other: "PiecewisePoly"):
        """(self, other, their breaks), which must be the same partition."""
        if self.breaks is other.breaks or np.array_equal(self.breaks, other.breaks):
            return self, other, self.breaks
        raise ConfigurationError("piecewise operands on different partitions")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if np.isscalar(other):
            coeffs = self.coeffs.copy()
            coeffs[:, 0] += other
            return PiecewisePoly(self.breaks, coeffs)
        p, q, breaks = self._aligned(other)
        wp, wq = p.coeffs.shape[1], q.coeffs.shape[1]
        coeffs = np.zeros((len(breaks) - 1, max(wp, wq)))
        coeffs[:, :wp] += p.coeffs
        coeffs[:, :wq] += q.coeffs
        return PiecewisePoly(breaks, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return PiecewisePoly(self.breaks, -self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return PiecewisePoly(self.breaks, self.coeffs * other)
        p, q, breaks = self._aligned(other)
        wp, wq = p.coeffs.shape[1], q.coeffs.shape[1]
        # Gauss quadrature with wp + wq - 1 nodes is exact for the product
        _, vander, proj = _gauss(wp + wq - 1)
        vals = (p.coeffs @ vander[:, :wp].T) * (q.coeffs @ vander[:, :wq].T)
        return PiecewisePoly(breaks, vals @ proj)

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "PiecewisePoly":
        der, _ = _calculus(self.coeffs.shape[1])
        scale = 2.0 / np.diff(self.breaks)
        return PiecewisePoly(self.breaks, (self.coeffs @ der) * scale[:, None])

    def antiderivative(self) -> "PiecewisePoly":
        """Continuous antiderivative vanishing at the left endpoint."""
        _, anti = _calculus(self.coeffs.shape[1])
        ci = (self.coeffs @ anti) * (0.5 * np.diff(self.breaks))[:, None]
        left = ci @ (-1.0) ** np.arange(ci.shape[1])     # P_k(-1) = (-1)^k
        rise = ci.sum(axis=1) - left                       # P_k(1) = 1
        ci[:, 0] += np.concatenate([[0.0], np.cumsum(rise[:-1])]) - left
        return PiecewisePoly(self.breaks, ci)

    def integral(self) -> float:
        return float(self.coeffs[:, 0] @ np.diff(self.breaks))

    def mean(self) -> float:
        return self.integral() / self.domain_length

    def zero_mean(self) -> "PiecewisePoly":
        return self - self.mean()

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1,
                      0, len(self.coeffs) - 1)
        a, b = self.breaks[idx], self.breaks[idx + 1]
        out = leg.legval((2.0 * x - a - b) / (b - a),
                         np.moveaxis(self.coeffs[idx], -1, 0), tensor=False)
        return out[()] if x.ndim == 0 else out

    def linf(self) -> float:
        """Largest |value| at 16 Gauss nodes per segment."""
        vals = self.coeffs @ _sampler(16, self.coeffs.shape[1])
        return float(np.max(np.abs(vals)))

    def l2_mean(self) -> float:
        """sqrt of the mean of the square over the domain."""
        return float(np.sqrt(max((self * self).mean(), 0.0)))


def tile_to_box(pp: PiecewisePoly, eps: float, length: float) -> PiecewisePoly:
    """Periodic rescaling x -> pp(x / eps) as a piecewise polynomial on [0, length).

    Requires length / (eps * cell period) to be an integer, so the rescaled
    cell tiles the box exactly.  Legendre coefficients are reused verbatim:
    the affine segment coordinate is invariant under the rescaling.
    """
    cell = pp.domain_length
    m = length / (eps * cell)
    m_int = int(round(m))
    if abs(m - m_int) > 1e-9 or m_int < 1:
        raise ConfigurationError(
            f"box of length {length} does not hold an integer number of "
            f"rescaled cells (eps={eps})")
    cells = np.arange(m_int)[:, None] * cell + (pp.breaks[1:] - pp.breaks[0])
    breaks = np.concatenate([[0.0], (cells * eps).ravel()])
    breaks[-1] = length
    return PiecewisePoly(breaks, np.tile(pp.coeffs, (m_int, 1)))


# ---------------------------------------------------------------------------
# coefficient profiles
# ---------------------------------------------------------------------------

@dataclass
class Profile1D:
    """Scalar coefficient a(x) on the unit cell [0, 1).

    Either piecewise-constant (breakpoints + per-segment values, handled
    exactly) or smooth (callable, represented by composite Gauss-Legendre
    interpolation on 64 equal segments of degree 12).
    """

    breakpoints: np.ndarray | None = None
    values: np.ndarray | None = None
    func: object = None

    def __post_init__(self):
        if (self.func is None) == (self.values is None):
            raise ConfigurationError(
                "provide either piecewise (breakpoints, values) or a callable")
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=float)
            if self.breakpoints is None:
                raise ConfigurationError("piecewise profile needs breakpoints")
            self.breakpoints = np.asarray(self.breakpoints, dtype=float)
            if len(self.breakpoints) != len(self.values) + 1:
                raise ConfigurationError("need len(breakpoints) == len(values)+1")
            if np.any(self.values < 1.0 - 1e-12):
                raise ConfigurationError("profile must satisfy a(x) >= 1")

    def _on_cell(self, of) -> PiecewisePoly:
        """of(a) on the cell as a piecewise polynomial: exact for a
        piecewise-constant profile, else interpolated."""
        if self.values is not None:
            return PiecewisePoly(self.breakpoints, of(self.values)[:, None])
        return PiecewisePoly.from_callable(lambda x: of(self.func(x)),
                                           np.linspace(0.0, 1.0, 65))

    # a and 1/a on the cell, each built once per profile
    a_pp = functools.cached_property(lambda self: self._on_cell(lambda a: a))
    ainv_pp = functools.cached_property(lambda self: self._on_cell(lambda a: 1.0 / a))


def profile_from_spec(spec: dict) -> Profile1D:
    """1D profile of an analytic catalog entry on the unit cell: a spec of
    another ``period`` would pair the fine medium with the hierarchy of the
    wrong cell, so it is rejected."""
    fields = check_coefficient_spec(spec, 1)
    kind = spec["kind"]
    if kind == "raw":
        raise ConfigurationError(f"no 1D profile for coefficient kind {kind!r}")
    if "period" in fields and fields["period"] != 1.0:
        raise ConfigurationError("the 1D oracle needs coefficient period 1")
    if kind == "trig_checkerboard":     # the catalog formula itself
        return Profile1D(func=lambda x: evaluate_coefficient(
            spec, np.asarray(x)[None], 1)[0, 0])
    if kind == "laminate":
        return Profile1D(breakpoints=[0.0, fields["volume_fraction"], 1.0],
                         values=fields["values"])
    # constant and diagonal: one value on the whole cell
    return Profile1D(breakpoints=[0.0, 1.0],
                     values=evaluate_coefficient(spec, np.zeros((1, 1)), 1)[0, 0])


# ---------------------------------------------------------------------------
# corrector recursion by successive integration
# ---------------------------------------------------------------------------

@dataclass
class Hierarchy1D:
    """1D corrector hierarchy: phi_0..phi_ell, chi_0..chi_ell, lambda_0..lambda_{ell-1}.

    The flux corrector vanishes identically in 1D (1x1 skew-symmetry), and
    the flux itself is zero pointwise; ``flux_residuals`` records how well
    the construction achieves that.
    """

    order: int
    phi: list
    chi: list
    lambdas: np.ndarray
    flux_residuals: np.ndarray


def check_order(ell: int) -> None:
    """Reject a hierarchy order the oracle does not build."""
    if ell < 1:
        raise ConfigurationError("order must be >= 1")
    if ell > 6:
        raise ConfigurationError("1D oracle supports orders up to 6")


def correctors_1d(profile: Profile1D, ell: int) -> Hierarchy1D:
    """Build the corrector hierarchy on [0, 1) in direction e = +1.

    With the flux corrector absent, the flux equation integrates pointwise:
    a (phi_j' + phi_{j-1}) = atilde_{j-1} - chi_{j-1}', and atilde_{j-1} is
    fixed by periodicity of phi_j.  chi_j then follows by double integration.
    """
    check_order(ell)
    ainv = profile.ainv_pp
    a_pp = profile.a_pp
    inv_mean = ainv.mean()
    one = PiecewisePoly.constant(1.0, ainv.breaks)
    zero = PiecewisePoly.constant(0.0, ainv.breaks)

    phi = [one]
    chi = [zero, zero]
    lambdas = np.zeros(ell)
    flux_res = np.zeros(ell)

    for j in range(1, ell + 1):
        chi_prev_prime = chi[j - 1].derivative()
        atilde = ((chi_prev_prime * ainv).mean() + phi[j - 1].mean()) / inv_mean
        phi_prime = (ainv * (atilde - chi_prev_prime)) - phi[j - 1]
        phi_j = phi_prime.antiderivative().zero_mean()
        phi.append(phi_j)
        lambdas[j - 1] = atilde

        flux = a_pp * (phi_prime + phi[j - 1]) - atilde + chi_prev_prime
        flux_res[j - 1] = flux.l2_mean()

        if j >= 2:
            source = chi[j - 1].derivative()
            for p in range(1, j):
                source = source + lambdas[j - 1 - p] * phi[p]
            neg_chi_prime = source.antiderivative()
            chi_j_prime = neg_chi_prime.mean() - neg_chi_prime
            chi.append(chi_j_prime.antiderivative().zero_mean())

    return Hierarchy1D(order=ell, phi=phi, chi=chi[: ell + 1],
                       lambdas=lambdas, flux_residuals=flux_res)


def compare_with_spectral(profile: Profile1D, hierarchy) -> dict:
    """Per-level gaps between the oracle and a spectral hierarchy.

    The oracle fields are sampled at the spectral grid nodes; gaps are
    discrete L2 norms.  ``hierarchy`` is a spectral CorrectorHierarchy built
    on the same profile with direction e = +1.
    """
    grid = hierarchy.grid
    if grid.dim != 1:
        raise ConfigurationError("oracle comparison is 1D only")
    x = np.arange(grid.n) * grid.h
    oracle = correctors_1d(profile, hierarchy.order)
    report = {"lambda_gap": {}, "phi_gap": {}, "chi_gap": {}}
    for j in range(hierarchy.order):
        denom = max(abs(oracle.lambdas[j]), abs(oracle.lambdas[0]))
        report["lambda_gap"][j] = abs(
            float(hierarchy.lambdas[j]) - oracle.lambdas[j]) / denom
    for j in range(hierarchy.order + 1):
        ref = oracle.phi[j](x)
        report["phi_gap"][j] = l2_norm(grid, hierarchy.phi[j] - ref)
        ref = oracle.chi[j](x)
        report["chi_gap"][j] = l2_norm(grid, hierarchy.chi[j] - ref)
    return report


# ---------------------------------------------------------------------------
# exact periodic elliptic solves on a 1D box
# ---------------------------------------------------------------------------

def solve_elliptic_box(ainv_box: PiecewisePoly, rhs: PiecewisePoly) -> PiecewisePoly:
    """Solve -(a u')' = rhs exactly on the periodic box that ``ainv_box``,
    the tiled 1/a (``tile_to_box(profile.ainv_pp, eps, length)``), covers;
    zero-mean u.

    Integrating once gives a u' = c - R with R the antiderivative of rhs;
    periodicity of u fixes c, and zero-mean rhs makes u' periodic.
    """
    mean_rhs = rhs.mean()
    if abs(mean_rhs) > _solvability_tolerance(rhs.linf()):
        raise SolvabilityError(f"rhs has mean {mean_rhs:.3e}; needs zero mean")
    R = rhs.antiderivative()
    c = (R * ainv_box).mean() / ainv_box.mean()
    u_prime = ainv_box * (c - R)
    return u_prime.antiderivative().zero_mean()
