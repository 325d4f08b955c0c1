"""Grids and spectral calculus on the d-torus (d = 1 or 2).

Everything downstream (corrector hierarchies, Bloch dispersion, residual
checks, effective propagators) is built on trigonometric collocation:
derivatives are exact Fourier multipliers, so discrete integration by parts
holds to machine precision, which is what makes the algebraic corrector
identities verifiable on the grid.  One grid type, ``TorusGrid``, serves
the unit cell (period 1) and the box of side L (period L) that stands in
for free space.

There is one spectrum convention: every field is real and every transform
is the ``rfftn``/``irfftn`` pair of this module, so every Fourier
multiplier (derivatives, the Laplacian, the wavevectors behind the
effective symbols) lives on the half lattice whose last axis holds the
frequencies 0 .. n/2.  Every symbol used is even in k, so the half lattice
carries all of its values.  One mode row is a convention: in 2D, on the
first axis' Nyquist row k0 = -n/2, a symbol with a term odd in k0 and in k1
(k0 k1, from an off-diagonal effective tensor) is read at (-n/2, |k1|) for
both signs of k1, where the real part of a full-lattice product would
average the two.  Complex fields are split into real and imaginary parts
by the caller.

Variable-coefficient elliptic problems -div(a grad u) = f are solved
matrix-free by preconditioned conjugate gradients on the half spectrum
(``_pcg_div_a_grad``), every solve to the one relative residual ``CG_TOL``;
on a coefficient resolved on the half grid, from a coarse-grid start.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


# relative residual and iteration budget of every variable-coefficient CG
CG_TOL = 1e-10
CG_MAXITER = 10000


class ConfigurationError(ValueError):
    """Invalid grid, shape, or parameter combination."""


class SolvabilityError(ValueError):
    """Right-hand side incompatible with periodic solvability."""


class ConvergenceError(RuntimeError):
    """Iterative solver exhausted its budget."""

    def __init__(self, message, residual=None, iterations=None, column=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.column = column


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid on [0, period)^dim."""

    dim: int
    n: int
    period: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8 or self.n & (self.n - 1):
            raise ConfigurationError(
                f"points per axis must be a power of two >= 8, got {self.n}")
        if not self.period > 0:
            raise ConfigurationError("period must be positive")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def half_shape(self) -> tuple:
        """Shape of an ``rfftn`` half spectrum of one field on this grid."""
        return self.shape[:-1] + (self.n // 2 + 1,)

    @property
    def half_grid(self) -> TorusGrid | None:
        """The grid of every other node, if it has >= 8 points per axis."""
        if self.n < 16:
            return None
        return TorusGrid(self.dim, self.n // 2, self.period)

    @property
    def h(self) -> float:
        return self.period / self.n

    def coordinate_axes(self):
        """Per-axis node coordinates, shaped for broadcasting."""
        return _coordinate_axes(self)

    def wavenumber_axes(self):
        """Per-axis dual wavenumbers (2*pi/period times integer frequencies)
        of the half lattice: the last axis holds 0 .. n/2."""
        return _wavenumber_axes(self)

    def points_per_period(self, eps: float) -> int:
        """Grid nodes per period eps of a medium a(x / eps)."""
        m = self.period / eps
        m_int = int(round(m))
        if abs(m - m_int) > 1e-9 * max(1.0, m) or m_int < 1:
            raise ConfigurationError(
                f"eps={eps} does not divide the period {self.period}")
        if self.n % m_int != 0:
            raise ConfigurationError(
                f"eps={eps}: {m_int} periods do not divide {self.n} points")
        return self.n // m_int


@functools.lru_cache(maxsize=None)
def _coordinate_axes(grid: TorusGrid):
    axes = []
    for ax in range(grid.dim):
        x = np.arange(grid.n) * grid.h
        shape = [1] * grid.dim
        shape[ax] = grid.n
        x = x.reshape(shape)
        x.flags.writeable = False
        axes.append(x)
    return tuple(axes)


@functools.lru_cache(maxsize=None)
def _wavenumber_axes(grid: TorusGrid):
    axes = []
    for ax in range(grid.dim):
        last = ax == grid.dim - 1
        freqs = (np.fft.rfftfreq if last else np.fft.fftfreq)(grid.n, 1.0 / grid.n)
        k = 2.0 * np.pi / grid.period * freqs
        shape = [1] * grid.dim
        shape[ax] = k.size
        k = k.reshape(shape)
        k.flags.writeable = False
        axes.append(k)
    return tuple(axes)


@functools.lru_cache(maxsize=None)
def _k_squared(grid: TorusGrid):
    k2 = np.zeros(grid.half_shape)
    for k in _wavenumber_axes(grid):
        k2 = k2 + k ** 2
    k2.flags.writeable = False
    return k2


def _grid_axes(grid: TorusGrid, values: np.ndarray) -> tuple:
    return tuple(range(values.ndim - grid.dim, values.ndim))


def rfftn(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Half spectrum of real samples over the trailing grid axes."""
    return np.fft.rfftn(values, axes=_grid_axes(grid, values))


def irfftn(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples of the half spectrum ``coeffs`` (inverse of ``rfftn``)."""
    return np.fft.irfftn(coeffs, s=grid.shape, axes=_grid_axes(grid, coeffs))


@functools.lru_cache(maxsize=None)
def _derivative_multiplier(grid: TorusGrid, orders: tuple) -> np.ndarray:
    """Half-lattice Fourier multiplier for prod_ax (d/dx_ax)^orders[ax].

    The Nyquist mode is zeroed for odd derivative orders so real fields map
    to real fields and the operator stays exactly skew-adjoint.
    """
    mult = np.ones(grid.half_shape, dtype=complex)
    for ax, m in enumerate(orders):
        if m == 0:
            continue
        k = _wavenumber_axes(grid)[ax].copy()
        ikm = (1j * k) ** m
        if m % 2 == 1:
            nyq = [slice(None)] * grid.dim
            nyq[ax] = grid.n // 2
            ikm[tuple(nyq)] = 0.0
        mult = mult * ikm
    mult.flags.writeable = False
    return mult


@functools.lru_cache(maxsize=None)
def _nyquist_lines(grid: TorusGrid) -> np.ndarray:
    """Half-lattice mask of the Nyquist lines: the modes at frequency n/2
    along some axis, where the derivative along that axis is zeroed."""
    mask = np.zeros(grid.half_shape, dtype=bool)
    for ax in range(grid.dim):
        line = [slice(None)] * grid.dim
        line[ax] = grid.n // 2
        mask[tuple(line)] = True
    mask.flags.writeable = False
    return mask


class DerivativeCache:
    """Spectral derivatives of one real field, read from its half spectrum
    and memoized by per-axis orders.

    ``get((m0, m1))`` is d^m0/dx0^m0 d^m1/dx1^m1 of the field: one inverse
    transform per order tuple, however many contractions read it.  A field
    held as samples enters as ``rfftn(grid, values)``; a filtered effective
    field enters as its filtered spectrum, so no content above the filter
    reaches a derivative.
    """

    def __init__(self, grid: TorusGrid, spectrum: np.ndarray):
        self.grid = grid
        self.spectrum = spectrum
        self.cache = {}

    def get(self, orders: tuple) -> np.ndarray:
        if orders not in self.cache:
            self.cache[orders] = irfftn(
                self.grid, self.spectrum * _derivative_multiplier(self.grid, orders))
        return self.cache[orders]

    def contract(self, coeffs, degree: int, shift: int | None = None):
        """Contraction of the degree-th derivative tensor of the field with
        homogeneous monomial coefficients: sum_r coeffs[r] d^(degree - r)/dx0
        d^r/dx1 in 2D, coeffs[0] d^degree/dx0 in 1D, each derivative taken
        once more along axis ``shift`` when one is given.  The coefficients
        are numbers or fields broadcasting against the grid."""
        out = 0.0
        for r, c in enumerate(coeffs):
            orders = [degree - r, r] if self.grid.dim == 2 else [degree]
            if shift is not None:
                orders[shift] += 1
            out = out + c * self.get(tuple(orders))
        return out


@functools.lru_cache(maxsize=None)
def _half_gradient_multiplier(grid: TorusGrid) -> np.ndarray:
    """(i k_m) for m = 0..dim-1 on the half lattice, Nyquist zeroed."""
    axes = range(grid.dim)
    ik = np.stack([_derivative_multiplier(grid, tuple(int(ax == m) for ax in axes))
                   for m in axes])
    ik.flags.writeable = False
    return ik


def gradient_values(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Gradient on a new leading axis, from one forward transform."""
    spec = rfftn(grid, values)
    out = np.empty((grid.dim,) + np.shape(values))
    for m, ik in enumerate(_half_gradient_multiplier(grid)):
        out[m] = irfftn(grid, spec * ik)
    return out


def divergence_values(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Divergence contracting the leading component axis."""
    if values.shape[0] != grid.dim:
        raise ConfigurationError("leading axis must have length dim")
    return irfftn(grid, _divergence_hat(grid, values))


def _divergence_hat(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Half spectrum of ``divergence_values``, from one forward transform."""
    spec = rfftn(grid, values)
    ik = _half_gradient_multiplier(grid)
    total = spec[0] * ik[0]
    for m in range(1, grid.dim):
        total += spec[m] * ik[m]
    return total


def mean_values(grid: TorusGrid, values: np.ndarray):
    return values.mean(axis=_grid_axes(grid, values))


def l2_norm(grid: TorusGrid, values: np.ndarray) -> float:
    """L2 norm over [0, period)^dim of grid samples, all components together."""
    return float(np.sqrt(np.mean(np.abs(values) ** 2) * grid.period ** grid.dim))


def l2_norm_hat(grid: TorusGrid, spec: np.ndarray) -> float:
    """``l2_norm`` of the fields with half spectra ``spec``, by Parseval."""
    x = spec.reshape((-1,) + grid.half_shape)
    return float(np.sqrt(np.mean(_half_dot(x, x)) * grid.period ** grid.dim)
                 ) / grid.n ** grid.dim


def solve_poisson_values(grid: TorusGrid, rhs: np.ndarray):
    """Solve -Lap(u) = rhs for real rhs with zero-mean gauge; returns
    (u, dropped_mean).

    Any cell mean of ``rhs`` is unresolvable on the torus; it is subtracted
    (and returned) before inversion.  Callers that need solvability check
    it with ``require_zero_mean``.
    """
    return (irfftn(grid, rfftn(grid, rhs) * _inverse_laplacian(grid)),
            mean_values(grid, rhs))


@functools.lru_cache(maxsize=None)
def _inverse_laplacian(grid: TorusGrid) -> np.ndarray:
    """The multiplier of -Lap^-1 in the zero-mean gauge: 1 / |k|^2, 0 at k = 0."""
    k2 = _k_squared(grid)
    inv = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    inv.flags.writeable = False
    return inv


@functools.lru_cache(maxsize=None)
def _spread_matrix(n: int, m: int) -> np.ndarray:
    """Frequency-spreading matrix for zero-padded prolongation n -> m.

    The Nyquist content of the source is split evenly between +-n/2 so real
    fields stay real and the trig interpolant keeps the cosine convention at
    the unpaired mode.
    """
    freqs = np.fft.fftfreq(n, 1.0 / n).astype(int)
    S = np.zeros((m, n))
    half = n // 2
    for i, f in enumerate(freqs):
        if abs(f) == half:
            S[f % m, i] += 0.5
            S[(-f) % m, i] += 0.5
        else:
            S[f % m, i] = 1.0
    S.flags.writeable = False
    return S


def _prolong_hat(grid: TorusGrid, spec: np.ndarray, factor: int) -> np.ndarray:
    """Exact trigonometric prolongation of a half spectrum onto a
    ``factor``-times finer grid: it is spread on the full axes and on the
    half of the last axis that ``irfftn`` reads."""
    n, m = grid.n, grid.n * factor
    S = _spread_matrix(n, m)
    half = S[: m // 2 + 1, : n // 2 + 1]
    scale = float(factor) ** grid.dim
    if grid.dim == 1:
        return np.einsum("ai,...i->...a", half, spec) * scale
    # every row of S and of half holds at most one nonzero, a power of two,
    # so the two products are exact in either order
    return S @ spec @ half.T * scale


def prolong_values(grid: TorusGrid, values: np.ndarray, factor: int) -> np.ndarray:
    """``_prolong_hat`` of real samples."""
    if factor == 1:
        return values.copy()
    fine = TorusGrid(grid.dim, grid.n * factor, grid.period)
    return irfftn(fine, _prolong_hat(grid, rfftn(grid, values), factor))


def _restrict_hat(grid: TorusGrid, spec: np.ndarray) -> np.ndarray:
    """Half spectrum of the samples at every other node: each coarse mode is
    the mean of its 2^dim aliases, k1 + n/2 read as conj(-k0, n/2 - k1)."""
    nc = grid.n // 2
    mirror = np.conj(spec[..., nc:nc // 2 - 1:-1])
    if grid.dim == 2:
        mirror = np.roll(mirror[..., ::-1, :], 1, axis=-2)
        fold = spec[..., : nc // 2 + 1] + mirror
        return (fold[..., :nc, :] + fold[..., nc:, :]) * 0.25
    return (spec[..., : nc // 2 + 1] + mirror) * 0.5


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

class CoefficientField:
    """Symmetric uniformly elliptic matrix field a(x) sampled on a torus grid.

    Construction checks that the samples are finite, xi . a xi >= |xi|^2
    and |a xi| <= Lambda |xi| nodewise.
    """

    def __init__(self, grid: TorusGrid, values: np.ndarray, spec: dict | None = None):
        values = np.asarray(values, dtype=float)
        d = grid.dim
        if values.shape != (d, d) + grid.shape:
            raise ConfigurationError(
                f"coefficient values must have shape {(d, d) + grid.shape}")
        # NaN fails every comparison, so the checks below would pass it
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("coefficient values must be finite")
        sym_gap = np.max(np.abs(values - np.swapaxes(values, 0, 1)))
        if sym_gap > 1e-12 * max(1.0, np.max(np.abs(values))):
            raise ConfigurationError("coefficient matrix field is not symmetric")
        lo, hi = _sym_eig_bounds(values, d)
        if lo < 1.0 - 1e-10:
            raise ConfigurationError(
                f"ellipticity violated: min eigenvalue {lo:.6g} < 1")
        self.grid = grid
        self.values = values
        self.values.flags.writeable = False
        self.ellipticity = float(lo)
        self.Lambda = float(hi)
        self.spec = dict(spec) if spec else None

    @property
    def mean_matrix(self) -> np.ndarray:
        return mean_values(self.grid, self.values)

    @functools.cached_property
    def coarse(self) -> CoefficientField | None:
        """This field on the half grid, or None where it is not resolved
        there.

        The half-grid field is every other sample along each axis.  It is
        resolved when trigonometric interpolation of those samples
        reproduces the fine samples to transform roundoff:
        |prolong(a[::2]) - a| <= 2 eta log2(N) |a| in the 2-norm, with N
        the fine point count.  The bound is that of the two transforms of
        the round trip (coarse forward, fine inverse), each accurate to
        eta log2(N) relative with eta = 8 eps_mach (Higham, Accuracy and
        Stability of Numerical Algorithms, Thm. 24.2).  The half grid needs
        n / 2 >= 8 points per axis.
        """
        grid = self.grid
        half = grid.half_grid
        if half is None:
            return None
        sub = np.ascontiguousarray(self.values[_every_other(grid)])
        gap = np.linalg.norm(prolong_values(half, sub, 2) - self.values)
        eta = 8.0 * np.finfo(float).eps
        bound = 2.0 * eta * np.log2(grid.n ** grid.dim)
        if gap > bound * np.linalg.norm(self.values):
            return None
        return CoefficientField(half, sub)

    @property
    def direct_grid(self) -> int | None:
        """Points per axis of the coarse ladder's last grid if it is solved
        directly (``floor_inverse``)."""
        floor = self.coarse
        while floor is not None and floor.coarse is not None:
            floor = floor.coarse
        if floor is None or floor.grid.half_grid is not None:
            return None
        return floor.grid.n

    @functools.cached_property
    def floor_inverse(self) -> np.ndarray:
        """Dense inverse of -div(a grad) on the N <= 64 samples of a coarse
        ladder's 8-point floor: u = b @ floor_inverse for a row b.  The
        modes no divergence reaches are deflated by adding their projector
        at the mean eigenvalue; u has none if b has none."""
        grid = self.grid
        N = grid.n ** grid.dim
        spec = rfftn(grid, np.eye(N).reshape((N,) + grid.shape))
        op = irfftn(grid, _div_a_grad_hat(self, spec)).reshape(N, N)
        proj = irfftn(grid, spec * ~_divergence_range(grid)).reshape(N, N)
        return np.linalg.inv(op + np.trace(op) / N * proj)


def _sym_eig_bounds(values: np.ndarray, d: int):
    if d == 1:
        return float(values.min()), float(values.max())
    a11, a22, a12 = values[0, 0], values[1, 1], values[0, 1]
    mid = 0.5 * (a11 + a22)
    rad = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12 ** 2)
    return float((mid - rad).min()), float((mid + rad).max())


def _matvec(a_values: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Pointwise product a . v of a matrix field with a vector field."""
    return np.einsum("mn...,n...->m...", a_values, vec)


@functools.lru_cache(maxsize=None)
def _divergence_range(grid: TorusGrid) -> np.ndarray:
    """Half-lattice mask of the modes a divergence reaches: those where some
    Nyquist-zeroed derivative i k_m is nonzero."""
    mask = np.any(_half_gradient_multiplier(grid) != 0, axis=0)
    mask.flags.writeable = False
    return mask


def _half_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real inner products of the fields with half spectra x and y, one per
    column of the leading axis, times the point count (Parseval): columns 0
    and n/2 of the last axis hold their own conjugates, every other column
    stands for itself and its mirror.  Each column is its own row of a
    ``vecdot``, so its value does not depend on its stack."""
    k = len(x)

    def dot(u, v):
        return np.vecdot(u.reshape(k, -1), v.reshape(k, -1)).real

    return (2.0 * dot(x, y) - dot(x[..., :1], y[..., :1])
            - dot(x[..., -1:], y[..., -1:]))


def _div_a_grad_hat(a: CoefficientField, u_hat: np.ndarray) -> np.ndarray:
    """-div(a grad u) from and to half spectra (of a field or a stack): dim
    inverse and dim forward half-size transforms around the pointwise
    product with a."""
    grid = a.grid
    ik = _half_gradient_multiplier(grid)
    ik = ik.reshape(ik.shape[:1] + (1,) * (u_hat.ndim - grid.dim) + ik.shape[1:])
    grad = irfftn(grid, ik * u_hat)
    return -np.sum(ik * rfftn(grid, _matvec(a.values, grad)), axis=0)


def apply_div_a_grad(a: CoefficientField, u: np.ndarray) -> np.ndarray:
    """-div(a grad u) on real raw samples."""
    return irfftn(a.grid, _div_a_grad_hat(a, rfftn(a.grid, u)))


def _every_other(grid: TorusGrid) -> tuple:
    """Index of the half-grid nodes: every other sample along each axis."""
    return (...,) + (slice(None, None, 2),) * grid.dim


class PCGSolve(tuple):
    """``(u, iterations, residual)`` of a PCG solve on the grid of its
    coefficient, which unpacks as a plain tuple; ``coarse_iterations`` maps
    the points per axis of each coarser grid its start was solved on to the
    CG iterations run there (empty for a cold start); for a stack, all
    four hold one entry per right-hand side."""

    def __new__(cls, u, iterations, residual, coarse_iterations):
        out = super().__new__(cls, (u, iterations, residual))
        out.coarse_iterations = coarse_iterations
        return out


def _cg(a: CoefficientField, inv: np.ndarray, u: np.ndarray, r: np.ndarray,
        norms: np.ndarray, columns: np.ndarray):
    """CG with diagonal preconditioner ``inv`` from the half spectra u with
    residuals r: each column has its own alpha, beta and stopping test at
    ``CG_TOL`` relative to ``norms`` and leaves the working set when done.
    Returns solutions, iterations and residuals per column."""
    out = np.empty_like(u)
    iterations = np.zeros(len(r), dtype=int)
    residuals = np.zeros(len(r))
    work = np.arange(len(r))
    per_column = (-1,) + (1,) * a.grid.dim
    z = inv * r
    p = z.copy()
    rz = _half_dot(r, z)
    for it in range(CG_MAXITER):
        res = np.sqrt(_half_dot(r, r)) / norms
        done = res <= CG_TOL
        if done.any():
            out[work[done]] = u[done]
            iterations[work[done]] = it
            residuals[work[done]] = res[done]
            if done.all():
                return out, iterations.tolist(), residuals.tolist()
            keep = ~done
            work, u, r, z, p, rz, norms = (
                work[keep], u[keep], r[keep], z[keep], p[keep], rz[keep], norms[keep])
        Ap = _div_a_grad_hat(a, p)
        alpha = (rz / _half_dot(p, Ap)).reshape(per_column)
        u += alpha * p
        r -= alpha * Ap
        np.multiply(inv, r, out=z)
        rz_new = _half_dot(r, z)
        p *= (rz_new / rz).reshape(per_column)
        p += z
        rz = rz_new
    res = float(np.sqrt(_half_dot(r, r))[0] / norms[0])
    column = int(columns[work[0]])
    raise ConvergenceError(
        f"elliptic CG on the {a.grid.n}-point grid did not reach tol "
        f"{CG_TOL:g} in {CG_MAXITER} iterations for column {column} "
        f"(relative residual {res:.3e})", residual=res, iterations=CG_MAXITER,
        column=column)


def _pcg_div_a_grad(a: CoefficientField, rhs_hat: np.ndarray,
                    polish: bool = True):
    """CG for -div(a grad u) = rhs for the stack of half spectra
    ``rhs_hat`` (overwritten), without their content on the modes no
    divergence reaches (``_divergence_range``), so u has zero mean.

    The preconditioner is the inverse of -div(mean(a) grad), a diagonal
    multiply.  When a is resolved on the half grid (``a.coarse``), the stack
    is restricted there, solved as one stack (recursively) and each column
    starts from its coarse solution, prolonged.  A ladder's last grid
    starts from the direct solve ``floor_inverse`` if it has no half grid.
    Coarse grids run all columns in one ``_cg`` loop; this grid
    (``polish``) runs one column at a time, since at fine sizes a stacked
    apply costs more than single ones and holds k columns' vectors.  Each
    column stops at ``CG_TOL``, tested before the first iteration too.
    Returns (u, iterations, residuals, coarse_iterations) per column, u as
    half spectra.
    """
    grid = a.grid
    r = np.multiply(rhs_hat, _divergence_range(grid), out=rhs_hat)
    norms = np.sqrt(_half_dot(r, r))
    norms[norms == 0.0] = 1.0  # a zero rhs is met by the zero start
    columns = np.arange(len(r))

    ik = _half_gradient_multiplier(grid)
    kak = -np.einsum("mn,m...,n...->...", a.mean_matrix, ik, ik).real
    inv = np.zeros_like(kak)
    nz = kak > 0
    inv[nz] = 1.0 / kak[nz]

    coarse = a.coarse
    coarse_iterations = [{} for _ in columns]
    if coarse is not None:
        u_c, its, _, below = _pcg_div_a_grad(coarse, _restrict_hat(grid, r),
                                             polish=False)
        coarse_iterations = [{coarse.grid.n: i, **b} for i, b in zip(its, below)]

    def solve(cols):
        if coarse is not None:
            u = _prolong_hat(coarse.grid, u_c[cols], 2)
        elif grid.half_grid is None and not polish:
            # row by row, so that a column's start does not depend on its stack
            b = irfftn(grid, r[cols])
            u = rfftn(grid, np.stack([row @ a.floor_inverse for row in
                                      b.reshape(len(b), -1)]).reshape(b.shape))
        else:
            u = np.zeros_like(r[cols])
        if u.any():
            r[cols] -= _div_a_grad_hat(a, u)
        return _cg(a, inv, u, r[cols], norms[cols], columns[cols])

    if not polish:
        return (*solve(np.s_[:]), coarse_iterations)
    out = np.empty_like(r)
    iterations, residuals = [], []
    for c in columns:
        out[c:c + 1], its, res = solve(np.s_[c:c + 1])
        iterations += its
        residuals += res
    return out, iterations, residuals, coarse_iterations


def solve_div_a_grad(a: CoefficientField, flux_rhs: np.ndarray) -> PCGSolve:
    """Solve -div(a grad phi) = div(flux_rhs) on the torus, zero-mean phi,
    for one flux (dim, grid...) or a stack of k (dim, k, grid...).

    Returns (phi, CG iterations, final relative residual) as a ``PCGSolve``,
    whose ``coarse_iterations`` count the CG work of a coarse-grid start.
    """
    flux = np.asarray(flux_rhs, dtype=float)
    single = flux.ndim == 1 + a.grid.dim
    if single:
        flux = flux[:, None]
    u, *solved = _pcg_div_a_grad(a, _divergence_hat(a.grid, flux))
    solved = [irfftn(a.grid, u), *solved]
    if single:
        solved = [entry[0] for entry in solved]
    return PCGSolve(*solved)


def _solvability_tolerance(values: np.ndarray) -> float:
    return 1e-10 * max(1.0, float(np.max(np.abs(values))))


def require_zero_mean(values: np.ndarray, what: str = "rhs") -> None:
    """Periodic solvability: ``SolvabilityError`` unless the mean of
    ``values`` is below 1e-10 of max(1, max|values|)."""
    mean = float(np.mean(values))
    if abs(mean) > _solvability_tolerance(values):
        raise SolvabilityError(f"{what} has mean {mean:.3e}; needs zero mean")


def solve_elliptic(a: CoefficientField, rhs: np.ndarray) -> np.ndarray:
    """Solve -div(a grad u) = rhs, zero-mean u.  Content of rhs on modes no
    divergence reaches (its mean, and the Nyquist modes (n/2, 0), (0, n/2),
    (n/2, n/2) in 2D, n/2 in 1D) above the tolerance of
    ``require_zero_mean`` raises ``SolvabilityError``; below it is dropped."""
    rhs = np.asarray(rhs, dtype=float)
    require_zero_mean(rhs)
    rhs_hat = rfftn(a.grid, rhs)
    unreached = float(np.max(np.abs(rhs_hat[~_divergence_range(a.grid)]))) / rhs.size
    if unreached > _solvability_tolerance(rhs):
        raise SolvabilityError(f"rhs has amplitude {unreached:.3e} on a Nyquist "
                               f"mode no divergence reaches; needs none")
    return irfftn(a.grid, _pcg_div_a_grad(a, rhs_hat[None])[0][0])


# ---------------------------------------------------------------------------
# coefficient catalog
# ---------------------------------------------------------------------------

# each catalog kind: its required fields, its optional fields with their
# defaults, and the closed-form minimum of its scalar a(x) as (the fields it
# reads, its value from the parsed fields); a constant matrix and a raw grid
# have none and are checked where they are sampled, by CoefficientField
_SPEC_FIELDS = {
    "constant": ((), {"value": 1.0},
                 ("value", lambda f: f["value"] if f["value"].ndim == 0 else np.inf)),
    "diagonal": (("entries",), {}, ("min(entries)", lambda f: f["entries"].min())),
    "laminate": (("values",), {"volume_fraction": 0.5, "axis": 0, "period": 1.0},
                 ("min(values)", lambda f: f["values"].min())),
    "trig_checkerboard": ((), {"base": 2.0, "amplitude": 1.0, "period": 1.0},
                          ("base - |amplitude|",
                           lambda f: f["base"] - abs(f["amplitude"]))),
    "raw": (("values",), {}, None),
}
# the open interval each bounded field lies in
_OPEN_RANGES = {"volume_fraction": (0.0, 1.0), "period": (0.0, np.inf)}


def check_coefficient_spec(spec: dict, dim: int) -> dict:
    """The fields of a catalog spec, as float arrays with the kind's
    defaults filled in, once a ``dim``-dimensional run can read them.

    Rejects an unknown kind or field, a missing, non-numeric or non-finite
    field, a value of the wrong shape, a laminate axis outside [0, dim) or
    volume fraction outside (0, 1), a period that is not positive, and a
    closed-form minimum of a below 1.  The coefficient is not sampled."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _SPEC_FIELDS:
        raise ConfigurationError(f"unknown coefficient kind {kind!r}")
    required, defaults, minimum = _SPEC_FIELDS[kind]
    missing = [key for key in required if key not in spec]
    if missing:
        raise ConfigurationError(f"a {kind} coefficient needs {missing}")
    unknown = sorted(set(spec) - {"kind", *required, *defaults})
    if unknown:
        raise ConfigurationError(f"unknown {kind} coefficient fields: {unknown}")
    try:
        fields = {key: np.asarray(value, dtype=float)
                  for key, value in {**defaults, **spec}.items() if key != "kind"}
    except (TypeError, ValueError):
        raise ConfigurationError(f"{kind} coefficient fields must be numbers") from None
    # a raw grid's shape is checked against the grid the run builds
    for key, value in fields.items() if kind != "raw" else ():
        want = {"entries": (dim,), "values": (2,)}.get(key, ())
        if key == "value" and value.ndim == 2:
            want = (dim, dim)           # a constant matrix
        if value.shape != want:
            raise ConfigurationError(
                f"{kind} coefficient field {key!r} must have shape {want}, "
                f"got {value.shape}")
    for key, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ConfigurationError(f"{kind} coefficient field {key!r} must be finite")
    axis = float(fields["axis"]) if "axis" in fields else 0.0
    if not (axis == int(axis) and 0 <= axis < dim):
        raise ConfigurationError(f"laminate axis {axis:g} outside [0, {dim})")
    for key, (lo, hi) in _OPEN_RANGES.items():
        if key in fields and not lo < fields[key] < hi:
            raise ConfigurationError(f"{kind} coefficient field {key!r} = "
                                     f"{float(fields[key]):g} outside ({lo:g}, {hi:g})")
    if minimum is not None and minimum[1](fields) < 1.0 - 1e-12:
        raise ConfigurationError(f"{kind} coefficient has a below 1: "
                                 f"{minimum[0]} = {float(minimum[1](fields)):.6g}")
    return fields


def evaluate_coefficient(spec: dict, x: np.ndarray, dim: int) -> np.ndarray:
    """Evaluate an analytic catalog coefficient at points.

    ``x`` has shape (dim, ...); the result has shape (dim, dim, ...).
    Raw-grid specs have no analytic form and are rejected here.
    """
    fields = check_coefficient_spec(spec, dim)
    kind = spec["kind"]
    base_shape = x.shape[1:]
    out = np.zeros((dim, dim) + base_shape)
    if kind in ("constant", "diagonal"):
        value = fields["value"] if kind == "constant" else np.diag(fields["entries"])
        matrix = value if value.ndim == 2 else np.eye(dim) * value
        out[...] = matrix.reshape((dim, dim) + (1,) * len(base_shape))
        return out
    if kind == "laminate":
        frac = np.mod(x[int(fields["axis"])] / fields["period"], 1.0)
        scalar = np.where(frac < fields["volume_fraction"], *fields["values"])
    elif kind == "trig_checkerboard":
        prod = np.ones(base_shape)
        for ax in range(dim):
            prod = prod * np.sin(2.0 * np.pi * x[ax] / fields["period"])
        scalar = np.full(base_shape, fields["base"]) + fields["amplitude"] * prod
    else:
        raise ConfigurationError(f"coefficient kind {kind!r} has no analytic form")
    for m in range(dim):
        out[m, m] = scalar
    return out


def coefficient_from_spec(spec: dict, grid: TorusGrid) -> CoefficientField:
    """Build a CoefficientField from a catalog tag or a raw grid of entries."""
    kind = spec.get("kind")
    if kind == "raw":
        values = np.asarray(spec["values"], dtype=float)
        return CoefficientField(grid, values, spec=spec)
    axes = grid.coordinate_axes()
    x = np.stack([np.broadcast_to(ax, grid.shape) for ax in axes])
    values = evaluate_coefficient(spec, x, grid.dim)
    return CoefficientField(grid, values, spec=spec)
