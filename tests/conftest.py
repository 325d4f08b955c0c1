import numpy as np
import pytest

from homwave import torus


SMOOTH2D = {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0}
LAMINATE = {"kind": "laminate", "values": [1.0, 4.0], "volume_fraction": 0.5}


@pytest.fixture
def grid1d():
    return torus.TorusGrid(1, 256)


@pytest.fixture
def grid2d():
    return torus.TorusGrid(2, 32)


@pytest.fixture
def smooth2d_a(grid2d):
    return torus.coefficient_from_spec(SMOOTH2D, grid2d)


@pytest.fixture
def laminate_a(grid1d):
    return torus.coefficient_from_spec(LAMINATE, grid1d)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def band_limited(grid, rng, kmax=5, complex_valued=False):
    """Random real (or complex) field with modes only below kmax."""
    shape = grid.shape
    spec = np.zeros(shape, dtype=complex)
    k_int = [np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(int)] * grid.dim
    if grid.dim == 1:
        mask = np.abs(k_int[0]) <= kmax
    else:
        mask = (np.abs(k_int[0])[:, None] <= kmax) & (np.abs(k_int[1])[None, :] <= kmax)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec[mask] = vals[mask]
    out = np.fft.ifftn(spec)
    if complex_valued:
        return out
    return out.real


def full_wavenumbers(grid):
    """Wavenumbers of the full complex-FFT lattice, shape (dim,) + grid: the
    in-test reference for the half-lattice multipliers of the package."""
    k = 2.0 * np.pi / grid.period * np.fft.fftfreq(grid.n, 1.0 / grid.n)
    return np.stack(np.meshgrid(*([k] * grid.dim), indexing="ij"))


def anisotropic_model_2d():
    """2D dispersion model of order 4 with distinct axis coefficients and a
    mixed quartic term, every polynomial even in each wavevector component
    (as for cells with reflection symmetry)."""
    from homwave import correctors, dispersion
    return dispersion.DispersionModel(
        dim=2, ell=4,
        polys=[np.array([1.5, 0.0, 1.2]), np.zeros(4),
               np.array([0.02, 0.0, 0.05, 0.0, 0.03]), np.zeros(6)],
        directions=correctors.half_circle_directions(2, 12), Gamma_bar=1.5)
