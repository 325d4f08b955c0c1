"""Exact-in-time fine-scale waves in a periodic 1D medium.

The flux-form operator of ``wave.FluxFormOperator`` on a box holding M
periods of p nodes commutes with shifts by one period.  A discrete Fourier
transform across the periods (a Bloch transform) therefore splits it into
one Hermitian p x p block per Bloch phase.  Each block is diagonalized once
and every eigenmode evolves by cos(omega t) and sin(omega t) / omega, so
snapshots at any times cost no time stepping and carry no time-stepping
error (Conca & Vanninathan, SIAM J. Appl. Math. 57, 1997).

This is the fine-scale reference of the ``wave-compare`` and ``transport``
experiments; leapfrog (``wave.solve_fine_wave``) is its independent
cross-check and covers sources and 2D.
"""

from __future__ import annotations

import numpy as np

from .torus import ConfigurationError
from .wave import (BoxGrid, FluxFormOperator, WaveTrajectory, _face_harmonic,
                   _fine_inputs, _rotate)


# Bloch phases per eigh call: the eigensystems held at once take
# _PHASE_CHUNK p^2 complex numbers, small next to the snapshots
_PHASE_CHUNK = 16


def bloch_blocks(faces: np.ndarray, h: float, phases) -> np.ndarray:
    """Hermitian p x p blocks of -div(a grad) at the given Bloch phases.

    ``faces`` holds the p face coefficients of one period.  Block m acts on
    the cell-periodic profile of a Bloch wave whose value gains the factor
    exp(i phases[m]) from one period to the next; the corner entries carry
    that factor.
    """
    p = faces.size
    phases = np.asarray(phases, dtype=float)
    blocks = np.zeros((phases.size, p, p), dtype=complex)
    j = np.arange(p)
    blocks[:, j, j] = faces + np.roll(faces, 1)
    blocks[:, j[:-1], j[1:]] -= faces[:-1]
    blocks[:, j[1:], j[:-1]] -= faces[:-1]
    corner = faces[-1] * np.exp(1j * phases)
    blocks[:, p - 1, 0] -= corner
    blocks[:, 0, p - 1] -= np.conj(corner)
    return blocks / h ** 2


def solve_fine_wave_exact(a_box: np.ndarray, box: BoxGrid, u0: np.ndarray,
                          times, eps: float,
                          v0: np.ndarray | None = None) -> WaveTrajectory:
    """Solve u_tt = div(a grad u) exactly in time for a periodic 1D medium.

    The spatial operator is the flux form of ``FluxFormOperator``.  The
    medium repeats every p = n eps / side nodes, so a discrete Fourier
    transform across the M = n / p cells splits the operator into one
    Hermitian p x p block per Bloch phase (M // 2 + 1 of them by conjugate
    symmetry).  Each block is diagonalized, every eigenmode is rotated to
    all snapshot times by ``wave._rotate``, and the snapshots are
    transformed back.  Blocks are diagonalized ``_PHASE_CHUNK`` phases at a
    time, so the working set stays O(chunk p^2 + snapshots n).  The energy
    log is the physical energy of ``FluxFormOperator.energy`` at each
    snapshot, and ``dt`` is 0 (there is no time step).
    """
    if box.dim != 1:
        raise ConfigurationError("the Bloch-block solver is one-dimensional")
    if a_box.shape != (1, 1) + box.shape:
        raise ConfigurationError("coefficient shape does not match box")
    p = box.points_per_period(eps)
    n_cells = box.n // p
    a = a_box[0, 0]
    cells = a.reshape(n_cells, p)
    # sampling a(x / eps) rounds x / eps by about one ulp of the cell index,
    # so cells of a periodic medium agree to a tolerance growing with M
    tol = 64 * np.finfo(float).eps * n_cells * np.max(np.abs(a))
    if np.max(np.abs(cells - cells[0])) > tol:
        raise ConfigurationError(
            f"coefficient is not periodic with {p} points per period eps={eps}")
    times, u, v = _fine_inputs(box, u0, v0, times)

    faces = _face_harmonic(a, 0)[:p]
    n_blocks = n_cells // 2 + 1
    phases = 2.0 * np.pi * np.arange(n_blocks) / n_cells
    u_hat = np.fft.rfft(u.reshape(n_cells, p), axis=0)[..., None]
    v_hat = np.fft.rfft(v.reshape(n_cells, p), axis=0)[..., None]
    ut_hat = np.empty((times.size, n_blocks, p), dtype=complex)
    vt_hat = np.empty_like(ut_hat)
    for start in range(0, n_blocks, _PHASE_CHUNK):
        sl = slice(start, start + _PHASE_CHUNK)
        lam, vecs = np.linalg.eigh(bloch_blocks(faces, box.h, phases[sl]))
        omega = np.sqrt(np.maximum(lam, 0.0))[..., None]
        # mode amplitudes of (u, v); no conjugated eigenvectors outlive them
        modes = np.conj(np.swapaxes(vecs, 1, 2)) @ np.stack([u_hat[sl], v_hat[sl]])
        a_m, b_m = _rotate(modes[0], modes[1], omega, times)
        ut_hat[:, sl] = np.moveaxis(vecs @ a_m, -1, 0)
        vt_hat[:, sl] = np.moveaxis(vecs @ b_m, -1, 0)

    def snapshots(spec):
        # one snapshot at a time: no full-size temporary besides the output
        out = np.empty((times.size,) + box.shape)
        for i in range(times.size):
            out[i].reshape(n_cells, p)[...] = np.fft.irfft(spec[i], n=n_cells,
                                                           axis=0)
        return out

    u_t = snapshots(ut_hat)
    del ut_hat  # freed before the velocity snapshots are allocated
    v_t = snapshots(vt_hat)
    del vt_hat
    op = FluxFormOperator(box, a_box)
    energy = np.array([op.energy(u_t[i], v_t[i]) for i in range(times.size)])
    return WaveTrajectory(
        box=box, eps=eps, times=times, u=u_t, v=v_t, dt=0.0, energy=energy,
        meta={"solver": "bloch-exact", "blocks": n_blocks, "block_size": p,
              "energy_t0": op.energy(u, v)})
