"""Exact-in-time fine-scale waves in a periodic 1D medium.

The flux-form operator of ``wave.FluxFormOperator`` on a box holding M
periods of p nodes commutes with shifts by one period.  A discrete Fourier
transform across the periods (a Bloch transform) therefore splits it into
one Hermitian p x p block per Bloch phase.  Each block is diagonalized once
and every eigenmode evolves by cos(omega t) and sin(omega t) / omega, plus
its closed-form response to a step source h(x) 1[0, 1](t), so
snapshots at any times cost no time stepping and carry no time-stepping
error (Conca & Vanninathan, SIAM J. Appl. Math. 57, 1997).  Only the
phases that carry data are diagonalized, within an eps_mach budget
(``solve_fine_wave_exact``).

The blocks have one form (``_GaugedBlocks``): in a uniform gauge each is
A0 + cos(theta / p) A1 + sin(theta / p) A2 in an orthonormal basis Q of
the cell.  When the faces of the cell are mirror-symmetric (every
two-phase laminate), reflection composed with complex conjugation is an
antiunitary symmetry of every block, and Q, built from the mirror's node
pairs, makes the three parts real, so the blocks are diagonalized in real
arithmetic.  A cell without an exact mirror has Q = I and complex
Hermitian parts.  Each eigenvalue is the flux-form Rayleigh quotient of
its eigenvector (``_GaugedBlocks.omega2``), accurate to a few eps_mach
relative, where ``eigh``'s own carry an absolute error of eps_mach |B|.

This is the fine-scale reference of every wave experiment
(``wave-compare``, ``transport``, ``source-term`` and the constant-medium
moment scan); leapfrog (``wave.solve_fine_wave``) is its independent
cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .torus import ConfigurationError, TorusGrid
from .wave import (FluxFormOperator, WaveTrajectory, _face_harmonic,
                   _fine_inputs, _rotate, _step_source)


# block entries per eigh call: the eigensystems and work arrays of one call
# hold a few _CHUNK_ENTRIES numbers whatever the block size p (16
# phases per call at p = 16, one at p = 64), so they stay small next to the
# snapshots and the allocator recycles them instead of keeping megabytes
_CHUNK_ENTRIES = 4096


# (Re, Im) of -i z is (Im z, -Re z): the sign on the swapped parts
_TURN = np.array([1.0, -1.0])[:, None, None]


def _mirror(faces: np.ndarray) -> int | None:
    """The s with faces[(s - 1 - j) % p] == faces[j] for every j, or None.

    The node reflection j -> s - j (mod p) then maps each face onto one of
    equal value.  The test is exact: ``_face_harmonic`` is bitwise symmetric
    in its two arguments, so a cell whose samples mirror exactly has faces
    that do."""
    p = faces.size
    j = np.arange(p)
    hits = np.flatnonzero(
        np.all(faces[(j[:, None] - 1 - j) % p] == faces, axis=1))
    return int(hits[0]) if hits.size else None


class _GaugedBlocks:
    """The Bloch blocks of a cell, real symmetric where it has a mirror.

    In the uniform gauge y = D^* x, D = diag(exp(i theta j / p)), the block
    at phase theta couples nodes j and j + 1 (mod p) by -f_j exp(i phi) and
    its conjugate, phi = theta / p, the corners included, so it is the
    Hermitian A0 + cos(phi) A1 + sin(phi) A2 with three p x p parts built
    once per solve, the gauge once for the kept ``phases``.

    Where the faces have a mirror j -> s - j (``_mirror``), the reflection
    maps every gauged block to its complex conjugate, so reflection composed
    with conjugation is an antiunitary symmetry of every block.  Its fixed
    vectors form the orthonormal basis Q of the even vectors
    (e_j + e_{s-j}) / sqrt(2) (e_j alone where j = s - j mod p) and the odd
    vectors i (e_j - e_{s-j}) / sqrt(2), in which the three parts are real
    (``field`` "real").  A cell without a mirror is the case where every
    node is its own partner: Q = I, and the parts stay complex (``field``
    "complex").

    Each node lies in at most two basis vectors and each basis vector on at
    most two nodes, so D Q and its adjoint are two weighted gathers each
    (``to_nodes``, ``to_basis``): pairs scaled by 1 / sqrt(2), a factor
    -i on the odd part of the data, and the gauge.  ``omega2`` takes the
    same gathers without the gauge, around the ring of nodes.
    """

    def __init__(self, faces: np.ndarray, h: float, phases: np.ndarray):
        self.p = p = faces.size
        j = np.arange(p)
        s = _mirror(faces)
        partner = j if s is None else (s - j) % p
        first, second = j[j < partner], partner[j < partner]
        fixed = j[j == partner]
        pairs, n_even = first.size, first.size + fixed.size
        col = np.arange(pairs)
        r = math.sqrt(0.5)
        basis = np.zeros((p, p), dtype=complex)
        basis[first, col] = basis[second, col] = r
        basis[fixed, pairs + np.arange(fixed.size)] = 1.0
        basis[first, n_even + col] = 1j * r
        basis[second, n_even + col] = -1j * r
        # the gauged block is diag - exp(i phi) hop - exp(-i phi) hop^T
        hop = np.zeros((p, p))
        hop[j, (j + 1) % p] = faces
        parts = [np.conj(basis.T) @ m @ basis
                 for m in (np.diag(faces + np.roll(faces, 1)), -(hop + hop.T),
                           1j * (hop.T - hop))]
        self.field = "complex" if s is None else "real"
        if s is not None:
            parts = [m.real for m in parts]
        self.parts = [m / h ** 2 for m in parts]
        # the two nodes of each basis vector, and the two basis vectors of
        # each node; the second entry of a fixed node has weight zero
        self.nodes = np.stack([np.concatenate([first, fixed, first]),
                               np.concatenate([second, fixed, second])])
        self.cols = np.zeros((2, p), dtype=int)
        self.cols[:, first] = self.cols[:, second] = [col, n_even + col]
        self.cols[:, fixed] = pairs + np.arange(fixed.size)
        self.weight_in = np.conj(basis[self.nodes, j])[..., None]
        self.weight_out = basis[j, self.cols]
        self.weight_in[1, pairs:n_even] = self.weight_out[1, fixed] = 0.0
        self.gauge = np.exp(1j * np.outer(phases / p, j))
        # real and imaginary part of Q v at the nodes 0, 1, ..., p - 1, 0:
        # the even column's weight is real and the odd column's imaginary
        ring = np.append(j, 0)
        self.ring_cols = self.cols[:, ring]
        self.ring_weight = np.stack([self.weight_out[0].real,
                                     self.weight_out[1].imag])[:, ring, None]
        self.face_weight = faces / h ** 2

    def blocks(self, phases: np.ndarray) -> np.ndarray:
        phi = (phases / self.p)[:, None, None]
        a0, a1, a2 = self.parts
        return a0 + np.cos(phi) * a1 + np.sin(phi) * a2

    def omega2(self, phases: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """The eigenvalue of each unit column v of ``vecs`` (eigenvectors of
        ``blocks(phases)``, shape (phases, p, bands)) as the flux-form
        Rayleigh quotient, shape (phases, bands),

            omega^2 = sum_j f_j |y_j - exp(i phi) y_{j+1}|^2 / h^2

        with y = Q v, whose real and imaginary parts run on a second axis
        in real arithmetic.  Every term is a nonnegative square, and
        y_j - exp(i phi) y_{j+1} is formed as (y_j - y_{j+1}) +
        (1 - exp(i phi)) y_{j+1}, the factor being 2 sin^2(phi / 2) -
        i sin(phi), so omega^2 is accurate to a few eps_mach relative at
        every phase; ``eigh`` gives eigenvalues to about eps_mach |B|
        absolute, too coarse for the acoustic band at small phases.  The
        error of v enters only squared (Parlett, The Symmetric Eigenvalue
        Problem, 1998)."""
        if self.field == "real":
            y = self.ring_weight * vecs[:, self.ring_cols]
        else:
            y = vecs[:, self.ring_cols[0]]      # Q = I
            y = np.stack([y.real, y.imag], axis=1)
        half = (phases / (2 * self.p))[:, None, None, None]
        ahead = y[:, :, 1:]
        diff = y[:, :, :-1] - ahead
        # plus (1 - exp(i phi)) y_{j+1} in real and imaginary part
        diff += 2.0 * np.sin(half) ** 2 * ahead
        diff += np.sin(2.0 * half) * _TURN * ahead[:, ::-1]
        diff *= diff
        return self.face_weight @ (diff[:, 0] + diff[:, 1])

    def to_basis(self, x: np.ndarray) -> np.ndarray:
        """(D Q)^* x for data of shape (phases, p, k)."""
        y = np.conj(self.gauge)[..., None] * x
        w = self.weight_in
        return w[0] * y[:, self.nodes[0]] + w[1] * y[:, self.nodes[1]]

    def to_nodes(self, c: np.ndarray) -> np.ndarray:
        """D Q c for amplitudes of shape (phases, p)."""
        w, cols = self.weight_out, self.cols
        return self.gauge * (w[0] * c[:, cols[0]] + w[1] * c[:, cols[1]])


def _times(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """mat @ z for complex z.  A real ``mat`` multiplies the real and
    imaginary parts side by side in one real product, where matmul would
    promote it to complex."""
    if np.iscomplexobj(mat):
        return mat @ z
    return (mat @ np.ascontiguousarray(z).view(float)).view(complex)


def _parseval_weights(n_cells: int) -> np.ndarray:
    """Weight of each rfft phase across ``n_cells`` periods in Parseval's
    sum: 1 at m = 0 and m = M / 2, whose spectra are their own conjugates,
    and 2 for every other phase, which also stands for its mirror."""
    weight = np.full(n_cells // 2 + 1, 2.0)
    weight[0] = 1.0
    if n_cells % 2 == 0:
        weight[n_cells // 2] = 1.0
    return weight


def _phases_carrying_data(u_hat: np.ndarray, v_hat: np.ndarray, n_cells: int,
                          tau: float, h_hat: np.ndarray | None = None
                          ) -> tuple[np.ndarray, float]:
    """Kept Bloch phases and the share of the data the skipped ones hold.

    Phase m has the bound b_m = w_m (|u_m| + tau |v_m| + tau^2 |h_m| / 2)^2
    from the rfft across the ``n_cells`` periods of the data and of the
    step source (``h_hat`` None for none); w_m is the Parseval weight
    (``_parseval_weights``).  The phases with the smallest bounds (in a
    stable sort) are skipped while their running sum stays at most
    eps_mach^2 sum_m b_m.
    Returns the kept indices in ascending order and the skipped share
    sqrt(sum_skipped b / sum b), at most eps_mach (0 for zero data, which
    keeps no phase).
    """
    norms = np.linalg.norm(u_hat, axis=1) + tau * np.linalg.norm(v_hat, axis=1)
    if h_hat is not None:
        norms += 0.5 * tau ** 2 * np.linalg.norm(h_hat, axis=1)
    bound = _parseval_weights(n_cells) * norms ** 2
    total = np.sum(bound)
    order = np.argsort(bound, kind="stable")
    running = np.cumsum(bound[order])
    # the running sum only grows, so the skipped phases are a prefix of order
    skipped = order[running <= np.finfo(float).eps ** 2 * total]
    kept = np.ones(bound.size, dtype=bool)
    kept[skipped] = False
    share = (math.sqrt(running[skipped.size - 1] / total)
             if skipped.size and total > 0 else 0.0)
    return np.flatnonzero(kept), share


def solve_fine_wave_exact(a_box: np.ndarray, box: TorusGrid, u0: np.ndarray,
                          times, eps: float, v0: np.ndarray | None = None,
                          source: np.ndarray | None = None) -> WaveTrajectory:
    """Displacement snapshots of u_tt = div(a grad u) + h 1[0, 1](t),
    exact in time, for a periodic 1D medium; h is ``source`` (None for none).

    The medium repeats every p = ``box.points_per_period(eps)`` nodes, so a
    discrete Fourier transform across the M = n / p cells of the box splits
    the flux-form operator into one Hermitian p x p block per Bloch phase
    (n_blocks = M // 2 + 1 of them by conjugate symmetry).  Each block that
    carries data is diagonalized, every eigenmode is rotated to all snapshot
    times by ``wave._rotate`` (plus ``wave._step_source`` for its amplitude
    of h), and the displacement snapshots are transformed back.  Blocks are
    diagonalized ``_CHUNK_ENTRIES`` / p^2 phases at a time, so the working
    set stays O(``_CHUNK_ENTRIES`` + snapshots n); ``dt`` is 0 (no step).

    Every block is taken in the gauge y_j = exp(-i theta j / p) x_j and an
    orthonormal basis Q of the cell (``_GaugedBlocks``): the data are
    gathered into it once, each chunk runs one ``eigh``, and each snapshot
    is gathered back and gauged.  When the cell's faces have an exact
    mirror s, faces[(s - 1 - j) % p] == faces[j] for all j (``_mirror``;
    every two-phase laminate has one), reflection composed with conjugation
    is an antiunitary symmetry of every block, and Q is the even/odd basis
    of the node pairs (j, s - j), in which each block is real symmetric: the
    real ``eigh`` applies its real eigenvectors to the real and imaginary
    parts.  A cell without an exact mirror has Q = I and complex Hermitian
    blocks.  ``meta["block_field"]`` records which ("real" or "complex").
    Every omega^2 is the Rayleigh quotient ``_GaugedBlocks.omega2`` of its
    eigenvector, to relative accuracy; ``meta["eigenvalue_correction"]``
    is the largest relative gap to ``eigh``'s own eigenvalue (the constant
    mode of phase 0 left out), the error ``eigh`` alone would have left.

    The trajectory's ``v`` is None.  Without a source the velocity u_t
    solves the same discrete wave equation with data (v0, L u0),
    L = ``FluxFormOperator.apply``, so it is the displacement of a second
    solve from those data.

    The energy log holds the Bloch-space energy of the kept modes at each
    snapshot, E = h / (2 M) sum_m w_m sum_bands (|b|^2 + omega^2 |a|^2), with
    (a, b) the eigenmode amplitudes of (u, u_t) and w_m the Parseval weight.
    Without a source each rotation conserves it, so it is formed once from
    the data, and ``meta["energy_t0"]`` is ``FluxFormOperator.energy(u0, v0)``:
    ``energy_drift`` measures how far the blocks agree with the flux-form
    operator, plus the energy of the skipped phases.  A sourced run has no
    ``energy_t0``; its energy is constant once t >= 1.

    Phase m gets the bound b_m = w_m (|u_m| + tau |v_m| + tau^2 |h_m| / 2)^2
    from its Bloch data, with tau = max(t_max, 1 / sqrt(Lambda)) and
    Lambda = 2 max(f_j + f_{j-1}) / h^2 the Gershgorin bound of the blocks
    (so velocity data count at t_max = 0).  The smallest bounds are skipped
    (neither built, diagonalized nor rotated) while their sum stays within
    eps_mach^2 sum_m b_m.  A block evolves unitarily and the step response
    (cos omega (t - s) - cos omega t) / omega^2 is at most t^2 / 2, so by
    Parseval the skipped phases hold at every snapshot time t <= t_max

        |u_skipped(t)|_2 <= eps_mach (|u0|_2 + tau |v0|_2 + tau^2 |h|_2 / 2),

    the roundoff of the forward transform itself (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm. 24.2).  ``meta`` records
    ``blocks`` (n_blocks), ``blocks_solved`` and ``skipped_share``,
    sqrt(sum_skipped b / sum b) <= eps_mach, the factor that replaces
    eps_mach in the bound.
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
    if source is not None and np.shape(source) != box.shape:
        raise ConfigurationError("source shape does not match box")

    faces = _face_harmonic(a, 0)[:p]
    n_blocks = n_cells // 2 + 1
    u_hat = np.fft.rfft(u.reshape(n_cells, p), axis=0)
    v_hat = np.fft.rfft(v.reshape(n_cells, p), axis=0)
    h_hat = (None if source is None
             else np.fft.rfft(np.reshape(source, (n_cells, p)), axis=0))
    lam_bound = 2.0 * np.max(np.abs(faces) + np.abs(np.roll(faces, 1))) / box.h ** 2
    kept, share = _phases_carrying_data(
        u_hat, v_hat, n_cells, max(times[-1], 1.0 / np.sqrt(lam_bound)), h_hat)
    phases = 2.0 * np.pi * kept / n_cells
    weight = _parseval_weights(n_cells)[kept]
    basis = _GaugedBlocks(faces, box.h, phases)
    u_hat = basis.to_basis(u_hat[kept, :, None])
    v_hat = basis.to_basis(v_hat[kept, :, None]) if np.any(v) else None
    h_hat = None if h_hat is None else basis.to_basis(h_hat[kept, :, None])
    ut_hat = np.empty((times.size, kept.size, p), dtype=complex)
    # kept-mode energy: per phase at t = 0, or per snapshot with a source
    mode_energy = np.empty(kept.size) if h_hat is None else np.zeros(times.size)
    chunk = max(1, _CHUNK_ENTRIES // p ** 2)
    correction = 0.0
    for start in range(0, kept.size, chunk):
        sl = slice(start, start + chunk)
        lam, vecs = np.linalg.eigh(basis.blocks(phases[sl]))
        omega2 = basis.omega2(phases[sl], vecs)
        gap = np.abs(lam - omega2) / np.maximum(omega2, np.finfo(float).tiny)
        if phases[start] == 0.0:
            gap[0, 0] = 0.0     # the constant mode, omega = 0
        correction = max(correction, float(np.max(gap)))
        omega = np.sqrt(omega2)[..., None]
        # eigenmode amplitudes of the data
        adjoint = np.conj(np.swapaxes(vecs, 1, 2))
        a_m = _times(adjoint, u_hat[sl])
        b_m = None if v_hat is None else _times(adjoint, v_hat[sl])
        if h_hat is not None:
            free = _rotate(a_m, 0.0 if b_m is None else b_m, omega, times)
            forced = _step_source(_times(adjoint, h_hat[sl]), omega, times)
            a_t, b_t = free[0] + forced[0], free[1] + forced[1]
            mode_energy += np.sum(weight[sl, None, None] * (
                np.abs(b_t) ** 2 + omega ** 2 * np.abs(a_t) ** 2), axis=(0, 1))
        else:
            energy = omega ** 2 * np.abs(a_m) ** 2
            if b_m is None:
                a_t = _rotate(a_m, None, omega, times)
            else:
                energy += np.abs(b_m) ** 2
                a_t = _rotate(a_m, b_m, omega, times)[0]
            mode_energy[sl] = weight[sl] * np.sum(energy, axis=(1, 2))
        ut_hat[:, sl] = np.moveaxis(_times(vecs, a_t), -1, 0)

    # one snapshot at a time, the kept phases scattered into one zero-filled
    # spectrum: no full-size temporary besides the output
    u_t = np.empty((times.size,) + box.shape)
    full = np.zeros((n_blocks, p), dtype=complex)
    for i in range(times.size):
        full[kept] = basis.to_nodes(ut_hat[i])
        u_t[i].reshape(n_cells, p)[...] = np.fft.irfft(full, n=n_cells, axis=0)
    meta = {"solver": "bloch-exact", "blocks": n_blocks,
            "blocks_solved": int(kept.size), "skipped_share": share,
            "block_size": p, "block_field": basis.field,
            "eigenvalue_correction": correction}
    if h_hat is None:
        energy = np.full(times.size, box.h / (2 * n_cells) * float(np.sum(mode_energy)))
        meta["energy_t0"] = FluxFormOperator(box, a_box).energy(u, v)
    else:
        energy = box.h / (2 * n_cells) * mode_energy
    return WaveTrajectory(box=box, eps=eps, times=times, u=u_t, v=None, dt=0.0,
                          energy=energy, meta=meta)
