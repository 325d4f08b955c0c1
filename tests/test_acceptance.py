"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

Exact algebraic identities are checked at their stated tolerances; the
asymptotic statements are checked as empirical rates at desk scale.  The
heavier wave runs share module-scoped fixtures.
"""

import numpy as np
import pytest

from homwave import bloch, correctors, dispersion, elliptic, oracle1d, torus, transport, wave

SMOOTH2D = {"kind": "trig_checkerboard", "base": 2.0, "amplitude": 1.0}
LAMINATE = {"kind": "laminate", "values": [1.0, 4.0], "volume_fraction": 0.5}
LAM_PROFILE = oracle1d.Profile1D(breakpoints=[0.0, 0.5, 1.0], values=[1.0, 4.0])


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def smooth64():
    grid = torus.TorusGrid(2, 64)
    return torus.coefficient_from_spec(SMOOTH2D, grid)


@pytest.fixture(scope="module")
def smooth64_l5(smooth64):
    return correctors.build_hierarchy(smooth64, [1.0, 0.0], 5)


@pytest.fixture(scope="module")
def laminate_oracle():
    return oracle1d.correctors_1d(LAM_PROFILE, 5)


@pytest.fixture(scope="module")
def wave_compare_runs(laminate_oracle):
    """Fine laminate runs on L = 64 with snapshots at 1..8 and at 2/eps,
    exact in time (Bloch blocks), so only the model error is measured."""
    side = 64.0
    runs = {}
    for eps in (1 / 8, 1 / 16, 1 / 32):
        n = int(16 * side / eps)
        box = torus.TorusGrid(1, n, side)
        x = wave.box_coordinates(box)[0]
        u0 = np.exp(-0.5 * (x - 0.5 * side) ** 2)
        a_box = wave.coefficient_on_box(LAMINATE, box, eps)
        times = [float(t) for t in range(1, 9)] + [2.0 / eps]
        traj = bloch.solve_fine_wave_exact(a_box, box, u0, times, eps)
        runs[eps] = (box, u0, traj)
    return runs


def test_criterion_1_corrector_algebra(smooth64_l5):
    rep = correctors.verify_corrector_identities(smooth64_l5)
    odd = max(rep.odd_lambda[j] for j in (1, 3))
    ok = (odd <= 1e-8
          and rep.lambda2_gap <= 1e-8
          and rep.lambda2_quadratic >= -1e-10
          and rep.lambda4_gap <= 1e-7)
    report("criterion 1 (corrector algebra)", ok,
           f"odd |lambda|/lambda0 = {odd:.2e}, lambda2 gap = "
           f"{rep.lambda2_gap:.2e}, lambda2 = {rep.lambda2_quadratic:.3e}, "
           f"lambda4 gap = {rep.lambda4_gap:.2e}")
    assert ok


def test_criterion_2_eigendefect_identity():
    residuals = {}
    for n in (32, 64):
        grid = torus.TorusGrid(2, n)
        a = torus.coefficient_from_spec(SMOOTH2D, grid)
        for ell in (2, 3):
            h = correctors.build_hierarchy(a, [1.0, 0.0], ell)
            for kappa in (0.1, 0.3, 0.5):
                residuals[(n, ell, kappa)] = dispersion.eigendefect_residual(
                    h, kappa, refine=2)
    worst64 = max(v for (n, _, _), v in residuals.items() if n == 64)
    drops = [residuals[(32, ell, kap)] / residuals[(64, ell, kap)]
             for ell in (2, 3) for kap in (0.1, 0.3, 0.5)]
    ok = worst64 <= 1e-8 and min(drops) >= 10.0
    report("criterion 2 (eigendefect identity)", ok,
           f"max residual at 64^2 = {worst64:.2e}, min refinement drop = "
           f"{min(drops):.1f}x")
    assert ok


def test_criterion_3_oracle_equivalence(laminate_oracle):
    grid = torus.TorusGrid(1, 1024)
    a = torus.coefficient_from_spec(LAMINATE, grid)
    h = correctors.build_hierarchy(a, [1.0], 5)
    rep = oracle1d.compare_with_spectral(LAM_PROFILE, h)
    worst = max(rep["lambda_gap"][j] for j in range(5))
    exact0 = abs(laminate_oracle.lambdas[0] - 1.6)
    ok = worst <= 1e-6 and exact0 < 1e-13
    report("criterion 3 (oracle equivalence)", ok,
           f"max lambda gap (j <= 4) = {worst:.2e}, oracle a0 - 1.6 = {exact0:.1e}")
    assert ok


def test_criterion_4_long_time_wave(wave_compare_runs, laminate_oracle):
    eps_list = [1 / 8, 1 / 16, 1 / 32]
    m2 = dispersion.DispersionModel.from_oracle(laminate_oracle, 2)
    m4 = dispersion.DispersionModel.from_oracle(laminate_oracle, 4)
    sups = []
    long_ok = True
    long_detail = []
    for eps in eps_list:
        box, u0, traj = wave_compare_runs[eps]
        u2 = wave.homogenized_wave_field(m2, u0, box, eps,
                                         traj.times[:8])
        u4 = wave.homogenized_wave_field(m4, u0, box, eps,
                                         traj.times[:9])
        errs2 = [torus.l2_norm(box, traj.u[i] - u2[i]) for i in range(8)]
        errs4 = [torus.l2_norm(box, traj.u[i] - u4[i]) for i in range(8)]
        sups.append(max(errs2))
        e_long = torus.l2_norm(box, traj.u[8] - u4[8])
        long_ok = long_ok and e_long <= 2.0 * max(errs4)
        long_detail.append(f"{e_long / max(errs4):.2f}")
    order = float(np.polyfit(np.log(eps_list), np.log(sups), 1)[0])
    ok = order >= 0.9 and long_ok
    report("criterion 4 (long-time wave)", ok,
           f"fitted order = {order:.3f}, long-time/fixed-T ratios = "
           f"{long_detail} (all <= 2)")
    assert ok


def test_criterion_5_boussinesq_consistency(laminate_oracle, smooth64):
    m4 = dispersion.DispersionModel.from_oracle(laminate_oracle, 4)
    bt = wave.boussinesq_decomposition(m4)
    lam0, lam2 = laminate_oracle.lambdas[0], laminate_oracle.lambdas[2]
    # Omega(k)^2 = lam0 k^2 + (c - beta lam0) k^4 + O(k^6)
    gap_k2 = 0.0  # the k^2 coefficient is lam0 exactly by construction
    gap_k4 = abs(float(bt.c_coeffs[0]) - bt.beta * lam0 + lam2)
    model2d = correctors.reconstruct_dispersion(smooth64, 3)
    bt2d = wave.boussinesq_decomposition(model2d)
    ok = (gap_k2 <= 1e-10 and gap_k4 <= 1e-10
          and bt.identity_residual <= 1e-10
          and bt2d.identity_residual <= 1e-10
          and bt.c_min_on_directions >= -1e-12 and bt.beta >= 0
          and bt2d.c_min_on_directions >= -1e-12 and bt2d.beta >= 0)
    report("criterion 5 (dispersive splitting)", ok,
           f"k^4 coefficient gap = {gap_k4:.1e}, identity residuals = "
           f"{bt.identity_residual:.1e}/{bt2d.identity_residual:.1e}, "
           f"min c on 64 directions = {min(bt.c_min_on_directions, bt2d.c_min_on_directions):.1e}")
    assert ok


def test_criterion_6_elliptic_rates():
    eps_list = [1 / 8, 1 / 16, 1 / 32]
    prepared = elliptic.elliptic_error_sweep_1d(LAM_PROFILE, 2, eps_list,
                                                mode="prepared")
    plain = elliptic.elliptic_error_sweep_1d(LAM_PROFILE, 2, eps_list,
                                             mode="plain")
    ok = prepared.fitted_order >= 1.8 and plain.fitted_order >= 1.8
    report("criterion 6 (elliptic rates)", ok,
           f"prepared order = {prepared.fitted_order:.3f}, plain order = "
           f"{plain.fitted_order:.3f}")
    assert ok


def test_criterion_7_residuum_identities(smooth64):
    tens = correctors.tensorize_correctors(smooth64, 2)
    model = correctors.reconstruct_dispersion(smooth64, 2, tensors=tens)
    grid = smooth64.grid
    x, y = (np.broadcast_to(ax, grid.shape) for ax in grid.coordinate_axes())
    v = np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y) + 0.5 * np.cos(
        2 * np.pi * (x + y))
    rep = elliptic.residuum_identities(smooth64, tens, model, v, 2)
    worst = max(rep.second_order, rep.full, rep.raw)
    ok = worst <= 1e-7
    report("criterion 7 (residuum identities)", ok,
           f"max two-sided residual = {worst:.2e} "
           f"(compact {rep.second_order:.1e}, full {rep.full:.1e}, raw {rep.raw:.1e})")
    assert ok


def test_criterion_8_transport(laminate_oracle):
    # homogeneous medium: ballistic rate constant after removing the O(1)
    # window offset (the moment at zero offset is itself of order one)
    box = torus.TorusGrid(1, 2048, 48.0)
    scan = transport.constant_medium_moment_scan(box, 1.0, [1, 2, 4, 8])
    offset, slope, per_T = transport.affine_ballistic_fit(
        list(scan.windowed), list(scan.windowed.values()))
    flat = float(np.max(np.abs(per_T / slope - 1.0)))
    g = transport.gaussian_data(box, 1.0)
    m0 = transport.transport_moment(g, box, 1.0)
    m0_ok = abs(m0 - 1.21775) / 1.21775 <= 0.01

    big = torus.TorusGrid(1, 16384, 64.0)
    rep = transport.ballistic_experiment(
        LAMINATE, big, [1 / 8, 1 / 16], 0.0, 1.0, 2,
        gamma_bar=float(laminate_oracle.lambdas[0]))
    ratios = [r.ratio for r in rep.rows]
    lam_ok = ratios[1] >= 0.8 * ratios[0] and all(r.valid for r in rep.rows)

    ok = flat <= 0.25 and m0_ok and lam_ok
    report("criterion 8 (transport)", ok,
           f"rate flatness = {flat:.3f} (<= 0.25), M(1,0) = {m0:.5f} "
           f"(target 1.21775), laminate ratios = {ratios[0]:.3f} -> {ratios[1]:.3f}")
    assert ok


def test_criterion_9_source_term(laminate_oracle):
    side = 32.0
    ell = 2
    oh = laminate_oracle
    model = dispersion.DispersionModel.from_oracle(oh, ell)
    T = 4.0
    times = [1.0, 2.0, 3.0, 4.0]
    eps_list = [1 / 8, 1 / 16, 1 / 32]
    l2_sups = []
    energy_ok = True
    energy_detail = ""
    for eps in eps_list:
        n = int(16 * side / eps)
        box = torus.TorusGrid(1, n, side)
        x = wave.box_coordinates(box)[0]
        # the step source h 1[0, 1](t), solved exactly in time on both sides
        h = np.sin(2 * np.pi * x / side)
        a_box = wave.coefficient_on_box(LAMINATE, box, eps)
        zero = np.zeros(box.shape)
        traj = bloch.solve_fine_wave_exact(a_box, box, zero, times, eps,
                                           source=h)
        u_hat, ut_hat = wave.source_term_field(model, h, box, eps, times)
        u_simpl = torus.irfftn(box, u_hat)
        l2_sups.append(max(torus.l2_norm(box, traj.u[i] - u_simpl[i])
                           for i in range(len(times))))
        if eps == eps_list[0]:
            bc = wave.BoxCorrectors.from_oracle(oh, box, eps)
            i_T = times.index(T)
            # once the source has stopped, u_t(T) = W(T) - W(T - 1) with W
            # the source-free wave from (0, h)
            w = bloch.solve_fine_wave_exact(a_box, box, zero, [T - 1.0, T],
                                            eps, v0=h).u
            v_T = w[1] - w[0]
            ut_dress = wave.dress_with_correctors(
                bc, torus.DerivativeCache(box, ut_hat[i_T]))
            grad_dress = wave.dressed_gradient(
                bc, torus.DerivativeCache(box, u_hat[i_T]))
            dv = v_T - ut_dress
            dg = torus.gradient_values(box, traj.u[i_T]) - grad_dress
            e_err = np.sqrt(torus.l2_norm(box, dv) ** 2
                            + torus.l2_norm(box, dg) ** 2)
            e_ref = np.sqrt(torus.l2_norm(box, v_T) ** 2
                            + torus.l2_norm(box, torus.gradient_values(
                                box, traj.u[i_T])) ** 2)
            bound = 3.0 * float(wave.error_budget(ell, eps, T))
            energy_ok = (e_err / e_ref) <= bound
            energy_detail = f"energy err rel = {e_err / e_ref:.3f} <= {bound:.3f}"
    order = float(np.polyfit(np.log(eps_list), np.log(l2_sups), 1)[0])
    ok = energy_ok and order >= 0.9
    report("criterion 9 (source term)", ok,
           f"{energy_detail}, simplified L2 order = {order:.3f}")
    assert ok


def test_criterion_10_structure_suite(smooth64_l5):
    checks = {}

    # hierarchy structure on the three configured fields
    for tag, spec_dict, dim, n, ell in (
            ("smooth", SMOOTH2D, 2, 64, 4),
            ("laminate", LAMINATE, 1, 1024, 3),
            ("constant", {"kind": "constant", "value": 1.0}, 2, 32, 3)):
        if tag == "smooth":
            h = smooth64_l5
        else:
            grid = torus.TorusGrid(dim, n)
            a = torus.coefficient_from_spec(spec_dict, grid)
            e = [1.0] if dim == 1 else [1.0, 0.0]
            h = correctors.build_hierarchy(a, e, ell)
        inv = correctors.hierarchy_invariants(h)
        checks[f"{tag}: skew"] = inv["skew_gap"] == 0.0
        checks[f"{tag}: flux exactness"] = inv["flux_exactness"] <= 1e-9
        checks[f"{tag}: q resolved"] = inv["q_nyquist"] <= 1e-9
        checks[f"{tag}: mean q"] = inv["mean_q"] <= 1e-12
        checks[f"{tag}: lambda0 >= 1"] = inv["lambda0"] >= 1.0

    # order consistency (bitwise across truncation orders)
    grid = torus.TorusGrid(1, 512)
    a = torus.coefficient_from_spec(LAMINATE, grid)
    h3 = correctors.build_hierarchy(a, [1.0], 3)
    h2 = correctors.build_hierarchy(a, [1.0], 2)
    checks["order consistency"] = all(
        np.array_equal(h3.phi[j], h2.phi[j]) for j in range(3))

    # L2 energy estimate and invariant on a leapfrog run
    eps = 1 / 8
    box = torus.TorusGrid(1, int(16 * 64.0 / eps), 64.0)
    x = wave.box_coordinates(box)[0]
    u0 = np.exp(-0.5 * (x - 32.0) ** 2)
    a_box = wave.coefficient_on_box(LAMINATE, box, eps)
    traj = wave.solve_fine_wave(a_box, box, u0, times=range(1, 9), eps=eps)
    norm0 = torus.l2_norm(box, u0)
    checks["energy estimate"] = all(
        torus.l2_norm(box, traj.u[i]) <= norm0 * (1 + 1e-6)
        for i in range(traj.times.size))
    checks["leapfrog invariant"] = traj.energy_drift() <= 1e-6

    # spectral propagator time reversibility
    oh = oracle1d.correctors_1d(LAM_PROFILE, 2)
    model = dispersion.DispersionModel.from_oracle(oh, 2)
    small = torus.TorusGrid(1, 1024, 32.0)
    xs = wave.box_coordinates(small)[0]
    us = np.exp(-0.5 * (xs - 16.0) ** 2)
    w, om = wave.filtered_dispersion(model, small, 0.25)
    u1, v1 = wave.spectral_wave_state(w, om, us, small, [4.0])
    u2, _ = wave.spectral_wave_state(np.ones_like(w), om, u1[0], small, [-4.0],
                                     v0=v1[0])
    ref = wave.homogenized_wave_field(model, us, small, 0.25, [0.0])[0]
    checks["time reversibility"] = bool(np.max(np.abs(u2[0] - ref)) < 1e-12)

    # determinism: rebuilding gives bit-identical results
    h3b = correctors.build_hierarchy(a, [1.0], 3)
    checks["determinism"] = all(
        np.array_equal(h3.phi[j], h3b.phi[j]) for j in range(4))

    ok = all(checks.values())
    failing = [k for k, v in checks.items() if not v]
    report("criterion 10 (structure suite)", ok,
           "all structural checks passed" if ok else f"failing: {failing}")
    assert ok
