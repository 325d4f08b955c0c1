"""Experiment driver: config validation, runs, manifests, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from homwave import cli, correctors, dispersion, oracle1d, torus, wave
from homwave.cli import ExperimentConfig, config_hash, load_config, run, validate

EPS_MACH = float(np.finfo(float).eps)
ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(kwargs, fh)
    return str(path)


class TestValidate:
    def test_missing_eps_list_is_error(self):
        cfg = ExperimentConfig(kind="wave-compare",
                               coefficient={"kind": "constant", "value": 1.0})
        assert any("eps_list" in m for m in validate(cfg))

    @pytest.mark.parametrize("kind", ["wave-compare", "elliptic-rate",
                                      "transport"])
    def test_single_eps_is_error(self, kind, tmp_path):
        # an order fitted through one point, or a ratio of eps to itself,
        # measures nothing
        cfg = ExperimentConfig(kind=kind,
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               eps_list=[0.125], out_dir=str(tmp_path / "out"))
        assert any("two eps" in m for m in validate(cfg))
        assert run(cfg) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eps_list", [[], [0.125, 0.0625]])
    def test_source_term_needs_one_eps(self, eps_list, tmp_path):
        # it runs at one eps: an empty list or the eps after the first would
        # be ignored
        cfg = ExperimentConfig(kind="source-term",
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               eps_list=eps_list, out_dir=str(tmp_path / "out"))
        assert any("exactly one eps" in m for m in validate(cfg))
        assert run(cfg) == 2
        assert not (tmp_path / "out").exists()

    def test_valid_config_is_clean(self):
        cfg = ExperimentConfig(kind="correctors",
                               coefficient={"kind": "constant", "value": 1.0},
                               dim=2, grid_n=16, ell=2)
        assert validate(cfg) == []

    @pytest.mark.parametrize("cfg, message", [
        # 16 points per period 0.2 make a 1280-point box, which no run builds
        (dict(kind="wave-compare", eps_list=[0.2, 0.1], box_side=16.0),
         "got 1280"),
        (dict(kind="wave-compare", eps_list=[0.25, 0.0]), "eps must be positive"),
        (dict(kind="transport", eps_list=[0.25, 0.0]), "eps must be positive"),
        # transport runs every eps on the box of the smallest, here 1024
        # points: 1/3 divides its side but not its points
        (dict(kind="transport", eps_list=[1 / 3, 1 / 4], box_side=16.0),
         "48 periods do not divide 1024 points"),
    ])
    def test_validate_checks_the_boxes_the_run_builds(self, cfg, message,
                                                      tmp_path):
        cfg = ExperimentConfig(coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               out_dir=str(tmp_path / "out"), **cfg)
        assert any(message in m for m in validate(cfg))
        assert run(cfg) == 2
        assert not (tmp_path / "out").exists()

    def test_nondecreasing_eps_rejected(self):
        cfg = ExperimentConfig(kind="elliptic-rate",
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               eps_list=[0.125, 0.25])
        assert any("decreasing" in m for m in validate(cfg))

    @pytest.mark.parametrize("cfg, message", [
        # the box kinds sample a(x / eps) at 16 points per period or more
        (dict(kind="wave-compare", eps_list=[0.25, 0.125],
              points_per_period=8), "points_per_period 8 is below 16"),
        (dict(kind="wave-compare", dim=2, eps_list=[0.25, 0.125]),
         "wave-compare needs dim 1, got 2"),
        (dict(kind="wave-compare", eps_list=[0.25, 0.125],
              coefficient={"kind": "laminate", "values": [1.0, 4.0],
                           "period": 0.5}),
         "the 1D oracle needs coefficient period 1"),
        (dict(kind="elliptic-rate", eps_list=[0.25, 0.125], box_side=1.0,
              coefficient={"kind": "raw", "values": [[[1.0] * 8]]}),
         "no 1D profile for coefficient kind 'raw'"),
        (dict(kind="correctors", dim=3, grid_n=8), "dim must be 1 or 2, got 3"),
        # a mistyped mode would run the plain sweep in place of the prepared
        (dict(kind="elliptic-rate", eps_list=[0.25, 0.125], box_side=1.0,
              mode="prepard"), "mode must be prepared or plain, got 'prepard'"),
        (dict(kind="elliptic-rate", eps_list=[0.25, 0.125], box_side=1.0,
              operator="boussinesque"),
         "operator must be regularized or boussinesq, got 'boussinesque'"),
        # box_n was a second box-size knob beside points_per_period
        (dict(kind="wave-compare", eps_list=[0.25, 0.125], box_n=1024),
         "unknown config keys: ['box_n']"),
        # the hierarchy orders the corrector builds reject
        (dict(kind="correctors", dim=1, grid_n=16, ell=0),
         "hierarchy order must be >= 1"),
        (dict(kind="elliptic-rate", eps_list=[0.25, 0.125], box_side=1.0,
              ell=0), "order must be >= 1"),
        (dict(kind="wave-compare", eps_list=[0.25, 0.125], ell=7),
         "1D oracle supports orders up to 6"),
        # the wave kinds build the order they are given: no order-2 model
        # stands in for an order below 1
        (dict(kind="wave-compare", eps_list=[0.25, 0.125], ell=0),
         "order must be >= 1"),
        (dict(kind="transport", eps_list=[0.25, 0.125], ell=-3),
         "order must be >= 1"),
        # an order-2 fit in 2D reads its odd orders on 4 directions; 0 ran
        # the default 8 while the hash recorded 0, and 2 stopped the run
        # after it made its directory
        *[(dict(kind="dispersion", dim=2, grid_n=16, ell=2, directions=n,
                coefficient={"kind": "constant", "value": 1.0}),
           "need at least 4 directions for order 2") for n in (2, 0, -3)],
        # snapshots are taken at t = 1, ..., floor(T)
        (dict(kind="wave-compare", eps_list=[0.25, 0.125], T=0.5),
         "T 0.5 is below 1"),
        # catalog specs are read field by field, before anything is sampled
        (dict(kind="wave-compare", eps_list=[0.25, 0.125],
              coefficient={"kind": "laminate", "value": [1.0, 4.0]}),
         "a laminate coefficient needs ['values']"),
        (dict(kind="correctors", dim=1, grid_n=16,
              coefficient={"kind": "laminate", "value": [1.0, 4.0]}),
         "a laminate coefficient needs ['values']"),
        (dict(kind="correctors", dim=1, grid_n=16,
              coefficient={"kind": "laminate", "values": [1.0, 4.0],
                           "axis": 1}), "laminate axis 1 outside [0, 1)"),
        # catalog fields the run cannot use: a NaN value (json reads NaN)
        # gave fitted order nan, an empty phase gave NaN, a fraction past 1
        # built the oracle on non-monotone breaks, period 0 ran the CG to
        # its budget, and a checkerboard dipping below 1 failed on kmax
        (dict(kind="elliptic-rate", eps_list=[0.25, 0.125], box_side=1.0,
              coefficient={"kind": "laminate", "values": [float("nan"), 4.0]}),
         "laminate coefficient field 'values' must be finite"),
        *[(dict(kind=kind, eps_list=[0.25, 0.125], box_side=1.0,
                coefficient={"kind": "laminate", "values": [1.0, 4.0],
                             "volume_fraction": vf}),
           f"field 'volume_fraction' = {vf:g} outside (0, 1)")
          for kind, vf in [("elliptic-rate", 0), ("elliptic-rate", 1),
                           ("wave-compare", 1.5), ("elliptic-rate", -0.2)]],
        (dict(kind="correctors", dim=1, grid_n=16,
              coefficient={"kind": "laminate", "values": [1.0, 4.0],
                           "period": 0}),
         "laminate coefficient field 'period' = 0 outside (0, inf)"),
        *[(dict(kind=kind, eps_list=[0.25, 0.125], box_side=1.0,
                coefficient={"kind": "trig_checkerboard", "base": 1,
                             "amplitude": 2}),
           "trig_checkerboard coefficient has a below 1: "
           "base - |amplitude| = -1") for kind in ("elliptic-rate",
                                                   "wave-compare")],
        # config numbers json reads as NaN or Infinity, or a fractional
        # order: each ended in a traceback, fitted order -0.000124, or an
        # empty output directory
        *[(dict(kind=kind, eps_list=[0.25, 0.125], **{key: value}),
           f"{key} must be finite, got {value!r}")
          for kind, key, value in [
              ("wave-compare", "T", float("nan")),
              ("wave-compare", "T", float("inf")),
              ("wave-compare", "box_side", float("nan")),
              ("wave-compare", "kmax_cap", float("nan")),
              ("wave-compare", "kmax_cap", float("inf")),
              ("transport", "T", float("nan")),
              ("transport", "T", float("inf")),
              ("transport", "gamma", float("nan"))]],
        (dict(kind="elliptic-rate", eps_list=[0.25, 0.125], box_side=1.0,
              ell=2.5), "ell must be an integer, got 2.5"),
        (dict(kind="wave-compare", eps_list=0.25),
         "eps_list must be a list of numbers, got 0.25"),
    ], ids=["points-per-period-8", "dim-2-wave-compare", "laminate-period",
            "raw-elliptic-rate", "dim-3-correctors", "mode", "operator",
            "box-n", "correctors-ell-0", "elliptic-rate-ell-0",
            "wave-compare-ell-7", "wave-compare-ell-0", "transport-ell-neg-3",
            "dispersion-directions-2", "dispersion-directions-0",
            "dispersion-directions-neg-3", "wave-compare-T-below-1",
            "laminate-value-wave-compare", "laminate-value-correctors",
            "laminate-axis-outside-dim", "laminate-nan-value",
            "volume-fraction-0", "volume-fraction-1", "volume-fraction-1.5",
            "volume-fraction-negative", "laminate-period-0",
            "checkerboard-below-1-elliptic-rate",
            "checkerboard-below-1-wave-compare",
            "wave-compare-T-nan", "wave-compare-T-inf",
            "wave-compare-box-side-nan", "wave-compare-kmax-cap-nan",
            "wave-compare-kmax-cap-inf", "transport-T-nan", "transport-T-inf",
            "transport-gamma-nan", "elliptic-rate-ell-2.5",
            "eps-list-not-a-list"])
    def test_the_run_rejects_what_validate_reports(self, cfg, message,
                                                    tmp_path, capsys):
        cfg.setdefault("coefficient", {"kind": "laminate",
                                       "values": [1.0, 4.0]})
        path = write_config(tmp_path, out_dir=str(tmp_path / "out"), **cfg)
        assert cli.main(["validate", "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert cli.main([cfg["kind"], "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_correctors_constant_all_pass(self, tmp_path):
        cfg = ExperimentConfig(kind="correctors",
                               coefficient={"kind": "constant", "value": 1.0},
                               dim=2, grid_n=16, ell=3,
                               out_dir=str(tmp_path / "out"))
        status = run(cfg)
        assert status == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["pass"]
        table = (tmp_path / "out" / "lambda_table.csv").read_text()
        lines = [l for l in table.splitlines() if l and not l.startswith("#")]
        # order-0 coefficient is 1; all higher coefficients vanish
        assert float(lines[1].split(",")[2].split()[0]) == pytest.approx(1.0)
        for line in lines[2:]:
            coeffs = [float(c) for c in line.split(",")[2].split()]
            assert max(abs(c) for c in coeffs) < 1e-10

    def test_reruns_are_byte_identical(self, tmp_path):
        base = dict(kind="elliptic-rate",
                    coefficient={"kind": "laminate", "values": [1.0, 4.0]},
                    ell=2, eps_list=[0.25, 0.125], box_side=1.0)
        cfg1 = ExperimentConfig(**base, out_dir=str(tmp_path / "a"))
        cfg2 = ExperimentConfig(**base, out_dir=str(tmp_path / "b"))
        assert run(cfg1) == 0 and run(cfg2) == 0
        csv_a = (tmp_path / "a" / "elliptic_rates.csv").read_bytes()
        csv_b = (tmp_path / "b" / "elliptic_rates.csv").read_bytes()
        # out_dir is not hashed, so the config header lines agree too
        assert csv_a == csv_b

    def test_correctors_record_cg_per_level_and_coefficient(self, tmp_path):
        cfg = ExperimentConfig(kind="correctors",
                               coefficient={"kind": "trig_checkerboard",
                                            "base": 2.0, "amplitude": 1.0},
                               dim=2, grid_n=16, ell=3,
                               out_dir=str(tmp_path))
        run(cfg)
        solver = json.loads((tmp_path / "manifest.json").read_text())["solver"]
        # one solve per monomial coefficient e1^(j-r) e2^r of phi_j, each
        # started from the 8^2 grid, where the checkerboard is resolved and
        # which is solved directly, so CG takes no iteration there
        assert solver["direct_grid"] == 8
        assert [entry["level"] for entry in solver["levels"]] == [1, 2, 3]
        for j, entry in enumerate(solver["levels"], start=1):
            assert len(entry["cg_iterations"]) == j + 1
            assert len(entry["cg_residual"]) == j + 1
            assert max(entry["cg_residual"]) <= torus.CG_TOL
            assert list(entry["coarse_cg_iterations"]) == ["8"]
            assert entry["coarse_cg_iterations"]["8"] == [0] * (j + 1)
        assert solver["pcg_solves"] == 2 + 3 + 4
        assert solver["cg_iterations_total"] == sum(
            sum(entry["cg_iterations"]) for entry in solver["levels"])
        assert solver["coarse_cg_iterations_total"] == {"8": sum(
            sum(entry["coarse_cg_iterations"]["8"])
            for entry in solver["levels"])}
        a = torus.coefficient_from_spec(cfg.coefficient,
                                        torus.TorusGrid(cfg.dim, cfg.grid_n))
        tens = correctors.tensorize_correctors(a, cfg.ell)
        assert [entry["cg_iterations"] for entry in solver["levels"]] == (
            tens.cg_iterations)
        assert [entry["coarse_cg_iterations"]["8"]
                for entry in solver["levels"]] == [
            [start[8] for start in starts]
            for starts in tens.cg_coarse_iterations]

    def test_correctors_sixth_order(self, tmp_path):
        cfg = ExperimentConfig(kind="correctors",
                               coefficient={"kind": "trig_checkerboard",
                                            "base": 2.0, "amplitude": 1.0},
                               dim=2, grid_n=64, ell=6,
                               out_dir=str(tmp_path))
        assert run(cfg) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        checks = {c["name"]: c for c in manifest["checks"]}
        assert checks["lambda4_two_ways"]["threshold"] == 1e-7
        assert all(c["pass"] for c in checks.values())
        assert manifest["solver"]["pcg_solves"] == 27
        rows = (tmp_path / "lambda_table.csv").read_text().splitlines()[2:]
        assert [len(row.split(",")[2].split()) for row in rows] == [
            3, 4, 5, 6, 7, 8]

    def test_under_resolved_correctors_fail_the_resolution_check(self, tmp_path):
        cfg = ExperimentConfig(kind="correctors",
                               coefficient={"kind": "trig_checkerboard",
                                            "base": 2.0, "amplitude": 1.0},
                               dim=2, grid_n=32, ell=3, directions=7,
                               out_dir=str(tmp_path))
        assert run(cfg) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        failed = [c["name"] for c in manifest["checks"] if not c["pass"]]
        assert failed == ["q_nyquist"]

    @pytest.mark.parametrize("error", [
        torus.ConvergenceError, torus.SolvabilityError,
        correctors.ReconstructionError, wave.PositivityError])
    def test_numerical_failure_exits_one_with_manifest(self, tmp_path,
                                                       monkeypatch, error):
        def failing_runner(cfg, out, man):
            man.check("before_failure", 0.0, 1.0)
            raise error("solver gave up")

        monkeypatch.setitem(cli.RUNNERS, "correctors", failing_runner)
        cfg = ExperimentConfig(kind="correctors",
                               coefficient={"kind": "constant", "value": 1.0},
                               dim=2, grid_n=16)
        assert run(cfg, str(tmp_path)) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert not manifest["pass"]
        first, failure = manifest["checks"]
        assert first["pass"] and not failure["pass"]
        assert failure["error"] == error.__name__
        assert failure["message"] == "solver gave up"

    def test_dispersion_run_emits_curves(self, tmp_path):
        cfg = ExperimentConfig(kind="dispersion",
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               dim=1, grid_n=256, ell=2,
                               out_dir=str(tmp_path / "out"))
        assert run(cfg) == 0
        assert (tmp_path / "out" / "dispersion_curves.csv").exists()

    def test_dispersion_honours_directions(self, tmp_path):
        cfg = ExperimentConfig(kind="dispersion",
                               coefficient={"kind": "trig_checkerboard",
                                            "base": 2.0, "amplitude": 1.0},
                               dim=2, grid_n=32, ell=4, directions=7,
                               out_dir=str(tmp_path))
        assert run(cfg) == 0
        rows = (tmp_path / "dispersion_curves.csv").read_text().splitlines()
        # config line, column header, 65 radii per direction
        assert len(rows) == 2 + 7 * 65
        assert len({row.split(",")[0] for row in rows[2:]}) == 7

    def test_wave_compare_records_solver(self, tmp_path):
        cfg = ExperimentConfig(kind="wave-compare",
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               eps_list=[0.25, 0.125], T=2.0, box_side=16.0,
                               out_dir=str(tmp_path))
        run(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [s["eps"] for s in manifest["solver"]] == [0.25, 0.125]
        for stats in manifest["solver"]:
            assert stats["solver"] == "bloch-exact"
            assert stats["block_size"] == 16
            assert stats["block_field"] == "real"
            assert stats["energy_drift"] < 1e-10
            assert 0.0 <= stats["skipped_share"] <= EPS_MACH
            # eigh's own eigenvalues against their Rayleigh quotients
            assert 0.0 < stats["eigenvalue_correction"] < 1e-6
        assert [s["blocks"] for s in manifest["solver"]] == [33, 65]

    def test_wave_compare_gaps_need_no_box_size_inverse_transform(
            self, tmp_path, monkeypatch):
        # the README wave-compare config: each gap is a Parseval sum over the
        # kept Bloch phases and the filter's support, so no inverse
        # transform of a box's size runs, and the gaps are those the
        # real-space difference of the two fields gave
        cfg = ExperimentConfig(kind="wave-compare", dim=1, ell=2, T=8.0,
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               eps_list=[0.125, 0.0625, 0.03125],
                               box_side=64.0, out_dir=str(tmp_path))
        shapes = []
        for name in ("irfft", "irfftn"):
            def inverse(*args, _transform=getattr(np.fft, name), **kwargs):
                out = _transform(*args, **kwargs)
                shapes.append(out.shape)
                return out

            monkeypatch.setattr(np.fft, name, inverse)
        assert run(cfg) == 0
        boxes = [cli._box(cfg, eps) for eps in cfg.eps_list]
        assert not any(box.n in shape for box in boxes for shape in shapes)
        rows = (tmp_path / "wave_errors.csv").read_text().splitlines()[2:]
        sups = [float(row.split(",")[1]) for row in rows]
        assert sups == pytest.approx([0.011020920214316289, 0.00592313384189067,
                                      0.0027637891337656292], rel=1e-13)
        # the manifest records the size of the filter support per eps
        _, model = cli._oracle_model(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [s["effective_modes"] for s in manifest["solver"]] == [
            np.count_nonzero(wave.filtered_dispersion(model, box, eps)[0])
            for box, eps in zip(boxes, cfg.eps_list)]

    def test_wave_compare_without_mirror_takes_complex_blocks(self, tmp_path):
        # the sampled trig_checkerboard has no exact mirror
        cfg = ExperimentConfig(kind="wave-compare",
                               coefficient={"kind": "trig_checkerboard",
                                            "base": 2.0, "amplitude": 1.0},
                               eps_list=[0.125, 0.0625], T=4.0, box_side=16.0,
                               out_dir=str(tmp_path))
        assert run(cfg) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [s["eps"] for s in manifest["solver"]] == [0.125, 0.0625]
        for stats in manifest["solver"]:
            assert stats["block_field"] == "complex"
            assert stats["skipped_share"] <= EPS_MACH

    def test_oracle_kinds_apply_kmax_cap(self, tmp_path):
        # the README wave-compare config: a cap below the model's radius
        # filters more modes of the effective propagator
        base = dict(kind="wave-compare", dim=1, ell=2, T=8.0,
                    coefficient={"kind": "laminate", "values": [1.0, 4.0]},
                    eps_list=[0.125, 0.0625, 0.03125], box_side=64.0)
        tables = []
        for cap in (1.0, 0.5):
            out = tmp_path / str(cap)
            assert run(ExperimentConfig(**base, kmax_cap=cap,
                                        out_dir=str(out))) == 0
            # rows after the config line and the column header
            tables.append((out / "wave_errors.csv").read_text().splitlines()[2:])
        assert len(tables[0]) == 3 and tables[0] != tables[1]

    def test_wave_compare_order_1_is_the_order_2_model(self, tmp_path):
        # the order-1 model keeps lambda_0 alone, as the order-2 one does
        # (lambda_1 vanishes), so on the README config the two runs write
        # the same rows
        base = dict(kind="wave-compare", T=8.0,
                    coefficient={"kind": "laminate", "values": [1.0, 4.0]},
                    eps_list=[0.125, 0.0625, 0.03125], box_side=64.0)
        tables = []
        for ell in (1, 2):
            out = tmp_path / str(ell)
            assert run(ExperimentConfig(**base, ell=ell, out_dir=str(out))) == 0
            tables.append((out / "wave_errors.csv").read_text().splitlines()[1:])
        assert len(tables[0]) == 4 and tables[0] == tables[1]

    def test_transport_builds_no_oracle_hierarchy_or_model(self, tmp_path,
                                                           monkeypatch):
        # the wrap guard reads lambda_0 = 1 / <1/a> from the cell profile
        def built(*args):
            raise AssertionError("transport built an oracle model")

        monkeypatch.setattr(oracle1d, "correctors_1d", built)
        monkeypatch.setattr(dispersion, "compute_kmax", built)
        cfg = ExperimentConfig(kind="transport",
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               eps_list=[0.25, 0.125], T=1.0, box_side=32.0,
                               out_dir=str(tmp_path))
        assert run(cfg) == 0
        rows = (tmp_path / "transport.csv").read_text().splitlines()[2:]
        assert [row.split(",")[-1] for row in rows] == ["True", "False"]

    def test_transport_records_solver(self, tmp_path):
        cfg = ExperimentConfig(kind="transport",
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               eps_list=[0.25, 0.125], T=1.0, gamma=0.0,
                               box_side=64.0, out_dir=str(tmp_path))
        run(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [s["eps"] for s in manifest["solver"]] == [0.25, 0.125]
        assert [s["block_size"] for s in manifest["solver"]] == [32, 16]
        for stats in manifest["solver"]:
            assert stats["solver"] == "bloch-exact"
            assert stats["block_field"] == "real"
            assert 0.0 < stats["skipped_share"] <= EPS_MACH
            assert 0 < stats["blocks_solved"] < stats["blocks"]

    def test_transport_flags_the_rows_whose_front_wraps(self, tmp_path):
        # the front of the unit Gaussian (radius 6.1 at 1e-8 of its peak)
        # reaches 6.1 + 5 sqrt(lambda0) < 16 by T' + 1 = 5 at eps 1/4, and
        # 6.1 + 9 sqrt(lambda0) > 16 by T' + 1 = 9 at eps 1/8 (lambda0 = 1.6)
        cfg = ExperimentConfig(kind="transport",
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               eps_list=[0.25, 0.125], T=1.0, box_side=32.0,
                               out_dir=str(tmp_path))
        run(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (warning,) = manifest["warnings"]
        assert warning.startswith("eps=0.125: wavefront reach")
        assert warning.endswith("wraps the box")
        rows = (tmp_path / "transport.csv").read_text().splitlines()[2:]
        assert [row.split(",")[-1] for row in rows] == ["True", "False"]

    def test_source_term_run(self, tmp_path):
        base = dict(kind="source-term",
                    coefficient={"kind": "laminate", "values": [1.0, 4.0]},
                    ell=2, T=4.0, eps_list=[0.25], box_side=8.0)
        cfg1 = ExperimentConfig(**base, out_dir=str(tmp_path / "a"))
        cfg2 = ExperimentConfig(**base, out_dir=str(tmp_path / "b"))
        assert run(cfg1) == 0 and run(cfg2) == 0
        csv_a = (tmp_path / "a" / "source_term_errors.csv").read_bytes()
        assert csv_a == (tmp_path / "b" / "source_term_errors.csv").read_bytes()
        # config line, column header, one row per snapshot time
        assert len(csv_a.decode().splitlines()) == 2 + 8
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        (check,) = manifest["checks"]
        assert check["name"] == "dressed_vs_budget" and check["pass"]
        (stats,) = manifest["solver"]
        assert stats["eps"] == 0.25 and stats["solver"] == "bloch-exact"
        assert stats["block_field"] == "real"
        assert stats["blocks_solved"] >= 1
        assert 0.0 <= stats["skipped_share"] <= EPS_MACH

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = ExperimentConfig(kind="wave-compare",
                               coefficient={"kind": "constant", "value": 1.0})
        assert run(cfg, str(tmp_path)) == 2

    @pytest.mark.parametrize("kind, extra", [
        ("correctors", {}),
        ("wave-compare", {"eps_list": [0.25, 0.125], "T": 1.0}),
        ("elliptic-rate", {"eps_list": [0.25, 0.125], "box_side": 1.0}),
    ], ids=["correctors", "wave-compare", "elliptic-rate"])
    def test_laminate_axis_outside_dim_exit_code(self, kind, extra, tmp_path):
        cfg = ExperimentConfig(kind=kind, dim=1,
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0], "axis": 1},
                               **extra)
        assert run(cfg, str(tmp_path)) == 2

    def test_oracle_rejects_coefficient_period(self, tmp_path):
        # the 1D oracle models the unit cell: a half-period laminate would
        # be compared with the model of the wrong medium
        cfg = ExperimentConfig(kind="wave-compare",
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0],
                                            "period": 0.5},
                               eps_list=[0.25, 0.125], T=1.0, box_side=16.0)
        assert run(cfg, str(tmp_path)) == 2


class TestMain:
    def test_validate_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, kind="correctors",
                            coefficient={"kind": "constant", "value": 1.0},
                            dim=2, grid_n=16)
        assert cli.main(["validate", "--config", path]) == 0
        assert capsys.readouterr().err == ""
        # one eps fits no order: an error line, and the exit code of one
        path = write_config(tmp_path, kind="wave-compare",
                            coefficient={"kind": "laminate",
                                         "values": [1.0, 4.0]},
                            eps_list=[0.125])
        assert cli.main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err == (
            "error: eps_list needs at least two eps: this kind fits or "
            "compares across eps\n")

    def test_readme_configs_validate(self, tmp_path, capsys):
        # the README's example configs name only keys that exist and pass
        # validate as written
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(blocks) >= 3
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.json"
            path.write_text(block)
            assert validate(load_config(str(path))) == []
            assert cli.main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_key_rejected(self, tmp_path):
        # seed was an option that no code read
        for key in ("bogus", "seed"):
            path = write_config(tmp_path, kind="correctors",
                                coefficient={"kind": "constant"}, **{key: 1})
            assert cli.main(["validate", "--config", path]) == 2

    def test_workers_option_is_gone(self, tmp_path):
        path = write_config(tmp_path, kind="correctors",
                            coefficient={"kind": "constant", "value": 1.0},
                            dim=2, grid_n=16)
        with pytest.raises(SystemExit) as exc:
            cli.main(["correctors", "--config", path, "--workers", "2"])
        assert exc.value.code == 2
        path = write_config(tmp_path, kind="correctors",
                            coefficient={"kind": "constant", "value": 1.0},
                            dim=2, grid_n=16, workers=2)
        assert cli.main(["correctors", "--config", path]) == 2

    def test_tolerances_field_is_gone(self, tmp_path):
        # gate thresholds are fixed in the program; a config cannot move them
        path = write_config(tmp_path, kind="correctors",
                            coefficient={"kind": "constant", "value": 1.0},
                            dim=2, grid_n=16,
                            tolerances={"flux_exactness": 1.0},
                            out_dir=str(tmp_path / "out"))
        assert cli.main(["correctors", "--config", path]) == 2
        assert cli.main(["validate", "--config", path]) == 2
        assert not (tmp_path / "out").exists()

    def test_override_changes_hash(self, tmp_path):
        path = write_config(tmp_path, kind="correctors",
                            coefficient={"kind": "constant", "value": 1.0})
        cfg1 = load_config(path)
        cfg2 = load_config(path, overrides=["grid_n=32"])
        assert cfg2.grid_n == 32
        assert config_hash(cfg1) != config_hash(cfg2)

    @pytest.mark.parametrize("argv", [
        [], ["bogus", "--config", "config.json"], ["correctors"]],
        ids=["no-subcommand", "unknown-subcommand", "no-config"])
    def test_usage_errors_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind, extra, code", [
        ("correctors", {"dim": 2, "grid_n": 16}, 0),
        ("transport", {"eps_list": [0.25, 0.125]}, 2)])
    def test_validate_samples_no_coefficient(self, kind, extra, code, tmp_path,
                                             monkeypatch):
        # a laminate along y: valid in 2D, an error in 1D, and told apart
        # from the spec's fields alone
        def sampled(*args):
            raise AssertionError("validate sampled the coefficient")

        for module in (torus, wave):
            monkeypatch.setattr(module, "evaluate_coefficient", sampled)
        monkeypatch.setattr(cli, "coefficient_from_spec", sampled)
        path = write_config(tmp_path, kind=kind, **extra,
                            coefficient={"kind": "laminate",
                                         "values": [1.0, 4.0], "axis": 1})
        assert cli.main(["validate", "--config", path]) == code

    def test_raw_grid_off_the_run_grid_exits_two_before_any_output(self,
                                                                   tmp_path):
        # an 8-sample raw grid for grid_n 16: validate reports what the run
        # would raise, and the run stops before it makes its directory
        out = tmp_path / "out"
        path = write_config(tmp_path, kind="correctors", dim=1, grid_n=16,
                            coefficient={"kind": "raw", "values": [[[2.0] * 8]]},
                            out_dir=str(out))
        assert validate(load_config(path)) == [
            "coefficient values must have shape (1, 1, 16)"]
        for command in ("validate", "correctors"):
            assert cli.main([command, "--config", path]) == 2
        assert not out.exists()
        path = write_config(tmp_path, kind="correctors", dim=1, grid_n=16,
                            coefficient={"kind": "raw", "values": [[[2.0] * 16]]},
                            out_dir=str(out))
        assert validate(load_config(path)) == []

    def test_kind_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, kind="correctors",
                            coefficient={"kind": "constant", "value": 1.0},
                            dim=2, grid_n=16)
        assert cli.main(["dispersion", "--config", path]) == 2

    def test_full_cli_correctors(self, tmp_path):
        path = write_config(tmp_path, kind="correctors",
                            coefficient={"kind": "constant", "value": 1.0},
                            dim=2, grid_n=16, ell=2,
                            out_dir=str(tmp_path / "cli_out"))
        assert cli.main(["correctors", "--config", path]) == 0
        assert (tmp_path / "cli_out" / "manifest.json").exists()
