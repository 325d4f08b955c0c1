"""Experiment driver: config validation, runs, manifests, determinism."""

import json

import numpy as np
import pytest

from homwave import cli, correctors, torus, wave
from homwave.cli import ExperimentConfig, config_hash, load_config, run, validate

EPS_MACH = float(np.finfo(float).eps)


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(kwargs, fh)
    return str(path)


class TestValidate:
    def test_missing_eps_list_is_error(self):
        cfg = ExperimentConfig(kind="wave-compare",
                               coefficient={"kind": "constant", "value": 1.0})
        msgs = validate(cfg)
        assert any("eps_list" in m for level, m in msgs if level == "error")

    @pytest.mark.parametrize("kind", ["wave-compare", "elliptic-rate",
                                      "transport"])
    def test_single_eps_is_error(self, kind, tmp_path):
        # an order fitted through one point, or a ratio of eps to itself,
        # measures nothing
        cfg = ExperimentConfig(kind=kind,
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               eps_list=[0.125], out_dir=str(tmp_path / "out"))
        msgs = validate(cfg)
        assert any("two eps" in m for level, m in msgs if level == "error")
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
        msgs = validate(cfg)
        assert any("exactly one eps" in m for level, m in msgs
                   if level == "error")
        assert run(cfg) == 2
        assert not (tmp_path / "out").exists()

    def test_wrap_guard_warning_reports_horizon(self):
        cfg = ExperimentConfig(kind="wave-compare",
                               coefficient={"kind": "constant", "value": 1.0},
                               eps_list=[0.25], T=100.0, box_side=16.0)
        msgs = validate(cfg)
        warnings = [m for level, m in msgs if level == "warning"]
        assert any("admissible horizon" in m for m in warnings)

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
        errors = [m for level, m in validate(cfg) if level == "error"]
        assert any(message in m for m in errors)
        assert run(cfg) == 2
        assert not (tmp_path / "out").exists()

    def test_nondecreasing_eps_rejected(self):
        cfg = ExperimentConfig(kind="elliptic-rate",
                               coefficient={"kind": "laminate",
                                            "values": [1.0, 4.0]},
                               eps_list=[0.125, 0.25])
        msgs = validate(cfg)
        assert any("decreasing" in m for level, m in msgs if level == "error")


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
