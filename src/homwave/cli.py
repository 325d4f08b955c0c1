"""Experiment driver: JSON configs in, CSV tables and a manifest out.

One subcommand per experiment kind plus ``validate``.  Outputs are
deterministic: rerunning an identical config reproduces byte-identical
tables, and every table directory carries a manifest with the config hash
and per-check pass/fail lines.

Exit codes: 0 all checks passed, 1 a numerical check failed or a solver
failed (the manifest records which), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import bloch, correctors, dispersion, elliptic, oracle1d, transport, wave
from .torus import (ConfigurationError, ConvergenceError, SolvabilityError,
                    TorusGrid, coefficient_from_spec)

KINDS = ("correctors", "dispersion", "wave-compare", "elliptic-rate",
         "transport", "source-term")

# failures of the numerics rather than of the configuration: exit 1 with a
# manifest (SolvabilityError is a ValueError, so it is caught first)
NUMERICAL_ERRORS = (ConvergenceError, SolvabilityError,
                    correctors.ReconstructionError,
                    dispersion.InternalConsistencyError,
                    wave.PositivityError, wave.InstabilityError)

# run-time settings that cannot change a number in the output
NON_SCIENTIFIC = ("out_dir", "workers")


@dataclass
class ExperimentConfig:
    kind: str
    coefficient: dict
    ell: int = 2
    grid_n: int = 64
    dim: int = 1
    eps_list: list = dc_field(default_factory=list)
    T: float = 1.0
    box_side: float = 16.0
    box_n: int | None = None
    points_per_period: int = 16
    directions: int | None = None
    gamma: float | None = None
    kmax_cap: float = 1.0
    tolerances: dict = dc_field(default_factory=dict)
    seed: int = 0
    mode: str = "prepared"
    operator: str = "regularized"
    out_dir: str = "out"
    workers: int = 0

    def raw(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            out[key] = value
        return out


def load_config(path: str, overrides=()) -> ExperimentConfig:
    with open(path) as fh:
        data = json.load(fh)
    for item in overrides:
        key, _, value = item.partition("=")
        if not _:
            raise ConfigurationError(f"override {item!r} is not KEY=VALUE")
        try:
            data[key] = json.loads(value)
        except json.JSONDecodeError:
            data[key] = value
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in data or "coefficient" not in data:
        raise ConfigurationError("config needs at least 'kind' and 'coefficient'")
    return ExperimentConfig(**data)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the scientific fields: where and how fast a run goes is not
    part of it, so the tables of identical science are identical bytes."""
    fields = {key: value for key, value in cfg.raw().items()
              if key not in NON_SCIENTIFIC}
    canon = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def validate(cfg: ExperimentConfig) -> list:
    """Static diagnostics: errors make the config unrunnable, warnings do not."""
    out = []
    if cfg.kind not in KINDS:
        out.append(("error", f"unknown kind {cfg.kind!r}"))
    if cfg.kind in ("wave-compare", "elliptic-rate", "transport"):
        if not cfg.eps_list:
            out.append(("error", "eps_list is required for this kind"))
        elif any(e2 >= e1 for e1, e2 in zip(cfg.eps_list, cfg.eps_list[1:])):
            out.append(("error", "eps_list must be strictly decreasing"))
    for n in (cfg.grid_n, cfg.box_n):
        if n is not None and (n < 8 or n & (n - 1)):
            out.append(("error", f"grid size {n} is not a power of two >= 8"))
    if cfg.kind in ("wave-compare", "transport", "source-term") and cfg.eps_list:
        side = cfg.box_side
        for eps in cfg.eps_list:
            m = side / eps
            if abs(m - round(m)) > 1e-9:
                out.append(("error", f"eps={eps} does not divide box side {side}"))
        box_n = cfg.box_n or 0
        if box_n:
            for eps in cfg.eps_list:
                ppp = box_n * eps / side
                if ppp < cfg.points_per_period:
                    out.append(("error",
                                f"eps={eps}: {ppp:.0f} points per period < "
                                f"{cfg.points_per_period}"))
    if cfg.kind in ("wave-compare", "transport"):
        # wavefront wrap guard, assuming data of unit support at the center
        speed = math.sqrt(2.0)
        reach = 1.0 + cfg.T * speed
        if cfg.kind == "transport" and cfg.eps_list:
            t_max = min(cfg.eps_list) ** (-1.0 - (cfg.gamma or 0.0)) * cfg.T + 1.0
            reach = 6.0 + t_max * speed
        if reach > 0.5 * cfg.box_side:
            t_adm = (0.5 * cfg.box_side - 6.0) / speed
            out.append(("warning",
                        f"wavefront may wrap: reach {reach:.1f} > side/2; "
                        f"admissible horizon about {t_adm:.1f}"))
    if cfg.kmax_cap <= 0:
        out.append(("error", "kmax_cap must be positive"))
    return out


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _write_csv(path: Path, rows, tag: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# config {tag}"])
        for row in rows:
            writer.writerow(row)


class Manifest:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.hash = config_hash(cfg)
        self.checks = []
        self.artifacts = []
        self.warnings = []
        self.solver = []

    def check(self, name: str, value: float, threshold: float,
              larger_is_better: bool = False) -> bool:
        ok = value >= threshold if larger_is_better else value <= threshold
        self.checks.append({"name": name, "value": value,
                            "threshold": threshold,
                            "direction": ">=" if larger_is_better else "<=",
                            "pass": bool(ok)})
        return ok

    def fail(self, err: Exception) -> None:
        """Record a solver failure as a failing check that counts it."""
        self.check("numerical_failure", 1, 0)
        self.checks[-1].update(error=type(err).__name__, message=str(err))

    def write(self, out_dir: Path) -> int:
        ok = all(c["pass"] for c in self.checks)
        doc = {"config": self.cfg.raw(), "config_hash": self.hash,
               "checks": self.checks, "artifacts": self.artifacts,
               "warnings": self.warnings, "solver": self.solver, "pass": ok}
        with open(out_dir / "manifest.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0 if ok else 1


def _tolerance(cfg, name, default):
    return float(cfg.tolerances.get(name, default))


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def run_correctors(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    grid = TorusGrid(cfg.dim, cfg.grid_n)
    a = coefficient_from_spec(cfg.coefficient, grid)
    n_dirs = cfg.directions or (2 * cfg.ell + 4)
    dirs = (correctors.default_directions(cfg.dim, cfg.ell)
            if cfg.directions is None else np.stack(
                [np.cos(np.arange(n_dirs) * np.pi / n_dirs),
                 np.sin(np.arange(n_dirs) * np.pi / n_dirs)], axis=1)
            if cfg.dim == 2 else np.array([[1.0]]))
    hier = correctors.build_hierarchies(a, cfg.ell, dirs, workers=cfg.workers)
    model = correctors.reconstruct_dispersion(
        a, cfg.ell, directions=dirs, kmax_cap=cfg.kmax_cap, hierarchies=hier)
    _write_csv(out / "lambda_table.csv", correctors.lambda_table_rows(model),
               man.hash)
    man.artifacts.append("lambda_table.csv")

    h0 = hier[0]
    inv = correctors.hierarchy_invariants(h0)
    man.check("flux_exactness", inv["flux_exactness"],
              _tolerance(cfg, "flux_exactness", 1e-9))
    man.check("mean_q", inv["mean_q"], _tolerance(cfg, "mean_q", 1e-12))
    man.check("lambda0_elliptic", inv["lambda0"], 1.0, larger_is_better=True)
    if cfg.ell >= 3:
        rep = correctors.verify_corrector_identities(h0)
        man.check("odd_lambda", max(rep.odd_lambda.values()),
                  _tolerance(cfg, "odd_lambda", 1e-8))
        man.check("lambda2_two_ways", rep.lambda2_gap,
                  _tolerance(cfg, "lambda2_two_ways", 1e-8))
        man.check("lambda2_nonneg", rep.lambda2_quadratic, -1e-10,
                  larger_is_better=True)


def run_dispersion(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    grid = TorusGrid(cfg.dim, cfg.grid_n)
    a = coefficient_from_spec(cfg.coefficient, grid)
    model = correctors.reconstruct_dispersion(a, cfg.ell, kmax_cap=cfg.kmax_cap,
                                              workers=cfg.workers)
    spec = dispersion.make_cutoff(model)
    rows = [("direction", "kappa", "Lambda", "cutoff")]
    kappas = np.linspace(0.0, spec.kmax, 65)
    for e in model.directions:
        for kap in kappas:
            lam = dispersion.dispersion_Lambda(
                model, np.asarray(e).reshape(cfg.dim, 1) * kap)
            rows.append((" ".join(format(c, ".6g") for c in e),
                         format(kap, ".17g"), format(float(lam[0]), ".17g"),
                         format(float(dispersion.cutoff(spec, kap)), ".17g")))
    _write_csv(out / "dispersion_curves.csv", rows, man.hash)
    man.artifacts.append("dispersion_curves.csv")
    man.check("kmax_positive", model.kmax, 0.0, larger_is_better=True)
    man.check("fit_residual", float(np.max(model.fit_residuals)), 1e-6)


def run_wave_compare(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    if cfg.dim != 1:
        raise ConfigurationError("wave-compare runs in one dimension")
    ell = max(cfg.ell, 2)
    model = dispersion.DispersionModel.from_oracle(
        oracle1d.correctors_1d(oracle1d.profile_from_spec(cfg.coefficient), ell), ell)
    spec = dispersion.make_cutoff(model)
    side = cfg.box_side
    times = [float(t) for t in range(1, int(cfg.T) + 1)]
    rows = [("eps", "sup_l2_error", "fitted_order")]
    sups = []
    for eps in cfg.eps_list:
        n = cfg.box_n or int(cfg.points_per_period * side / eps)
        box = wave.BoxGrid(1, n, side)
        x = wave.box_coordinates(box)[0]
        u0 = np.exp(-0.5 * (x - 0.5 * side) ** 2)
        a_box = wave.coefficient_on_box(cfg.coefficient, box, eps)
        traj = bloch.solve_fine_wave_exact(a_box, box, u0, times, eps)
        man.solver.append({"eps": eps, **traj.solver_stats()})
        sups.append(max(
            wave.box_l2(box, traj.u[i] - wave.homogenized_wave_field(
                model, spec, u0, box, eps, t))
            for i, t in enumerate(traj.times)))
        del traj  # free the snapshots before the next eps allocates its own
    order = float(np.polyfit(np.log(cfg.eps_list), np.log(sups), 1)[0])
    for eps, sup in zip(cfg.eps_list, sups):
        rows.append((format(eps, ".17g"), format(sup, ".17g"),
                     format(order, ".17g")))
    _write_csv(out / "wave_errors.csv", rows, man.hash)
    man.artifacts.append("wave_errors.csv")
    man.check("fitted_order", order, _tolerance(cfg, "fitted_order", 0.9),
              larger_is_better=True)


def run_elliptic_rate(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    if cfg.dim != 1:
        raise ConfigurationError("elliptic-rate runs in one dimension")
    profile = oracle1d.profile_from_spec(cfg.coefficient)
    study = elliptic.elliptic_error_sweep_1d(
        profile, cfg.ell, cfg.eps_list, side=cfg.box_side or 1.0,
        mode=cfg.mode, operator=cfg.operator, gamma=cfg.gamma)
    _write_csv(out / "elliptic_rates.csv", study.rows(), man.hash)
    man.artifacts.append("elliptic_rates.csv")
    lam_rows = [("order", "lambda")] + [
        (j, format(lam, ".17g"))
        for j, lam in enumerate(study.details["lambdas"])]
    _write_csv(out / "oracle_lambdas.csv", lam_rows, man.hash)
    man.artifacts.append("oracle_lambdas.csv")
    man.check("fitted_order", study.fitted_order,
              _tolerance(cfg, "fitted_order", 1.8), larger_is_better=True)


def run_transport(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    if cfg.dim != 1:
        raise ConfigurationError("transport runs in one dimension")
    ell = max(cfg.ell, 2)
    model = dispersion.DispersionModel.from_oracle(
        oracle1d.correctors_1d(oracle1d.profile_from_spec(cfg.coefficient), ell), ell)
    n = cfg.box_n or int(cfg.points_per_period * cfg.box_side / min(cfg.eps_list))
    box = wave.BoxGrid(1, n, cfg.box_side)
    rep = transport.ballistic_experiment(
        cfg.coefficient, box, cfg.eps_list, cfg.gamma or 0.0, cfg.T, cfg.ell,
        gamma_bar=model.Gamma_bar)
    _write_csv(out / "transport.csv", rep.table(), man.hash)
    man.artifacts.append("transport.csv")
    man.solver.extend({"eps": r.eps, **r.solver} for r in rep.rows)
    ratios = [r.ratio for r in rep.rows]
    man.check("ratio_non_degenerating", ratios[-1],
              _tolerance(cfg, "ratio_factor", 0.8) * ratios[0],
              larger_is_better=True)
    for r in rep.rows:
        if not r.valid:
            man.warnings.append(
                f"eps={r.eps}: wavefront reach {r.guard_reach:.2f} wraps the box")


def run_source_term(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    if cfg.dim != 1:
        raise ConfigurationError("source-term runs in one dimension")
    oh = oracle1d.correctors_1d(oracle1d.profile_from_spec(cfg.coefficient), cfg.ell)
    model = dispersion.DispersionModel.from_oracle(oh, cfg.ell)
    spec = dispersion.make_cutoff(model)
    side = cfg.box_side
    eps = cfg.eps_list[0] if cfg.eps_list else 0.125
    n = cfg.box_n or int(cfg.points_per_period * side / eps)
    box = wave.BoxGrid(1, n, side)
    x = wave.box_coordinates(box)[0]
    mode_field = np.sin(2.0 * np.pi * x / side)

    def source(t):
        return mode_field if 0.0 <= t <= 1.0 else np.zeros_like(mode_field)

    times = [float(t) for t in np.linspace(0.5, cfg.T, 8)]
    a_box = wave.coefficient_on_box(cfg.coefficient, box, eps)
    traj = wave.solve_fine_wave(a_box, box, np.zeros(box.shape), source=source,
                                times=times, eps=eps)
    bc = wave.BoxCorrectors.from_oracle(oh, box, eps)
    rows = [("t", "l2_error_simplified", "l2_error_dressed")]
    errs_simple, errs_dressed = [], []
    for i, t in enumerate(traj.times):
        u_s, _ = wave.source_term_field(model, spec, source, box, eps, t)
        u_d, _ = wave.source_term_field(model, spec, source, box, eps, t, bc=bc)
        errs_simple.append(wave.box_l2(box, traj.u[i] - u_s))
        errs_dressed.append(wave.box_l2(box, traj.u[i] - u_d))
        rows.append((format(t, ".17g"), format(errs_simple[-1], ".17g"),
                     format(errs_dressed[-1], ".17g")))
    _write_csv(out / "source_term_errors.csv", rows, man.hash)
    man.artifacts.append("source_term_errors.csv")
    budget = wave.ErrorBudget(ell=cfg.ell)
    ref_scale = max(wave.box_l2(box, traj.u[i]) for i in range(traj.times.size))
    man.check("dressed_vs_budget",
              max(errs_dressed) / max(ref_scale, 1e-30),
              _tolerance(cfg, "budget_factor", 3.0)
              * float(budget.curve(eps, cfg.T)))


RUNNERS = {"correctors": run_correctors, "dispersion": run_dispersion,
           "wave-compare": run_wave_compare, "elliptic-rate": run_elliptic_rate,
           "transport": run_transport, "source-term": run_source_term}


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    diags = validate(cfg)
    errors = [msg for level, msg in diags if level == "error"]
    if errors:
        for msg in errors:
            print(f"error: {msg}", file=sys.stderr)
        return 2
    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    man = Manifest(cfg)
    man.warnings.extend(msg for level, msg in diags if level == "warning")
    try:
        RUNNERS[cfg.kind](cfg, out, man)
    except NUMERICAL_ERRORS as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        man.fail(err)
    except (ConfigurationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    status = man.write(out)
    for check in man.checks:
        state = "PASS" if check["pass"] else "FAIL"
        print(f"[{state}] {check['name']}: {check['value']:.6g} "
              f"{check['direction']} {check['threshold']:.6g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homwave",
        description="corrector, dispersion, wave, elliptic and transport "
                    "experiments on periodic media")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS + ("validate",):
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.override)
    except (ConfigurationError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.workers is not None:
        cfg.workers = args.workers
    if args.command == "validate":
        for level, msg in validate(cfg):
            print(f"{level}: {msg}")
        return 0
    if cfg.kind != args.command:
        print(f"error: config kind {cfg.kind!r} does not match "
              f"subcommand {args.command!r}", file=sys.stderr)
        return 2
    return run(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
