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
from .torus import (CG_TOL, CoefficientField, ConfigurationError,
                    ConvergenceError, DerivativeCache, SolvabilityError, TorusGrid,
                    check_coefficient_spec, coefficient_from_spec, irfftn,
                    l2_norm)

KINDS = ("correctors", "dispersion", "wave-compare", "elliptic-rate",
         "transport", "source-term")
# the kinds built on the exact 1D oracle; the others build the unit-cell grid
ORACLE_KINDS = ("wave-compare", "elliptic-rate", "transport", "source-term")

# failures of the numerics rather than of the configuration: exit 1 with a
# manifest (SolvabilityError is a ValueError, so it is caught first)
NUMERICAL_ERRORS = (ConvergenceError, SolvabilityError,
                    correctors.ReconstructionError,
                    dispersion.PositivityError)

# run-time settings that cannot change a number in the output
NON_SCIENTIFIC = ("out_dir",)

# the config's numbers (None where a field is unset): the runs count with
# the integer ones, and every one must be finite
INTEGER_FIELDS = ("ell", "grid_n", "dim", "points_per_period", "directions")
NUMBER_FIELDS = INTEGER_FIELDS + ("T", "box_side", "gamma", "kmax_cap")


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
    points_per_period: int = wave.MIN_POINTS_PER_PERIOD
    directions: int | None = None
    gamma: float | None = None
    kmax_cap: float = 1.0
    mode: str = "prepared"
    operator: str = "regularized"
    out_dir: str = "out"

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


def _error_of(build, *args) -> list:
    """The message of the ConfigurationError ``build(*args)`` raises, as a
    one-item list, or [] when it raises none."""
    try:
        build(*args)
    except ConfigurationError as err:
        return [str(err)]
    return []


def _number_errors(cfg: ExperimentConfig) -> list:
    """Each config number that is not finite, or not an integer in an
    ``INTEGER_FIELDS`` field (JSON true and false are no numbers)."""
    if not isinstance(cfg.eps_list, list):
        return [f"eps_list must be a list of numbers, got {cfg.eps_list!r}"]
    values = [(key, getattr(cfg, key)) for key in NUMBER_FIELDS]
    values += [("eps_list", eps) for eps in cfg.eps_list]
    out = []
    for key, value in values:
        if value is None and key in ("directions", "gamma"):
            continue
        integer = key in INTEGER_FIELDS
        if (isinstance(value, bool)
                or not isinstance(value, int if integer else (int, float))):
            out.append(f"{key} must be {'an integer' if integer else 'a number'}"
                       f", got {value!r}")
        elif not math.isfinite(value):
            out.append(f"{key} must be finite, got {value!r}")
    return out


def validate(cfg: ExperimentConfig) -> list:
    """The configuration errors of the run, raised by the constructors of
    the grids, boxes, 1D profile and raw coefficient grid it builds; no
    coefficient is sampled.  A config number that is not finite, or not an
    integer where the run counts with it, is reported alone, since the
    constructors take only finite numbers."""
    out = _number_errors(cfg)
    if out:
        return out
    if cfg.kind not in KINDS:
        out.append(f"unknown kind {cfg.kind!r}")
    elif cfg.kind in ORACLE_KINDS:
        if cfg.dim != 1:
            out.append(f"{cfg.kind} needs dim 1, got {cfg.dim}")
        out += _error_of(oracle1d.profile_from_spec, cfg.coefficient)
        out += _error_of(oracle1d.check_order, cfg.ell)
    else:
        out += _error_of(TorusGrid, cfg.dim, cfg.grid_n)
        out += _error_of(check_coefficient_spec, cfg.coefficient, cfg.dim)
        if not out and cfg.coefficient["kind"] == "raw":
            # a raw grid is the coefficient itself, checked on the run's grid
            out += _error_of(CoefficientField, TorusGrid(cfg.dim, cfg.grid_n),
                             cfg.coefficient["values"])
        out += _error_of(correctors.check_order, cfg.ell)
        if cfg.directions is not None:
            out += _error_of(correctors.check_directions, cfg.dim, cfg.ell,
                             cfg.directions)
    if cfg.kind == "wave-compare":
        out += _error_of(_snapshot_times, cfg)
    if cfg.kind == "elliptic-rate":
        out += _error_of(elliptic.check_sweep_options, cfg.mode, cfg.operator)
    if cfg.kind in ("wave-compare", "elliptic-rate", "transport"):
        if len(cfg.eps_list) < 2:
            out.append("eps_list needs at least two eps: this kind fits or "
                       "compares across eps")
        elif any(e2 >= e1 for e1, e2 in zip(cfg.eps_list, cfg.eps_list[1:])):
            out.append("eps_list must be strictly decreasing")
    if cfg.kind == "source-term" and len(cfg.eps_list) != 1:
        out.append("eps_list needs exactly one eps for source-term")
    if any(not eps > 0 for eps in cfg.eps_list):
        out.append("every eps must be positive")
    elif cfg.kind in ("wave-compare", "transport", "source-term"):
        if cfg.points_per_period < wave.MIN_POINTS_PER_PERIOD:
            out.append(f"points_per_period {cfg.points_per_period} is below "
                       f"{wave.MIN_POINTS_PER_PERIOD}")
        for eps in cfg.eps_list:
            # the box the run builds: transport runs every eps on one box
            box_eps = min(cfg.eps_list) if cfg.kind == "transport" else eps
            out += _error_of(lambda: _box(cfg, box_eps).points_per_period(eps))
    if cfg.kmax_cap <= 0:
        out.append("kmax_cap must be positive")
    return list(dict.fromkeys(out))


def _report(errors: list) -> int:
    """Print each configuration error; the exit code they make."""
    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    return 2 if errors else 0


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


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def _directions(cfg: ExperimentConfig) -> np.ndarray:
    """The sampled half-circle directions: ``directions`` of them, or
    ``correctors.default_directions`` when it is unset."""
    if cfg.directions is None:
        return correctors.default_directions(cfg.dim, cfg.ell)
    return dispersion.half_circle_directions(cfg.dim, cfg.directions)


def run_correctors(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    grid = TorusGrid(cfg.dim, cfg.grid_n)
    a = coefficient_from_spec(cfg.coefficient, grid)
    dirs = _directions(cfg)
    tens = correctors.tensorize_correctors(a, cfg.ell)
    levels = []
    coarse_total = {}
    for j, (its, res, starts) in enumerate(
            zip(tens.cg_iterations, tens.cg_residual, tens.cg_coarse_iterations),
            start=1):
        sizes = sorted({n for start in starts for n in start}, reverse=True)
        coarse = {str(n): [start.get(n, 0) for start in starts] for n in sizes}
        for n, counts in coarse.items():
            coarse_total[n] = coarse_total.get(n, 0) + sum(counts)
        levels.append({"level": j, "cg_iterations": its, "cg_residual": res,
                       "coarse_cg_iterations": coarse})
    man.solver = {
        "levels": levels,
        "pcg_solves": sum(len(its) for its in tens.cg_iterations),
        "cg_iterations_total": sum(sum(its) for its in tens.cg_iterations),
        "coarse_cg_iterations_total": coarse_total,
        "direct_grid": a.direct_grid}
    model = correctors.reconstruct_dispersion(
        a, cfg.ell, directions=dirs, kmax_cap=cfg.kmax_cap, tensors=tens)
    _write_csv(out / "lambda_table.csv", correctors.lambda_table_rows(model),
               man.hash)
    man.artifacts.append("lambda_table.csv")

    h0 = tens.in_direction(dirs[0])
    inv = correctors.hierarchy_invariants(h0)
    man.check("flux_exactness", inv["flux_exactness"], 10 * CG_TOL)
    man.check("q_nyquist", inv["q_nyquist"], 10 * CG_TOL)
    man.check("mean_q", inv["mean_q"], 1e-12)
    man.check("lambda0_elliptic", inv["lambda0"], 1.0, larger_is_better=True)
    if cfg.ell >= 3:
        rep = correctors.verify_corrector_identities(h0)
        man.check("odd_lambda", max(rep.odd_lambda.values()), 1e-8)
        man.check("lambda2_two_ways", rep.lambda2_gap, 1e-8)
        man.check("lambda2_nonneg", rep.lambda2_quadratic, -1e-10,
                  larger_is_better=True)
    if cfg.ell >= 5:
        man.check("lambda4_two_ways", rep.lambda4_gap, 1e-7)


def run_dispersion(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    grid = TorusGrid(cfg.dim, cfg.grid_n)
    a = coefficient_from_spec(cfg.coefficient, grid)
    model = correctors.reconstruct_dispersion(
        a, cfg.ell, directions=_directions(cfg), kmax_cap=cfg.kmax_cap)
    rows = [("direction", "kappa", "Lambda", "cutoff")]
    kappas = np.linspace(0.0, model.kmax, 65)
    weights = dispersion.cutoff(model.kmax, kappas)
    for e in model.directions:
        lams = dispersion.dispersion_Lambda(
            model, np.asarray(e).reshape(cfg.dim, 1) * kappas)
        label = " ".join(format(c, ".6g") for c in e)
        rows += [(label, format(kap, ".17g"), format(lam, ".17g"),
                  format(w, ".17g"))
                 for kap, lam, w in zip(kappas, lams, weights)]
    _write_csv(out / "dispersion_curves.csv", rows, man.hash)
    man.artifacts.append("dispersion_curves.csv")
    man.check("fit_residual", float(np.max(model.fit_residuals)),
              correctors.FIT_TOL)


def _oracle_model(cfg: ExperimentConfig):
    """(hierarchy, model) of order ``ell`` from the exact 1D oracle of the
    configured coefficient, the filter radius capped at ``kmax_cap``."""
    oh = oracle1d.correctors_1d(oracle1d.profile_from_spec(cfg.coefficient),
                                cfg.ell)
    return oh, dispersion.DispersionModel.from_oracle(oh, cfg.ell, cfg.kmax_cap)


def _snapshot_times(cfg: ExperimentConfig) -> list:
    """The wave-compare snapshot times 1, 2, ..., floor(T)."""
    if cfg.T < 1:
        raise ConfigurationError(f"T {cfg.T:g} is below 1: wave-compare "
                                 f"compares snapshots at t = 1, ..., floor(T)")
    return [float(t) for t in range(1, int(cfg.T) + 1)]


def _box(cfg: ExperimentConfig, eps: float) -> TorusGrid:
    """The 1D box of side ``box_side``, ``points_per_period`` per period eps."""
    return TorusGrid(1, int(cfg.points_per_period * cfg.box_side / eps),
                     cfg.box_side)


def run_wave_compare(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    _, model = _oracle_model(cfg)
    times = _snapshot_times(cfg)
    rows = [("eps", "sup_l2_error", "fitted_order")]
    sups = []
    for eps in cfg.eps_list:
        box = _box(cfg, eps)
        x = wave.box_coordinates(box)[0]
        u0 = np.exp(-0.5 * (x - 0.5 * cfg.box_side) ** 2)
        a_box = wave.coefficient_on_box(cfg.coefficient, box, eps)
        traj = bloch.solve_fine_wave_exact(a_box, box, u0, times, eps)
        gaps, modes = bloch.effective_gap(traj, model, u0)
        man.solver.append({"eps": eps, **traj.solver_stats(),
                           "effective_modes": modes})
        sups.append(float(np.max(gaps)))
    order = wave.fit_order(cfg.eps_list, sups)
    for eps, sup in zip(cfg.eps_list, sups):
        rows.append((format(eps, ".17g"), format(sup, ".17g"),
                     format(order, ".17g")))
    _write_csv(out / "wave_errors.csv", rows, man.hash)
    man.artifacts.append("wave_errors.csv")
    man.check("fitted_order", order, 0.9, larger_is_better=True)


def run_elliptic_rate(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
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
    man.check("fitted_order", study.fitted_order, 1.8, larger_is_better=True)


def run_transport(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    box = _box(cfg, min(cfg.eps_list))
    rep = transport.ballistic_experiment(
        cfg.coefficient, box, cfg.eps_list, cfg.gamma or 0.0, cfg.T, cfg.ell)
    _write_csv(out / "transport.csv", rep.table(), man.hash)
    man.artifacts.append("transport.csv")
    man.solver.extend({"eps": r.eps, **r.solver} for r in rep.rows)
    ratios = [r.ratio for r in rep.rows]
    man.check("ratio_non_degenerating", ratios[-1], 0.8 * ratios[0],
              larger_is_better=True)
    for r in rep.rows:
        if not r.valid:
            man.warnings.append(
                f"eps={r.eps}: wavefront reach {r.guard_reach:.2f} wraps the box")


def run_source_term(cfg: ExperimentConfig, out: Path, man: Manifest) -> None:
    oh, model = _oracle_model(cfg)
    eps = cfg.eps_list[0]
    box = _box(cfg, eps)
    x = wave.box_coordinates(box)[0]
    # the step source h(x) 1[0, 1](t); h lies in one Bloch phase
    h = np.sin(2.0 * np.pi * x / cfg.box_side)
    times = [float(t) for t in np.linspace(0.5, cfg.T, 8)]
    a_box = wave.coefficient_on_box(cfg.coefficient, box, eps)
    traj = bloch.solve_fine_wave_exact(a_box, box, np.zeros(box.shape), times,
                                       eps, source=h)
    man.solver.append({"eps": eps, **traj.solver_stats()})
    bc = wave.BoxCorrectors.from_oracle(oh, box, eps)
    u_hat, _ = wave.source_term_field(model, h, box, eps, traj.times)
    u_s = irfftn(box, u_hat)
    rows = [("t", "l2_error_simplified", "l2_error_dressed")]
    errs_simple, errs_dressed = [], []
    for i, t in enumerate(traj.times):
        u_d = wave.dress_with_correctors(bc, DerivativeCache(box, u_hat[i]))
        errs_simple.append(l2_norm(box, traj.u[i] - u_s[i]))
        errs_dressed.append(l2_norm(box, traj.u[i] - u_d))
        rows.append((format(t, ".17g"), format(errs_simple[-1], ".17g"),
                     format(errs_dressed[-1], ".17g")))
    _write_csv(out / "source_term_errors.csv", rows, man.hash)
    man.artifacts.append("source_term_errors.csv")
    ref_scale = max(l2_norm(box, traj.u[i]) for i in range(traj.times.size))
    man.check("dressed_vs_budget",
              max(errs_dressed) / max(ref_scale, 1e-30),
              3.0 * float(wave.error_budget(cfg.ell, eps, cfg.T)))


RUNNERS = {"correctors": run_correctors, "dispersion": run_dispersion,
           "wave-compare": run_wave_compare, "elliptic-rate": run_elliptic_rate,
           "transport": run_transport, "source-term": run_source_term}


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    errors = validate(cfg)
    if errors:
        return _report(errors)
    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    man = Manifest(cfg)
    try:
        RUNNERS[cfg.kind](cfg, out, man)
    except NUMERICAL_ERRORS as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        man.fail(err)
    except (ConfigurationError, ValueError) as err:
        return _report([str(err)])
    status = man.write(out)
    for check in man.checks:
        state = "PASS" if check["pass"] else "FAIL"
        print(f"[{state}] {check['name']}: {check['value']:.6g} "
              f"{check['direction']} {check['threshold']:.6g}")
    return status


def main(argv=None) -> int:
    # one parser, the subcommand a positional choice: seven subparsers took
    # ten times as long to build, in every process
    parser = argparse.ArgumentParser(
        prog="homwave",
        description="corrector, dispersion, wave, elliptic and transport "
                    "experiments on periodic media")
    parser.add_argument("command", choices=KINDS + ("validate",))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.override)
    except (ConfigurationError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.command == "validate":
        return _report(validate(cfg))
    if cfg.kind != args.command:
        print(f"error: config kind {cfg.kind!r} does not match "
              f"subcommand {args.command!r}", file=sys.stderr)
        return 2
    return run(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
