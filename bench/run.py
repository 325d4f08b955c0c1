"""homwave benchmark: four CLI experiments, each timed in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the ``src/`` beside ``bench/``; without it the
benchmark exits 2 and prints no result.  One operation is one experiment
(config -> CSV tables and ``manifest.json``) run by the ``homwave`` CLI in a
child process, so every operation pays import time and every in-process
cache fill, as a CLI user does.  The load is a closed loop with one client:
the next operation starts when the previous one has ended.  ``workers``
stays at its default (no ``--workers``, no config key) and BLAS threads are
pinned to 1.  Each run also times at least seven fresh ``homwave validate``
processes (import, config load and validation) for setup_s.

Workloads (seed 0 gives exactly these inputs):

- ``cell-2d``: correctors, dim 2, trig_checkerboard (base 2, amplitude 1),
  grid 128, ell 4, 12 directions.  Spectral calculus and PCG only.
- ``oracle-1d``: elliptic-rate on the exact 1D pipeline, laminate [1, 4],
  prepared data, ell 2, eps 1/8 .. 1/128, box side 1.  PiecewisePoly only.
- ``wave-1d``: the README wave-compare config (laminate [1, 4], ell 2,
  T = 8, eps 1/8, 1/16, 1/32, box side 64): leapfrog plus 24 effective
  propagator snapshots, 16 points per period at every eps.
- ``transport-1d``: transport, laminate [1, 4], ell 2, gamma 0, T 1,
  eps 1/4, 1/8, 1/16, box side 64: one box of 16384 points shared by all
  eps (64, 32 and 16 points per period), long horizons, 17 snapshots per
  window, no effective propagator.

Other seeds draw k from {0, ..., 5} and perturb the coefficient by
s = 1 + 0.05 k: cell-2d scales base and amplitude together by s (contrast
fixed, so CG iteration counts stay the same), the laminates take s as their
low phase (contrast 4/s in [3.2, 4], high phase and hence the CFL step
fixed).  Grids, boxes, eps lists and snapshot times never change, so the
amount of work stays the same.  The program sees only the generated config.

Every operation is checked: exit code 0 and all manifest checks passing,
CSV tables byte-identical across the operations of a run, and per workload
the references in ``reference.json`` (see ``record_reference.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: run_s, setup_s and peak_rss_mb
with ``--trace 0``; the per-layer metrics of ``tracer.layer_metrics`` and
trace.overhead_s with ``--trace 1``.  The full record (environment,
per-operation samples, quartiles, recorded values) goes to
``bench/out/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# build_hierarchies' CG relative-residual tolerance; the lambda table of a
# scaled coefficient is the scaled table up to a small multiple of it.
CG_TOL = 1e-10
LAMBDA_RTOL = 100 * CG_TOL
ORACLE_RTOL = 1e-9        # piecewise-polynomial roundoff with cancellation
LAMBDA0_ATOL = 1e-13

VARIANTS = 6
STEP = 0.05
MIN_OPS = 2               # byte-identity needs two operations of one run
SETUP_PROBES = 7
DEADLINE_S = 170.0
THREAD_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")

LAMINATE = {"kind": "laminate", "values": [1.0, 4.0]}
BASE_CONFIGS = {
    "cell-2d": {"kind": "correctors", "dim": 2, "grid_n": 128, "ell": 4,
                "coefficient": {"kind": "trig_checkerboard",
                                "base": 2.0, "amplitude": 1.0}},
    "oracle-1d": {"kind": "elliptic-rate", "dim": 1, "ell": 2,
                  "mode": "prepared", "coefficient": LAMINATE,
                  "eps_list": [2.0 ** -j for j in range(3, 8)],
                  "box_side": 1.0},
    "wave-1d": {"kind": "wave-compare", "dim": 1, "ell": 2, "T": 8,
                "coefficient": LAMINATE,
                "eps_list": [0.125, 0.0625, 0.03125], "box_side": 64.0},
    "transport-1d": {"kind": "transport", "dim": 1, "ell": 2, "gamma": 0.0,
                     "T": 1.0, "coefficient": LAMINATE,
                     "eps_list": [0.25, 0.125, 0.0625], "box_side": 64.0},
}


def variant(seed: int) -> int:
    return 0 if seed == 0 else random.Random(seed).randrange(VARIANTS)


def make_config(workload: str, k: int) -> dict:
    cfg = copy.deepcopy(BASE_CONFIGS[workload])
    s = 1.0 + STEP * k
    coef = cfg["coefficient"]
    if coef["kind"] == "trig_checkerboard":
        coef["base"] *= s
        coef["amplitude"] *= s
    else:
        coef["values"][0] = s
    return cfg


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_table(path: Path) -> list[list[str]]:
    """CSV rows after the config line and the column header."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[2:]


def recorded_values(workload: str, tables: Path) -> list:
    """The numbers a workload records next to its timings."""
    if workload == "cell-2d":
        return [[float(v) for v in row[2].split()]
                for row in read_table(tables / "lambda_table.csv")]
    column = {"oracle-1d": ("elliptic_rates.csv", 1),
              "wave-1d": ("wave_errors.csv", 1),
              "transport-1d": ("transport.csv", 3)}
    name, col = column[workload]
    return [float(row[col]) for row in read_table(tables / name)]


def check_tables(workload: str, k: int, tables: Path, reference: dict) -> list:
    """Failure reasons of one operation's outputs against the references."""
    manifest = json.loads((tables / "manifest.json").read_text())
    fails = [f"manifest check {c['name']} failed: {c['value']:.6g} "
             f"{c['direction']} {c['threshold']:.6g}"
             for c in manifest["checks"] if not c["pass"]]
    s = 1.0 + STEP * k
    if workload == "cell-2d":
        ref = reference["cell-2d"]["0"]
        scale = max(abs(v) for v in ref[0])
        for order, (row, ref_row) in enumerate(
                zip(recorded_values(workload, tables), ref)):
            gap = max(abs(v - s * r) for v, r in zip(row, ref_row))
            if len(row) != len(ref_row) or gap > LAMBDA_RTOL * s * scale:
                fails.append(f"lambda order {order} departs from {s:g} x the "
                             f"reference by {gap:.3e}")
    elif workload == "oracle-1d":
        lam0 = float(read_table(tables / "oracle_lambdas.csv")[0][1])
        harmonic = 2.0 * s * 4.0 / (s + 4.0)
        if abs(lam0 - harmonic) > LAMBDA0_ATOL:
            fails.append(f"oracle lambda0 {lam0!r} is not the harmonic mean "
                         f"{harmonic!r}")
        ref = reference["oracle-1d"][str(k)]
        errs = recorded_values(workload, tables)
        if len(errs) != len(ref) or any(
                abs(e - r) > ORACLE_RTOL * abs(r) for e, r in zip(errs, ref)):
            fails.append(f"gradient errors {errs} depart from reference {ref}")
    elif workload == "transport-1d":
        for row in read_table(tables / "transport.csv"):
            if row[6] != "True":
                fails.append(f"eps={row[0]}: row flagged as wrapped")
    return fails


def table_digests(tables: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tables.glob("*.csv"))}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_PIN})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_probe(cfg_path: Path, env: dict, timeout: float) -> dict:
    """Fresh process: import homwave, load and validate the config, exit."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "homwave.cli", "validate", "--config",
             str(cfg_path)], env=env, capture_output=True, text=True,
            timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"failures": [f"validate timed out after {timeout:.0f} s"]}
    seconds = time.monotonic() - start
    fails = [] if proc.returncode == 0 else [
        f"validate exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    fails += [line for line in proc.stdout.splitlines()
              if line.startswith("error")]
    return {"setup_s": seconds, "failures": fails}


def operation(workload: str, cfg_path: Path, op_dir: Path, traced: bool,
              env: dict, timeout: float) -> dict:
    """One experiment in a fresh ``homwave`` CLI process."""
    op_dir.mkdir(parents=True)
    result_path = op_dir / "child.json"
    tables = op_dir / "tables"
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path)]
    cmd += ["--trace"] if traced else []
    cmd += ["--", BASE_CONFIGS[workload]["kind"], "--config", str(cfg_path),
            "--out", str(tables)]
    with open(op_dir / "log.txt", "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=env, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"traced": traced,
                    "failures": [f"timed out after {timeout:.0f} s"]}
    if proc.returncode != 0 or not result_path.is_file():
        tail = (op_dir / "log.txt").read_text()[-400:]
        return {"traced": traced,
                "failures": [f"child exited {proc.returncode}: {tail}"]}
    doc = json.loads(result_path.read_text())
    op = {"traced": traced, "run_s": doc["exit"] - doc["entry"],
          "peak_rss_mb": doc["maxrss_kb"] / 1024.0, "failures": []}
    if not Path(doc["homwave_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"homwave was imported from {doc['homwave_file']}, "
                         f"not from {SRC}")
    if doc["code"] != 0:
        op["failures"].append(f"homwave exited {doc['code']}")
    if (tables / "manifest.json").is_file():
        op["digests"] = table_digests(tables)
        op["recorded"] = recorded_values(workload, tables)
    else:
        op["failures"].append("no manifest.json written")
    if traced:
        from tracer import TraceError, layer_metrics
        try:
            op["layers"] = layer_metrics(doc["trace"])
        except TraceError as err:
            op["failures"].append(str(err))
    return op


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

COUNTERS = ("torus.fft_calls", "torus.fft_points", "torus.op_applies",
            "torus.pcg_iters", "wave.steps", "wave.apply_calls",
            "oracle1d.legval_calls", "oracle1d.pp_products")


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {name: "1" for name in THREAD_PIN},
            "workers": "default: no --workers flag and no workers key"}


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    k = variant(seed)
    cfg = make_config(workload, k)
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n")
    reference = json.loads((BENCH / "reference.json").read_text())
    env = child_env()

    # Closed loop: a set-up probe and an operation per cycle, until the run
    # has used its seconds (to within half a cycle).
    probes, ops = [], []
    cycle = 0.0
    while True:
        t0 = time.monotonic()
        probes.append(setup_probe(cfg_path, env, deadline - t0))
        traced = trace and len(ops) % 2 == 1
        op = operation(workload, cfg_path, run_dir / f"op{len(ops)}", traced,
                       env, max(1.0, deadline - time.monotonic()))
        ops.append(op)
        now = time.monotonic()
        cycle = max(cycle, now - t0)
        if op["failures"] and "digests" not in op:
            break
        if len(ops) >= MIN_OPS and (now - started + cycle / 2 >= seconds
                                    or now + cycle > deadline):
            break
    while len(probes) < SETUP_PROBES and time.monotonic() + 2.0 < deadline:
        probes.append(setup_probe(cfg_path, env, deadline - time.monotonic()))

    first = next((op for op in ops if "digests" in op), None)
    for i, op in enumerate(ops):
        if "digests" not in op:
            continue
        if op["digests"] != first["digests"]:
            op["failures"].append("CSV tables differ from the run's first "
                                  "operation")
        op["failures"] += check_tables(
            workload, k, run_dir / f"op{i}" / "tables", reference)
    traced_ops = [op for op in ops if "layers" in op]
    for op in traced_ops[1:]:
        moved = [c for c in COUNTERS
                 if op["layers"][c] != traced_ops[0]["layers"][c]]
        if moved:
            op["failures"].append(
                f"counters differ between traced runs: {moved}")

    # Timings come from every operation that ran to the end, checked or not;
    # failed checks show in ``failed`` and ``correct``.
    plain = [op for op in ops if "run_s" in op and not op["traced"]]
    # traced minus untraced run_s over adjacent operations, which share the
    # machine's state better than two separate medians do
    overheads = [t["run_s"] - u["run_s"] for u, t in zip(ops[::2], ops[1::2])
                 if "run_s" in u and "layers" in t]
    failed = (sum(1 for op in ops if op["failures"])
              + sum(1 for p in probes if p["failures"]))
    attempted = len(ops) + len(probes)
    record = {"workload": workload, "seed": seed, "variant": k,
              "config": cfg, "environment": environment(),
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted,
              "failures": [f for x in ops + probes for f in x["failures"]],
              "samples": {
                  "run_s": [op["run_s"] for op in plain],
                  "setup_s": [p["setup_s"] for p in probes if "setup_s" in p],
                  "peak_rss_mb": [op["peak_rss_mb"] for op in plain]},
              "recorded": first["recorded"] if first else None}
    if (not plain or not record["samples"]["setup_s"]
            or (trace and not overheads)):
        record["metrics"] = None
        return record
    record["quartiles"] = {name: quartiles(v)
                           for name, v in record["samples"].items()}
    if trace:
        layers = {name: statistics.median_low(op["layers"][name]
                                              for op in traced_ops)
                  for name in traced_ops[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(overheads)
        record["metrics"] = layers
    else:
        record["metrics"] = {name: statistics.median(v)
                             for name, v in record["samples"].items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=BASE_CONFIGS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homwave" / "__init__.py").is_file():
        print(f"error: no homwave package under {SRC}; bench/ belongs in a "
              f"homwave checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"FAIL {failure}")
    if record["metrics"] is None:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    print("env", json.dumps(record["environment"], sort_keys=True))
    print(f"variant {record['variant']} recorded {record['recorded']}")
    for name, (q1, q2, q3) in record["quartiles"].items():
        print(f"{name}: median {q2:.6g} quartiles [{q1:.6g}, {q3:.6g}] "
              f"n={len(record['samples'][name])}")
    print(f"fail_frac {record['fail_frac']:.4g} "
          f"({record['failed']}/{record['attempted']})")
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                "unit": m["unit"]} for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
