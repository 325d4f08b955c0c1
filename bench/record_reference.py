"""Record the reference tables the benchmark checks its outputs against.

    python3 bench/record_reference.py

Needs the homwave ``src/`` beside ``bench/``.  Runs each workload once per
input variant through the same CLI path as ``run.py`` and writes
``bench/reference.json``:

- ``cell-2d``: the lambda table of variant 0 only; variant k is checked
  against it scaled by 1 + 0.05 k;
- ``oracle-1d``: the gradient errors of every variant (checked to roundoff);
- ``wave-1d``: the sup L2 errors, ``transport-1d``: the ballistic ratios of
  every variant.  These are recorded, not gated: a more accurate fine
  solver moves them legitimately.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    env = run.child_env()
    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for workload in run.BASE_CONFIGS:
        variants = [0] if workload == "cell-2d" else range(run.VARIANTS)
        reference[workload] = {}
        for k in variants:
            op_dir = work / f"{workload}-{k}"
            op_dir.mkdir(parents=True)
            cfg_path = op_dir / "config.json"
            cfg_path.write_text(json.dumps(run.make_config(workload, k)))
            op = run.operation(workload, cfg_path, op_dir / "op", False, env,
                               timeout=600.0)
            if op["failures"]:
                print(f"{workload} variant {k}: {op['failures']}",
                      file=sys.stderr)
                return 1
            reference[workload][str(k)] = op["recorded"]
            print(workload, k, op["recorded"], flush=True)
    (run.BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
