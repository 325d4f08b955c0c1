"""Outside-in tracer for one homwave CLI run, and the layer metrics it feeds.

``install`` wraps public functions at the module boundaries where their
names are bound, without touching the package on disk:

- a function imported by name into another module (``solve_div_a_grad`` in
  ``correctors``, ``solve_fine_wave`` in ``transport``) is rebound in every
  ``homwave`` module that holds it;
- FFTs are counted at ``numpy.fft`` itself, across all of its transform
  functions and with element counts, so a switch to ``rfftn`` or to stacked
  transforms still counts;
- ``legval`` is counted only where ``homwave.oracle1d`` calls it, through a
  copy of the ``legendre`` module bound in place of ``oracle1d.leg``
  (``legint`` and ``leggauss`` call ``legval`` internally; those calls are
  numpy's, not the oracle's).

Spans (name, start, end, parent) stay in memory and are written out once,
by ``Tracer.dump``.  ``layer_metrics`` turns a dump into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
             "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")

PCG = ("torus.solve_div_a_grad", "torus.solve_elliptic")
CHECKS = ("correctors.hierarchy_invariants",
          "correctors.verify_corrector_identities")


class Tracer:
    """Span recorder: a flat list, parents by index, a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []      # [name id, start, end, parent index]
        self.stack: list[int] = [-1]
        self.counters: Counter = Counter()
        self._ids: dict[str, int] = {}

    def wrap(self, name: str, fn, count=None, skip=None):
        """``fn`` inside a span; ``count(counters, args, result)`` tallies
        work, and calls for which ``skip(args)`` holds are not traced."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, counters, clock = (self.spans, self.stack,
                                         self.counters, time.perf_counter)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            rec = [nid, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, count=None):
        """Wrap a module-level function at every ``homwave`` binding of it."""
        orig = getattr(module, attr)
        traced = self.wrap(name, orig, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "homwave" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, count=None, skip=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(
                self.wrap(name, raw.__func__, count, skip)))
        else:
            setattr(cls, attr, self.wrap(name, raw, count, skip))

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": dict(self.counters)}


def _tally(key: str, amount):
    def count(counters, args, result):
        counters[key] += amount(args, result)
    return count


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of an imported ``homwave`` package."""
    import numpy as np
    import numpy.fft
    from numpy.polynomial import legendre

    from homwave import (cli, correctors, dispersion, elliptic, oracle1d,
                         torus, transport, wave)

    for fname in FFT_FUNCS:
        setattr(numpy.fft, fname, tracer.wrap(
            "numpy.fft", getattr(numpy.fft, fname),
            _tally("fft_points", lambda a, r: int(np.size(a[0])))))

    pf = tracer.patch_function
    pf(torus, "apply_div_a_grad", "torus.apply_div_a_grad",
       _tally("op_points", lambda a, r: int(np.size(a[1]))))
    pf(torus, "solve_div_a_grad", "torus.solve_div_a_grad")
    pf(torus, "solve_elliptic", "torus.solve_elliptic")
    pf(torus, "solve_poisson_values", "torus.solve_poisson_values")
    pf(correctors, "build_hierarchy", "correctors.build_hierarchy")
    pf(correctors, "hierarchy_invariants", "correctors.hierarchy_invariants")
    pf(correctors, "verify_corrector_identities",
       "correctors.verify_corrector_identities")
    pf(correctors, "reconstruct_dispersion",
       "correctors.reconstruct_dispersion")
    pf(dispersion, "compute_kmax", "dispersion.compute_kmax")

    def fine_counts(counters, args, traj):
        steps = int(traj.meta["steps"])
        counters["wave_steps"] += steps
        counters["wave_dof_steps"] += steps * int(traj.u[0].size)
        counters["wave_snapshots"] += int(traj.times.size)

    pf(wave, "solve_fine_wave", "wave.solve_fine_wave", fine_counts)
    pf(wave, "homogenized_wave_field", "wave.homogenized_wave_field")
    tracer.patch_method(wave.FluxFormOperator, "apply",
                        "wave.FluxFormOperator.apply")

    pp = oracle1d.PiecewisePoly
    tracer.patch_method(
        pp, "__mul__", "oracle1d.PiecewisePoly.__mul__",
        _tally("pp_segments", lambda a, r: len(r.breaks) - 1),
        skip=lambda a: np.isscalar(a[1]))
    tracer.patch_method(pp, "from_callable",
                        "oracle1d.PiecewisePoly.from_callable")
    pf(oracle1d, "solve_elliptic_box", "oracle1d.solve_elliptic_box")
    pf(oracle1d, "correctors_1d", "oracle1d.correctors_1d")
    counters = tracer.counters

    def legval(*args, **kwargs):
        counters["legval_calls"] += 1
        return legendre.legval(*args, **kwargs)

    leg_view = types.ModuleType(legendre.__name__)
    leg_view.__dict__.update(vars(legendre))
    leg_view.legval = legval
    oracle1d.leg = leg_view

    pf(elliptic, "elliptic_error_sweep_1d", "elliptic.elliptic_error_sweep_1d")
    pf(transport, "ballistic_experiment", "transport.ballistic_experiment")
    pf(transport, "windowed_moment", "transport.windowed_moment")
    pf(cli, "main", "cli.main")


class TraceError(ValueError):
    """A trace that contradicts the program's own bookkeeping."""


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics (name -> value) of one traced run."""
    names = dump["names"]
    spans = dump["spans"]
    counters = Counter(dump["counters"])
    n = len(spans)
    name = [names[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    covered = [0.0] * n
    ancestors: list[frozenset] = [frozenset()] * n
    for i in range(n):            # parents precede their children
        p = parent[i]
        if p >= 0:
            covered[p] += dur[i]
            ancestors[i] = ancestors[p] | {name[p]}

    def count(*keys):
        return sum(1 for nm in name if nm in keys)

    def total(*keys):
        """Wall time inside any of ``keys``, nested calls counted once."""
        return sum(dur[i] for i in range(n)
                   if name[i] in keys and not ancestors[i] & set(keys))

    def self_time(*keys):
        return sum(dur[i] - covered[i] for i in range(n) if name[i] in keys)

    def under(key, outer):
        return sum(1 for i in range(n)
                   if name[i] == key and ancestors[i] & set(outer))

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    fft_calls = count("numpy.fft")
    fft_s = total("numpy.fft")
    pcg_iters = under("torus.apply_div_a_grad", PCG)
    pcg_s = total(*PCG)
    builds = count("correctors.build_hierarchy")
    build_s = total("correctors.build_hierarchy")
    fine_runs = count("wave.solve_fine_wave")
    fine_s = total("wave.solve_fine_wave")
    steps = counters["wave_steps"]
    apply_calls = count("wave.FluxFormOperator.apply")
    apply_s = total("wave.FluxFormOperator.apply")
    fine_applies = under("wave.FluxFormOperator.apply",
                         ("wave.solve_fine_wave",))
    # one apply per leapfrog step plus the initial one of each run
    if fine_applies != steps + fine_runs:
        raise TraceError(
            f"trajectory metadata reports {steps} steps in {fine_runs} runs, "
            f"but the fine solver applied its operator {fine_applies} times")
    prop_calls = count("wave.homogenized_wave_field")
    prop_s = total("wave.homogenized_wave_field")
    pp_s = total("oracle1d.PiecewisePoly.__mul__")

    return {
        "torus.fft_calls": fft_calls,
        "torus.fft_points": counters["fft_points"],
        "torus.fft_s": fft_s,
        "torus.fft_pair_us": per(2.0 * fft_s, fft_calls, 1e6),
        "torus.op_applies": count("torus.apply_div_a_grad"),
        "torus.op_points": counters["op_points"],
        "torus.pcg_solves": count(*PCG),
        "torus.pcg_iters": pcg_iters,
        "torus.pcg_self_s": self_time(*PCG),
        "torus.pcg_iter_us": per(pcg_s, pcg_iters, 1e6),
        "torus.fft_per_apply": per(under("numpy.fft", PCG), pcg_iters),
        "torus.poisson_solves": count("torus.solve_poisson_values"),
        "torus.poisson_s": total("torus.solve_poisson_values"),
        "correctors.builds": builds,
        "correctors.build_s": build_s,
        "correctors.build_per_dir_s": per(build_s, builds),
        "correctors.checks_s": total(*CHECKS),
        "correctors.fit_self_s":
            self_time("correctors.reconstruct_dispersion"),
        "dispersion.kmax_s": total("dispersion.compute_kmax"),
        "wave.fine_runs": fine_runs,
        "wave.fine_s": fine_s,
        "wave.steps": steps,
        "wave.apply_calls": apply_calls,
        "wave.apply_us": per(apply_s, apply_calls, 1e6),
        "wave.step_us": per(fine_s, steps, 1e6),
        "wave.fine_self_s": self_time("wave.solve_fine_wave"),
        "wave.dof_steps_per_s": per(counters["wave_dof_steps"], fine_s),
        "wave.snapshots": counters["wave_snapshots"],
        "wave.propagator_calls": prop_calls,
        "wave.propagator_s": prop_s,
        "wave.propagator_us": per(prop_s, prop_calls, 1e6),
        "oracle1d.legval_calls": counters["legval_calls"],
        "oracle1d.pp_products": count("oracle1d.PiecewisePoly.__mul__"),
        "oracle1d.pp_product_s": pp_s,
        "oracle1d.pp_product_us_per_segment":
            per(pp_s, counters["pp_segments"], 1e6),
        "oracle1d.fit_s": total("oracle1d.PiecewisePoly.from_callable"),
        "oracle1d.box_solve_s": total("oracle1d.solve_elliptic_box"),
        "oracle1d.correctors_s": total("oracle1d.correctors_1d"),
        "elliptic.sweep_self_s": self_time("elliptic.elliptic_error_sweep_1d"),
        "transport.experiment_self_s":
            self_time("transport.ballistic_experiment"),
        "transport.moment_s": total("transport.windowed_moment"),
        "cli.self_s": self_time("cli.main"),
    }
