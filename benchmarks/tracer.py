"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of blowuplab (a function named
in its defining module's `__all__`) in every blowuplab namespace that holds
it, so a call is timed wherever the calling module looks the name up:
`stepper.simulate` calling `step`, `cli` calling `simulate`, or the
benchmark calling `stepper.simulate`.  No source file changes.  Spans nest,
so each layer has a busy time (`.s`) and a self time (`.self_s`, busy time
minus the time of the wrapped calls it made).  A few wrappers also count
work: steps accepted and rejected, snapshot bytes, bytes written, sweep
points, and the FFTs that `grids` computes.

Sweep points run in forked pool workers, which inherit the wrappers; each
worker writes its totals to a file after every point and the parent merges
them when `run_sweep` returns.
"""

import functools
import glob
import importlib
import json
import os
import time
import types
from collections import defaultdict

import numpy

MODULES = (
    "exponents", "grids", "model", "stepper", "weakform",
    "scaling", "oracles", "sweep", "config", "cli",
)

# name, unit, better; every traced run reports all of them, 0 where a layer
# does no work on that workload
PER_LAYER = [
    ("grids.laplacian.calls", "count", "lower"),
    ("grids.laplacian.s", "s", "lower"),
    ("grids.helmholtz_solve.calls", "count", "lower"),
    ("grids.helmholtz_solve.s", "s", "lower"),
    ("grids.grad_sq_integral.calls", "count", "lower"),
    ("grids.grad_sq_integral.s", "s", "lower"),
    ("grids.transforms", "count", "lower"),
    ("grids.save_field_binary.calls", "count", "lower"),
    ("grids.save_field_binary.s", "s", "lower"),
    ("grids.save_field_binary.bytes", "bytes", "lower"),
    ("stepper.step.calls", "count", "lower"),
    ("stepper.step.s", "s", "lower"),
    ("stepper.energy.calls", "count", "lower"),
    ("stepper.energy.s", "s", "lower"),
    ("stepper.simulate.calls", "count", "lower"),
    ("stepper.simulate.self_s", "s", "lower"),
    ("stepper.accepted_steps", "count", "lower"),
    ("stepper.rejected_attempts", "count", "lower"),
    ("stepper.step_calls_per_accepted", "ratio", "lower"),
    ("stepper.detect_blowup.calls", "count", "lower"),
    ("stepper.detect_blowup.s", "s", "lower"),
    ("stepper.snapshot_bytes", "bytes", "lower"),
    ("stepper.write_energy_csv.s", "s", "lower"),
    ("model.bump_data.s", "s", "lower"),
    ("model.make_initial_data.s", "s", "lower"),
    ("sweep.points", "count", "higher"),
    ("sweep.run_sweep.s", "s", "lower"),
    ("sweep.worker_busy_s", "s", "lower"),
    ("sweep.parallel_efficiency", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("config.parse_config_text.s", "s", "lower"),
    ("weakform.term_bundle.calls", "count", "lower"),
    ("weakform.term_bundle.s", "s", "lower"),
    ("weakform.weak_residual.calls", "count", "lower"),
    ("weakform.weak_residual.s", "s", "lower"),
    ("weakform.manufactured_crosscheck.self_s", "s", "lower"),
    ("scaling.invariance_error.self_s", "s", "lower"),
    ("scaling.rescale_trajectory.s", "s", "lower"),
    ("oracles.ode_blowup_time.s", "s", "lower"),
    ("oracles.ode_trajectory.s", "s", "lower"),
    ("oracles.linear_mode_trajectory.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)


class _NumpyView(types.ModuleType):
    """Stands in for `numpy` inside `grids`: `np.fft` transforms are counted,
    every other attribute is numpy's own."""

    def __init__(self, tracer):
        super().__init__("numpy")
        fft = types.SimpleNamespace(**vars(numpy.fft))
        for name in _TRANSFORMS:
            setattr(fft, name, self._counted(getattr(numpy.fft, name), tracer))
        self.fft = fft

    @staticmethod
    def _counted(fn, tracer):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts["grids.transforms"] += 1
            return fn(*args, **kwargs)

        return counted

    def __getattr__(self, name):
        return getattr(numpy, name)


class Tracer:
    def __init__(self, dump_dir=None):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.worker = False
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(float)
        self._open = []  # wrapped-child time of each open span, innermost last

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.child[name] += self._open.pop()
                if self._open:
                    self._open[-1] += elapsed

        return traced

    def install(self):
        """Wrap blowuplab's public functions in every namespace that holds
        them, and count the FFTs `grids` computes."""
        import blowuplab

        mods = {name: importlib.import_module(f"blowuplab.{name}") for name in MODULES}
        wrappers = {}
        for mname, mod in mods.items():
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._with_counters(f"{mname}.{fname}", fn)
        point = mods["sweep"]._run_point
        wrappers[point] = self._sweep_point(self.span("sweep._run_point", point))
        for mod in (blowuplab, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        mods["grids"].np = _NumpyView(self)

    def _with_counters(self, name, fn):
        traced = self.span(name, fn)
        hook = {
            "stepper.simulate": self._simulate,
            "grids.save_field_binary": self._save_field,
            "sweep.run_sweep": self._run_sweep,
        }.get(name)
        return hook(traced) if hook else traced

    def _simulate(self, traced):
        @functools.wraps(traced)
        def simulate(params, init, controls):
            steps_before = self.calls["stepper.step"]
            report = traced(params, init, controls)
            step_calls = self.calls["stepper.step"] - steps_before
            accepted = len(report.energy_trace) - 1
            # step doubling makes three step calls per adaptive attempt
            attempts = step_calls if controls.tol is None else step_calls // 3
            self.counts["stepper.accepted_steps"] += accepted
            self.counts["stepper.rejected_attempts"] += attempts - accepted
            self.counts["stepper.snapshot_bytes"] += sum(
                s.u.values.nbytes + s.v.values.nbytes for s in report.snapshots or ()
            )
            return report

        return simulate

    def _save_field(self, traced):
        @functools.wraps(traced)
        def save_field_binary(field, path):
            traced(field, path)
            self.counts["grids.save_field_binary.bytes"] += os.path.getsize(path)

        return save_field_binary

    def _run_sweep(self, traced):
        @functools.wraps(traced)
        def run_sweep(config, workers=1):
            results = traced(config, workers)
            for path in glob.glob(os.path.join(self.dump_dir, "worker-*.json")):
                self.merge_file(path)
                os.remove(path)
            self.counts["sweep.points"] += len(results)
            self.counts["sweep.workers"] = min(workers, len(results))
            return results

        return run_sweep

    def _sweep_point(self, traced):
        @functools.wraps(traced)
        def run_point(config, point):
            if os.getpid() != self.pid:
                # first point in a forked worker: drop the parent's totals
                self.pid = os.getpid()
                self.reset()
                self.worker = True
            result = traced(config, point)
            if self.worker:
                self.dump(os.path.join(self.dump_dir, f"worker-{self.pid}.json"))
            return result

        return run_point

    # -- totals --------------------------------------------------------------

    def dump(self, path):
        doc = {"calls": self.calls, "busy": self.busy, "child": self.child, "counts": self.counts}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def merge_file(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        for key in ("calls", "busy", "child", "counts"):
            table = getattr(self, key)
            for name, value in doc[key].items():
                table[name] += value

    def metrics(self, overhead_s):
        values = {"trace.overhead_s": overhead_s}
        for name in self.calls:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.s"] = self.busy[name]
            values[f"{name}.self_s"] = self.busy[name] - self.child[name]
        values.update(self.counts)
        accepted = values.get("stepper.accepted_steps", 0)
        if accepted:
            values["stepper.step_calls_per_accepted"] = values["stepper.step.calls"] / accepted
        values["sweep.worker_busy_s"] = values.get("sweep._run_point.s", 0.0)
        sweep_s = values.get("sweep.run_sweep.s", 0.0)
        if sweep_s:
            values["sweep.parallel_efficiency"] = values["sweep.worker_busy_s"] / (
                values["sweep.workers"] * sweep_s
            )
        return {
            name: {"value": int(values.get(name, 0)) if unit in ("count", "bytes")
                   else values.get(name, 0), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
