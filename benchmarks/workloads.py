"""The benchmark's four workloads.

Each workload has three parts:

* `build(seed)` makes the inputs: grids, initial data, parameters and
  configs.  Importing this module plus `build` is what `setup_s` times.
* `run(inp, rnd)` makes one round of calls into blowuplab through
  `rnd.call`, which counts each call as one operation, and returns the raw
  outputs as plain numbers and arrays.
* `checks`, a dict from check name to a function of (inp, out) that
  recomputes the expected answer apart from the program and returns
  (ok, detail).

A round makes the same operations whatever the seed; the seed moves data
(bump position and height, mode index, sample times) but not the amount of
work.
"""

import json
import math
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import blowuplab  # noqa: F401  (part of set-up: the package import)
from blowuplab import grids, model, oracles, scaling, stepper, sweep, weakform

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
ENERGY_COLUMNS = ("t", "kinetic", "potential", "dissipated_cum", "work_cum", "linf", "l2")


def _summary(report):
    """Outcome, final fields and energy rows of one simulate report."""
    trace = report.energy_trace
    return {
        "outcome": report.outcome.value,
        "t_stop": report.t_stop,
        "final_u": report.final_state.u.values,
        "final_v": report.final_state.v.values,
        "energy": np.array([(r.t, r.kinetic, r.potential, r.dissipated_cum) for r in trace]),
    }


def _energy_stats(energy):
    """Largest relative growth of E = kinetic + potential from one row to the
    next, and the largest ledger defect |E + dissipated - E0| / E0."""
    total = energy[:, 1] + energy[:, 2]
    growth = float((np.diff(total) / np.maximum(total[:-1], 1e-300)).max(initial=0.0))
    drift = float(np.abs(total + energy[:, 3] - total[0]).max() / total[0])
    return growth, drift


# ---------------------------------------------------------------------------
# fixed_linear_1d: the criterion-2 family, fixed-step linear IMEX at N = 256

LINEAR_BETAS = (-1.0, 0.0, 1.0)
LINEAR_DTS = (2.0**-11, 2.0**-12)  # powers of two: t reaches t_end exactly
LINEAR_T = 1.0


def build_fixed_linear(seed):
    rng = np.random.default_rng(seed)
    grid = grids.Grid(1, 256, 100.0)
    shift = int(rng.integers(-20, 21))  # whole cells, so the sampled bump only moves
    height = float(rng.uniform(0.5, 2.0))
    init = model.make_initial_data(
        grids.constant_field(grid, 0.0),
        model.bump_data(grid, height, shift * grid.spacing, 5.0),
        compact_support=True,
    )
    runs = [
        (beta, dt, model.Params(n=1, p=2.0, beta=beta, b0=1.0, nonlinear=False),
         stepper.Controls(t_end=LINEAR_T, dt0=dt, tol=None))
        for beta in LINEAR_BETAS
        for dt in LINEAR_DTS
    ]
    return {"grid": grid, "init": init, "runs": runs}


def run_fixed_linear(inp, rnd):
    out = []
    for beta, dt, params, controls in inp["runs"]:
        report = rnd.call(stepper.simulate, params, inp["init"], controls)
        out.append({"beta": beta, "dt": dt, **_summary(report)})
    return out


def _pair(out, beta):
    """(coarse, fine) runs at one beta."""
    return sorted((r for r in out if r["beta"] == beta), key=lambda r: -r["dt"])


def _closed_form_errors(inp, out):
    init = inp["init"]
    exact = reference.damped_field_1d(
        init.u0.values, init.u1.values, inp["grid"].half_width, 1.0, LINEAR_T
    )
    scale = np.abs(exact).max()
    return [(r["dt"], float(np.abs(r["final_u"] - exact).max() / scale)) for r in _pair(out, 0.0)]


def check_fixed_completed(inp, out):
    bad = [(r["beta"], r["dt"], r["outcome"]) for r in out
           if r["outcome"] != "CompletedHorizon" or r["t_stop"] != LINEAR_T]
    return len(out) == len(inp["runs"]) and not bad, f"not completed: {bad}"


def check_fixed_closed_form(inp, out):
    # first order: relative error at most 0.1 dt at t = 1 (observed 0.05 dt)
    errs = _closed_form_errors(inp, out)
    return all(e <= 0.1 * dt for dt, e in errs), f"(dt, rel err) = {errs}"


def check_fixed_error_halves(inp, out):
    (_, coarse), (_, fine) = _closed_form_errors(inp, out)
    ratio = fine / coarse
    return 0.4 <= ratio <= 0.6, f"error ratio {ratio:.4f}"


def check_fixed_mass(inp, out):
    # the zero mode moves exactly: int u(T) = int u0 + T int u1, int v(T) = int u1
    init, h = inp["init"], inp["grid"].spacing
    m0, m1 = h * init.u0.values.sum(), h * init.u1.values.sum()
    scale = 1e-10 * (abs(m0) + LINEAR_T * h * np.abs(init.u1.values).sum())
    worst = max(
        max(abs(h * r["final_u"].sum() - (m0 + LINEAR_T * m1)), abs(h * r["final_v"].sum() - m1))
        for r in out
    )
    return worst <= scale, f"mass defect {worst:.3e} against {scale:.3e}"


def check_fixed_energy_monotone(inp, out):
    growth = [_energy_stats(r["energy"])[0] for r in out]
    return max(growth) <= 1e-9, f"largest relative energy growth {max(growth):.3e}"


def check_fixed_ledger_drift(inp, out):
    drift = [_energy_stats(r["energy"])[1] for r in out]
    return max(drift) < 1e-4, f"largest ledger drift {max(drift):.3e}"


def check_fixed_drift_halves(inp, out):
    ratios = []
    for beta in LINEAR_BETAS:
        coarse, fine = (_energy_stats(r["energy"])[1] for r in _pair(out, beta))
        ratios.append(fine / coarse)
    return all(0.35 <= q <= 0.65 for q in ratios), f"drift ratios {ratios}"


# ---------------------------------------------------------------------------
# adaptive_blowup_1d: step doubling to blow-up, space-free and a bump sweep

SWEEP_AMPLITUDES = (10.0, 20.0)
SWEEP_T_END = 20.0


def build_adaptive_blowup(seed):
    rng = np.random.default_rng(seed)
    # constant data does not see the box size; the seed only moves it
    grid = grids.Grid(1, 32, 1.0 + float(rng.random()))
    init = model.make_initial_data(
        model.constant_data(grid, 1.0), model.constant_data(grid, math.sqrt(2.0 / 3.0))
    )
    scale = 1.0 + 0.01 * float(rng.random())
    config = sweep.SweepConfig(
        n_values=(1,),
        p_values=(2.0,),
        beta_values=(0.0,),
        amplitudes=tuple(a * scale for a in SWEEP_AMPLITUDES),
        points_per_axis=512,
        t_end=SWEEP_T_END,
    )
    return {
        "params": model.Params(n=1, p=2.0, beta=0.0, b0=1.0),
        "init": init,
        "controls": stepper.Controls(t_end=10.0, dt0=1e-2, tol=1e-6),
        "sweep": config,
        "workers": min(len(os.sched_getaffinity(0)), len(SWEEP_AMPLITUDES)),
    }


def run_adaptive_blowup(inp, rnd):
    report = rnd.call(stepper.simulate, inp["params"], inp["init"], inp["controls"])
    points = len(inp["sweep"].amplitudes)
    rows = rnd.call(sweep.run_sweep, inp["sweep"], inp["workers"], operations=points) or []
    rnd.failed += sum(row.outcome == "Error" for row in rows)
    return {
        "space_free": {"outcome": report.outcome.value, "t_star": report.estimate.t_star}
        if report and report.estimate else None,
        "sweep": [
            {"amplitude": r.amplitude, "verdict": r.verdict_theory, "outcome": r.outcome,
             "t_stop": r.t_stop, "t_star": r.t_star_est}
            for r in rows
        ],
    }


def check_space_free_t_star(inp, out):
    run = out["space_free"]
    err = abs(run["t_star"] - reference.SQRT6) / reference.SQRT6
    return run["outcome"] == "BlowupDetected" and err < 0.01, f"{run}, rel err {err:.2e}"


def check_sweep_blowup(inp, out):
    rows = out["sweep"]
    bad = [r for r in rows
           if r["outcome"] != "BlowupDetected" or r["verdict"] != "TheoremBlowup"
           or r["t_star"] is None or not r["t_star"] < SWEEP_T_END
           or not r["t_stop"] < SWEEP_T_END]
    return len(rows) == len(SWEEP_AMPLITUDES) and not bad, f"bad rows {bad}"


def check_sweep_t_star_decreases(inp, out):
    stars = [r["t_star"] for r in sorted(out["sweep"], key=lambda r: r["amplitude"])]
    return all(a > b for a, b in zip(stars, stars[1:])), f"t* by amplitude {stars}"


# ---------------------------------------------------------------------------
# cli_spectral_3d: `blwp simulate` on a 64^3 grid through python -c

CLI_STEPS = 64
CLI_DT = 2.0**-6  # power of two: exactly CLI_STEPS steps reach t_end
CLI_EVERY = 4
CLI_HALF_WIDTH = 8.0
CLI_RUN = "import sys; from blowuplab.cli import main; sys.exit(main())"
CLI_TRACED = """
import os, sys, time
t0 = time.perf_counter()
import blowuplab.cli
import_s = time.perf_counter() - t0
sys.path.insert(0, os.environ["BENCH_DIR"])
import tracer
tr = tracer.Tracer()
tr.install()
tr.counts["cli.import_s"] = import_s
try:
    code = tr.span("cli.main", blowuplab.cli.main)()
finally:
    tr.dump(os.environ["BENCH_TRACE_FILE"])
sys.exit(code)
"""
CLI_CONFIG = """\
# linear, beta = 0, one cosine mode on a 64^3 grid
grid.dim = 3
grid.points = 64
grid.half_width = {half_width!r}
model.beta = 0.0
model.b0 = 1.0
model.nonlinear = false
init.kind = mode
init.mode = {mode}
init.amplitude = {amplitude!r}
init.on = {on}
time.t_end = {t_end!r}
time.dt0 = {dt!r}
time.tol = 0
output.every = {every}
"""


def build_cli_spectral(seed):
    rng = np.random.default_rng(seed)
    inp = {
        "mode": int(rng.integers(1, 4)),
        "amplitude": float(rng.uniform(0.5, 2.0)),
        "on": ("u0", "u1")[int(rng.integers(2))],
        "dir": os.path.join(OUT, "cli_spectral_3d"),
    }
    inp["config"] = os.path.join(inp["dir"], "run.cfg")
    os.makedirs(inp["dir"], exist_ok=True)
    with open(inp["config"], "w") as fh:
        fh.write(CLI_CONFIG.format(
            half_width=CLI_HALF_WIDTH, mode=inp["mode"], amplitude=inp["amplitude"],
            on=inp["on"], t_end=CLI_STEPS * CLI_DT, dt=CLI_DT, every=CLI_EVERY,
        ))
    return inp


def _read_field(path):
    """A field file by the README's byte layout: 32-byte little-endian
    header (magic, version, dim, points, 8 pad bytes, half-width), then
    float64 values in C order."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, dim, points, half_width = struct.unpack("<4sIII8xd", raw[:32])
    values = np.frombuffer(raw, dtype="<f8", offset=32)
    return {"magic": magic, "version": version, "dim": dim, "points": points,
            "half_width": half_width, "values": values}


def run_cli_spectral(inp, rnd):
    run_dir = os.path.join(inp["dir"], "out")
    shutil.rmtree(run_dir, ignore_errors=True)
    argv = ["simulate", "--config", inp["config"], "--output.dir", run_dir, "--force"]
    env = dict(os.environ)
    if rnd.tracer is None:
        code = CLI_RUN
    else:
        code = CLI_TRACED
        env["BENCH_DIR"] = os.path.dirname(os.path.abspath(__file__))
        env["BENCH_TRACE_FILE"] = os.path.join(inp["dir"], "trace.json")
    rnd.attempted += 1
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    if proc.returncode != 0:
        rnd.failed += 1
        sys.stderr.write(proc.stderr.decode())
        return {"returncode": proc.returncode}
    if rnd.tracer is not None:
        rnd.tracer.merge_file(env["BENCH_TRACE_FILE"])
    with open(os.path.join(run_dir, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(run_dir, "energy_trace.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {
        "returncode": proc.returncode,
        "outcome": report["outcome"],
        "final_u": _read_field(os.path.join(run_dir, "final_u.blwp")),
        "csv_header": header,
        "energy": rows,
        "snapshots": len(os.listdir(os.path.join(run_dir, "snapshots"))),
    }


def check_cli_exit(inp, out):
    ok = out["returncode"] == 0 and out.get("outcome") == "CompletedHorizon"
    return ok, f"exit {out['returncode']}, outcome {out.get('outcome')}"


def _cli_mode(inp):
    """Closed-form amplitude y(t) of the run's cosine mode and its derivatives
    on a fine time grid over [0, T]."""
    k = inp["mode"] * math.pi / CLI_HALF_WIDTH
    y0, v0 = (inp["amplitude"], 0.0) if inp["on"] == "u0" else (0.0, inp["amplitude"])
    ts = np.linspace(0.0, CLI_STEPS * CLI_DT, 2001)
    return k, y0, v0, ts, [reference.damped_mode(k, 1.0, y0, v0, ts, m).real for m in (0, 1, 2)]


def check_cli_final_mode(inp, out):
    """final_u is the closed-form amplitude of cos(k x) along the first axis,
    within dt * int |y''| dt, twice the leading error term of a first-order
    method (observed: at most half the bound)."""
    field = out["final_u"]
    n = field["points"]
    header = (field["magic"], field["version"], field["dim"], n, field["half_width"])
    if header != (b"BLWP", 1, 3, 64, CLI_HALF_WIDTH) or field["values"].size != n**3:
        return False, f"header {header}, {field['values'].size} values"
    k, _, _, ts, (y, _, acc) = _cli_mode(inp)
    bound = CLI_DT * np.trapezoid(np.abs(acc), ts)
    x = -CLI_HALF_WIDTH + 2.0 * CLI_HALF_WIDTH / n * np.arange(n)
    values = field["values"].reshape(n, n, n)
    err = float(np.abs(values - y[-1] * np.cos(k * x)[:, None, None]).max())
    return err <= bound, f"max error {err:.3e} against bound {bound:.3e}"


def check_cli_csv_columns(inp, out):
    rows = out["energy"]
    ok = tuple(out["csv_header"]) == ENERGY_COLUMNS and rows.shape == (CLI_STEPS + 1, 7)
    return ok, f"header {out['csv_header']}, rows {rows.shape}"


def check_cli_energy_monotone(inp, out):
    growth = _energy_stats(out["energy"])[0]
    return growth <= 1e-9, f"largest relative energy growth {growth:.3e}"


def check_cli_ledger(inp, out):
    """The relative ledger defect stays within twice a first-order estimate
    from the closed form, (dt / 2 E0) (int k^2 y'^2 + y''^2 dt + k^2 max y'^2)
    (observed: at most half the bound)."""
    k, y0, v0, ts, (_, vel, acc) = _cli_mode(inp)
    e0 = 0.5 * (v0**2 + k**2 * y0**2)
    bound = CLI_DT / e0 * (np.trapezoid(k**2 * vel**2 + acc**2, ts) + k**2 * (vel**2).max())
    drift = _energy_stats(out["energy"])[1]
    return drift <= bound, f"ledger drift {drift:.3e} against {bound:.3e}"


def check_cli_snapshots(inp, out):
    expected = 2 * (1 + CLI_STEPS // CLI_EVERY)  # u and v, initial state included
    return out["snapshots"] == expected, f"{out['snapshots']} files, expected {expected}"


# ---------------------------------------------------------------------------
# proof_audit: the weak-form, scaling and oracle layers

SLOPE_CASES = ((2.0, 1, 0.0, 1.0), (2.0, 2, 0.0, 1.0), (2.0, 1, -3.0, 2.0))  # p, n, beta, d
HORIZONS = tuple(8.0 * 2.0**i for i in range(7))
WEAK_T = 4.0
RESIDUAL_RUNS = ((128, 1000), (256, 2000))  # points, time samples


def build_proof_audit(seed):
    rng = np.random.default_rng(seed)
    params = model.Params(n=1, p=2.0, beta=0.0, b0=1.0)
    residual_runs = []
    height = float(rng.uniform(0.4, 0.6))
    for points, nt in RESIDUAL_RUNS:
        grid = grids.Grid(1, points, 8.0)
        init = model.make_initial_data(
            model.bump_data(grid, height, 0.0, 1.0), grids.constant_field(grid, 0.0),
            compact_support=True,
        )
        controls = stepper.Controls(
            t_end=WEAK_T, dt0=WEAK_T / nt, tol=None, snapshot_every=1, boundary_check=False
        )
        residual_runs.append((init, controls))
    return {
        "slopes": [(model.Params(n=n, p=p, beta=beta), d) for p, n, beta, d in SLOPE_CASES],
        "params": params,
        "spec": weakform.CutoffSpec(ell=6, eta=6, d=1.0, T=WEAK_T),
        "crosscheck_grid": grids.Grid(1, 256, 8.0),
        "crosscheck_amplitude": float(rng.uniform(0.4, 0.6)),
        "residual_runs": residual_runs,
        "invariant": model.Params(n=1, p=2.0, beta=-1.0, b0=1.0, nonlinear=False),
        "control": model.Params(n=1, p=2.0, beta=0.0, b0=1.0, nonlinear=False),
        "scaling_amplitude": float(rng.uniform(0.5, 2.0)),
        "ode": oracles.OdeProblem(1.0, math.sqrt(2.0 / 3.0), 2.0),
        "ode_times": np.linspace(0.0, float(rng.uniform(1.9, 2.1)), 21),
        # underdamped (b0 k <= 1.5), away from the critical b0 k = 2
        "mode": (float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.5, 1.0)),
                 float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))),
        "mode_times": np.linspace(0.0, 5.0, 11),
    }


def run_proof_audit(inp, rnd):
    params, spec = inp["params"], inp["spec"]
    out = {"slopes": []}
    for case, d in inp["slopes"]:
        table = rnd.call(weakform.measure_term_slopes, case, d, HORIZONS)
        out["slopes"].append({name: row["slope"] for name, row in table.items()})
    cross = rnd.call(
        weakform.manufactured_crosscheck, inp["crosscheck_grid"], params, spec, 2000,
        amplitude=inp["crosscheck_amplitude"],
    )
    out["crosscheck"] = (cross["weak"], cross["strong"])
    out["residuals"] = []
    for init, controls in inp["residual_runs"]:
        report = rnd.call(stepper.simulate, params, init, controls)
        traj = [s.u for s in report.snapshots]
        out["residuals"].append(
            abs(rnd.call(weakform.weak_residual, traj, init.u0, init.u1, spec, params, WEAK_T))
        )
    amp = inp["scaling_amplitude"]
    out["invariance"] = [
        rnd.call(scaling.invariance_error, inp["invariant"], 2.0, res, amplitude=amp)
        for res in (512, 1024)
    ]
    out["control"] = rnd.call(
        scaling.invariance_error, inp["control"], 2.0, 512, amplitude=amp
    )
    out["t_star"] = rnd.call(oracles.ode_blowup_time, inp["ode"])
    traj = rnd.call(oracles.ode_trajectory, inp["ode"], inp["ode_times"])
    out["ode"] = (traj.t, traj.u, traj.diverged)
    k, b0, y0, v0 = inp["mode"]
    mode = rnd.call(oracles.linear_mode_trajectory, k, 0.0, b0, y0, v0, inp["mode_times"])
    out["mode"] = (mode.t, mode.u)
    return out


def check_proof_slopes(inp, out):
    worst = max(
        abs(fitted[name] - expected)
        for (case, d), fitted in zip(inp["slopes"], out["slopes"])
        for name, expected in reference.window_exponents(case.p, case.n, case.beta, d).items()
    )
    return len(out["slopes"]) == len(SLOPE_CASES) and worst < 0.05, f"worst slope error {worst:.4f}"


def check_proof_crosscheck(inp, out):
    weak, strong = out["crosscheck"]
    rel = abs(weak - strong) / max(abs(weak), abs(strong), 1e-300)
    return rel < 1e-6, f"weak {weak!r}, strong {strong!r}, rel diff {rel:.2e}"


def check_proof_residual_shrinks(inp, out):
    coarse, fine = out["residuals"]
    return fine < 0.8 * coarse, f"|residual| at 128, 256 points: {coarse:.3e}, {fine:.3e}"


def check_proof_invariance(inp, out):
    e512, e1024 = out["invariance"]
    return e512 < 1e-3, f"invariance error at 512 points {e512:.3e}"


def check_proof_invariance_converges(inp, out):
    e512, e1024 = out["invariance"]
    return e1024 < e512, f"invariance error 512 -> 1024: {e512:.3e} -> {e1024:.3e}"


def check_proof_invariance_control(inp, out):
    return out["control"] > 1e-2, f"beta = 0 control error {out['control']:.3e}"


def check_proof_blowup_time(inp, out):
    err = abs(out["t_star"] - reference.SQRT6)
    return err <= 1e-9, f"ode_blowup_time - sqrt(6) = {err:.2e}"


def check_proof_ode_trajectory(inp, out):
    t, u, diverged = out["ode"]
    if diverged or len(t) != len(inp["ode_times"]):
        return False, f"diverged {diverged}, {len(t)} samples"
    err = float(np.abs(u / reference.space_free_solution(t) - 1.0).max())
    return err <= 1e-8, f"relative error against 6/(sqrt(6)-t)^2: {err:.2e}"


def check_proof_linear_mode(inp, out):
    k, b0, y0, v0 = inp["mode"]
    t, u = out["mode"]
    err = float(np.abs(u - reference.damped_mode(k, b0, y0, v0, t).real).max())
    return err <= 1e-9, f"error against the damped oscillator {err:.2e}"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: object
    run: object
    checks: dict


WORKLOADS = {
    "fixed_linear_1d": Workload(build_fixed_linear, run_fixed_linear, {
        "completed": check_fixed_completed,
        "closed_form": check_fixed_closed_form,
        "error_halves": check_fixed_error_halves,
        "mass": check_fixed_mass,
        "energy_monotone": check_fixed_energy_monotone,
        "ledger_drift": check_fixed_ledger_drift,
        "drift_halves": check_fixed_drift_halves,
    }),
    "adaptive_blowup_1d": Workload(build_adaptive_blowup, run_adaptive_blowup, {
        "space_free_t_star": check_space_free_t_star,
        "sweep_blowup": check_sweep_blowup,
        "t_star_decreases": check_sweep_t_star_decreases,
    }),
    "cli_spectral_3d": Workload(build_cli_spectral, run_cli_spectral, {
        "exit": check_cli_exit,
        "final_mode": check_cli_final_mode,
        "csv_columns": check_cli_csv_columns,
        "energy_monotone": check_cli_energy_monotone,
        "ledger": check_cli_ledger,
        "snapshots": check_cli_snapshots,
    }),
    "proof_audit": Workload(build_proof_audit, run_proof_audit, {
        "slopes": check_proof_slopes,
        "crosscheck": check_proof_crosscheck,
        "residual_shrinks": check_proof_residual_shrinks,
        "invariance": check_proof_invariance,
        "invariance_converges": check_proof_invariance_converges,
        "invariance_control": check_proof_invariance_control,
        "blowup_time": check_proof_blowup_time,
        "ode_trajectory": check_proof_ode_trajectory,
        "linear_mode": check_proof_linear_mode,
    }),
}


class Round:
    """Counts the operations of one round; a call that raises is a failed
    operation and returns None."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, operations=1, **kwargs):
        self.attempted += operations
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += operations
            sys.stderr.write(f"operation {getattr(fn, '__name__', fn)} failed: {exc!r}\n")
            return None


def run_checks(workload, inp, out):
    """Every check's (ok, detail); a check that cannot read its output fails."""
    results = {}
    for name, check in workload.checks.items():
        try:
            ok, detail = check(inp, out)
        except Exception as exc:
            ok, detail = False, f"check raised {exc!r}"
        results[name] = (bool(ok), detail)
    return results
