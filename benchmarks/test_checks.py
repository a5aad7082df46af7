"""The benchmark's own test: every output check passes on the program's real
outputs and fails on a perturbed copy of them.

    python3 -m pytest benchmarks/test_checks.py

Runs one round of each workload at seed 0 (about 40 s on 2 cores).
"""

import copy
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _scale(key, factor):
    def perturb(out):
        for r in out:
            if r["beta"] == 0.0:
                r[key] = r[key] * factor

    return perturb


def _fine_like_coarse(key):
    def perturb(out):
        for beta in workloads.LINEAR_BETAS:
            coarse, fine = workloads._pair(out, beta)
            fine[key] = coarse[key].copy()

    return perturb


def _scale_dissipated(out, factor):
    for r in out:
        r["energy"][:, 3] *= factor


def _grow_energy(energy):
    """Make E = kinetic + potential grow by 1e-6 E0 in the middle row."""
    mid = len(energy) // 2
    total = energy[:, 1] + energy[:, 2]
    energy[mid, 1] += total[mid - 1] - total[mid] + 1e-6 * total[0]


def _set(path, value):
    def perturb(out):
        target = out
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]])

    return perturb


PERTURB = {
    "fixed_linear_1d": {
        "completed": lambda out: out[0].update(outcome="BlowupDetected"),
        "closed_form": _scale("final_u", 1.0 + 1e-3),
        "error_halves": _fine_like_coarse("final_u"),
        "mass": lambda out: [r.update(final_v=r["final_v"] + 1e-9) for r in out],
        "energy_monotone": lambda out: _grow_energy(out[0]["energy"]),
        "ledger_drift": lambda out: _scale_dissipated(out, 1.01),
        "drift_halves": _fine_like_coarse("energy"),
    },
    "adaptive_blowup_1d": {
        "space_free_t_star": _set(("space_free", "t_star"), lambda t: 1.02 * t),
        "sweep_blowup": _set(("sweep", 0, "outcome"), lambda _: "SurvivedHorizon"),
        "t_star_decreases": _set(("sweep",), lambda rows: [
            {**rows[0], "t_star": rows[1]["t_star"]}, {**rows[1], "t_star": rows[0]["t_star"]}
        ]),
    },
    "cli_spectral_3d": {
        "exit": _set(("returncode",), lambda _: 10),
        "final_mode": _set(("final_u", "values"), lambda v: 1.05 * v),
        "csv_columns": _set(("csv_header",), lambda h: h[:-1]),
        "energy_monotone": lambda out: _grow_energy(out["energy"]),
        "ledger": lambda out: _scale_dissipated([out], 2.0),
        "snapshots": _set(("snapshots",), lambda n: n - 1),
    },
    "proof_audit": {
        "slopes": _set(("slopes", 0, "B_tt"), lambda s: s + 0.1),
        "crosscheck": _set(("crosscheck",), lambda ws: (ws[0], ws[1] * (1.0 + 1e-5))),
        "residual_shrinks": _set(("residuals",), lambda r: r[::-1]),
        "invariance": _set(("invariance",), lambda e: [2e-3, e[1]]),
        "invariance_converges": _set(("invariance",), lambda e: [e[0], 1.01 * e[0]]),
        "invariance_control": _set(("control",), lambda _: 5e-3),
        "blowup_time": _set(("t_star",), lambda t: t + 1e-8),
        "ode_trajectory": _set(("ode",), lambda o: (o[0], o[1] * (1.0 + 1e-6), o[2])),
        "linear_mode": _set(("mode",), lambda m: (m[0], m[1] + 1e-8)),
    },
}

_rounds = {}


def one_round(name):
    """Inputs and outputs of one round at seed 0, made once per workload."""
    if name not in _rounds:
        with pytest.MonkeyPatch.context() as mp:
            for var, value in run.child_env().items():
                mp.setenv(var, value)
            wl = workloads.WORKLOADS[name]
            inp = wl.build(0)
            rnd = workloads.Round()
            out = wl.run(inp, rnd)
        assert rnd.attempted > 0 and rnd.failed == 0
        _rounds[name] = inp, out
    return _rounds[name]


CASES = [(w, c) for w, checks in PERTURB.items() for c in checks]


def test_every_check_has_a_perturbation():
    assert {w: set(c) for w, c in PERTURB.items()} == {
        w: set(wl.checks) for w, wl in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(PERTURB))
def test_checks_pass_on_real_outputs(name):
    inp, out = one_round(name)
    results = workloads.run_checks(workloads.WORKLOADS[name], inp, out)
    assert {c: r for c, r in results.items() if not r[0]} == {}


@pytest.mark.parametrize("name,check", CASES, ids=[f"{w}-{c}" for w, c in CASES])
def test_check_fails_on_perturbed_output(name, check):
    inp, out = one_round(name)
    bad = copy.deepcopy(out)
    PERTURB[name][check](bad)
    ok, detail = workloads.WORKLOADS[name].checks[check](inp, bad)
    assert not ok, detail


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER
    ]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mib"]
