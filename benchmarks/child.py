"""One workload in a fresh process; started by run.py.

    child.py --probe WORKLOAD --seed N
        times `import workloads` (which imports blowuplab) plus the
        workload's `build`, and prints the seconds.
    child.py --workload W --seed N --seconds S --trace 0|1 --result FILE
        builds once, then runs whole rounds, each timed with its checks,
        until the next round would end past S seconds.  With --trace 0 a
        set-up probe (a fresh process) runs before the first round and after
        every round, at least SETUP_PROBES in all, so that set-up times are
        sampled across the same stretch of time as the rounds.  With
        --trace 1 it instead installs the tracer after the rounds and runs
        one more traced round (its build included).  Writes the round and
        set-up times, the operation counts, the failed checks and the
        per-layer metrics as JSON to FILE.

Only the standard library is imported before the probe's clock starts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_PROBES = 5


def setup_probe(name, seed):
    """One set-up time from a fresh interpreter.  For cli_spectral_3d it is
    interpreter start plus `import blowuplab.cli`, timed from outside.  The
    `--probe` argument lets run.py leave probes out of the workload's
    memory."""
    if name == "cli_spectral_3d":
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import blowuplab.cli", "--probe"],
                       check=True, timeout=60)
        return time.perf_counter() - t0
    out = subprocess.run([sys.executable, __file__, "--probe", name, "--seed", str(seed)],
                         check=True, timeout=60, stdout=subprocess.PIPE)
    return float(out.stdout.split()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    args = ap.parse_args()

    if args.probe:
        t0 = time.perf_counter()
        import workloads

        workloads.WORKLOADS[args.probe].build(args.seed)
        print(repr(time.perf_counter() - t0))
        return

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inp = wl.build(args.seed)
    doc = {"rounds": [], "setups": [], "attempted": 0, "failed": 0, "failures": []}
    probing = not args.trace

    def one_round(inp, tracer=None):
        rnd = workloads.Round(tracer)
        t0 = time.perf_counter()
        try:
            checks = workloads.run_checks(wl, inp, wl.run(inp, rnd))
        except Exception as exc:  # a round that cannot finish is a wrong answer
            checks = {"round": (False, f"round raised {exc!r}")}
        elapsed = time.perf_counter() - t0
        doc["attempted"] += rnd.attempted
        doc["failed"] += rnd.failed
        doc["failures"] += [f"{name}: {detail}" for name, (ok, detail) in checks.items() if not ok]
        return elapsed

    start = time.perf_counter()
    if probing:
        doc["setups"].append(setup_probe(args.workload, args.seed))
    while True:
        doc["rounds"].append(one_round(inp))
        if probing:
            doc["setups"].append(setup_probe(args.workload, args.seed))
        cycle = statistics.median(doc["rounds"]) + statistics.median(doc["setups"] or [0.0])
        if time.perf_counter() - start + cycle > args.seconds:
            break
    while probing and len(doc["setups"]) < SETUP_PROBES:
        doc["setups"].append(setup_probe(args.workload, args.seed))

    if args.trace:
        import tracer

        out_dir = os.path.join(workloads.OUT, args.workload)
        os.makedirs(out_dir, exist_ok=True)
        tr = tracer.Tracer(dump_dir=out_dir)
        tr.install()
        inp = wl.build(args.seed)  # traced, for the model-layer spans
        traced_s = one_round(inp, tr)
        doc["per_layer"] = tr.metrics(traced_s - statistics.median(doc["rounds"]))

    with open(args.result, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
