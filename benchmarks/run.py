"""Benchmark entry point: run one workload (or all four) and print the
result as one JSON object on the last line of standard output.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own fresh process
(child.py) with single-threaded numerics.  With --trace 0 the result holds
the end-to-end metrics:

* wall_s: median time of one round, a round being the whole workload with
  its output checks;
* setup_s: median over fresh processes, run between the rounds, of
  importing blowuplab and building the workload's inputs (for
  cli_spectral_3d: interpreter start plus `import blowuplab.cli`, timed
  from outside);
* peak_rss_mib: peak resident memory of the workload process and all its
  descendants together (pool workers, the CLI process), as the sum of
  their proportional set sizes, sampled every 50 ms.

With --trace 1 the result holds the per-layer metrics of one traced round
(see tracer.py).  The exit code is 0 only when a result is printed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("fixed_linear_1d", "adaptive_blowup_1d", "cli_spectral_3d", "proof_audit")
CHILD_TIMEOUT_S = 160.0
SAMPLE_S = 0.05


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("BLWP_WORKERS", None)  # the sweep's pool size is the workload's choice
    return env


def tree_pss(pid, known):
    """Proportional resident bytes (PSS: pages shared between processes are
    split among them) of a process and its descendants, set-up probes
    (processes with a `--probe` argument) left out, and the set of pids
    seen.  A descendant counts only if it is in `known`, the pids seen one
    sample earlier: a process started by vfork shares its parent's memory
    until it execs, and would count twice."""
    total = 0
    seen = set()
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/cmdline", "rb") as fh:
                if b"--probe" in fh.read().split(b"\0"):
                    continue
            seen.add(p)
            if p == pid or p in known:
                with open(f"/proc/{p}/smaps_rollup") as fh:
                    total += 1024 * sum(int(ln.split()[1]) for ln in fh if ln.startswith("Pss:"))
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total, seen


def run_workload_process(name, seed, seconds, trace):
    """Run child.py for one workload; returns its JSON document and the
    peak resident memory in MiB."""
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    result = os.path.join(ROOT, ".bench_out", f"{name}.result.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--result", result]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                            start_new_session=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    peak = 0
    known = set()
    while proc.poll() is None:
        pss, known = tree_pss(proc.pid, known)
        peak = max(peak, pss)
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
        time.sleep(SAMPLE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: workload process exited with {proc.returncode}")
    with open(result) as fh:
        doc = json.load(fh)
    return doc, peak / 2**20


def measure(name, seed, seconds, trace):
    doc, peak_mib = run_workload_process(name, seed, seconds, trace)
    for line in doc["failures"]:
        sys.stderr.write(f"{name}: check failed: {line}\n")
    result = {
        "correct": not doc["failures"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
    }
    if trace:
        result["metrics"] = doc["per_layer"]
    else:
        result["metrics"] = {
            "wall_s": {"value": statistics.median(doc["rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(doc["setups"]), "unit": "s"},
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
        }
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "blowuplab", "__init__.py")):
        sys.exit(f"no blowuplab sources under {ROOT}/src: run from a full checkout")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = measure(name, args.seed, args.seconds, args.trace)
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
