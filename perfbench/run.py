#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/main.exe with
dune, runs one workload (see BENCHMARK.json and perfbench/NOTES.md), or
each in turn with `all`, in a fresh process for S seconds on inputs
generated from seed N, and prints every metric with its unit and sample
count. --trace 0 reports the
end-to-end metrics of untraced runs; --trace 1 runs the workload traced
and reports the per-layer metrics. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when every output check passed; 1 when a check failed
(the result line is still printed, with every attempted operation
counted as failed); 2 when the checkout, the build or the run itself
is unusable (no result line).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 120
TARGET = "./perfbench/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SPANS_DIR = "_perfbench_out"


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run(argv, timeout, stdout):
    """Run argv in its own process group; kill the group on timeout and
    wait for it, so no process outlives this one."""
    proc = subprocess.Popen(argv, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{argv[0]} exceeded {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def measure(spec, workload, seed, seconds, trace):
    """Run one workload in a fresh process; print its tables. Returns
    (correct, attempted, declared metrics as {name: {value, unit}})."""
    argv = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    if trace == 1:
        os.makedirs(SPANS_DIR, exist_ok=True)
        argv += ["--spans-out", os.path.join(SPANS_DIR, f"{workload}.spans.tsv")]
    code, out = run(argv, seconds + RUN_GRACE_S, subprocess.PIPE)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        die(f"{workload}: benchmark printed no result (exit {code})")
    if code not in (0, 1):
        sys.stderr.write(out)
        die(f"{workload}: benchmark exited {code}")
    print("\n".join(lines[:-1]))

    declared = spec["per_layer"] if trace == 1 else spec["end_to_end"]
    measured = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        die(f"{workload}: metrics not measured: {', '.join(missing)}")
    metrics = {}
    print(f"\n{workload} seed {seed}: {'per-layer (traced)' if trace else 'end-to-end'}"
          f" metrics, median over {result['reps']} repetitions")
    print(f"{'metric':42} {'value':>16}  {'unit':6} {'better':6} {'samples':>10}")
    for m in declared:
        got = measured[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            die(f"{workload}: {m['name']}: measured {got}, declared unit {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print(f"{m['name']:42} {got['value']:16.6g}  {m['unit']:6} {m['better']:6} {got['samples']:>10}")
    correct = bool(result["correct"]) and code == 0
    attempted = int(result["attempted"])
    print(f"{workload}: operations attempted {attempted}, failed {0 if correct else attempted};"
          f" outputs {'correct' if correct else 'WRONG'}\n")
    return correct, attempted, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads + ["all"]:
        die(f"unknown workload {args.workload!r} (have {', '.join(workloads)}, all)")
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            die(f"not a source checkout: {needed} is missing")

    # No shared dune cache: the build reads and writes inside the checkout.
    if not shutil.which("dune"):
        die("dune not found on PATH")
    code, _ = run(["dune", "build", "--root", ".", "--cache=disabled", TARGET],
                  BUILD_TIMEOUT_S, sys.stderr)
    if code != 0 or not os.path.exists(EXE):
        die(f"build failed (dune exit {code})")

    chosen = workloads if args.workload == "all" else [args.workload]
    correct, attempted, metrics = True, 0, {}
    for w in chosen:
        ok, n, m = measure(spec, w, args.seed, args.seconds, args.trace)
        correct, attempted = correct and ok, attempted + n
        # One workload keeps the declared names; several are told apart
        # by a workload prefix.
        metrics.update(m if len(chosen) == 1 else {f"{w}.{k}": v for k, v in m.items()})
    failed = 0 if correct else attempted
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
