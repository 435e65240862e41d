#!/usr/bin/env python3
"""CRUSADE benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--instances K]

Run from the repository root.  Builds the runner (perfbench/pb.exe) and
the shipped server (bin/crusade_serve.exe) from source, runs the
workload in a fresh runner process with the CLI's runtime settings
(CRUSADE_JOBS unset, so jobs 1; no OCAMLRUNPARAM), which checks its
outputs, and prints human-readable lines followed by one JSON line.
The seed orders the work; --instances picks the generated instances
(0, the default: the presets' own, as in bench/BASELINE.json):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones (0 for a layer the workload does not run).
A traced in-process run also writes its trace to .bench_out/trace-NAME.json.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

RUNNER = os.path.join("_build", "default", "perfbench", "pb.exe")
SERVER = os.path.join("_build", "default", "bin", "crusade_serve.exe")
OUT = ".bench_out"
DEADLINE_S = 170.0


def die(msg):
    print(msg, file=sys.stderr)
    sys.exit(1)


def runtime_env():
    """The CLI's runtime settings: no jobs override, no GC tuning."""
    env = dict(os.environ)
    for var in ("CRUSADE_JOBS", "OCAMLRUNPARAM"):
        env.pop(var, None)
    return env


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", RUNNER, SERVER],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        die("build failed:\n" + proc.stdout[-4000:])


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def run_workload(args, deadline):
    cmd = [RUNNER, "run", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--instances", str(args.instances), "--out", OUT, "--server", SERVER]
    # The runner gets its own process group, so that on a timeout the
    # server it started is stopped with it.
    proc = subprocess.Popen(cmd, env=runtime_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        while group_alive(proc.pid):
            time.sleep(0.05)
        die(f"{args.workload}: timed out")
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        die(f"{args.workload}: runner exited {proc.returncode}\n" + stdout[-4000:])
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int, default=0)
    args = ap.parse_args()
    deadline = time.time() + DEADLINE_S

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    build()
    os.makedirs(OUT, exist_ok=True)

    raw = run_workload(args, deadline)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                die(f"{args.workload}: no value for {m['name']}")
            value = 0.0  # the workload does not run this layer
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
