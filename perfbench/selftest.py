#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the simulator):

  1. the layer-sum unit test (perfbench_layers_test) passes;
  2. the same seed twice gives identical virtual metrics and counts;
  3. a second seed changes the generated inputs (the virtual times move)
     and still passes every correctness gate;
  4. every printed metric appears in BENCHMARK.json with its unit, in the
     section for the mode that printed it, and the reverse.

    python3 perfbench/selftest.py [--seconds 1]

Exits nonzero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the builder shared with the benchmark command)

# Per-layer figures measured on the host clock; everything else repeats
# exactly for a given seed.
HOST_METRICS = {"wall_s", "setup_s", "peak_rss_mb", "sim.host_ns_per_event",
                "trace.overhead_x", "trace.export_s", "trace.check_s"}
SEEDS = (0, 7)


def bench(binary, workload, seed, trace, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    last = out.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if out.returncode != 0 or not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload} seed={seed} trace={trace}: gates failed\n{out.stdout}")
    return result


def deterministic(result):
    return {name: m["value"] for name, m in result["metrics"].items() if name not in HOST_METRICS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()

    binary = run.build()
    subprocess.run([os.path.join(run.BUILD, "perfbench_layers_test")], check=True)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            first = bench(binary, workload, SEEDS[0], trace, args.seconds)
            printed = {name: m["unit"] for name, m in first["metrics"].items()}
            if printed != declared[trace]:
                sys.exit(f"FAIL {workload} trace={trace}: printed metrics {printed} "
                         f"differ from BENCHMARK.json's {declared[trace]}")

            again = bench(binary, workload, SEEDS[0], trace, args.seconds)
            if deterministic(again) != deterministic(first):
                sys.exit(f"FAIL {workload} trace={trace}: seed {SEEDS[0]} is not reproducible")

            other = bench(binary, workload, SEEDS[1], trace, args.seconds)
            moved = [name for name in deterministic(first)
                     if name.startswith("virtual_s.") and
                     deterministic(other)[name] != deterministic(first)[name]]
            if trace == 0 and not moved:
                sys.exit(f"FAIL {workload}: seed {SEEDS[1]} left every virtual time unchanged")
            print(f"ok {workload} trace={trace}: {len(printed)} metrics declared, "
                  f"reproducible, seed {SEEDS[1]} passes the gates"
                  + (f" and moves {', '.join(moved)}" if trace == 0 else ""))
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
