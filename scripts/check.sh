#!/usr/bin/env bash
# Tier-1 verification plus static analysis and the sanitizer pass.
#
#  1. ROADMAP tier-1: configure, build, run the full test suite.
#  2. snfslint: the repo's own static-analysis pass (tools/lint) over src,
#     tests, bench, and examples — coroutine lifetime, stale pointers across
#     suspension points, dropped tasks, determinism, status discipline, lock
#     discipline (lock-balance / double-acquire / lock-order), and
#     suppression auditing. (Also runs inside ctest as `lint_repo`.)
#  3. clang-tidy (if installed): generic bug-pattern checks per .clang-tidy,
#     driven by the exported compile_commands.json; warnings are errors.
#  4. Deterministic snapshots: bench_andrew/bench_sort against the pinned
#     baselines, bench_fleet against BENCH_fleet.json, and bench_simperf's
#     event counts, work units and simulated seconds against
#     BENCH_simperf.json.
#  5. ASan/UBSan: rebuild under -fsanitize=address,undefined (the `asan`
#     CMake preset) and run fault_injection_test — the crash/restart and
#     fault-injection paths are where lifetime bugs (coroutines outliving
#     peers, use-after-free on restart) would hide.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + full test suite =="
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== snfslint: simulator-aware static analysis =="
# The interprocedural passes (call graph, may-suspend fixpoint, and the
# lock-discipline summaries) run on every build and inside ctest, so their
# wall time is part of the edit loop; budget it at 10s and fail loudly if it
# regresses. snfslint prints a per-rule finding tally on stderr either way.
lint_start_ns=$(date +%s%N)
./build/tools/lint/snfslint --root . src tests bench examples
lint_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
echo "snfslint wall time: ${lint_ms} ms (budget 10000 ms)"
if [ "$lint_ms" -gt 10000 ]; then
  echo "FAIL: snfslint exceeded its 10s wall-time budget" >&2
  exit 1
fi
# The lock-summary dump backs the lock rules (acquires/releases/may-acquire
# per function); make sure it stays producible and non-empty.
lock_lines=$(./build/tools/lint/snfslint --root . --format=locks src | wc -l)
echo "snfslint --format=locks: ${lock_lines} lock summaries"
if [ "$lock_lines" -lt 1 ]; then
  echo "FAIL: lock-summary dump is empty" >&2
  exit 1
fi

echo "== trace checker: one fault-sweep seed with causal-trace validation =="
# Records every cell of the sweep — all five fault profiles by all three
# protocols (NFS, SNFS, NQNFS) — and runs the stale-read / concurrent-dirty /
# retransmit-once / lease-invariant checker over the trace; any violation
# aborts the cell.
./build/bench/bench_fault_sweep --trace-check --seeds=1 >/dev/null

echo "== simperf smoke: simulator hot path still runs all four loads =="
./build/bench/bench_simperf --smoke >/dev/null

echo "== fleet smoke: sharded rig, metadata tier, trace-checked fault seeds =="
# Scaled-down hotset/boot-storm sweeps plus the fleet fault seeds
# (shard crash, cache partition) with the shard-aware stale-read checker;
# any trace violation aborts the run. Budgeted like snfslint: the smoke
# sweep is part of the edit loop and must stay in the 10s class.
fleet_start_ns=$(date +%s%N)
./build/bench/bench_fleet --smoke >/dev/null
fleet_ms=$(( ($(date +%s%N) - fleet_start_ns) / 1000000 ))
echo "bench_fleet --smoke wall time: ${fleet_ms} ms (budget 10000 ms)"
if [ "$fleet_ms" -gt 10000 ]; then
  echo "FAIL: bench_fleet --smoke exceeded its 10s wall-time budget" >&2
  exit 1
fi

echo "== calibrated benches: byte-identical to pinned baselines =="
# Deterministic bench output — elapsed times, three-way (NFS/SNFS/NQNFS)
# RPC matrices, trace checksums — must never move unnoticed: it is diffed
# byte-for-byte against the pinned goldens. The final "wrote
# <path>" stdout line echoes the --json argument and is excluded.
baseline_tmp=$(mktemp -d)
trap 'rm -rf "$baseline_tmp"' EXIT
./build/bench/bench_andrew --json="$baseline_tmp/andrew.json" \
  > "$baseline_tmp/andrew_stdout.txt"
./build/bench/bench_sort --json="$baseline_tmp/sort.json" \
  > "$baseline_tmp/sort_stdout.txt"
diff bench/baselines/BENCH_andrew.json "$baseline_tmp/andrew.json"
diff bench/baselines/BENCH_sort.json "$baseline_tmp/sort.json"
diff <(grep -v '^wrote ' bench/baselines/bench_andrew_stdout.txt) \
     <(grep -v '^wrote ' "$baseline_tmp/andrew_stdout.txt")
diff <(grep -v '^wrote ' bench/baselines/bench_sort_stdout.txt) \
     <(grep -v '^wrote ' "$baseline_tmp/sort_stdout.txt")

echo "== fleet snapshot: full sweep identical to BENCH_fleet.json =="
# Every field bench_fleet --json writes is a count or on the virtual clock,
# so the checked-in snapshot must match a fresh full run exactly (~3 s). A
# change that means to move it regenerates the file and says why.
./build/bench/bench_fleet --json="$baseline_tmp/fleet.json" >/dev/null
diff BENCH_fleet.json "$baseline_tmp/fleet.json"

echo "== simperf snapshot: deterministic fields identical to BENCH_simperf.json =="
# Each load's event count, work units and simulated seconds are fixed by the
# code; only the wall-clock fields depend on the host. A change that means
# to move them regenerates the file and says why.
./build/bench/bench_simperf --json="$baseline_tmp/simperf.json" >/dev/null
python3 - BENCH_simperf.json "$baseline_tmp/simperf.json" <<'PY'
import json
import sys

pinned = json.load(open(sys.argv[1]))["configs"]
fresh = json.load(open(sys.argv[2]))["configs"]
failures = []
if sorted(pinned) != sorted(fresh):
    failures.append(f"loads differ: {sorted(pinned)} vs {sorted(fresh)}")
for load in sorted(set(pinned) & set(fresh)):
    for field in ("events", "work_units", "sim_elapsed_s"):
        if pinned[load][field] != fresh[load][field]:
            failures.append(f"{load}.{field}: {pinned[load][field]} -> {fresh[load][field]}")
for failure in failures:
    print("FAIL: simperf " + failure, file=sys.stderr)
sys.exit(1 if failures else 0)
PY

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy: generic bug patterns (gating) =="
  mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
  clang-tidy -p build --quiet -warnings-as-errors='*' "${tidy_sources[@]}"
else
  echo "== clang-tidy not installed; skipping =="
fi

echo "== sanitizers: ASan/UBSan on the fault harness =="
cmake --preset asan
# fs_test and hybrid_test carry the stale-pointer regressions (remove racing
# a suspended create/read, lease expiry mid-upgrade): their bugs only show
# as use-after-free, so they run under the sanitizers too.
cmake --build build-asan -j --target fault_injection_test rpc_test recovery_test \
  fs_test hybrid_test nqnfs_test fleet_test
# Leak detection stays off: coroutine frames still suspended when a Simulator
# is torn down are reported as leaks. This is a pre-existing, codebase-wide
# pattern (the seed's sim_test reports the same under ASan); ASan/UBSan still
# catch use-after-free, heap overflow, and UB with leak checking disabled.
export ASAN_OPTIONS=detect_leaks=0
./build-asan/tests/rpc_test
./build-asan/tests/recovery_test
./build-asan/tests/fault_injection_test
./build-asan/tests/fs_test
./build-asan/tests/hybrid_test
# NQNFS lease expiry races whole-file flushes and vacate callbacks race
# crashes: one more place lifetime bugs only show as use-after-free.
./build-asan/tests/nqnfs_test
# The metadata tier coalesces concurrent fills onto one shard RPC: parked
# handler coroutines joining another request's future are exactly where a
# frame-lifetime bug would surface as use-after-free.
./build-asan/tests/fleet_test

echo "All checks passed."
