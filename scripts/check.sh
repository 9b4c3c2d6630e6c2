#!/usr/bin/env bash
# Tier-1 verification plus static analysis and the sanitizer pass.
#
#  1. ROADMAP tier-1: configure, build, run the full test suite.
#  2. snfslint: the repo's own static-analysis pass (tools/lint) over src,
#     tests, bench, and examples — coroutine lifetime, stale pointers across
#     suspension points, determinism, dropped co_await statuses, and
#     suppression auditing. (Also runs inside ctest as `lint_repo`.) Dropped
#     tasks and plain statuses are compile errors (-Werror=unused-result).
#  3. clang-tidy (if installed): generic bug-pattern checks per .clang-tidy,
#     driven by the exported compile_commands.json; warnings are errors.
#  4. Deterministic snapshots: bench_andrew/bench_sort against the pinned
#     baselines, bench_state_table's Table 4-1 (every realized open and
#     close transition) against its pinned stdout, bench_fleet against
#     BENCH_fleet.json, and bench_simperf's event counts, work units and
#     simulated seconds against BENCH_simperf.json. The paper benches with
#     no pinned output (bench_reopen, bench_server_load, bench_sort_nodelay,
#     bench_scaling, bench_ablation) run for their shape checks: a bench
#     exits 1 when one fails.
#  5. perfbench: build the repository benchmark from this tree into
#     .bench_build/ (its own CMake package, which compiles src/ APIs such
#     as LocalFs::Write and the protocol clients' counters) and run its
#     selftest: every workload's correctness gates in both trace modes,
#     determinism per seed, and metric names against BENCHMARK.json.
#  6. ASan/UBSan with LeakSanitizer: rebuild the whole tree under
#     -fsanitize=address,undefined (the `asan` CMake preset) and run every
#     test under it with leak detection on — coroutines outliving peers,
#     use-after-free on restart or on a remove racing a suspended operation,
#     and a coroutine frame that outlives its simulation only show up there.
#     Then the fault matrix over five seeds, whose crash schedules reach
#     paths the tests do not. Then perfbench, built with the same sanitizer
#     flags, runs andrew and fleet for 1 s in both trace modes: its Topology
#     destroys its peers before the simulator reaps the frames still parked,
#     so an RPC call record, queued timer or envelope that outlived its peer
#     would show up there. sort stays out: its merge starts 25,537 tasks in
#     one event and overflows the stack under the sanitizers (ROADMAP).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + full test suite =="
cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "== snfslint: simulator-aware static analysis =="
# The interprocedural passes (call graph and may-suspend fixpoint) run on
# every build and inside ctest, so their wall time is part of the edit loop;
# budget it at 10s and fail loudly if it regresses. snfslint prints a
# per-rule finding tally on stderr either way.
lint_start_ns=$(date +%s%N)
./build/tools/lint/snfslint --root . src tests bench examples
lint_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
echo "snfslint wall time: ${lint_ms} ms (budget 10000 ms)"
if [ "$lint_ms" -gt 10000 ]; then
  echo "FAIL: snfslint exceeded its 10s wall-time budget" >&2
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
# RPC matrices, trace checksums, the Table 4-1 transitions — must never move
# unnoticed: it is diffed byte-for-byte against the pinned goldens. The
# final "wrote <path>" stdout line echoes the --json argument and is
# excluded.
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
./build/bench/bench_state_table > "$baseline_tmp/state_table_stdout.txt"
diff bench/baselines/bench_state_table_stdout.txt "$baseline_tmp/state_table_stdout.txt"

echo "== paper shape checks: the benches no snapshot pins =="
# Each prints its expected-shape checks against the paper and exits 1 if any
# reads [!!] (bench_andrew and bench_sort run theirs above). They stay out of
# ctest: under ASan, bench_sort_nodelay's sort merge overflows the stack.
for shape_bench in bench_reopen bench_server_load bench_sort_nodelay bench_scaling \
    bench_ablation; do
  if ! ./build/bench/"$shape_bench" > "$baseline_tmp/$shape_bench.txt"; then
    grep -F '[!!]' "$baseline_tmp/$shape_bench.txt" >&2
    echo "FAIL: $shape_bench: a shape check failed" >&2
    exit 1
  fi
done

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

echo "== perfbench: the repository benchmark builds from this tree and passes its gates =="
# A src/ change that breaks perfbench's build or one of its gates would
# otherwise show only in the benchmark run after merge (~1 min once built,
# ~2 min cold).
python3 perfbench/selftest.py --seconds 1

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy: generic bug patterns (gating) =="
  mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
  clang-tidy -p build --quiet -warnings-as-errors='*' "${tidy_sources[@]}"
else
  echo "== clang-tidy not installed; skipping =="
fi

echo "== sanitizers: ASan/UBSan and LeakSanitizer over the whole test suite =="
# A Simulator destroys every coroutine frame still parked at its teardown
# (sim::Simulator::ReapParked), so a leak report is a real leak.
export ASAN_OPTIONS=detect_leaks=1
cmake --preset asan
cmake --build build-asan -j "$(nproc)"
ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
# The suite never crashes a server while a handler holds a file lock across
# a suspension; the sweep's NQNFS "server crash" cell does, at seed 5.
./build-asan/bench/bench_fault_sweep --seeds=5 >/dev/null
# perfbench under the asan preset's flags, in its own build directory
# (RelWithDebInfo keeps the runs short). No sort: see the header.
cmake -S perfbench -B build-asan-perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan-perfbench -j "$(nproc)" --target perfbench
for workload in andrew fleet; do
  for trace in 0 1; do
    ./build-asan-perfbench/perfbench --workload "$workload" --seconds 1 --trace "$trace" \
      >/dev/null
  done
done

echo "All checks passed."
