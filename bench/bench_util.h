// Shared helpers for the table/figure reproduction binaries: run one
// workload on one Rig configuration and collect elapsed time, RPC counts,
// and disk counters.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/histogram.h"
#include "src/metrics/op_counters.h"
#include "src/metrics/table.h"
#include "src/testbed/rig.h"
#include "src/workload/andrew.h"
#include "src/workload/sort.h"

namespace bench {

// Command-line surface shared by the bench binaries. With neither flag the
// binaries behave exactly as before (tracing stays off and the human tables
// are byte-identical).
struct BenchFlags {
  std::string json_path;   // --json=<path>: machine-readable results
  std::string trace_path;  // --trace=<path>: Chrome trace_event JSON dump

  // Either flag turns tracing on: --json needs the rpc.call spans for its
  // latency percentiles, --trace needs the whole event stream.
  bool tracing() const { return !json_path.empty() || !trace_path.empty(); }
};

// Parses --json=<path> / --trace=<path>; any other argument prints usage
// and exits with status 2.
BenchFlags ParseBenchFlags(int argc, char** argv);

struct AndrewRun {
  workload::AndrewReport report;
  metrics::OpCounters rpcs;       // client-issued RPCs during the run
  uint64_t server_disk_writes = 0;
  uint64_t server_disk_reads = 0;
  sim::Duration server_cpu_busy = 0;
  sim::Duration wall = 0;  // == report.total

  // Filled only when the run was traced. Latency is the duration of
  // completed rpc.call spans in virtual microseconds, bucketed by op.
  std::map<std::string, metrics::Histogram> rpc_latency;
  uint64_t trace_events = 0;
  uint64_t trace_checksum = 0;
  std::string chrome_json;
};

struct SortRun {
  workload::SortReport report;
  metrics::OpCounters rpcs;
  uint64_t server_disk_writes = 0;
  double client_cpu_utilization = 0.0;

  // Filled only when the run was traced (see AndrewRun).
  std::map<std::string, metrics::Histogram> rpc_latency;
  uint64_t trace_events = 0;
  uint64_t trace_checksum = 0;
  std::string chrome_json;
};

// Run the full-size Andrew benchmark once on the given configuration.
// `trials` > 1 reuses the rig (warm caches, fresh target subtree per trial)
// and reports the last trial, as the paper ran repeated trials back to back
// "so that NFS would not be charged for writes incurred by SNFS".
// `enable_trace` records a causal trace of each trial (fresh recorder per
// trial, so the reported trial's trace is clean) and fills the trace fields.
AndrewRun RunAndrewConfig(testbed::Protocol protocol, bool remote_tmp,
                          testbed::RigOptions options = {}, int trials = 2,
                          bool enable_trace = false);

// Run the sort benchmark once; `input_bytes` selects the paper's row;
// `sync_daemon` false reproduces the "infinite write-delay" §5.4 variant.
// `usable_cache_blocks` sets the client cache share available to the sort:
// the Table 5-3 regime leaves it under pressure (the kernel owns part of
// the 16 MB), while the §5.4 experiment needs the temporaries to "fit
// easily into the client cache" (§5.1).
SortRun RunSortConfig(testbed::Protocol protocol, uint64_t input_bytes, bool sync_daemon = true,
                      size_t usable_cache_blocks = 1280, testbed::RigOptions options = {},
                      bool enable_trace = false);

inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// Prints one expected-shape check ("[ok]" or "[!!]" with the measured value
// and its bounds) and counts the failures.
void PrintShapeCheck(const char* what, double measured, double lo, double hi);
// A bench's exit status: 1 if any shape check failed, else 0.
int ShapeCheckStatus();

// --- machine-readable output (--json) -------------------------------------

// One run as a JSON object. Key order is fixed (struct order; RPC counts in
// OpKind declaration order via ForEachNonZero) so the output is byte-stable
// for a given build.
std::string AndrewRunJson(const AndrewRun& run);
std::string SortRunJson(const SortRun& run);

// Building blocks for custom bench JSON (bench_fleet): {"op":count,...} in
// OpKind declaration order, and {"op":{count,mean,p50,p95,p99},...}.
std::string RpcCountsJson(const metrics::OpCounters& rpcs);
std::string LatencyJson(const std::map<std::string, metrics::Histogram>& by_op);

// Per-machine forms, keyed "m<id>" in ascending machine-id order so the
// output is deterministic regardless of collection order.
std::string RpcByMachineJson(std::vector<metrics::MachineOps> machines);
std::string LatencyByMachineJson(
    const std::map<int, std::map<std::string, metrics::Histogram>>& by_machine);

// Wraps named config objects as {"bench": <name>, "configs": {...}} and
// writes the file (aborts on I/O failure, which a bench run should surface).
void WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const std::vector<std::pair<std::string, std::string>>& configs);

void WriteTextFile(const std::string& path, const std::string& content);

// Per-op latency percentile table (count / p50 / p95 / p99 in milliseconds),
// printed by the benches when tracing is enabled.
void PrintLatencyTable(const std::string& title,
                       const std::map<std::string, metrics::Histogram>& by_op);

}  // namespace bench

#endif  // BENCH_BENCH_UTIL_H_
