// perfbench: the repository benchmark. One process runs one workload
// (andrew, sort or fleet) on a single thread, repeating it from fresh
// machines for a fixed host-time budget, checks every repetition's outputs,
// and prints each metric by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <andrew|sort|fleet> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics: host wall and set-up time (each
// phase's fastest repetition, summed), peak RSS, and the virtual elapsed
// time per protocol. --trace 1 reports the per-layer metrics: counters from the
// untraced repetitions, then the same workload re-run under a
// trace::Recorder for the span-derived (virtual self time) figures and the
// recorder's own cost. See perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/metrics/histogram.h"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of the mode it runs in; a figure that a
// workload has no layer for reads 0 (e.g. the fleet tier on andrew).
constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"},          {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"virtual_s.nfs", "s"},   {"virtual_s.snfs", "s"},   {"virtual_s.nqnfs", "s"},
};

constexpr Metric kPerLayer[] = {
    {"boot_virtual_s", "s"},
    {"ops_per_virtual_s", "ops/s"},
    {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},
    {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},
    {"read_samples", "count"},
    {"write_samples", "count"},
    {"failed_op_share", "ratio"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.cpu_util.client", "ratio"},
    {"sim.cpu_util.server", "ratio"},
    {"net.packets", "count"},
    {"net.bytes", "B"},
    {"net.dropped", "count"},
    {"rpc.calls", "count"},
    {"rpc.calls.meta", "count"},
    {"rpc.calls.data", "count"},
    {"rpc.calls.open_close", "count"},
    {"rpc.retransmissions", "count"},
    {"rpc.dup_hits", "count"},
    {"rpc.dup_cache_entries", "count"},
    {"rpc.call_p50_ms", "ms"},
    {"rpc.call_p99_ms", "ms"},
    {"rpc.queue_wire_ms", "ms"},
    {"rpc.handle_self_ms", "ms"},
    {"nfs.attr_probes", "count"},
    {"nfs.invalidations", "count"},
    {"snfs.callbacks", "count"},
    {"snfs.delayed_close_hits", "count"},
    {"nqnfs.leases_granted", "count"},
    {"nqnfs.grants_denied", "count"},
    {"nqnfs.vacates", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"cache.writebacks", "count"},
    {"cache.cancelled_ratio", "ratio"},
    {"cache.fetch_ms", "ms"},
    {"cache.writeback_ms", "ms"},
    {"disk.reads", "count"},
    {"disk.writes", "count"},
    {"disk.util", "ratio"},
    {"disk.bytes_per_user_byte", "ratio"},
    {"disk.wait_ms", "ms"},
    {"vfs.open_p50_ms", "ms"},
    {"vfs.pread_p50_ms", "ms"},
    {"vfs.pwrite_p50_ms", "ms"},
    {"vfs.close_p50_ms", "ms"},
    {"fleet.meta_hit_ratio", "ratio"},
    {"fleet.meta_passthrough_ratio.boot", "ratio"},
    {"fleet.forwarded", "count"},
    {"fleet.coalesced", "count"},
    {"fleet.invalidations", "count"},
    {"fleet.stale_fills_rejected", "count"},
    {"fleet.tier_cpu_util", "ratio"},
    {"fleet.shard_skew", "ratio"},
    {"workload.andrew_copy_s.nfs", "s"},
    {"workload.andrew_copy_s.snfs", "s"},
    {"workload.andrew_copy_s.nqnfs", "s"},
    {"workload.andrew_make_s.nfs", "s"},
    {"workload.andrew_make_s.snfs", "s"},
    {"workload.andrew_make_s.nqnfs", "s"},
    {"trace.events", "count"},
    {"trace.overhead_x", "x"},
    {"trace.export_s", "s"},
    {"trace.check_s", "s"},
    {"trace.violations", "count"},
};

struct Options {
  std::string workload_name;
  Workload workload = Workload::kAndrew;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <andrew|sort|fleet> [--seed <n>] [--seconds <s>] "
               "[--trace <0|1>]\n",
               argv0);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(argv[0]);
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = ParseWorkload(value, &options.workload);
      options.workload_name = value;
      if (!have_workload) {
        Usage(argv[0]);
      }
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage(argv[0]);
      }
      options.trace = value == "1";
      continue;
    } else {
      Usage(argv[0]);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage(argv[0]);
    }
  }
  if (!have_workload || !(options.seconds > 0)) {
    Usage(argv[0]);
  }
  return options;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) {
    total += x;
  }
  return total;
}

// Σ over phases of the phase's fastest time across `reps` (every repetition
// of a workload runs the same phases in the same order).
template <typename Phases>
double FastestPhases(const std::vector<RepResult>& reps, Phases phases) {
  std::vector<double> fastest;
  for (const RepResult& rep : reps) {
    const std::vector<double>& p = phases(rep);
    fastest.resize(p.size(), std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < p.size(); ++i) {
      fastest[i] = std::min(fastest[i], p[i]);
    }
  }
  return Sum(fastest);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

template <typename Get>
std::vector<double> Collect(const std::vector<RepResult>& reps, Get get) {
  std::vector<double> out;
  for (const RepResult& rep : reps) {
    out.push_back(get(rep));
  }
  return out;
}

// First differing figure of two repetitions of one seed, or "" if equal.
std::string FirstDifference(const Tally& a, const Tally& b) {
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    if (it == b.end() || it->second != value) {
      return name;
    }
  }
  return a.size() == b.size() ? "" : "(metric sets differ)";
}

double Get(const Tally& t, const std::string& name) {
  auto it = t.find(name);
  return it == t.end() ? 0 : it->second;
}

int Main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  std::vector<std::string> gate_failures;
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  auto elapsed = [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  // Untraced repetitions fill the budget (half of it when a traced run
  // follows). The first one only warms the process (allocator, coroutine
  // frame pools) and is not timed.
  size_t min_untraced = options.trace ? 2 : 4;
  double untraced_budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<RepResult> untraced;
  while (elapsed() < untraced_budget || untraced.size() < min_untraced) {
    untraced.push_back(RunRep(options.workload, options.seed, /*traced=*/false));
  }
  std::vector<RepResult> timed(untraced.begin() + 1, untraced.end());
  std::vector<RepResult> traced;
  while (options.trace && (elapsed() < options.seconds || traced.empty())) {
    traced.push_back(RunRep(options.workload, options.seed, /*traced=*/true));
  }

  // Gates: every repetition's outputs were right, and its virtual figures
  // and counts match the first untraced repetition's exactly (the
  // simulation is deterministic, and recording never schedules events).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const Tally& reference = untraced.front().figures;
  for (const std::vector<RepResult>* reps : {&untraced, &traced}) {
    for (const RepResult& rep : *reps) {
      attempted += rep.attempted;
      failed += rep.failed;
      for (const std::string& error : rep.errors) {
        gate_failures.push_back(error);
      }
      std::string diff = FirstDifference(reference, rep.figures);
      if (!diff.empty()) {
        gate_failures.push_back(std::string(reps == &traced ? "traced" : "untraced") +
                                " repetition differs from the first in " + diff);
      }
    }
  }

  // Host times sum each phase's fastest time over the repetitions. On a
  // shared host, neighbours' load only ever adds time (thread CPU time
  // tracks wall time, so it is contention, not descheduling), and it drifts
  // over tens of seconds: the median of one process's repetitions moved by
  // up to 20% between processes, the minimum by under 10%, and the per-phase
  // minimum (a quiet spell need only outlast one phase) by less again.
  auto wall = [](const RepResult& r) -> const std::vector<double>& { return r.wall_phases_s; };
  double wall_s = FastestPhases(timed, wall);
  Tally out;
  const Metric* begin = options.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const Metric* end = options.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  if (!options.trace) {
    out["wall_s"] = wall_s;
    out["setup_s"] = FastestPhases(
        timed, [](const RepResult& r) -> const std::vector<double>& { return r.setup_phases_s; });
    out["peak_rss_mb"] = PeakRssMb();
    for (const char* name : {"virtual_s.nfs", "virtual_s.snfs", "virtual_s.nqnfs"}) {
      out[name] = Get(reference, name);
    }
  } else {
    for (const Metric* m = begin; m != end; ++m) {
      out[m->name] = Get(reference, m->name);
    }
    out["failed_op_share"] =
        attempted == 0 ? 0 : static_cast<double>(failed) / static_cast<double>(attempted);
    double events = Get(reference, "sim.events");
    out["sim.host_ns_per_event"] = events == 0 ? 0 : wall_s * 1e9 / events;

    const RepResult& t = traced.front();
    metrics::Histogram calls;
    for (sim::Duration us : t.layers.rpc_call_us) {
      calls.Add(static_cast<double>(us));
    }
    auto self_ms = [&t](Layer layer) {
      return static_cast<double>(t.layers.self[static_cast<size_t>(layer)]) / 1e3;
    };
    out["rpc.call_p50_ms"] = calls.Percentile(50) / 1e3;
    out["rpc.call_p99_ms"] = calls.Percentile(99) / 1e3;
    out["rpc.queue_wire_ms"] = self_ms(Layer::kRpcQueueWire);
    out["rpc.handle_self_ms"] = self_ms(Layer::kRpcHandler);
    out["cache.fetch_ms"] = self_ms(Layer::kCacheFetch);
    out["cache.writeback_ms"] = self_ms(Layer::kCacheWriteback);
    out["disk.wait_ms"] = static_cast<double>(t.layers.disk_span_total) / 1e3 -
                          Get(reference, "disk.all_busy_ms");
    out["trace.events"] = static_cast<double>(t.trace_events);
    out["trace.violations"] = static_cast<double>(t.trace_violations);
    out["trace.overhead_x"] = FastestPhases(traced, wall) / wall_s;
    out["trace.export_s"] = Fastest(Collect(traced, [](const RepResult& r) { return r.export_s; }));
    out["trace.check_s"] = Fastest(Collect(traced, [](const RepResult& r) { return r.check_s; }));
  }

  std::printf("perfbench workload=%s seed=%llu trace=%d: %zu untraced + %zu traced repetitions\n",
              options.workload_name.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, untraced.size(), traced.size());
  for (const Metric* m = begin; m != end; ++m) {
    std::printf("  %-36s %16.6f %s\n", m->name, out[m->name], m->unit);
  }
  for (const std::vector<RepResult>* reps : {&timed, &traced}) {
    std::vector<double> walls =
        Collect(*reps, [](const RepResult& r) { return Sum(r.wall_phases_s); });
    if (!walls.empty()) {
      std::printf("  %zu %s repetitions, wall s each: min %.4f  median %.4f  max %.4f\n",
                  walls.size(), reps == &traced ? "traced" : "untraced timed", Fastest(walls),
                  Median(walls), *std::max_element(walls.begin(), walls.end()));
    }
  }
  if (!traced.empty()) {
    const LayerTimes& layers = traced.front().layers;
    std::printf("  virtual self time by layer over %llu span trees (%.3f s in all):\n",
                static_cast<unsigned long long>(layers.trees),
                static_cast<double>(layers.root_total) / 1e6);
    for (int i = 0; i < kNumLayers; ++i) {
      std::printf("    %-18s %14.3f s\n", std::string(LayerName(static_cast<Layer>(i))).c_str(),
                  static_cast<double>(layers.self[static_cast<size_t>(i)]) / 1e6);
    }
  }
  if (reference.contains("read_samples")) {
    std::printf("  fleet latency samples: %.0f reads, %.0f writes (p99 has >= 10 beyond it)\n",
                Get(reference, "read_samples"), Get(reference, "write_samples"));
    if (Get(reference, "write_samples") < 1000 || Get(reference, "read_samples") < 1000) {
      gate_failures.push_back("fewer than 1000 latency samples per p99");
    }
  }
  for (const std::string& failure : gate_failures) {
    std::printf("  GATE FAILED: %s\n", failure.c_str());
  }
  bool correct = gate_failures.empty() && failed == 0;

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (const Metric* m = begin; m != end; ++m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out[m->name]);
    json += std::string(m == begin ? "" : ", ") + "\"" + m->name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
