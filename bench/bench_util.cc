#include "bench/bench_util.h"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <memory>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace bench {

using testbed::Protocol;
using testbed::Rig;
using testbed::RigOptions;

BenchFlags ParseBenchFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      flags.json_path = arg.substr(7);
    } else if (arg.rfind("--trace=", 0) == 0) {
      flags.trace_path = arg.substr(8);
    } else {
      std::fprintf(stderr, "usage: %s [--json=<path>] [--trace=<path>]\n", argv[0]);
      std::exit(2);
    }
  }
  return flags;
}

namespace {

// Harvests the recorder into the run's trace fields and uninstalls it.
// Shared by the Andrew and Sort drivers via their identical field layout.
template <typename Run>
void HarvestTrace(std::unique_ptr<trace::Recorder>& recorder, Run& run) {
  trace::SetActive(nullptr);
  run.rpc_latency = recorder->SpanDurationsBy("rpc.call", "op");
  run.trace_events = recorder->events().size();
  run.trace_checksum = recorder->Checksum();
  run.chrome_json = recorder->ToChromeJson();
  recorder.reset();
}

}  // namespace

AndrewRun RunAndrewConfig(Protocol protocol, bool remote_tmp, RigOptions options, int trials,
                          bool enable_trace) {
  options.protocol = protocol;
  options.remote_tmp = remote_tmp;
  Rig rig(options);

  workload::AndrewShape shape;  // full-size: 70 files, ~200 KB
  rig.simulator().Spawn(workload::PopulateAndrewTree(rig.data_fs(), rig.data_parent(), shape));
  rig.simulator().Run();

  AndrewRun run;
  for (int trial = 0; trial < trials; ++trial) {
    workload::AndrewConfig config;
    config.src_root = rig.data_root() + "/src";
    config.target_root = rig.data_root() + "/t" + std::to_string(trial);
    config.tmp_dir = rig.tmp_dir();
    config.shape = shape;

    metrics::OpCounters before = rig.client_rpcs();
    uint64_t disk_w = rig.served_disk().writes();
    uint64_t disk_r = rig.served_disk().reads();
    sim::Duration cpu0 = rig.server() != nullptr ? rig.server()->cpu().busy_time() : 0;

    // Fresh recorder per trial so the reported (last) trial's trace is not
    // diluted by warm-up trials. Recording never schedules simulator events,
    // so timings are identical with or without it.
    std::unique_ptr<trace::Recorder> recorder;
    if (enable_trace) {
      recorder = std::make_unique<trace::Recorder>(rig.simulator());
      trace::SetActive(recorder.get());
    }

    bool ok = false;
    rig.simulator().Spawn(
        [](Rig& rig, workload::AndrewConfig config, AndrewRun* run, bool* ok) -> sim::Task<void> {
          auto report = co_await workload::RunAndrew(rig.simulator(), rig.client().vfs(),
                                                     rig.client().cpu(), config);
          CHECK(report.ok());
          run->report = *report;
          *ok = true;
        }(rig, config, &run, &ok));
    rig.simulator().Run();
    CHECK(ok);
    if (recorder != nullptr) {
      HarvestTrace(recorder, run);
    }

    run.rpcs = rig.client_rpcs().Diff(before);
    run.server_disk_writes = rig.served_disk().writes() - disk_w;
    run.server_disk_reads = rig.served_disk().reads() - disk_r;
    run.server_cpu_busy = rig.server() != nullptr ? rig.server()->cpu().busy_time() - cpu0 : 0;
    run.wall = run.report.total;
  }
  return run;
}

SortRun RunSortConfig(Protocol protocol, uint64_t input_bytes, bool sync_daemon,
                      size_t usable_cache_blocks, RigOptions options, bool enable_trace) {
  options.protocol = protocol;
  options.remote_tmp = protocol != Protocol::kLocal;  // only the temp dir varies
  options.client.cache.enable_sync_daemon = sync_daemon;
  // In the Table 5-3 regime the sort's working set does not fit the usable
  // share of the paper's 16 MB client cache (the kernel owns part of it).
  // The pressure matters: evicting a *dirty* block stalls the writer for a
  // server round trip under SNFS but is free under NFS (whose blocks are
  // clean, already written through) — one of the effects behind Table 5-3.
  options.client.cache.capacity_blocks = usable_cache_blocks;
  Rig rig(options);

  CHECK(rig.client().local_fs() != nullptr);
  rig.simulator().Spawn(workload::PopulateSortInput(
      *rig.client().local_fs(), rig.client().local_fs()->root(), "input", input_bytes, 7777));
  rig.simulator().Run();

  workload::SortConfig config;
  config.input_path = "/local/input";
  config.output_path = "/local/output";
  config.tmp_dir = rig.tmp_dir();

  metrics::OpCounters before = rig.client_rpcs();
  uint64_t disk_w = rig.served_disk().writes();
  sim::Duration cpu0 = rig.client().cpu().busy_time();

  // Installed after the input population so the trace covers just the sort.
  std::unique_ptr<trace::Recorder> recorder;
  if (enable_trace) {
    recorder = std::make_unique<trace::Recorder>(rig.simulator());
    trace::SetActive(recorder.get());
  }

  SortRun run;
  bool ok = false;
  rig.simulator().Spawn(
      [](Rig& rig, workload::SortConfig config, SortRun* run, bool* ok) -> sim::Task<void> {
        auto report = co_await workload::RunSort(rig.simulator(), rig.client().vfs(),
                                                 rig.client().cpu(), config);
        CHECK(report.ok());
        CHECK(report->verified);
        run->report = *report;
        *ok = true;
      }(rig, config, &run, &ok));
  rig.simulator().Run();
  CHECK(ok);
  if (recorder != nullptr) {
    HarvestTrace(recorder, run);
  }

  run.rpcs = rig.client_rpcs().Diff(before);
  run.server_disk_writes = rig.served_disk().writes() - disk_w;
  sim::Duration cpu_used = rig.client().cpu().busy_time() - cpu0;
  run.client_cpu_utilization =
      run.report.elapsed > 0
          ? static_cast<double>(cpu_used) / static_cast<double>(run.report.elapsed)
          : 0.0;
  return run;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonInt(uint64_t v) { return std::to_string(v); }

std::string ChecksumHex(uint64_t checksum) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, checksum);
  return buf;
}

}  // namespace

std::string RpcCountsJson(const metrics::OpCounters& rpcs) {
  std::string out = "{";
  bool first = true;
  rpcs.ForEachNonZero([&](proto::OpKind kind, uint64_t count) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"" + std::string(proto::OpKindName(kind)) + "\":" + JsonInt(count);
  });
  out += "}";
  return out;
}

std::string LatencyJson(const std::map<std::string, metrics::Histogram>& by_op) {
  std::string out = "{";
  bool first = true;
  for (const auto& [op, hist] : by_op) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"" + JsonEscape(op) + "\":{\"count\":" + JsonInt(hist.count()) +
           ",\"mean_us\":" + JsonNum(hist.Mean()) + ",\"p50_us\":" + JsonNum(hist.Percentile(50)) +
           ",\"p95_us\":" + JsonNum(hist.Percentile(95)) +
           ",\"p99_us\":" + JsonNum(hist.Percentile(99)) + "}";
  }
  out += "}";
  return out;
}

std::string RpcByMachineJson(std::vector<metrics::MachineOps> machines) {
  std::sort(machines.begin(), machines.end(),
            [](const metrics::MachineOps& a, const metrics::MachineOps& b) {
              return a.machine < b.machine;
            });
  std::string out = "{";
  for (size_t i = 0; i < machines.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"m" + std::to_string(machines[i].machine) + "\":" + RpcCountsJson(machines[i].ops);
  }
  out += "}";
  return out;
}

std::string LatencyByMachineJson(
    const std::map<int, std::map<std::string, metrics::Histogram>>& by_machine) {
  std::string out = "{";
  bool first = true;
  for (const auto& [machine, by_op] : by_machine) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"m" + std::to_string(machine) + "\":" + LatencyJson(by_op);
  }
  out += "}";
  return out;
}

std::string AndrewRunJson(const AndrewRun& run) {
  std::string out = "{";
  out += "\"elapsed_s\":" + JsonNum(sim::ToSeconds(run.report.total));
  out += ",\"phases_s\":{";
  for (int p = 0; p < workload::kNumAndrewPhases; ++p) {
    auto phase = static_cast<workload::AndrewPhase>(p);
    if (p > 0) {
      out += ",";
    }
    out += "\"" + std::string(workload::AndrewPhaseName(phase)) +
           "\":" + JsonNum(sim::ToSeconds(run.report.phase_time[p]));
  }
  out += "}";
  out += ",\"rpc\":" + RpcCountsJson(run.rpcs);
  out += ",\"rpc_total\":" + JsonInt(run.rpcs.Total());
  out += ",\"rpc_data_transfer\":" + JsonInt(run.rpcs.DataTransfer());
  out += ",\"server_cpu_pct\":" +
         JsonNum(run.wall > 0
                     ? 100.0 * static_cast<double>(run.server_cpu_busy) /
                           static_cast<double>(run.wall)
                     : 0.0);
  out += ",\"server_disk_writes\":" + JsonInt(run.server_disk_writes);
  out += ",\"server_disk_reads\":" + JsonInt(run.server_disk_reads);
  if (run.trace_events > 0) {
    out += ",\"rpc_latency_us\":" + LatencyJson(run.rpc_latency);
    out += ",\"trace_events\":" + JsonInt(run.trace_events);
    out += ",\"trace_checksum\":\"fnv1a:" + ChecksumHex(run.trace_checksum) + "\"";
  }
  out += "}";
  return out;
}

std::string SortRunJson(const SortRun& run) {
  std::string out = "{";
  out += "\"elapsed_s\":" + JsonNum(sim::ToSeconds(run.report.elapsed));
  out += ",\"input_bytes\":" + JsonInt(run.report.input_bytes);
  out += ",\"temp_bytes_written\":" + JsonInt(run.report.temp_bytes_written);
  out += ",\"rpc\":" + RpcCountsJson(run.rpcs);
  out += ",\"rpc_total\":" + JsonInt(run.rpcs.Total());
  out += ",\"rpc_data_transfer\":" + JsonInt(run.rpcs.DataTransfer());
  out += ",\"client_cpu_pct\":" + JsonNum(100.0 * run.client_cpu_utilization);
  out += ",\"server_disk_writes\":" + JsonInt(run.server_disk_writes);
  if (run.trace_events > 0) {
    out += ",\"rpc_latency_us\":" + LatencyJson(run.rpc_latency);
    out += ",\"trace_events\":" + JsonInt(run.trace_events);
    out += ",\"trace_checksum\":\"fnv1a:" + ChecksumHex(run.trace_checksum) + "\"";
  }
  out += "}";
  return out;
}

void WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  CHECK(f != nullptr);
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  CHECK(written == content.size());
  CHECK(std::fclose(f) == 0);
}

void WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const std::vector<std::pair<std::string, std::string>>& configs) {
  std::string out = "{\"bench\":\"" + JsonEscape(bench_name) + "\",\"configs\":{";
  for (size_t i = 0; i < configs.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"" + JsonEscape(configs[i].first) + "\":" + configs[i].second;
  }
  out += "}}\n";
  WriteTextFile(path, out);
}

namespace {
int g_shape_check_failures = 0;
}  // namespace

void PrintShapeCheck(const char* what, double measured, double lo, double hi) {
  bool ok = measured >= lo && measured <= hi;
  if (!ok) {
    ++g_shape_check_failures;
  }
  std::printf("  [%s] %-58s measured=%6.3f expected=[%.2f, %.2f]\n", ok ? "ok" : "!!", what,
              measured, lo, hi);
}

int ShapeCheckStatus() { return g_shape_check_failures > 0 ? 1 : 0; }

void PrintLatencyTable(const std::string& title,
                       const std::map<std::string, metrics::Histogram>& by_op) {
  std::printf("\n%s\n", title.c_str());
  metrics::Table table({"Operation", "count", "p50 ms", "p95 ms", "p99 ms"});
  for (const auto& [op, hist] : by_op) {
    table.AddRow({op, metrics::Table::Int(hist.count()),
                  metrics::Table::Num(hist.Percentile(50) / 1000.0, 3),
                  metrics::Table::Num(hist.Percentile(95) / 1000.0, 3),
                  metrics::Table::Num(hist.Percentile(99) / 1000.0, 3)});
  }
  table.Print();
}

}  // namespace bench
