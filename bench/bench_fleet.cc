// bench_fleet: the sharded-fleet experiments — aggregate throughput as the
// shard count grows, and the effect of the network metadata-cache tier
// (src/fleet) on the NFS metadata storms the Spritely paper measures per
// machine.
//
// Sections (all N-server × M-client topologies via RigOptions::fleet):
//
//   1. Zipf hotset scaling     NFS, 1/2/4 shards: open-read-close over a
//                              shared catalog, client caches kept small so
//                              the shards are the bottleneck. Acceptance:
//                              >= 1.7x aggregate throughput from 1 to 4.
//   2. Metadata tier           the same hotset and a boot storm with the
//                              fleet::MetaCache interposed: it answers
//                              getattr and lookup, passes mutations
//                              through, and routes reads to the shards,
//                              which reply to the clients directly.
//                              Acceptance: hotset throughput with the tier
//                              is at least the no-tier row's, the tier
//                              issues no read RPC, and it absorbs >= 50%
//                              of the getattr+lookup RPCs that would reach
//                              the shards on the boot storm.
//   3. Protocol rows           SNFS and NQNFS on the same 4-shard hotset:
//                              their client-side consistency state makes
//                              the cache tier unnecessary (no per-open
//                              probes to absorb).
//   4. Fault sweep             one-shard crash + reboot mid-hotset, and a
//                              meta-cache network partition, each with a
//                              writer in the mix; the causal trace must
//                              pass trace::CheckTrace with no violations.
//
// Flags: --json=<path> --trace=<path> --smoke (small sizes) --faults
// (fault sweep only).
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "src/trace/checker.h"
#include "src/trace/trace.h"
#include "src/workload/fleet.h"

namespace {

using testbed::Protocol;
using testbed::Rig;
using testbed::RigOptions;

struct FleetFlags {
  std::string json_path;
  std::string trace_path;
  bool smoke = false;
  bool faults_only = false;

  bool tracing() const { return !json_path.empty() || !trace_path.empty(); }
};

FleetFlags ParseFleetFlags(int argc, char** argv) {
  FleetFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      flags.json_path = arg.substr(7);
    } else if (arg.rfind("--trace=", 0) == 0) {
      flags.trace_path = arg.substr(8);
    } else if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg == "--faults") {
      flags.faults_only = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json=<path>] [--trace=<path>] [--smoke] [--faults]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return flags;
}

enum class FleetWork { kHotset, kBootStorm };
enum class FleetFault { kNone, kShardCrash, kCachePartition };

struct FleetBenchConfig {
  Protocol protocol = Protocol::kNfs;
  int shards = 1;
  int clients = 8;
  bool cache = false;
  FleetWork work = FleetWork::kHotset;
  int ops_per_client = 400;  // hotset only
  workload::FleetTreeShape shape;
  bool trace_on = false;
  // Fault script: one shard crash + reboot, or a meta-cache partition.
  FleetFault fault = FleetFault::kNone;
  sim::Duration fault_at = sim::Sec(1);
  sim::Duration fault_duration = sim::Sec(2);
  int mutator_writes = 0;  // periodic writes to the hottest file
};

struct FleetRunStats {
  uint64_t ops = 0;
  uint64_t bytes = 0;
  uint64_t errors = 0;
  double elapsed_s = 0;
  double ops_per_s = 0;
  metrics::OpCounters client_rpcs;  // summed across all clients
  std::vector<metrics::MachineOps> server_rpcs;
  uint64_t shard_meta_rpcs = 0;  // getattr+lookup that reached the shards

  // Filled when tracing was on.
  std::map<int, std::map<std::string, metrics::Histogram>> latency_by_machine;
  uint64_t trace_events = 0;
  std::string chrome_json;
  bool trace_checked = false;
  std::vector<trace::Violation> violations;

  // Filled when the metadata tier was interposed.
  bool has_cache = false;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_coalesced = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
};

const char* TreeName(FleetWork work) { return work == FleetWork::kHotset ? "hot" : "boot"; }

FleetRunStats RunFleet(const FleetBenchConfig& config) {
  RigOptions options;
  options.protocol = config.protocol;
  options.fleet.servers = config.shards;
  options.fleet.clients = config.clients;
  options.fleet.meta_cache = config.cache;
  if (config.work == FleetWork::kHotset) {
    // Keep the client caches too small to hold the hotset so every read
    // reaches a shard: the experiment measures server-side scaling, and a
    // 16 MB client cache would absorb the whole catalog after one pass.
    options.client.cache.capacity_blocks = 8;
  }
  Rig rig(options);

  // Populate each shard's slice out of band (direct fs access, no RPCs).
  rig.simulator().Spawn([](Rig& rig, const FleetBenchConfig& config) -> sim::Task<void> {
    for (int s = 0; s < rig.num_shards(); ++s) {
      co_await workload::PopulateFleetTree(rig.shard_fs(s), rig.shard_data_parent(s),
                                           TreeName(config.work), config.shape);
    }
  }(rig, config));
  rig.simulator().Run();

  std::vector<std::string> shard_roots;
  for (int s = 0; s < config.shards; ++s) {
    shard_roots.push_back(Rig::ShardRoot(s));
  }

  std::vector<metrics::OpCounters> client_before(static_cast<size_t>(config.clients));
  std::vector<metrics::OpCounters> server_before(static_cast<size_t>(config.shards));
  for (int c = 0; c < config.clients; ++c) {
    client_before[static_cast<size_t>(c)] = rig.client(c).peer().client_ops();
  }
  for (int s = 0; s < config.shards; ++s) {
    server_before[static_cast<size_t>(s)] = rig.shard(s).peer().server_ops();
  }

  bool check_trace = config.fault != FleetFault::kNone;
  std::unique_ptr<trace::Recorder> recorder;
  if (config.trace_on || check_trace) {
    recorder = std::make_unique<trace::Recorder>(rig.simulator());
    trace::SetActive(recorder.get());
  }

  // Fault script. The crash target is shard 1 (never the shard the writer
  // mutates); the partition target is the cache itself.
  if (config.fault == FleetFault::kShardCrash) {
    rig.simulator().Spawn([](Rig& rig, const FleetBenchConfig& config) -> sim::Task<void> {
      co_await sim::Sleep(rig.simulator(), config.fault_at);
      rig.shard(1).Crash(rig.network());
      co_await sim::Sleep(rig.simulator(), config.fault_duration);
      rig.shard(1).Reboot(rig.network());
    }(rig, config));
  } else if (config.fault == FleetFault::kCachePartition) {
    rig.simulator().Spawn([](Rig& rig, const FleetBenchConfig& config) -> sim::Task<void> {
      co_await sim::Sleep(rig.simulator(), config.fault_at);
      rig.network().SetHostUp(rig.meta_cache()->address(), false);
      co_await sim::Sleep(rig.simulator(), config.fault_duration);
      rig.network().SetHostUp(rig.meta_cache()->address(), true);
    }(rig, config));
  }

  // Optional writer: periodic whole-file rewrites of the hottest file, so
  // the fault runs exercise the stale-read rule (mutations race with the
  // cache tier's serves) instead of being read-only.
  if (config.mutator_writes > 0) {
    rig.simulator().Spawn([](Rig& rig, const FleetBenchConfig& config) -> sim::Task<void> {
      std::string path =
          Rig::ShardRoot(0) + "/" + TreeName(config.work) + "/d0/f0";
      for (int w = 0; w < config.mutator_writes; ++w) {
        co_await sim::Sleep(rig.simulator(), sim::Msec(100));
        std::vector<uint8_t> data(config.shape.file_bytes,
                                  static_cast<uint8_t>(w));
        // Failures during the outage window are expected; readers and the
        // trace checker judge the outcome, not this status.
        (void)co_await rig.client(0).vfs().WriteFile(path, std::move(data));
      }
    }(rig, config));
  }

  std::vector<workload::HotsetReport> hot(static_cast<size_t>(config.clients));
  std::vector<workload::BootStormReport> boot(static_cast<size_t>(config.clients));
  int done = 0;
  for (int c = 0; c < config.clients; ++c) {
    if (config.work == FleetWork::kHotset) {
      workload::HotsetConfig hc;
      hc.shard_roots = shard_roots;
      hc.shape = config.shape;
      hc.ops = config.ops_per_client;
      hc.seed = 1000 + static_cast<uint64_t>(c);
      // The shards are the resource under test; per-op client CPU would
      // serialize the clients instead.
      hc.cpu.stat_per_file = sim::Usec(100);
      hc.cpu.read_per_kb = sim::Usec(50);
      rig.simulator().Spawn([](Rig& rig, workload::HotsetConfig hc, int c,
                               std::vector<workload::HotsetReport>* out,
                               int* done) -> sim::Task<void> {
        auto report = co_await workload::RunHotset(rig.simulator(), rig.client(c).vfs(),
                                                   rig.client(c).cpu(), hc);
        CHECK(report.ok());
        (*out)[static_cast<size_t>(c)] = *report;
        ++*done;
      }(rig, hc, c, &hot, &done));
    } else {
      workload::BootStormConfig bc;
      bc.shard_roots = shard_roots;
      bc.shape = config.shape;
      rig.simulator().Spawn([](Rig& rig, workload::BootStormConfig bc, int c,
                               std::vector<workload::BootStormReport>* out,
                               int* done) -> sim::Task<void> {
        auto report = co_await workload::RunBootStorm(rig.simulator(), rig.client(c).vfs(),
                                                      rig.client(c).cpu(), bc);
        CHECK(report.ok());
        (*out)[static_cast<size_t>(c)] = *report;
        ++*done;
      }(rig, bc, c, &boot, &done));
    }
  }
  rig.simulator().Run();
  CHECK(done == config.clients);

  FleetRunStats stats;
  sim::Duration elapsed = 0;
  for (int c = 0; c < config.clients; ++c) {
    if (config.work == FleetWork::kHotset) {
      const workload::HotsetReport& r = hot[static_cast<size_t>(c)];
      stats.ops += r.ops_done;
      stats.bytes += r.bytes_read;
      stats.errors += r.errors;
      elapsed = std::max(elapsed, r.elapsed);
    } else {
      const workload::BootStormReport& r = boot[static_cast<size_t>(c)];
      stats.ops += r.files_read;
      stats.bytes += r.bytes_read;
      stats.errors += r.errors;
      elapsed = std::max(elapsed, r.elapsed);
    }
  }
  stats.elapsed_s = sim::ToSeconds(elapsed);
  stats.ops_per_s = stats.elapsed_s > 0 ? static_cast<double>(stats.ops) / stats.elapsed_s : 0;

  std::vector<metrics::MachineOps> clients;
  for (int c = 0; c < config.clients; ++c) {
    clients.push_back(metrics::MachineOps{
        rig.client(c).address().host,
        rig.client(c).peer().client_ops().Diff(client_before[static_cast<size_t>(c)])});
  }
  stats.client_rpcs = metrics::SumAcrossMachines(clients);
  for (int s = 0; s < config.shards; ++s) {
    metrics::OpCounters ops =
        rig.shard(s).peer().server_ops().Diff(server_before[static_cast<size_t>(s)]);
    stats.shard_meta_rpcs +=
        ops.Get(proto::OpKind::kGetAttr) + ops.Get(proto::OpKind::kLookup);
    stats.server_rpcs.push_back(metrics::MachineOps{rig.shard(s).address().host, ops});
  }

  if (recorder != nullptr) {
    trace::SetActive(nullptr);
    stats.latency_by_machine = recorder->SpanDurationsByMachine("rpc.call", "op");
    stats.trace_events = recorder->events().size();
    stats.chrome_json = recorder->ToChromeJson();
    if (check_trace) {
      stats.trace_checked = true;
      stats.violations = trace::CheckTrace(*recorder);
    }
  }

  if (rig.meta_cache() != nullptr) {
    fleet::MetaCache& cache = *rig.meta_cache();
    // Reads are routed to the shards, never re-issued by the tier.
    CHECK(cache.peer().client_ops().Get(proto::OpKind::kRead) == 0);
    stats.has_cache = true;
    stats.cache_hits = cache.hits();
    stats.cache_misses = cache.misses();
    stats.cache_coalesced = cache.coalesced();
    stats.cache_evictions = cache.evictions();
    stats.cache_invalidations = cache.invalidations();
  }
  return stats;
}

// --- output ----------------------------------------------------------------

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Int(uint64_t v) { return std::to_string(v); }

std::string FleetRunJson(const FleetRunStats& s) {
  std::string out = "{";
  out += "\"elapsed_s\":" + Num(s.elapsed_s);
  out += ",\"ops\":" + Int(s.ops);
  out += ",\"bytes\":" + Int(s.bytes);
  out += ",\"errors\":" + Int(s.errors);
  out += ",\"ops_per_s\":" + Num(s.ops_per_s);
  out += ",\"rpc\":" + bench::RpcCountsJson(s.client_rpcs);
  out += ",\"rpc_total\":" + Int(s.client_rpcs.Total());
  out += ",\"rpc_by_server\":" + bench::RpcByMachineJson(s.server_rpcs);
  out += ",\"shard_meta_rpcs\":" + Int(s.shard_meta_rpcs);
  if (s.has_cache) {
    out += ",\"cache\":{\"hits\":" + Int(s.cache_hits) + ",\"misses\":" + Int(s.cache_misses) +
           ",\"coalesced\":" + Int(s.cache_coalesced) +
           ",\"evictions\":" + Int(s.cache_evictions) +
           ",\"invalidations\":" + Int(s.cache_invalidations) + "}";
  }
  if (s.trace_events > 0) {
    out += ",\"rpc_latency_by_machine_us\":" + bench::LatencyByMachineJson(s.latency_by_machine);
    out += ",\"trace_events\":" + Int(s.trace_events);
  }
  if (s.trace_checked) {
    out += ",\"trace_violations\":" + Int(s.violations.size());
  }
  out += "}";
  return out;
}

void PrintRunRow(metrics::Table& table, const std::string& label, const FleetRunStats& s) {
  table.AddRow({label, metrics::Table::Int(s.ops), metrics::Table::Num(s.elapsed_s, 2),
                metrics::Table::Num(s.ops_per_s, 1), metrics::Table::Int(s.client_rpcs.Total()),
                metrics::Table::Int(s.shard_meta_rpcs), metrics::Table::Int(s.errors)});
}

void ReportViolations(const std::string& label, const FleetRunStats& s) {
  std::printf("%-24s errors=%llu trace_events=%llu violations=%zu\n", label.c_str(),
              static_cast<unsigned long long>(s.errors),
              static_cast<unsigned long long>(s.trace_events), s.violations.size());
  for (const trace::Violation& v : s.violations) {
    std::printf("  VIOLATION [%s] %s\n", v.rule.c_str(), v.message.c_str());
  }
  CHECK(s.violations.empty());
}

}  // namespace

int main(int argc, char** argv) {
  FleetFlags flags = ParseFleetFlags(argc, argv);
  bool trace_on = flags.tracing();
  std::vector<std::pair<std::string, std::string>> configs;

  workload::FleetTreeShape shape;
  int hot_ops = flags.smoke ? 60 : 400;
  int clients = flags.smoke ? 4 : 8;
  std::vector<int> shard_counts = flags.smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  int max_shards = shard_counts.back();
  std::string last_chrome_json;

  if (!flags.faults_only) {
    // --- 1. Zipf hotset scaling (NFS) --------------------------------------
    std::printf("Zipf hotset: %d clients, %d ops/client, catalog spread round-robin\n", clients,
                hot_ops);
    metrics::Table table(
        {"Config", "ops", "elapsed s", "ops/s", "client RPC", "shard getattr+lookup", "errors"});
    double thr_first = 0, thr_last = 0, thr_cache = 0;
    for (int shards : shard_counts) {
      FleetBenchConfig config;
      config.shards = shards;
      config.clients = clients;
      config.ops_per_client = hot_ops;
      config.shape = shape;
      config.trace_on = trace_on;
      FleetRunStats s = RunFleet(config);
      if (shards == shard_counts.front()) {
        thr_first = s.ops_per_s;
      }
      if (shards == max_shards) {
        thr_last = s.ops_per_s;
      }
      PrintRunRow(table, "NFS " + std::to_string(shards) + " shard", s);
      configs.emplace_back("hotset_nfs_s" + std::to_string(shards), FleetRunJson(s));
      if (!s.chrome_json.empty()) {
        last_chrome_json = std::move(s.chrome_json);
      }
    }

    // Hotset behind the metadata tier, at the widest fleet.
    {
      FleetBenchConfig config;
      config.shards = max_shards;
      config.clients = clients;
      config.cache = true;
      config.ops_per_client = hot_ops;
      config.shape = shape;
      config.trace_on = trace_on;
      FleetRunStats s = RunFleet(config);
      thr_cache = s.ops_per_s;
      PrintRunRow(table, "NFS " + std::to_string(max_shards) + " shard+cache", s);
      configs.emplace_back("hotset_nfs_s" + std::to_string(max_shards) + "_cache",
                           FleetRunJson(s));
    }

    // --- 3. Protocol rows ---------------------------------------------------
    for (Protocol protocol : {Protocol::kSnfs, Protocol::kNqnfs}) {
      FleetBenchConfig config;
      config.protocol = protocol;
      config.shards = max_shards;
      config.clients = clients;
      config.ops_per_client = hot_ops;
      config.shape = shape;
      config.trace_on = trace_on;
      FleetRunStats s = RunFleet(config);
      std::string name(ProtocolName(protocol));
      PrintRunRow(table, name + " " + std::to_string(max_shards) + " shard", s);
      for (char& c : name) {
        c = static_cast<char>(std::tolower(c));
      }
      configs.emplace_back("hotset_" + name + "_s" + std::to_string(max_shards),
                           FleetRunJson(s));
    }
    table.Print();

    double scaling = thr_first > 0 ? thr_last / thr_first : 0;
    std::printf("\nhotset aggregate throughput %d -> %d shards: %.2fx\n", shard_counts.front(),
                max_shards, scaling);
    double tier_ratio = thr_last > 0 ? thr_cache / thr_last : 0;
    std::printf("metadata tier hotset throughput vs no tier: %.2fx\n", tier_ratio);
    if (!flags.smoke) {
      // Acceptance: >= 1.7x from 1 to 4 shards, and the tier costs the
      // hotset no throughput (reads bypass it).
      CHECK(scaling >= 1.7);
      CHECK(tier_ratio >= 1.0);
    }
    configs.emplace_back("summary_scaling",
                         "{\"shards_low\":" + Int(static_cast<uint64_t>(shard_counts.front())) +
                             ",\"shards_high\":" + Int(static_cast<uint64_t>(max_shards)) +
                             ",\"throughput_ratio\":" + Num(scaling) + "}");

    // --- 2. Boot storm, metadata tier off/on --------------------------------
    std::printf("\nBoot storm: every client cold-walks every shard's boot tree\n");
    metrics::Table storm(
        {"Config", "files", "elapsed s", "ops/s", "client RPC", "shard getattr+lookup", "errors"});
    FleetBenchConfig storm_config;
    storm_config.shards = max_shards;
    storm_config.clients = clients;
    storm_config.work = FleetWork::kBootStorm;
    storm_config.shape = shape;
    storm_config.trace_on = trace_on;
    FleetRunStats without = RunFleet(storm_config);
    PrintRunRow(storm, "NFS " + std::to_string(max_shards) + " shard", without);
    configs.emplace_back("bootstorm_nfs_s" + std::to_string(max_shards), FleetRunJson(without));

    storm_config.cache = true;
    FleetRunStats with = RunFleet(storm_config);
    PrintRunRow(storm, "NFS " + std::to_string(max_shards) + " shard+cache", with);
    configs.emplace_back("bootstorm_nfs_s" + std::to_string(max_shards) + "_cache",
                         FleetRunJson(with));
    storm.Print();

    double cut =
        without.shard_meta_rpcs > 0
            ? 100.0 * (1.0 - static_cast<double>(with.shard_meta_rpcs) /
                                 static_cast<double>(without.shard_meta_rpcs))
            : 0;
    std::printf("\nmetadata tier cut of shard-side getattr+lookup: %.1f%% (%llu -> %llu)\n", cut,
                static_cast<unsigned long long>(without.shard_meta_rpcs),
                static_cast<unsigned long long>(with.shard_meta_rpcs));
    if (!flags.smoke) {
      // Acceptance: the tier absorbs >= 50% of the shard-side probes.
      CHECK(cut >= 50.0);
    }
    configs.emplace_back(
        "summary_bootstorm",
        "{\"shard_meta_rpcs\":" + Int(without.shard_meta_rpcs) +
            ",\"shard_meta_rpcs_cached\":" + Int(with.shard_meta_rpcs) +
            ",\"meta_rpc_cut_pct\":" + Num(cut) + "}");
  }

  // --- 4. Fault sweep -------------------------------------------------------
  std::printf("\nFleet fault sweep (trace-checked)\n");
  {
    FleetBenchConfig config;
    config.shards = 2;
    config.clients = 4;
    config.ops_per_client = flags.smoke ? 150 : 600;
    config.shape = shape;
    config.fault = FleetFault::kShardCrash;
    config.fault_at = flags.smoke ? sim::Msec(300) : sim::Sec(1);
    config.fault_duration = flags.smoke ? sim::Msec(600) : sim::Sec(2);
    config.mutator_writes = flags.smoke ? 10 : 30;
    FleetRunStats s = RunFleet(config);
    ReportViolations("shard-crash", s);
    configs.emplace_back("fault_shard_crash", FleetRunJson(s));
  }
  {
    FleetBenchConfig config;
    config.shards = 2;
    config.clients = 4;
    config.cache = true;
    config.ops_per_client = flags.smoke ? 150 : 600;
    config.shape = shape;
    config.fault = FleetFault::kCachePartition;
    config.fault_at = flags.smoke ? sim::Msec(300) : sim::Sec(1);
    config.fault_duration = flags.smoke ? sim::Msec(600) : sim::Sec(2);
    config.mutator_writes = flags.smoke ? 10 : 30;
    FleetRunStats s = RunFleet(config);
    ReportViolations("cache-partition", s);
    configs.emplace_back("fault_cache_partition", FleetRunJson(s));
  }

  if (!flags.json_path.empty()) {
    bench::WriteBenchJson(flags.json_path, "fleet", configs);
  }
  if (!flags.trace_path.empty() && !last_chrome_json.empty()) {
    bench::WriteTextFile(flags.trace_path, last_chrome_json);
  }
  return 0;
}
