#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "src/base/check.h"
#include "src/fleet/meta_cache.h"
#include "src/fleet/shard_map.h"
#include "src/metrics/histogram.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/testbed/machine.h"
#include "src/testbed/rig.h"
#include "src/trace/checker.h"
#include "src/trace/trace.h"
#include "src/workload/andrew.h"
#include "src/workload/fleet.h"
#include "src/workload/sort.h"

namespace perfbench {

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "andrew") {
    *out = Workload::kAndrew;
  } else if (name == "sort") {
    *out = Workload::kSort;
  } else if (name == "fleet") {
    *out = Workload::kFleet;
  } else {
    return false;
  }
  return true;
}

namespace {

using Clock = std::chrono::steady_clock;
using testbed::ClientMachine;
using testbed::Protocol;
using testbed::ServerMachine;

constexpr Protocol kProtocols[] = {Protocol::kNfs, Protocol::kSnfs, Protocol::kNqnfs};
constexpr size_t kMaxErrors = 8;

double HostSecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

std::string Key(Protocol protocol) {
  switch (protocol) {
    case Protocol::kNfs:
      return "nfs";
    case Protocol::kSnfs:
      return "snfs";
    case Protocol::kNqnfs:
      return "nqnfs";
    case Protocol::kLocal:
      break;
  }
  return "local";
}

// Records a failed gate; `operations` is how many workload operations it
// failed.
void AddError(RepResult& rep, std::string what, uint64_t operations = 1) {
  rep.failed += operations;
  if (rep.errors.size() < kMaxErrors) {
    rep.errors.push_back(std::move(what));
  }
}

// The result of one workload call run as a simulation task.
template <typename Report>
struct Outcome {
  bool ok = false;
  std::string error;
  Report report;
};

template <typename Report>
sim::Task<void> RunInto(sim::Task<base::Result<Report>> task, Outcome<Report>* out) {
  auto report = co_await task;
  if (report.ok()) {
    out->ok = true;
    out->report = *report;
  } else {
    out->error = std::string(report.status().name());
  }
}

// --- Machines ----------------------------------------------------------------

// One configuration's machines. They are assembled here in testbed::Rig's
// order, so host ids — and with them every virtual-time figure — match the
// Rig-built paper benches, because Rig does not hand out the protocol
// clients whose counters the benchmark reports. One server and one client
// without the tier is Rig's classic layout with a remote temp directory
// ("/data" and "/rtmp"); anything else is its fleet layout (shard s exported
// at "/data/s<s>", every client mounting every shard, through the tier when
// there is one).
struct Topology {
  Topology(Protocol protocol, int num_servers, int num_clients, bool with_tier,
           const testbed::ClientMachineParams& client_params);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  void Mount(Protocol protocol, ClientMachine& client, const std::string& path,
             net::Address server, proto::FileHandle root);

  sim::Simulator sim;
  net::Network network{sim, net::NetworkParams{}, /*seed=*/11};
  std::vector<std::unique_ptr<ServerMachine>> servers;
  std::unique_ptr<fleet::MetaCache> tier;
  std::vector<std::unique_ptr<ClientMachine>> clients;
  std::vector<proto::FileHandle> exports;  // per server: its exported "data" directory
  proto::FileHandle tmp_export;            // classic layout: the server's "tmp"
  std::vector<nfs::NfsClient*> nfs_clients;
  std::vector<snfs::SnfsClient*> snfs_clients;
};

testbed::ServerProtocol ServerProtocolFor(Protocol protocol) {
  switch (protocol) {
    case Protocol::kNfs:
      return testbed::ServerProtocol::kNfs;
    case Protocol::kNqnfs:
      return testbed::ServerProtocol::kNqnfs;
    default:
      return testbed::ServerProtocol::kSnfs;
  }
}

Topology::Topology(Protocol protocol, int num_servers, int num_clients, bool with_tier,
                   const testbed::ClientMachineParams& client_params) {
  bool classic = num_servers == 1 && num_clients == 1 && !with_tier;
  for (int s = 0; s < num_servers; ++s) {
    testbed::ServerMachineParams params;
    params.fs.fsid = static_cast<uint32_t>(1 + s);
    servers.push_back(std::make_unique<ServerMachine>(
        sim, network, classic ? "server" : "server" + std::to_string(s),
        ServerProtocolFor(protocol), params));
  }
  sim.Spawn([](Topology* t, bool classic) -> sim::Task<void> {
    for (const auto& server : t->servers) {
      auto data = co_await server->fs().Mkdir(server->fs().root(), "data");
      CHECK(data.ok());
      t->exports.push_back(data->fh);
    }
    if (classic) {
      auto tmp = co_await t->servers[0]->fs().Mkdir(t->servers[0]->fs().root(), "tmp");
      CHECK(tmp.ok());
      t->tmp_export = tmp->fh;
    }
  }(this, classic));
  sim.Run();

  if (with_tier) {
    fleet::ShardMap shards;
    for (int s = 0; s < num_servers; ++s) {
      ServerMachine& server = *servers[static_cast<size_t>(s)];
      shards.AddShard(fleet::Shard{s, testbed::Rig::ShardRoot(s), server.fs().fsid(),
                                   server.address(), exports[static_cast<size_t>(s)]});
    }
    tier = std::make_unique<fleet::MetaCache>(sim, network, "metacache", shards);
  }
  for (int c = 0; c < num_clients; ++c) {
    clients.push_back(std::make_unique<ClientMachine>(
        sim, network, classic ? "client" : "client" + std::to_string(c), client_params));
  }
  for (const auto& client : clients) {
    client->MountLocal("/local");
    if (classic) {
      Mount(protocol, *client, "/data", servers[0]->address(), exports[0]);
      Mount(protocol, *client, "/rtmp", servers[0]->address(), tmp_export);
      continue;
    }
    for (int s = 0; s < num_servers; ++s) {
      net::Address target =
          tier != nullptr ? tier->address() : servers[static_cast<size_t>(s)]->address();
      Mount(protocol, *client, testbed::Rig::ShardRoot(s), target,
            exports[static_cast<size_t>(s)]);
    }
  }
  for (const auto& server : servers) {
    server->Start();
  }
  if (tier != nullptr) {
    tier->Start();
  }
  for (const auto& client : clients) {
    client->Start();
  }
  if (!classic) {
    sim.Spawn([](Topology* t) -> sim::Task<void> {
      for (const auto& client : t->clients) {
        auto made = co_await client->vfs().MkdirPath("/local/tmp");
        CHECK(made.ok());
      }
    }(this));
    sim.Run();
  }
}

void Topology::Mount(Protocol protocol, ClientMachine& client, const std::string& path,
                     net::Address server, proto::FileHandle root) {
  switch (protocol) {
    case Protocol::kNfs:
      nfs_clients.push_back(&client.MountNfs(path, server, root));
      return;
    case Protocol::kSnfs:
      snfs_clients.push_back(&client.MountSnfs(path, server, root));
      return;
    case Protocol::kNqnfs:
      client.MountNqnfs(path, server, root);
      return;
    case Protocol::kLocal:
      break;
  }
  CHECK(false);
}

// --- Counters ------------------------------------------------------------------

// Raw layer counters of every machine, by role. Counters only grow; a
// measured phase contributes the difference of two snapshots.
Tally Snapshot(Topology& t) {
  Tally s;
  s["now_us"] = static_cast<double>(t.sim.Now());
  s["events"] = static_cast<double>(t.sim.events_processed());
  s["net.packets"] = static_cast<double>(t.network.packets_sent());
  s["net.bytes"] = static_cast<double>(t.network.bytes_sent());
  s["net.dropped"] = static_cast<double>(t.network.packets_dropped());
  for (const auto& client : t.clients) {
    const metrics::OpCounters& ops = client->peer().client_ops();
    s["rpc.calls"] += static_cast<double>(ops.Total());
    s["rpc.calls.meta"] +=
        static_cast<double>(ops.Get(proto::OpKind::kGetAttr) + ops.Get(proto::OpKind::kLookup));
    s["rpc.calls.data"] +=
        static_cast<double>(ops.Get(proto::OpKind::kRead) + ops.Get(proto::OpKind::kWrite));
    s["rpc.calls.open_close"] +=
        static_cast<double>(ops.Get(proto::OpKind::kOpen) + ops.Get(proto::OpKind::kClose) +
                            ops.Get(proto::OpKind::kGetLease));
    s["rpc.retransmissions"] += static_cast<double>(client->peer().retransmissions());
    s["client_busy_us"] += static_cast<double>(client->cpu().busy_time());
    const cache::CacheStats& cache = client->buffer_cache().stats();
    s["cache.hits"] += static_cast<double>(cache.hits);
    s["cache.misses"] += static_cast<double>(cache.misses);
    s["cache.evictions"] += static_cast<double>(cache.evictions);
    s["cache.writebacks"] += static_cast<double>(cache.writebacks);
    s["cache.cancelled"] += static_cast<double>(cache.cancelled_writes);
    s["cache.delayed"] += static_cast<double>(cache.delayed_writes);
    if (client->local_disk() != nullptr) {
      s["disk.all_busy_us"] += static_cast<double>(client->local_disk()->busy_time());
    }
  }
  for (const auto& server : t.servers) {
    const metrics::OpCounters& ops = server->peer().server_ops();
    s["server.meta_ops"] +=
        static_cast<double>(ops.Get(proto::OpKind::kGetAttr) + ops.Get(proto::OpKind::kLookup));
    s["rpc.retransmissions"] += static_cast<double>(server->peer().retransmissions());
    s["rpc.dup_hits"] += static_cast<double>(server->peer().duplicates_suppressed());
    s["server_busy_us"] += static_cast<double>(server->cpu().busy_time());
    s["disk.reads"] += static_cast<double>(server->disk().reads());
    s["disk.writes"] += static_cast<double>(server->disk().writes());
    s["disk.bytes_written"] += static_cast<double>(server->disk().bytes_written());
    s["disk.busy_us"] += static_cast<double>(server->disk().busy_time());
    s["disk.all_busy_us"] += static_cast<double>(server->disk().busy_time());
    if (const snfs::SnfsServer* snfs = server->snfs_server()) {
      s["snfs.callbacks"] += static_cast<double>(snfs->callbacks_issued());
    }
    if (const nqnfs::NqnfsServer* nqnfs = server->nqnfs_server()) {
      s["nqnfs.leases_granted"] += static_cast<double>(nqnfs->leases_granted());
      s["nqnfs.grants_denied"] += static_cast<double>(nqnfs->grants_denied());
      s["nqnfs.vacates"] += static_cast<double>(nqnfs->vacates_issued());
    }
  }
  if (t.tier != nullptr) {
    fleet::MetaCache& tier = *t.tier;
    s["rpc.retransmissions"] += static_cast<double>(tier.peer().retransmissions());
    s["rpc.dup_hits"] += static_cast<double>(tier.peer().duplicates_suppressed());
    s["tier_busy_us"] += static_cast<double>(tier.cpu().busy_time());
    s["fleet.hits"] += static_cast<double>(tier.hits());
    s["fleet.misses"] += static_cast<double>(tier.misses());
    s["fleet.forwarded"] += static_cast<double>(tier.forwarded());
    s["fleet.coalesced"] += static_cast<double>(tier.coalesced());
    s["fleet.invalidations"] += static_cast<double>(tier.invalidations());
    s["fleet.stale_fills_rejected"] += static_cast<double>(tier.stale_fills_rejected());
  }
  for (const nfs::NfsClient* nfs : t.nfs_clients) {
    s["nfs.attr_probes"] += static_cast<double>(nfs->attr_probes());
    s["nfs.invalidations"] += static_cast<double>(nfs->cache_invalidations());
  }
  for (const snfs::SnfsClient* snfs : t.snfs_clients) {
    s["snfs.delayed_close_hits"] += static_cast<double>(snfs->delayed_close_hits());
  }
  return s;
}

// Runs the already-spawned measured work to completion, timing it on the
// host clock as one of `rep`'s phases. Adds the counter deltas to `raw` (and
// returns them), plus the machine-time each role had available (elapsed ×
// machines) for utilization ratios.
Tally RunMeasured(Topology& t, Tally& raw, RepResult& rep) {
  Tally before = Snapshot(t);
  Clock::time_point start = Clock::now();
  t.sim.Run();
  rep.wall_phases_s.push_back(HostSecondsSince(start));
  Tally after = Snapshot(t);
  Tally delta;
  for (const auto& [key, value] : after) {
    delta[key] = value - before[key];
    raw[key] += delta[key];
  }
  double elapsed = delta["now_us"];
  raw["client_capacity_us"] += elapsed * static_cast<double>(t.clients.size());
  raw["server_capacity_us"] += elapsed * static_cast<double>(t.servers.size());
  raw["tier_capacity_us"] += t.tier != nullptr ? elapsed : 0;
  return delta;
}

// Duplicate-request cache occupancy (a level, not a counter) of the servers
// and the tier once a configuration's measured work is done.
void AddDupCacheLevel(Topology& t, Tally& raw) {
  double entries = 0;
  for (const auto& server : t.servers) {
    entries += static_cast<double>(server->peer().dup_cache_size());
  }
  if (t.tier != nullptr) {
    entries += static_cast<double>(t.tier->peer().dup_cache_size());
  }
  raw["rpc.dup_cache_entries"] += entries;
}

// Per-layer figures shared by all workloads, from the summed raw counters.
void DeriveLayerFigures(Tally& raw, Tally& f) {
  f["sim.events"] = raw["events"];
  f["sim.cpu_util.client"] = Ratio(raw["client_busy_us"], raw["client_capacity_us"]);
  f["sim.cpu_util.server"] = Ratio(raw["server_busy_us"], raw["server_capacity_us"]);
  for (const char* name :
       {"net.packets", "net.bytes", "net.dropped", "rpc.calls", "rpc.calls.meta", "rpc.calls.data",
        "rpc.calls.open_close", "rpc.retransmissions", "rpc.dup_hits", "rpc.dup_cache_entries",
        "nfs.attr_probes", "nfs.invalidations", "snfs.callbacks", "snfs.delayed_close_hits",
        "nqnfs.leases_granted", "nqnfs.grants_denied", "nqnfs.vacates", "cache.evictions",
        "cache.writebacks", "disk.reads", "disk.writes", "fleet.forwarded", "fleet.coalesced",
        "fleet.invalidations", "fleet.stale_fills_rejected"}) {
    f[name] = raw[name];
  }
  f["cache.hit_ratio"] = Ratio(raw["cache.hits"], raw["cache.hits"] + raw["cache.misses"]);
  f["cache.cancelled_ratio"] = Ratio(raw["cache.cancelled"], raw["cache.delayed"]);
  f["disk.util"] = Ratio(raw["disk.busy_us"], raw["server_capacity_us"]);
  f["disk.bytes_per_user_byte"] = Ratio(raw["disk.bytes_written"], raw["user_bytes_written"]);
  f["fleet.meta_hit_ratio"] = Ratio(raw["fleet.hits"], raw["fleet.hits"] + raw["fleet.misses"]);
  f["fleet.tier_cpu_util"] = Ratio(raw["tier_busy_us"], raw["tier_capacity_us"]);
  // Busy time of every disk, the clients' own included: the traced run's
  // disk.* spans cover them all, and disk.wait_ms is the difference.
  f["disk.all_busy_ms"] = raw["disk.all_busy_us"] / 1e3;
}

// --- Tracing -------------------------------------------------------------------

// Installs a recorder over one configuration's measured phases (when the
// repetition is traced) and folds its trace into the repetition's result.
class TraceSession {
 public:
  TraceSession(sim::Simulator& sim, bool on) {
    if (on) {
      recorder_ = std::make_unique<trace::Recorder>(sim);
      trace::SetActive(recorder_.get());
    }
  }
  ~TraceSession() {
    if (recorder_ != nullptr) {
      trace::SetActive(nullptr);
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void Finish(RepResult& rep) {
    if (recorder_ == nullptr) {
      return;
    }
    trace::SetActive(nullptr);
    LayerTimes layers = AttributeLayers(recorder_->events());
    if (layers.unbalanced_trees > 0) {
      AddError(rep,
               "layer sum: " + std::to_string(layers.unbalanced_trees) +
                   " span trees whose self times do not add up to the root",
               /*operations=*/0);
    }
    rep.layers.Add(layers);
    rep.trace_events += recorder_->events().size();

    Clock::time_point start = Clock::now();
    std::string json = recorder_->ToChromeJson();
    uint64_t checksum = recorder_->Checksum();
    rep.export_s += HostSecondsSince(start);
    CHECK(!json.empty() && checksum != 0);

    start = Clock::now();
    std::vector<trace::Violation> violations = trace::CheckTrace(*recorder_);
    rep.check_s += HostSecondsSince(start);
    rep.trace_violations += violations.size();
    for (const trace::Violation& v : violations) {
      AddError(rep, "trace violation [" + v.rule + "] " + v.message, /*operations=*/0);
    }
    recorder_.reset();
  }

 private:
  std::unique_ptr<trace::Recorder> recorder_;
};

// --- andrew ----------------------------------------------------------------------

// The Andrew benchmark (§5.2) on one client and one server with the temp
// directory remote, back to back on NFS, SNFS and NQNFS. Trial 0 warms the
// caches; trial 1 on the warm rig is measured (bench_andrew reports the same
// trial).
RepResult RunAndrewRep(uint64_t seed, bool traced) {
  RepResult rep;
  Tally raw;
  workload::AndrewShape shape;
  shape.seed = 1989 + seed;
  uint64_t sources = static_cast<uint64_t>(shape.dirs * shape.files_per_dir);
  for (Protocol protocol : kProtocols) {
    Clock::time_point start = Clock::now();
    Topology t(protocol, 1, 1, false, {});
    t.sim.Spawn(workload::PopulateAndrewTree(t.servers[0]->fs(), t.exports[0], shape));
    t.sim.Run();
    rep.setup_phases_s.push_back(HostSecondsSince(start));

    for (int trial = 0; trial < 2; ++trial) {
      workload::AndrewConfig config;
      config.src_root = "/data/src";
      config.target_root = "/data/t" + std::to_string(trial);
      config.tmp_dir = "/rtmp";
      config.shape = shape;
      ClientMachine& client = *t.clients[0];
      Outcome<workload::AndrewReport> outcome;
      t.sim.Spawn(
          RunInto(workload::RunAndrew(t.sim, client.vfs(), client.cpu(), config), &outcome));
      ++rep.attempted;
      if (trial == 1) {
        TraceSession session(t.sim, traced);
        RunMeasured(t, raw, rep);
        session.Finish(rep);
      } else {
        t.sim.Run();
      }
      if (!outcome.ok || outcome.report.files_compiled != sources) {
        std::string why = outcome.ok ? "compiled " +
                                           std::to_string(outcome.report.files_compiled) + " of " +
                                           std::to_string(sources) + " sources"
                                     : "failed: " + outcome.error;
        AddError(rep, "andrew " + Key(protocol) + " trial " + std::to_string(trial) + ": " + why);
        continue;
      }
      if (trial == 1) {
        const workload::AndrewReport& r = outcome.report;
        rep.figures["virtual_s." + Key(protocol)] = sim::ToSeconds(r.total);
        rep.figures["workload.andrew_copy_s." + Key(protocol)] = sim::ToSeconds(
            r.phase_time[static_cast<size_t>(workload::AndrewPhase::kCopy)]);
        rep.figures["workload.andrew_make_s." + Key(protocol)] = sim::ToSeconds(
            r.phase_time[static_cast<size_t>(workload::AndrewPhase::kMake)]);
      }
    }
    AddDupCacheLevel(t, raw);
  }
  DeriveLayerFigures(raw, rep.figures);
  return rep;
}

// --- sort --------------------------------------------------------------------------

// The external sort (§5.3): 2816 KB of input (seed 0; other seeds add up to
// 63 records, since sort timing depends on the record count, not the keys)
// on the client's disk, temporaries on the server, 1280 usable cache blocks
// so the 8448 KB of temporaries overflow the client cache.
RepResult RunSortRep(uint64_t seed, bool traced) {
  RepResult rep;
  Tally raw;
  uint64_t input_bytes = 2816 * 1024 + workload::kSortRecordBytes * (seed % 64);
  for (Protocol protocol : kProtocols) {
    Clock::time_point start = Clock::now();
    testbed::ClientMachineParams params;
    params.cache.capacity_blocks = 1280;
    Topology t(protocol, 1, 1, false, params);
    ClientMachine& client = *t.clients[0];
    fs::LocalFs& local = *client.local_fs();
    t.sim.Spawn(
        workload::PopulateSortInput(local, local.root(), "input", input_bytes, 7777 + seed));
    t.sim.Run();
    rep.setup_phases_s.push_back(HostSecondsSince(start));

    workload::SortConfig config;
    config.input_path = "/local/input";
    config.output_path = "/local/output";
    config.tmp_dir = "/rtmp";
    Outcome<workload::SortReport> outcome;
    t.sim.Spawn(RunInto(workload::RunSort(t.sim, client.vfs(), client.cpu(), config), &outcome));
    ++rep.attempted;
    {
      TraceSession session(t.sim, traced);
      RunMeasured(t, raw, rep);
      session.Finish(rep);
    }
    AddDupCacheLevel(t, raw);
    if (!outcome.ok || !outcome.report.verified || outcome.report.input_bytes != input_bytes) {
      AddError(rep, "sort " + Key(protocol) + ": " +
                        (outcome.ok ? "output not a sorted permutation of the input"
                                    : "failed: " + outcome.error));
      continue;
    }
    rep.figures["virtual_s." + Key(protocol)] = sim::ToSeconds(outcome.report.elapsed);
    raw["user_bytes_written"] += static_cast<double>(outcome.report.temp_bytes_written);
  }
  DeriveLayerFigures(raw, rep.figures);
  return rep;
}

// --- fleet -------------------------------------------------------------------------

constexpr int kShards = 4;
constexpr int kClients = 8;
constexpr int kIterationsPerClient = 1400;
constexpr int kWritesPerClient = 140;  // 10%: 1120 write samples, 10080 reads
constexpr double kZipfS = 0.9;
constexpr int kCatalogDirs = 2;
constexpr int kCatalogFilesPerDir = 8;
constexpr int kBlocksPerFile = 2;
constexpr int kCatalogFiles = kShards * kCatalogDirs * kCatalogFilesPerDir;
constexpr uint32_t kBlockBytes = 4096;
// Client CPU per iteration for consuming or producing the block, charged
// after the timed vfs calls (bench_fleet's hotset rate: 50 µs per KB).
constexpr sim::Duration kIterationCpu = sim::Usec(250);

uint64_t Mix(uint64_t a, uint64_t b) { return sim::Rng(a * 0x9E3779B97F4A7C15ULL ^ b).Next(); }

// Catalog slot i lives on shard i % kShards, so the hot head of the Zipf
// distribution is spread over every shard.
std::string CatalogPath(int slot) {
  int within = slot / kShards;
  return testbed::Rig::ShardRoot(slot % kShards) + "/hot/d" +
         std::to_string(within / kCatalogFilesPerDir) + "/f" +
         std::to_string(within % kCatalogFilesPerDir);
}

// Content of one catalog block at one generation (0 = as populated): a
// header naming (slot, block, generation), then bytes derived from all three
// and the seed, so a read proves which write it returned.
std::vector<uint8_t> BlockBytes(uint64_t seed, int slot, int block, uint64_t generation) {
  std::vector<uint8_t> bytes(kBlockBytes);
  uint32_t where[2] = {static_cast<uint32_t>(slot), static_cast<uint32_t>(block)};
  std::memcpy(bytes.data(), where, sizeof(where));
  std::memcpy(bytes.data() + sizeof(where), &generation, sizeof(generation));
  sim::Rng rng(Mix(Mix(seed, static_cast<uint64_t>(slot * kBlocksPerFile + block)), generation));
  for (size_t i = 16; i < bytes.size(); i += 8) {
    uint64_t v = rng.Next();
    std::memcpy(bytes.data() + i, &v, sizeof(v));
  }
  return bytes;
}

sim::Task<void> PopulateCatalog(fs::LocalFs* fs, proto::FileHandle parent, int shard,
                                uint64_t seed) {
  auto tree = co_await fs->Mkdir(parent, "hot");
  CHECK(tree.ok());
  for (int d = 0; d < kCatalogDirs; ++d) {
    auto dir = co_await fs->Mkdir(tree->fh, "d" + std::to_string(d));
    CHECK(dir.ok());
    for (int f = 0; f < kCatalogFilesPerDir; ++f) {
      auto file = co_await fs->Create(dir->fh, "f" + std::to_string(f), /*exclusive=*/true);
      CHECK(file.ok());
      int slot = (d * kCatalogFilesPerDir + f) * kShards + shard;
      std::vector<uint8_t> data;
      for (int b = 0; b < kBlocksPerFile; ++b) {
        std::vector<uint8_t> block = BlockBytes(seed, slot, b, 0);
        data.insert(data.end(), block.begin(), block.end());
      }
      auto wrote =
          co_await fs->Write(file->fh, 0, std::move(data), fs::LocalFs::WriteMode::kMemory);
      CHECK(wrote.ok());
    }
  }
}

struct Iteration {
  int slot = 0;
  int block = 0;
  bool write = false;
};

// The generated hotset input: per client, a Zipf(kZipfS) stream of catalog
// blocks with exactly kWritesPerClient in-place overwrites at random places.
std::vector<std::vector<Iteration>> MakePlans(uint64_t seed) {
  std::vector<double> cdf(kCatalogFiles);
  double total = 0;
  for (int i = 0; i < kCatalogFiles; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf[static_cast<size_t>(i)] = total;
  }
  std::vector<std::vector<Iteration>> plans(kClients);
  for (int c = 0; c < kClients; ++c) {
    sim::Rng rng(Mix(seed, 1000 + static_cast<uint64_t>(c)));
    std::vector<uint8_t> writes(kIterationsPerClient, 0);
    std::fill(writes.begin(), writes.begin() + kWritesPerClient, 1);
    for (int i = kIterationsPerClient - 1; i > 0; --i) {
      std::swap(writes[static_cast<size_t>(i)], writes[static_cast<size_t>(rng.UniformInt(0, i))]);
    }
    for (int i = 0; i < kIterationsPerClient; ++i) {
      double r = rng.UniformDouble() * total;
      int slot = static_cast<int>(std::upper_bound(cdf.begin(), cdf.end(), r) - cdf.begin());
      Iteration it;
      it.slot = std::min(slot, kCatalogFiles - 1);
      it.block = static_cast<int>(rng.UniformInt(0, kBlocksPerFile - 1));
      it.write = writes[static_cast<size_t>(i)] != 0;
      plans[static_cast<size_t>(c)].push_back(it);
    }
  }
  return plans;
}

// State shared by one configuration's hotset clients.
struct HotsetRun {
  uint64_t seed = 0;
  bool writes = true;  // false: the plan's overwrites are issued as reads
  sim::Simulator* sim = nullptr;
  std::vector<uint64_t> issued = std::vector<uint64_t>(kCatalogFiles * kBlocksPerFile, 0);
  // Virtual latencies (µs) of whole iterations and of each vfs call.
  metrics::Histogram read_us, write_us, open_us, pread_us, pwrite_us, close_us;
  sim::Duration makespan = 0;
  uint64_t attempted = 0;
  uint64_t bytes_written = 0;
  RepResult* rep = nullptr;  // receives failures
};

bool ReadIsSomeWrite(const HotsetRun& run, const Iteration& it, const std::vector<uint8_t>& data) {
  if (data.size() != kBlockBytes) {
    return false;
  }
  uint32_t where[2];
  uint64_t generation = 0;
  std::memcpy(where, data.data(), sizeof(where));
  std::memcpy(&generation, data.data() + sizeof(where), sizeof(generation));
  return where[0] == static_cast<uint32_t>(it.slot) &&
         where[1] == static_cast<uint32_t>(it.block) &&
         generation <= run.issued[static_cast<size_t>(it.slot * kBlocksPerFile + it.block)] &&
         data == BlockBytes(run.seed, it.slot, it.block, generation);
}

// One closed-loop hotset client: Open + Pread (or, for the plan's writes,
// Pwrite of a new generation in place) + Close of one 4 KB block per
// iteration, each call timed on the virtual clock.
sim::Task<void> HotsetClient(HotsetRun* run, ClientMachine* client,
                             std::vector<Iteration> plan) {
  sim::Simulator& sim = *run->sim;
  vfs::Vfs& vfs = client->vfs();
  sim::Time started = sim.Now();
  for (Iteration it : plan) {
    it.write = it.write && run->writes;
    ++run->attempted;
    std::string path = CatalogPath(it.slot);
    uint64_t offset = static_cast<uint64_t>(it.block) * kBlockBytes;
    sim::Time t0 = sim.Now();
    auto fd = co_await vfs.Open(path, it.write ? vfs::OpenFlags::ReadWrite()
                                               : vfs::OpenFlags::ReadOnly());
    sim::Time t1 = sim.Now();
    if (!fd.ok()) {
      AddError(*run->rep, "fleet open " + path + ": " + std::string(fd.status().name()));
      continue;
    }
    std::string failure;
    if (it.write) {
      uint64_t generation = ++run->issued[static_cast<size_t>(it.slot * kBlocksPerFile + it.block)];
      auto wrote =
          co_await vfs.Pwrite(*fd, offset, BlockBytes(run->seed, it.slot, it.block, generation));
      if (!wrote.ok()) {
        failure = "pwrite: " + std::string(wrote.status().name());
      }
      run->bytes_written += kBlockBytes;
    } else {
      auto data = co_await vfs.Pread(*fd, offset, kBlockBytes);
      if (!data.ok()) {
        failure = "pread: " + std::string(data.status().name());
      } else if (!ReadIsSomeWrite(*run, it, *data)) {
        failure = "read returned bytes no write produced";
      }
    }
    sim::Time t2 = sim.Now();
    auto closed = co_await vfs.Close(*fd);
    sim::Time t3 = sim.Now();
    if (failure.empty() && !closed.ok()) {
      failure = "close: " + std::string(closed.status().name());
    }
    if (!failure.empty()) {
      AddError(*run->rep, "fleet " + path + " block " + std::to_string(it.block) + ": " + failure);
    }
    run->open_us.Add(static_cast<double>(t1 - t0));
    if (it.write) {
      // A read-only close sends nothing; the close after a write is where
      // NFS pushes the write-behind data to the server.
      run->close_us.Add(static_cast<double>(t3 - t2));
    }
    (it.write ? run->pwrite_us : run->pread_us).Add(static_cast<double>(t2 - t1));
    (it.write ? run->write_us : run->read_us).Add(static_cast<double>(t3 - t0));
    co_await client->cpu().Run(kIterationCpu);
  }
  run->makespan = std::max(run->makespan, sim.Now() - started);
}

double Ms(const metrics::Histogram& us, double percentile) {
  return us.Percentile(percentile) / 1e3;
}

// The fleet: 4 shards × 8 clients with 8-block client caches, so every data
// read crosses the network. On NFS the metadata tier is interposed and the
// clients first boot-storm every shard's boot tree; then each protocol runs
// the same generated hotset stream. SNFS and NQNFS issue the stream's
// overwrites as reads: with eight clients write-sharing the hot files their
// callbacks and vacates time out and retransmit, and NQNFS stops advancing
// virtual time altogether on some seeds. The catalog (64 files × 2 blocks)
// fits the server caches.
RepResult RunFleetRep(uint64_t seed, bool traced) {
  RepResult rep;
  Tally raw;
  std::vector<std::vector<Iteration>> plans = MakePlans(seed);
  workload::FleetTreeShape boot_shape;
  boot_shape.seed = 1989 + seed;
  // Boot timing depends on file sizes, not contents: seeds trim the files.
  boot_shape.file_bytes = 8192 - 64 * static_cast<uint32_t>(seed % 32);
  std::vector<std::string> shard_roots;
  for (int s = 0; s < kShards; ++s) {
    shard_roots.push_back(testbed::Rig::ShardRoot(s));
  }

  for (Protocol protocol : kProtocols) {
    bool nfs = protocol == Protocol::kNfs;
    Clock::time_point start = Clock::now();
    testbed::ClientMachineParams params;
    params.cache.capacity_blocks = 8;
    Topology t(protocol, kShards, kClients, /*with_tier=*/nfs, params);
    t.sim.Spawn([](Topology* t, workload::FleetTreeShape boot_shape, bool nfs,
                   uint64_t seed) -> sim::Task<void> {
      for (size_t s = 0; s < t->servers.size(); ++s) {
        if (nfs) {
          co_await workload::PopulateFleetTree(t->servers[s]->fs(), t->exports[s], "boot",
                                               boot_shape);
        }
        co_await PopulateCatalog(&t->servers[s]->fs(), t->exports[s], static_cast<int>(s), seed);
      }
    }(&t, boot_shape, nfs, seed));
    t.sim.Run();
    rep.setup_phases_s.push_back(HostSecondsSince(start));

    TraceSession session(t.sim, traced);
    if (nfs) {
      workload::BootStormConfig config;
      config.shard_roots = shard_roots;
      config.tree_name = "boot";
      config.shape = boot_shape;
      std::vector<Outcome<workload::BootStormReport>> boots(kClients);
      for (size_t c = 0; c < boots.size(); ++c) {
        ClientMachine& client = *t.clients[c];
        t.sim.Spawn(RunInto(workload::RunBootStorm(t.sim, client.vfs(), client.cpu(), config),
                            &boots[c]));
      }
      Tally boot = RunMeasured(t, raw, rep);
      uint64_t files = static_cast<uint64_t>(kShards * boot_shape.dirs * boot_shape.files_per_dir);
      sim::Duration makespan = 0;
      for (const Outcome<workload::BootStormReport>& b : boots) {
        rep.attempted += files;
        if (!b.ok || b.report.errors > 0 || b.report.files_read != files ||
            b.report.bytes_read != files * boot_shape.file_bytes) {
          AddError(rep,
                   "boot storm: " + std::to_string(b.report.files_read) + " of " +
                       std::to_string(files) + " files read, " +
                       std::to_string(b.report.errors) + " errors",
                   std::max<uint64_t>(1, files - std::min(files, b.report.files_read)));
        }
        makespan = std::max(makespan, b.report.elapsed);
      }
      rep.figures["boot_virtual_s"] = sim::ToSeconds(makespan);
      rep.figures["fleet.meta_passthrough_ratio.boot"] =
          Ratio(boot["server.meta_ops"], boot["rpc.calls.meta"]);
    }

    HotsetRun run;
    run.seed = seed;
    run.writes = nfs;
    run.sim = &t.sim;
    run.rep = &rep;
    for (size_t c = 0; c < plans.size(); ++c) {
      t.sim.Spawn(HotsetClient(&run, t.clients[c].get(), plans[c]));
    }
    std::vector<double> shard_ops_before;
    for (const auto& server : t.servers) {
      shard_ops_before.push_back(static_cast<double>(server->peer().server_ops().Total()));
    }
    RunMeasured(t, raw, rep);
    session.Finish(rep);
    AddDupCacheLevel(t, raw);
    rep.attempted += run.attempted;
    raw["user_bytes_written"] += static_cast<double>(run.bytes_written);
    rep.figures["virtual_s." + Key(protocol)] = sim::ToSeconds(run.makespan);
    if (!nfs) {
      continue;
    }
    // The tier's target configuration: what a user of the fleet sees.
    rep.figures["ops_per_virtual_s"] =
        Ratio(static_cast<double>(run.attempted), sim::ToSeconds(run.makespan));
    rep.figures["read_p50_ms"] = Ms(run.read_us, 50);
    rep.figures["read_p99_ms"] = Ms(run.read_us, 99);
    rep.figures["write_p50_ms"] = Ms(run.write_us, 50);
    rep.figures["write_p99_ms"] = Ms(run.write_us, 99);
    rep.figures["read_samples"] = static_cast<double>(run.read_us.count());
    rep.figures["write_samples"] = static_cast<double>(run.write_us.count());
    rep.figures["vfs.open_p50_ms"] = Ms(run.open_us, 50);
    rep.figures["vfs.pread_p50_ms"] = Ms(run.pread_us, 50);
    rep.figures["vfs.pwrite_p50_ms"] = Ms(run.pwrite_us, 50);
    rep.figures["vfs.close_p50_ms"] = Ms(run.close_us, 50);
    double max_ops = 0;
    double sum_ops = 0;
    for (size_t s = 0; s < t.servers.size(); ++s) {
      double ops =
          static_cast<double>(t.servers[s]->peer().server_ops().Total()) - shard_ops_before[s];
      max_ops = std::max(max_ops, ops);
      sum_ops += ops;
    }
    rep.figures["fleet.shard_skew"] =
        Ratio(max_ops, sum_ops / static_cast<double>(t.servers.size()));
  }
  DeriveLayerFigures(raw, rep.figures);
  return rep;
}

}  // namespace

RepResult RunRep(Workload workload, uint64_t seed, bool traced) {
  switch (workload) {
    case Workload::kAndrew:
      return RunAndrewRep(seed, traced);
    case Workload::kSort:
      return RunSortRep(seed, traced);
    case Workload::kFleet:
      return RunFleetRep(seed, traced);
  }
  return {};
}

}  // namespace perfbench
