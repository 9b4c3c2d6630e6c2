#include "src/fault/sweep.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/sim/simulator.h"
#include "src/snfs/server.h"
#include "src/snfs/state_table.h"
#include "src/testbed/fault_runner.h"
#include "src/trace/checker.h"
#include "src/trace/trace.h"
#include "src/vfs/vfs.h"

namespace fault {
namespace {

// The workload: each client writes and reads back its own files, one
// operation every kMeanOpGap on average, until kHorizon; kDrain leaves time
// for the final read-back. The invariants are checked every kCheckInterval.
constexpr int kNumClients = 2;
constexpr int kFilesPerClient = 3;
constexpr sim::Duration kHorizon = sim::Sec(90);
constexpr sim::Duration kDrain = sim::Sec(120);
constexpr sim::Duration kMeanOpGap = sim::Msec(200);
constexpr sim::Duration kCheckInterval = sim::Sec(1);

// The machines: SNFS crash recovery on, since the sweep exists to exercise
// the crash paths, and clients without a local disk.
constexpr testbed::ServerMachineParams kServer{.snfs = {.enable_recovery = true}};
constexpr testbed::ClientMachineParams kClient{.cache = {}, .with_local_disk = false};
constexpr snfs::SnfsClientParams kSnfsClient{.enable_recovery = true};

// Per-file ground truth. Files are single-writer (client i writes only its
// own files), so two counters pin down every legal read: any readable block
// must be a uniform fill with committed <= version <= written_max.
struct FileOracle {
  uint64_t written_max = 0;  // newest version any write attempted
  uint64_t committed = 0;    // newest version a successful Fsync covered
};

struct SeedRun {
  SeedStats stats;
  sim::Time last_reboot = -1;  // schedule's last kRebootServer, for latency
  std::vector<std::vector<FileOracle>> oracles;  // [client][file]
};

void Fail(SeedRun& run, std::string why) {
  if (run.stats.ok) {
    run.stats.ok = false;
    run.stats.failure = std::move(why);
  }
}

std::string FilePath(int client, int file) {
  return "/data/c" + std::to_string(client) + "_f" + std::to_string(file);
}

// `committed_before` must be captured before the read was issued: the
// writer can commit a newer version while the read is in flight, but the
// data the read observes is at least as new as that older commit point.
void VerifyBlock(SeedRun& run, const std::vector<uint8_t>& data, uint64_t committed_before,
                 const FileOracle& oracle, const std::string& path) {
  if (data.empty()) {
    if (committed_before > 0) {
      Fail(run, "committed file " + path + " read back empty");
    }
    return;  // created but never written: legal
  }
  uint8_t fill = data[0];
  for (uint8_t b : data) {
    if (b != fill) {
      Fail(run, "torn block in " + path + " (mixed fill bytes)");
      return;
    }
  }
  // Writers cap versions at 255, so the fill byte IS the version.
  uint64_t version = fill;
  uint64_t lo = std::max<uint64_t>(1, committed_before);
  if (version < lo || version > oracle.written_max) {
    Fail(run, "version " + std::to_string(version) + " of " + path + " outside [" +
                  std::to_string(lo) + ", " + std::to_string(oracle.written_max) + "]");
  }
}

sim::Task<void> ClientWorkload(sim::Simulator& simulator, SeedRun& run,
                               testbed::ClientMachine& machine, int index, uint64_t seed) {
  sim::Rng rng(seed * 1000 + static_cast<uint64_t>(index) + 1);
  // Oracles are sized once in RunFaultSeed and never resized, so references
  // into them stay valid across suspensions.
  std::vector<FileOracle>& files = run.oracles[index];  // lint: await-stale-ref-ok

  while (simulator.Now() < kHorizon) {
    co_await sim::Sleep(simulator,
                        rng.UniformInt(kMeanOpGap / 2, kMeanOpGap + kMeanOpGap / 2));
    if (!machine.started()) {
      continue;  // crashed: idle until the schedule restarts us
    }
    int f = static_cast<int>(rng.UniformInt(0, kFilesPerClient - 1));
    FileOracle& oracle = files[f];  // lint: await-stale-ref-ok (never resized)
    std::string path = FilePath(index, f);
    vfs::Vfs& vfs = machine.vfs();
    ++run.stats.ops_attempted;
    bool ok = false;
    // If the machine crashes while this op is in flight, the coroutine
    // still runs to completion against the reset client, but the process
    // that issued the op died with the kernel: whatever the op reports is
    // void. In particular an Fsync that "succeeds" against the freshly
    // dropped cache (nothing left dirty) must not count as a commit.
    int gen = machine.crash_generation();

    if (oracle.written_max < 255 && rng.Bernoulli(0.5)) {
      // Write the next version as a uniform one-block fill. No truncate on
      // open: a crash between create and write must not be confusable with
      // data loss.
      bool do_fsync = rng.Bernoulli(0.5);
      auto fd = co_await vfs.Open(path, vfs::OpenFlags{.write = true, .create = true});
      if (fd.ok()) {
        uint64_t version = oracle.written_max + 1;
        oracle.written_max = version;  // before any byte can land anywhere
        std::vector<uint8_t> block(cache::kBlockSize, static_cast<uint8_t>(version));
        auto wrote = co_await vfs.Pwrite(*fd, 0, block);
        bool committed = false;
        if (wrote.ok() && do_fsync) {
          auto synced = co_await vfs.Fsync(*fd);
          if (synced.ok() && machine.crash_generation() == gen) {
            oracle.committed = version;
            committed = true;
          }
        }
        auto closed = co_await vfs.Close(*fd);
        ok = wrote.ok() && closed.ok() && (!do_fsync || committed) &&
             machine.crash_generation() == gen;
      }
    } else {
      uint64_t committed_before = oracle.committed;
      auto fd = co_await vfs.Open(path, vfs::OpenFlags::ReadOnly());
      if (fd.ok()) {
        auto data = co_await vfs.Pread(*fd, 0, cache::kBlockSize);
        (void)co_await vfs.Close(*fd);
        if (data.ok() && machine.crash_generation() == gen) {
          ok = true;
          ++run.stats.reads_verified;
          VerifyBlock(run, *data, committed_before, oracle, path);
        }
      }
    }

    if (ok) {
      ++run.stats.ops_ok;
      if (run.last_reboot >= 0 && run.stats.recovery_latency < 0 &&
          simulator.Now() >= run.last_reboot) {
        run.stats.recovery_latency = simulator.Now() - run.last_reboot;
      }
    } else {
      ++run.stats.ops_failed;
    }
  }
}

void CheckDupBound(SeedRun& run, rpc::Peer& peer, const std::string& who) {
  size_t size = peer.dup_cache_size();
  size_t in_progress = peer.dup_cache_in_progress();
  if (size > rpc::kDupCacheEntries + in_progress) {
    Fail(run, who + " dup cache over bound: " + std::to_string(size) + " entries, cap " +
                  std::to_string(rpc::kDupCacheEntries) + " + " + std::to_string(in_progress) +
                  " in progress");
  }
}

sim::Task<void> InvariantChecker(
    sim::Simulator& simulator, SeedRun& run, testbed::ServerMachine& server,
    std::vector<std::unique_ptr<testbed::ClientMachine>>& clients) {
  while (simulator.Now() < kHorizon) {
    co_await sim::Sleep(simulator, kCheckInterval);
    ++run.stats.invariant_checks;
    CheckDupBound(run, server.peer(), "server");
    for (const auto& client : clients) {
      CheckDupBound(run, client->peer(), client->name());
    }
    if (server.peer().running() && server.snfs_server() != nullptr) {
      // CHECK-aborts on violation; runs after every callback round because
      // the tick interleaves with handler completions.
      server.snfs_server()->state_table().CheckInvariants();
    }
  }
}

// Strict end-of-run oracle: with the world quiesced and the server up,
// every file that ever committed a version must read back as a uniform
// fill in [committed, written_max].
sim::Task<void> FinalReadback(sim::Simulator& simulator, SeedRun& run,
                              testbed::ServerMachine& server, testbed::ClientMachine& machine,
                              int index) {
  if (!server.peer().running() || !machine.started()) {
    co_return;  // the schedule left this pair down; nothing to assert
  }
  for (int f = 0; f < kFilesPerClient; ++f) {
    FileOracle& oracle = run.oracles[index][f];  // lint: await-stale-ref-ok (never resized)
    if (oracle.committed == 0) {
      continue;
    }
    uint64_t committed_before = oracle.committed;
    std::string path = FilePath(index, f);
    auto data = co_await machine.vfs().ReadFile(path);
    if (!data.ok()) {
      Fail(run, "final read-back of committed file " + path + " failed");
      continue;
    }
    ++run.stats.reads_verified;
    VerifyBlock(run, *data, committed_before, oracle, path);
  }
}

}  // namespace

SeedStats RunFaultSeed(const SweepOptions& options, uint64_t seed) {
  SeedRun run;
  run.stats.seed = seed;
  run.oracles.assign(kNumClients, std::vector<FileOracle>(kFilesPerClient));
  for (const FaultEvent& ev : options.schedule.events) {
    if (ev.kind == FaultEventKind::kRebootServer) {
      run.last_reboot = std::max(run.last_reboot, ev.at);
    }
  }

  sim::Simulator simulator;
  net::NetworkParams net_params;
  if (options.plan.enabled()) {
    auto plan = std::make_shared<FaultPlan>(options.plan);
    plan->seed = seed;  // each sweep seed replays its own fault sequence
    net_params.faults = std::move(plan);
  }
  net::Network network(simulator, net_params, /*seed=*/11);

  // Install the recorder before any machine exists so span ids are assigned
  // identically on every replay of this (options, seed) pair.
  std::unique_ptr<trace::Recorder> recorder;
  if (options.trace_check) {
    recorder = std::make_unique<trace::Recorder>(simulator);
    trace::SetActive(recorder.get());
  }

  testbed::ServerMachine server(simulator, network, "server", options.protocol, kServer);
  std::vector<std::unique_ptr<testbed::ClientMachine>> clients;
  std::vector<testbed::ClientMachine*> client_ptrs;
  for (int i = 0; i < kNumClients; ++i) {
    clients.push_back(std::make_unique<testbed::ClientMachine>(
        simulator, network, "client" + std::to_string(i), kClient));
    client_ptrs.push_back(clients.back().get());
  }
  server.Start();
  for (auto& client : clients) {
    client->Start();
  }
  for (auto& client : clients) {
    switch (options.protocol) {
      case testbed::ServerProtocol::kNfs:
        client->MountNfs("/data", server.address(), server.root());
        break;
      case testbed::ServerProtocol::kSnfs:
        client->MountSnfs("/data", server.address(), server.root(), kSnfsClient);
        break;
      case testbed::ServerProtocol::kNqnfs:
        client->MountNqnfs("/data", server.address(), server.root());
        break;
    }
  }

  testbed::ApplyFaultSchedule(simulator, network, &server, client_ptrs, options.schedule);
  for (int i = 0; i < kNumClients; ++i) {
    simulator.Spawn(ClientWorkload(simulator, run, *clients[i], i, seed));
  }
  simulator.Spawn(InvariantChecker(simulator, run, server, clients));
  simulator.RunUntil(kHorizon);

  for (int i = 0; i < kNumClients; ++i) {
    simulator.Spawn(FinalReadback(simulator, run, server, *clients[i], i));
  }
  simulator.RunUntil(kHorizon + kDrain);

  if (recorder != nullptr) {
    trace::SetActive(nullptr);
    run.stats.trace_events = recorder->events().size();
    std::vector<trace::Violation> violations = trace::CheckTrace(recorder->events());
    run.stats.trace_violations = violations.size();
    if (!violations.empty()) {
      Fail(run, "trace checker: [" + violations.front().rule + "] " + violations.front().message);
    }
  }

  run.stats.retransmissions = server.peer().retransmissions();
  run.stats.duplicates_suppressed = server.peer().duplicates_suppressed();
  run.stats.stale_replies_dropped = server.peer().stale_replies_dropped();
  for (auto& client : clients) {
    run.stats.retransmissions += client->peer().retransmissions();
    run.stats.duplicates_suppressed += client->peer().duplicates_suppressed();
    run.stats.stale_replies_dropped += client->peer().stale_replies_dropped();
  }
  run.stats.packets_dropped = network.packets_dropped();
  run.stats.packets_duplicated = network.packets_duplicated();
  return std::move(run.stats);
}

SweepResult RunFaultSweep(const SweepOptions& options, uint64_t first_seed, int num_seeds) {
  SweepResult result;
  for (int i = 0; i < num_seeds; ++i) {
    result.seeds.push_back(RunFaultSeed(options, first_seed + static_cast<uint64_t>(i)));
  }
  return result;
}

}  // namespace fault
