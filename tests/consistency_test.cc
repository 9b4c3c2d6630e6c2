// Protocol conformance suite: the same sharing scenarios run against all
// three server protocols (NFS, SNFS, NQNFS), with per-protocol expectations
// from the papers:
//
//  sequential sharing   write, close, then read elsewhere — consistent on
//                       all three (NFS probes attributes on every open;
//                       SNFS calls back the writer; NQNFS vacates leases);
//  concurrent write     reads during another client's write-open — NFS
//                       serves stale data inside its probe window, SNFS and
//                       NQNFS never do;
//  write-sharing        the *mechanism* behind the previous row: SNFS
//                       disables caching via callbacks, NQNFS ping-pongs
//                       leases via vacates, NFS has no mechanism at all;
//  crash during dirty   a server crash while a client holds dirty delayed
//                       writes — afterwards every reader sees exactly the
//                       old or the new version, never a mix.
//
// Plus the original property test: random multi-client workloads against an
// in-memory oracle, serialized by a (simulated) global lock, mirroring the
// paper's proviso that consistency holds "provided that some other
// mechanism (such as file locking) serializes the reads and writes".
// SNFS and NQNFS must match the oracle on every seed; NFS may go stale.
// Last, a host-side check: a read round trip on each protocol allocates
// every coroutine frame from the frame pool.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/sim/frame_pool.h"
#include "src/sim/random.h"
#include "src/sim/sync.h"
#include "src/trace/checker.h"
#include "src/trace/trace.h"
#include "tests/testbed_util.h"

namespace {

// Records the whole run and, on Check(), asserts the causal-trace checker
// agrees with the data oracle: no stale reads, no expired-lease reads, no
// concurrent dirty files, no double-executed non-idempotent RPCs.
class ScopedTraceCheck {
 public:
  explicit ScopedTraceCheck(sim::Simulator& simulator) : recorder_(simulator) {
    trace::SetActive(&recorder_);
  }
  ~ScopedTraceCheck() { trace::SetActive(nullptr); }

  void Check() {
    trace::SetActive(nullptr);
    EXPECT_GT(recorder_.events().size(), 0u);
    std::vector<trace::Violation> violations = trace::CheckTrace(recorder_);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " trace violations; first: [" << violations.front().rule << "] "
        << violations.front().message;
  }

 private:
  trace::Recorder recorder_;
};

using testbed::ClientMachineParams;
using testbed::MountData;
using testbed::ProtocolLabel;
using testbed::ServerProtocol;
using testbed::World;

// --- scenario 1: sequential (close-to-open) sharing --------------------------

sim::Task<void> SequentialSharingScenario(World& w, bool* finished) {
  vfs::Vfs& a = w.client(0).vfs();
  vfs::Vfs& b = w.client(1).vfs();

  EXPECT_TRUE((co_await a.WriteFile("/data/f", testbed::TestBytes("version-one"))).ok());
  co_await sim::Sleep(w.simulator, sim::Sec(10));
  auto got = co_await b.ReadFile("/data/f");
  EXPECT_TRUE(got.ok());
  if (!got.ok()) {
    co_return;
  }
  EXPECT_EQ(testbed::TestStr(*got), "version-one");

  EXPECT_TRUE((co_await a.WriteFile("/data/f", testbed::TestBytes("version-two"))).ok());
  co_await sim::Sleep(w.simulator, sim::Sec(10));
  got = co_await b.ReadFile("/data/f");
  EXPECT_TRUE(got.ok());
  if (!got.ok()) {
    co_return;
  }
  EXPECT_EQ(testbed::TestStr(*got), "version-two");
  *finished = true;
}

// --- scenario 2/3: concurrent write-sharing ----------------------------------

// Reads *during* the writer's open: SNFS must stay consistent (non-cachable
// mode), NQNFS must stay consistent (lease ping-pong), NFS serves stale
// data within its probe window — all three behaviours asserted explicitly.
sim::Task<void> WriteSharingProbe(World& w, bool expect_consistent, int* stale_reads,
                                  bool* finished) {
  vfs::Vfs& a = w.client(0).vfs();
  vfs::Vfs& b = w.client(1).vfs();
  EXPECT_TRUE((co_await a.WriteFile("/data/f", testbed::TestBytes("gen-000"))).ok());

  auto bfd = co_await b.Open("/data/f", vfs::OpenFlags::ReadOnly());
  EXPECT_TRUE(bfd.ok());
  if (!bfd.ok()) {
    co_return;
  }
  (void)co_await b.Pread(*bfd, 0, 16);  // warm B's cache

  auto afd = co_await a.Open("/data/f", vfs::OpenFlags::ReadWrite());
  EXPECT_TRUE(afd.ok());
  if (!afd.ok()) {
    co_return;
  }
  for (int gen = 1; gen <= 5; ++gen) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "gen-%03d", gen);
    EXPECT_TRUE((co_await a.Pwrite(*afd, 0, testbed::TestBytes(buf))).ok());
    auto got = co_await b.Pread(*bfd, 0, 7);
    EXPECT_TRUE(got.ok());
    if (got.ok() && testbed::TestStr(*got) != buf) {
      ++*stale_reads;
    }
    co_await sim::Sleep(w.simulator, sim::Msec(200));
  }
  EXPECT_TRUE((co_await a.Close(*afd)).ok());
  EXPECT_TRUE((co_await b.Close(*bfd)).ok());
  if (expect_consistent) {
    EXPECT_EQ(*stale_reads, 0);
  } else {
    EXPECT_GT(*stale_reads, 0);  // NFS within the probe window is stale
  }
  *finished = true;
}

// --- scenario 4: server crash while delayed writes are dirty -----------------

sim::Task<void> CrashDuringDirtyScenario(World& w, bool* finished) {
  vfs::Vfs& a = w.client(0).vfs();
  std::vector<uint8_t> v1(cache::kBlockSize, 1);
  std::vector<uint8_t> v2(cache::kBlockSize, 2);

  // Commit version 1, then leave version 2 dirty in the cache (delayed on
  // SNFS/NQNFS; NFS drains it at close).
  auto fd = co_await a.Open("/data/f", vfs::OpenFlags::WriteCreate());
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) {
    co_return;
  }
  EXPECT_TRUE((co_await a.Pwrite(*fd, 0, v1)).ok());
  EXPECT_TRUE((co_await a.Fsync(*fd)).ok());
  EXPECT_TRUE((co_await a.Pwrite(*fd, 0, v2)).ok());
  EXPECT_TRUE((co_await a.Close(*fd)).ok());

  w.server->Crash(w.network);
  co_await sim::Sleep(w.simulator, sim::Sec(2));
  w.server->Reboot(w.network);
  co_await sim::Sleep(w.simulator, sim::Sec(8));

  // The writer itself: its own cache (or the server) must hold v1 or v2,
  // uniformly — never a torn mix.
  auto got = co_await a.ReadFile("/data/f");
  EXPECT_TRUE(got.ok());
  if (!got.ok()) {
    co_return;
  }
  EXPECT_EQ(got->size(), v1.size());
  if (got->size() != v1.size()) {
    co_return;
  }
  uint8_t fill = (*got)[0];
  EXPECT_TRUE(fill == 1 || fill == 2) << "unexpected fill byte " << int(fill);
  for (uint8_t byte : *got) {
    EXPECT_EQ(byte, fill) << "torn block after crash";
    if (byte != fill) {
      co_return;
    }
  }

  // A fresh reader, well after any lease/quiet window has passed: same rule.
  co_await sim::Sleep(w.simulator, sim::Sec(40));
  auto fresh = co_await w.client(1).vfs().ReadFile("/data/f");
  EXPECT_TRUE(fresh.ok());
  if (!fresh.ok()) {
    co_return;
  }
  EXPECT_EQ(fresh->size(), v1.size());
  if (fresh->size() != v1.size()) {
    co_return;
  }
  uint8_t fresh_fill = (*fresh)[0];
  EXPECT_TRUE(fresh_fill == 1 || fresh_fill == 2);
  for (uint8_t byte : *fresh) {
    EXPECT_EQ(byte, fresh_fill) << "torn block read by fresh client";
    if (byte != fresh_fill) {
      co_return;
    }
  }
  *finished = true;
}

class ProtocolConformance : public ::testing::TestWithParam<ServerProtocol> {};

TEST_P(ProtocolConformance, SequentialSharingIsConsistent) {
  World w(GetParam(), 2);
  ScopedTraceCheck trace_check(w.simulator);
  MountData(w, 0, GetParam());
  MountData(w, 1, GetParam());
  bool finished = false;
  w.simulator.Spawn(SequentialSharingScenario(w, &finished));
  w.simulator.Run();
  EXPECT_TRUE(finished);
  trace_check.Check();
}

TEST_P(ProtocolConformance, ConcurrentWriteSharingMatchesContract) {
  World w(GetParam(), 2);
  ScopedTraceCheck trace_check(w.simulator);
  MountData(w, 0, GetParam());
  MountData(w, 1, GetParam());
  int stale = 0;
  bool finished = false;
  bool expect_consistent = GetParam() != ServerProtocol::kNfs;
  w.simulator.Spawn(WriteSharingProbe(w, expect_consistent, &stale, &finished));
  w.simulator.Run();
  EXPECT_TRUE(finished);
  trace_check.Check();
}

TEST_P(ProtocolConformance, WriteSharingMechanismEngages) {
  if (GetParam() == ServerProtocol::kNfs) {
    GTEST_SKIP() << "NFS has no write-sharing mechanism (that is scenario 2's point)";
  }
  World w(GetParam(), 2);
  snfs::SnfsClient* snfs_b = nullptr;
  nqnfs::NqnfsClient* nqnfs_b = nullptr;
  if (GetParam() == ServerProtocol::kSnfs) {
    w.client(0).MountSnfs("/data", w.server->address(), w.server->root());
    snfs_b = &w.client(1).MountSnfs("/data", w.server->address(), w.server->root());
  } else {
    w.client(0).MountNqnfs("/data", w.server->address(), w.server->root());
    nqnfs_b = &w.client(1).MountNqnfs("/data", w.server->address(), w.server->root());
  }
  int stale = 0;
  bool finished = false;
  w.simulator.Spawn(WriteSharingProbe(w, /*expect_consistent=*/true, &stale, &finished));
  w.simulator.Run();
  EXPECT_TRUE(finished);
  if (snfs_b != nullptr) {
    // The server revoked B's cached copy to disable caching on the file.
    EXPECT_GE(snfs_b->callbacks_served(), 1u);
  }
  if (nqnfs_b != nullptr) {
    // No cache-disable mode: every writer/reader switch is a vacate.
    EXPECT_GE(nqnfs_b->callbacks_served(), 1u);
    ASSERT_NE(w.server->nqnfs_server(), nullptr);
    EXPECT_GE(w.server->nqnfs_server()->vacates_issued(), 2u);
  }
}

TEST_P(ProtocolConformance, CrashDuringDirtyNeverTearsData) {
  World w(GetParam(), 2);
  ScopedTraceCheck trace_check(w.simulator);
  MountData(w, 0, GetParam());
  MountData(w, 1, GetParam());
  bool finished = false;
  w.simulator.Spawn(CrashDuringDirtyScenario(w, &finished));
  w.simulator.Run();
  EXPECT_TRUE(finished);
  trace_check.Check();
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolConformance,
                         ::testing::Values(ServerProtocol::kNfs, ServerProtocol::kSnfs,
                                           ServerProtocol::kNqnfs),
                         [](const ::testing::TestParamInfo<ServerProtocol>& info) {
                           return ProtocolLabel(info.param);
                         });

// --- random-oracle sweep ------------------------------------------------------

constexpr int kNumFiles = 4;
constexpr int kOpsPerClient = 60;

struct Oracle {
  std::map<std::string, std::vector<uint8_t>> files;
};

// One client's random workload: serialized open-write-close / open-read-
// verify-close bursts under a global lock.
sim::Task<void> RandomActor(World& w, int client_id, Oracle& oracle, sim::Mutex& lock,
                            uint64_t seed, int* mismatches, int* reads_checked,
                            sim::WaitGroup& wg) {
  sim::Rng rng(seed);
  vfs::Vfs& v = w.client(client_id).vfs();
  for (int op = 0; op < kOpsPerClient; ++op) {
    std::string path = "/data/f" + std::to_string(rng.UniformInt(0, kNumFiles - 1));
    bool do_write = rng.Bernoulli(0.45);
    co_await lock.Acquire();
    if (do_write) {
      size_t len = static_cast<size_t>(rng.UniformInt(1, 3 * 4096));
      std::vector<uint8_t> data(len);
      for (size_t i = 0; i < len; ++i) {
        data[i] = static_cast<uint8_t>(rng.Next());
      }
      auto st = co_await v.WriteFile(path, data);
      EXPECT_TRUE(st.ok());
      oracle.files[path] = std::move(data);
    } else {
      auto got = co_await v.ReadFile(path);
      auto it = oracle.files.find(path);
      if (it == oracle.files.end()) {
        EXPECT_FALSE(got.ok());
      } else {
        EXPECT_TRUE(got.ok());
        if (got.ok()) {
          ++*reads_checked;
          if (*got != it->second) {
            ++*mismatches;
          }
        }
      }
    }
    lock.Release();
    co_await sim::Sleep(w.simulator, sim::Msec(rng.UniformInt(0, 500)));
  }
  wg.Done();
}

struct ConsistencyParam {
  ServerProtocol protocol;
  uint64_t seed;
};

class ConsistencySweep : public ::testing::TestWithParam<ConsistencyParam> {};

TEST_P(ConsistencySweep, LockSerializedAccessesMatchOracle) {
  const ConsistencyParam param = GetParam();
  World w(param.protocol, /*num_clients=*/3);
  ScopedTraceCheck trace_check(w.simulator);
  for (int c = 0; c < 3; ++c) {
    MountData(w, c, param.protocol);
  }
  Oracle oracle;
  sim::Mutex lock(w.simulator);
  sim::WaitGroup wg(w.simulator);
  int mismatches = 0;
  int reads_checked = 0;
  for (int c = 0; c < 3; ++c) {
    wg.Add();
    w.simulator.Spawn(RandomActor(w, c, oracle, lock, param.seed * 97 + c, &mismatches,
                                  &reads_checked, wg));
  }
  w.simulator.Run();
  EXPECT_EQ(wg.count(), 0);
  EXPECT_GT(reads_checked, 20);
  if (param.protocol != ServerProtocol::kNfs) {
    // The guarantee: no stale reads, ever — SNFS via opens and callbacks,
    // NQNFS via leases and vacates.
    EXPECT_EQ(mismatches, 0) << ProtocolLabel(param.protocol) << " served stale data (seed "
                             << param.seed << ")";
  }
  // For NFS we only record; staleness is legal there. (Close-to-open plus
  // sequential sharing makes many seeds clean, which is fine.)

  // The trace checker judges every protocol: the SNFS/NQNFS invariants only
  // fire on their own events, and retransmit-once must hold for NFS too.
  trace_check.Check();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConsistencySweep,
    ::testing::Values(ConsistencyParam{ServerProtocol::kSnfs, 1},
                      ConsistencyParam{ServerProtocol::kSnfs, 2},
                      ConsistencyParam{ServerProtocol::kSnfs, 3},
                      ConsistencyParam{ServerProtocol::kSnfs, 4},
                      ConsistencyParam{ServerProtocol::kSnfs, 5},
                      ConsistencyParam{ServerProtocol::kSnfs, 6},
                      ConsistencyParam{ServerProtocol::kNfs, 1},
                      ConsistencyParam{ServerProtocol::kNfs, 2},
                      ConsistencyParam{ServerProtocol::kNfs, 3},
                      ConsistencyParam{ServerProtocol::kNqnfs, 1},
                      ConsistencyParam{ServerProtocol::kNqnfs, 2},
                      ConsistencyParam{ServerProtocol::kNqnfs, 3},
                      ConsistencyParam{ServerProtocol::kNqnfs, 4},
                      ConsistencyParam{ServerProtocol::kNqnfs, 5},
                      ConsistencyParam{ServerProtocol::kNqnfs, 6}),
    [](const ::testing::TestParamInfo<ConsistencyParam>& info) {
      return ProtocolLabel(info.param.protocol) + "Seed" + std::to_string(info.param.seed);
    });

// Every coroutine frame of a read round trip — client stubs, the RPC
// layer, the server handlers, SNFS callbacks — comes from the frame pool:
// none is large enough to fall through to plain new.
TEST(FramePoolTest, ReadRoundTripsAllocateNoUnpooledFrames) {
  for (ServerProtocol protocol :
       {ServerProtocol::kNfs, ServerProtocol::kSnfs, ServerProtocol::kNqnfs}) {
    SCOPED_TRACE(ProtocolLabel(protocol));
    uint64_t before = sim::framepool::UnpooledAllocs();
    {
      World w(protocol, 2);
      MountData(w, 0, protocol);
      MountData(w, 1, protocol);
      bool done = false;
      w.simulator.Spawn([](World& w, bool& done) -> sim::Task<void> {
        auto payload = testbed::TestPattern(2 * cache::kBlockSize);
        EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", payload)).ok());
        // Client 1's cache is cold: its read reaches the server handler.
        auto got = co_await w.client(1).vfs().ReadFile("/data/f");
        EXPECT_TRUE(got.ok());
        if (got.ok()) {
          EXPECT_EQ(*got, payload);
        }
        done = true;
      }(w, done));
      w.simulator.Run();
      EXPECT_TRUE(done);
    }
    EXPECT_EQ(sim::framepool::UnpooledAllocs() - before, 0u);
  }
}

}  // namespace
