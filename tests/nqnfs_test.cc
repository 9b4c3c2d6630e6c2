// NQNFS protocol tests: the lease lifecycle (grant, piggybacked extension,
// expiry), the write-lease eviction callback, an NFS client's write
// vacating an NQNFS cache, expiry interleaving with a write stream, the
// vacate-failure path (the server waits out the lease it cannot revoke),
// the post-reboot quiet window, callback routing between mounts of
// different servers, and a pinned checker-clean fault-sweep seed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/fault/sweep.h"
#include "src/trace/checker.h"
#include "src/trace/trace.h"
#include "tests/testbed_util.h"

namespace {

using testbed::ServerProtocol;
using testbed::TestBytes;
using testbed::TestPattern;
using testbed::TestStr;
using testbed::World;

nqnfs::NqnfsServer& Server(World& w) { return *w.server->nqnfs_server(); }

// --- grant / extend / expire lifecycle ---------------------------------------

TEST(NqnfsLeaseTest, LeaseIsGrantedUsedAndLapsesWhenIdle) {
  World w(ServerProtocol::kNqnfs, 1);
  nqnfs::NqnfsClient& a =
      w.client(0).MountNqnfs("/data", w.server->address(), w.server->root());
  bool done = false;
  w.simulator.Spawn([](World& w, nqnfs::NqnfsClient& a, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    EXPECT_TRUE((co_await v.WriteFile("/data/f", TestBytes("hello leases"))).ok());
    EXPECT_EQ(a.leases_acquired(), 1u);
    EXPECT_EQ(Server(w).leases_granted(), 1u);
    EXPECT_EQ(Server(w).active_leases(), 1u);

    // Cached reads inside the lease term need no server traffic at all.
    auto got = co_await v.ReadFile("/data/f");
    EXPECT_TRUE(got.ok() && TestStr(*got) == "hello leases");
    EXPECT_EQ(a.leases_acquired(), 1u);

    // Idle past the term (plus the early-flush extension the dirty data may
    // have bought): the lease lapses on both ends with no RPC exchanged.
    co_await sim::Sleep(w.simulator, sim::Sec(80));
    EXPECT_GE(a.lease_expiries(), 1u);
    EXPECT_GE(Server(w).lease_expiries(), 1u);
    EXPECT_EQ(Server(w).active_leases(), 0u);

    // The cached blocks survived expiry; the next access revalidates by
    // version (one new grant) and never refetches unchanged data.
    got = co_await v.ReadFile("/data/f");
    EXPECT_TRUE(got.ok() && TestStr(*got) == "hello leases");
    EXPECT_EQ(a.leases_acquired(), 2u);
    done = true;
  }(w, a, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NqnfsLeaseTest, PiggybackedExtensionsKeepOneLeaseAliveAcrossTerms) {
  World w(ServerProtocol::kNqnfs, 1);
  nqnfs::NqnfsClient& a =
      w.client(0).MountNqnfs("/data", w.server->address(), w.server->root());
  bool done = false;
  w.simulator.Spawn([](World& w, nqnfs::NqnfsClient& a, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    auto fd = co_await v.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    // Keep the file dirty for three full lease terms. The client never sends
    // a renewal RPC: the near-expiry flushes (and the sync daemon's own
    // write-backs) carry piggybacked extensions on their replies.
    for (int i = 0; i < 45; ++i) {
      EXPECT_TRUE((co_await v.Pwrite(*fd, 0, TestBytes("tick-" + std::to_string(i)))).ok());
      co_await sim::Sleep(w.simulator, sim::Sec(2));
    }
    EXPECT_TRUE((co_await v.Close(*fd)).ok());
    EXPECT_EQ(a.leases_acquired(), 1u) << "extension should never need a new grant";
    EXPECT_EQ(Server(w).leases_granted(), 1u);
    EXPECT_EQ(a.lease_expiries(), 0u);
    done = true;
  }(w, a, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

// --- write-lease eviction via the callback channel ---------------------------

TEST(NqnfsLeaseTest, ReaderVacatesWriteLeaseAndSeesDelayedWrites) {
  World w(ServerProtocol::kNqnfs, 2);
  nqnfs::NqnfsClient& a =
      w.client(0).MountNqnfs("/data", w.server->address(), w.server->root());
  w.client(1).MountNqnfs("/data", w.server->address(), w.server->root());
  bool done = false;
  w.simulator.Spawn([](World& w, nqnfs::NqnfsClient& a, bool& done) -> sim::Task<void> {
    vfs::Vfs& va = w.client(0).vfs();
    vfs::Vfs& vb = w.client(1).vfs();
    // A's write is delayed: it lives only in A's cache, under a write lease.
    EXPECT_TRUE((co_await va.WriteFile("/data/f", TestBytes("dirty-delayed"))).ok());
    EXPECT_EQ(Server(w).vacates_issued(), 0u);

    // B's first read forces the server to vacate A — write-back + invalidate
    // over the callback channel — before B's lease is granted.
    auto got = co_await vb.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "dirty-delayed");
    }
    EXPECT_GE(Server(w).vacates_issued(), 1u);
    EXPECT_GE(a.callbacks_served(), 1u);
    done = true;
  }(w, a, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

// An NFS client shares the export with an NQNFS client (the write half of
// §6.1's coexistence, which the lease server keeps): the NFS write-through
// is a leaseless foreign write, so the server vacates the NQNFS client's
// lease, and its next read through the still-open fd sees the new data.
TEST(NqnfsLeaseTest, NfsWriteVacatesNqnfsClientCache) {
  World w(ServerProtocol::kNqnfs, 2);
  nqnfs::NqnfsClient& q =
      w.client(0).MountNqnfs("/data", w.server->address(), w.server->root());
  w.client(1).MountNfs("/data", w.server->address(), w.server->root());
  bool done = false;
  w.simulator.Spawn([](World& w, nqnfs::NqnfsClient& q, bool& done) -> sim::Task<void> {
    vfs::Vfs& s = w.client(0).vfs();
    vfs::Vfs& n = w.client(1).vfs();
    // Full-block payloads: NFS delays partial-block writes client-side, so
    // only block-sized writes are guaranteed to reach the server promptly.
    std::vector<uint8_t> v1 = TestPattern(cache::kBlockSize, 1);
    std::vector<uint8_t> v2 = TestPattern(cache::kBlockSize, 2);
    EXPECT_TRUE((co_await s.WriteFile("/data/f", v1)).ok());
    auto fd = co_await s.Open("/data/f", vfs::OpenFlags::ReadOnly());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    (void)co_await s.Pread(*fd, 0, 8);  // served from the leased cache

    auto nfd = co_await n.Open("/data/f", vfs::OpenFlags::ReadWrite());
    EXPECT_TRUE(nfd.ok());
    if (!nfd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await n.Pwrite(*nfd, 0, v2)).ok());
    co_await sim::Sleep(w.simulator, sim::Sec(1));

    auto got = co_await s.Pread(*fd, 0, cache::kBlockSize);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, v2);
    }
    EXPECT_GE(q.callbacks_served(), 1u);
    EXPECT_GE(Server(w).vacates_issued(), 1u);
    EXPECT_TRUE((co_await n.Close(*nfd)).ok());
    EXPECT_TRUE((co_await s.Close(*fd)).ok());
    done = true;
  }(w, q, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

// --- expiry racing in-flight writes ------------------------------------------

TEST(NqnfsLeaseTest, ShortLeaseExpiryInterleavesWithWritesSafely) {
  // A write stream that the lease term cannot always cover: leases expire
  // mid-stream and the writes go on (each lapse ends with a fresh grant,
  // and a lapsed lease's dirty blocks go out as leaseless write-throughs,
  // which the server version-bumps), while the trace checker holds the
  // protocol to its invariants at every event.
  World w(ServerProtocol::kNqnfs, 2);
  trace::Recorder recorder(w.simulator);
  trace::SetActive(&recorder);
  nqnfs::NqnfsClient& a =
      w.client(0).MountNqnfs("/data", w.server->address(), w.server->root());
  w.client(1).MountNqnfs("/data", w.server->address(), w.server->root());
  bool done = false;
  w.simulator.Spawn([](World& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& va = w.client(0).vfs();
    auto fd = co_await va.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    std::vector<uint8_t> block(cache::kBlockSize, 0);
    for (int i = 1; i <= 30; ++i) {
      std::fill(block.begin(), block.end(), static_cast<uint8_t>(i));
      EXPECT_TRUE((co_await va.Pwrite(*fd, 0, block)).ok());
      // Mostly faster than the term (the flush-extension cycle carries the
      // lease), but every fourth gap outlasts it, forcing a real expiry with
      // more writes still to come. The early flush lands about 25 s into a
      // term and extends the lease by one more, so a 53 s gap ends close to
      // the lapse: twice in this run the write lands in the last scan
      // interval before it, and the lapse finds the block dirty.
      co_await sim::Sleep(w.simulator, i % 4 == 0 ? sim::Sec(53) : sim::Msec(700));
    }
    EXPECT_TRUE((co_await va.Close(*fd)).ok());
    co_await sim::Sleep(w.simulator, sim::Sec(10));

    // A fresh reader sees the final generation, whole and uniform.
    auto got = co_await w.client(1).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got->size(), size_t{cache::kBlockSize});
      for (uint8_t byte : *got) {
        EXPECT_EQ(byte, 30u);
        if (byte != 30u) {
          break;
        }
      }
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  trace::SetActive(nullptr);
  EXPECT_TRUE(done);
  // The point of the schedule: expiry really did interleave.
  EXPECT_GE(a.lease_expiries(), 2u);
  EXPECT_GE(a.leases_acquired(), 3u);
  std::vector<trace::Violation> violations = trace::CheckTrace(recorder);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations; first: [" << violations.front().rule << "] "
      << violations.front().message;
}

// --- vacate failure: wait out the lease --------------------------------------

TEST(NqnfsLeaseTest, UnreachableWriteHolderIsWaitedOutNotRevoked) {
  World w(ServerProtocol::kNqnfs, 2);
  w.client(0).MountNqnfs("/data", w.server->address(), w.server->root());
  w.client(1).MountNqnfs("/data", w.server->address(), w.server->root());
  bool done = false;
  w.simulator.Spawn([](World& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& va = w.client(0).vfs();
    std::vector<uint8_t> v1(cache::kBlockSize, 1);
    std::vector<uint8_t> v2(cache::kBlockSize, 2);
    auto fd = co_await va.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await va.Pwrite(*fd, 0, v1)).ok());
    EXPECT_TRUE((co_await va.Fsync(*fd)).ok());
    EXPECT_TRUE((co_await va.Pwrite(*fd, 0, v2)).ok());  // dirty, never flushed

    // A drops off the network with the write lease and dirty blocks. The
    // server cannot vacate it; the only promise it can keep is the lease
    // term itself, so B's grant waits until A's lease has provably lapsed.
    w.client(0).Crash(w.network);

    auto got = co_await w.client(1).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      // The dirty generation died with A; the committed one is intact.
      EXPECT_EQ(got->size(), size_t{cache::kBlockSize});
      for (uint8_t byte : *got) {
        EXPECT_EQ(byte, 1u);
        if (byte != 1u) {
          break;
        }
      }
    }
    co_await sim::Sleep(w.simulator, sim::Sec(60));
    EXPECT_GE(Server(w).vacates_failed(), 1u);
    // A's write lease is long gone — at most B's own (idle, lapsing) lease
    // may still be in the table.
    EXPECT_LE(Server(w).active_leases(), 1u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

// --- post-reboot quiet window -------------------------------------------------

TEST(NqnfsLeaseTest, QuietWindowDeniesGrantsButServesDataImmediately) {
  World w(ServerProtocol::kNqnfs, 1);
  nqnfs::NqnfsClient& a =
      w.client(0).MountNqnfs("/data", w.server->address(), w.server->root());
  bool done = false;
  w.simulator.Spawn([](World& w, nqnfs::NqnfsClient& a, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    EXPECT_TRUE((co_await v.WriteFile("/data/f", TestBytes("survives reboot"))).ok());
    EXPECT_TRUE((co_await v.ReadFile("/data/f")).ok());
    uint64_t grants_before = a.leases_acquired();

    // Let the lease lapse on both ends, then crash and reboot the server.
    co_await sim::Sleep(w.simulator, sim::Sec(80));
    w.server->Crash(w.network);
    co_await sim::Sleep(w.simulator, sim::Sec(2));
    w.server->Reboot(w.network);
    co_await sim::Sleep(w.simulator, sim::Sec(3));

    // Inside the quiet window: no lease — but the data is served right away,
    // read-through. There is no reopen phase and no grace period for data.
    EXPECT_TRUE(Server(w).in_quiet_window());
    auto got = co_await v.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "survives reboot");
    }
    EXPECT_GE(a.grants_denied_seen(), 1u);
    EXPECT_GE(Server(w).grants_denied(), 1u);
    EXPECT_EQ(a.leases_acquired(), grants_before);

    // After the window closes, caching resumes with a fresh grant.
    co_await sim::Sleep(w.simulator, sim::Sec(35));
    EXPECT_FALSE(Server(w).in_quiet_window());
    got = co_await v.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "survives reboot");
    }
    EXPECT_GT(a.leases_acquired(), grants_before);
    done = true;
  }(w, a, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

// --- callback routing ----------------------------------------------------------

// Every server numbers its files from the same start, so the first file on
// an SNFS server and the first on an NQNFS server have equal handles. Client
// A mounts both; a vacate from the NQNFS server must reach A's NQNFS mount
// (which then writes its delayed data back), not the SNFS mount that
// tracks an equal handle.
TEST(CallbackRoutingTest, VacateReachesTheMountOfTheServerThatSentIt) {
  sim::Simulator simulator;
  net::Network network(simulator, {}, /*seed=*/7);
  testbed::ServerMachine snfs_server(simulator, network, "snfs-server", ServerProtocol::kSnfs);
  testbed::ServerMachine nqnfs_server(simulator, network, "nqnfs-server",
                                      ServerProtocol::kNqnfs);
  testbed::ClientMachine a(simulator, network, "a");
  testbed::ClientMachine b(simulator, network, "b");
  snfs::SnfsClient& a_snfs = a.MountSnfs("/s", snfs_server.address(), snfs_server.root());
  nqnfs::NqnfsClient& a_nqnfs = a.MountNqnfs("/q", nqnfs_server.address(), nqnfs_server.root());
  b.MountNqnfs("/q", nqnfs_server.address(), nqnfs_server.root());
  snfs_server.Start();
  nqnfs_server.Start();
  a.Start();
  b.Start();
  bool done = false;
  simulator.Spawn([](testbed::ClientMachine& a, testbed::ClientMachine& b,
                     snfs::SnfsClient& a_snfs, nqnfs::NqnfsClient& a_nqnfs,
                     bool& done) -> sim::Task<void> {
    EXPECT_TRUE((co_await a.vfs().WriteFile("/s/f", TestBytes("snfs-data"))).ok());
    EXPECT_TRUE((co_await a.vfs().WriteFile("/q/f", TestBytes("nqnfs-data"))).ok());
    auto s_attr = co_await a.vfs().Stat("/s/f");
    auto q_attr = co_await a.vfs().Stat("/q/f");
    EXPECT_TRUE(s_attr.ok() && q_attr.ok());
    if (!s_attr.ok() || !q_attr.ok()) {
      co_return;
    }
    EXPECT_EQ(s_attr->fileid, q_attr->fileid);  // the collision under test

    auto got = co_await b.vfs().ReadFile("/q/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "nqnfs-data");
    }
    EXPECT_EQ(a_snfs.callbacks_served(), 0u);
    EXPECT_GE(a_nqnfs.callbacks_served(), 1u);
    done = true;
  }(a, b, a_snfs, a_nqnfs, done));
  simulator.Run();
  EXPECT_TRUE(done);
}

// --- pinned fault-sweep seed ---------------------------------------------------

TEST(NqnfsSweepTest, GoldenFaultSeedPassesCheckerUnderLossAndCrash) {
  fault::SweepOptions options;
  options.protocol = testbed::ServerProtocol::kNqnfs;
  options.trace_check = true;
  options.plan.loss = 0.05;
  options.plan.duplicate = 0.02;
  options.schedule.CrashServerAt(sim::Sec(20)).RebootServerAt(sim::Sec(26));
  fault::SeedStats stats = fault::RunFaultSeed(options, /*seed=*/3);
  EXPECT_TRUE(stats.ok) << stats.failure;
  EXPECT_GT(stats.trace_events, 1000u);
  EXPECT_EQ(stats.trace_violations, 0u);
  EXPECT_GT(stats.reads_verified, 0u);
  // Lease expiry is the recovery protocol: work resumes after the reboot.
  EXPECT_GE(stats.recovery_latency, 0);

  // Same (options, seed) pair replays the identical trace.
  fault::SeedStats again = fault::RunFaultSeed(options, /*seed=*/3);
  EXPECT_EQ(again.trace_events, stats.trace_events);
}

}  // namespace
