// Crash-recovery tests (§2.4): server reboot detection via keepalive
// epochs, state-table reconstruction from client reopens, the recovery
// grace period, and client-crash handling.
#include <gtest/gtest.h>

#include <memory>

#include "src/fault/plan.h"
#include "src/snfs/client.h"
#include "src/snfs/server.h"
#include "tests/testbed_util.h"

namespace snfs {
namespace {

using testbed::ServerMachineParams;
using testbed::ServerProtocol;
using testbed::TestBytes;
using testbed::TestPattern;
using testbed::TestStr;
using testbed::World;

struct RecoveryWorld : World {
  SnfsClient* fsa = nullptr;
  SnfsClient* fsb = nullptr;

  explicit RecoveryWorld(net::NetworkParams net_params = {})
      : World(ServerProtocol::kSnfs, 2, ServerParams(), {}, net_params) {
    SnfsClientParams cp;
    cp.enable_recovery = true;
    fsa = &client(0).MountSnfs("/data", server->address(), server->root(), cp);
    fsb = &client(1).MountSnfs("/data", server->address(), server->root(), cp);
  }

  static ServerMachineParams ServerParams() {
    ServerMachineParams sp;
    sp.snfs.enable_recovery = true;
    return sp;
  }

  StateTable& table() { return server->snfs_server()->state_table(); }
};

TEST(RecoveryTest, ServerRebootIsDetectedAndStateRebuilt) {
  RecoveryWorld w;
  bool done = false;
  w.simulator.Spawn([](RecoveryWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    // A holds the file open for write with dirty data.
    auto fd = co_await a.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await a.Write(*fd, TestPattern(2 * cache::kBlockSize))).ok());

    proto::FileHandle fh{w.server->fs().fsid(), 2, 0};
    EXPECT_NE(w.table().Lookup(fh), nullptr);

    // Crash: the state table is wiped.
    w.server->Crash(w.network);
    co_await sim::Sleep(w.simulator, sim::Sec(3));
    EXPECT_EQ(w.table().Lookup(fh), nullptr);
    w.server->Reboot(w.network);
    EXPECT_TRUE(w.server->snfs_server()->in_recovery());

    // Within a couple of keepalive intervals, A detects the epoch change
    // and reopens; the entry reappears with the right state.
    co_await sim::Sleep(w.simulator, sim::Sec(25));
    EXPECT_GE(w.fsa->recoveries_run(), 1u);
    const StateTable::Entry* entry = w.table().Lookup(fh);
    EXPECT_NE(entry, nullptr);
    if (entry != nullptr) {
      EXPECT_EQ(entry->state(), FileState::kOneWriter);
    }

    // Normal operation continues: the write-back still lands.
    EXPECT_TRUE((co_await a.Fsync(*fd)).ok());
    EXPECT_TRUE((co_await a.Close(*fd)).ok());
    auto got = co_await w.client(1).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got->size(), 2 * cache::kBlockSize);
    }
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(300));
  EXPECT_TRUE(done);
}

TEST(RecoveryTest, OpensDuringGracePeriodAreRetriedUntilAccepted) {
  RecoveryWorld w;
  bool done = false;
  w.simulator.Spawn([](RecoveryWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    EXPECT_TRUE((co_await a.WriteFile("/data/f", TestBytes("pre-crash"))).ok());
    // Flush so nothing depends on A's cache surviving.
    w.server->Crash(w.network);
    co_await sim::Sleep(w.simulator, sim::Sec(1));
    w.server->Reboot(w.network);
    EXPECT_TRUE(w.server->snfs_server()->in_recovery());

    // This open hits the grace period; the client retries until it clears.
    sim::Time start = w.simulator.Now();
    auto got = co_await a.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "pre-crash");
    }
    EXPECT_GE(w.simulator.Now() - start, kRecoveryGrace);  // had to wait out grace
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(300));
  EXPECT_TRUE(done);
}

TEST(RecoveryTest, DirtyDataSurvivesServerRebootViaRecovery) {
  RecoveryWorld w;
  bool done = false;
  w.simulator.Spawn([](RecoveryWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    auto payload = TestPattern(3 * cache::kBlockSize, 42);
    // Write + close: data exists only in A's cache (CLOSED_DIRTY).
    EXPECT_TRUE((co_await a.WriteFile("/data/f", payload)).ok());
    EXPECT_EQ(w.client(0).peer().client_ops().Get(proto::OpKind::kWrite), 0u);

    w.server->Crash(w.network);
    co_await sim::Sleep(w.simulator, sim::Sec(2));
    w.server->Reboot(w.network);
    // Recovery reasserts CLOSED_DIRTY (reopen with has_dirty).
    co_await sim::Sleep(w.simulator, sim::Sec(30));
    proto::FileHandle fh{w.server->fs().fsid(), 2, 0};
    const StateTable::Entry* entry = w.table().Lookup(fh);
    EXPECT_NE(entry, nullptr);
    if (entry != nullptr) {
      EXPECT_EQ(entry->state(), FileState::kClosedDirty);
    }

    // B opens: callback retrieves the dirty blocks; B sees the data that
    // never reached the server before the crash.
    auto got = co_await w.client(1).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, payload);
    }
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(300));
  EXPECT_TRUE(done);
}

TEST(RecoveryTest, ClientCrashLosesDirtyDataButServerRecovers) {
  RecoveryWorld w;
  bool done = false;
  w.simulator.Spawn([](RecoveryWorld& w, bool& done) -> sim::Task<void> {
    EXPECT_TRUE(
        (co_await w.client(0).vfs().WriteFile("/data/f", TestPattern(cache::kBlockSize))).ok());
    w.client(0).Crash(w.network);
    // B's open triggers a callback that times out; the open is honored with
    // the inconsistency flag, and the dead client's entry is purged.
    auto got = co_await w.client(1).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    EXPECT_GE(w.fsb->inconsistent_opens(), 1u);
    proto::FileHandle fh{w.server->fs().fsid(), 2, 0};
    const StateTable::Entry* entry = w.table().Lookup(fh);
    EXPECT_NE(entry, nullptr);
    if (entry != nullptr) {
      EXPECT_TRUE(entry->inconsistent);
    }
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(600));
  EXPECT_TRUE(done);
}

TEST(RecoveryTest, RebootRecoveryCompletesOnLossyReorderingNetwork) {
  // The full reboot-detection + reopen flow of ServerRebootIsDetectedAnd-
  // StateRebuilt, but with a seeded fault plan losing, duplicating, and
  // reordering packets throughout. Retransmission + the duplicate cache
  // must carry the recovery protocol (keepalives, reopens, write-backs)
  // through unchanged.
  net::NetworkParams net_params;
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = 31;
  plan->loss = 0.05;
  plan->duplicate = 0.05;
  plan->reorder_jitter = sim::Msec(2);
  net_params.faults = plan;
  RecoveryWorld w(net_params);

  bool done = false;
  w.simulator.Spawn([](RecoveryWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    auto fd = co_await a.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await a.Write(*fd, TestPattern(2 * cache::kBlockSize))).ok());

    w.server->Crash(w.network);
    co_await sim::Sleep(w.simulator, sim::Sec(3));
    w.server->Reboot(w.network);

    // Reboot detection + reopen happen under loss; allow extra slack for
    // retransmission backoff.
    co_await sim::Sleep(w.simulator, sim::Sec(40));
    EXPECT_GE(w.fsa->recoveries_run(), 1u);
    proto::FileHandle fh{w.server->fs().fsid(), 2, 0};
    const StateTable::Entry* entry = w.table().Lookup(fh);
    EXPECT_NE(entry, nullptr);
    if (entry != nullptr) {
      EXPECT_EQ(entry->state(), FileState::kOneWriter);
    }

    EXPECT_TRUE((co_await a.Fsync(*fd)).ok());
    EXPECT_TRUE((co_await a.Close(*fd)).ok());
    auto got = co_await w.client(1).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, TestPattern(2 * cache::kBlockSize));
    }
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(600));
  EXPECT_TRUE(done);
  // The fault plan actually bit.
  EXPECT_GT(w.network.packets_dropped(), 0u);
  EXPECT_GT(w.network.packets_duplicated(), 0u);
}

TEST(RecoveryTest, WriteSharedStateIsRebuiltFromMultipleClients) {
  RecoveryWorld w;
  bool done = false;
  w.simulator.Spawn([](RecoveryWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    vfs::Vfs& b = w.client(1).vfs();
    EXPECT_TRUE((co_await a.WriteFile("/data/f", TestBytes("seed"))).ok());
    auto afd = co_await a.Open("/data/f", vfs::OpenFlags::ReadWrite());
    auto bfd = co_await b.Open("/data/f", vfs::OpenFlags::ReadOnly());
    EXPECT_TRUE(afd.ok() && bfd.ok());
    if (!afd.ok() || !bfd.ok()) {
      co_return;
    }
    proto::FileHandle fh{w.server->fs().fsid(), 2, 0};
    {
      const StateTable::Entry* entry = w.table().Lookup(fh);
      EXPECT_TRUE(entry != nullptr && entry->state() == FileState::kWriteShared);
    }
    w.server->Crash(w.network);
    co_await sim::Sleep(w.simulator, sim::Sec(2));
    w.server->Reboot(w.network);
    co_await sim::Sleep(w.simulator, sim::Sec(40));
    {
      const StateTable::Entry* entry = w.table().Lookup(fh);
      EXPECT_NE(entry, nullptr);
      if (entry != nullptr) {
        EXPECT_EQ(entry->state(), FileState::kWriteShared);
        EXPECT_EQ(entry->clients.size(), 2u);
      }
    }
    // And the no-caching discipline still holds after recovery.
    EXPECT_TRUE((co_await a.Pwrite(*afd, 0, TestBytes("post"))).ok());
    auto got = co_await b.Pread(*bfd, 0, 4);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "post");
    }
    EXPECT_TRUE((co_await a.Close(*afd)).ok());
    EXPECT_TRUE((co_await b.Close(*bfd)).ok());
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(600));
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace snfs
