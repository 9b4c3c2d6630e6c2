// End-to-end SNFS tests: delayed write-back, version-validated caching,
// callbacks on every sharing pattern, write cancellation on delete,
// non-cachable write-shared mode, delayed close, and state-table pressure.
#include <gtest/gtest.h>

#include "src/snfs/client.h"
#include "src/snfs/server.h"
#include "tests/testbed_util.h"

namespace snfs {
namespace {

using testbed::ClientMachineParams;
using testbed::ServerMachineParams;
using testbed::ServerProtocol;
using testbed::TestBytes;
using testbed::TestPattern;
using testbed::TestStr;
using testbed::World;

struct SnfsWorld : World {
  SnfsClient* fsa = nullptr;
  SnfsClient* fsb = nullptr;
  SnfsClient* fsc = nullptr;

  explicit SnfsWorld(SnfsClientParams params = {}, int num_clients = 3,
                     ServerMachineParams server_params = {})
      : World(ServerProtocol::kSnfs, num_clients, server_params) {
    fsa = &client(0).MountSnfs("/data", server->address(), server->root(), params);
    if (num_clients > 1) {
      fsb = &client(1).MountSnfs("/data", server->address(), server->root(), params);
    }
    if (num_clients > 2) {
      fsc = &client(2).MountSnfs("/data", server->address(), server->root(), params);
    }
  }

  StateTable& table() { return server->snfs_server()->state_table(); }
};

const proto::OpKind kWriteOp = proto::OpKind::kWrite;
const proto::OpKind kReadOp = proto::OpKind::kRead;

TEST(SnfsTest, WriteReadRoundTripSingleClient) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    auto payload = TestPattern(3 * cache::kBlockSize + 99);
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", payload)).ok());
    auto got = co_await w.client(0).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, payload);
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, WritesAreDelayedPastClose) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    EXPECT_TRUE(
        (co_await w.client(0).vfs().WriteFile("/data/f", TestPattern(6 * cache::kBlockSize)))
            .ok());
    // The whole point: close does NOT flush; no write RPCs yet.
    EXPECT_EQ(w.client(0).peer().client_ops().Get(kWriteOp), 0u);
    EXPECT_TRUE(w.client(0).buffer_cache().HasDirty(w.fsa->mount_id(), 2));
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
  // The 30 s sync daemon eventually pushes the data to the server.
  w.simulator.RunUntil(sim::Sec(65));
  EXPECT_EQ(w.client(0).peer().client_ops().Get(kWriteOp), 6u);
  EXPECT_GE(w.server->disk().writes(), 6u);
}

TEST(SnfsTest, ReopenReadsOwnCacheWithoutServerReads) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    auto payload = TestPattern(4 * cache::kBlockSize);
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", payload)).ok());
    // Write-close-reopen-read: the cache stays valid (version rules), so no
    // read RPCs — the defect SNFS fixes relative to the buggy Ultrix NFS.
    auto got = co_await w.client(0).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok() && *got == payload);
    EXPECT_EQ(w.client(0).peer().client_ops().Get(kReadOp), 0u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, SequentialSharingTriggersWritebackCallback) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    auto payload = TestPattern(5 * cache::kBlockSize);
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", payload)).ok());
    EXPECT_EQ(w.client(0).peer().client_ops().Get(kWriteOp), 0u);  // still dirty at A

    // B opens: the server must call back A to retrieve the dirty blocks
    // before B's open completes, so B reads current data.
    auto got = co_await w.client(1).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, payload);
    }
    EXPECT_GE(w.fsa->callbacks_served(), 1u);
    EXPECT_EQ(w.client(0).peer().client_ops().Get(kWriteOp), 5u);  // flushed by callback
    EXPECT_GE(w.server->snfs_server()->callbacks_issued(), 1u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, VersionMismatchInvalidatesStaleCache) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", TestBytes("one"))).ok());
    // A reads it back (A's cache holds version v).
    auto got_a = co_await w.client(0).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got_a.ok() && TestStr(*got_a) == "one");
    // B rewrites the file (version bumps).
    EXPECT_TRUE((co_await w.client(1).vfs().WriteFile("/data/f", TestBytes("two"))).ok());
    // A reopens: version mismatch invalidates its cache; it must see "two".
    auto got = co_await w.client(0).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "two");
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, WriteSharingDisablesCachingAndStaysConsistent) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    vfs::Vfs& b = w.client(1).vfs();
    EXPECT_TRUE((co_await a.WriteFile("/data/f", TestBytes("0000"))).ok());

    auto afd = co_await a.Open("/data/f", vfs::OpenFlags::ReadWrite());
    auto bfd = co_await b.Open("/data/f", vfs::OpenFlags::ReadOnly());
    EXPECT_TRUE(afd.ok() && bfd.ok());
    if (!afd.ok() || !bfd.ok()) {
      co_return;
    }
    // The file is now write-shared: every write goes through, every read
    // goes to the server; B observes each of A's writes immediately.
    for (int i = 1; i <= 4; ++i) {
      std::string v = "v" + std::to_string(i) + "!!";
      EXPECT_TRUE((co_await a.Pwrite(*afd, 0, TestBytes(v))).ok());
      auto got = co_await b.Pread(*bfd, 0, 4);
      EXPECT_TRUE(got.ok());
      if (got.ok()) {
        EXPECT_EQ(TestStr(*got), v);  // no staleness, unlike NFS
      }
    }
    const StateTable::Entry* entry = w.table().Lookup(
        proto::FileHandle{w.server->fs().fsid(), 2, 0});
    EXPECT_NE(entry, nullptr);
    if (entry != nullptr) {
      EXPECT_EQ(entry->state(), FileState::kWriteShared);
    }
    EXPECT_TRUE((co_await a.Close(*afd)).ok());
    EXPECT_TRUE((co_await b.Close(*bfd)).ok());
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, DeleteCancelsDelayedWritesEntirely) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    EXPECT_TRUE((co_await v.WriteFile("/data/tmp", TestPattern(10 * cache::kBlockSize))).ok());
    uint64_t disk_writes_before_delete = w.server->disk().writes();
    EXPECT_TRUE((co_await v.Unlink("/data/tmp")).ok());
    EXPECT_EQ(w.client(0).peer().client_ops().Get(kWriteOp), 0u);
    EXPECT_GE(w.client(0).buffer_cache().stats().cancelled_writes, 10u);
    done = true;
    (void)disk_writes_before_delete;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
  // Even after the sync interval: nothing to write.
  w.simulator.RunUntil(sim::Sec(65));
  EXPECT_EQ(w.client(0).peer().client_ops().Get(kWriteOp), 0u);
}

TEST(SnfsTest, OpenRepliesCarryAttributesNoGetattrNeeded) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    EXPECT_TRUE((co_await v.WriteFile("/data/f", TestBytes("hello"))).ok());
    uint64_t getattrs = w.client(0).peer().client_ops().Get(proto::OpKind::kGetAttr);
    auto fd = co_await v.Open("/data/f", vfs::OpenFlags::ReadOnly());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    auto st = co_await v.Fstat(*fd);
    EXPECT_TRUE(st.ok());
    if (st.ok()) {
      EXPECT_EQ(st->size, 5u);
    }
    EXPECT_TRUE((co_await v.Close(*fd)).ok());
    // Cachable files never need getattr traffic (§4.2.1).
    EXPECT_EQ(w.client(0).peer().client_ops().Get(proto::OpKind::kGetAttr), getattrs);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, ThreeClientReadSharingAllCache) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    auto payload = TestPattern(2 * cache::kBlockSize);
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", payload)).ok());
    for (int c = 0; c < 3; ++c) {
      auto got = co_await w.client(c).vfs().ReadFile("/data/f");
      EXPECT_TRUE(got.ok() && *got == payload);
    }
    // Everyone may cache; second reads are free.
    uint64_t reads_before[3];
    for (int c = 0; c < 3; ++c) {
      reads_before[c] = w.client(c).peer().client_ops().Get(kReadOp);
    }
    for (int c = 0; c < 3; ++c) {
      auto got = co_await w.client(c).vfs().ReadFile("/data/f");
      EXPECT_TRUE(got.ok() && *got == payload);
      EXPECT_EQ(w.client(c).peer().client_ops().Get(kReadOp), reads_before[c]);
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, DeadClientCallbackMarksFileInconsistent) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    EXPECT_TRUE(
        (co_await w.client(0).vfs().WriteFile("/data/f", TestPattern(cache::kBlockSize))).ok());
    // A holds dirty blocks and dies.
    w.client(0).Crash(w.network);
    // B opens the file: the write-back callback to A cannot complete; the
    // open is honored but flagged.
    auto got = co_await w.client(1).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());  // open honored, stale (empty) data served
    EXPECT_GE(w.server->snfs_server()->callbacks_failed(), 1u);
    EXPECT_GE(w.fsb->inconsistent_opens(), 1u);
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(300));
  EXPECT_TRUE(done);
}

TEST(SnfsTest, StateTablePressureReclaimsClosedDirtyEntries) {
  ServerMachineParams sp;
  sp.snfs.max_state_entries = 8;
  SnfsWorld w({}, /*num_clients=*/1, sp);
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    // Create many dirty-closed files to blow past the entry limit.
    for (int i = 0; i < 24; ++i) {
      EXPECT_TRUE((co_await v.WriteFile("/data/f" + std::to_string(i),
                                        TestPattern(cache::kBlockSize, static_cast<uint8_t>(i))))
                      .ok());
    }
    co_await sim::Sleep(w.simulator, sim::Sec(5));
    // Reclaim callbacks forced some write-backs despite no sync daemon
    // expiry and no sharing.
    EXPECT_GE(w.server->snfs_server()->reclaims(), 1u);
    EXPECT_GT(w.client(0).peer().client_ops().Get(kWriteOp), 0u);
    EXPECT_LE(w.table().size(), 24u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, DelayedCloseElidesOpenCloseTraffic) {
  SnfsClientParams params;
  params.delayed_close = true;
  SnfsWorld w(params);
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    EXPECT_TRUE((co_await v.WriteFile("/data/hdr", TestBytes("#include <paper>"))).ok());
    uint64_t opens_before = w.client(0).peer().client_ops().Get(proto::OpKind::kOpen);
    // The popular-header pattern: reopen the same file many times.
    for (int i = 0; i < 20; ++i) {
      auto got = co_await v.ReadFile("/data/hdr");
      EXPECT_TRUE(got.ok());
    }
    uint64_t opens_after = w.client(0).peer().client_ops().Get(proto::OpKind::kOpen);
    EXPECT_LE(opens_after - opens_before, 1u);
    EXPECT_GE(w.fsa->delayed_close_hits(), 19u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, DelayedCloseStillYieldsToNewWriter) {
  SnfsClientParams params;
  params.delayed_close = true;
  SnfsWorld w(params);
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    vfs::Vfs& b = w.client(1).vfs();
    EXPECT_TRUE((co_await a.WriteFile("/data/f", TestBytes("from-a"))).ok());
    (void)co_await a.ReadFile("/data/f");  // A holds a delayed-close open
    // B rewrites the file. The server sees apparent sharing with A and
    // calls back; A must settle its owed closes and stop caching.
    EXPECT_TRUE((co_await b.WriteFile("/data/f", TestBytes("from-b"))).ok());
    co_await sim::Sleep(w.simulator, sim::Sec(2));
    // A reopens and must see B's data.
    auto got = co_await a.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "from-b");
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, FsyncForcesWriteThrough) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    auto fd = co_await v.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await v.Write(*fd, TestPattern(3 * cache::kBlockSize))).ok());
    EXPECT_EQ(w.client(0).peer().client_ops().Get(kWriteOp), 0u);
    EXPECT_TRUE((co_await v.Fsync(*fd)).ok());
    EXPECT_EQ(w.client(0).peer().client_ops().Get(kWriteOp), 3u);
    EXPECT_TRUE((co_await v.Close(*fd)).ok());
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(SnfsTest, ServerTracksStatesThroughWorkloadLifecycle) {
  SnfsWorld w;
  bool done = false;
  w.simulator.Spawn([](SnfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    proto::FileHandle fh{w.server->fs().fsid(), 2, 0};

    auto fd = co_await a.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    const StateTable::Entry* e = w.table().Lookup(fh);
    EXPECT_NE(e, nullptr);
    if (e == nullptr) {
      co_return;
    }
    EXPECT_EQ(e->state(), FileState::kOneWriter);

    EXPECT_TRUE((co_await a.Write(*fd, TestPattern(cache::kBlockSize))).ok());
    EXPECT_TRUE((co_await a.Close(*fd)).ok());
    e = w.table().Lookup(fh);
    EXPECT_NE(e, nullptr);
    if (e == nullptr) {
      co_return;
    }
    EXPECT_EQ(e->state(), FileState::kClosedDirty);

    auto rfd = co_await a.Open("/data/f", vfs::OpenFlags::ReadOnly());
    EXPECT_TRUE(rfd.ok());
    if (!rfd.ok()) {
      co_return;
    }
    e = w.table().Lookup(fh);
    EXPECT_NE(e, nullptr);
    if (e == nullptr) {
      co_return;
    }
    EXPECT_EQ(e->state(), FileState::kOneRdrDirty);
    EXPECT_TRUE((co_await a.Close(*rfd)).ok());
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace snfs
