// Tests for LocalFs (the server-side Unix file system) and the LocalMount
// configuration (LocalFs through the client buffer cache with delayed
// writes), exercised through the VFS syscall layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk.h"
#include "src/fs/local_fs.h"
#include "src/fs/local_mount.h"
#include "src/sim/simulator.h"
#include "src/vfs/vfs.h"

namespace fs {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }
std::string Str(const std::vector<uint8_t>& v) { return {v.begin(), v.end()}; }

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 7) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 31 + (i >> 8));
  }
  return v;
}

// Run a coroutine to completion on a fresh simulator and require success.
#define RUN_SIM(rig, body)                                   \
  do {                                                       \
    bool completed = false;                                  \
    (rig).simulator.Spawn([](Rig& rig, bool& completed) -> sim::Task<void> body( \
        (rig), completed));                                  \
    (rig).simulator.Run();                                   \
    EXPECT_TRUE(completed);                                  \
  } while (0)

struct Rig {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  LocalFs fs{simulator, disk, LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  cache::BufferCache cache{simulator, cache::BufferCacheParams{}};
  LocalMount mount{simulator, fs, cache, nullptr};
  vfs::Vfs vfs{simulator};

  Rig() {
    vfs.Mount("/", &mount);
    cache.Start();
  }
};

TEST(LocalFsTest, CreateWriteReadRoundTrip) {
  Rig rig;
  RUN_SIM(rig, {
    auto st = co_await rig.vfs.WriteFile("/hello.txt", Bytes("hello world"));
    EXPECT_TRUE(st.ok());
    auto data = co_await rig.vfs.ReadFile("/hello.txt");
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(Str(*data), "hello world");
    }
    completed = true;
  });
}

TEST(LocalFsTest, LargeFileMultiBlockRoundTrip) {
  Rig rig;
  RUN_SIM(rig, {
    std::vector<uint8_t> payload = Pattern(3 * kBlockSize + 123);
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/big", payload)).ok());
    auto data = co_await rig.vfs.ReadFile("/big");
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(*data, payload);
    }
    completed = true;
  });
}

TEST(LocalFsTest, LookupMissingFileFails) {
  Rig rig;
  RUN_SIM(rig, {
    auto r = co_await rig.vfs.Open("/nope", vfs::OpenFlags::ReadOnly());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status(), base::ErrNoEnt());
    completed = true;
  });
}

TEST(LocalFsTest, MkdirAndNestedFiles) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/a")).ok());
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/a/b")).ok());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/a/b/f", Bytes("x"))).ok());
    auto st = co_await rig.vfs.Stat("/a/b/f");
    EXPECT_TRUE(st.ok());
    if (st.ok()) {
      EXPECT_EQ(st->size, 1u);
      EXPECT_EQ(st->type, proto::FileType::kRegular);
    }
    auto dir = co_await rig.vfs.Stat("/a/b");
    EXPECT_TRUE(dir.ok());
    if (dir.ok()) {
      EXPECT_EQ(dir->type, proto::FileType::kDirectory);
    }
    completed = true;
  });
}

TEST(LocalFsTest, MkdirExistingFails) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/d")).ok());
    auto again = co_await rig.vfs.MkdirPath("/d");
    EXPECT_EQ(again.status(), base::ErrExist());
    completed = true;
  });
}

TEST(LocalFsTest, UnlinkRemovesAndStaleHandles) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Bytes("data"))).ok());
    EXPECT_TRUE((co_await rig.vfs.Unlink("/f")).ok());
    auto r = co_await rig.vfs.Stat("/f");
    EXPECT_EQ(r.status(), base::ErrNoEnt());
    completed = true;
  });
}

// --- Remove racing a suspended operation -------------------------------------
//
// Namespace operations make the new state visible, then suspend for the
// structural disk write. A Remove that lands in that window destroys the
// inode the suspended operation was working on; these regressions pin the
// fixed behaviour (reply snapshotted before the suspension, or the handle
// re-resolved after it). Run them under ASan to catch reintroduced
// use-after-free: pre-fix, each touched the destroyed inode on resume.

TEST(LocalFsTest, CreateReplySurvivesConcurrentRemove) {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  LocalFs fs{simulator, disk, LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  bool created = false;
  bool removed = false;
  simulator.Spawn([](LocalFs& fs, bool& created) -> sim::Task<void> {
    auto rep = co_await fs.Create(fs.root(), "victim", /*exclusive=*/true);
    EXPECT_TRUE(rep.ok());
    if (rep.ok()) {
      EXPECT_NE(rep->fh.fileid, 0u);
      EXPECT_EQ(rep->attr.size, 0u);
      // The file was already deleted when the metadata write finished.
      EXPECT_FALSE(fs.GetAttr(rep->fh).ok());
    }
    created = true;
  }(fs, created));
  simulator.Spawn([](LocalFs& fs, bool& removed) -> sim::Task<void> {
    // Runs while Create is suspended in its metadata write: the entry is
    // already visible, so the remove succeeds and destroys the inode.
    EXPECT_TRUE((co_await fs.Remove(fs.root(), "victim")).ok());
    removed = true;
  }(fs, removed));
  simulator.Run();
  EXPECT_TRUE(created);
  EXPECT_TRUE(removed);
}

TEST(LocalFsTest, SetAttrDuringConcurrentRemoveReturnsStale) {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  LocalFs fs{simulator, disk, LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  proto::FileHandle fh;
  bool ready = false;
  simulator.Spawn([](LocalFs& fs, proto::FileHandle& fh, bool& ready) -> sim::Task<void> {
    auto rep = co_await fs.Create(fs.root(), "f", /*exclusive=*/true);
    EXPECT_TRUE(rep.ok());
    fh = rep->fh;
    ready = true;
  }(fs, fh, ready));
  simulator.Run();
  ASSERT_TRUE(ready);

  bool truncated = false;
  bool removed = false;
  simulator.Spawn([](LocalFs& fs, proto::FileHandle fh, bool& truncated) -> sim::Task<void> {
    proto::SetAttrReq req;
    req.size = 0;
    auto attr = co_await fs.SetAttr(fh, req);
    // The inode died during the metadata write; the re-resolve must report
    // that rather than answer from freed memory.
    EXPECT_EQ(attr.status(), base::ErrStale());
    truncated = true;
  }(fs, fh, truncated));
  simulator.Spawn([](LocalFs& fs, bool& removed) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.Remove(fs.root(), "f")).ok());
    removed = true;
  }(fs, removed));
  simulator.Run();
  EXPECT_TRUE(truncated);
  EXPECT_TRUE(removed);
}

TEST(LocalFsTest, ReadDuringConcurrentRemoveReturnsStale) {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  LocalFs fs{simulator, disk, LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  proto::FileHandle fh;
  bool ready = false;
  simulator.Spawn([](LocalFs& fs, proto::FileHandle& fh, bool& ready) -> sim::Task<void> {
    auto rep = co_await fs.Create(fs.root(), "f", /*exclusive=*/true);
    EXPECT_TRUE(rep.ok());
    fh = rep->fh;
    // Populate in memory only so the read below must miss the server cache
    // and suspend on the disk.
    auto attr = co_await fs.Write(fh, 0, Bytes("payload"), LocalFs::WriteMode::kMemory);
    EXPECT_TRUE(attr.ok());
    ready = true;
  }(fs, fh, ready));
  simulator.Run();
  ASSERT_TRUE(ready);

  bool read_done = false;
  bool removed = false;
  simulator.Spawn([](LocalFs& fs, proto::FileHandle fh, bool& read_done) -> sim::Task<void> {
    auto rep = co_await fs.Read(fh, 0, kBlockSize);
    // The remove landed while the disk read was in flight.
    EXPECT_EQ(rep.status(), base::ErrStale());
    read_done = true;
  }(fs, fh, read_done));
  simulator.Spawn([](LocalFs& fs, bool& removed) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.Remove(fs.root(), "f")).ok());
    removed = true;
  }(fs, removed));
  simulator.Run();
  EXPECT_TRUE(read_done);
  EXPECT_TRUE(removed);
}

// --- Stored blocks: sharing and copy-on-write ----------------------------------

// Runs `body` against a LocalFs holding one empty file "f".
template <typename Body>
void WithOneFile(Body body) {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  LocalFs fs{simulator, disk, LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  bool completed = false;
  simulator.Spawn([](LocalFs& fs, Body body, bool& completed) -> sim::Task<void> {
    auto file = co_await fs.Create(fs.root(), "f", /*exclusive=*/true);
    EXPECT_TRUE(file.ok());
    if (file.ok()) {
      co_await body(fs, file->fh);
      completed = true;
    }
  }(fs, body, completed));
  simulator.Run();
  EXPECT_TRUE(completed);
}

// Reads the whole file as a vector.
sim::Task<std::vector<uint8_t>> Contents(LocalFs& fs, proto::FileHandle fh) {
  auto attr = fs.GetAttr(fh);
  EXPECT_TRUE(attr.ok());
  auto rep = co_await fs.Read(fh, 0, static_cast<uint32_t>(attr.ok() ? attr->size : 0));
  EXPECT_TRUE(rep.ok());
  co_return rep.ok() ? rep->data.ToVector() : std::vector<uint8_t>();
}

TEST(LocalFsBlocksTest, WholeBlockWriteThenReadReturnsTheStoredBuffer) {
  WithOneFile([](LocalFs& fs, proto::FileHandle fh) -> sim::Task<void> {
    proto::Bytes block(Pattern(kBlockSize));
    proto::Bytes tail(Pattern(100, 3));
    EXPECT_TRUE((co_await fs.Write(fh, 0, block, LocalFs::WriteMode::kMemory)).ok());
    EXPECT_TRUE((co_await fs.Write(fh, kBlockSize, tail, LocalFs::WriteMode::kMemory)).ok());
    auto whole = co_await fs.Read(fh, 0, kBlockSize);
    auto last = co_await fs.Read(fh, kBlockSize, kBlockSize);  // short block at EOF
    EXPECT_TRUE(whole.ok() && last.ok());
    if (whole.ok() && last.ok()) {
      EXPECT_EQ(whole->data.data(), block.data());
      EXPECT_EQ(last->data.data(), tail.data());
      EXPECT_TRUE(last->eof);
    }
  });
}

TEST(LocalFsBlocksTest, PartialOverwriteLeavesAnEarlierReadUnchanged) {
  WithOneFile([](LocalFs& fs, proto::FileHandle fh) -> sim::Task<void> {
    std::vector<uint8_t> original = Pattern(kBlockSize);
    EXPECT_TRUE(
        (co_await fs.Write(fh, 0, proto::Bytes(Pattern(kBlockSize)), LocalFs::WriteMode::kMemory))
            .ok());
    auto before = co_await fs.Read(fh, 0, kBlockSize);
    EXPECT_TRUE(before.ok());
    EXPECT_TRUE(
        (co_await fs.Write(fh, 100, proto::Bytes(Bytes("edit")), LocalFs::WriteMode::kMemory))
            .ok());
    std::vector<uint8_t> edited = original;
    std::copy_n(Bytes("edit").begin(), 4, edited.begin() + 100);
    EXPECT_EQ(co_await Contents(fs, fh), edited);
    if (before.ok()) {
      EXPECT_EQ(before->data.ToVector(), original);
    }
  });
}

TEST(LocalFsBlocksTest, TruncateMidBlockThenExtendReadsZerosPastTheCut) {
  WithOneFile([](LocalFs& fs, proto::FileHandle fh) -> sim::Task<void> {
    std::vector<uint8_t> original = Pattern(2 * kBlockSize);
    EXPECT_TRUE((co_await fs.Write(fh, 0, proto::Bytes(Pattern(2 * kBlockSize)),
                                   LocalFs::WriteMode::kMemory))
                    .ok());
    auto held = co_await fs.Read(fh, 0, kBlockSize);
    proto::SetAttrReq cut;
    cut.size = 1000;
    EXPECT_TRUE((co_await fs.SetAttr(fh, cut)).ok());
    proto::SetAttrReq extend;
    extend.size = kBlockSize + 500;
    EXPECT_TRUE((co_await fs.SetAttr(fh, extend)).ok());
    std::vector<uint8_t> expected(kBlockSize + 500, 0);
    std::copy_n(original.begin(), 1000, expected.begin());
    EXPECT_EQ(co_await Contents(fs, fh), expected);
    // The truncation replaced the block; a reply handed out earlier keeps
    // the bytes it carried.
    if (held.ok()) {
      EXPECT_EQ(held->data.ToVector(), std::vector<uint8_t>(original.begin(),
                                                            original.begin() + kBlockSize));
    }
  });
}

TEST(LocalFsBlocksTest, WritePastEofZeroFillsTheHole) {
  WithOneFile([](LocalFs& fs, proto::FileHandle fh) -> sim::Task<void> {
    EXPECT_TRUE(
        (co_await fs.Write(fh, 0, proto::Bytes(Bytes("head")), LocalFs::WriteMode::kMemory)).ok());
    uint64_t at = 2 * kBlockSize + 10;
    EXPECT_TRUE(
        (co_await fs.Write(fh, at, proto::Bytes(Bytes("tail")), LocalFs::WriteMode::kMemory)).ok());
    std::vector<uint8_t> expected(at + 4, 0);
    std::copy_n(Bytes("head").begin(), 4, expected.begin());
    std::copy_n(Bytes("tail").begin(), 4, expected.begin() + static_cast<int64_t>(at));
    EXPECT_EQ(co_await Contents(fs, fh), expected);
  });
}

TEST(LocalFsTest, RmdirOnlyWhenEmpty) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/d")).ok());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/d/f", Bytes("x"))).ok());
    EXPECT_EQ((co_await rig.vfs.RmdirPath("/d")).status(), base::ErrNotEmpty());
    EXPECT_TRUE((co_await rig.vfs.Unlink("/d/f")).ok());
    EXPECT_TRUE((co_await rig.vfs.RmdirPath("/d")).ok());
    completed = true;
  });
}

TEST(LocalFsTest, RenameMovesFile) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/src")).ok());
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/dst")).ok());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/src/f", Bytes("payload"))).ok());
    // Flush so the data survives the cache's view of the old fileid path.
    EXPECT_TRUE((co_await rig.vfs.Rename("/src/f", "/dst/g")).ok());
    EXPECT_EQ((co_await rig.vfs.Stat("/src/f")).status(), base::ErrNoEnt());
    auto data = co_await rig.vfs.ReadFile("/dst/g");
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(Str(*data), "payload");
    }
    completed = true;
  });
}

TEST(LocalFsTest, ReadDirListsEntries) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/d")).ok());
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE((co_await rig.vfs.WriteFile("/d/f" + std::to_string(i), Bytes("x"))).ok());
    }
    auto entries = co_await rig.vfs.ReadDir("/d");
    EXPECT_TRUE(entries.ok());
    if (entries.ok()) {
      EXPECT_EQ(entries->size(), 100u);
    }
    completed = true;
  });
}

TEST(LocalFsTest, TruncateOnReopenWithWriteCreate) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Pattern(10000))).ok());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Bytes("tiny"))).ok());
    auto data = co_await rig.vfs.ReadFile("/f");
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(Str(*data), "tiny");
    }
    completed = true;
  });
}

TEST(LocalFsTest, OverwriteMiddleOfFile) {
  Rig rig;
  RUN_SIM(rig, {
    std::vector<uint8_t> payload = Pattern(2 * kBlockSize);
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", payload)).ok());
    auto fd = co_await rig.vfs.Open("/f", vfs::OpenFlags::ReadWrite());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await rig.vfs.Pwrite(*fd, 1000, Bytes("XYZ"))).ok());
    EXPECT_TRUE((co_await rig.vfs.Close(*fd)).ok());
    auto data = co_await rig.vfs.ReadFile("/f");
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(data->size(), payload.size());
      EXPECT_EQ((*data)[999], payload[999]);
      EXPECT_EQ((*data)[1000], 'X');
      EXPECT_EQ((*data)[1002], 'Z');
      EXPECT_EQ((*data)[1003], payload[1003]);
    }
    completed = true;
  });
}

TEST(LocalMountTest, DelayedWritesReachDiskOnlyAfterSync) {
  Rig rig;
  RUN_SIM(rig, {
    uint64_t writes_before = rig.disk.writes();
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Pattern(8 * kBlockSize))).ok());
    // Data writes are delayed; only metadata (create) hit the disk so far.
    uint64_t after_write = rig.disk.writes();
    EXPECT_LT(after_write - writes_before, 3u);
    EXPECT_TRUE(rig.cache.HasDirty(rig.mount.mount_id(), 2));
    completed = true;
  });
  // Let the 30 s sync daemon run.
  rig.simulator.RunUntil(sim::Sec(65));
  EXPECT_GE(rig.disk.writes(), 8u);
  EXPECT_EQ(rig.cache.DirtyBlockCount(), 0u);
}

TEST(LocalMountTest, DeleteCancelsDelayedWrites) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/tmpfile", Pattern(10 * kBlockSize))).ok());
    EXPECT_TRUE((co_await rig.vfs.Unlink("/tmpfile")).ok());
    completed = true;
  });
  rig.simulator.RunUntil(sim::Sec(65));
  // Data blocks never reached the disk; only metadata writes happened.
  EXPECT_LT(rig.disk.writes(), 4u);
  EXPECT_GE(rig.cache.stats().cancelled_writes, 10u);
}

TEST(LocalMountTest, FsyncForcesWriteback) {
  Rig rig;
  RUN_SIM(rig, {
    auto fd = co_await rig.vfs.Open("/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await rig.vfs.Write(*fd, Pattern(4 * kBlockSize))).ok());
    uint64_t before = rig.disk.writes();
    EXPECT_TRUE((co_await rig.vfs.Fsync(*fd)).ok());
    EXPECT_GE(rig.disk.writes(), before + 4);
    EXPECT_TRUE((co_await rig.vfs.Close(*fd)).ok());
    completed = true;
  });
}

TEST(LocalMountTest, ReadsHitCacheAfterFirstFetch) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Pattern(4 * kBlockSize))).ok());
    (void)co_await rig.vfs.ReadFile("/f");
    uint64_t reads_before = rig.disk.reads();
    (void)co_await rig.vfs.ReadFile("/f");
    EXPECT_EQ(rig.disk.reads(), reads_before);  // all hits
    completed = true;
  });
}

TEST(LocalMountTest, SequentialAndPositionalIo) {
  Rig rig;
  RUN_SIM(rig, {
    auto fd = co_await rig.vfs.Open("/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await rig.vfs.Write(*fd, Bytes("abc"))).ok());
    EXPECT_TRUE((co_await rig.vfs.Write(*fd, Bytes("def"))).ok());
    EXPECT_TRUE((co_await rig.vfs.Close(*fd)).ok());
    auto fd2 = co_await rig.vfs.Open("/f", vfs::OpenFlags::ReadOnly());
    EXPECT_TRUE(fd2.ok());
    if (!fd2.ok()) {
      co_return;
    }
    auto first = co_await rig.vfs.Read(*fd2, 2);
    auto rest = co_await rig.vfs.Read(*fd2, 10);
    EXPECT_TRUE(first.ok() && rest.ok());
    if (first.ok() && rest.ok()) {
      EXPECT_EQ(Str(*first), "ab");
      EXPECT_EQ(Str(*rest), "cdef");
    }
    EXPECT_TRUE((co_await rig.vfs.Close(*fd2)).ok());
    completed = true;
  });
}

TEST(BufferCacheTest, LruEvictionBoundsSize) {
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.capacity_blocks = 8;
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);
  cache::Backing backing;
  int fetches = 0;
  // lint: coro-lambda-ok (backing and counters share the test scope)
  backing.fetch = [&fetches](uint64_t, uint64_t) -> sim::Task<base::Result<proto::Bytes>> {
    ++fetches;
    co_return proto::Bytes(std::vector<uint8_t>(cache::kBlockSize, 0xAB));
  };
  int stores = 0;
  // lint: coro-lambda-ok (backing and counters share the test scope)
  backing.store = [&stores](uint64_t, uint64_t, proto::Bytes) -> sim::Task<base::Result<void>> {
    ++stores;
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));
  bool completed = false;
  simulator.Spawn([](cache::BufferCache& cache, int mount, bool& completed) -> sim::Task<void> {
    for (uint64_t f = 0; f < 4; ++f) {
      for (uint64_t b = 0; b < 8; ++b) {
        auto r = co_await cache.Read(mount, f, b * cache::kBlockSize, cache::kBlockSize,
                                     1 << 20, /*read_ahead=*/false);
        EXPECT_TRUE(r.ok());
      }
    }
    EXPECT_LE(cache.size_blocks(), 8u);
    completed = true;
  }(cache, mount, completed));
  simulator.Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(fetches, 32);
  EXPECT_EQ(stores, 0);  // nothing dirty
}

TEST(BufferCacheTest, DirtyEvictionWritesBack) {
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.capacity_blocks = 4;
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);
  cache::Backing backing;
  int stores = 0;
  backing.fetch = [](uint64_t, uint64_t) -> sim::Task<base::Result<proto::Bytes>> {
    co_return proto::Bytes();
  };
  // lint: coro-lambda-ok (backing and counters share the test scope)
  backing.store = [&stores](uint64_t, uint64_t,
                            proto::Bytes data) -> sim::Task<base::Result<void>> {
    ++stores;
    EXPECT_EQ(data.size(), cache::kBlockSize);
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));
  bool completed = false;
  simulator.Spawn([](cache::BufferCache& cache, int mount, bool& completed) -> sim::Task<void> {
    proto::Bytes block(std::vector<uint8_t>(cache::kBlockSize, 1));
    for (uint64_t b = 0; b < 10; ++b) {
      EXPECT_TRUE(
          (co_await cache.WriteDelayed(mount, 1, b * cache::kBlockSize, block, 0)).ok());
    }
    completed = true;
  }(cache, mount, completed));
  simulator.Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(stores, 6);  // 10 dirtied, 4 still cached
  EXPECT_LE(cache.size_blocks(), 4u);
}

TEST(BufferCacheTest, RedirtyDuringEvictionWritebackKeepsNewestData) {
  // Guard for the eviction interleaving: a dirty block's eviction write-back
  // suspends in the backing store, the block is re-dirtied meanwhile, and a
  // flush of the new data must wait out the in-flight store (StoreBlock's
  // in-flight store check) so the older bytes can never land last.
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.capacity_blocks = 1;
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);
  cache::Backing backing;
  // Every store takes 10 ms, so the eviction write-back is still in flight
  // when the test re-dirties the block. Completions are logged in order.
  std::vector<std::pair<uint64_t, uint8_t>> landed;  // (block, first byte)
  std::map<uint64_t, proto::Bytes> disk;
  backing.fetch = [](uint64_t, uint64_t) -> sim::Task<base::Result<proto::Bytes>> {
    co_return proto::Bytes();
  };
  // lint: coro-lambda-ok (backing and logs share the test scope)
  backing.store = [&simulator, &landed, &disk](
                      uint64_t, uint64_t block,
                      proto::Bytes data) -> sim::Task<base::Result<void>> {
    co_await sim::Sleep(simulator, sim::Msec(10));
    landed.emplace_back(block, data.empty() ? 0 : *data.begin());
    disk[block] = std::move(data);
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));
  bool completed = false;
  simulator.Spawn([](cache::BufferCache& cache, int mount, bool& completed) -> sim::Task<void> {
    proto::Bytes v1(std::vector<uint8_t>(cache::kBlockSize, 0x01));
    proto::Bytes v2(std::vector<uint8_t>(cache::kBlockSize, 0x02));
    proto::Bytes v3(std::vector<uint8_t>(cache::kBlockSize, 0x03));
    // Dirty block 0, then dirty block 1: the one-block cache evicts block 0,
    // whose slow write-back (v1) is now in flight.
    EXPECT_TRUE((co_await cache.WriteDelayed(mount, 1, 0, v1, 0)).ok());
    EXPECT_TRUE((co_await cache.WriteDelayed(mount, 1, cache::kBlockSize, v2, 0)).ok());
    // Re-dirty block 0 with newer bytes while the v1 store is sleeping.
    EXPECT_TRUE((co_await cache.WriteDelayed(mount, 1, 0, v3, 0)).ok());
    co_await cache.FlushAll();
    completed = true;
  }(cache, mount, completed));
  simulator.Run();
  EXPECT_TRUE(completed);
  // Block 0 was stored twice, strictly old-then-new.
  std::vector<uint8_t> block0_order;
  for (const auto& [block, byte] : landed) {
    if (block == 0) {
      block0_order.push_back(byte);
    }
  }
  EXPECT_EQ(block0_order, (std::vector<uint8_t>{0x01, 0x03}));
  ASSERT_EQ(disk.count(0), 1u);
  ASSERT_EQ(disk.count(1), 1u);
  EXPECT_EQ(disk[0].ToVector(), std::vector<uint8_t>(cache::kBlockSize, 0x03));
  EXPECT_EQ(disk[1].ToVector(), std::vector<uint8_t>(cache::kBlockSize, 0x02));
}

TEST(BufferCacheTest, CancelDirtyDropsWithoutStore) {
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);
  cache::Backing backing;
  int stores = 0;
  backing.fetch = [](uint64_t, uint64_t) -> sim::Task<base::Result<proto::Bytes>> {
    co_return proto::Bytes();
  };
  // lint: coro-lambda-ok (backing and counters share the test scope)
  backing.store = [&stores](uint64_t, uint64_t, proto::Bytes) -> sim::Task<base::Result<void>> {
    ++stores;
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));
  simulator.Spawn([](cache::BufferCache& cache, int mount) -> sim::Task<void> {
    proto::Bytes block(std::vector<uint8_t>(cache::kBlockSize, 1));
    for (uint64_t b = 0; b < 5; ++b) {
      EXPECT_TRUE((co_await cache.WriteDelayed(mount, 9, b * cache::kBlockSize, block, 0)).ok());
    }
    EXPECT_TRUE(cache.HasDirty(mount, 9));
    EXPECT_EQ(cache.CancelDirty(mount, 9), 5u);
    EXPECT_FALSE(cache.HasDirty(mount, 9));
    co_await cache.FlushAll();
  }(cache, mount));
  simulator.Run();
  EXPECT_EQ(stores, 0);
}

TEST(BufferCacheTest, PartialWriteDuringWritebackLeavesInFlightBytesUnchanged) {
  // The cache hands its block buffer to the backing store without copying
  // it, so a later partial write must replace the cached buffer, not edit
  // it: the bytes the store was handed stay as they were, and the new
  // version lands on the next flush.
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);
  cache::Backing backing;
  std::vector<proto::Bytes> landed;  // the buffers the store kept, as handed over
  backing.fetch = [](uint64_t, uint64_t) -> sim::Task<base::Result<proto::Bytes>> {
    co_return proto::Bytes();
  };
  // lint: coro-lambda-ok (backing and logs share the test scope)
  backing.store = [&simulator, &landed](uint64_t, uint64_t,
                                        proto::Bytes data) -> sim::Task<base::Result<void>> {
    co_await sim::Sleep(simulator, sim::Msec(10));
    landed.push_back(std::move(data));
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));
  bool completed = false;
  simulator.Spawn([](cache::BufferCache& cache, int mount, std::vector<proto::Bytes>& landed,
                     bool& completed) -> sim::Task<void> {
    proto::Bytes v1(std::vector<uint8_t>(cache::kBlockSize, 0x01));
    EXPECT_TRUE((co_await cache.WriteDelayed(mount, 1, 0, v1, 0)).ok());
    EXPECT_TRUE((co_await cache.FlushFile(mount, 1)).ok());
    EXPECT_EQ(landed.size(), 1u);
    if (landed.size() != 1) {
      co_return;
    }
    EXPECT_EQ(landed[0].data(), v1.data());  // the cached buffer itself, not a copy
    EXPECT_TRUE((co_await cache.WriteDelayed(
                     mount, 1, 100, proto::Bytes(std::vector<uint8_t>(8, 0x02)), cache::kBlockSize))
                    .ok());
    EXPECT_EQ(landed[0].ToVector(), std::vector<uint8_t>(cache::kBlockSize, 0x01));
    EXPECT_TRUE((co_await cache.FlushFile(mount, 1)).ok());
    completed = true;
  }(cache, mount, landed, completed));
  simulator.Run();
  EXPECT_TRUE(completed);
  std::vector<uint8_t> v2(cache::kBlockSize, 0x01);
  std::fill_n(v2.begin() + 100, 8, 0x02);
  ASSERT_EQ(landed.size(), 2u);
  EXPECT_EQ(landed[0].ToVector(), std::vector<uint8_t>(cache::kBlockSize, 0x01));
  EXPECT_EQ(landed[1].ToVector(), v2);
}

TEST(BufferCacheTest, InvalidateFileLeavesOtherMountsBlocksOfTheSameFileid) {
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);
  int fetches[2] = {0, 0};
  int mounts[2];
  for (int m = 0; m < 2; ++m) {
    cache::Backing backing;
    // lint: coro-lambda-ok (backing and counters share the test scope)
    backing.fetch = [&fetches, m](uint64_t, uint64_t) -> sim::Task<base::Result<proto::Bytes>> {
      ++fetches[m];
      co_return proto::Bytes(std::vector<uint8_t>(cache::kBlockSize, static_cast<uint8_t>(m)));
    };
    backing.store = [](uint64_t, uint64_t, proto::Bytes) -> sim::Task<base::Result<void>> {
      co_return base::OkStatus();
    };
    mounts[m] = cache.RegisterMount(std::move(backing));
  }
  bool completed = false;
  simulator.Spawn([](cache::BufferCache& cache, int* mounts, bool& completed) -> sim::Task<void> {
    // Two blocks of fileid 5 on each mount.
    for (int pass = 0; pass < 2; ++pass) {
      for (int m = 0; m < 2; ++m) {
        for (uint64_t b = 0; b < 2; ++b) {
          auto got = co_await cache.Read(mounts[m], 5, b * cache::kBlockSize, cache::kBlockSize,
                                         2 * cache::kBlockSize, /*read_ahead=*/false);
          EXPECT_TRUE(got.ok());
        }
      }
      if (pass == 0) {
        EXPECT_EQ(cache.size_blocks(), 4u);
        cache.InvalidateFile(mounts[0], 5);
        EXPECT_EQ(cache.size_blocks(), 2u);
      }
    }
    completed = true;
  }(cache, mounts, completed));
  simulator.Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(fetches[0], 4);  // invalidated, so fetched again
  EXPECT_EQ(fetches[1], 2);  // still cached
}

// A one-block cache whose backing store takes 10 ms per store and rejects
// every store of file 1 while `reject` is set. Writing file 1's block 0 and
// then file 2's evicts the first into a flush-behind store.
struct FlushBehindRig {
  sim::Simulator simulator;
  cache::BufferCache cache{simulator, cache::BufferCacheParams{.capacity_blocks = 1,
                                                               .enable_sync_daemon = false}};
  std::vector<uint64_t> landed;  // fileid of each accepted store, in landing order
  bool reject = false;
  int mount = -1;

  FlushBehindRig() {
    cache::Backing backing;
    backing.fetch = [](uint64_t, uint64_t) -> sim::Task<base::Result<proto::Bytes>> {
      co_return proto::Bytes();
    };
    backing.store = [this](uint64_t fileid, uint64_t,
                           proto::Bytes) -> sim::Task<base::Result<void>> {
      co_await sim::Sleep(simulator, sim::Msec(10));
      if (reject && fileid == 1) {
        co_return base::ErrStale();
      }
      landed.push_back(fileid);
      co_return base::OkStatus();
    };
    mount = cache.RegisterMount(std::move(backing));
  }

  sim::Task<void> EvictFileOne(uint64_t block) {
    proto::Bytes data(std::vector<uint8_t>(cache::kBlockSize, 0x01));
    EXPECT_TRUE((co_await cache.WriteDelayed(mount, 1, block * cache::kBlockSize, data, 0)).ok());
    EXPECT_TRUE((co_await cache.WriteDelayed(mount, 2, block * cache::kBlockSize, data, 0)).ok());
  }
};

TEST(BufferCacheTest, FlushFileWaitsForAnEvictedBlocksStore) {
  FlushBehindRig rig;
  bool completed = false;
  rig.simulator.Spawn([](FlushBehindRig& rig, bool& completed) -> sim::Task<void> {
    co_await rig.EvictFileOne(0);
    EXPECT_TRUE(rig.landed.empty());  // file 1's block is still on the wire
    EXPECT_TRUE((co_await rig.cache.FlushFile(rig.mount, 1)).ok());
    EXPECT_EQ(rig.landed, std::vector<uint64_t>{1});
    EXPECT_GE(rig.simulator.Now(), sim::Msec(10));
    completed = true;
  }(rig, completed));
  rig.simulator.Run();
  EXPECT_TRUE(completed);
}

TEST(BufferCacheTest, RejectedFlushBehindStoreFailsTheNextFlushFile) {
  FlushBehindRig rig;
  rig.reject = true;
  bool completed = false;
  rig.simulator.Spawn([](FlushBehindRig& rig, bool& completed) -> sim::Task<void> {
    co_await rig.EvictFileOne(0);
    co_await sim::Sleep(rig.simulator, sim::Msec(20));  // the store was rejected
    // The sync daemon's pass over the file, dirty again, leaves the error alone.
    proto::Bytes data(std::vector<uint8_t>(cache::kBlockSize, 0x02));
    EXPECT_TRUE((co_await rig.cache.WriteDelayed(rig.mount, 1, 0, data, 0)).ok());
    co_await rig.cache.FlushAll();
    EXPECT_FALSE((co_await rig.cache.FlushFile(rig.mount, 1)).ok());
    EXPECT_TRUE((co_await rig.cache.FlushFile(rig.mount, 1)).ok());  // reported once
    // A crash drops an unreported rejection, and one that lands after it.
    co_await rig.EvictFileOne(1);
    co_await sim::Sleep(rig.simulator, sim::Msec(20));
    rig.cache.DropAll();
    EXPECT_TRUE((co_await rig.cache.FlushFile(rig.mount, 1)).ok());
    co_await rig.EvictFileOne(2);
    rig.cache.DropAll();
    EXPECT_TRUE((co_await rig.cache.FlushFile(rig.mount, 1)).ok());
    completed = true;
  }(rig, completed));
  rig.simulator.Run();
  EXPECT_TRUE(completed);
}

TEST(BufferCacheTest, RemovingAFileDropsTheRejectionOfItsStoreInFlight) {
  FlushBehindRig rig;
  rig.reject = true;
  bool completed = false;
  rig.simulator.Spawn([](FlushBehindRig& rig, bool& completed) -> sim::Task<void> {
    // File 1 is removed while its evicted block's store is on the wire; the
    // store lands rejected, and nothing is left to report.
    co_await rig.EvictFileOne(0);
    rig.cache.Forget(rig.mount, 1);
    co_await sim::Sleep(rig.simulator, sim::Msec(20));
    EXPECT_TRUE((co_await rig.cache.FlushFile(rig.mount, 1)).ok());
    // A truncate (CancelDirty and InvalidateFile) keeps a landed rejection.
    co_await rig.EvictFileOne(1);
    co_await sim::Sleep(rig.simulator, sim::Msec(20));
    rig.cache.CancelDirty(rig.mount, 1);
    rig.cache.InvalidateFile(rig.mount, 1);
    EXPECT_FALSE((co_await rig.cache.FlushFile(rig.mount, 1)).ok());
    completed = true;
  }(rig, completed));
  rig.simulator.Run();
  EXPECT_TRUE(completed);
}

TEST(BufferCacheTest, RejectedSyncPassStoreFailsTheNextFlushFile) {
  FlushBehindRig rig;
  rig.reject = true;
  bool completed = false;
  rig.simulator.Spawn([](FlushBehindRig& rig, bool& completed) -> sim::Task<void> {
    proto::Bytes data(std::vector<uint8_t>(cache::kBlockSize, 0x01));
    EXPECT_TRUE((co_await rig.cache.WriteDelayed(rig.mount, 1, 0, data, 0)).ok());
    co_await rig.cache.FlushAll();  // the sync daemon's pass; the store is rejected
    EXPECT_FALSE(rig.cache.HasDirty(rig.mount, 1));
    EXPECT_FALSE((co_await rig.cache.FlushFile(rig.mount, 1)).ok());
    EXPECT_TRUE((co_await rig.cache.FlushFile(rig.mount, 1)).ok());  // reported once
    completed = true;
  }(rig, completed));
  rig.simulator.Run();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(rig.landed.empty());
}

}  // namespace
}  // namespace fs
