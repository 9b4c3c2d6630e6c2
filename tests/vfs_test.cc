// VFS-layer tests: mount resolution (longest prefix, nested mounts), fd
// table semantics, path handling edge cases, and error propagation.
#include <gtest/gtest.h>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk.h"
#include "src/fs/local_fs.h"
#include "src/fs/local_mount.h"
#include "src/sim/simulator.h"
#include "src/vfs/vfs.h"

namespace vfs {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }
std::string Str(const std::vector<uint8_t>& v) { return {v.begin(), v.end()}; }

struct Rig {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  fs::LocalFs fs_a{simulator, disk, fs::LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  fs::LocalFs fs_b{simulator, disk, fs::LocalFsParams{.fsid = 2, .cache_blocks = 0}};
  cache::BufferCache cache{simulator,
                           cache::BufferCacheParams{.enable_sync_daemon = false}};
  fs::LocalMount mount_a{simulator, fs_a, cache, nullptr};
  fs::LocalMount mount_b{simulator, fs_b, cache, nullptr};
  Vfs vfs{simulator};
};

#define RUN(rig, body)                                                               \
  do {                                                                               \
    bool completed = false;                                                          \
    (rig).simulator.Spawn([](Rig& rig, bool& completed) -> sim::Task<void> body(     \
        (rig), completed));                                                          \
    (rig).simulator.Run();                                                           \
    EXPECT_TRUE(completed);                                                          \
  } while (0)

TEST(VfsTest, LongestPrefixMountWins) {
  Rig rig;
  rig.vfs.Mount("/", &rig.mount_a);
  rig.vfs.Mount("/data", &rig.mount_b);
  RUN(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/data/f", Bytes("in-b"))).ok());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Bytes("in-a"))).ok());
    // The files landed in different file systems.
    EXPECT_EQ(rig.fs_b.inode_count(), 2u);  // root + f
    EXPECT_EQ(rig.fs_a.inode_count(), 2u);
    completed = true;
  });
}

TEST(VfsTest, PathsNormalizeRepeatedSlashes) {
  Rig rig;
  rig.vfs.Mount("/", &rig.mount_a);
  RUN(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/a")).ok());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("//a///f", Bytes("x"))).ok());
    auto got = co_await rig.vfs.ReadFile("/a/f");
    EXPECT_TRUE(got.ok());
    completed = true;
  });
}

TEST(VfsTest, UnmountedPathFails) {
  Rig rig;
  rig.vfs.Mount("/data", &rig.mount_a);
  RUN(rig, {
    auto r = co_await rig.vfs.Open("/elsewhere/f", OpenFlags::ReadOnly());
    EXPECT_FALSE(r.ok());
    completed = true;
  });
}

TEST(VfsTest, MountPrefixEndsAtComponentBoundary) {
  // "/data/s10" shares the string prefix "/data/s1" but is a different
  // component, so it must not resolve through the "/data/s1" mount (the
  // fleet's shards are mounted this way).
  Rig rig;
  rig.vfs.Mount("/data/s1", &rig.mount_a);
  RUN(rig, {
    EXPECT_EQ((co_await rig.vfs.WriteFile("/data/s10/f", Bytes("x"))).status(), base::ErrNoEnt());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/data/s1/f", Bytes("x"))).ok());
    EXPECT_EQ(rig.fs_a.inode_count(), 2u);  // root + f
    completed = true;
  });
}

TEST(VfsTest, BadFdOperationsFail) {
  Rig rig;
  rig.vfs.Mount("/", &rig.mount_a);
  RUN(rig, {
    EXPECT_EQ((co_await rig.vfs.Read(99, 10)).status(), base::ErrBadFd());
    EXPECT_EQ((co_await rig.vfs.Close(99)).status(), base::ErrBadFd());
    EXPECT_EQ((co_await rig.vfs.Fsync(99)).status(), base::ErrBadFd());
    completed = true;
  });
}

TEST(VfsTest, WriteOnReadOnlyFdFails) {
  Rig rig;
  rig.vfs.Mount("/", &rig.mount_a);
  RUN(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Bytes("data"))).ok());
    auto fd = co_await rig.vfs.Open("/f", OpenFlags::ReadOnly());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_EQ((co_await rig.vfs.Write(*fd, Bytes("nope"))).status(), base::ErrAccess());
    EXPECT_TRUE((co_await rig.vfs.Close(*fd)).ok());
    completed = true;
  });
}

TEST(VfsTest, ExclusiveCreateFailsOnExisting) {
  Rig rig;
  rig.vfs.Mount("/", &rig.mount_a);
  RUN(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Bytes("v1"))).ok());
    OpenFlags excl;
    excl.write = true;
    excl.create = true;
    excl.exclusive = true;
    EXPECT_EQ((co_await rig.vfs.Open("/f", excl)).status(), base::ErrExist());
    completed = true;
  });
}

TEST(VfsTest, OpeningDirectoryForWriteFails) {
  Rig rig;
  rig.vfs.Mount("/", &rig.mount_a);
  RUN(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/d")).ok());
    EXPECT_EQ((co_await rig.vfs.Open("/d", OpenFlags::ReadWrite())).status(),
              base::ErrIsDir());
    completed = true;
  });
}

TEST(VfsTest, SeekRepositionsSequentialReads) {
  Rig rig;
  rig.vfs.Mount("/", &rig.mount_a);
  RUN(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Bytes("abcdefgh"))).ok());
    auto fd = co_await rig.vfs.Open("/f", OpenFlags::ReadOnly());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE(rig.vfs.Seek(*fd, 4).ok());
    auto got = co_await rig.vfs.Read(*fd, 4);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(Str(*got), "efgh");
    }
    EXPECT_TRUE((co_await rig.vfs.Close(*fd)).ok());
    completed = true;
  });
}

TEST(VfsTest, RenameAcrossMountsRejected) {
  Rig rig;
  rig.vfs.Mount("/", &rig.mount_a);
  rig.vfs.Mount("/data", &rig.mount_b);
  RUN(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Bytes("x"))).ok());
    EXPECT_EQ((co_await rig.vfs.Rename("/f", "/data/f")).status(), base::ErrXDev());
    completed = true;
  });
}

TEST(VfsTest, FdCountTracksOpenCloses) {
  Rig rig;
  rig.vfs.Mount("/", &rig.mount_a);
  RUN(rig, {
    EXPECT_EQ(rig.vfs.open_fd_count(), 0);
    auto fd1 = co_await rig.vfs.Open("/a", OpenFlags::WriteCreate());
    auto fd2 = co_await rig.vfs.Open("/b", OpenFlags::WriteCreate());
    EXPECT_TRUE(fd1.ok() && fd2.ok());
    EXPECT_EQ(rig.vfs.open_fd_count(), 2);
    if (fd1.ok()) {
      (void)co_await rig.vfs.Close(*fd1);
    }
    if (fd2.ok()) {
      (void)co_await rig.vfs.Close(*fd2);
    }
    EXPECT_EQ(rig.vfs.open_fd_count(), 0);
    completed = true;
  });
}

}  // namespace
}  // namespace vfs
