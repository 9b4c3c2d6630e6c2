// LocalFs: an in-memory Unix-like file system over a simulated disk.
//
// This is the substrate under every configuration: NFS and SNFS servers
// translate RPCs into LocalFs operations (as the Ultrix server code
// "simply translates RPC requests into GFS operations"), and the
// local-disk benchmark configurations mount it directly.
//
// Timing model (FFS-vintage):
//  * data reads go through a block-presence LRU ("server buffer cache");
//    misses cost a disk read;
//  * data writes cost a synchronous disk write when `sync` is set (the NFS
//    server requirement) and otherwise only update memory (the caller — a
//    client buffer cache — owns delay/flush policy);
//  * namespace operations (create/remove/rename/mkdir/rmdir/truncate)
//    perform a synchronous structural (metadata) disk write, which is why
//    even a "never writes data" workload still pays some disk time
//    (paper §5.4).
//
// A regular file is a vector of per-4 KB proto::Bytes blocks, so a
// whole-block read returns the stored block and a whole-block write stores
// the caller's buffer: a block fetched by or written back from a client
// cache is one buffer on both machines. Every partial edit replaces the
// block's buffer (copy-on-write), so a buffer handed out never changes.
#ifndef SRC_FS_LOCAL_FS_H_
#define SRC_FS_LOCAL_FS_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/disk/disk.h"
#include "src/proto/messages.h"
#include "src/proto/types.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace fs {

inline constexpr uint32_t kBlockSize = 4096;  // the paper's test block size

struct LocalFsParams {
  uint32_t fsid = 1;
  // Server buffer cache size in blocks (paper: ~3.5 MB on the server).
  size_t cache_blocks = 896;
};

class LocalFs {
 public:
  LocalFs(sim::Simulator& simulator, disk::Disk& disk, LocalFsParams params = {});

  LocalFs(const LocalFs&) = delete;
  LocalFs& operator=(const LocalFs&) = delete;

  uint32_t fsid() const { return params_.fsid; }
  proto::FileHandle root() const { return root_; }

  // --- Namespace operations -------------------------------------------------
  sim::Task<base::Result<proto::LookupRep>> Lookup(proto::FileHandle dir, std::string name);
  sim::Task<base::Result<proto::CreateRep>> Create(proto::FileHandle dir, std::string name,
                                                   bool exclusive);
  sim::Task<base::Result<proto::CreateRep>> Mkdir(proto::FileHandle dir, std::string name);
  sim::Task<base::Result<void>> Remove(proto::FileHandle dir, std::string name);
  sim::Task<base::Result<void>> Rmdir(proto::FileHandle dir, std::string name);
  sim::Task<base::Result<void>> Rename(proto::FileHandle from_dir, std::string from_name,
                                       proto::FileHandle to_dir, std::string to_name);
  sim::Task<base::Result<proto::ReadDirRep>> ReadDir(proto::FileHandle dir, uint64_t cookie,
                                                     uint32_t count);

  // --- Attributes -----------------------------------------------------------
  base::Result<proto::Attr> GetAttr(proto::FileHandle fh);
  sim::Task<base::Result<proto::Attr>> SetAttr(proto::FileHandle fh, proto::SetAttrReq req);

  // How a write is charged against the disk.
  enum class WriteMode {
    // Stable write as the NFS server must perform per write RPC: each data
    // block at full positioning cost plus one synchronous metadata (inode)
    // update per call.
    kSync,
    // Background flush of delayed blocks (local FS / server write-behind):
    // positional block writes that benefit from sequential clustering, no
    // per-call metadata write.
    kFlush,
    // Memory only (population helpers, data handed over asynchronously);
    // no disk time charged.
    kMemory,
  };

  // --- Data -----------------------------------------------------------------
  // Read up to `count` bytes; reads past EOF return what exists (eof set).
  sim::Task<base::Result<proto::ReadRep>> Read(proto::FileHandle fh, uint64_t offset,
                                               uint32_t count);
  sim::Task<base::Result<proto::Attr>> Write(proto::FileHandle fh, uint64_t offset,
                                             proto::Bytes data, WriteMode mode);

  // --- SNFS version support -------------------------------------------------
  // The version number lives with the file (as Sprite keeps it on stable
  // storage; the paper's global-counter shortcut is noted in §4.3.3 as
  // "suitable only for experimental use").
  base::Result<uint64_t> Version(proto::FileHandle fh);
  base::Result<uint64_t> BumpVersion(proto::FileHandle fh);  // returns the new version

  // Number of live inodes (tests).
  size_t inode_count() const { return inodes_.size(); }

  disk::Disk& disk() { return disk_; }

 private:
  struct Inode {
    uint64_t id = 0;
    uint32_t gen = 0;
    proto::FileType type = proto::FileType::kRegular;
    // Regular files: `size` bytes in ceil(size / kBlockSize) blocks, every
    // one full but the last.
    uint64_t size = 0;
    std::vector<proto::Bytes> blocks;
    std::map<std::string, uint64_t> entries;      // directories (sorted for readdir)
    uint32_t nlink = 1;
    sim::Time mtime = 0;
    sim::Time ctime = 0;
    uint64_t version = 1;
  };

  base::Result<Inode*> Resolve(proto::FileHandle fh);
  base::Result<Inode*> ResolveDir(proto::FileHandle fh);
  proto::FileHandle HandleFor(const Inode& inode) const;
  proto::Attr AttrFor(const Inode& inode) const;
  Inode& AllocInode(proto::FileType type);  // lint: unstable-source
  void DestroyInode(uint64_t id);
  // Truncates or zero-extends a regular file to `size` bytes.
  static void Resize(Inode& inode, uint64_t size);
  // Writes `data` at `offset`, zero-filling any hole past EOF.
  static void StoreData(Inode& inode, uint64_t offset, const proto::Bytes& data);
  // Bytes [offset, end) of a regular file: the stored block itself when the
  // range is exactly one block's content, else a new buffer.
  static proto::Bytes LoadData(const Inode& inode, uint64_t offset, uint64_t end);

  // Structural (metadata) write: synchronous, as FFS's are.
  sim::Task<void> MetadataWrite();

  // Block-presence server cache (timing only; data lives in the inode).
  bool CacheHit(uint64_t fileid, uint64_t block);
  void CacheInsert(uint64_t fileid, uint64_t block);
  // Visits only that file's cached blocks.
  void CacheEvictFile(uint64_t fileid);

  sim::Simulator& simulator_;
  disk::Disk& disk_;
  LocalFsParams params_;
  proto::FileHandle root_;
  uint64_t next_ino_ = 1;
  std::unordered_map<uint64_t, Inode> inodes_;

  using CacheKey = std::pair<uint64_t, uint64_t>;
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const {
      return std::hash<uint64_t>()(k.first * 1000003ULL + k.second);
    }
  };
  std::list<CacheKey> lru_;  // front = most recent
  std::unordered_map<CacheKey, std::list<CacheKey>::iterator, CacheKeyHash> cache_;
  std::unordered_map<uint64_t, std::set<uint64_t>> cached_blocks_;  // fileid -> blocks
};

}  // namespace fs

#endif  // SRC_FS_LOCAL_FS_H_
