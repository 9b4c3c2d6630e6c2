// LocalMount: the local-disk configuration — LocalFs mounted directly on a
// machine through the shared buffer cache with the traditional Unix delayed
// write policy (data blocks age in the cache; /etc/update syncs them every
// 30 s; deleting a file cancels its pending writes; namespace operations
// write metadata synchronously).
//
// This is the "local" column of the paper's tables.
#ifndef SRC_FS_LOCAL_MOUNT_H_
#define SRC_FS_LOCAL_MOUNT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/fs/local_fs.h"
#include "src/sim/cpu.h"
#include "src/vfs/vfs.h"

namespace fs {

class LocalMount : public vfs::FileSystem {
 public:
  // `cpu` may be null (no compute charged, e.g. in unit tests).
  LocalMount(sim::Simulator& simulator, LocalFs& fs, cache::BufferCache& cache, sim::Cpu* cpu);

  sim::Task<base::Result<vfs::GnodeRef>> Root() override;
  sim::Task<base::Result<vfs::GnodeRef>> Lookup(vfs::GnodeRef dir, std::string name) override;
  sim::Task<base::Result<vfs::GnodeRef>> Create(vfs::GnodeRef dir, std::string name,
                                                bool exclusive) override;
  sim::Task<base::Result<vfs::GnodeRef>> Mkdir(vfs::GnodeRef dir, std::string name) override;
  sim::Task<base::Result<void>> Open(vfs::GnodeRef node, bool write) override;
  sim::Task<base::Result<void>> Close(vfs::GnodeRef node, bool write) override;
  sim::Task<base::Result<std::vector<uint8_t>>> Read(vfs::GnodeRef node, uint64_t offset,
                                                     uint32_t count) override;
  sim::Task<base::Result<void>> Write(vfs::GnodeRef node, uint64_t offset,
                                      std::vector<uint8_t> data) override;
  sim::Task<base::Result<proto::Attr>> GetAttr(vfs::GnodeRef node) override;
  sim::Task<base::Result<void>> Truncate(vfs::GnodeRef node, uint64_t size) override;
  sim::Task<base::Result<void>> Remove(vfs::GnodeRef dir, std::string name,
                                       vfs::GnodeRef target) override;
  sim::Task<base::Result<void>> Rmdir(vfs::GnodeRef dir, std::string name) override;
  sim::Task<base::Result<void>> Rename(vfs::GnodeRef from_dir, std::string from_name,
                                       vfs::GnodeRef to_dir, std::string to_name) override;
  sim::Task<base::Result<std::vector<proto::DirEntry>>> ReadDir(vfs::GnodeRef dir) override;
  sim::Task<base::Result<void>> Fsync(vfs::GnodeRef node) override;

  cache::BufferCache& buffer_cache() { return cache_; }
  int mount_id() const { return mount_id_; }

 private:
  vfs::GnodeRef NodeFor(const proto::FileHandle& fh, const proto::Attr& attr);
  sim::Task<void> Charge(sim::Duration cost);

  sim::Simulator& simulator_;
  LocalFs& fs_;
  cache::BufferCache& cache_;
  sim::Cpu* cpu_;
  int mount_id_;
  std::unordered_map<uint64_t, vfs::GnodeRef> nodes_;
};

}  // namespace fs

#endif  // SRC_FS_LOCAL_MOUNT_H_
