#include "src/fs/local_mount.h"

#include <algorithm>

namespace fs {
namespace {

// CPU charged per operation: syscall plus namei component work, and a
// copyin/copyout per data block.
constexpr sim::Duration kPerOp = sim::Usec(150);
constexpr sim::Duration kPerBlock = sim::Usec(80);

}  // namespace

LocalMount::LocalMount(sim::Simulator& simulator, LocalFs& fs, cache::BufferCache& cache,
                       sim::Cpu* cpu)
    : simulator_(simulator), fs_(fs), cache_(cache), cpu_(cpu) {
  cache::Backing backing;
  backing.fetch = [this](uint64_t fileid, uint64_t block)
      -> sim::Task<base::Result<proto::Bytes>> {
    auto it = nodes_.find(fileid);
    if (it == nodes_.end()) {
      co_return base::ErrStale();
    }
    auto rep = co_await fs_.Read(it->second->fh, block * kBlockSize, kBlockSize);
    if (!rep.ok()) {
      co_return rep.status();
    }
    co_return std::move(rep->data);
  };
  backing.store = [this](uint64_t fileid, uint64_t block,
                         proto::Bytes data) -> sim::Task<base::Result<void>> {
    auto it = nodes_.find(fileid);
    if (it == nodes_.end()) {
      co_return base::ErrStale();  // deleted before the delayed write ran
    }
    auto rep = co_await fs_.Write(it->second->fh, block * kBlockSize, std::move(data),
                                  LocalFs::WriteMode::kFlush);
    if (!rep.ok()) {
      co_return rep.status();
    }
    co_return base::OkStatus();
  };
  mount_id_ = cache_.RegisterMount(std::move(backing));
}

sim::Task<void> LocalMount::Charge(sim::Duration cost) {
  if (cpu_ != nullptr) {
    co_await cpu_->Run(cost);
  }
}

vfs::GnodeRef LocalMount::NodeFor(const proto::FileHandle& fh, const proto::Attr& attr) {
  auto it = nodes_.find(fh.fileid);
  if (it != nodes_.end() && it->second->fh == fh) {
    return it->second;
  }
  auto node = std::make_shared<vfs::Gnode>();
  node->fh = fh;
  node->attr = attr;
  nodes_[fh.fileid] = node;
  return node;
}

sim::Task<base::Result<vfs::GnodeRef>> LocalMount::Root() {
  co_await Charge(kPerOp);
  proto::FileHandle root = fs_.root();
  CO_ASSIGN_OR_RETURN(proto::Attr attr, fs_.GetAttr(root));
  co_return NodeFor(root, attr);
}

sim::Task<base::Result<vfs::GnodeRef>> LocalMount::Lookup(vfs::GnodeRef dir,
                                                          std::string name) {
  co_await Charge(kPerOp);
  CO_ASSIGN_OR_RETURN(proto::LookupRep rep, co_await fs_.Lookup(dir->fh, name));
  vfs::GnodeRef node = NodeFor(rep.fh, rep.attr);
  // Delayed writes make the gnode's size authoritative over the on-disk one.
  if (!cache_.HasDirty(mount_id_, rep.fh.fileid)) {
    node->attr = rep.attr;
  }
  co_return node;
}

sim::Task<base::Result<vfs::GnodeRef>> LocalMount::Create(vfs::GnodeRef dir,
                                                          std::string name,
                                                          bool exclusive) {
  co_await Charge(kPerOp);
  CO_ASSIGN_OR_RETURN(proto::CreateRep rep, co_await fs_.Create(dir->fh, name, exclusive));
  co_return NodeFor(rep.fh, rep.attr);
}

sim::Task<base::Result<vfs::GnodeRef>> LocalMount::Mkdir(vfs::GnodeRef dir,
                                                         std::string name) {
  co_await Charge(kPerOp);
  CO_ASSIGN_OR_RETURN(proto::CreateRep rep, co_await fs_.Mkdir(dir->fh, name));
  co_return NodeFor(rep.fh, rep.attr);
}

sim::Task<base::Result<void>> LocalMount::Open(vfs::GnodeRef node, bool write) {
  co_await Charge(kPerOp);
  if (write) {
    ++node->open_writes;
  } else {
    ++node->open_reads;
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> LocalMount::Close(vfs::GnodeRef node, bool write) {
  co_await Charge(kPerOp);
  if (write) {
    CHECK_GT(node->open_writes, 0u);
    --node->open_writes;
  } else {
    CHECK_GT(node->open_reads, 0u);
    --node->open_reads;
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<std::vector<uint8_t>>> LocalMount::Read(vfs::GnodeRef node, uint64_t offset,
                                                               uint32_t count) {
  CO_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                      co_await cache_.Read(mount_id_, node->fh.fileid, offset, count,
                                           node->attr.size, /*read_ahead=*/true));
  co_await Charge(kPerOp + kPerBlock * static_cast<int64_t>(1 + data.size() / kBlockSize));
  co_return data;
}

sim::Task<base::Result<void>> LocalMount::Write(vfs::GnodeRef node, uint64_t offset,
                                                std::vector<uint8_t> data) {
  co_await Charge(kPerOp + kPerBlock * static_cast<int64_t>(1 + data.size() / kBlockSize));
  uint64_t end = offset + data.size();
  CO_RETURN_IF_ERROR(co_await cache_.WriteDelayed(mount_id_, node->fh.fileid, offset,
                                                  std::move(data), node->attr.size));
  node->attr.size = std::max<uint64_t>(node->attr.size, end);
  node->attr.mtime = simulator_.Now();
  co_return base::OkStatus();
}

sim::Task<base::Result<proto::Attr>> LocalMount::GetAttr(vfs::GnodeRef node) {
  co_await Charge(kPerOp);
  if (cache_.HasDirty(mount_id_, node->fh.fileid)) {
    co_return node->attr;  // in-memory inode reflects delayed writes
  }
  auto attr = fs_.GetAttr(node->fh);
  if (attr.ok()) {
    // Preserve the locally tracked size if it is ahead (clean cache blocks
    // flushed but attr caching raced); sizes only grow in our workloads.
    proto::Attr merged = *attr;
    merged.size = std::max(merged.size, node->attr.size);
    node->attr = merged;
  }
  co_return node->attr;
}

sim::Task<base::Result<void>> LocalMount::Truncate(vfs::GnodeRef node, uint64_t size) {
  co_await Charge(kPerOp);
  cache_.CancelDirty(mount_id_, node->fh.fileid);
  cache_.InvalidateFile(mount_id_, node->fh.fileid);
  proto::SetAttrReq req;
  req.size = size;
  CO_ASSIGN_OR_RETURN(proto::Attr attr, co_await fs_.SetAttr(node->fh, req));
  node->attr = attr;
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> LocalMount::Remove(vfs::GnodeRef dir, std::string name,
                                                 vfs::GnodeRef target) {
  co_await Charge(kPerOp);
  // The delete-before-writeback optimization: pending delayed writes for
  // the victim never reach the disk.
  cache_.Forget(mount_id_, target->fh.fileid);
  CO_RETURN_IF_ERROR(co_await fs_.Remove(dir->fh, name));
  nodes_.erase(target->fh.fileid);
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> LocalMount::Rmdir(vfs::GnodeRef dir, std::string name) {
  co_await Charge(kPerOp);
  co_return co_await fs_.Rmdir(dir->fh, name);
}

sim::Task<base::Result<void>> LocalMount::Rename(vfs::GnodeRef from_dir,
                                                 std::string from_name,
                                                 vfs::GnodeRef to_dir,
                                                 std::string to_name) {
  co_await Charge(kPerOp);
  co_return co_await fs_.Rename(from_dir->fh, from_name, to_dir->fh, to_name);
}

sim::Task<base::Result<std::vector<proto::DirEntry>>> LocalMount::ReadDir(vfs::GnodeRef dir) {
  co_await Charge(kPerOp);
  std::vector<proto::DirEntry> all;
  uint64_t cookie = 0;
  while (true) {
    CO_ASSIGN_OR_RETURN(proto::ReadDirRep rep, co_await fs_.ReadDir(dir->fh, cookie, 64));
    for (auto& e : rep.entries) {
      cookie = e.cookie;
      all.push_back(std::move(e));
    }
    if (rep.eof) {
      break;
    }
  }
  co_return all;
}

sim::Task<base::Result<void>> LocalMount::Fsync(vfs::GnodeRef node) {
  co_await Charge(kPerOp);
  co_return co_await cache_.FlushFile(mount_id_, node->fh.fileid);
}

}  // namespace fs
