#include "src/vfs/vfs.h"

#include <algorithm>
#include <utility>

namespace vfs {

void Vfs::Mount(const std::string& path, FileSystem* fs) {
  CHECK(fs != nullptr);
  CHECK(!path.empty() && path[0] == '/');
  std::string prefix = path;
  while (prefix.size() > 1 && prefix.back() == '/') {
    prefix.pop_back();
  }
  mounts_.push_back(MountPoint{prefix, fs});
  // Longest prefix first for resolution.
  std::sort(mounts_.begin(), mounts_.end(),
            [](const MountPoint& a, const MountPoint& b) { return a.prefix.size() > b.prefix.size(); });
}

std::vector<std::string> Vfs::SplitComponents(std::string_view path) {
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      ++i;
    }
    size_t start = i;
    while (i < path.size() && path[i] != '/') {
      ++i;
    }
    if (i > start) {
      parts.emplace_back(path.substr(start, i - start));
    }
  }
  return parts;
}

base::Result<Vfs::MountPoint*> Vfs::FindMount(const std::string& path, std::string* rest) {
  if (path.empty() || path[0] != '/') {
    return base::ErrInval();
  }
  for (MountPoint& m : mounts_) {
    if (m.prefix == "/") {
      *rest = path;
      return &m;
    }
    if (path.size() >= m.prefix.size() && path.compare(0, m.prefix.size(), m.prefix) == 0 &&
        (path.size() == m.prefix.size() || path[m.prefix.size()] == '/')) {
      *rest = path.substr(m.prefix.size());
      return &m;
    }
  }
  return base::ErrNoEnt();
}

sim::Task<base::Result<Vfs::Resolved>> Vfs::ResolvePath(std::string path) {
  std::string rest;
  CO_ASSIGN_OR_RETURN(MountPoint * mount, FindMount(path, &rest));
  // Copy the filesystem pointer out of the mount entry before suspending: a
  // Mount() while we walk the path would grow mounts_ and move its elements.
  FileSystem* fs = mount->fs;
  CO_ASSIGN_OR_RETURN(GnodeRef node, co_await fs->Root());
  for (const std::string& comp : SplitComponents(rest)) {
    CO_ASSIGN_OR_RETURN(node, co_await fs->Lookup(node, comp));
  }
  co_return Resolved{fs, std::move(node)};
}

sim::Task<base::Result<Vfs::ResolvedParent>> Vfs::ResolveParent(std::string path) {
  std::string rest;
  CO_ASSIGN_OR_RETURN(MountPoint * mount, FindMount(path, &rest));
  std::vector<std::string> comps = SplitComponents(rest);
  if (comps.empty()) {
    co_return base::ErrInval();  // operating on a mount root
  }
  // Copy the filesystem pointer out of the mount entry before suspending
  // (see ResolvePath).
  FileSystem* fs = mount->fs;
  CO_ASSIGN_OR_RETURN(GnodeRef node, co_await fs->Root());
  for (size_t i = 0; i + 1 < comps.size(); ++i) {
    CO_ASSIGN_OR_RETURN(node, co_await fs->Lookup(node, comps[i]));
  }
  co_return ResolvedParent{fs, std::move(node), comps.back()};
}

base::Result<Vfs::FdEntry*> Vfs::GetFd(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return base::ErrBadFd();
  }
  return &it->second;
}

sim::Task<base::Result<int>> Vfs::Open(std::string path, OpenFlags flags) {
  CO_ASSIGN_OR_RETURN(ResolvedParent parent, co_await ResolveParent(path));
  GnodeRef node;
  auto lookup = co_await parent.fs->Lookup(parent.dir, parent.leaf);
  if (lookup.ok()) {
    if (flags.create && flags.exclusive) {
      co_return base::ErrExist();
    }
    node = std::move(*lookup);
    if (node->attr.type == proto::FileType::kDirectory && flags.write) {
      co_return base::ErrIsDir();
    }
  } else if (lookup.status() == base::ErrNoEnt() && flags.create) {
    CO_ASSIGN_OR_RETURN(node, co_await parent.fs->Create(parent.dir, parent.leaf,
                                                         flags.exclusive));
  } else {
    co_return lookup.status();
  }

  CO_RETURN_IF_ERROR(co_await parent.fs->Open(node, flags.write));
  if (flags.truncate && flags.write && node->attr.size > 0) {
    auto trunc = co_await parent.fs->Truncate(node, 0);
    if (!trunc.ok()) {
      (void)co_await parent.fs->Close(node, flags.write);
      co_return trunc.status();
    }
  }

  int fd = next_fd_++;
  fds_[fd] = FdEntry{parent.fs, std::move(node), 0, flags.write};
  co_return fd;
}

sim::Task<base::Result<void>> Vfs::Close(int fd) {
  CO_ASSIGN_OR_RETURN(FdEntry * entry, GetFd(fd));
  FileSystem* fs = entry->fs;
  GnodeRef node = entry->node;
  bool write = entry->write;
  fds_.erase(fd);
  co_return co_await fs->Close(node, write);
}

sim::Task<base::Result<std::vector<uint8_t>>> Vfs::Read(int fd, uint32_t count) {
  CO_ASSIGN_OR_RETURN(FdEntry * entry, GetFd(fd));
  uint64_t offset = entry->offset;
  CO_ASSIGN_OR_RETURN(std::vector<uint8_t> data, co_await entry->fs->Read(entry->node, offset, count));
  // Refetch: the fd table may have rehashed while the read was suspended.
  CO_ASSIGN_OR_RETURN(entry, GetFd(fd));
  entry->offset = offset + data.size();
  co_return data;
}

sim::Task<base::Result<void>> Vfs::Write(int fd, std::vector<uint8_t> data) {
  CO_ASSIGN_OR_RETURN(FdEntry * entry, GetFd(fd));
  if (!entry->write) {
    co_return base::ErrAccess();
  }
  uint64_t offset = entry->offset;
  uint64_t end = offset + data.size();
  CO_RETURN_IF_ERROR(co_await entry->fs->Write(entry->node, offset, std::move(data)));
  CO_ASSIGN_OR_RETURN(entry, GetFd(fd));
  entry->offset = end;
  co_return base::OkStatus();
}

sim::Task<base::Result<std::vector<uint8_t>>> Vfs::Pread(int fd, uint64_t offset, uint32_t count) {
  CO_ASSIGN_OR_RETURN(FdEntry * entry, GetFd(fd));
  co_return co_await entry->fs->Read(entry->node, offset, count);
}

sim::Task<base::Result<void>> Vfs::Pwrite(int fd, uint64_t offset,
                                          std::vector<uint8_t> data) {
  CO_ASSIGN_OR_RETURN(FdEntry * entry, GetFd(fd));
  if (!entry->write) {
    co_return base::ErrAccess();
  }
  co_return co_await entry->fs->Write(entry->node, offset, std::move(data));
}

base::Result<uint64_t> Vfs::Seek(int fd, uint64_t offset) {
  ASSIGN_OR_RETURN(FdEntry * entry, GetFd(fd));
  entry->offset = offset;
  return offset;
}

sim::Task<base::Result<proto::Attr>> Vfs::Stat(std::string path) {
  CO_ASSIGN_OR_RETURN(Resolved r, co_await ResolvePath(path));
  co_return co_await r.fs->GetAttr(r.node);
}

sim::Task<base::Result<proto::Attr>> Vfs::Fstat(int fd) {
  CO_ASSIGN_OR_RETURN(FdEntry * entry, GetFd(fd));
  co_return co_await entry->fs->GetAttr(entry->node);
}

sim::Task<base::Result<void>> Vfs::Unlink(std::string path) {
  CO_ASSIGN_OR_RETURN(ResolvedParent parent, co_await ResolveParent(path));
  // namei resolves the victim on the way to the unlink (this is how the
  // client learns the fileid whose delayed writes it can cancel).
  CO_ASSIGN_OR_RETURN(GnodeRef target, co_await parent.fs->Lookup(parent.dir, parent.leaf));
  co_return co_await parent.fs->Remove(parent.dir, parent.leaf, std::move(target));
}

sim::Task<base::Result<void>> Vfs::MkdirPath(std::string path) {
  CO_ASSIGN_OR_RETURN(ResolvedParent parent, co_await ResolveParent(path));
  auto made = co_await parent.fs->Mkdir(parent.dir, parent.leaf);
  if (!made.ok()) {
    co_return made.status();
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> Vfs::RmdirPath(std::string path) {
  CO_ASSIGN_OR_RETURN(ResolvedParent parent, co_await ResolveParent(path));
  co_return co_await parent.fs->Rmdir(parent.dir, parent.leaf);
}

sim::Task<base::Result<void>> Vfs::Rename(std::string from, std::string to) {
  CO_ASSIGN_OR_RETURN(ResolvedParent src, co_await ResolveParent(from));
  CO_ASSIGN_OR_RETURN(ResolvedParent dst, co_await ResolveParent(to));
  if (src.fs != dst.fs) {
    // Cross-mount (and therefore cross-shard) rename cannot be done as one
    // namespace operation; surface the Unix EXDEV error rather than
    // silently misrouting the rename to one of the two file systems.
    co_return base::ErrXDev();
  }
  co_return co_await src.fs->Rename(src.dir, src.leaf, dst.dir, dst.leaf);
}

sim::Task<base::Result<std::vector<proto::DirEntry>>> Vfs::ReadDir(std::string path) {
  CO_ASSIGN_OR_RETURN(Resolved r, co_await ResolvePath(path));
  co_return co_await r.fs->ReadDir(r.node);
}

sim::Task<base::Result<void>> Vfs::Fsync(int fd) {
  CO_ASSIGN_OR_RETURN(FdEntry * entry, GetFd(fd));
  co_return co_await entry->fs->Fsync(entry->node);
}

sim::Task<base::Result<std::vector<uint8_t>>> Vfs::ReadFile(std::string path,
                                                            uint32_t chunk) {
  CO_ASSIGN_OR_RETURN(int fd, co_await Open(path, OpenFlags::ReadOnly()));
  std::vector<uint8_t> out;
  while (true) {
    auto data = co_await Read(fd, chunk);
    if (!data.ok()) {
      (void)co_await Close(fd);
      co_return data.status();
    }
    if (data->empty()) {
      break;
    }
    out.insert(out.end(), data->begin(), data->end());
  }
  CO_RETURN_IF_ERROR(co_await Close(fd));
  co_return out;
}

sim::Task<base::Result<void>> Vfs::WriteFile(std::string path,
                                             std::vector<uint8_t> data, uint32_t chunk) {
  CO_ASSIGN_OR_RETURN(int fd, co_await Open(path, OpenFlags::WriteCreate()));
  uint64_t offset = 0;
  while (offset < data.size()) {
    uint64_t n = std::min<uint64_t>(chunk, data.size() - offset);
    std::vector<uint8_t> slice(data.begin() + static_cast<int64_t>(offset),
                               data.begin() + static_cast<int64_t>(offset + n));
    auto written = co_await Write(fd, std::move(slice));
    if (!written.ok()) {
      (void)co_await Close(fd);
      co_return written.status();
    }
    offset += n;
  }
  co_return co_await Close(fd);
}

}  // namespace vfs
