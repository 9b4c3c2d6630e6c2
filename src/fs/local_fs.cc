#include "src/fs/local_fs.h"

#include <algorithm>
#include <utility>

namespace fs {

LocalFs::LocalFs(sim::Simulator& simulator, disk::Disk& disk, LocalFsParams params)
    : simulator_(simulator), disk_(disk), params_(params) {
  Inode& root = AllocInode(proto::FileType::kDirectory);
  root_ = HandleFor(root);
}

LocalFs::Inode& LocalFs::AllocInode(proto::FileType type) {
  uint64_t id = next_ino_++;
  Inode inode;
  inode.id = id;
  inode.type = type;
  inode.mtime = simulator_.Now();
  inode.ctime = simulator_.Now();
  auto [it, inserted] = inodes_.emplace(id, std::move(inode));
  CHECK(inserted);
  return it->second;
}

void LocalFs::DestroyInode(uint64_t id) {
  CacheEvictFile(id);
  inodes_.erase(id);
}

proto::FileHandle LocalFs::HandleFor(const Inode& inode) const {
  return proto::FileHandle{params_.fsid, inode.id, inode.gen};
}

proto::Attr LocalFs::AttrFor(const Inode& inode) const {
  proto::Attr attr;
  attr.type = inode.type;
  attr.size = inode.type == proto::FileType::kRegular ? inode.size : inode.entries.size();
  attr.nlink = inode.nlink;
  attr.mtime = inode.mtime;
  attr.ctime = inode.ctime;
  attr.fileid = inode.id;
  return attr;
}

base::Result<LocalFs::Inode*> LocalFs::Resolve(proto::FileHandle fh) {
  if (fh.fsid != params_.fsid) {
    return base::ErrStale();
  }
  auto it = inodes_.find(fh.fileid);
  if (it == inodes_.end() || it->second.gen != fh.gen) {
    return base::ErrStale();
  }
  return &it->second;
}

base::Result<LocalFs::Inode*> LocalFs::ResolveDir(proto::FileHandle fh) {
  ASSIGN_OR_RETURN(Inode * inode, Resolve(fh));
  if (inode->type != proto::FileType::kDirectory) {
    return base::ErrNotDir();
  }
  return inode;
}

sim::Task<void> LocalFs::MetadataWrite() { co_await disk_.Write(kBlockSize); }

// --- Server block cache (timing only) ---------------------------------------

bool LocalFs::CacheHit(uint64_t fileid, uint64_t block) {
  auto it = cache_.find(CacheKey{fileid, block});
  if (it == cache_.end()) {
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return true;
}

void LocalFs::CacheInsert(uint64_t fileid, uint64_t block) {
  CacheKey key{fileid, block};
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(key);
  cache_[key] = lru_.begin();
  cached_blocks_[fileid].insert(block);
  while (cache_.size() > params_.cache_blocks) {
    CacheKey victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);
    auto fit = cached_blocks_.find(victim.first);
    fit->second.erase(victim.second);
    if (fit->second.empty()) {
      cached_blocks_.erase(fit);
    }
  }
}

void LocalFs::CacheEvictFile(uint64_t fileid) {
  auto blocks = cached_blocks_.extract(fileid);
  if (blocks.empty()) {
    return;
  }
  for (uint64_t block : blocks.mapped()) {
    auto it = cache_.find(CacheKey{fileid, block});
    lru_.erase(it->second);
    cache_.erase(it);
  }
}

// --- File contents -----------------------------------------------------------

void LocalFs::Resize(Inode& inode, uint64_t size) {
  uint64_t count = (size + kBlockSize - 1) / kBlockSize;
  if (size < inode.size) {
    inode.blocks.resize(count);
    if (size % kBlockSize != 0) {
      inode.blocks.back() = inode.blocks.back().Resized(size % kBlockSize);
    }
  } else if (size > inode.size) {
    if (!inode.blocks.empty() && inode.blocks.back().size() < kBlockSize) {
      uint64_t last_start = (inode.blocks.size() - 1) * kBlockSize;
      inode.blocks.back() =
          inode.blocks.back().Resized(std::min<uint64_t>(kBlockSize, size - last_start));
    }
    while (inode.blocks.size() < count) {
      uint64_t start = inode.blocks.size() * kBlockSize;
      std::vector<uint8_t> zeros(std::min<uint64_t>(kBlockSize, size - start));
      inode.blocks.emplace_back(std::move(zeros));
    }
  }
  inode.size = size;
}

void LocalFs::StoreData(Inode& inode, uint64_t offset, const proto::Bytes& data) {
  if (offset > inode.size) {
    Resize(inode, offset);
  }
  uint64_t end = offset + data.size();
  for (uint64_t b = offset / kBlockSize; b * kBlockSize < end; ++b) {
    uint64_t block_start = b * kBlockSize;
    uint64_t from = std::max(offset, block_start) - block_start;
    uint64_t to = std::min(end, block_start + kBlockSize) - block_start;
    if (b == inode.blocks.size()) {
      inode.blocks.emplace_back();
    }
    // A write of a block's whole content stores `data` itself when that is
    // exactly the new block; anything less edits a copy.
    proto::Bytes& block = inode.blocks[b];
    block = block.Overwritten(from, data, block_start + from - offset, to - from);
  }
  inode.size = std::max(inode.size, end);
}

proto::Bytes LocalFs::LoadData(const Inode& inode, uint64_t offset, uint64_t end) {
  uint64_t first = offset / kBlockSize;
  if (offset == first * kBlockSize && end - offset == inode.blocks[first].size()) {
    return inode.blocks[first];
  }
  std::vector<uint8_t> out;
  out.reserve(end - offset);
  for (uint64_t b = first; b * kBlockSize < end; ++b) {
    uint64_t block_start = b * kBlockSize;
    const proto::Bytes& block = inode.blocks[b];
    out.insert(out.end(), block.begin() + (std::max(offset, block_start) - block_start),
               block.begin() + (std::min(end, block_start + kBlockSize) - block_start));
  }
  return proto::Bytes(std::move(out));
}

// --- Namespace ---------------------------------------------------------------

sim::Task<base::Result<proto::LookupRep>> LocalFs::Lookup(proto::FileHandle dir,
                                                          std::string name) {
  CO_ASSIGN_OR_RETURN(Inode * parent, ResolveDir(dir));
  auto it = parent->entries.find(name);
  if (it == parent->entries.end()) {
    co_return base::ErrNoEnt();
  }
  auto child = inodes_.find(it->second);
  CHECK(child != inodes_.end());
  proto::LookupRep rep;
  rep.fh = HandleFor(child->second);
  rep.attr = AttrFor(child->second);
  co_return rep;
}

sim::Task<base::Result<proto::CreateRep>> LocalFs::Create(proto::FileHandle dir,
                                                          std::string name,
                                                          bool exclusive) {
  CO_ASSIGN_OR_RETURN(Inode * parent, ResolveDir(dir));
  if (name.empty() || name == "." || name == "..") {
    co_return base::ErrInval();
  }
  auto it = parent->entries.find(name);
  if (it != parent->entries.end()) {
    if (exclusive) {
      co_return base::ErrExist();
    }
    Inode& existing = inodes_.at(it->second);
    if (existing.type == proto::FileType::kDirectory) {
      co_return base::ErrIsDir();
    }
    proto::CreateRep rep;
    rep.fh = HandleFor(existing);
    rep.attr = AttrFor(existing);
    co_return rep;
  }
  Inode& child = AllocInode(proto::FileType::kRegular);
  parent->entries[name] = child.id;
  parent->mtime = simulator_.Now();
  // Snapshot the reply before suspending: the entry is already visible, so a
  // concurrent Remove during the metadata write would destroy `child`.
  proto::CreateRep rep;
  rep.fh = HandleFor(child);
  rep.attr = AttrFor(child);
  co_await MetadataWrite();
  co_return rep;
}

sim::Task<base::Result<proto::CreateRep>> LocalFs::Mkdir(proto::FileHandle dir,
                                                         std::string name) {
  CO_ASSIGN_OR_RETURN(Inode * parent, ResolveDir(dir));
  if (name.empty() || parent->entries.contains(name)) {
    co_return parent->entries.contains(name) ? base::ErrExist() : base::ErrInval();
  }
  Inode& child = AllocInode(proto::FileType::kDirectory);
  child.nlink = 2;
  parent->entries[name] = child.id;
  parent->mtime = simulator_.Now();
  // Snapshot the reply before suspending: the entry is already visible, so a
  // concurrent Rmdir during the metadata write would destroy `child`.
  proto::CreateRep rep;
  rep.fh = HandleFor(child);
  rep.attr = AttrFor(child);
  co_await MetadataWrite();
  co_return rep;
}

sim::Task<base::Result<void>> LocalFs::Remove(proto::FileHandle dir, std::string name) {
  CO_ASSIGN_OR_RETURN(Inode * parent, ResolveDir(dir));
  auto it = parent->entries.find(name);
  if (it == parent->entries.end()) {
    co_return base::ErrNoEnt();
  }
  Inode& victim = inodes_.at(it->second);
  if (victim.type == proto::FileType::kDirectory) {
    co_return base::ErrIsDir();
  }
  parent->entries.erase(it);
  parent->mtime = simulator_.Now();
  DestroyInode(victim.id);
  co_await MetadataWrite();
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> LocalFs::Rmdir(proto::FileHandle dir, std::string name) {
  CO_ASSIGN_OR_RETURN(Inode * parent, ResolveDir(dir));
  auto it = parent->entries.find(name);
  if (it == parent->entries.end()) {
    co_return base::ErrNoEnt();
  }
  Inode& victim = inodes_.at(it->second);
  if (victim.type != proto::FileType::kDirectory) {
    co_return base::ErrNotDir();
  }
  if (!victim.entries.empty()) {
    co_return base::ErrNotEmpty();
  }
  parent->entries.erase(it);
  parent->mtime = simulator_.Now();
  DestroyInode(victim.id);
  co_await MetadataWrite();
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> LocalFs::Rename(proto::FileHandle from_dir,
                                              std::string from_name,
                                              proto::FileHandle to_dir,
                                              std::string to_name) {
  CO_ASSIGN_OR_RETURN(Inode * src, ResolveDir(from_dir));
  CO_ASSIGN_OR_RETURN(Inode * dst, ResolveDir(to_dir));
  auto it = src->entries.find(from_name);
  if (it == src->entries.end()) {
    co_return base::ErrNoEnt();
  }
  uint64_t moving = it->second;
  auto existing = dst->entries.find(to_name);
  if (existing != dst->entries.end() && existing->second != moving) {
    Inode& victim = inodes_.at(existing->second);
    if (victim.type == proto::FileType::kDirectory) {
      if (!victim.entries.empty()) {
        co_return base::ErrNotEmpty();
      }
    }
    DestroyInode(victim.id);
  }
  src->entries.erase(it);
  dst->entries[to_name] = moving;
  src->mtime = simulator_.Now();
  dst->mtime = simulator_.Now();
  co_await MetadataWrite();
  co_return base::OkStatus();
}

sim::Task<base::Result<proto::ReadDirRep>> LocalFs::ReadDir(proto::FileHandle dir, uint64_t cookie,
                                                            uint32_t count) {
  CO_ASSIGN_OR_RETURN(Inode * parent, ResolveDir(dir));
  proto::ReadDirRep rep;
  uint64_t index = 0;
  for (const auto& [name, ino] : parent->entries) {
    if (index++ < cookie) {
      continue;
    }
    if (rep.entries.size() >= count) {
      rep.eof = false;
      co_return rep;
    }
    proto::DirEntry entry;
    entry.fileid = ino;
    entry.name = name;
    entry.cookie = index;
    rep.entries.push_back(std::move(entry));
  }
  rep.eof = true;
  co_return rep;
}

// --- Attributes --------------------------------------------------------------

base::Result<proto::Attr> LocalFs::GetAttr(proto::FileHandle fh) {
  ASSIGN_OR_RETURN(Inode * inode, Resolve(fh));
  return AttrFor(*inode);
}

sim::Task<base::Result<proto::Attr>> LocalFs::SetAttr(proto::FileHandle fh,
                                                      proto::SetAttrReq req) {
  CO_ASSIGN_OR_RETURN(Inode * inode, Resolve(fh));
  if (req.size.has_value()) {
    if (inode->type != proto::FileType::kRegular) {
      co_return base::ErrIsDir();
    }
    Resize(*inode, *req.size);
    inode->mtime = simulator_.Now();
    CacheEvictFile(inode->id);
    co_await MetadataWrite();
    // The inode may have been deleted while we were waiting on the disk.
    CO_ASSIGN_OR_RETURN(inode, Resolve(fh));
  }
  if (req.mtime.has_value()) {
    inode->mtime = *req.mtime;
  }
  inode->ctime = simulator_.Now();
  co_return AttrFor(*inode);
}

// --- Data --------------------------------------------------------------------

sim::Task<base::Result<proto::ReadRep>> LocalFs::Read(proto::FileHandle fh, uint64_t offset,
                                                      uint32_t count) {
  CO_ASSIGN_OR_RETURN(Inode * inode, Resolve(fh));
  if (inode->type != proto::FileType::kRegular) {
    co_return base::ErrIsDir();
  }
  proto::ReadRep rep;
  uint64_t size = inode->size;
  uint64_t end = std::min<uint64_t>(size, offset + count);
  // Charge disk time for blocks missing from the server cache.
  if (offset < end) {
    uint64_t first_block = offset / kBlockSize;
    uint64_t last_block = (end - 1) / kBlockSize;
    // Copy the id out of the inode: each ReadBlock suspends, and the inode
    // can be destroyed by a concurrent Remove while the disk is busy.
    uint64_t fileid = inode->id;
    for (uint64_t b = first_block; b <= last_block; ++b) {
      if (!CacheHit(fileid, b)) {
        co_await disk_.ReadBlock(fileid, b, kBlockSize);
        CacheInsert(fileid, b);
      }
    }
    // The inode may have been deleted while we were waiting on the disk.
    CO_ASSIGN_OR_RETURN(inode, Resolve(fh));
    size = inode->size;
    end = std::min<uint64_t>(size, offset + count);
  }
  if (offset < end) {
    rep.data = LoadData(*inode, offset, end);
  }
  rep.eof = offset + rep.data.size() >= size;
  rep.attr = AttrFor(*inode);
  co_return rep;
}

sim::Task<base::Result<proto::Attr>> LocalFs::Write(proto::FileHandle fh, uint64_t offset,
                                                    proto::Bytes data, WriteMode mode) {
  CO_ASSIGN_OR_RETURN(Inode * inode, Resolve(fh));
  if (inode->type != proto::FileType::kRegular) {
    co_return base::ErrIsDir();
  }
  uint64_t fileid = inode->id;
  if (mode != WriteMode::kMemory && !data.empty()) {
    uint64_t first_block = offset / kBlockSize;
    uint64_t last_block = (offset + data.size() - 1) / kBlockSize;
    for (uint64_t b = first_block; b <= last_block; ++b) {
      co_await disk_.WriteBlock(fileid, b, kBlockSize);
      CacheInsert(fileid, b);
    }
    if (mode == WriteMode::kSync) {
      // Stable-storage contract: the inode update goes out with the data.
      co_await disk_.Write(512);
    }
    // Re-resolve: the file may have been removed while the disk was busy.
    CO_ASSIGN_OR_RETURN(inode, Resolve(fh));
  }
  StoreData(*inode, offset, data);
  inode->mtime = simulator_.Now();
  if (mode == WriteMode::kMemory) {
    // Data arrived in memory only; blocks are resident in the cache for
    // subsequent reads.
    uint64_t first_block = offset / kBlockSize;
    uint64_t last_block = data.empty() ? first_block : (offset + data.size() - 1) / kBlockSize;
    for (uint64_t b = first_block; b <= last_block; ++b) {
      CacheInsert(inode->id, b);
    }
  }
  co_return AttrFor(*inode);
}

// --- SNFS version support ------------------------------------------------------

base::Result<uint64_t> LocalFs::Version(proto::FileHandle fh) {
  ASSIGN_OR_RETURN(Inode * inode, Resolve(fh));
  return inode->version;
}

base::Result<uint64_t> LocalFs::BumpVersion(proto::FileHandle fh) {
  ASSIGN_OR_RETURN(Inode * inode, Resolve(fh));
  return ++inode->version;
}

}  // namespace fs
