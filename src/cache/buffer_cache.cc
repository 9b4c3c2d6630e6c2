#include "src/cache/buffer_cache.h"

#include <algorithm>
#include <string>

#include "src/trace/trace.h"

namespace cache {
namespace {

// The sync daemon is traditional Unix /etc/update: every kSyncInterval it
// writes ALL dirty blocks.
constexpr sim::Duration kSyncInterval = sim::Sec(30);
// Dirty evictions go through a bounded asynchronous write-behind pipeline;
// the evicting writer stalls only when all kFlushBehindSlots are busy (i.e.
// the process outruns the backing store's drain rate).
constexpr int kFlushBehindSlots = 4;

// Appends block bytes [from, to) to `out`, clipped to what the block holds.
void AppendRange(std::vector<uint8_t>& out, const proto::Bytes& block, uint64_t from,
                 uint64_t to) {
  uint64_t avail = std::min<uint64_t>(to, block.size());
  if (from < avail) {
    out.insert(out.end(), block.begin() + from, block.begin() + avail);
  }
}

}  // namespace

BufferCache::BufferCache(sim::Simulator& simulator, BufferCacheParams params)
    : simulator_(simulator),
      params_(params),
      flush_behind_(simulator, kFlushBehindSlots) {}

int BufferCache::RegisterMount(Backing backing) {
  mounts_.push_back(std::move(backing));
  return static_cast<int>(mounts_.size()) - 1;
}

void BufferCache::Start() {
  if (!params_.enable_sync_daemon) {
    return;
  }
  if (running_) {
    // Restart racing the previous daemon's exit: cancel the pending stop so
    // the surviving daemon simply keeps running.
    stop_requested_ = false;
    return;
  }
  running_ = true;
  stop_requested_ = false;
  simulator_.Spawn(SyncDaemon());
}

void BufferCache::Stop() { stop_requested_ = true; }

sim::Task<void> BufferCache::SyncDaemon() {
  while (!stop_requested_) {
    co_await sim::Sleep(simulator_, kSyncInterval, /*background=*/true);
    if (stop_requested_) {
      break;
    }
    co_await FlushAll();
  }
  running_ = false;
}

BufferCache::Entry* BufferCache::Find(const Key& key) {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void BufferCache::Touch(Entry& entry, const Key& key) {
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
}

BufferCache::Entry& BufferCache::InsertEntry(const Key& key, proto::Bytes data) {
  lru_.push_front(key);
  Entry entry;
  entry.data = std::move(data);
  entry.lru_it = lru_.begin();
  auto [ins, ok] = entries_.emplace(key, std::move(entry));
  CHECK(ok);
  files_[FileKey{key.mount, key.fileid}].blocks.insert(key.block);
  return ins->second;
}

void BufferCache::EraseEntry(const Key& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return;
  }
  if (it->second.dirty) {
    MarkClean(key, it->second);
  }
  RemoveEntry(it);
}

void BufferCache::RemoveEntry(std::unordered_map<Key, Entry, KeyHash>::iterator it) {
  auto record = files_.find(FileKey{it->first.mount, it->first.fileid});
  CHECK(record != files_.end());
  record->second.blocks.erase(it->first.block);
  if (record->second.idle()) {
    files_.erase(record);
  }
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

BufferCache::FileRecord* BufferCache::FindRecord(const FileKey& fk) {
  auto it = files_.find(fk);
  return it == files_.end() ? nullptr : &it->second;
}

const sim::Promise<bool>* BufferCache::InFlightStore(const Key& key) {
  FileRecord* record = FindRecord(FileKey{key.mount, key.fileid});
  if (record == nullptr) {
    return nullptr;
  }
  auto it = record->stores.find(key.block);
  return it == record->stores.end() ? nullptr : &it->second;
}

void BufferCache::NoteRejection(const FileKey& fk) {
  FileRecord* record = FindRecord(fk);
  if (record != nullptr && !record->removed) {
    record->rejected = true;
  }
}

void BufferCache::DropIfIdle(const FileKey& fk) {
  auto it = files_.find(fk);
  if (it != files_.end() && it->second.idle()) {
    files_.erase(it);
  }
}

void BufferCache::NoteDirtyTransition(const FileKey& fk, bool was_dirty) {
  trace::Recorder* recorder = trace::Active();
  if (recorder == nullptr) {
    return;
  }
  const Backing& backing = mounts_[fk.mount];
  if (backing.trace_name.empty()) {
    return;
  }
  bool now_dirty = HasDirty(fk.mount, fk.fileid);
  if (now_dirty == was_dirty) {
    return;
  }
  recorder->Instant(now_dirty ? "cache.file_dirty" : "cache.file_clean", backing.trace_machine,
                    "scope=" + backing.trace_name + " file=" + std::to_string(fk.fileid));
}

void BufferCache::MarkDirty(const Key& key, Entry& entry) {
  if (!entry.dirty) {
    FileKey fk{key.mount, key.fileid};
    bool was_dirty = trace::Active() != nullptr && HasDirty(fk.mount, fk.fileid);
    entry.dirty = true;
    dirty_blocks_[fk].insert(key.block);
    NoteDirtyTransition(fk, was_dirty);
  }
}

void BufferCache::MarkClean(const Key& key, Entry& entry) {
  if (entry.dirty) {
    entry.dirty = false;
    FileKey fk{key.mount, key.fileid};
    bool was_dirty = trace::Active() != nullptr && HasDirty(fk.mount, fk.fileid);
    auto it = dirty_blocks_.find(fk);
    if (it != dirty_blocks_.end()) {
      it->second.erase(key.block);
      if (it->second.empty()) {
        dirty_blocks_.erase(it);
      }
    }
    NoteDirtyTransition(fk, was_dirty);
  }
}

void BufferCache::RegisterStore(const Key& key) {
  FileKey fk{key.mount, key.fileid};
  bool was_dirty = trace::Active() != nullptr && HasDirty(fk.mount, fk.fileid);
  auto [it, inserted] = files_[fk].stores.emplace(key.block, sim::Promise<bool>(simulator_));
  CHECK(inserted);
  NoteDirtyTransition(fk, was_dirty);
}

// The record stays for the caller, which drops it once idle.
void BufferCache::FinishStore(const Key& key) {
  FileKey fk{key.mount, key.fileid};
  bool was_dirty = trace::Active() != nullptr && HasDirty(fk.mount, fk.fileid);
  FileRecord* record = FindRecord(fk);
  CHECK(record != nullptr);
  auto it = record->stores.find(key.block);
  CHECK(it != record->stores.end());
  it->second.TrySet(true);
  record->stores.erase(it);
  if (record->stores.empty() && record->landed.has_value()) {
    record->landed->TrySet(true);
    record->landed.reset();
  }
  NoteDirtyTransition(fk, was_dirty);
}

// Registered store: the caller already called RegisterStore(key), and
// drops the file's record once idle.
sim::Task<bool> BufferCache::PerformStore(Key key, proto::Bytes data) {
  ++stats_.writebacks;
  trace::Span store_span;
  if (trace::Active() != nullptr) {
    store_span.Begin("cache.writeback", mounts_[key.mount].trace_machine,
                     "scope=" + mounts_[key.mount].trace_name +
                         " file=" + std::to_string(key.fileid) +
                         " block=" + std::to_string(key.block));
  }
  auto result = co_await mounts_[key.mount].store(key.fileid, key.block, std::move(data));
  store_span.End(std::string("ok=") + (result.ok() ? "1" : "0"));
  FinishStore(key);
  co_return result.ok();
}

// Unregistered store: waits out any in-flight store of the same block
// (the block was re-dirtied and re-cleaned), then registers and performs.
sim::Task<bool> BufferCache::StoreBlock(Key key, proto::Bytes data) {
  while (const sim::Promise<bool>* in_flight = InFlightStore(key)) {
    sim::Future<bool> prior = in_flight->GetFuture();
    co_await prior;
  }
  RegisterStore(key);
  co_return co_await PerformStore(key, std::move(data));
}

sim::Task<void> BufferCache::AsyncStore(Key key, proto::Bytes data, uint64_t drops) {
  // Nobody waits for a flush-behind store, so a rejection waits for the
  // file's next durability barrier — unless the cache crashed meanwhile.
  bool stored = co_await PerformStore(key, std::move(data));
  FileKey fk{key.mount, key.fileid};
  if (!stored && drops == drops_) {
    NoteRejection(fk);
  }
  DropIfIdle(fk);
  flush_behind_.Release();
}

// Dirty victims hand their block to a spawned AsyncStore with the
// flush-behind slot still held; the spawned coroutine releases it.
sim::Task<void> BufferCache::EvictIfNeeded() {
  while (entries_.size() > params_.capacity_blocks) {
    // Find the least-recently-used entry. Dirty victims are handed to the
    // bounded write-behind pipeline: the evictor stalls only when every
    // slot is occupied (the writer has outrun the backing store).
    CHECK(!lru_.empty());
    Key victim = lru_.back();
    auto it = entries_.find(victim);
    CHECK(it != entries_.end());
    ++stats_.evictions;
    if (it->second.dirty) {
      if (const sim::Promise<bool>* in_flight = InFlightStore(victim)) {
        // A previous store of this very block is still in flight; wait for
        // it before starting another, then re-evaluate.
        sim::Future<bool> prior = in_flight->GetFuture();
        co_await prior;
        continue;
      }
      proto::Bytes data = it->second.data;
      MarkClean(victim, it->second);
      // The store holds the file's record before its last block goes.
      RegisterStore(victim);
      RemoveEntry(it);
      co_await flush_behind_.Acquire();
      simulator_.Spawn(AsyncStore(victim, std::move(data), drops_));
    } else {
      RemoveEntry(it);
    }
  }
}

sim::Task<base::Result<void>> BufferCache::FetchInto(Key key, uint64_t file_size) {
  ++stats_.misses;
  // An evicted dirty block may still be on its way to the backing store;
  // fetching before it lands would resurrect stale data.
  if (const sim::Promise<bool>* in_flight = InFlightStore(key)) {
    sim::Future<bool> done = in_flight->GetFuture();
    co_await done;
  }
  trace::Span fetch_span;
  if (trace::Active() != nullptr) {
    fetch_span.Begin("cache.fetch", mounts_[key.mount].trace_machine,
                     "scope=" + mounts_[key.mount].trace_name +
                         " file=" + std::to_string(key.fileid) +
                         " block=" + std::to_string(key.block));
  }
  auto fetched = co_await mounts_[key.mount].fetch(key.fileid, key.block);
  fetch_span.End(std::string("ok=") + (fetched.ok() ? "1" : "0"));
  if (!fetched.ok()) {
    co_return fetched.status();
  }
  // A concurrent write may have populated (and dirtied) the block while the
  // fetch was in flight; the local copy wins.
  if (Entry* existing = Find(key); existing == nullptr) {
    InsertEntry(key, std::move(*fetched));
    co_await EvictIfNeeded();
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<std::vector<uint8_t>>> BufferCache::Read(int mount, uint64_t fileid,
                                                                uint64_t offset, uint32_t count,
                                                                uint64_t file_size,
                                                                bool read_ahead) {
  std::vector<uint8_t> out;
  uint64_t end = std::min<uint64_t>(file_size, offset + count);
  if (offset >= end) {
    co_return out;
  }
  out.reserve(end - offset);
  uint64_t first_block = offset / kBlockSize;
  uint64_t last_block = (end - 1) / kBlockSize;
  for (uint64_t b = first_block; b <= last_block; ++b) {
    Key key{mount, fileid, b};
    uint64_t block_start = b * kBlockSize;
    uint64_t want_from = std::max<uint64_t>(offset, block_start) - block_start;
    uint64_t want_to = std::min<uint64_t>(end, block_start + kBlockSize) - block_start;

    Entry* entry = Find(key);
    bool usable = entry != nullptr && (entry->dirty || entry->data.size() >= want_to);
    if (usable) {
      ++stats_.hits;
      Touch(*entry, key);
    } else {
      CO_RETURN_IF_ERROR(co_await FetchInto(key, file_size));
      entry = Find(key);
      if (entry == nullptr) {
        // Evicted between fetch and use under extreme pressure; treat the
        // fetched bytes as gone and retry once via the backing store
        // (waiting out any in-flight write-back of this block first).
        if (const sim::Promise<bool>* in_flight = InFlightStore(key)) {
          sim::Future<bool> done = in_flight->GetFuture();
          co_await done;
        }
        auto direct = co_await mounts_[mount].fetch(fileid, b);
        if (!direct.ok()) {
          co_return direct.status();
        }
        AppendRange(out, *direct, want_from, want_to);
        continue;
      }
      Touch(*entry, key);
    }
    AppendRange(out, entry->data, want_from, want_to);
  }

  if (read_ahead) {
    uint64_t next = last_block + 1;
    if (next * kBlockSize < file_size && Find(Key{mount, fileid, next}) == nullptr) {
      ++stats_.read_aheads;
      // Asynchronous prefetch: don't block the reader.
      simulator_.Spawn([](BufferCache& cache, int mount, uint64_t fileid, uint64_t next,
                          uint64_t file_size) -> sim::Task<void> {
        (void)co_await cache.FetchInto(Key{mount, fileid, next}, file_size);
      }(*this, mount, fileid, next, file_size));
    }
  }
  co_return out;
}

sim::Task<base::Result<void>> BufferCache::WriteDelayed(int mount, uint64_t fileid,
                                                        uint64_t offset, proto::Bytes data,
                                                        uint64_t old_file_size) {
  if (data.empty()) {
    co_return base::OkStatus();
  }
  // 4.3BSD-style sync(): while a flush is pushing this file's dirty
  // buffers, a writer to the file stalls on the busy buffers. This is the
  // mechanism that keeps the paper's SNFS sort slower than the local sort
  // despite identical CPU use: the stall lasts as long as the flush, and
  // remote flushes are an order of magnitude slower per block.
  FileKey fk{mount, fileid};
  if (FileRecord* record = FindRecord(fk);
      record != nullptr && record->gate != nullptr && record->gate->locked()) {
    {
      sim::ScopedLock stall(*record->gate);
      co_await stall;
    }
    DropIfIdle(fk);
  }
  uint64_t end = offset + data.size();
  uint64_t first_block = offset / kBlockSize;
  uint64_t last_block = (end - 1) / kBlockSize;
  for (uint64_t b = first_block; b <= last_block; ++b) {
    Key key{mount, fileid, b};
    uint64_t block_start = b * kBlockSize;
    uint64_t to_from = std::max<uint64_t>(offset, block_start) - block_start;
    uint64_t to_to = std::min<uint64_t>(end, block_start + kBlockSize) - block_start;

    Entry* entry = Find(key);
    if (entry == nullptr) {
      // Partial update of a block that has pre-existing backing data needs
      // a fetch-before-write; whole-block overwrites and appends past the
      // old EOF do not.
      bool partial = to_from > 0 || (to_to < kBlockSize && block_start + to_to < old_file_size);
      bool has_backing = block_start < old_file_size;
      if (partial && has_backing) {
        CO_RETURN_IF_ERROR(co_await FetchInto(key, old_file_size));
        entry = Find(key);
      }
      if (entry == nullptr) {
        entry = &InsertEntry(key, {});
      }
    } else {
      Touch(*entry, key);
    }
    // Copy-on-write: a write-back in flight may hold the old buffer.
    entry->data = entry->data.Overwritten(to_from, data, block_start + to_from - offset,
                                          to_to - to_from);
    ++stats_.delayed_writes;
    MarkDirty(key, *entry);
  }
  co_await EvictIfNeeded();
  co_return base::OkStatus();
}

void BufferCache::InsertClean(int mount, uint64_t fileid, uint64_t offset,
                              const proto::Bytes& data) {
  if (data.empty()) {
    return;
  }
  uint64_t end = offset + data.size();
  uint64_t first_block = offset / kBlockSize;
  uint64_t last_block = (end - 1) / kBlockSize;
  for (uint64_t b = first_block; b <= last_block; ++b) {
    Key key{mount, fileid, b};
    uint64_t block_start = b * kBlockSize;
    uint64_t to_from = std::max<uint64_t>(offset, block_start) - block_start;
    uint64_t to_to = std::min<uint64_t>(end, block_start + kBlockSize) - block_start;
    Entry* entry = Find(key);
    if (entry == nullptr) {
      if (to_from != 0) {
        continue;  // can't represent a hole; skip caching this fragment
      }
      entry = &InsertEntry(key, {});
    } else {
      Touch(*entry, key);
    }
    entry->data = entry->data.Overwritten(to_from, data, block_start + to_from - offset,
                                          to_to - to_from);
  }
  // Synchronous trim: InsertClean is not a coroutine, so evict clean blocks
  // only; dirty overflow is handled by the next coroutine operation.
  while (entries_.size() > params_.capacity_blocks && !lru_.empty()) {
    Key victim = lru_.back();
    auto it = entries_.find(victim);
    if (it->second.dirty) {
      break;
    }
    ++stats_.evictions;
    RemoveEntry(it);
  }
}

sim::Task<base::Result<void>> BufferCache::FlushFile(int mount, uint64_t fileid,
                                                     uint64_t max_blocks) {
  FileKey fk{mount, fileid};
  bool all_stored = co_await StoreDirty(fk, max_blocks, /*keep_rejection=*/false);
  // A durability barrier: blocks evicted earlier may still be on the wire.
  while (true) {
    FileRecord* record = FindRecord(fk);
    if (record == nullptr || record->stores.empty()) {
      break;
    }
    if (!record->landed.has_value()) {
      record->landed.emplace(simulator_);
    }
    sim::Future<bool> landed = record->landed->GetFuture();
    co_await landed;
  }
  if (FileRecord* record = FindRecord(fk); record != nullptr && record->rejected) {
    record->rejected = false;
    DropIfIdle(fk);
    all_stored = false;
  }
  // A failed store leaves the block clean in the cache but absent from the
  // backing store; callers using FlushFile as a durability barrier (fsync,
  // the callback write-back) must see the failure, not a silent OK.
  if (!all_stored) {
    co_return base::ErrIo();
  }
  co_return base::OkStatus();
}

sim::Task<bool> BufferCache::StoreDirty(FileKey fk, uint64_t max_blocks, bool keep_rejection) {
  uint64_t drops = drops_;
  // A file with dirty blocks or a store in flight has a record, and holding
  // its gate keeps the record (and the gate) in place.
  sim::Mutex* gate = nullptr;
  if (HasDirty(fk.mount, fk.fileid)) {
    std::unique_ptr<sim::Mutex>& slot = FindRecord(fk)->gate;
    if (slot == nullptr) {
      slot = std::make_unique<sim::Mutex>(simulator_);
    }
    gate = slot.get();
    co_await gate->Acquire();
  }
  uint64_t flushed = 0;
  bool all_stored = true;
  while (max_blocks == 0 || flushed < max_blocks) {
    auto it = dirty_blocks_.find(fk);
    if (it == dirty_blocks_.end() || it->second.empty()) {
      break;
    }
    ++flushed;
    uint64_t block = *it->second.begin();
    Key key{fk.mount, fk.fileid, block};
    auto eit = entries_.find(key);
    CHECK(eit != entries_.end());
    proto::Bytes data = eit->second.data;
    MarkClean(key, eit->second);
    if (!co_await StoreBlock(key, std::move(data))) {
      all_stored = false;
    }
  }
  // Nobody waits for the sync pass, so its rejection waits for the file's
  // next FlushFile, unless the cache crashed meanwhile.
  if (keep_rejection && !all_stored && drops == drops_) {
    NoteRejection(fk);
  }
  if (gate != nullptr) {
    gate->Release();
    DropIfIdle(fk);
  }
  co_return all_stored;
}

sim::Task<void> BufferCache::FlushAll() {
  while (!dirty_blocks_.empty()) {
    FileKey fk = dirty_blocks_.begin()->first;
    (void)co_await StoreDirty(fk, 0, /*keep_rejection=*/true);
  }
}

void BufferCache::InvalidateFile(int mount, uint64_t fileid) {
  FileRecord* record = FindRecord(FileKey{mount, fileid});
  if (record == nullptr) {
    return;
  }
  // EraseEntry edits the set and may erase the record, so walk a copy.
  std::vector<uint64_t> blocks(record->blocks.begin(), record->blocks.end());
  for (uint64_t b : blocks) {
    EraseEntry(Key{mount, fileid, b});
  }
}

uint64_t BufferCache::CancelDirty(int mount, uint64_t fileid) {
  FileKey fk{mount, fileid};
  auto it = dirty_blocks_.find(fk);
  if (it == dirty_blocks_.end()) {
    return 0;
  }
  std::vector<uint64_t> blocks(it->second.begin(), it->second.end());
  for (uint64_t b : blocks) {
    EraseEntry(Key{mount, fileid, b});
  }
  stats_.cancelled_writes += blocks.size();
  return blocks.size();
}

void BufferCache::Forget(int mount, uint64_t fileid) {
  CancelDirty(mount, fileid);
  InvalidateFile(mount, fileid);
  FileKey fk{mount, fileid};
  if (FileRecord* record = FindRecord(fk)) {
    record->rejected = false;
    record->removed = true;
    DropIfIdle(fk);
  }
}

void BufferCache::DropAll() {
  ++drops_;
  // The dirty data just died with the kernel: close out the traced dirty
  // state so the checker does not blame this machine for blocks it no
  // longer holds. (std::set gives deterministic event order.)
  std::set<FileKey> dirty_files;
  if (trace::Active() != nullptr) {
    for (const auto& [fk, blocks] : dirty_blocks_) {  // lint: ordered-ok (sorted below)
      dirty_files.insert(fk);
    }
  }
  entries_.clear();
  lru_.clear();
  dirty_blocks_.clear();
  // In-flight stores, their landed signals and the gates stay; erasing
  // idle records schedules nothing, so the walk's order is free.
  for (auto it = files_.begin(); it != files_.end();) {
    it->second.blocks.clear();
    it->second.rejected = false;
    it = it->second.idle() ? files_.erase(it) : std::next(it);
  }
  // NoteDirtyTransition reads live state: a file with a write-back still
  // in flight stays dirty and emits nothing here.
  for (const FileKey& fk : dirty_files) {
    NoteDirtyTransition(fk, /*was_dirty=*/true);
  }
}

bool BufferCache::HasDirty(int mount, uint64_t fileid) const {
  FileKey fk{mount, fileid};
  auto it = dirty_blocks_.find(fk);
  if (it != dirty_blocks_.end() && !it->second.empty()) {
    return true;
  }
  // Blocks being written back have not reached the backing store yet.
  auto record = files_.find(fk);
  return record != files_.end() && !record->second.stores.empty();
}

size_t BufferCache::DirtyBlockCount() const {
  size_t n = 0;
  for (const auto& [fk, blocks] : dirty_blocks_) {  // lint: ordered-ok (commutative sum)
    n += blocks.size();
  }
  return n;
}

}  // namespace cache
