// The GFS block buffer cache (client side).
//
// One cache per machine, shared by every mounted file system (as Ultrix GFS
// "manages the file system block buffer cache"), keyed by
// (mount, fileid, block). It supports:
//
//  * read caching with optional one-block read-ahead (disabled by SNFS for
//    non-cachable files, §4.2.1);
//  * delayed writes: dirty blocks age in the cache and are written back by
//    a periodic sync daemon (/etc/update's 30 s sync — §4.2.3), by cache
//    pressure (LRU eviction), or by explicit flush (SNFS callbacks, NFS
//    close);
//  * cancellation of delayed writes when a file is deleted ("Sprite and
//    SNFS take advantage of this behavior by cancelling delayed writes
//    when a file is deleted", §4.2.3) — the mechanism behind the paper's
//    temporary-file results (Tables 5-5/5-6);
//  * whole-file invalidation (NFS timestamp mismatch, SNFS callbacks).
//
// Blocks are proto::Bytes: a fetched block is cached as the buffer the
// backing store returned, and a write-back hands the backing store the
// cached buffer itself. Edits of part of a block replace its buffer
// (copy-on-write), so bytes already handed out never change.
//
// Policy (when to delay, when to write through, when to flush) belongs to
// the protocol clients; the cache provides mechanism only.
#ifndef SRC_CACHE_BUFFER_CACHE_H_
#define SRC_CACHE_BUFFER_CACHE_H_

#include <cstdint>
#include <memory>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/proto/bytes.h"
#include "src/sim/future.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace cache {

inline constexpr uint32_t kBlockSize = 4096;

struct BufferCacheParams {
  size_t capacity_blocks = 4096;   // 16 MB — the paper's client cache
  bool enable_sync_daemon = true;  // off = "infinite write-delay" (§5.4)
};

// Per-mount backing store callbacks (issue RPCs / local disk ops).
struct Backing {
  // Fetch one block; returns the bytes present (possibly short at EOF).
  std::function<sim::Task<base::Result<proto::Bytes>>(uint64_t fileid, uint64_t block)> fetch;
  // Store `data` (block-aligned at `block`); len == data.size() <= kBlockSize.
  std::function<sim::Task<base::Result<void>>(uint64_t fileid, uint64_t block, proto::Bytes data)>
      store;
  // Trace attribution (src/trace). Empty trace_name = untraced mount; the
  // SNFS client sets "snfs" so the trace checker can watch its dirty files.
  std::string trace_name;
  int trace_machine = -1;
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t delayed_writes = 0;     // blocks dirtied
  uint64_t writebacks = 0;         // blocks pushed to backing
  uint64_t cancelled_writes = 0;   // dirty blocks dropped by delete
  uint64_t evictions = 0;
  uint64_t read_aheads = 0;
};

class BufferCache {
 public:
  BufferCache(sim::Simulator& simulator, BufferCacheParams params = {});

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  // Register a mount's backing store; returns the mount id used in all ops.
  int RegisterMount(Backing backing);

  // Spawn the periodic sync daemon (no-op if disabled by params).
  void Start();
  void Stop();

  // Read `count` bytes at `offset` from a file whose current size is
  // `file_size`; missing blocks are fetched from the backing store. With
  // `read_ahead`, the block after the last one touched is prefetched.
  sim::Task<base::Result<std::vector<uint8_t>>> Read(int mount, uint64_t fileid, uint64_t offset,
                                                     uint32_t count, uint64_t file_size,
                                                     bool read_ahead);

  // Delayed write: update cached blocks and mark them dirty. Partial-block
  // updates of blocks with existing backing data fetch the block first. A
  // write of exactly one block's content caches `data` itself.
  sim::Task<base::Result<void>> WriteDelayed(int mount, uint64_t fileid, uint64_t offset,
                                             proto::Bytes data, uint64_t old_file_size);

  // Insert already-written-through data as clean blocks (NFS client write
  // path: the RPC carried the data; keep it for subsequent reads).
  void InsertClean(int mount, uint64_t fileid, uint64_t offset, const proto::Bytes& data);

  // Write the file's dirty blocks (lowest-numbered first) to the backing
  // store; with `max_blocks` > 0, stop after that many. Then wait until no
  // store of the file is in flight, so an evicted block's flush-behind store
  // has landed too. Fails if the backing rejected any of these stores, or a
  // flush-behind or sync-pass store of the file since its last FlushFile
  // (the block stays clean but undurable, so durability barriers must
  // surface the error).
  sim::Task<base::Result<void>> FlushFile(int mount, uint64_t fileid, uint64_t max_blocks = 0);

  // Write every dirty block (sync daemon body). Neither waits for
  // flush-behind stores nor reports a rejection, its own or theirs: each
  // stays for the file's next FlushFile.
  sim::Task<void> FlushAll();

  // Drop every cached block of the file (including dirty ones — callers
  // must flush first if the data matters). Visits only that file's blocks.
  void InvalidateFile(int mount, uint64_t fileid);

  // Drop the file's dirty blocks without writing them (delete optimization).
  // Returns the number of writes averted.
  uint64_t CancelDirty(int mount, uint64_t fileid);

  // Remove's cache half: cancel the file's dirty blocks, drop every cached
  // one and its unreported store rejection, and keep no rejection of a
  // store still in flight when it lands — the file is gone.
  void Forget(int mount, uint64_t fileid);

  // Crash simulation: every cached block, clean or dirty, vanishes with the
  // kernel, and so do unreported store rejections. Write-backs already in
  // flight keep their bookkeeping; their coroutines run to completion
  // against the backing store and clean up.
  void DropAll();

  // The file has dirty blocks, or a store in flight.
  bool HasDirty(int mount, uint64_t fileid) const;
  size_t DirtyBlockCount() const;
  size_t size_blocks() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Key {
    int mount;
    uint64_t fileid;
    uint64_t block;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.fileid * 0x9E3779B97F4A7C15ULL + k.block;
      h ^= static_cast<uint64_t>(k.mount) << 56;
      h *= 0xBF58476D1CE4E5B9ULL;
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };
  struct FileKey {
    int mount;
    uint64_t fileid;
    friend bool operator==(const FileKey&, const FileKey&) = default;
    friend auto operator<=>(const FileKey&, const FileKey&) = default;
  };
  struct FileKeyHash {
    size_t operator()(const FileKey& k) const {
      return std::hash<uint64_t>()(k.fileid * 1000003ULL + static_cast<uint64_t>(k.mount));
    }
  };
  struct Entry {
    proto::Bytes data;  // bytes known for this block (<= kBlockSize)
    bool dirty = false;
    std::list<Key>::iterator lru_it;
  };
  // Everything the cache keeps about one file besides its entries and its
  // dirty set. Created on first use; DropIfIdle erases it once the file has
  // no cached block, no store in flight, no unreported rejection and a free
  // gate (a sim::Mutex has waiters only while it is locked).
  struct FileRecord {
    // The cached blocks, so whole-file operations visit only these entries.
    std::set<uint64_t> blocks;
    // Blocks whose write-back is in flight: a fetch of the same block must
    // wait, or it would read stale backing data (evicted-dirty-block race).
    // While any is in flight the file still counts as dirty.
    std::map<uint64_t, sim::Promise<bool>> stores;
    // Set when the last in-flight store lands, for FlushFile.
    std::optional<sim::Promise<bool>> landed;
    // A flush-behind or sync-pass store the backing rejected, not yet
    // reported by a FlushFile.
    bool rejected = false;
    // Forgotten (removed): a store that lands rejected is not kept.
    bool removed = false;
    // Held by StoreDirty while it writes the file; WriteDelayed stalls on it.
    std::unique_ptr<sim::Mutex> gate;

    bool idle() const {
      return blocks.empty() && stores.empty() && !rejected && (gate == nullptr || !gate->locked());
    }
  };

  Entry* Find(const Key& key);
  void Touch(Entry& entry, const Key& key);
  Entry& InsertEntry(const Key& key, proto::Bytes data);  // lint: unstable-source
  void EraseEntry(const Key& key);
  // Unlinks an entry from the LRU list and its file's record, then erases
  // it; no dirty bookkeeping.
  void RemoveEntry(std::unordered_map<Key, Entry, KeyHash>::iterator it);
  void MarkDirty(const Key& key, Entry& entry);
  void MarkClean(const Key& key, Entry& entry);
  // Emits a cache.file_dirty / cache.file_clean trace instant when the
  // file's HasDirty state differs from `was_dirty` (no-op when untraced).
  void NoteDirtyTransition(const FileKey& fk, bool was_dirty);
  // May exit holding a flush-behind slot that the spawned AsyncStore
  // releases when the write-back lands.
  sim::Task<void> EvictIfNeeded();
  // A flush-behind store, issued after `drops` DropAll calls.
  sim::Task<void> AsyncStore(Key key, proto::Bytes data, uint64_t drops);
  // FlushFile's writing half: stores the dirty blocks under the writer gate
  // and returns whether the backing accepted every one. With
  // `keep_rejection` (the sync pass), a rejection stays for the file's next
  // FlushFile.
  sim::Task<bool> StoreDirty(FileKey fk, uint64_t max_blocks, bool keep_rejection);
  sim::Task<void> SyncDaemon();
  // In-flight store registration must be synchronous with the decision to
  // write a block back, or a concurrent fetch could read stale backing data.
  void RegisterStore(const Key& key);
  void FinishStore(const Key& key);
  // Both return whether the backing store accepted the block.
  sim::Task<bool> PerformStore(Key key, proto::Bytes data);
  sim::Task<bool> StoreBlock(Key key, proto::Bytes data);
  sim::Task<base::Result<void>> FetchInto(Key key, uint64_t file_size);
  // nullptr when the file has no record; invalidated by any record erasure.
  FileRecord* FindRecord(const FileKey& fk);
  // The block's in-flight store, or nullptr.
  const sim::Promise<bool>* InFlightStore(const Key& key);
  // Keeps a rejected store for the file's next FlushFile, unless the file
  // was forgotten.
  void NoteRejection(const FileKey& fk);
  void DropIfIdle(const FileKey& fk);

  sim::Simulator& simulator_;
  BufferCacheParams params_;
  std::vector<Backing> mounts_;
  sim::Semaphore flush_behind_;
  bool running_ = false;
  bool stop_requested_ = false;

  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::list<Key> lru_;  // front = most recently used
  std::unordered_map<FileKey, FileRecord, FileKeyHash> files_;
  // Kept apart from the records: FlushAll takes its next file from this
  // table's order.
  std::unordered_map<FileKey, std::set<uint64_t>, FileKeyHash> dirty_blocks_;
  uint64_t drops_ = 0;  // DropAll calls
  CacheStats stats_;
};

}  // namespace cache

#endif  // SRC_CACHE_BUFFER_CACHE_H_
