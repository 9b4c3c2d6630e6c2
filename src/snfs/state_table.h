// The SNFS server state table manager (§4.3) — "most of the code added to
// support SNFS is in the state table manager module".
//
// Each entry tracks one file: its version numbers, a client information block
// per client host with reader/writer counts, and two more facts — the client
// that may hold dirty blocks without a write open, and whether caching is
// off. The seven states of §4.3.4 / Table 4-1 are derived from those facts
// in one place (Entry::state()); OnOpen/OnClose update the facts and report
// which callbacks the server must issue. The class is pure bookkeeping — no
// I/O — so the transition relation can be tested exhaustively.
#ifndef SRC_SNFS_STATE_TABLE_H_
#define SRC_SNFS_STATE_TABLE_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/proto/types.h"

namespace snfs {

enum class FileState : uint8_t {
  kClosed,        // not open by any client
  kClosedDirty,   // not open; last writer may still have dirty blocks
  kOneReader,     // open read-only by one client
  kOneRdrDirty,   // open read-only by one client that may have dirty blocks
  kMultReaders,   // open read-only by two or more clients
  kOneWriter,     // open read-write by one client
  kWriteShared,   // open by >= 2 clients including >= 1 writer: no caching
};

std::string_view FileStateName(FileState state);

// A callback the server must issue before completing the current open.
struct CallbackAction {
  int host = -1;
  bool writeback = false;
  bool invalidate = false;

  friend bool operator==(const CallbackAction&, const CallbackAction&) = default;
};

struct OpenResult {
  bool cache_enabled = true;
  uint64_t version = 0;        // latest version (post-bump for write opens)
  uint64_t prev_version = 0;   // version before the latest write-open bump
  bool version_bumped = false; // caller persists the bump to stable storage
  bool possibly_inconsistent = false;
  FileState state = FileState::kClosed;  // resulting state
  std::vector<CallbackAction> callbacks;
};

struct CloseResult {
  FileState state = FileState::kClosed;
  bool entry_known = true;  // false: close for an entry we have no record of
};

class StateTable {
 public:
  struct ClientInfo {
    int host = -1;
    uint32_t readers = 0;
    uint32_t writers = 0;
  };

  struct Entry {
    proto::FileHandle fh;
    // Caching is off: set when a writer and a second client meet, kept until
    // the last close, since there is no "enable caching" callback.
    bool write_shared = false;
    uint64_t version = 0;
    uint64_t prev_version = 0;
    std::vector<ClientInfo> clients;  // only clients with an open
    // A client that may hold dirty blocks without a write open (a client
    // with a write open is presumed dirty), or -1.
    int last_writer = -1;
    bool inconsistent = false;

    // The Table 4-1 state these facts make.
    FileState state() const;
    uint32_t writers() const;  // write opens, over all clients
  };

  // `max_entries` bounds the table (§4.3.1: bounded kernel memory, ~68 B per
  // entry); past it, closed entries are reclaimed.
  explicit StateTable(size_t max_entries = 1000) : max_entries_(max_entries) {}

  // Apply an open. `stable_version` seeds the entry's version when the file
  // is first tracked (from the file system, where versions persist).
  OpenResult OnOpen(const proto::FileHandle& fh, int host, bool write, uint64_t stable_version);

  // Apply a close; `has_dirty` is the client's declaration that it still
  // holds dirty blocks for the file.
  CloseResult OnClose(const proto::FileHandle& fh, int host, bool write, bool has_dirty);

  // The file was removed: drop any record of it.
  void Forget(const proto::FileHandle& fh);

  // A write-back callback completed: the dirty blocks are at the server, so
  // no client holds them any more. CLOSED_DIRTY becomes CLOSED,
  // ONE_RDR_DIRTY becomes ONE_READER.
  void MarkFlushed(const proto::FileHandle& fh);

  // A callback could not be delivered (client presumed dead): remember that
  // the file may be inconsistent, and drop the dead client's opens.
  void MarkInconsistent(const proto::FileHandle& fh, int dead_host);

  // Recovery (§2.4): a client re-asserts its state after our reboot.
  OpenResult ApplyReopen(const proto::FileHandle& fh, int host, uint32_t read_count,
                         uint32_t write_count, bool has_dirty, uint64_t cached_version,
                         uint64_t stable_version);

  // Reclaim support (§4.3.1): entries whose clients should be asked to give
  // the file up. CLOSED entries are reclaimed internally; CLOSED_DIRTY need
  // a writeback callback to `last_writer` followed by MarkFlushed+Forget.
  struct ReclaimPlan {
    proto::FileHandle fh;
    CallbackAction callback;
  };
  std::vector<ReclaimPlan> PlanReclaim();

  const Entry* Lookup(const proto::FileHandle& fh) const;
  size_t size() const { return entries_.size(); }
  bool over_limit() const { return entries_.size() > max_entries_; }

  // Drop every entry (server crash: "the state ... is lost").
  void Clear() { entries_.clear(); }

  // Invariant checks used by property tests; aborts on violation.
  void CheckInvariants() const;

 private:
  Entry& GetOrCreate(const proto::FileHandle& fh, uint64_t stable_version);  // lint: unstable-source
  void DropClosedEntries();

  size_t max_entries_;
  std::unordered_map<proto::FileHandle, Entry, proto::FileHandleHash> entries_;
};

}  // namespace snfs

#endif  // SRC_SNFS_STATE_TABLE_H_
