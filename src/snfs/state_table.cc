#include "src/snfs/state_table.h"

#include <algorithm>

#include "src/base/check.h"

namespace snfs {
namespace {

StateTable::ClientInfo* FindClient(StateTable::Entry& entry, int host) {
  for (StateTable::ClientInfo& c : entry.clients) {
    if (c.host == host) {
      return &c;
    }
  }
  return nullptr;
}

StateTable::ClientInfo& FindOrAddClient(StateTable::Entry& entry, int host) {
  StateTable::ClientInfo* c = FindClient(entry, host);
  return c != nullptr ? *c : entry.clients.emplace_back(StateTable::ClientInfo{host, 0, 0});
}

// Caching stays on unless a writer shares the file with another client.
bool WriterAndAnotherClient(const StateTable::Entry& entry) {
  return entry.clients.size() >= 2 && entry.writers() > 0;
}

}  // namespace

std::string_view FileStateName(FileState state) {
  switch (state) {
    case FileState::kClosed:
      return "CLOSED";
    case FileState::kClosedDirty:
      return "CLOSED_DIRTY";
    case FileState::kOneReader:
      return "ONE_READER";
    case FileState::kOneRdrDirty:
      return "ONE_RDR_DIRTY";
    case FileState::kMultReaders:
      return "MULT_READERS";
    case FileState::kOneWriter:
      return "ONE_WRITER";
    case FileState::kWriteShared:
      return "WRITE_SHARED";
  }
  return "UNKNOWN";
}

// Table 4-1 as one rule over the entry's facts.
FileState StateTable::Entry::state() const {
  bool dirty = last_writer >= 0;
  if (clients.empty()) {
    return dirty ? FileState::kClosedDirty : FileState::kClosed;
  }
  if (write_shared) {
    return FileState::kWriteShared;
  }
  if (writers() > 0) {
    return FileState::kOneWriter;
  }
  if (clients.size() >= 2) {
    return FileState::kMultReaders;
  }
  return dirty ? FileState::kOneRdrDirty : FileState::kOneReader;
}

uint32_t StateTable::Entry::writers() const {
  uint32_t n = 0;
  for (const ClientInfo& c : clients) {
    n += c.writers;
  }
  return n;
}

StateTable::Entry& StateTable::GetOrCreate(const proto::FileHandle& fh, uint64_t stable_version) {
  auto it = entries_.find(fh);
  if (it != entries_.end()) {
    return it->second;
  }
  Entry entry;
  entry.fh = fh;
  entry.version = stable_version;
  entry.prev_version = stable_version;
  auto [ins, ok] = entries_.emplace(fh, std::move(entry));
  CHECK(ok);
  return ins->second;
}

OpenResult StateTable::OnOpen(const proto::FileHandle& fh, int host, bool write,
                              uint64_t stable_version) {
  Entry& entry = GetOrCreate(fh, stable_version);
  OpenResult result;
  result.possibly_inconsistent = entry.inconsistent;

  // Version bookkeeping: "the server keeps a version number for each file,
  // which increases every time the file is opened for writing".
  if (write) {
    entry.prev_version = entry.version;
    ++entry.version;
    result.version_bumped = true;
  }
  result.version = entry.version;
  result.prev_version = entry.prev_version;

  // The client that may hold dirty blocks: the writer before this open
  // (outside write-sharing there is at most one), else the last writer.
  int dirty_holder = entry.last_writer;
  for (const ClientInfo& c : entry.clients) {
    if (c.writers > 0) {
      dirty_holder = c.host;
      break;
    }
  }

  ClientInfo& me = FindOrAddClient(entry, host);
  if (write) {
    ++me.writers;
  } else {
    ++me.readers;
  }

  if (entry.write_shared) {
    // New arrivals don't cache either; nobody else caches to call back.
  } else if (WriterAndAnotherClient(entry)) {
    // Everyone stops caching. Each *other* client gets an invalidate
    // callback, with writeback first if it may hold dirty blocks; so does a
    // dirty holder with no open (left by a recovery reopen).
    entry.write_shared = true;
    for (const ClientInfo& c : entry.clients) {
      if (c.host != host) {
        result.callbacks.push_back(CallbackAction{c.host, /*writeback=*/c.host == dirty_holder,
                                                  /*invalidate=*/true});
      }
    }
    if (dirty_holder >= 0 && dirty_holder != host && FindClient(entry, dirty_holder) == nullptr) {
      result.callbacks.push_back(
          CallbackAction{dirty_holder, /*writeback=*/true, /*invalidate=*/true});
    }
    entry.last_writer = -1;
  } else if (dirty_holder >= 0 && dirty_holder != host) {
    // Retrieve the dirty blocks from their holder first; its (clean) copy
    // can stay.
    result.callbacks.push_back(
        CallbackAction{dirty_holder, /*writeback=*/true, /*invalidate=*/false});
    entry.last_writer = -1;
  } else if (write) {
    entry.last_writer = -1;  // the opener is now the writer
  }

  result.cache_enabled = !entry.write_shared;
  result.state = entry.state();
  return result;
}

CloseResult StateTable::OnClose(const proto::FileHandle& fh, int host, bool write,
                                bool has_dirty) {
  auto it = entries_.find(fh);
  if (it == entries_.end()) {
    return CloseResult{FileState::kClosed, /*entry_known=*/false};
  }
  Entry& entry = it->second;
  ClientInfo* me = FindClient(entry, host);
  if (me == nullptr) {
    return CloseResult{entry.state(), /*entry_known=*/false};
  }
  uint32_t& count = write ? me->writers : me->readers;
  bool closed_write = write && count > 0;
  if (count > 0) {
    --count;
  }
  if (me->readers + me->writers == 0) {
    std::erase_if(entry.clients, [host](const ClientInfo& c) { return c.host == host; });
  }

  if (entry.clients.empty()) {
    // Final close anywhere: caching can be re-enabled.
    entry.write_shared = false;
  }
  if (entry.clients.empty() || (closed_write && !entry.write_shared && entry.writers() == 0)) {
    // The closer was the only client, so its has_dirty declaration says who
    // holds dirty blocks ("final close for write, client still reading"
    // keeps it as a reader).
    entry.last_writer = has_dirty ? host : -1;
  }
  return CloseResult{entry.state(), true};
}

void StateTable::Forget(const proto::FileHandle& fh) { entries_.erase(fh); }

void StateTable::MarkFlushed(const proto::FileHandle& fh) {
  auto it = entries_.find(fh);
  if (it != entries_.end()) {
    it->second.last_writer = -1;
  }
}

void StateTable::MarkInconsistent(const proto::FileHandle& fh, int dead_host) {
  auto it = entries_.find(fh);
  if (it == entries_.end()) {
    return;
  }
  Entry& entry = it->second;
  entry.inconsistent = true;
  // Drop the dead client's opens; it must reopen before touching the file
  // again ("it must be prevented from making further use of the file until
  // it ... reopens the file", §3.2).
  std::erase_if(entry.clients, [dead_host](const ClientInfo& c) { return c.host == dead_host; });
  if (entry.last_writer == dead_host) {
    entry.last_writer = -1;
  }
  entry.write_shared = WriterAndAnotherClient(entry);
}

OpenResult StateTable::ApplyReopen(const proto::FileHandle& fh, int host, uint32_t read_count,
                                   uint32_t write_count, bool has_dirty, uint64_t cached_version,
                                   uint64_t stable_version) {
  Entry& entry = GetOrCreate(fh, std::max(cached_version, stable_version));
  entry.version = std::max(entry.version, std::max(cached_version, stable_version));

  ClientInfo& me = FindOrAddClient(entry, host);
  me.readers = read_count;
  me.writers = write_count;
  if (has_dirty) {
    entry.last_writer = host;
  }
  // Drop clients with no remaining opens (a reopen may assert zero counts
  // plus dirty data only).
  std::erase_if(entry.clients, [](const ClientInfo& c) { return c.readers + c.writers == 0; });
  entry.write_shared = WriterAndAnotherClient(entry);

  OpenResult result;
  result.version = entry.version;
  result.prev_version = entry.prev_version;
  result.cache_enabled = !entry.write_shared;
  result.possibly_inconsistent = entry.inconsistent;
  result.state = entry.state();
  return result;
}

std::vector<StateTable::ReclaimPlan> StateTable::PlanReclaim() {
  DropClosedEntries();
  std::vector<ReclaimPlan> plans;
  if (!over_limit()) {
    return plans;
  }
  size_t need = entries_.size() - max_entries_;
  // Pick victims in file-handle order, not hash order: the resulting
  // callbacks are awaited RPCs, so the choice feeds the event queue.
  std::vector<proto::FileHandle> dirty;
  for (const auto& [fh, entry] : entries_) {  // lint: ordered-ok (sorted below)
    if (entry.state() == FileState::kClosedDirty) {
      dirty.push_back(fh);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  for (const proto::FileHandle& fh : dirty) {
    if (plans.size() >= need) {
      break;
    }
    plans.push_back(ReclaimPlan{fh, CallbackAction{entries_.at(fh).last_writer,
                                                   /*writeback=*/true, /*invalidate=*/false}});
  }
  return plans;
}

void StateTable::DropClosedEntries() {
  if (!over_limit()) {
    return;
  }
  // Drop clean closed entries in file-handle order so WHICH entries survive
  // an over-limit table does not depend on hash-iteration order.
  std::vector<proto::FileHandle> closed;
  for (const auto& [fh, entry] : entries_) {  // lint: ordered-ok (sorted below)
    if (entry.state() == FileState::kClosed) {
      closed.push_back(fh);
    }
  }
  std::sort(closed.begin(), closed.end());
  for (const proto::FileHandle& fh : closed) {
    if (!over_limit()) {
      break;
    }
    entries_.erase(fh);
  }
}

const StateTable::Entry* StateTable::Lookup(const proto::FileHandle& fh) const {
  auto it = entries_.find(fh);
  return it == entries_.end() ? nullptr : &it->second;
}

void StateTable::CheckInvariants() const {
  // Read-only per-entry CHECKs; a violation aborts regardless of walk order.
  for (const auto& [fh, entry] : entries_) {  // lint: ordered-ok
    for (const ClientInfo& c : entry.clients) {
      CHECK_GT(c.readers + c.writers, 0u);  // idle client blocks are removed
    }
    CHECK_GE(entry.version, entry.prev_version);
    if (entry.write_shared) {
      CHECK(!entry.clients.empty());
    } else if (entry.writers() > 0) {
      CHECK_EQ(entry.clients.size(), 1u);  // a caching writer is the only client
    }
  }
}

}  // namespace snfs
