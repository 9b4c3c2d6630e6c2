#include "src/snfs/state_table.h"

#include <algorithm>

#include "src/base/check.h"

namespace snfs {

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

StateTable::StateTable(StateTableParams params) : params_(params) {}

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

StateTable::ClientInfo* StateTable::FindClient(Entry& entry, int host) {
  for (ClientInfo& c : entry.clients) {
    if (c.host == host) {
      return &c;
    }
  }
  return nullptr;
}

uint32_t StateTable::TotalOpens(const Entry& entry) {
  uint32_t n = 0;
  for (const ClientInfo& c : entry.clients) {
    n += c.readers + c.writers;
  }
  return n;
}

uint32_t StateTable::TotalWriters(const Entry& entry) {
  uint32_t n = 0;
  for (const ClientInfo& c : entry.clients) {
    n += c.writers;
  }
  return n;
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

  ClientInfo* me = FindClient(entry, host);
  bool new_client = me == nullptr;
  if (new_client) {
    entry.clients.push_back(ClientInfo{host, 0, 0});
    me = &entry.clients.back();
  }

  // Pre-transition facts.
  FileState old_state = entry.state;
  int last_writer = entry.last_writer;

  if (write) {
    ++me->writers;
  } else {
    ++me->readers;
  }

  auto to_write_shared = [&](bool old_holder_dirty, int old_holder) {
    // Everyone stops caching. Each *other* client gets an invalidate
    // callback, with writeback first if it may hold dirty blocks.
    for (const ClientInfo& c : entry.clients) {
      if (c.host == host) {
        continue;
      }
      CallbackAction cb;
      cb.host = c.host;
      cb.invalidate = true;
      cb.writeback = old_holder_dirty && c.host == old_holder;
      result.callbacks.push_back(cb);
    }
    entry.state = FileState::kWriteShared;
    entry.last_writer = -1;
    result.cache_enabled = false;
  };

  switch (old_state) {
    case FileState::kClosed:
      entry.state = write ? FileState::kOneWriter : FileState::kOneReader;
      break;

    case FileState::kClosedDirty:
      if (host == last_writer) {
        // The dirty data lives at the opener; its cache is valid by the
        // version rules (prev_version for write opens).
        entry.state = write ? FileState::kOneWriter : FileState::kOneRdrDirty;
        if (!write) {
          // stays recorded as last writer while reading its own dirty data
        } else {
          entry.last_writer = -1;
        }
      } else {
        // Retrieve the dirty blocks from the previous writer first.
        result.callbacks.push_back(CallbackAction{last_writer, /*writeback=*/true,
                                                  /*invalidate=*/false, /*relinquish=*/false});
        entry.state = write ? FileState::kOneWriter : FileState::kOneReader;
        entry.last_writer = -1;
      }
      break;

    case FileState::kOneReader:
      if (write) {
        if (entry.clients.size() == 1) {
          entry.state = FileState::kOneWriter;  // same client upgrades
        } else {
          to_write_shared(false, -1);
        }
      } else {
        entry.state = entry.clients.size() == 1 ? FileState::kOneReader : FileState::kMultReaders;
      }
      break;

    case FileState::kOneRdrDirty:
      if (entry.clients.size() == 1 && host == entry.clients.front().host) {
        // Same (dirty-holding) client opens again.
        if (write) {
          entry.state = FileState::kOneWriter;
          entry.last_writer = -1;
        }
        // read: stays ONE_RDR_DIRTY
      } else {
        if (write) {
          to_write_shared(true, last_writer);
        } else {
          result.callbacks.push_back(CallbackAction{last_writer, /*writeback=*/true,
                                                    /*invalidate=*/false, /*relinquish=*/false});
          entry.state = FileState::kMultReaders;
          entry.last_writer = -1;
        }
      }
      break;

    case FileState::kMultReaders:
      if (write) {
        to_write_shared(false, -1);
      }
      // read: stays MULT_READERS
      break;

    case FileState::kOneWriter: {
      bool same_client = !new_client && entry.clients.size() == 1;
      if (same_client) {
        // "no transition ... if a client that has a file open read-write
        // issues another open of any sort".
      } else {
        int old_writer = -1;
        for (const ClientInfo& c : entry.clients) {
          if (c.host != host) {
            old_writer = c.host;
            break;
          }
        }
        to_write_shared(/*old_holder_dirty=*/true, old_writer);
      }
      break;
    }

    case FileState::kWriteShared:
      // stays WRITE_SHARED; new arrivals don't cache either.
      break;
  }

  if (entry.state == FileState::kWriteShared) {
    result.cache_enabled = false;
  }
  result.state = entry.state;
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
    return CloseResult{entry.state, /*entry_known=*/false};
  }
  if (write) {
    if (me->writers > 0) {
      --me->writers;
    }
  } else {
    if (me->readers > 0) {
      --me->readers;
    }
  }
  bool client_done = me->readers + me->writers == 0;
  if (client_done) {
    entry.clients.erase(
        std::remove_if(entry.clients.begin(), entry.clients.end(),
                       [host](const ClientInfo& c) { return c.host == host; }),
        entry.clients.end());
  }

  uint32_t opens = TotalOpens(entry);
  uint32_t writers = TotalWriters(entry);

  if (opens == 0) {
    // Final close anywhere; the closing client's has_dirty declaration is
    // authoritative (in ONE_RDR_DIRTY the closer is the dirty holder).
    if (has_dirty) {
      entry.state = FileState::kClosedDirty;
      entry.last_writer = host;
    } else {
      entry.state = FileState::kClosed;
      entry.last_writer = -1;
    }
    return CloseResult{entry.state, true};
  }

  switch (entry.state) {
    case FileState::kWriteShared:
      // No downgrade until everyone is gone: caching cannot be re-enabled
      // mid-open (there is no "enable" callback), so remaining clients keep
      // going uncached.
      break;
    case FileState::kOneWriter:
      if (write && writers == 0) {
        // "Final close for write, client still reading" (Table 4-1).
        entry.state = has_dirty ? FileState::kOneRdrDirty : FileState::kOneReader;
        entry.last_writer = has_dirty ? host : -1;
      }
      break;
    case FileState::kMultReaders:
      if (entry.clients.size() == 1) {
        entry.state = FileState::kOneReader;
      }
      break;
    case FileState::kOneReader:
    case FileState::kOneRdrDirty:
      break;  // same client, multiple read opens
    case FileState::kClosed:
    case FileState::kClosedDirty:
      // Unreachable with opens > 0.
      break;
  }
  return CloseResult{entry.state, true};
}

void StateTable::Forget(const proto::FileHandle& fh) { entries_.erase(fh); }

void StateTable::MarkFlushed(const proto::FileHandle& fh) {
  auto it = entries_.find(fh);
  if (it == entries_.end()) {
    return;
  }
  Entry& entry = it->second;
  if (entry.state == FileState::kClosedDirty) {
    entry.state = FileState::kClosed;
    entry.last_writer = -1;
  } else if (entry.state == FileState::kOneRdrDirty) {
    entry.state = FileState::kOneReader;
    entry.last_writer = -1;
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
  entry.clients.erase(std::remove_if(entry.clients.begin(), entry.clients.end(),
                                     [dead_host](const ClientInfo& c) {
                                       return c.host == dead_host;
                                     }),
                      entry.clients.end());
  if (entry.last_writer == dead_host) {
    entry.last_writer = -1;
  }
  // Recompute a consistent state for the survivors.
  uint32_t opens = TotalOpens(entry);
  uint32_t writers = TotalWriters(entry);
  if (opens == 0) {
    entry.state = FileState::kClosed;
  } else if (writers > 0) {
    entry.state = entry.clients.size() == 1 ? FileState::kOneWriter : FileState::kWriteShared;
  } else {
    entry.state = entry.clients.size() == 1 ? FileState::kOneReader : FileState::kMultReaders;
  }
}

OpenResult StateTable::ApplyReopen(const proto::FileHandle& fh, int host, uint32_t read_count,
                                   uint32_t write_count, bool has_dirty, uint64_t cached_version,
                                   uint64_t stable_version) {
  Entry& entry = GetOrCreate(fh, std::max(cached_version, stable_version));
  entry.version = std::max(entry.version, std::max(cached_version, stable_version));

  ClientInfo* me = FindClient(entry, host);
  if (me == nullptr) {
    entry.clients.push_back(ClientInfo{host, 0, 0});
    me = &entry.clients.back();
  }
  me->readers = read_count;
  me->writers = write_count;
  if (has_dirty) {
    entry.last_writer = host;
  }
  // Drop clients with no remaining opens (a reopen may assert zero counts
  // plus dirty data only).
  entry.clients.erase(std::remove_if(entry.clients.begin(), entry.clients.end(),
                                     [](const ClientInfo& c) {
                                       return c.readers + c.writers == 0;
                                     }),
                      entry.clients.end());

  uint32_t opens = TotalOpens(entry);
  uint32_t writers = TotalWriters(entry);
  bool dirty = entry.last_writer >= 0;
  if (opens == 0) {
    entry.state = dirty ? FileState::kClosedDirty : FileState::kClosed;
  } else if (writers > 0) {
    entry.state = entry.clients.size() == 1 ? FileState::kOneWriter : FileState::kWriteShared;
  } else if (entry.clients.size() > 1) {
    entry.state = FileState::kMultReaders;
  } else {
    entry.state = dirty ? FileState::kOneRdrDirty : FileState::kOneReader;
  }

  OpenResult result;
  result.version = entry.version;
  result.prev_version = entry.prev_version;
  result.cache_enabled = entry.state != FileState::kWriteShared;
  result.possibly_inconsistent = entry.inconsistent;
  result.state = entry.state;
  return result;
}

std::vector<StateTable::ReclaimPlan> StateTable::PlanReclaim() {
  DropClosedEntries();
  std::vector<ReclaimPlan> plans;
  if (!over_limit()) {
    return plans;
  }
  size_t need = entries_.size() - params_.max_entries;
  // Pick victims in file-handle order, not hash order: the resulting
  // callbacks are awaited RPCs, so the choice feeds the event queue.
  std::vector<proto::FileHandle> dirty;
  for (const auto& [fh, entry] : entries_) {  // lint: ordered-ok (sorted below)
    if (entry.state == FileState::kClosedDirty) {
      dirty.push_back(fh);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  for (const proto::FileHandle& fh : dirty) {
    if (plans.size() >= need) {
      break;
    }
    plans.push_back(ReclaimPlan{
        fh, CallbackAction{entries_.at(fh).last_writer, /*writeback=*/true,
                           /*invalidate=*/false, /*relinquish=*/false}});
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
    if (entry.state == FileState::kClosed) {
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
    uint32_t opens = TotalOpens(entry);
    uint32_t writers = TotalWriters(entry);
    size_t nclients = entry.clients.size();
    for (const ClientInfo& c : entry.clients) {
      CHECK_GT(c.readers + c.writers, 0u);  // idle client blocks are removed
    }
    switch (entry.state) {
      case FileState::kClosed:
        CHECK_EQ(opens, 0u);
        CHECK_EQ(entry.last_writer, -1);
        break;
      case FileState::kClosedDirty:
        CHECK_EQ(opens, 0u);
        CHECK_GE(entry.last_writer, 0);
        break;
      case FileState::kOneReader:
        CHECK_EQ(nclients, 1u);
        CHECK_EQ(writers, 0u);
        CHECK_GT(opens, 0u);
        break;
      case FileState::kOneRdrDirty:
        CHECK_EQ(nclients, 1u);
        CHECK_EQ(writers, 0u);
        CHECK_GE(entry.last_writer, 0);
        break;
      case FileState::kMultReaders:
        CHECK_GE(nclients, 2u);
        CHECK_EQ(writers, 0u);
        break;
      case FileState::kOneWriter:
        CHECK_EQ(nclients, 1u);
        CHECK_GT(writers, 0u);
        break;
      case FileState::kWriteShared:
        CHECK_GT(opens, 0u);
        break;
    }
    CHECK_GE(entry.version, entry.prev_version);
  }
}

}  // namespace snfs
