#include "src/snfs/server.h"

#include <string>
#include <utility>

#include "src/trace/trace.h"

namespace snfs {

SnfsServer::SnfsServer(sim::Simulator& simulator, fs::LocalFs& fs, rpc::Peer& peer,
                       SnfsServerParams params)
    : CallbackServer(simulator, fs, peer, "snfs.callback"),
      params_(params),
      table_(params.max_state_entries) {}

void SnfsServer::Crash() {
  table_.Clear();
  CallbackServer::Crash();
}

void SnfsServer::Restart() {
  ++epoch_;
  if (params_.enable_recovery) {
    recovery_until_ = simulator_.Now() + kRecoveryGrace;
  }
}

sim::Task<void> SnfsServer::IssueCallback(proto::FileHandle fh,
                                          CallbackAction action) {
  if (action.host < 0) {
    co_return;
  }
  ++callbacks_issued_;
  proto::CallbackReq req{.fh = fh, .writeback = action.writeback, .invalidate = action.invalidate};
  if (!co_await Callback(action.host, req)) {
    // "If the client 'serving' the callback is down, the SNFS server can
    // honor the new open operation, but it should inform the new client
    // that the file may be in an inconsistent state."
    ++callbacks_failed_;
    table_.MarkInconsistent(fh, action.host);
  } else if (action.writeback) {
    table_.MarkFlushed(fh);
  }
}

sim::Task<proto::Reply> SnfsServer::HandleOpen(proto::OpenReq req, net::Address from) {
  if (in_recovery()) {
    co_return proto::ErrorReply(base::ErrUnavailable());
  }
  auto attr = fs_.GetAttr(req.fh);
  if (!attr.ok()) {
    co_return proto::ErrorReply(attr.status());
  }
  sim::Mutex& lock = FileLock(req.fh);
  co_await lock.Acquire();

  uint64_t seed_version;
  if (params_.version_mode == VersionMode::kStable) {
    auto stable_version = fs_.Version(req.fh);
    if (!stable_version.ok()) {
      lock.Release();
      co_return proto::ErrorReply(stable_version.status());
    }
    seed_version = *stable_version;
  } else {
    // Paper prototype: a file first seen (or seen again after its entry was
    // reclaimed) gets a fresh number from the global counter, which will
    // not match any client's cached version.
    seed_version = table_.Lookup(req.fh) != nullptr ? 0 : ++global_version_counter_;
  }
  OpenResult outcome = table_.OnOpen(req.fh, from.host, req.write_mode, seed_version);
  if (outcome.version_bumped && params_.version_mode == VersionMode::kStable) {
    // Persist the new version with the file (Sprite keeps it on stable
    // storage; §4.3.3 explains why the global-counter shortcut is unsound).
    auto bumped = fs_.BumpVersion(req.fh);
    CHECK(bumped.ok() && *bumped == outcome.version);
  }
  for (const CallbackAction& action : outcome.callbacks) {
    co_await IssueCallback(req.fh, action);
  }
  // Refresh attrs: callbacks may have written data back to us.
  attr = fs_.GetAttr(req.fh);
  const StateTable::Entry* entry = table_.Lookup(req.fh);
  bool inconsistent = entry != nullptr && entry->inconsistent;
  lock.Release();

  if (!attr.ok()) {
    co_return proto::ErrorReply(attr.status());
  }

  if (table_.over_limit() && !reclaim_scheduled_) {
    reclaim_scheduled_ = true;
    simulator_.Spawn(ReclaimEntries());
  }

  TRACE_INSTANT("snfs.version_grant", peer_.address().host,
                "file=" + std::to_string(req.fh.fileid) +
                    " version=" + std::to_string(outcome.version) +
                    " prev=" + std::to_string(outcome.prev_version) +
                    " host=" + std::to_string(from.host) +
                    " cache=" + (outcome.cache_enabled ? "1" : "0") +
                    " write=" + (req.write_mode ? "1" : "0"));

  proto::OpenRep rep;
  rep.cache_enabled = outcome.cache_enabled;
  rep.version = outcome.version;
  rep.prev_version = outcome.prev_version;
  rep.attr = *attr;
  rep.possibly_inconsistent = inconsistent;
  co_return proto::OkReply(rep);
}

sim::Task<proto::Reply> SnfsServer::HandleClose(proto::CloseReq req, net::Address from) {
  sim::ScopedLock lock(FileLock(req.fh));
  co_await lock;
  CloseResult result = table_.OnClose(req.fh, from.host, req.write_mode, req.has_dirty);
  (void)result;
  co_return proto::OkReply(proto::CloseRep{});
}

sim::Task<proto::Reply> SnfsServer::HandleReopen(proto::ReopenReq req, net::Address from) {
  auto stable_version = fs_.Version(req.fh);
  if (!stable_version.ok()) {
    co_return proto::ErrorReply(stable_version.status());
  }
  sim::ScopedLock lock(FileLock(req.fh));
  co_await lock;
  OpenResult outcome = table_.ApplyReopen(req.fh, from.host, req.read_count, req.write_count,
                                          req.has_dirty, req.cached_version, *stable_version);
  proto::ReopenRep rep;
  rep.cache_enabled = outcome.cache_enabled;
  rep.version = outcome.version;
  co_return proto::OkReply(rep);
}

sim::Task<void> SnfsServer::ReclaimEntries() {
  std::vector<StateTable::ReclaimPlan> plans = table_.PlanReclaim();
  for (const StateTable::ReclaimPlan& plan : plans) {
    sim::ScopedLock lock(FileLock(plan.fh));
    co_await lock;
    // The entry may have changed or gone while this plan waited for the
    // lock; then its dirty blocks are no longer at the planned writer.
    const StateTable::Entry* entry = table_.Lookup(plan.fh);
    if (entry == nullptr || entry->state() != FileState::kClosedDirty ||
        entry->last_writer != plan.callback.host) {
      continue;
    }
    ++reclaims_;
    TRACE_INSTANT("snfs.reclaim", peer_.address().host,
                  "file=" + std::to_string(plan.fh.fileid));
    co_await IssueCallback(plan.fh, plan.callback);
    entry = table_.Lookup(plan.fh);
    if (entry != nullptr && entry->state() == FileState::kClosed) {
      table_.Forget(plan.fh);
    }
  }
  reclaim_scheduled_ = false;
}

sim::Task<proto::Reply> SnfsServer::Handle(proto::Request request, net::Address from) {
  switch (proto::KindOf(request)) {
    case proto::OpKind::kOpen:
      co_return co_await HandleOpen(std::get<proto::OpenReq>(request), from);
    case proto::OpKind::kClose:
      co_return co_await HandleClose(std::get<proto::CloseReq>(request), from);
    case proto::OpKind::kReopen:
      co_return co_await HandleReopen(std::get<proto::ReopenReq>(request), from);
    case proto::OpKind::kPing: {
      proto::PingRep rep;
      rep.responder_epoch = epoch_;
      rep.in_recovery = in_recovery();
      co_return proto::OkReply(rep);
    }
    default:
      break;  // every other operation is plain NFS
  }
  co_return co_await CallbackServer::Handle(std::move(request), from);
}

}  // namespace snfs
