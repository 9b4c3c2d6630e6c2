#include "src/nqnfs/server.h"

#include <string>
#include <utility>

#include "src/trace/trace.h"

namespace nqnfs {

NqnfsServer::NqnfsServer(sim::Simulator& simulator, fs::LocalFs& fs, rpc::Peer& peer)
    : snfs::CallbackServer(simulator, fs, peer, "nqnfs.vacate") {
  simulator_.Spawn(LeaseDaemon());
}

void NqnfsServer::Crash() {
  files_.clear();
  CallbackServer::Crash();
}

void NqnfsServer::Restart() {
  // Every lease a previous incarnation could have granted lapses within one
  // lease term of now; until then, grant nothing and serve data uncached.
  no_grant_until_ = simulator_.Now() + kLeaseTerm;
}

size_t NqnfsServer::active_leases() const {
  size_t n = 0;
  for (const auto& [fileid, file] : files_) {  // lint: ordered-ok (commutative sum)
    n += file.holders.size();
  }
  return n;
}

NqnfsServer::FileState* NqnfsServer::Find(uint64_t fileid) {
  auto it = files_.find(fileid);
  return it == files_.end() ? nullptr : &it->second;
}

NqnfsServer::FileState& NqnfsServer::FindOrCreate(uint64_t fileid) { return files_[fileid]; }

NqnfsServer::Lease* NqnfsServer::FindLease(uint64_t fileid, int host) {
  FileState* file = Find(fileid);
  if (file == nullptr) {
    return nullptr;
  }
  auto it = file->holders.find(host);
  return it == file->holders.end() ? nullptr : &it->second;
}

void NqnfsServer::EraseLease(uint64_t fileid, int host) {
  if (FileState* file = Find(fileid)) {
    file->holders.erase(host);
    EraseIfEmpty(fileid);
  }
}

void NqnfsServer::EraseIfEmpty(uint64_t fileid) {
  auto it = files_.find(fileid);
  if (it != files_.end() && it->second.empty()) {
    files_.erase(it);
  }
}

void NqnfsServer::Forget(const proto::FileHandle& fh) {
  if (FileState* file = Find(fh.fileid)) {
    file->holders.clear();
    file->inconsistent = false;
    file->burst.reset();
    EraseIfEmpty(fh.fileid);
  }
}

sim::Task<void> NqnfsServer::LeaseDaemon() {
  while (true) {
    co_await sim::Sleep(simulator_, kLeaseReapInterval, /*background=*/true);
    // No callback and no trace event: expiry is by the clock alone, and the
    // trace checker retires write-lease grants the same way. The walk
    // schedules nothing, so its order is free.
    sim::Time now = simulator_.Now();
    for (auto file = files_.begin(); file != files_.end();) {
      lease_expiries_ += std::erase_if(
          file->second.holders, [now](const auto& holder) { return holder.second.expires <= now; });
      file = file->second.empty() ? files_.erase(file) : std::next(file);
    }
  }
}

sim::Task<void> NqnfsServer::VacateOne(proto::FileHandle fh, int host, Lease lease) {
  ++vacates_issued_;
  bool delivered = co_await Callback(
      host, proto::CallbackReq{.fh = fh, .writeback = lease.write, .invalidate = true});
  if (!delivered) {
    ++vacates_failed_;
    // The holder is unreachable but its lease is still a promise; the only
    // correct move is to wait for it to lapse. A dead write-lease holder
    // takes its un-flushed dirty blocks with it. The in-progress marker
    // stays up for the whole wait so a holder that comes back mid-wait
    // cannot extend the lease through the piggyback path; the loop re-finds
    // the lease after every sleep so an extension that landed before the
    // marker went up is waited out too — a live lease is never erased.
    while (true) {
      Lease* current = FindLease(fh.fileid, host);
      if (current == nullptr || current->expires <= simulator_.Now()) {
        break;
      }
      co_await sim::Sleep(simulator_, current->expires - simulator_.Now());
    }
    if (lease.write) {
      FindOrCreate(fh.fileid).inconsistent = true;
    }
  }
  if (FileState* file = Find(fh.fileid)) {
    file->vacating.erase(host);
    file->holders.erase(host);
    EraseIfEmpty(fh.fileid);
  }
  if (delivered && lease.write) {
    TRACE_INSTANT("nqnfs.write_lease_end", peer_.address().host,
                  "file=" + std::to_string(fh.fileid) + " host=" + std::to_string(host) +
                      " reason=vacate");
  }
}

sim::Task<void> NqnfsServer::VacateConflicting(proto::FileHandle fh, int host, bool write) {
  // Re-scan from scratch after every awaited vacate: the holders can change
  // arbitrarily while we wait (expiry scans, piggybacked extensions).
  while (true) {
    std::optional<std::pair<int, Lease>> victim;
    if (FileState* file = Find(fh.fileid)) {
      sim::Time now = simulator_.Now();
      for (auto it = file->holders.begin(); it != file->holders.end();) {
        const auto& [holder, lease] = *it;
        if (holder == host || (!write && !lease.write)) {
          ++it;
          continue;  // read leases coexist; the requester's own lease never conflicts
        }
        if (lease.expires <= now) {
          // Already lapsed; no callback owed. Count the expiry exactly as the
          // daemon's scan would have, so retiring it here does not undercount.
          it = file->holders.erase(it);
          ++lease_expiries_;
          continue;
        }
        victim.emplace(holder, lease);
        break;
      }
      EraseIfEmpty(fh.fileid);
    }
    if (!victim.has_value()) {
      co_return;
    }
    co_await VacateOne(fh, victim->first, victim->second);
  }
}

// Ownership of the file lock transfers out through the return value on the
// leaseless path; Handle releases it after the delegated write lands.
sim::Task<sim::Mutex*> NqnfsServer::PrepareForeignWrite(proto::FileHandle fh, int host) {
  if (VacateInProgress(fh.fileid, host)) {
    co_return nullptr;  // a write-back we requested; covered by the lease being vacated
  }
  Lease* mine = FindLease(fh.fileid, host);
  if (mine != nullptr && mine->write && mine->expires > simulator_.Now()) {
    co_return nullptr;  // lease-covered flush: the grant already bumped the version
  }
  // Leaseless write-through (an uncached client, or a post-expiry flush):
  // serialize against grants, force every cached copy out, and bump the
  // version so no stale cache can revalidate against the overwritten data.
  // One bump per burst suffices — every later write in the same run from
  // the same host leaves other caches just as stale as the first did —
  // and bumping per RPC would only push the burst writer's own coherent
  // cache further from the prev_version it revalidates with.
  sim::Mutex& lock = FileLock(fh);
  co_await lock.Acquire();
  co_await VacateConflicting(fh, host, /*write=*/true);
  FileState& file = FindOrCreate(fh.fileid);
  if (!file.burst.has_value() || file.burst->host != host) {
    auto stable = fs_.Version(fh);
    auto bumped = fs_.BumpVersion(fh);
    if (stable.ok() && bumped.ok()) {
      file.burst = LeaselessBurst{host, *stable};
    }  // ErrStale (racing remove): the write itself fails the same way
  }
  file.inconsistent = false;
  EraseIfEmpty(fh.fileid);
  // The lock stays held until the delegated write has landed: releasing it
  // here would open a window where a foreign GetLease grants a read lease
  // whose holder caches the pre-write data at the post-bump version.
  co_return &lock;
}

sim::Task<proto::Reply> NqnfsServer::HandleGetLease(proto::GetLeaseReq req, net::Address from) {
  auto attr = fs_.GetAttr(req.fh);
  if (!attr.ok()) {
    co_return proto::ErrorReply(attr.status());
  }
  if (in_quiet_window()) {
    ++grants_denied_;
    proto::GetLeaseRep rep;
    rep.granted = false;
    rep.retry_after = no_grant_until_;
    rep.attr = *attr;
    co_return proto::OkReply(rep);
  }
  sim::Mutex& lock = FileLock(req.fh);
  co_await lock.Acquire();
  co_await VacateConflicting(req.fh, from.host, req.write_mode);

  Lease* mine = FindLease(req.fh.fileid, from.host);
  if (mine != nullptr && mine->expires <= simulator_.Now()) {
    // Our previous grant to this host lapsed while we vacated; start fresh
    // (counting the expiry, exactly as the daemon's scan would have).
    EraseLease(req.fh.fileid, from.host);
    ++lease_expiries_;
    mine = nullptr;
  }
  const bool already_writing = mine != nullptr && mine->write;
  auto stable = fs_.Version(req.fh);
  if (!stable.ok()) {
    lock.Release();
    co_return proto::ErrorReply(stable.status());
  }
  uint64_t version = *stable;
  uint64_t prev_version = *stable;
  if (req.write_mode && !already_writing) {
    // Pessimistic bump, exactly as an SNFS write open (§3.1): the grantee
    // may write, and readers revalidating later must notice.
    auto bumped = fs_.BumpVersion(req.fh);
    if (!bumped.ok()) {
      lock.Release();
      co_return proto::ErrorReply(bumped.status());
    }
    version = *bumped;
  }
  FileState& file = FindOrCreate(req.fh.fileid);
  // A leaseless burst bumped the version exactly once; the burst writer's
  // cache is coherent with the data it wrote through, so let it revalidate
  // against the pre-bump version. The grant retags its cache at `version`,
  // after which the burst is spent. A write grant to anyone else lets the
  // data move on, making the burst writer's copy genuinely stale.
  if (file.burst.has_value()) {
    if (file.burst->host == from.host) {
      prev_version = file.burst->prev_version;
      file.burst.reset();
    } else if (req.write_mode) {
      file.burst.reset();
    }
  }
  sim::Time expires = simulator_.Now() + kLeaseTerm;
  bool write_mode = req.write_mode || already_writing;
  file.holders[from.host] = Lease{write_mode, expires};
  ++leases_granted_;
  bool inconsistent = std::exchange(file.inconsistent, false);
  // Vacated write-backs may have changed size and mtime.
  attr = fs_.GetAttr(req.fh);
  lock.Release();
  if (!attr.ok()) {
    co_return proto::ErrorReply(attr.status());
  }
  if (write_mode) {
    TRACE_INSTANT("nqnfs.write_lease_grant", peer_.address().host,
                  "file=" + std::to_string(req.fh.fileid) + " host=" + std::to_string(from.host) +
                      " expires=" + std::to_string(expires));
  }
  proto::GetLeaseRep rep;
  rep.granted = true;
  rep.version = version;
  rep.prev_version = prev_version;
  rep.expires = expires;
  rep.attr = *attr;
  rep.possibly_inconsistent = inconsistent;
  co_return proto::OkReply(rep);
}

sim::Task<proto::Reply> NqnfsServer::Handle(proto::Request request, net::Address from) {
  uint64_t data_target = 0;       // file whose reply may carry a lease extension
  sim::Mutex* write_lock = nullptr;  // held across a leaseless write-through
  switch (proto::KindOf(request)) {
    case proto::OpKind::kGetLease:
      co_return co_await HandleGetLease(std::get<proto::GetLeaseReq>(request), from);
    case proto::OpKind::kRead:
      data_target = std::get<proto::ReadReq>(request).fh.fileid;
      break;
    case proto::OpKind::kGetAttr:
      data_target = std::get<proto::GetAttrReq>(request).fh.fileid;
      break;
    case proto::OpKind::kWrite: {
      const auto& req = std::get<proto::WriteReq>(request);
      data_target = req.fh.fileid;
      write_lock = co_await PrepareForeignWrite(req.fh, from.host);
      break;
    }
    case proto::OpKind::kSetAttr: {
      const auto& req = std::get<proto::SetAttrReq>(request);
      data_target = req.fh.fileid;
      write_lock = co_await PrepareForeignWrite(req.fh, from.host);
      break;
    }
    default:
      break;  // namespace traffic and everything else passes straight through
  }

  proto::Reply reply = co_await CallbackServer::Handle(std::move(request), from);
  if (write_lock != nullptr) {
    write_lock->Release();
  }

  // Piggyback a lease extension on successful data replies to a live
  // holder ("the lease is extended as a side effect of other RPCs"), so
  // actively-used files never pay a lease-renewal round trip. Never extend
  // a lease we are in the middle of vacating.
  if (reply.status.ok() && data_target != 0 && !VacateInProgress(data_target, from.host)) {
    Lease* lease = FindLease(data_target, from.host);
    if (lease != nullptr && lease->expires > simulator_.Now()) {
      lease->expires = simulator_.Now() + kLeaseTerm;
      reply.lease_file = data_target;
      reply.lease_expires = lease->expires;
      if (lease->write) {
        TRACE_INSTANT("nqnfs.write_lease_extend", peer_.address().host,
                      "file=" + std::to_string(data_target) +
                          " host=" + std::to_string(from.host) +
                          " expires=" + std::to_string(lease->expires));
      }
    }
  }
  co_return reply;
}

}  // namespace nqnfs
