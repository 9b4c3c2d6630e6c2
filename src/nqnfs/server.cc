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
  leases_.Clear();
  CallbackServer::Crash();
  vacates_in_progress_.clear();
  inconsistent_files_.clear();
  leaseless_bursts_.clear();
}

void NqnfsServer::Restart() {
  // Every lease a previous incarnation could have granted lapses within one
  // lease term of now; until then, grant nothing and serve data uncached.
  no_grant_until_ = simulator_.Now() + kLeaseTerm;
}

sim::Task<void> NqnfsServer::LeaseDaemon() {
  while (true) {
    co_await sim::Sleep(simulator_, kLeaseReapInterval, /*background=*/true);
    for (const auto& [key, lease] : leases_.Expired(simulator_.Now())) {
      leases_.Erase(key.fileid, key.host);
      ++lease_expiries_;
      // No callback and no trace event: expiry is by the clock alone, and
      // the trace checker retires write-lease grants the same way.
    }
  }
}

sim::Task<void> NqnfsServer::VacateOne(proto::FileHandle fh, LeaseKey key, Lease lease) {
  ++vacates_issued_;
  bool delivered = co_await Callback(
      key.host, proto::CallbackReq{.fh = fh, .writeback = lease.write, .invalidate = true});
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
      Lease* current = leases_.Find(key.fileid, key.host);
      if (current == nullptr || current->expires <= simulator_.Now()) {
        break;
      }
      co_await sim::Sleep(simulator_, current->expires - simulator_.Now());
    }
    if (lease.write) {
      inconsistent_files_.insert(key.fileid);
    }
  }
  vacates_in_progress_.erase(key);
  leases_.Erase(key.fileid, key.host);
  if (delivered && lease.write) {
    TRACE_INSTANT("nqnfs.write_lease_end", peer_.address().host,
                  "file=" + std::to_string(key.fileid) + " host=" + std::to_string(key.host) +
                      " reason=vacate");
  }
}

sim::Task<void> NqnfsServer::VacateConflicting(proto::FileHandle fh, int host, bool write) {
  // Re-scan from scratch after every awaited vacate: the table can change
  // arbitrarily while we wait (expiry scans, piggybacked extensions).
  while (true) {
    bool found = false;
    LeaseKey victim_key;
    Lease victim;
    sim::Time now = simulator_.Now();
    for (const auto& [key, lease] : leases_.HoldersOf(fh.fileid)) {
      if (key.host == host || (!write && !lease.write)) {
        continue;  // read leases coexist; the requester's own lease never conflicts
      }
      if (lease.expires <= now) {
        // Already lapsed; no callback owed. Count the expiry exactly as the
        // daemon's scan would have, so retiring it here does not undercount.
        leases_.Erase(key.fileid, key.host);
        ++lease_expiries_;
        continue;
      }
      victim_key = key;
      victim = lease;
      found = true;
      break;
    }
    if (!found) {
      co_return;
    }
    co_await VacateOne(fh, victim_key, victim);
  }
}

// Ownership of the file lock transfers out through the return value on the
// leaseless path; Handle releases it after the delegated write lands.
sim::Task<sim::Mutex*> NqnfsServer::PrepareForeignWrite(proto::FileHandle fh, int host) {
  if (VacateInProgress(fh.fileid, host)) {
    co_return nullptr;  // a write-back we requested; covered by the lease being vacated
  }
  Lease* mine = leases_.Find(fh.fileid, host);
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
  auto burst = leaseless_bursts_.find(fh.fileid);
  if (burst == leaseless_bursts_.end() || burst->second.host != host) {
    auto stable = fs_.Version(fh);
    auto bumped = fs_.BumpVersion(fh);
    if (stable.ok() && bumped.ok()) {
      leaseless_bursts_[fh.fileid] = LeaselessBurst{host, *stable};
    }  // ErrStale (racing remove): the write itself fails the same way
  }
  inconsistent_files_.erase(fh.fileid);
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

  Lease* mine = leases_.Find(req.fh.fileid, from.host);
  if (mine != nullptr && mine->expires <= simulator_.Now()) {
    // Our previous grant to this host lapsed while we vacated; start fresh
    // (counting the expiry, exactly as the daemon's scan would have).
    leases_.Erase(req.fh.fileid, from.host);
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
  // A leaseless burst bumped the version exactly once; the burst writer's
  // cache is coherent with the data it wrote through, so let it revalidate
  // against the pre-bump version. The grant retags its cache at `version`,
  // after which the record is spent. A write grant to anyone else lets the
  // data move on, making the burst writer's copy genuinely stale.
  if (auto burst = leaseless_bursts_.find(req.fh.fileid); burst != leaseless_bursts_.end()) {
    if (burst->second.host == from.host) {
      prev_version = burst->second.prev_version;
      leaseless_bursts_.erase(burst);
    } else if (req.write_mode) {
      leaseless_bursts_.erase(burst);
    }
  }
  sim::Time expires = simulator_.Now() + kLeaseTerm;
  bool write_mode = req.write_mode || already_writing;
  leases_.Put(req.fh.fileid, from.host, Lease{req.fh, write_mode, expires});
  ++leases_granted_;
  bool inconsistent = inconsistent_files_.erase(req.fh.fileid) > 0;
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
    Lease* lease = leases_.Find(data_target, from.host);
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
