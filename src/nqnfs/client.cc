#include "src/nqnfs/client.h"

#include <algorithm>
#include <string>

#include "src/base/log.h"
#include "src/trace/trace.h"

namespace nqnfs {

NqnfsClient::NqnfsClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
                         proto::FileHandle root_fh, cache::BufferCache& cache,
                         NqnfsClientParams params)
    : RemoteClient(simulator, peer, server, root_fh, cache, "nqnfs"), params_(params) {}

void NqnfsClient::SpawnDaemons(uint64_t generation) {
  simulator_.Spawn(ExpiryDaemon(generation));
}

void NqnfsClient::OnCrash() {
  // Workload code may hold GnodeRefs across a crash; unlike SNFS (where the
  // server holds the authority), an NQNFS node's lease_expires IS the
  // client's licence to serve cached data, so it must not survive a reboot.
  for (uint64_t fileid : NodeIds()) {
    NodeRef node = AsNode<NqnfsNode>(FindNode(fileid));
    node->lease_expires = 0;
    node->lease_write = false;
    node->have_cached_data = false;
    node->retry_grant_after = 0;
  }
}

// --- lease machinery ---------------------------------------------------------

void NqnfsClient::OnReply(const proto::Reply& reply) {
  if (reply.lease_file == 0) {
    return;
  }
  NodeRef node = AsNode<NqnfsNode>(FindNode(reply.lease_file));
  if (node == nullptr) {
    return;
  }
  // Only a still-live lease can be extended: a vacate or local expiry that
  // raced this reply wins.
  if (node->lease_expires != 0 && reply.lease_expires > node->lease_expires) {
    node->lease_expires = reply.lease_expires;
    TRACE_INSTANT("nqnfs.lease_extend", peer_.address().host,
                  "file=" + std::to_string(reply.lease_file) +
                      " expires=" + std::to_string(reply.lease_expires));
  }
}

void NqnfsClient::DropLease(NodeRef node, const char* reason) {
  if (node->lease_expires == 0) {
    return;
  }
  node->lease_expires = 0;
  node->lease_write = false;
  TRACE_INSTANT("nqnfs.lease_end", peer_.address().host,
                "file=" + std::to_string(node->fh.fileid) + " reason=" + reason);
}

sim::Task<void> NqnfsClient::EnsureLease(NodeRef node, bool write) {
  sim::Time now = simulator_.Now();
  if (node->lease_expires > now && (node->lease_write || !write)) {
    co_return;  // live lease already covers this access mode
  }
  if (now < node->retry_grant_after) {
    co_return;  // recently denied; run uncached instead of hammering the server
  }
  if (cache_.HasDirty(mount_id_, node->fh.fileid)) {
    // The lease lapsed with dirty blocks the expiry daemon has not pushed
    // out yet. Flush first — as leaseless write-throughs the server bumps
    // the version for, so no other cache can miss them — before asking for
    // a fresh grant.
    (void)co_await cache_.FlushFile(mount_id_, node->fh.fileid);
  }

  proto::GetLeaseReq req;
  req.fh = node->fh;
  req.write_mode = write;
  auto rep = rpc::Expect<proto::GetLeaseRep>(co_await Call(proto::Request(std::move(req))));
  now = simulator_.Now();
  if (!rep.ok()) {
    node->retry_grant_after = now + params_.denied_retry;
    co_return;
  }
  if (!rep->granted) {
    // Server quiet window: run uncached until it closes. The denial also
    // proves the server rebooted and lost its lease table — it can no
    // longer vacate us — so any lease a previous incarnation granted on
    // this file is unenforceable and must not license cached service.
    ++grants_denied_seen_;
    DropLease(node, "denied");
    node->retry_grant_after = std::max(rep->retry_after, now + params_.denied_retry);
    if (node->have_cached_data) {
      cache_.InvalidateFile(mount_id_, node->fh.fileid);
      node->have_cached_data = false;
      TRACE_INSTANT("nqnfs.invalidated", peer_.address().host,
                    "file=" + std::to_string(node->fh.fileid) + " reason=denied");
    }
    if (!cache_.HasDirty(mount_id_, node->fh.fileid)) {
      node->attr = rep->attr;
    }
    co_return;
  }

  // Cache validation, exactly as an SNFS open (§3.1): cached blocks are
  // good if they match the latest version or the previous one. The server
  // reports a distinct prev_version only when a cache at that version on
  // this host is known coherent: a write grant's own pessimistic bump, or
  // a version bump caused by this host's leaseless write-through burst.
  bool cache_valid = node->have_cached_data &&
                     (node->cached_version == rep->version ||
                      node->cached_version == rep->prev_version);
  if (node->have_cached_data && !cache_valid) {
    cache_.InvalidateFile(mount_id_, node->fh.fileid);
    node->have_cached_data = false;
    TRACE_INSTANT("nqnfs.invalidated", peer_.address().host,
                  "file=" + std::to_string(node->fh.fileid) + " reason=version");
  }
  node->cached_version = rep->version;
  node->lease_write = write;
  node->lease_expires = rep->expires;
  node->retry_grant_after = 0;
  node->possibly_inconsistent = rep->possibly_inconsistent;
  if (rep->possibly_inconsistent) {
    ++inconsistent_grants_;
  }
  // The grant carries attributes, replacing NFS's open-time getattr.
  if (!cache_.HasDirty(mount_id_, node->fh.fileid)) {
    node->attr = rep->attr;
  }
  ++leases_acquired_;
  TRACE_INSTANT("nqnfs.lease_grant", peer_.address().host,
                "file=" + std::to_string(node->fh.fileid) +
                    " version=" + std::to_string(rep->version) +
                    " write=" + (write ? "1" : "0") +
                    " expires=" + std::to_string(rep->expires));
}

sim::Task<void> NqnfsClient::ExpiryDaemon(uint64_t generation) {
  while (DaemonRunning(generation)) {
    co_await sim::Sleep(simulator_, params_.lease_scan, /*background=*/true);
    if (!DaemonRunning(generation)) {
      break;
    }
    // Flushes are awaited RPCs, so walk in fileid order to keep the event
    // queue independent of hash order.
    for (uint64_t fileid : NodeIds()) {
      NodeRef node = AsNode<NqnfsNode>(FindNode(fileid));  // hold a ref across the awaits
      if (node == nullptr) {
        continue;  // removed while an earlier flush was in flight
      }
      if (node->lease_expires == 0) {
        continue;
      }
      sim::Time now = simulator_.Now();
      if (node->lease_expires <= now) {
        // Lapsed. Stop trusting the cache first, then push any dirty blocks
        // out as plain write-throughs. Clean blocks stay for version
        // revalidation at the next grant.
        bool was_write = node->lease_write;
        DropLease(node, "expire");
        ++lease_expiries_;
        if (was_write && cache_.HasDirty(mount_id_, fileid)) {
          (void)co_await cache_.FlushFile(mount_id_, fileid);
        }
      } else if (node->lease_write && node->lease_expires - now <= params_.flush_margin &&
                 cache_.HasDirty(mount_id_, fileid)) {
        // Nearing expiry with dirty data: push blocks out one at a time
        // until a write reply's piggybacked extension renews the lease
        // (usually the first one does) or the file runs clean. Flushing the
        // whole file here would write through delayed data that a remove or
        // the sync daemon may still handle for free — a large regression on
        // temp-file workloads.
        while (running() && cache_.HasDirty(mount_id_, fileid)) {
          now = simulator_.Now();
          if (node->lease_expires <= now || node->lease_expires - now > params_.flush_margin) {
            break;  // lapsed (next scan write-through-flushes) or extended
          }
          (void)co_await cache_.FlushFile(mount_id_, fileid, /*max_blocks=*/1);
        }
      }
    }
  }
}

// --- callbacks ----------------------------------------------------------------

sim::Task<proto::Reply> NqnfsClient::HandleCallback(proto::CallbackReq req) {
  ++callbacks_served_;
  trace::Span serve_span;
  if (trace::Active() != nullptr) {
    serve_span.Begin("nqnfs.callback_serve", peer_.address().host,
                     "file=" + std::to_string(req.fh.fileid) +
                         " wb=" + (req.writeback ? "1" : "0") +
                         " inv=" + (req.invalidate ? "1" : "0"));
  }
  NodeRef node = AsNode<NqnfsNode>(FindNode(req.fh));
  if (node == nullptr) {
    co_return proto::OkReply(proto::CallbackRep{});
  }
  if (req.writeback) {
    // "The client should not return from the callback RPC until all the
    // dirty blocks have been written back to the server."
    (void)co_await cache_.FlushFile(mount_id_, node->fh.fileid);
  }
  if (req.invalidate) {
    cache_.InvalidateFile(mount_id_, node->fh.fileid);
    node->have_cached_data = false;
    DropLease(node, "vacate");
    TRACE_INSTANT("nqnfs.invalidated", peer_.address().host,
                  "file=" + std::to_string(node->fh.fileid) + " reason=callback");
  }
  co_return proto::OkReply(proto::CallbackRep{});
}

// --- data ----------------------------------------------------------------------

sim::Task<base::Result<void>> NqnfsClient::Open(vfs::GnodeRef gnode, bool write) {
  NodeRef node = AsNode<NqnfsNode>(gnode);
  co_await EnsureLease(node, write);
  if (write) {
    ++node->open_writes;
  } else {
    ++node->open_reads;
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> NqnfsClient::Close(vfs::GnodeRef gnode, bool write) {
  NodeRef node = AsNode<NqnfsNode>(gnode);
  if (write) {
    CHECK_GT(node->open_writes, 0u);
    --node->open_writes;
  } else {
    CHECK_GT(node->open_reads, 0u);
    --node->open_reads;
  }
  // No RPC and no flush: the lease outlives the open, and delayed writes
  // proceed asynchronously across closes exactly as in Sprite.
  co_return base::OkStatus();
}

sim::Task<base::Result<std::vector<uint8_t>>> NqnfsClient::Read(vfs::GnodeRef gnode,
                                                                uint64_t offset, uint32_t count) {
  NodeRef node = AsNode<NqnfsNode>(gnode);
  co_await EnsureLease(node, /*write=*/false);
  if (node->lease_expires <= simulator_.Now()) {
    // No lease: every read goes through to the server, read-ahead disabled.
    proto::ReadReq req;
    req.fh = node->fh;
    req.offset = offset;
    req.count = count;
    auto rep = rpc::Expect<proto::ReadRep>(co_await Call(proto::Request(std::move(req))));
    if (!rep.ok()) {
      co_return rep.status();
    }
    if (!cache_.HasDirty(mount_id_, node->fh.fileid)) {
      node->attr = rep->attr;
    }
    co_return rep->data.ToVector();
  }
  // Observation point for the lease-expired-read invariant: a cached read
  // may only be served inside a live lease, at the version it granted.
  TRACE_INSTANT("nqnfs.read_observe", peer_.address().host,
                "file=" + std::to_string(node->fh.fileid) +
                    " version=" + std::to_string(node->cached_version));
  auto data = co_await cache_.Read(mount_id_, node->fh.fileid, offset, count, node->attr.size,
                                   /*read_ahead=*/true);
  if (data.ok() && !data->empty()) {
    node->have_cached_data = true;
  }
  co_return data;
}

sim::Task<base::Result<void>> NqnfsClient::Write(vfs::GnodeRef gnode, uint64_t offset,
                                                 std::vector<uint8_t> data) {
  NodeRef node = AsNode<NqnfsNode>(gnode);
  co_await EnsureLease(node, /*write=*/true);
  if (node->lease_expires <= simulator_.Now() || !node->lease_write) {
    // No write lease: revert to synchronous write-through. Our own cached
    // blocks would miss this write, so stop trusting them. This drops cache
    // residency, not the lease — a live read lease (e.g. after a failed
    // upgrade) stays valid — so emit a distinct event: `nqnfs.invalidated`
    // would make the trace checker retire the lease record and flag the
    // next cached read as spurious.
    if (node->have_cached_data) {
      cache_.InvalidateFile(mount_id_, node->fh.fileid);
      node->have_cached_data = false;
      TRACE_INSTANT("nqnfs.self_invalidate", peer_.address().host,
                    "file=" + std::to_string(node->fh.fileid) + " reason=write_through");
    }
    proto::WriteReq req;
    req.fh = node->fh;
    req.offset = offset;
    req.data = std::move(data);
    auto rep = rpc::Expect<proto::AttrRep>(co_await Call(proto::Request(std::move(req))));
    if (!rep.ok()) {
      co_return rep.status();
    }
    node->attr = rep->attr;
    co_return base::OkStatus();
  }
  uint64_t end = offset + data.size();
  CO_RETURN_IF_ERROR(co_await cache_.WriteDelayed(mount_id_, node->fh.fileid, offset,
                                                  std::move(data), node->attr.size));
  node->have_cached_data = true;
  node->attr.size = std::max(node->attr.size, end);
  node->attr.mtime = simulator_.Now();
  co_return base::OkStatus();
}

sim::Task<base::Result<proto::Attr>> NqnfsClient::GetAttr(vfs::GnodeRef gnode) {
  NodeRef node = AsNode<NqnfsNode>(gnode);
  if (node->lease_expires > simulator_.Now()) {
    // A live lease keeps the attribute cache valid: any foreign write would
    // have vacated us first.
    co_return node->attr;
  }
  proto::GetAttrReq req;
  req.fh = node->fh;
  auto rep = rpc::Expect<proto::AttrRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  if (!cache_.HasDirty(mount_id_, node->fh.fileid)) {
    node->attr = rep->attr;
  }
  co_return node->attr;
}

sim::Task<base::Result<void>> NqnfsClient::Truncate(vfs::GnodeRef gnode, uint64_t size) {
  NodeRef node = AsNode<NqnfsNode>(gnode);
  cache_.CancelDirty(mount_id_, node->fh.fileid);
  cache_.InvalidateFile(mount_id_, node->fh.fileid);
  node->have_cached_data = false;
  proto::SetAttrReq req;
  req.fh = node->fh;
  req.size = size;
  auto rep = rpc::Expect<proto::AttrRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  node->attr = rep->attr;
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> NqnfsClient::Remove(vfs::GnodeRef dir, std::string name,
                                                  vfs::GnodeRef target) {
  NodeRef victim = AsNode<NqnfsNode>(target);
  // Deleting a file cancels its delayed writes, exactly as in Sprite/SNFS.
  cache_.CancelDirty(mount_id_, victim->fh.fileid);
  cache_.InvalidateFile(mount_id_, victim->fh.fileid);
  victim->have_cached_data = false;
  DropLease(victim, "remove");
  co_return co_await RemoveName(dir, std::move(name), victim->fh.fileid);
}

sim::Task<base::Result<void>> NqnfsClient::Fsync(vfs::GnodeRef gnode) {
  NodeRef node = AsNode<NqnfsNode>(gnode);
  co_return co_await cache_.FlushFile(mount_id_, node->fh.fileid);
}

}  // namespace nqnfs
