#include "src/nqnfs/client.h"

#include <algorithm>
#include <string>

#include "src/trace/trace.h"

namespace nqnfs {

NqnfsClient::NqnfsClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
                         proto::FileHandle root_fh, cache::BufferCache& cache)
    : CachingClient(simulator, peer, server, root_fh, cache, "nqnfs") {}

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

void NqnfsClient::DropLease(NqnfsNode& node, const char* reason) {
  if (node.lease_expires == 0) {
    return;
  }
  node.lease_expires = 0;
  node.lease_write = false;
  TRACE_INSTANT("nqnfs.lease_end", peer_.address().host,
                "file=" + std::to_string(node.fh.fileid) + " reason=" + reason);
}

bool NqnfsClient::MayCache(const CachingNode& gnode, bool write) const {
  const auto& node = static_cast<const NqnfsNode&>(gnode);
  return node.lease_expires > simulator_.Now() && (node.lease_write || !write);
}

void NqnfsClient::AdoptUncachedAttrs(CachingNode& node, const proto::Attr& attr) {
  if (!cache_.HasDirty(mount_id_, node.fh.fileid)) {
    node.attr = attr;
  }
}

void NqnfsClient::BeforeWriteThrough(CachingNode& node) {
  // Our own cached blocks would miss this write, so stop trusting them.
  // This drops cache residency, not the lease — a live read lease (e.g.
  // after a failed upgrade) stays valid — so emit a distinct event:
  // `nqnfs.invalidated` would make the trace checker retire the lease
  // record and flag the next cached read as spurious.
  if (node.have_cached_data) {
    DropCachedData(node);
    TRACE_INSTANT("nqnfs.self_invalidate", peer_.address().host,
                  "file=" + std::to_string(node.fh.fileid) + " reason=write_through");
  }
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
    node->retry_grant_after = now + kDeniedRetry;
    co_return;
  }
  if (!rep->granted) {
    // Server quiet window: run uncached until it closes. The denial also
    // proves the server rebooted and lost its lease table — it can no
    // longer vacate us — so any lease a previous incarnation granted on
    // this file is unenforceable and must not license cached service.
    ++grants_denied_seen_;
    DropLease(*node, "denied");
    node->retry_grant_after = std::max(rep->retry_after, now + kDeniedRetry);
    if (node->have_cached_data) {
      DropCachedData(*node);
      TraceInvalidated(*node, "denied");
    }
    if (!cache_.HasDirty(mount_id_, node->fh.fileid)) {
      node->attr = rep->attr;
    }
    co_return;
  }

  // Cached blocks are good at the previous version too: the server reports
  // a distinct prev_version only when a cache at that version on this host
  // is known coherent — a write grant's own pessimistic bump, or a version
  // bump caused by this host's leaseless write-through burst.
  Revalidate(*node, rep->version, rep->prev_version, /*accept_prev=*/true);
  node->lease_write = write;
  node->lease_expires = rep->expires;
  node->retry_grant_after = 0;
  node->possibly_inconsistent = rep->possibly_inconsistent;
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
    co_await sim::Sleep(simulator_, kExpiryScanInterval, /*background=*/true);
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
        DropLease(*node, "expire");
        ++lease_expiries_;
        if (was_write && cache_.HasDirty(mount_id_, fileid)) {
          (void)co_await cache_.FlushFile(mount_id_, fileid);
        }
      } else if (node->lease_write && node->lease_expires - now <= kFlushMargin &&
                 cache_.HasDirty(mount_id_, fileid)) {
        // Nearing expiry with dirty data: push blocks out one at a time
        // until a write reply's piggybacked extension renews the lease
        // (usually the first one does) or the file runs clean. Flushing the
        // whole file here would write through delayed data that a remove or
        // the sync daemon may still handle for free — a large regression on
        // temp-file workloads.
        while (running() && cache_.HasDirty(mount_id_, fileid)) {
          now = simulator_.Now();
          if (node->lease_expires <= now || node->lease_expires - now > kFlushMargin) {
            break;  // lapsed (next scan write-through-flushes) or extended
          }
          (void)co_await cache_.FlushFile(mount_id_, fileid, /*max_blocks=*/1);
        }
      }
    }
  }
}

// --- open/close/remove ----------------------------------------------------------

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

sim::Task<base::Result<void>> NqnfsClient::Remove(vfs::GnodeRef dir, std::string name,
                                                  vfs::GnodeRef target) {
  NodeRef victim = AsNode<NqnfsNode>(target);
  cache_.Forget(mount_id_, victim->fh.fileid);
  victim->have_cached_data = false;
  DropLease(*victim, "remove");
  co_return co_await RemoveName(dir, std::move(name), victim->fh.fileid);
}

}  // namespace nqnfs
