#include "src/snfs/client.h"

#include <string>

#include "src/trace/trace.h"

namespace snfs {

SnfsClient::SnfsClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
                       proto::FileHandle root_fh, cache::BufferCache& cache,
                       SnfsClientParams params)
    : CachingClient(simulator, peer, server, root_fh, cache, "snfs"), params_(params) {}

void SnfsClient::SpawnDaemons(uint64_t generation) {
  if (params_.delayed_close) {
    simulator_.Spawn(DelayedCloseDaemon(generation));
  }
  if (params_.enable_recovery) {
    simulator_.Spawn(KeepaliveDaemon(generation));
  }
}

// --- open/close --------------------------------------------------------------

sim::Task<base::Result<void>> SnfsClient::SendOpen(NodeRef node, bool write) {
  proto::OpenReq req;
  req.fh = node->fh;
  req.write_mode = write;
  for (int attempt = 0;; ++attempt) {
    auto rep = rpc::Expect<proto::OpenRep>(co_await Call(proto::Request(req)));
    if (!rep.ok()) {
      if (rep.status() == base::ErrUnavailable() && attempt < kOpenRetryLimit) {
        // Server is rebooting / in its recovery grace period.
        co_await sim::Sleep(simulator_, kOpenRetryDelay);
        continue;
      }
      co_return rep.status();
    }

    // A writer's cache is also valid at the previous version: the bump was
    // caused by this very open.
    Revalidate(*node, rep->version, rep->prev_version, /*accept_prev=*/write);
    node->cache_enabled = rep->cache_enabled;
    TRACE_INSTANT("snfs.open_granted", peer_.address().host,
                  "file=" + std::to_string(node->fh.fileid) +
                      " version=" + std::to_string(rep->version) +
                      " write=" + (write ? "1" : "0") +
                      " cache=" + (rep->cache_enabled ? "1" : "0"));
    if (!rep->cache_enabled) {
      // Write-shared: nobody caches. Any dirty blocks should already have
      // been called back, but be safe.
      if (cache_.HasDirty(mount_id_, node->fh.fileid)) {
        (void)co_await cache_.FlushFile(mount_id_, node->fh.fileid);
      }
      DropCachedData(*node);
    }
    node->possibly_inconsistent = rep->possibly_inconsistent;
    if (rep->possibly_inconsistent) {
      ++inconsistent_opens_;
    }
    // The open reply carries attributes, replacing NFS's open-time getattr.
    if (!cache_.HasDirty(mount_id_, node->fh.fileid)) {
      node->attr = rep->attr;
    }
    if (write) {
      ++node->server_writes;
    } else {
      ++node->server_reads;
    }
    co_return base::OkStatus();
  }
}

sim::Task<void> SnfsClient::SendClose(NodeRef node, bool write) {
  proto::CloseReq req;
  req.fh = node->fh;
  req.write_mode = write;
  req.has_dirty = cache_.HasDirty(mount_id_, node->fh.fileid);
  (void)co_await Call(proto::Request(std::move(req)));
  if (write) {
    CHECK_GT(node->server_writes, 0u);
    --node->server_writes;
  } else {
    CHECK_GT(node->server_reads, 0u);
    --node->server_reads;
  }
}

sim::Task<void> SnfsClient::FlushOwedCloses(NodeRef node) {
  while (OwedWrites(*node) > 0) {
    co_await SendClose(node, /*write=*/true);
  }
  while (OwedReads(*node) > 0) {
    co_await SendClose(node, /*write=*/false);
  }
}

sim::Task<base::Result<void>> SnfsClient::Open(vfs::GnodeRef gnode, bool write) {
  NodeRef node = AsNode<SnfsNode>(gnode);
  bool need_rpc = true;
  if (params_.delayed_close) {
    // Reuse a server-side open we never closed, if its mode covers us.
    if (write ? OwedWrites(*node) > 0 : (OwedReads(*node) > 0 || OwedWrites(*node) > 0)) {
      ++delayed_close_hits_;
      need_rpc = false;
    }
  }
  if (need_rpc) {
    CO_RETURN_IF_ERROR(co_await SendOpen(node, write));
  }
  if (write) {
    ++node->open_writes;
  } else {
    ++node->open_reads;
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> SnfsClient::Close(vfs::GnodeRef gnode, bool write) {
  NodeRef node = AsNode<SnfsNode>(gnode);
  if (write) {
    CHECK_GT(node->open_writes, 0u);
    --node->open_writes;
  } else {
    CHECK_GT(node->open_reads, 0u);
    --node->open_reads;
  }
  node->last_close = simulator_.Now();
  if (!params_.delayed_close) {
    // No flush of dirty data here — that is the whole point of SNFS.
    co_await SendClose(node, write);
  }
  // With delayed close, the close RPC is owed: server counts stay high
  // until a callback, the scan daemon, or an unlink settles the debt.
  co_return base::OkStatus();
}

sim::Task<void> SnfsClient::DelayedCloseDaemon(uint64_t generation) {
  while (DaemonRunning(generation)) {
    co_await sim::Sleep(simulator_, kDelayedCloseScan, /*background=*/true);
    if (!DaemonRunning(generation)) {
      break;
    }
    sim::Time cutoff = simulator_.Now() - kDelayedCloseTimeout;
    // Spontaneously close files not reopened for a while (§6.2), in fileid
    // order so the scan is hash-order independent.
    std::vector<NodeRef> victims;
    for (uint64_t fileid : NodeIds()) {
      NodeRef node = AsNode<SnfsNode>(FindNode(fileid));
      if ((OwedReads(*node) > 0 || OwedWrites(*node) > 0) && node->last_close <= cutoff) {
        victims.push_back(node);
      }
    }
    if (!victims.empty()) {
      TRACE_INSTANT("snfs.delayed_close_scan", peer_.address().host,
                    "victims=" + std::to_string(victims.size()));
    }
    for (const NodeRef& node : victims) {
      co_await FlushOwedCloses(node);
    }
  }
}

// --- callbacks ----------------------------------------------------------------

void SnfsClient::AfterCallback(CachingNodeRef gnode, const proto::CallbackReq& req) {
  NodeRef node = std::static_pointer_cast<SnfsNode>(gnode);
  // §6.2: "if a client with a delayed-close file receives a callback for
  // that file, the appropriate response is to close the file so that it can
  // be cached by the new client host". Deferred: issuing close RPCs from
  // inside the callback would deadlock against the server-side per-file
  // lock held by our caller.
  bool fully_closed_locally = node->open_reads + node->open_writes == 0;
  bool owes_closes = OwedReads(*node) > 0 || OwedWrites(*node) > 0;
  if (params_.delayed_close && owes_closes && (req.relinquish || fully_closed_locally)) {
    simulator_.Spawn(FlushOwedCloses(node));
  }
}

// --- recovery -----------------------------------------------------------------

sim::Task<void> SnfsClient::KeepaliveDaemon(uint64_t generation) {
  // First ping runs immediately to establish the epoch baseline; then the
  // loop settles into the keepalive cadence.
  bool suspected_down = false;
  bool first = true;
  rpc::CallOptions ping_opts;
  ping_opts.timeout = sim::Sec(2);
  ping_opts.max_attempts = 2;
  while (DaemonRunning(generation)) {
    if (!first) {
      co_await sim::Sleep(simulator_, kKeepaliveInterval, /*background=*/true);
    }
    first = false;
    if (!DaemonRunning(generation)) {
      break;
    }
    proto::PingReq req;
    req.sender_epoch = 1;
    auto rep = rpc::Expect<proto::PingRep>(co_await peer_.Call(server(), req, ping_opts));
    if (!DaemonRunning(generation)) {
      co_return;  // the client crashed while the ping was in flight
    }
    if (!rep.ok()) {
      // Missed keepalive: the server may have crashed (or the network
      // partitioned); recover once it answers again.
      suspected_down = true;
      continue;
    }
    bool epoch_changed = last_seen_epoch_ != 0 && rep->responder_epoch != last_seen_epoch_;
    if (epoch_changed || (suspected_down && last_seen_epoch_ != 0)) {
      co_await RunRecovery();
    }
    suspected_down = false;
    last_seen_epoch_ = rep->responder_epoch;
  }
}

sim::Task<void> SnfsClient::RunRecovery() {
  ++recoveries_run_;
  // Reopen files in fileid order: each reopen is an awaited RPC, so the
  // walk order feeds the event queue and must not depend on hashing.
  for (uint64_t fileid : NodeIds()) {
    NodeRef node = AsNode<SnfsNode>(FindNode(fileid));  // hold a ref across the awaits
    if (node == nullptr) {
      continue;
    }
    bool has_dirty = cache_.HasDirty(mount_id_, fileid);
    if (node->server_reads == 0 && node->server_writes == 0 && !has_dirty) {
      continue;
    }
    proto::ReopenReq req;
    req.fh = node->fh;
    req.read_count = node->server_reads;
    req.write_count = node->server_writes;
    req.has_dirty = has_dirty;
    req.cached_version = node->cached_version;
    auto rep = rpc::Expect<proto::ReopenRep>(co_await Call(proto::Request(std::move(req))));
    if (!rep.ok()) {
      continue;
    }
    node->cached_version = rep->version;
    TRACE_INSTANT("snfs.open_granted", peer_.address().host,
                  "file=" + std::to_string(fileid) + " version=" + std::to_string(rep->version) +
                      " write=" + (node->server_writes > 0 ? "1" : "0") +
                      " cache=" + (rep->cache_enabled ? "1" : "0") + " reopen=1");
    if (!rep->cache_enabled) {
      if (has_dirty) {
        (void)co_await cache_.FlushFile(mount_id_, fileid);
      }
      DropCachedData(*node);
      node->cache_enabled = false;
      TraceInvalidated(*node, "reopen");
    }
  }
}

// --- remove --------------------------------------------------------------------

sim::Task<base::Result<void>> SnfsClient::Remove(vfs::GnodeRef dir, std::string name,
                                                 vfs::GnodeRef target) {
  NodeRef victim = AsNode<SnfsNode>(target);
  // "Sprite and SNFS take advantage of this behavior by 'cancelling'
  // delayed writes when a file is deleted" (§4.2.3).
  cache_.Forget(mount_id_, victim->fh.fileid);
  // Settle any delayed closes so the server can drop its entry cleanly.
  if (params_.delayed_close) {
    co_await FlushOwedCloses(victim);
  }
  co_return co_await RemoveName(dir, std::move(name), victim->fh.fileid);
}

}  // namespace snfs
