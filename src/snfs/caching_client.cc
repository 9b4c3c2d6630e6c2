#include "src/snfs/caching_client.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/trace/trace.h"

namespace snfs {

CachingClient::CachingClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
                             proto::FileHandle root_fh, cache::BufferCache& cache,
                             std::string trace_name)
    : RemoteClient(simulator, peer, server, root_fh, cache, trace_name),
      trace_name_(std::move(trace_name)) {}

sim::Task<void> CachingClient::Admit(CachingNodeRef node, bool write) { co_return; }

// --- cache state ------------------------------------------------------------------

void CachingClient::Revalidate(CachingNode& node, uint64_t version, uint64_t prev_version,
                               bool accept_prev) {
  bool valid = node.cached_version == version ||
               (accept_prev && node.cached_version == prev_version);
  if (node.have_cached_data && !valid) {
    DropCachedData(node);
    TraceInvalidated(node, "version");
  }
  node.cached_version = version;
}

void CachingClient::DropCachedData(CachingNode& node) {
  cache_.InvalidateFile(mount_id_, node.fh.fileid);
  node.have_cached_data = false;
}

void CachingClient::TraceInvalidated(const CachingNode& node, const char* reason) const {
  TRACE_INSTANT(trace_name_ + ".invalidated", peer_.address().host,
                "file=" + std::to_string(node.fh.fileid) + " reason=" + reason);
}

// --- callbacks ----------------------------------------------------------------------

sim::Task<proto::Reply> CachingClient::HandleCallback(proto::CallbackReq req) {
  ++callbacks_served_;
  trace::Span serve_span;
  if (trace::Active() != nullptr) {
    serve_span.Begin(trace_name_ + ".callback_serve", peer_.address().host,
                     "file=" + std::to_string(req.fh.fileid) +
                         " wb=" + (req.writeback ? "1" : "0") +
                         " inv=" + (req.invalidate ? "1" : "0") + CallbackSpanArgs(req));
  }
  CachingNodeRef node = AsNode<CachingNode>(FindNode(req.fh));
  if (node == nullptr) {
    co_return proto::OkReply(proto::CallbackRep{});
  }
  if (req.writeback) {
    // "The client should not return from the callback RPC until all the
    // dirty blocks have been written back to the server."
    (void)co_await cache_.FlushFile(mount_id_, node->fh.fileid);
  }
  if (req.invalidate) {
    DropCachedData(*node);
    RevokeCaching(*node);
    TraceInvalidated(*node, "callback");
  }
  AfterCallback(node, req);
  co_return proto::OkReply(proto::CallbackRep{});
}

// --- data ----------------------------------------------------------------------------

sim::Task<base::Result<std::vector<uint8_t>>> CachingClient::Read(vfs::GnodeRef gnode,
                                                                  uint64_t offset,
                                                                  uint32_t count) {
  CachingNodeRef node = AsNode<CachingNode>(gnode);
  co_await Admit(node, /*write=*/false);
  if (!MayCache(*node, /*write=*/false)) {
    // Every read goes to the server, read-ahead disabled.
    proto::ReadReq req;
    req.fh = node->fh;
    req.offset = offset;
    req.count = count;
    auto rep = rpc::Expect<proto::ReadRep>(co_await Call(proto::Request(std::move(req))));
    if (!rep.ok()) {
      co_return rep.status();
    }
    AdoptUncachedAttrs(*node, rep->attr);
    co_return rep->data.ToVector();
  }
  // Observation point for the trace checker's stale-read and
  // lease-expired-read invariants: a cached read may only see the version
  // the last grant validated, and only while the permission to cache holds.
  TRACE_INSTANT(trace_name_ + ".read_observe", peer_.address().host,
                "file=" + std::to_string(node->fh.fileid) +
                    " version=" + std::to_string(node->cached_version));
  auto data = co_await cache_.Read(mount_id_, node->fh.fileid, offset, count, node->attr.size,
                                   /*read_ahead=*/true);
  if (data.ok() && !data->empty()) {
    node->have_cached_data = true;
  }
  co_return data;
}

sim::Task<base::Result<void>> CachingClient::Write(vfs::GnodeRef gnode, uint64_t offset,
                                                   std::vector<uint8_t> data) {
  CachingNodeRef node = AsNode<CachingNode>(gnode);
  co_await Admit(node, /*write=*/true);
  if (!MayCache(*node, /*write=*/true)) {
    // Revert to synchronous write-through, giving single-copy consistency
    // between writer and server.
    BeforeWriteThrough(*node);
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

sim::Task<base::Result<proto::Attr>> CachingClient::GetAttr(vfs::GnodeRef gnode) {
  CachingNodeRef node = AsNode<CachingNode>(gnode);
  if (MayCache(*node, /*write=*/false)) {
    // "In SNFS, the attributes cache needs no refreshing if the file is
    // cachable"; a live NQNFS lease does the same, since any foreign write
    // would have vacated it first.
    co_return node->attr;
  }
  proto::GetAttrReq req;
  req.fh = node->fh;
  auto rep = rpc::Expect<proto::AttrRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  AdoptUncachedAttrs(*node, rep->attr);
  co_return node->attr;
}

sim::Task<base::Result<void>> CachingClient::Truncate(vfs::GnodeRef gnode, uint64_t size) {
  CachingNodeRef node = AsNode<CachingNode>(gnode);
  cache_.CancelDirty(mount_id_, node->fh.fileid);
  DropCachedData(*node);
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

sim::Task<base::Result<void>> CachingClient::Fsync(vfs::GnodeRef gnode) {
  CachingNodeRef node = AsNode<CachingNode>(gnode);
  // "If reliability is more important than performance, an application can
  // use explicit file-flushing operations to cause write-through."
  co_return co_await cache_.FlushFile(mount_id_, node->fh.fileid);
}

}  // namespace snfs
