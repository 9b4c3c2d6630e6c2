#include "src/nfs/client.h"

#include <algorithm>
#include <string>

#include "src/trace/trace.h"

namespace nfs {

using cache::kBlockSize;

NfsClient::NfsClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
                     proto::FileHandle root_fh, cache::BufferCache& cache, NfsClientParams params)
    : RemoteClient(simulator, peer, server, root_fh, cache, "nfs"),
      params_(params),
      biods_(simulator, kNumBiods) {}

vfs::GnodeRef NfsClient::NewNode() {
  auto node = std::make_shared<NfsNode>(simulator_);
  node->attr_fetched = simulator_.Now();
  return node;
}

void NfsClient::MergeAttrs(vfs::Gnode& node, const proto::Attr& attr) {
  UpdateAttrs(static_cast<NfsNode&>(node), attr);
}

void NfsClient::OnFetched(vfs::Gnode& gnode, const proto::Attr& attr) {
  auto& node = static_cast<NfsNode&>(gnode);
  UpdateAttrs(node, attr);
  if (node.cached_data_mtime < 0) {
    node.cached_data_mtime = attr.mtime;
  }
}

void NfsClient::OnCreated(vfs::Gnode& node, const proto::Attr& attr) {
  static_cast<NfsNode&>(node).cached_data_mtime = attr.mtime;
}

void NfsClient::UpdateAttrs(NfsNode& node, const proto::Attr& attr) {
  // Our own in-flight writes keep the local size ahead of the server's.
  uint64_t local_size = node.pending_writes.count() > 0 || !node.partial.empty()
                            ? std::max(node.attr.size, attr.size)
                            : attr.size;
  node.attr = attr;
  node.attr.size = local_size;
  node.attr_fetched = simulator_.Now();
}

void NfsClient::AdaptTimeout(NfsNode& node, bool changed) {
  if (changed) {
    node.attr_timeout = kAttrTimeoutMin;
  } else {
    node.attr_timeout = std::min<sim::Duration>(node.attr_timeout * 2, kAttrTimeoutMax);
  }
}

void NfsClient::InvalidateData(NfsNode& node) {
  cache_.InvalidateFile(mount_id_, node.fh.fileid);
  node.cached_data_mtime = -1;
  ++cache_invalidations_;
  TRACE_INSTANT("nfs.invalidated", peer_.address().host,
                "file=" + std::to_string(node.fh.fileid) + " reason=mtime");
}

sim::Task<base::Result<void>> NfsClient::Probe(NodeRef node) {
  ++attr_probes_;
  proto::GetAttrReq req;
  req.fh = node->fh;
  auto rep = rpc::Expect<proto::AttrRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  bool changed =
      node->cached_data_mtime >= 0 && rep->attr.mtime != node->cached_data_mtime;
  if (changed) {
    InvalidateData(*node);
    node->cached_data_mtime = rep->attr.mtime;
  } else if (node->cached_data_mtime < 0) {
    node->cached_data_mtime = rep->attr.mtime;
  }
  AdaptTimeout(*node, changed);
  UpdateAttrs(*node, rep->attr);
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> NfsClient::ProbeIfStale(NodeRef node) {
  if (node->attr_fetched >= 0 &&
      simulator_.Now() - node->attr_fetched < node->attr_timeout) {
    co_return base::OkStatus();
  }
  co_return co_await Probe(node);
}

// --- Write-behind ------------------------------------------------------------

void NfsClient::SpawnAsyncWrite(NodeRef node, uint64_t offset, proto::Bytes data) {
  node->pending_writes.Add();
  simulator_.Spawn(AsyncWriteBody(std::move(node), offset, std::move(data)));
}

sim::Task<void> NfsClient::AsyncWriteBody(NodeRef node, uint64_t offset, proto::Bytes data) {
  co_await biods_.Acquire();
  proto::WriteReq req;
  req.fh = node->fh;
  req.offset = offset;
  req.data = std::move(data);
  auto rep = rpc::Expect<proto::AttrRep>(co_await Call(proto::Request(std::move(req))));
  biods_.Release();
  if (rep.ok()) {
    // The write bumped the server mtime; adopt it so our own writes don't
    // look like another client's modifications at the next probe.
    node->cached_data_mtime = std::max(node->cached_data_mtime, rep->attr.mtime);
    UpdateAttrs(*node, rep->attr);
  } else if (node->write_error.ok()) {
    node->write_error = rep.status();
  }
  node->pending_writes.Done();
}

sim::Task<base::Result<void>> NfsClient::FlushPartials(NodeRef node) {
  while (!node->partial.empty()) {
    auto it = node->partial.begin();
    uint64_t block = it->first;
    std::vector<uint8_t> data = std::move(it->second);
    node->partial.erase(it);
    SpawnAsyncWrite(node, block * kBlockSize, std::move(data));
  }
  co_return base::OkStatus();
}

sim::Task<void> NfsClient::DrainWrites(NodeRef node) {
  co_await node->pending_writes.Wait();
}

// --- FileSystem interface ------------------------------------------------------

sim::Task<base::Result<void>> NfsClient::Open(vfs::GnodeRef gnode, bool write) {
  NodeRef node = AsNode<NfsNode>(gnode);
  // "The check is also made each time the client opens a file."
  CO_RETURN_IF_ERROR(co_await Probe(node));
  if (write) {
    ++node->open_writes;
  } else {
    ++node->open_reads;
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> NfsClient::Close(vfs::GnodeRef gnode, bool write) {
  NodeRef node = AsNode<NfsNode>(gnode);
  // Push out delayed partial blocks, then synchronously finish all pending
  // write-throughs.
  CO_RETURN_IF_ERROR(co_await FlushPartials(node));
  co_await DrainWrites(node);
  if (write) {
    CHECK_GT(node->open_writes, 0u);
    --node->open_writes;
  } else {
    CHECK_GT(node->open_reads, 0u);
    --node->open_reads;
  }
  if (params_.invalidate_on_close && node->open_writes + node->open_reads == 0) {
    InvalidateData(*node);
  }
  base::Status err = node->write_error;
  node->write_error = base::OkStatus();
  co_return base::Result<void>(err);
}

sim::Task<base::Result<std::vector<uint8_t>>> NfsClient::Read(vfs::GnodeRef gnode,
                                                              uint64_t offset, uint32_t count) {
  NodeRef node = AsNode<NfsNode>(gnode);
  // Periodic consistency check while the file is in use.
  CO_RETURN_IF_ERROR(co_await ProbeIfStale(node));
  co_return co_await cache_.Read(mount_id_, node->fh.fileid, offset, count, node->attr.size,
                                 /*read_ahead=*/true);
}

sim::Task<base::Result<void>> NfsClient::Write(vfs::GnodeRef gnode, uint64_t offset,
                                               std::vector<uint8_t> data) {
  NodeRef node = AsNode<NfsNode>(gnode);
  if (data.empty()) {
    co_return base::OkStatus();
  }
  uint64_t end = offset + data.size();
  uint64_t first_block = offset / kBlockSize;
  uint64_t last_block = (end - 1) / kBlockSize;
  proto::Bytes written(std::move(data));
  for (uint64_t b = first_block; b <= last_block; ++b) {
    uint64_t block_start = b * kBlockSize;
    uint64_t seg_from = std::max<uint64_t>(offset, block_start);
    uint64_t seg_to = std::min<uint64_t>(end, block_start + kBlockSize);
    // One buffer for the write-through and the cached copy: the caller's
    // own when the write lies within one block.
    proto::Bytes segment =
        first_block == last_block
            ? written
            : proto::Bytes(written.data() + (seg_from - offset), seg_to - seg_from);

    // Merge with any delayed partial buffer for this block.
    auto pit = node->partial.find(b);
    bool have_partial = pit != node->partial.end();
    uint64_t partial_len = have_partial ? pit->second.size() : 0;
    bool contiguous = have_partial && block_start + partial_len == seg_from;

    if (have_partial && !contiguous) {
      // Non-sequential write into a block with a pending partial: flush the
      // old partial first to keep things simple (rare in practice).
      std::vector<uint8_t> old = std::move(pit->second);
      node->partial.erase(pit);
      SpawnAsyncWrite(node, b * kBlockSize, std::move(old));
      have_partial = false;
    }

    bool reaches_block_end = seg_to == block_start + kBlockSize;
    if (params_.delay_partial_writes && !reaches_block_end) {
      // Delay: stash the (possibly extended) partial buffer.
      if (contiguous && have_partial) {
        auto& buf = node->partial[b];
        buf.insert(buf.end(), segment.begin(), segment.end());
      } else if (seg_from == block_start) {
        node->partial[b] = segment.ToVector();
      } else {
        // Partial not starting at block head and no buffered prefix: write
        // through immediately (cannot buffer a hole).
        SpawnAsyncWrite(node, seg_from, segment);
      }
    } else {
      if (contiguous && have_partial) {
        std::vector<uint8_t> buf = std::move(node->partial[b]);
        node->partial.erase(b);
        buf.insert(buf.end(), segment.begin(), segment.end());
        SpawnAsyncWrite(node, block_start, std::move(buf));
      } else {
        SpawnAsyncWrite(node, seg_from, segment);
      }
    }
    // Either way the client cache holds the new data for its own reads.
    cache_.InsertClean(mount_id_, node->fh.fileid, seg_from, segment);
  }
  node->attr.size = std::max(node->attr.size, end);
  node->attr.mtime = simulator_.Now();
  co_return base::OkStatus();
}

sim::Task<base::Result<proto::Attr>> NfsClient::GetAttr(vfs::GnodeRef gnode) {
  NodeRef node = AsNode<NfsNode>(gnode);
  CO_RETURN_IF_ERROR(co_await ProbeIfStale(node));
  co_return node->attr;
}

sim::Task<base::Result<void>> NfsClient::Truncate(vfs::GnodeRef gnode, uint64_t size) {
  NodeRef node = AsNode<NfsNode>(gnode);
  node->partial.clear();
  co_await DrainWrites(node);
  proto::SetAttrReq req;
  req.fh = node->fh;
  req.size = size;
  auto rep = rpc::Expect<proto::AttrRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  InvalidateData(*node);
  node->cached_data_mtime = rep->attr.mtime;
  UpdateAttrs(*node, rep->attr);
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> NfsClient::Remove(vfs::GnodeRef dir, std::string name,
                                                vfs::GnodeRef target) {
  NodeRef victim = AsNode<NfsNode>(target);
  // NFS cannot cancel anything: data was written through already. Just make
  // sure nothing is still in flight, then drop the cached copies.
  victim->partial.clear();
  co_await DrainWrites(victim);
  CO_RETURN_IF_ERROR(co_await RemoveName(dir, std::move(name), victim->fh.fileid));
  cache_.InvalidateFile(mount_id_, victim->fh.fileid);
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> NfsClient::Fsync(vfs::GnodeRef gnode) {
  NodeRef node = AsNode<NfsNode>(gnode);
  CO_RETURN_IF_ERROR(co_await FlushPartials(node));
  co_await DrainWrites(node);
  base::Status err = node->write_error;
  node->write_error = base::OkStatus();
  co_return base::Result<void>(err);
}

}  // namespace nfs
