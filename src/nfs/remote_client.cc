#include "src/nfs/remote_client.h"

#include <algorithm>
#include <utility>

namespace nfs {

using cache::kBlockSize;

RemoteClient::RemoteClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
                           proto::FileHandle root_fh, cache::BufferCache& cache,
                           std::string trace_name)
    : simulator_(simulator), peer_(peer), cache_(cache), server_(server), root_fh_(root_fh) {
  cache::Backing backing;
  backing.fetch = [this](uint64_t fileid, uint64_t block) { return FetchBlock(fileid, block); };
  backing.store = [this](uint64_t fileid, uint64_t block, proto::Bytes data) {
    return StoreBlock(fileid, block, std::move(data));
  };
  // Attribute this mount's dirty-state transitions to its protocol on this
  // host, so the trace checker can enforce single-writer caching.
  backing.trace_name = std::move(trace_name);
  backing.trace_machine = peer_.address().host;
  mount_id_ = cache_.RegisterMount(std::move(backing));
}

void RemoteClient::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ++daemon_generation_;
  SpawnDaemons(daemon_generation_);
}

void RemoteClient::Crash() {
  running_ = false;
  OnCrash();
  nodes_.clear();
}

// --- node table ----------------------------------------------------------------

void RemoteClient::MergeAttrs(vfs::Gnode& node, const proto::Attr& attr) {
  // Attributes for files we hold dirty data on are locally authoritative.
  if (!cache_.HasDirty(mount_id_, node.fh.fileid)) {
    proto::Attr merged = attr;
    merged.size = std::max(merged.size, node.attr.size);
    node.attr = merged;
  }
}

vfs::GnodeRef RemoteClient::Intern(const proto::FileHandle& fh, const proto::Attr& attr) {
  if (vfs::GnodeRef node = FindNode(fh)) {
    MergeAttrs(*node, attr);
    return node;
  }
  vfs::GnodeRef node = NewNode();
  node->fh = fh;
  node->attr = attr;
  nodes_[fh.fileid] = node;
  return node;
}

vfs::GnodeRef RemoteClient::FindNode(uint64_t fileid) const {
  auto it = nodes_.find(fileid);
  return it == nodes_.end() ? nullptr : it->second;
}

vfs::GnodeRef RemoteClient::FindNode(const proto::FileHandle& fh) const {
  vfs::GnodeRef node = FindNode(fh.fileid);
  return node != nullptr && node->fh == fh ? node : nullptr;
}

std::vector<uint64_t> RemoteClient::NodeIds() const {
  std::vector<uint64_t> fileids;
  fileids.reserve(nodes_.size());
  for (const auto& [fileid, node] : nodes_) {  // lint: ordered-ok (sorted below)
    fileids.push_back(fileid);
  }
  std::sort(fileids.begin(), fileids.end());
  return fileids;
}

// --- RPCs ------------------------------------------------------------------------

sim::Task<base::Result<proto::Reply>> RemoteClient::Call(proto::Request request) {
  auto reply = co_await peer_.Call(server_, std::move(request));
  if (reply.ok()) {
    OnReply(*reply);
  }
  co_return reply;
}

sim::Task<base::Result<proto::Bytes>> RemoteClient::FetchBlock(uint64_t fileid, uint64_t block) {
  vfs::GnodeRef node = FindNode(fileid);  // hold a ref: the RPC may outlast the entry
  if (node == nullptr) {
    co_return base::ErrStale();
  }
  proto::ReadReq req;
  req.fh = node->fh;
  req.offset = block * kBlockSize;
  req.count = kBlockSize;
  auto rep = rpc::Expect<proto::ReadRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  OnFetched(*node, rep->attr);
  co_return std::move(rep->data);
}

// Only the delayed-write protocols store through the cache; NFS writes
// through with its biods instead.
sim::Task<base::Result<void>> RemoteClient::StoreBlock(uint64_t fileid, uint64_t block,
                                                       proto::Bytes data) {
  vfs::GnodeRef node = FindNode(fileid);
  if (node == nullptr) {
    co_return base::ErrStale();
  }
  proto::WriteReq req;
  req.fh = node->fh;
  req.offset = block * kBlockSize;
  req.data = std::move(data);
  auto rep = rpc::Expect<proto::AttrRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> RemoteClient::RemoveName(vfs::GnodeRef dir, std::string name,
                                                       uint64_t fileid) {
  proto::RemoveReq req;
  req.dir = dir->fh;
  req.name = name;
  auto rep = rpc::Expect<proto::NullRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  nodes_.erase(fileid);
  co_return base::OkStatus();
}

// --- namespace operations ----------------------------------------------------------

sim::Task<base::Result<vfs::GnodeRef>> RemoteClient::Root() {
  if (vfs::GnodeRef root = FindNode(root_fh_.fileid)) {
    co_return root;
  }
  proto::GetAttrReq req;
  req.fh = root_fh_;
  auto rep = rpc::Expect<proto::AttrRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return Intern(root_fh_, rep->attr);
}

sim::Task<base::Result<vfs::GnodeRef>> RemoteClient::Lookup(vfs::GnodeRef dir,
                                                            std::string name) {
  proto::LookupReq req;
  req.dir = dir->fh;
  req.name = name;
  auto rep = rpc::Expect<proto::LookupRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return Intern(rep->fh, rep->attr);
}

sim::Task<base::Result<vfs::GnodeRef>> RemoteClient::Create(vfs::GnodeRef dir,
                                                            std::string name,
                                                            bool exclusive) {
  proto::CreateReq req;
  req.dir = dir->fh;
  req.name = name;
  req.exclusive = exclusive;
  auto rep = rpc::Expect<proto::CreateRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  vfs::GnodeRef node = Intern(rep->fh, rep->attr);
  OnCreated(*node, rep->attr);
  co_return node;
}

sim::Task<base::Result<vfs::GnodeRef>> RemoteClient::Mkdir(vfs::GnodeRef dir,
                                                           std::string name) {
  proto::MkdirReq req;
  req.dir = dir->fh;
  req.name = name;
  auto rep = rpc::Expect<proto::CreateRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return Intern(rep->fh, rep->attr);
}

sim::Task<base::Result<void>> RemoteClient::Rmdir(vfs::GnodeRef dir, std::string name) {
  proto::RmdirReq req;
  req.dir = dir->fh;
  req.name = name;
  auto rep = rpc::Expect<proto::NullRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> RemoteClient::Rename(vfs::GnodeRef from_dir,
                                                   std::string from_name,
                                                   vfs::GnodeRef to_dir,
                                                   std::string to_name) {
  proto::RenameReq req;
  req.from_dir = from_dir->fh;
  req.from_name = from_name;
  req.to_dir = to_dir->fh;
  req.to_name = to_name;
  auto rep = rpc::Expect<proto::NullRep>(co_await Call(proto::Request(std::move(req))));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<std::vector<proto::DirEntry>>> RemoteClient::ReadDir(vfs::GnodeRef dir) {
  std::vector<proto::DirEntry> all;
  uint64_t cookie = 0;
  while (true) {
    proto::ReadDirReq req;
    req.dir = dir->fh;
    req.cookie = cookie;
    req.count = 64;
    auto rep = rpc::Expect<proto::ReadDirRep>(co_await Call(proto::Request(std::move(req))));
    if (!rep.ok()) {
      co_return rep.status();
    }
    for (auto& e : rep->entries) {
      cookie = e.cookie;
      all.push_back(std::move(e));
    }
    if (rep->eof) {
      break;
    }
  }
  co_return all;
}

}  // namespace nfs
