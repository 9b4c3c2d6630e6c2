// The remote-client core shared by the NFS, SNFS and NQNFS clients.
//
// The three protocols name and move files identically: the namespace
// operations (root, lookup, create, mkdir, rmdir, rename, readdir) are
// plain NFS RPCs whose replies are interned into one node table per mount,
// and the buffer cache fetches and stores blocks with plain NFS read and
// write RPCs. Only the consistency protocol differs — SNFS is NFS plus
// open/close RPCs and callbacks (§4.3.1), NQNFS is NFS plus leases — so
// this class owns everything else, and each protocol supplies open, close,
// read, write, getattr, truncate, remove and fsync, plus a few hooks (SNFS
// and NQNFS share their data path and callback service in
// snfs::CachingClient):
//
//  * NewNode: the protocol's per-file state (a vfs::Gnode subclass);
//  * MergeAttrs: how server attributes update a node the mount already
//    tracks (by default a file with dirty cached blocks keeps its local
//    attributes, and a known size never shrinks);
//  * OnFetched / OnCreated: what a block fetch or a create reply tells the
//    protocol (NFS records the mtime its cached data matches);
//  * OnReply: sees the reply of every RPC the mount sends (NQNFS applies
//    the lease extensions the server piggybacks on them);
//  * SpawnDaemons / OnCrash: background activity, and per-file state that
//    must not survive a crash.
#ifndef SRC_NFS_REMOTE_CLIENT_H_
#define SRC_NFS_REMOTE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/simulator.h"
#include "src/vfs/vfs.h"

namespace nfs {

class RemoteClient : public vfs::FileSystem {
 public:
  RemoteClient(const RemoteClient&) = delete;
  RemoteClient& operator=(const RemoteClient&) = delete;

  // Spawns the protocol's daemons; a no-op while they run.
  void Start();

  // Crash simulation: the daemons stop, and the per-file state — which
  // lives in kernel memory — dies with the machine. The buffer cache is
  // dropped separately by the machine.
  void Crash();

  // True when this mount tracks exactly `fh`.
  bool Owns(const proto::FileHandle& fh) const { return FindNode(fh) != nullptr; }
  net::Address server() const { return server_; }
  int mount_id() const { return mount_id_; }

  // --- vfs::FileSystem: the namespace operations ----------------------------
  sim::Task<base::Result<vfs::GnodeRef>> Root() final;
  sim::Task<base::Result<vfs::GnodeRef>> Lookup(vfs::GnodeRef dir, std::string name) final;
  sim::Task<base::Result<vfs::GnodeRef>> Create(vfs::GnodeRef dir, std::string name,
                                                bool exclusive) final;
  sim::Task<base::Result<vfs::GnodeRef>> Mkdir(vfs::GnodeRef dir, std::string name) final;
  sim::Task<base::Result<void>> Rmdir(vfs::GnodeRef dir, std::string name) final;
  sim::Task<base::Result<void>> Rename(vfs::GnodeRef from_dir, std::string from_name,
                                       vfs::GnodeRef to_dir, std::string to_name) final;
  sim::Task<base::Result<std::vector<proto::DirEntry>>> ReadDir(vfs::GnodeRef dir) final;

 protected:
  // Registers the mount's backing store with `cache`; `trace_name` names
  // the protocol in the cache's dirty-state trace events.
  RemoteClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
               proto::FileHandle root_fh, cache::BufferCache& cache, std::string trace_name);

  // --- protocol hooks --------------------------------------------------------
  virtual vfs::GnodeRef NewNode() = 0;
  virtual void MergeAttrs(vfs::Gnode& node, const proto::Attr& attr);
  virtual void OnFetched(vfs::Gnode& node, const proto::Attr& attr) {}
  virtual void OnCreated(vfs::Gnode& node, const proto::Attr& attr) {}
  virtual void OnReply(const proto::Reply& reply) {}
  virtual void SpawnDaemons(uint64_t generation) {}
  virtual void OnCrash() {}

  // Every RPC the mount sends to its server goes through here, so OnReply
  // sees them all — the cache's own fetch and store traffic included.
  sim::Task<base::Result<proto::Reply>> Call(proto::Request request);

  // Send the remove RPC; on success the mount forgets the victim's node.
  sim::Task<base::Result<void>> RemoveName(vfs::GnodeRef dir, std::string name,
                                           uint64_t fileid);

  template <typename Node>
  static std::shared_ptr<Node> AsNode(const vfs::GnodeRef& node) {
    return std::static_pointer_cast<Node>(node);
  }
  // The node for `fh`, merging `attr` into it, or a fresh one.
  vfs::GnodeRef Intern(const proto::FileHandle& fh, const proto::Attr& attr);
  // nullptr when the mount tracks no such file.
  vfs::GnodeRef FindNode(uint64_t fileid) const;
  vfs::GnodeRef FindNode(const proto::FileHandle& fh) const;
  // Every tracked fileid, ascending. Walks that await per file use this
  // order so the event queue never depends on hashing, and re-find each
  // node after every suspension point.
  std::vector<uint64_t> NodeIds() const;

  bool running() const { return running_; }
  // False once a later Start or a Crash retired the daemons of `generation`.
  bool DaemonRunning(uint64_t generation) const {
    return running_ && generation == daemon_generation_;
  }

  sim::Simulator& simulator_;
  rpc::Peer& peer_;
  cache::BufferCache& cache_;
  int mount_id_ = -1;

 private:
  sim::Task<base::Result<proto::Bytes>> FetchBlock(uint64_t fileid, uint64_t block);
  sim::Task<base::Result<void>> StoreBlock(uint64_t fileid, uint64_t block, proto::Bytes data);

  net::Address server_;
  proto::FileHandle root_fh_;
  bool running_ = false;
  // Bumped on every Start: daemons from a previous incarnation observe the
  // change and exit instead of running alongside their replacements.
  uint64_t daemon_generation_ = 0;
  std::unordered_map<uint64_t, vfs::GnodeRef> nodes_;
};

}  // namespace nfs

#endif  // SRC_NFS_REMOTE_CLIENT_H_
