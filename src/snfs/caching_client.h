// The client cache core shared by the SNFS and NQNFS clients.
//
// Both protocols run one Sprite-style client cache under two authorities:
// writes are delayed in the buffer cache, cached blocks are checked against
// the server's version at each grant (§3.1), an access the cache may not
// serve goes through to the server (§4.2.1), and the server's write-back /
// invalidate callbacks arrive on one channel (§4.2.2; NQNFS's vacates reuse
// it). Only the permission to cache differs — an open the SNFS server's
// state table marks cachable, or a live NQNFS lease — so this class owns
// the data path and each protocol supplies the permission through hooks.
// The protocol's grant path calls Revalidate, and its Remove has the buffer
// cache forget the file before sending the RPC.
#ifndef SRC_SNFS_CACHING_CLIENT_H_
#define SRC_SNFS_CACHING_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/net/network.h"
#include "src/nfs/remote_client.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/simulator.h"
#include "src/vfs/vfs.h"

namespace snfs {

class CachingClient : public nfs::RemoteClient {
 public:
  // Service a callback RPC from this mount's server: write the file's dirty
  // blocks back and/or stop caching it.
  sim::Task<proto::Reply> HandleCallback(proto::CallbackReq req);

  // --- vfs::FileSystem: the data path ---------------------------------------
  sim::Task<base::Result<std::vector<uint8_t>>> Read(vfs::GnodeRef node, uint64_t offset,
                                                     uint32_t count) final;
  sim::Task<base::Result<void>> Write(vfs::GnodeRef node, uint64_t offset,
                                      std::vector<uint8_t> data) final;
  sim::Task<base::Result<proto::Attr>> GetAttr(vfs::GnodeRef node) final;
  sim::Task<base::Result<void>> Truncate(vfs::GnodeRef node, uint64_t size) final;
  sim::Task<base::Result<void>> Fsync(vfs::GnodeRef node) final;

  uint64_t callbacks_served() const { return callbacks_served_; }

 protected:
  // `trace_name` names the protocol in this mount's trace events
  // ("<trace_name>.read_observe", ...).
  CachingClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
                proto::FileHandle root_fh, cache::BufferCache& cache, std::string trace_name);

  struct CachingNode : vfs::Gnode {
    bool have_cached_data = false;  // any blocks might be in the cache
    uint64_t cached_version = 0;    // version the cached blocks correspond to
    bool possibly_inconsistent = false;
  };
  using CachingNodeRef = std::shared_ptr<CachingNode>;

  // --- protocol hooks --------------------------------------------------------
  // Before a Read or Write: acquire the permission to cache, if the protocol
  // hands it out on demand. By default there is nothing to acquire.
  virtual sim::Task<void> Admit(CachingNodeRef node, bool write);
  // Whether the permission in hand lets the cache serve this access; when
  // it does not, the access goes through to the server.
  virtual bool MayCache(const CachingNode& node, bool write) const = 0;
  // An uncached Read or GetAttr reply's attributes; by default they replace
  // the node's.
  virtual void AdoptUncachedAttrs(CachingNode& node, const proto::Attr& attr) { node.attr = attr; }
  // Before an uncached Write goes through to the server.
  virtual void BeforeWriteThrough(CachingNode& node) {}
  // Appended to the callback span's "file= wb= inv=" args.
  virtual std::string CallbackSpanArgs(const proto::CallbackReq& req) const { return {}; }
  // An invalidating callback dropped the file's cached blocks: stop caching.
  virtual void RevokeCaching(CachingNode& node) = 0;
  // Runs last in every callback for a tracked file, inside its span.
  virtual void AfterCallback(CachingNodeRef node, const proto::CallbackReq& req) {}

  // Cache validation at a grant (§3.1): the cached blocks stay if they
  // match the granted version, or, with `accept_prev`, the version before
  // it; otherwise they are dropped. The node then holds `version`.
  void Revalidate(CachingNode& node, uint64_t version, uint64_t prev_version, bool accept_prev);
  // Drops every cached block of the file; dirty ones must be flushed first
  // if their data matters.
  void DropCachedData(CachingNode& node);
  // Records "<trace_name>.invalidated" for the file.
  void TraceInvalidated(const CachingNode& node, const char* reason) const;

 private:
  const std::string trace_name_;
  uint64_t callbacks_served_ = 0;
};

}  // namespace snfs

#endif  // SRC_SNFS_CACHING_CLIENT_H_
