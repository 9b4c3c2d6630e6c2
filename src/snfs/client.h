// The SNFS client (§4.2): explicit open/close RPCs, version-validated
// client caching, server callbacks (write-back / invalidate), and the
// Sprite-style delayed-write policy. The cached data path is the caching
// core's (src/snfs/caching_client.h); this class adds the opens that grant
// the permission to cache, delayed close and crash recovery.
//
// Key behavioural differences from the NFS client:
//  * no attribute-cache refreshing while a file is cachable — the explicit
//    protocol keeps attributes valid (§4.2.1);
//  * writes are delayed in the buffer cache and are NOT flushed at close
//    ("Sprite allows the client's writebacks to proceed asynchronously even
//    across file closes");
//  * deleting a file cancels its delayed writes (§4.2.3);
//  * non-cachable (write-shared) files bypass the cache entirely: every
//    read and write goes to the server, read-ahead is disabled, and
//    attributes always come from the server (§4.2.1);
//  * optional delayed-close (§6.2): the close RPC is deferred in
//    anticipation of a quick reopen, eliminating open/close traffic for
//    reopen-heavy patterns (popular header files).
#ifndef SRC_SNFS_CLIENT_H_
#define SRC_SNFS_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/simulator.h"
#include "src/snfs/caching_client.h"
#include "src/vfs/vfs.h"

namespace snfs {

// §6.2 delayed close: a file not reopened for kDelayedCloseTimeout is
// closed spontaneously by a scan every kDelayedCloseScan.
inline constexpr sim::Duration kDelayedCloseTimeout = sim::Sec(180);
inline constexpr sim::Duration kDelayedCloseScan = sim::Sec(30);
// Open retries while the server is in its recovery grace period.
inline constexpr int kOpenRetryLimit = 90;
inline constexpr sim::Duration kOpenRetryDelay = sim::Sec(1);
// Crash recovery (§2.4): how often the client pings the server to notice a
// reboot.
inline constexpr sim::Duration kKeepaliveInterval = sim::Sec(5);

struct SnfsClientParams {
  bool delayed_close = false;  // §6.2
  // Crash-recovery extension (§2.4).
  bool enable_recovery = false;
};

class SnfsClient : public CachingClient {
 public:
  SnfsClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
             proto::FileHandle root_fh, cache::BufferCache& cache, SnfsClientParams params = {});

  // --- vfs::FileSystem ------------------------------------------------------
  sim::Task<base::Result<void>> Open(vfs::GnodeRef node, bool write) override;
  sim::Task<base::Result<void>> Close(vfs::GnodeRef node, bool write) override;
  sim::Task<base::Result<void>> Remove(vfs::GnodeRef dir, std::string name,
                                       vfs::GnodeRef target) override;

  uint64_t delayed_close_hits() const { return delayed_close_hits_; }
  uint64_t recoveries_run() const { return recoveries_run_; }
  uint64_t inconsistent_opens() const { return inconsistent_opens_; }

 private:
  struct SnfsNode : CachingNode {
    bool cache_enabled = true;
    // What the server believes about our opens (differs from open_reads /
    // open_writes when delayed-close is holding closes back).
    uint32_t server_reads = 0;
    uint32_t server_writes = 0;
    sim::Time last_close = 0;
  };
  using NodeRef = std::shared_ptr<SnfsNode>;

  // --- RemoteClient hooks ------------------------------------------------------
  vfs::GnodeRef NewNode() override { return std::make_shared<SnfsNode>(); }
  // Spawns the keepalive / delayed-close daemons when enabled.
  void SpawnDaemons(uint64_t generation) override;
  // The cached-data flags, versions and open counts the server was told
  // about die with the machine, and so does the server epoch last seen.
  void OnCrash() override { last_seen_epoch_ = 0; }

  // --- CachingClient hooks -----------------------------------------------------
  // The cache serves a file only while the server's last word on it said
  // cachable. An uncached reply's attributes always replace the node's (the
  // default), even while a flush-behind store from before caching was
  // turned off is still in flight.
  bool MayCache(const CachingNode& node, bool write) const override {
    return static_cast<const SnfsNode&>(node).cache_enabled;
  }
  std::string CallbackSpanArgs(const proto::CallbackReq& req) const override {
    return std::string(" rel=") + (req.relinquish ? "1" : "0");
  }
  void RevokeCaching(CachingNode& node) override {
    static_cast<SnfsNode&>(node).cache_enabled = false;
  }
  // Settles the closes delayed close owes, in a spawned task: a close RPC
  // issued inline would deadlock (§3.2).
  void AfterCallback(CachingNodeRef node, const proto::CallbackReq& req) override;

  sim::Task<base::Result<void>> SendOpen(NodeRef node, bool write);
  sim::Task<void> SendClose(NodeRef node, bool write);
  sim::Task<void> FlushOwedCloses(NodeRef node);
  sim::Task<void> DelayedCloseDaemon(uint64_t generation);
  sim::Task<void> KeepaliveDaemon(uint64_t generation);
  sim::Task<void> RunRecovery();

  uint32_t OwedReads(const SnfsNode& node) const {
    return node.server_reads - node.open_reads;
  }
  uint32_t OwedWrites(const SnfsNode& node) const {
    return node.server_writes - node.open_writes;
  }

  SnfsClientParams params_;
  uint64_t last_seen_epoch_ = 0;
  uint64_t delayed_close_hits_ = 0;
  uint64_t recoveries_run_ = 0;
  uint64_t inconsistent_opens_ = 0;
};

}  // namespace snfs

#endif  // SRC_SNFS_CLIENT_H_
