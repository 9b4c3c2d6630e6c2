// The NQNFS client: lease-based caching with no open/close RPCs at all.
//
// Where the SNFS client registers every open and close with the server, the
// NQNFS client asks for a read or write *lease* the first time it touches a
// file (and when an existing lease no longer covers the access mode), then
// just uses its cache for as long as the lease is live. The lease is
// extended for free — the server piggybacks a new expiry on every data-RPC
// reply — so an actively-used file never pays a lease-renewal round trip.
//
// Expiry is the whole consistency story:
//  * a write lease nearing expiry gets its dirty blocks flushed early (the
//    flush replies carry extensions, usually keeping the lease alive);
//  * a lease that lapses is simply dropped: dirty blocks are pushed out as
//    plain write-throughs, clean blocks are kept for version revalidation
//    at the next grant, and reads fall back to going through to the server;
//  * a vacate callback from the server (write-back + invalidate over the
//    SNFS callback channel) ends the lease immediately.
//
// There is no reopen, no keepalive, and no recovery protocol: after a
// server reboot the client's leases lapse on their own, and new grants are
// refused only until the server's quiet window closes. Close does nothing
// but bookkeeping — delayed writes survive across closes exactly as in
// Sprite and SNFS.
//
// The cached data path is the caching core's (src/snfs/caching_client.h),
// shared with SNFS; this class adds lease acquisition, the expiry daemon and
// the piggybacked lease extensions.
#ifndef SRC_NQNFS_CLIENT_H_
#define SRC_NQNFS_CLIENT_H_

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

namespace nqnfs {

// Flush dirty blocks when a write lease has less than kFlushMargin left to
// run, instead of racing the expiry scan, which runs every
// kExpiryScanInterval.
inline constexpr sim::Duration kFlushMargin = sim::Sec(5);
inline constexpr sim::Duration kExpiryScanInterval = sim::Sec(1);
// After a grant is denied (server quiet window) or the GetLease RPC fails,
// run uncached and do not re-ask before this much time passes.
inline constexpr sim::Duration kDeniedRetry = sim::Sec(1);

class NqnfsClient : public snfs::CachingClient {
 public:
  NqnfsClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
              proto::FileHandle root_fh, cache::BufferCache& cache);

  // --- vfs::FileSystem ------------------------------------------------------
  sim::Task<base::Result<void>> Open(vfs::GnodeRef node, bool write) override;
  sim::Task<base::Result<void>> Close(vfs::GnodeRef node, bool write) override;
  sim::Task<base::Result<void>> Remove(vfs::GnodeRef dir, std::string name,
                                       vfs::GnodeRef target) override;

  uint64_t leases_acquired() const { return leases_acquired_; }
  uint64_t grants_denied_seen() const { return grants_denied_seen_; }
  uint64_t lease_expiries() const { return lease_expiries_; }

 private:
  struct NqnfsNode : CachingNode {
    bool lease_write = false;
    sim::Time lease_expires = 0;  // 0 = no lease; cache is not consulted
    sim::Time retry_grant_after = 0;
  };
  using NodeRef = std::shared_ptr<NqnfsNode>;

  // --- RemoteClient hooks ------------------------------------------------------
  vfs::GnodeRef NewNode() override { return std::make_shared<NqnfsNode>(); }
  // Applies the lease extension the server piggybacks on a data reply.
  void OnReply(const proto::Reply& reply) override;
  // Spawns the lease-expiry daemon.
  void SpawnDaemons(uint64_t generation) override;
  // Lease state lives in kernel memory and dies with the machine.
  void OnCrash() override;

  // --- CachingClient hooks -----------------------------------------------------
  sim::Task<void> Admit(CachingNodeRef node, bool write) override {
    return EnsureLease(std::static_pointer_cast<NqnfsNode>(node), write);
  }
  // The cache serves a live lease's accesses; a write needs a write lease.
  bool MayCache(const CachingNode& node, bool write) const override;
  // Dirty cached blocks (a lapsed lease's, not yet pushed out) keep the
  // node's attributes authoritative.
  void AdoptUncachedAttrs(CachingNode& node, const proto::Attr& attr) override;
  void BeforeWriteThrough(CachingNode& node) override;
  void RevokeCaching(CachingNode& node) override {
    DropLease(static_cast<NqnfsNode&>(node), "vacate");
  }

  // Make sure a lease covering `write` access is in hand if the server will
  // give us one. Never fails the operation: on denial or RPC failure the
  // node is left leaseless and the caller runs uncached.
  sim::Task<void> EnsureLease(NodeRef node, bool write);

  void DropLease(NqnfsNode& node, const char* reason);
  sim::Task<void> ExpiryDaemon(uint64_t generation);

  uint64_t leases_acquired_ = 0;
  uint64_t grants_denied_seen_ = 0;
  uint64_t lease_expiries_ = 0;
};

}  // namespace nqnfs

#endif  // SRC_NQNFS_CLIENT_H_
