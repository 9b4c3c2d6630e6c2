// The NFS client, modeled on the Ultrix 2.2 reference-port behaviour the
// paper benchmarks:
//
//  * attribute cache with adaptive timeout (3–60 s): files that changed
//    recently are re-probed sooner ("the interval between probes in Ultrix
//    varies ... depending on the recent history of the file");
//  * a consistency probe (getattr) on every open; a changed mtime
//    invalidates the cached data for the file;
//  * write-through via a pool of asynchronous block I/O daemons (biods):
//    the writing process hands the block off and continues, but close
//    synchronously drains pending writes ("an NFS client synchronously
//    finishes all pending write-throughs when the file is closed");
//  * partial-block writes are delayed until the block fills, a later write
//    passes the block boundary, or the file is closed ("the reference port
//    of NFS delays writes that do not extend to the end of a block");
//  * optionally, the invalidate-on-close bug the paper diagnoses in §5.2
//    ("our version of the NFS code invalidates the client data cache when
//    a file is closed") — on by default to match the measured system.
#ifndef SRC_NFS_CLIENT_H_
#define SRC_NFS_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/net/network.h"
#include "src/nfs/remote_client.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/vfs/vfs.h"

namespace nfs {

// The adaptive attribute-probe window (3–60 s) and the biod pool size.
inline constexpr sim::Duration kAttrTimeoutMin = sim::Sec(3);
inline constexpr sim::Duration kAttrTimeoutMax = sim::Sec(60);
inline constexpr int kNumBiods = 8;

struct NfsClientParams {
  bool invalidate_on_close = true;   // the Ultrix bug (§5.2)
  bool delay_partial_writes = true;  // reference-port optimization
};

class NfsClient : public RemoteClient {
 public:
  NfsClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
            proto::FileHandle root_fh, cache::BufferCache& cache, NfsClientParams params = {});

  // --- vfs::FileSystem ------------------------------------------------------
  sim::Task<base::Result<void>> Open(vfs::GnodeRef node, bool write) override;
  sim::Task<base::Result<void>> Close(vfs::GnodeRef node, bool write) override;
  sim::Task<base::Result<std::vector<uint8_t>>> Read(vfs::GnodeRef node, uint64_t offset,
                                                     uint32_t count) override;
  sim::Task<base::Result<void>> Write(vfs::GnodeRef node, uint64_t offset,
                                      std::vector<uint8_t> data) override;
  sim::Task<base::Result<proto::Attr>> GetAttr(vfs::GnodeRef node) override;
  sim::Task<base::Result<void>> Truncate(vfs::GnodeRef node, uint64_t size) override;
  sim::Task<base::Result<void>> Remove(vfs::GnodeRef dir, std::string name,
                                       vfs::GnodeRef target) override;
  sim::Task<base::Result<void>> Fsync(vfs::GnodeRef node) override;

  uint64_t attr_probes() const { return attr_probes_; }
  uint64_t cache_invalidations() const { return cache_invalidations_; }

 private:
  struct NfsNode : vfs::Gnode {
    explicit NfsNode(sim::Simulator& simulator) : pending_writes(simulator) {}

    sim::Time attr_fetched = -1;                   // virtual time of last server attrs
    sim::Duration attr_timeout = kAttrTimeoutMin;  // current adaptive timeout
    sim::Time cached_data_mtime = -1;              // mtime the cached blocks match (-1: none)
    sim::WaitGroup pending_writes;                 // async write RPCs in flight
    base::Status write_error;  // first async write failure (reported at close)
    // Delayed partial-block buffers: block -> bytes [block start, len).
    std::map<uint64_t, std::vector<uint8_t>> partial;
  };
  using NodeRef = std::shared_ptr<NfsNode>;

  // --- RemoteClient hooks ------------------------------------------------------
  vfs::GnodeRef NewNode() override;
  void MergeAttrs(vfs::Gnode& node, const proto::Attr& attr) override;
  // Record the mtime the cached data matches: a block fetch's (unless one
  // is already recorded) and a create's, whose content the reply gives.
  void OnFetched(vfs::Gnode& node, const proto::Attr& attr) override;
  void OnCreated(vfs::Gnode& node, const proto::Attr& attr) override;

  void UpdateAttrs(NfsNode& node, const proto::Attr& attr);
  void AdaptTimeout(NfsNode& node, bool changed);
  void InvalidateData(NfsNode& node);

  // Issue a getattr and invalidate cached data if mtime moved.
  sim::Task<base::Result<void>> Probe(NodeRef node);
  sim::Task<base::Result<void>> ProbeIfStale(NodeRef node);

  // Write-behind machinery.
  void SpawnAsyncWrite(NodeRef node, uint64_t offset, proto::Bytes data);
  sim::Task<void> AsyncWriteBody(NodeRef node, uint64_t offset, proto::Bytes data);
  sim::Task<base::Result<void>> FlushPartials(NodeRef node);
  sim::Task<void> DrainWrites(NodeRef node);

  NfsClientParams params_;
  sim::Semaphore biods_;
  uint64_t attr_probes_ = 0;
  uint64_t cache_invalidations_ = 0;
};

}  // namespace nfs

#endif  // SRC_NFS_CLIENT_H_
