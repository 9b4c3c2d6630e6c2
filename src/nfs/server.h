// The NFS server: stateless, translating each RPC into LocalFs operations.
//
// Per the stateless-server contract, every write RPC is synchronous with
// the disk ("an NFS server is required to write data to stable storage
// before returning from the remote procedure call"); the server retains no
// per-client or per-open-file state, so crash recovery is "the server
// simply restarts". The SNFS and NQNFS servers derive from it through
// snfs::CallbackServer.
#ifndef SRC_NFS_SERVER_H_
#define SRC_NFS_SERVER_H_

#include "src/fs/local_fs.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/task.h"

namespace nfs {

class NfsServer {
 public:
  // Installs itself as `peer`'s request handler.
  NfsServer(fs::LocalFs& fs, rpc::Peer& peer);
  virtual ~NfsServer() = default;

  NfsServer(const NfsServer&) = delete;
  NfsServer& operator=(const NfsServer&) = delete;

  virtual sim::Task<proto::Reply> Handle(proto::Request request, net::Address from);

  // Crash simulation: lose the state kept in kernel memory (none here). The
  // caller also marks the host down and calls peer.Shutdown().
  virtual void Crash() {}
  // Reboot, before the caller brings the host back up and calls peer.Start().
  virtual void Restart() {}

 protected:
  fs::LocalFs& fs_;
  rpc::Peer& peer_;
};

}  // namespace nfs

#endif  // SRC_NFS_SERVER_H_
