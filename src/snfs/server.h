// The SNFS server: the NFS server plus the state table manager, the two new
// open/close RPC services (§4.3.1: "our only modification to the original
// NFS server code was to add the two new RPC service functions"), callback
// issuance with a deadlock-avoiding thread budget (§3.2: "if there are N
// threads, only N-1 may be doing callbacks simultaneously"), state-table
// entry reclamation, and the crash-recovery extension (§2.4).
#ifndef SRC_SNFS_SERVER_H_
#define SRC_SNFS_SERVER_H_

#include <memory>
#include <unordered_map>

#include "src/fs/local_fs.h"
#include "src/net/network.h"
#include "src/nfs/server.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/snfs/state_table.h"

namespace snfs {

// How version numbers are generated (§4.3.3). The paper's prototype used a
// global counter ("suitable only for experimental use"): when a file's
// state-table entry has been dropped, its reopen draws a fresh number from
// the counter, spuriously invalidating client caches. kStable keeps the
// version with the file (as Sprite does) and never invalidates spuriously.
enum class VersionMode { kStable, kGlobalCounter };

// How many callbacks a server may have outstanding at once: "if there are
// N threads, only N-1 may be doing callbacks simultaneously, so that at
// least one thread can service the write-backs" (§3.2). N is the worker
// pool of the server's `peer`, which must have a worker to spare.
int CallbackBudget(const rpc::Peer& peer);

// Callbacks trigger write-backs that are themselves multi-RPC operations,
// so the callback call must be patient ("usually the callback, together
// with any required write-backs, should finish long before the RPC times
// out, but this is not guaranteed"). The opener's own retry budget covers
// the wait; a truly dead client costs ~30 s before the file is flagged.
inline constexpr rpc::CallOptions kCallbackCall{
    .timeout = sim::Sec(2), .max_attempts = 4, .backoff = 2.0};

struct SnfsServerParams {
  size_t max_state_entries = 1000;
  VersionMode version_mode = VersionMode::kStable;
  // Recovery: how long after a reboot the server accepts only reopen
  // traffic while clients re-assert their state.
  sim::Duration recovery_grace = sim::Sec(45);
  bool enable_recovery = false;
};

class SnfsServer {
 public:
  // Installs itself as `peer`'s request handler (owning an NfsServer that
  // serves every NFS operation, whose handler it overrides).
  SnfsServer(sim::Simulator& simulator, fs::LocalFs& fs, rpc::Peer& peer,
             SnfsServerParams params = {});

  SnfsServer(const SnfsServer&) = delete;
  SnfsServer& operator=(const SnfsServer&) = delete;

  proto::FileHandle root() const { return fs_.root(); }
  StateTable& state_table() { return table_; }
  uint64_t epoch() const { return epoch_; }
  bool in_recovery() const { return simulator_.Now() < recovery_until_; }

  sim::Task<proto::Reply> Handle(proto::Request request, net::Address from);

  // Crash simulation: lose all state (the state table lives in kernel
  // memory). The caller also marks the host down in the Network and calls
  // peer.Shutdown().
  void Crash();

  // Reboot: bump the epoch and enter the recovery grace period. The caller
  // brings the host back up and calls peer.Start().
  void Restart();

  uint64_t callbacks_issued() const { return callbacks_issued_; }
  uint64_t callbacks_failed() const { return callbacks_failed_; }
  uint64_t reclaims() const { return reclaims_; }

 private:
  sim::Task<proto::Reply> HandleOpen(proto::OpenReq req, net::Address from);
  sim::Task<proto::Reply> HandleClose(proto::CloseReq req, net::Address from);
  sim::Task<proto::Reply> HandleReopen(proto::ReopenReq req, net::Address from);

  // Issue one callback under the thread budget; marks the file inconsistent
  // and drops the client if the callback cannot be delivered.
  sim::Task<void> IssueCallback(proto::FileHandle fh, CallbackAction action);

  // Reclaim CLOSED_DIRTY entries when the table is over its limit.
  sim::Task<void> ReclaimEntries();

  sim::Mutex& FileLock(const proto::FileHandle& fh);

  sim::Simulator& simulator_;
  fs::LocalFs& fs_;
  rpc::Peer& peer_;
  SnfsServerParams params_;
  std::unique_ptr<nfs::NfsServer> nfs_;
  StateTable table_;
  sim::Semaphore callback_budget_;
  std::unordered_map<uint64_t, std::unique_ptr<sim::Mutex>> file_locks_;
  uint64_t epoch_ = 1;
  uint64_t global_version_counter_ = 1;
  sim::Time recovery_until_ = 0;
  bool reclaim_scheduled_ = false;
  uint64_t callbacks_issued_ = 0;
  uint64_t callbacks_failed_ = 0;
  uint64_t reclaims_ = 0;
};

}  // namespace snfs

#endif  // SRC_SNFS_SERVER_H_
