// The SNFS server: the NFS server plus the state table manager, the two new
// open/close RPC services (§4.3.1: "our only modification to the original
// NFS server code was to add the two new RPC service functions"), callbacks
// through the callback-server core, state-table entry reclamation, and the
// crash-recovery extension (§2.4).
#ifndef SRC_SNFS_SERVER_H_
#define SRC_SNFS_SERVER_H_

#include <string>

#include "src/snfs/callback_server.h"
#include "src/snfs/state_table.h"

namespace snfs {

// How version numbers are generated (§4.3.3). The paper's prototype used a
// global counter ("suitable only for experimental use"): when a file's
// state-table entry has been dropped, its reopen draws a fresh number from
// the counter, spuriously invalidating client caches. kStable keeps the
// version with the file (as Sprite does) and never invalidates spuriously.
enum class VersionMode { kStable, kGlobalCounter };

// Recovery: how long after a reboot the server accepts only reopen traffic
// while clients re-assert their state. It outlasts one client keepalive
// interval (kKeepaliveInterval), so every live client notices the reboot
// and reopens in time.
inline constexpr sim::Duration kRecoveryGrace = sim::Sec(8);

struct SnfsServerParams {
  size_t max_state_entries = 1000;
  VersionMode version_mode = VersionMode::kStable;
  bool enable_recovery = false;
};

class SnfsServer : public CallbackServer {
 public:
  // Installs itself as `peer`'s request handler.
  SnfsServer(sim::Simulator& simulator, fs::LocalFs& fs, rpc::Peer& peer,
             SnfsServerParams params = {});

  StateTable& state_table() { return table_; }
  uint64_t epoch() const { return epoch_; }
  bool in_recovery() const { return simulator_.Now() < recovery_until_; }

  sim::Task<proto::Reply> Handle(proto::Request request, net::Address from) override;

  // Crash simulation: lose all state (the state table lives in kernel
  // memory).
  void Crash() override;

  // Reboot: bump the epoch and enter the recovery grace period.
  void Restart() override;

  uint64_t callbacks_issued() const { return callbacks_issued_; }
  uint64_t callbacks_failed() const { return callbacks_failed_; }
  uint64_t reclaims() const { return reclaims_; }  // reclaim callbacks sent

 private:
  sim::Task<proto::Reply> HandleOpen(proto::OpenReq req, net::Address from);
  sim::Task<proto::Reply> HandleClose(proto::CloseReq req, net::Address from);
  sim::Task<proto::Reply> HandleReopen(proto::ReopenReq req, net::Address from);

  // Issue one callback under the thread budget; marks the file inconsistent
  // and drops the client if the callback cannot be delivered.
  sim::Task<void> IssueCallback(proto::FileHandle fh, CallbackAction action);

  // Reclaim CLOSED_DIRTY entries when the table is over its limit. One
  // reclaimer runs at a time, and it skips a plan whose entry changed while
  // it waited for the file lock.
  sim::Task<void> ReclaimEntries();

  // --- CallbackServer hooks --------------------------------------------------
  // A removed file's state-table entry goes with it.
  void Forget(const proto::FileHandle& fh) override { table_.Forget(fh); }
  std::string CallbackSpanArgs(const proto::CallbackReq& req) const override {
    return std::string(" inv=") + (req.invalidate ? "1" : "0") +
           " rel=" + (req.relinquish ? "1" : "0");
  }

  SnfsServerParams params_;
  StateTable table_;
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
