// The callback-server core of the SNFS and NQNFS servers: the NFS server
// plus per-file locks, the callback channel (SNFS callbacks and NQNFS
// vacates) under §3.2's budget — "if there are N threads, only N-1 may be
// doing callbacks simultaneously, so that at least one thread can service
// the write-backs" — and remove's pre-step. Each protocol decides what to
// call back and what a failed callback means.
#ifndef SRC_SNFS_CALLBACK_SERVER_H_
#define SRC_SNFS_CALLBACK_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/nfs/server.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace snfs {

class CallbackServer : public nfs::NfsServer {
 public:
  // Every NFS operation, a remove after its pre-step (Forget).
  sim::Task<proto::Reply> Handle(proto::Request request, net::Address from) override;
  // The free file locks die with the kernel; a lock that a handler still
  // holds stays until that handler, which runs on, releases it.
  void Crash() override;

 protected:
  // `callback_span` names the trace span of each callback. N is the worker
  // pool of `peer`, which must have a worker to spare.
  CallbackServer(sim::Simulator& simulator, fs::LocalFs& fs, rpc::Peer& peer,
                 const char* callback_span);

  sim::Mutex& FileLock(const proto::FileHandle& fh);

  // Sends `req` to `host` under the budget, inside the callback span;
  // returns whether the client acknowledged it.
  sim::Task<bool> Callback(int host, proto::CallbackReq req);

  // --- protocol hooks --------------------------------------------------------
  // The file is about to be removed: drop its consistency state, so a stale
  // write-back from its last writer is rejected with ESTALE rather than
  // resurrecting it, and no callback goes out for a dead handle.
  virtual void Forget(const proto::FileHandle& fh) = 0;
  // Appended to the callback span's "file= host= wb=" args.
  virtual std::string CallbackSpanArgs(const proto::CallbackReq& req) const { return {}; }
  // Runs once Callback holds a budget slot, before the request goes out.
  virtual void OnCallbackSlot(int host, const proto::CallbackReq& req) {}

  sim::Simulator& simulator_;

 private:
  // Remove's pre-step (Forget), then the NFS remove.
  sim::Task<proto::Reply> Remove(proto::Request request, net::Address from);

  const char* const callback_span_;
  sim::Semaphore callback_budget_;
  std::unordered_map<uint64_t, std::unique_ptr<sim::Mutex>> file_locks_;
};

}  // namespace snfs

#endif  // SRC_SNFS_CALLBACK_SERVER_H_
