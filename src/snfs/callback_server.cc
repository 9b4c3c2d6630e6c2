#include "src/snfs/callback_server.h"

#include <string>
#include <utility>

#include "src/trace/trace.h"

namespace snfs {
namespace {

// Callbacks trigger write-backs that are themselves multi-RPC operations,
// so the callback call must be patient ("usually the callback, together
// with any required write-backs, should finish long before the RPC times
// out, but this is not guaranteed"). The opener's own retry budget covers
// the wait; a truly dead client costs ~30 s before the file is flagged.
constexpr rpc::CallOptions kCallbackCall{.timeout = sim::Sec(2), .max_attempts = 4, .backoff = 2.0};

}  // namespace

CallbackServer::CallbackServer(sim::Simulator& simulator, fs::LocalFs& fs, rpc::Peer& peer,
                               const char* callback_span)
    : nfs::NfsServer(fs, peer),
      simulator_(simulator),
      callback_span_(callback_span),
      callback_budget_(simulator, peer.num_workers() - 1) {
  CHECK_GE(peer.num_workers(), 2);
}

void CallbackServer::Crash() {
  // Handlers run to completion after a crash, so a lock one holds across a
  // suspension is released later: only the free ones can go.
  std::erase_if(file_locks_, [](const auto& lock) { return !lock.second->locked(); });
}

sim::Mutex& CallbackServer::FileLock(const proto::FileHandle& fh) {
  auto it = file_locks_.find(fh.fileid);
  if (it == file_locks_.end()) {
    it = file_locks_.emplace(fh.fileid, std::make_unique<sim::Mutex>(simulator_)).first;
  }
  return *it->second;
}

sim::Task<bool> CallbackServer::Callback(int host, proto::CallbackReq req) {
  co_await callback_budget_.Acquire();
  OnCallbackSlot(host, req);
  trace::Span span;
  if (trace::Active() != nullptr) {
    span.Begin(callback_span_, peer_.address().host,
               "file=" + std::to_string(req.fh.fileid) + " host=" + std::to_string(host) +
                   " wb=" + (req.writeback ? "1" : "0") + CallbackSpanArgs(req));
  }
  auto reply = co_await peer_.Call(net::Address{host}, req, kCallbackCall);
  bool acknowledged = reply.ok() && reply->status.ok();
  span.End(std::string("ok=") + (acknowledged ? "1" : "0"));
  callback_budget_.Release();
  co_return acknowledged;
}

// Not a coroutine: every request but a remove gets the NFS handler's own
// task, with no frame of its own.
sim::Task<proto::Reply> CallbackServer::Handle(proto::Request request, net::Address from) {
  if (std::holds_alternative<proto::RemoveReq>(request)) {
    return Remove(std::move(request), from);
  }
  return NfsServer::Handle(std::move(request), from);
}

sim::Task<proto::Reply> CallbackServer::Remove(proto::Request request, net::Address from) {
  const auto& req = std::get<proto::RemoveReq>(request);
  auto victim = co_await fs_.Lookup(req.dir, req.name);
  if (victim.ok()) {
    Forget(victim->fh);
  }
  co_return co_await NfsServer::Handle(std::move(request), from);
}

}  // namespace snfs
