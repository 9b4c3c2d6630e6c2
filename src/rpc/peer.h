// rpc::Peer — one RPC endpoint per host, playing both roles:
//
//  * client stub: Call() assigns an XID, charges client CPU, transmits, and
//    waits for the matching reply with timeout + exponential-backoff
//    retransmission (Sun-RPC-over-UDP style);
//  * server: a pool of worker threads (simulated) drains a request queue
//    and runs the registered handler. A duplicate-request cache (after
//    Juszczak [3], cited by the paper) suppresses re-execution of retried
//    operations whose kind proto::CachesReply: retransmits of in-progress
//    calls are dropped, retransmits of completed calls get the cached
//    reply. Every other operation is safe to repeat, keeps no entry, and
//    simply runs again when retransmitted;
//  * router (optional): a hook picks requests to forward to another host
//    unchanged, which then replies to the original client directly
//    (direct server return). A served request's client is its envelope's
//    reply-to host when set, else the packet's sender; that client keys
//    the duplicate cache, is the handler's `from`, and gets the reply.
//
// SNFS needs both roles on both machines: clients must serve the server's
// callback RPCs (§4.2.2 "we simply use the existing NFS server code").
#ifndef SRC_RPC_PEER_H_
#define SRC_RPC_PEER_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/base/result.h"
#include "src/metrics/op_counters.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace rpc {

// CPU cost charged per RPC at each end. The per-kilobyte term models data
// copies / checksums for read and write payloads.
struct CostModel {
  sim::Duration client_per_call = sim::Usec(400);
  sim::Duration server_per_call = sim::Usec(600);
  sim::Duration per_kb = sim::Usec(120);
};

struct CallOptions {
  sim::Duration timeout = sim::Sec(1);
  int max_attempts = 6;
  double backoff = 2.0;
};

struct PeerOptions {
  int num_workers = 4;
  CostModel costs;
};

// Completed replies the duplicate-request cache keeps; in-progress entries
// come on top (they are never evicted).
inline constexpr size_t kDupCacheEntries = 1024;

class Peer {
 public:
  using Handler =
      std::function<sim::Task<proto::Reply>(proto::Request, net::Address from)>;
  using WorkerHook = std::function<void()>;
  // Returns where to forward a request, or nullopt to serve it here.
  using Router = std::function<std::optional<net::Address>(const proto::Request&)>;

  Peer(sim::Simulator& simulator, net::Network& network, sim::Cpu& cpu, std::string name,
       PeerOptions options = {});

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  net::Address address() const { return address_; }
  const std::string& name() const { return name_; }
  int num_workers() const { return options_.num_workers; }

  // Server role: install the request handler. May be left unset on pure
  // clients; requests then get kNotSupported replies.
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  // Router role: consulted for every incoming request before the duplicate
  // cache and the work queue. A routed request is re-sent at line rate —
  // no worker, no CPU charge, no duplicate-cache entry — with its xid and
  // trace span intact and the original client as reply-to.
  void set_router(Router router) { router_ = std::move(router); }

  // Fault-injection hook, called as a worker takes a request off the queue,
  // before its CPU charge and handler: the fault harness scripts "crash
  // mid-RPC-handler" with it, scheduling a crash that lands while the
  // handler coroutine is still running. Unset in production configurations.
  void set_worker_hook(WorkerHook hook) { worker_hook_ = std::move(hook); }

  // Spawn the receive loop and worker pool.
  void Start();

  // Stop accepting traffic and wake parked daemons so they exit. In-flight
  // handlers run to completion but their replies are dropped if the host is
  // marked down in the Network.
  void Shutdown();

  // Issue an RPC and await the reply (or kTimedOut after retries).
  sim::Task<base::Result<proto::Reply>> Call(net::Address dst, proto::Request request,
                                             CallOptions options = {});

  // Counters: calls this peer issued (client role) and calls it executed
  // (server role, duplicates excluded).
  metrics::OpCounters& client_ops() { return client_ops_; }
  metrics::OpCounters& server_ops() { return server_ops_; }
  const metrics::OpCounters& client_ops() const { return client_ops_; }
  const metrics::OpCounters& server_ops() const { return server_ops_; }

  uint64_t retransmissions() const { return retransmissions_; }
  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  // Replies a worker finished computing after its generation died (server
  // crash/restart mid-handler) and therefore discarded.
  uint64_t stale_replies_dropped() const { return stale_replies_dropped_; }

  // Introspection for the fault harness and regression tests.
  size_t dup_cache_size() const { return dup_cache_.size(); }
  size_t dup_cache_in_progress() const { return dup_cache_.size() - dup_order_.size(); }
  size_t pending_calls() const { return pending_.size(); }
  uint64_t generation() const { return pool_generation_; }
  bool running() const { return running_; }

  sim::Cpu& cpu() { return cpu_; }

 private:
  struct DupKey {
    int host;
    uint64_t xid;
    friend bool operator==(const DupKey&, const DupKey&) = default;
  };
  struct DupKeyHash {
    size_t operator()(const DupKey& k) const {
      return std::hash<uint64_t>()(k.xid * 1000003ULL + static_cast<uint64_t>(k.host));
    }
  };
  struct DupEntry {
    bool done = false;
    proto::Reply reply;  // valid when done
  };
  // A request on its way to a worker, in the envelope it arrived in; the
  // worker sends the reply back in the same envelope.
  struct Incoming {
    net::Address from;
    std::unique_ptr<proto::Envelope> envelope;
  };
  // One call in flight, kept in Call's own frame and mapped by xid in
  // pending_: the reply slot, the suspended caller, and the attempt it
  // waits on. A reply for the xid completes it whatever the attempt (a late
  // reply to an earlier transmission answers the call as well); a timeout
  // completes it only while it still waits on the timer's attempt.
  struct CallRecord {
    std::optional<proto::Reply> reply;
    std::coroutine_handle<> waiter;
    int attempt = 0;
  };
  struct AwaitReply {
    CallRecord& record;
    bool await_ready() const noexcept { return record.reply.has_value(); }
    void await_suspend(std::coroutine_handle<> h) { record.waiter = h; }
    proto::Reply await_resume() { return std::move(*record.reply); }
  };

  sim::Task<void> ReceiveLoop();
  sim::Task<void> Worker(uint64_t generation);
  void HandleIncomingRequest(net::Packet packet);
  void HandleIncomingReply(net::Packet packet);
  // Fills the record's reply slot and wakes its caller, unless the slot is
  // already filled (the reply and the timeout race; the loser is dropped).
  void Complete(CallRecord& record, proto::Reply reply);
  // An attempt's timer: `key` is xid << 8 | attempt.
  void ExpireAttempt(uint64_t key);
  void SendEnvelope(net::Address dst, std::unique_ptr<proto::Envelope> envelope);
  sim::Duration PayloadCost(uint32_t wire_bytes) const;

  sim::Simulator& simulator_;
  net::Network& network_;
  sim::Cpu& cpu_;
  std::string name_;
  PeerOptions options_;
  net::Address address_;
  Handler handler_;
  Router router_;
  WorkerHook worker_hook_;
  bool running_ = false;
  bool receive_loop_spawned_ = false;
  uint64_t pool_generation_ = 0;

  uint64_t next_xid_ = 1;
  // Calls awaiting a reply. No destructor erases from it: a record left by a
  // Call frame reaped at teardown is never read, since a reaped simulator
  // cannot run again.
  std::unordered_map<uint64_t, CallRecord*> pending_;

  std::unique_ptr<sim::Channel<Incoming>> work_queue_;
  std::unordered_map<DupKey, DupEntry, DupKeyHash> dup_cache_;
  std::deque<DupKey> dup_order_;  // completed entries, oldest first (eviction)

  metrics::OpCounters client_ops_;
  metrics::OpCounters server_ops_;
  uint64_t retransmissions_ = 0;
  uint64_t duplicates_suppressed_ = 0;
  uint64_t stale_replies_dropped_ = 0;
};

// Helper to unwrap a typed reply body from a generic Reply.
template <typename T>
base::Result<T> Expect(base::Result<proto::Reply> reply) {
  if (!reply.ok()) {
    return reply.status();
  }
  if (!reply->status.ok()) {
    return reply->status;
  }
  T* body = std::get_if<T>(&reply->body);
  if (body == nullptr) {
    return base::ErrIo();
  }
  return std::move(*body);
}

}  // namespace rpc

#endif  // SRC_RPC_PEER_H_
