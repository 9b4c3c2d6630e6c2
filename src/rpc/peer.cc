#include "src/rpc/peer.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace rpc {

Peer::Peer(sim::Simulator& simulator, net::Network& network, sim::Cpu& cpu, std::string name,
           PeerOptions options)
    : simulator_(simulator),
      network_(network),
      cpu_(cpu),
      name_(std::move(name)),
      options_(options) {
  address_ = network_.AttachHost();
  work_queue_ = std::make_unique<sim::Channel<Incoming>>(simulator_);
}

void Peer::Start() {
  CHECK(!running_);
  running_ = true;
  if (!receive_loop_spawned_) {
    receive_loop_spawned_ = true;
    simulator_.Spawn(ReceiveLoop());
  }
  if (work_queue_->closed()) {
    // Restart after a crash: the old worker pool exited when the queue
    // closed; stale duplicate-cache state died with the "kernel".
    work_queue_ = std::make_unique<sim::Channel<Incoming>>(simulator_);
    dup_cache_.clear();
    dup_order_.clear();
    ++pool_generation_;
  }
  for (int i = 0; i < options_.num_workers; ++i) {
    simulator_.Spawn(Worker(pool_generation_));
  }
}

void Peer::Shutdown() {
  if (!running_) {
    return;
  }
  running_ = false;
  work_queue_->Close();
  // Fail out any calls still waiting for replies, and forget them: a late
  // reply that straggles in after a restart must not resolve a promise from
  // the previous incarnation, and the map must not leak across crash cycles.
  // Resolving a promise resumes its awaiter, so resume the callers in xid
  // (issue) order rather than hash order.
  std::vector<uint64_t> xids;
  xids.reserve(pending_.size());
  for (const auto& [xid, promise] : pending_) {  // lint: ordered-ok (sorted below)
    xids.push_back(xid);
  }
  std::sort(xids.begin(), xids.end());
  for (uint64_t xid : xids) {
    pending_.at(xid).TrySet(proto::ErrorReply(base::ErrUnavailable()));
  }
  pending_.clear();
}

sim::Duration Peer::PayloadCost(uint32_t wire_bytes) const {
  return options_.costs.per_kb * static_cast<sim::Duration>(wire_bytes) / 1024;
}

void Peer::SendEnvelope(net::Address dst, proto::Envelope envelope) {
  network_.Send(net::Packet{address_, dst, std::move(envelope)});
}

sim::Task<base::Result<proto::Reply>> Peer::Call(net::Address dst, proto::Request request,
                                                 CallOptions options) {
  if (!running_) {
    // Calls issued on a crashed (not yet restarted) host fail fast rather
    // than aborting: fault schedules can crash a machine out from under a
    // workload coroutine that is about to issue an RPC.
    co_return base::ErrUnavailable();
  }
  uint64_t xid = next_xid_++;
  client_ops_.Add(proto::KindOf(request));

  trace::Span call_span;
  if (trace::Active() != nullptr) {
    call_span.Begin("rpc.call", address_.host,
                    "op=" + std::string(proto::OpKindName(proto::KindOf(request))) +
                        " xid=" + std::to_string(xid) + " dst=" + std::to_string(dst.host));
  }

  uint32_t wire = proto::WireSize(request);
  uint64_t generation = pool_generation_;
  co_await cpu_.Run(options_.costs.client_per_call + PayloadCost(wire));
  if (!running_ || generation != pool_generation_) {
    // The host crashed during the charge, before the call was pending where
    // Shutdown could fail it: the call dies with this incarnation rather
    // than being sent by the next one.
    call_span.End("status=unavailable");
    co_return base::ErrUnavailable();
  }

  sim::Duration timeout = options.timeout;
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++retransmissions_;
      TRACE_INSTANT("rpc.retransmit", address_.host,
                    "xid=" + std::to_string(xid) + " attempt=" + std::to_string(attempt + 1));
    }
    sim::Promise<proto::Reply> promise(simulator_);
    pending_.insert_or_assign(xid, promise);

    trace::Span attempt_span;
    if (trace::Active() != nullptr) {
      attempt_span.Begin("rpc.attempt", address_.host,
                         "attempt=" + std::to_string(attempt + 1));
    }

    proto::Envelope env;
    env.xid = xid;
    env.is_reply = false;
    env.trace_span = attempt_span.id();
    env.request = request;  // copy retained for retransmission; shares any payload
    SendEnvelope(dst, std::move(env));

    // The timeout races the reply for the promise.
    simulator_.Schedule(timeout, [promise]() mutable {
      promise.TrySet(proto::ErrorReply(base::ErrTimedOut()));
    });

    // This call is the promise's only consumer, so the reply (a whole read
    // payload, for reads) is moved out rather than copied.
    proto::Reply reply = co_await promise.GetFuture().Take();
    if (reply.status != base::ErrTimedOut()) {
      pending_.erase(xid);
      co_await cpu_.Run(PayloadCost(proto::WireSize(reply)));
      attempt_span.End("status=reply");
      call_span.End("status=done attempts=" + std::to_string(attempt + 1));
      co_return reply;
    }
    attempt_span.End("status=timeout");
    timeout = static_cast<sim::Duration>(static_cast<double>(timeout) * options.backoff);
  }
  pending_.erase(xid);
  call_span.End("status=timeout attempts=" + std::to_string(options.max_attempts));
  co_return base::ErrTimedOut();
}

sim::Task<void> Peer::ReceiveLoop() {
  sim::Channel<net::Packet>& rx = network_.Rx(address_);
  while (true) {
    std::optional<net::Packet> packet = co_await rx.Recv();
    if (!packet.has_value()) {
      co_return;
    }
    if (!running_) {
      continue;  // crashed host: discard anything queued
    }
    if (packet->envelope.is_reply) {
      HandleIncomingReply(std::move(*packet));
    } else {
      HandleIncomingRequest(std::move(*packet));
    }
  }
}

void Peer::HandleIncomingReply(net::Packet packet) {
  auto it = pending_.find(packet.envelope.xid);
  if (it == pending_.end()) {
    // Late duplicate reply after the call completed; drop it.
    return;
  }
  it->second.TrySet(std::move(packet.envelope.reply));
}

void Peer::HandleIncomingRequest(net::Packet packet) {
  // The original client: a router upstream names it as reply-to.
  net::Address from =
      packet.envelope.reply_to >= 0 ? net::Address{packet.envelope.reply_to} : packet.src;
  if (router_) {
    if (std::optional<net::Address> next = router_(packet.envelope.request)) {
      if (trace::Recorder* recorder = trace::Active()) {
        recorder->InstantInSpan(packet.envelope.trace_span, "rpc.route", address_.host,
                                "from=" + std::to_string(from.host) +
                                    " xid=" + std::to_string(packet.envelope.xid) +
                                    " to=" + std::to_string(next->host));
      }
      packet.envelope.reply_to = from.host;
      SendEnvelope(*next, std::move(packet.envelope));
      return;
    }
  }
  // Ops whose replies are not cached are safe to repeat: a retransmission
  // of one simply runs again.
  if (proto::CachesReply(proto::KindOf(packet.envelope.request))) {
    DupKey key{from.host, packet.envelope.xid};
    auto it = dup_cache_.find(key);
    if (it != dup_cache_.end()) {
      ++duplicates_suppressed_;
      if (trace::Recorder* recorder = trace::Active()) {
        recorder->InstantInSpan(packet.envelope.trace_span, "rpc.dup_hit", address_.host,
                                "from=" + std::to_string(from.host) +
                                    " xid=" + std::to_string(packet.envelope.xid) +
                                    " done=" + (it->second.done ? "1" : "0"));
      }
      if (it->second.done) {
        // Resend the cached reply without re-executing (exactly-once effect).
        proto::Envelope env;
        env.xid = packet.envelope.xid;
        env.is_reply = true;
        env.reply = it->second.reply;
        SendEnvelope(from, std::move(env));
      }
      // else: still executing; the client will retry again.
      return;
    }
    dup_cache_.emplace(key, DupEntry{});
    // Evict completed replies oldest-first. In-progress entries join the
    // eviction FIFO only when their reply is recorded, so they are never
    // evicted and never rescanned; the cache exceeds kDupCacheEntries
    // only by in-progress entries (bounded by the worker pool + queue).
    while (dup_cache_.size() > kDupCacheEntries && !dup_order_.empty()) {
      dup_cache_.erase(dup_order_.front());
      dup_order_.pop_front();
    }
  }
  work_queue_->Send(Incoming{from, packet.envelope.xid, std::move(packet.envelope.request),
                             packet.envelope.trace_span});
}

sim::Task<void> Peer::Worker(uint64_t generation) {
  while (generation == pool_generation_) {
    std::optional<Incoming> incoming = co_await work_queue_->Recv();
    if (!incoming.has_value() || generation != pool_generation_) {
      co_return;
    }
    if (worker_hook_) {
      worker_hook_();
    }
    proto::OpKind kind = proto::KindOf(incoming->request);
    trace::Span handle_span;
    if (trace::Active() != nullptr) {
      // Parent under the client attempt's span (carried in the envelope), so
      // the server-side execution hangs off the call that caused it.
      handle_span.BeginUnder(
          incoming->trace_span, "rpc.handle", address_.host,
          "op=" + std::string(proto::OpKindName(kind)) +
              " from=" + std::to_string(incoming->from.host) +
              " xid=" + std::to_string(incoming->xid) + " gen=" + std::to_string(generation));
    }
    uint32_t wire = proto::WireSize(incoming->request);
    co_await cpu_.Run(options_.costs.server_per_call + PayloadCost(wire));
    if (generation != pool_generation_) {
      // Crashed before the handler ran: the request died with the kernel.
      co_return;
    }

    proto::Reply reply;
    if (handler_) {
      server_ops_.Add(kind);
      // The request is moved into the handler — it arrived by value over the
      // (simulated) wire and nothing else needs it.
      reply = co_await handler_(std::move(incoming->request), incoming->from);
    } else {
      reply = proto::ErrorReply(base::ErrNotSupported());
    }
    if (generation != pool_generation_) {
      // The server crashed (and possibly restarted) while the handler was
      // running. The reply reflects pre-crash state: sending it would be a
      // ghost reply from a dead generation, and recording it would poison
      // the *new* generation's duplicate cache under the same key as the
      // client's retransmission. Drop both.
      ++stale_replies_dropped_;
      co_return;
    }

    if (proto::CachesReply(kind)) {
      DupKey key{incoming->from.host, incoming->xid};
      auto it = dup_cache_.find(key);
      if (it != dup_cache_.end()) {
        it->second.done = true;
        it->second.reply = reply;
        dup_order_.push_back(key);
      }
    }

    bool handler_ok = reply.status.ok();
    proto::Envelope env;
    env.xid = incoming->xid;
    env.is_reply = true;
    env.trace_span = handle_span.id();
    env.reply = std::move(reply);
    SendEnvelope(incoming->from, std::move(env));
    handle_span.End(std::string("ok=") + (handler_ok ? "1" : "0"));
  }
}

}  // namespace rpc
