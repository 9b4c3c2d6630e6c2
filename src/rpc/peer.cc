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
  // reply that straggles in after a restart must not complete a call from
  // the previous incarnation, and the map must not leak across crash cycles.
  // Completing a call resumes its caller, so resume the callers in xid
  // (issue) order rather than hash order.
  std::vector<uint64_t> xids;
  xids.reserve(pending_.size());
  for (const auto& [xid, record] : pending_) {  // lint: ordered-ok (sorted below)
    xids.push_back(xid);
  }
  std::sort(xids.begin(), xids.end());
  for (uint64_t xid : xids) {
    Complete(*pending_.at(xid), proto::ErrorReply(base::ErrUnavailable()));
  }
  pending_.clear();
}

sim::Duration Peer::PayloadCost(uint32_t wire_bytes) const {
  return options_.costs.per_kb * static_cast<sim::Duration>(wire_bytes) / 1024;
}

void Peer::SendEnvelope(net::Address dst, std::unique_ptr<proto::Envelope> envelope) {
  network_.Send(net::Packet{address_, dst, std::move(envelope)});
}

void Peer::Complete(CallRecord& record, proto::Reply reply) {
  if (record.reply.has_value()) {
    return;
  }
  record.reply.emplace(std::move(reply));
  if (record.waiter) {
    simulator_.Ready(record.waiter);
  }
}

void Peer::ExpireAttempt(uint64_t key) {
  auto it = pending_.find(key >> 8);
  if (it != pending_.end() && static_cast<uint64_t>(it->second->attempt) == (key & 0xff)) {
    Complete(*it->second, proto::ErrorReply(base::ErrTimedOut()));
  }
}

sim::Task<base::Result<proto::Reply>> Peer::Call(net::Address dst, proto::Request request,
                                                 CallOptions options) {
  if (!running_) {
    // Calls issued on a crashed (not yet restarted) host fail fast rather
    // than aborting: fault schedules can crash a machine out from under a
    // workload coroutine that is about to issue an RPC.
    co_return base::ErrUnavailable();
  }
  CHECK_LE(options.max_attempts, 256);  // an attempt number fits a timer key's low byte
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

  CallRecord record;
  sim::Duration timeout = options.timeout;
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++retransmissions_;
      TRACE_INSTANT("rpc.retransmit", address_.host,
                    "xid=" + std::to_string(xid) + " attempt=" + std::to_string(attempt + 1));
    }
    record.reply.reset();
    record.waiter = nullptr;
    record.attempt = attempt;
    pending_.insert_or_assign(xid, &record);

    trace::Span attempt_span;
    if (trace::Active() != nullptr) {
      attempt_span.Begin("rpc.attempt", address_.host,
                         "attempt=" + std::to_string(attempt + 1));
    }

    auto env = std::make_unique<proto::Envelope>();
    env->xid = xid;
    env->trace_span = attempt_span.id();
    env->request = request;  // copy retained for retransmission; shares any payload
    SendEnvelope(dst, std::move(env));

    // The timeout races the reply for the record. Its key names the attempt,
    // so a timer an earlier attempt left queued (that attempt was answered
    // with a timedout status) cannot time out this one.
    simulator_.Schedule(timeout, [this, key = xid << 8 | static_cast<uint64_t>(attempt)] {
      ExpireAttempt(key);
    });

    // The reply (a whole read payload, for reads) is moved out of the record.
    proto::Reply reply = co_await AwaitReply{record};
    if (reply.status != base::ErrTimedOut()) {
      pending_.erase(xid);
      co_await cpu_.Run(PayloadCost(proto::WireSize(reply)));
      attempt_span.End("status=reply");
      if (call_span.active()) {  // the args outgrow std::string's inline buffer
        call_span.End("status=done attempts=" + std::to_string(attempt + 1));
      }
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
    if (packet->envelope->is_reply) {
      HandleIncomingReply(std::move(*packet));
    } else {
      HandleIncomingRequest(std::move(*packet));
    }
  }
}

void Peer::HandleIncomingReply(net::Packet packet) {
  auto it = pending_.find(packet.envelope->xid);
  if (it == pending_.end()) {
    // Late duplicate reply after the call completed; drop it.
    return;
  }
  Complete(*it->second, std::move(packet.envelope->reply));
}

void Peer::HandleIncomingRequest(net::Packet packet) {
  proto::Envelope& env = *packet.envelope;
  // The original client: a router upstream names it as reply-to.
  net::Address from = env.reply_to >= 0 ? net::Address{env.reply_to} : packet.src;
  if (router_) {
    if (std::optional<net::Address> next = router_(env.request)) {
      if (trace::Recorder* recorder = trace::Active()) {
        recorder->InstantInSpan(env.trace_span, "rpc.route", address_.host,
                                "from=" + std::to_string(from.host) +
                                    " xid=" + std::to_string(env.xid) +
                                    " to=" + std::to_string(next->host));
      }
      env.reply_to = from.host;
      SendEnvelope(*next, std::move(packet.envelope));
      return;
    }
  }
  // Ops whose replies are not cached are safe to repeat: a retransmission
  // of one simply runs again.
  if (proto::CachesReply(proto::KindOf(env.request))) {
    DupKey key{from.host, env.xid};
    auto it = dup_cache_.find(key);
    if (it != dup_cache_.end()) {
      ++duplicates_suppressed_;
      if (trace::Recorder* recorder = trace::Active()) {
        recorder->InstantInSpan(env.trace_span, "rpc.dup_hit", address_.host,
                                "from=" + std::to_string(from.host) +
                                    " xid=" + std::to_string(env.xid) +
                                    " done=" + (it->second.done ? "1" : "0"));
      }
      if (it->second.done) {
        // Resend the cached reply without re-executing (exactly-once effect).
        auto reply_env = std::make_unique<proto::Envelope>();
        reply_env->xid = env.xid;
        reply_env->is_reply = true;
        reply_env->reply = it->second.reply;
        SendEnvelope(from, std::move(reply_env));
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
  work_queue_->Send(Incoming{from, std::move(packet.envelope)});
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
    net::Address from = incoming->from;
    std::unique_ptr<proto::Envelope> env = std::move(incoming->envelope);
    proto::OpKind kind = proto::KindOf(env->request);
    trace::Span handle_span;
    if (trace::Active() != nullptr) {
      // Parent under the client attempt's span (carried in the envelope), so
      // the server-side execution hangs off the call that caused it.
      handle_span.BeginUnder(
          env->trace_span, "rpc.handle", address_.host,
          "op=" + std::string(proto::OpKindName(kind)) + " from=" + std::to_string(from.host) +
              " xid=" + std::to_string(env->xid) + " gen=" + std::to_string(generation));
    }
    uint32_t wire = proto::WireSize(env->request);
    co_await cpu_.Run(options_.costs.server_per_call + PayloadCost(wire));
    if (generation != pool_generation_) {
      // Crashed before the handler ran: the request died with the kernel.
      co_return;
    }

    proto::Reply reply;
    if (handler_) {
      server_ops_.Add(kind);
      // The request is moved into the handler: nothing else needs it.
      reply = co_await handler_(std::move(env->request), from);
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
      DupKey key{from.host, env->xid};
      auto it = dup_cache_.find(key);
      if (it != dup_cache_.end()) {
        it->second.done = true;
        it->second.reply = reply;
        dup_order_.push_back(key);
      }
    }

    // The reply goes back in the request's envelope.
    bool handler_ok = reply.status.ok();
    env->is_reply = true;
    env->trace_span = handle_span.id();
    env->reply = std::move(reply);
    SendEnvelope(from, std::move(env));
    handle_span.End(std::string("ok=") + (handler_ok ? "1" : "0"));
  }
}

}  // namespace rpc
