// Tests for the RPC layer: round trips, timeouts, retransmission under
// packet loss, duplicate-request suppression, bidirectional calls (the
// callback pattern SNFS relies on), and forwarding through a router.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/plan.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/trace/trace.h"

namespace rpc {
namespace {

struct Rig {
  sim::Simulator simulator;
  net::Network network;
  sim::Cpu client_cpu{simulator};
  sim::Cpu server_cpu{simulator};
  Peer client;
  Peer server;

  explicit Rig(net::NetworkParams params = {}, PeerOptions server_opts = {})
      : network(simulator, params, /*seed=*/42),
        client(simulator, network, client_cpu, "client"),
        server(simulator, network, server_cpu, "server", server_opts) {
    client.Start();
    server.Start();
  }
};

proto::Request MakeLookup(const std::string& name) {
  proto::LookupReq req;
  req.dir = proto::FileHandle{1, 1, 0};
  req.name = name;
  return req;
}

// A non-idempotent request: the duplicate-request cache keeps its reply.
proto::Request MakeCreate(const std::string& name) {
  proto::CreateReq req;
  req.dir = proto::FileHandle{1, 1, 0};
  req.name = name;
  return req;
}

TEST(RpcTest, BasicRoundTrip) {
  Rig rig;
  rig.server.set_handler(
      [](const proto::Request& req, net::Address) -> sim::Task<proto::Reply> {
        const auto& lookup = std::get<proto::LookupReq>(req);
        proto::LookupRep rep;
        rep.fh = proto::FileHandle{1, 99, 0};
        rep.attr.fileid = 99;
        rep.attr.size = lookup.name.size();
        co_return proto::OkReply(rep);
      });

  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    auto reply = co_await rig.client.Call(rig.server.address(), MakeLookup("hello"));
    auto body = Expect<proto::LookupRep>(std::move(reply));
    EXPECT_TRUE(body.ok());
    if (!body.ok()) {
      co_return;
    }
    EXPECT_EQ(body->fh.fileid, 99u);
    EXPECT_EQ(body->attr.size, 5u);
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.client.client_ops().Get(proto::OpKind::kLookup), 1u);
  EXPECT_EQ(rig.server.server_ops().Get(proto::OpKind::kLookup), 1u);
  EXPECT_GT(rig.simulator.Now(), 0);
}

TEST(RpcTest, ErrorStatusPropagates) {
  Rig rig;
  rig.server.set_handler([](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_return proto::ErrorReply(base::ErrNoEnt());
  });
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    auto body = Expect<proto::LookupRep>(
        co_await rig.client.Call(rig.server.address(), MakeLookup("missing")));
    EXPECT_FALSE(body.ok());
    EXPECT_EQ(body.status(), base::ErrNoEnt());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(RpcTest, UnhandledPeerRejectsCalls) {
  Rig rig;  // server has no handler
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    auto reply = co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}));
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) {
      co_return;
    }
    EXPECT_EQ(reply->status, base::ErrNotSupported());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(RpcTest, RetransmitsUnderPacketLossAndSucceeds) {
  net::NetworkParams params;
  params.loss_rate = 0.3;
  Rig rig(params);
  int executions = 0;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&executions](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
        ++executions;
        co_return proto::OkReply(proto::NullRep{});
      });
  int ok_count = 0;
  constexpr int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) {
    rig.simulator.Spawn([](Rig& rig, int& ok_count) -> sim::Task<void> {
      CallOptions opts;
      opts.timeout = sim::Msec(500);
      opts.max_attempts = 10;
      auto reply =
          co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}), opts);
      if (reply.ok() && reply->status.ok()) {
        ++ok_count;
      }
    }(rig, ok_count));
  }
  rig.simulator.Run();
  EXPECT_EQ(ok_count, kCalls);
  EXPECT_GT(rig.client.retransmissions(), 0u);
}

TEST(RpcTest, DuplicateRequestsExecuteExactlyOnce) {
  // Drop every reply-direction packet for a while by making the server slow
  // instead: with loss, a retransmit can arrive while the original is still
  // executing (dropped) or after it completed (cached reply). Either way the
  // handler must run exactly once per XID of a non-idempotent op.
  net::NetworkParams params;
  params.loss_rate = 0.4;
  Rig rig(params);
  int executions = 0;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&executions, &rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
        ++executions;
        co_await sim::Sleep(rig.simulator, sim::Msec(200));
        co_return proto::OkReply(proto::NullRep{});
      });
  int completed = 0;
  constexpr int kCalls = 30;
  for (int i = 0; i < kCalls; ++i) {
    rig.simulator.Spawn([](Rig& rig, int& completed) -> sim::Task<void> {
      CallOptions opts;
      opts.timeout = sim::Msec(300);
      opts.max_attempts = 20;
      auto reply = co_await rig.client.Call(rig.server.address(), MakeCreate("f"), opts);
      if (reply.ok() && reply->status.ok()) {
        ++completed;
      }
    }(rig, completed));
  }
  rig.simulator.Run();
  EXPECT_EQ(completed, kCalls);
  // Exactly-once: the duplicate cache must have prevented re-execution.
  EXPECT_EQ(executions, kCalls);
  EXPECT_GT(rig.server.duplicates_suppressed(), 0u);
}

TEST(RpcTest, CallToDeadHostTimesOut) {
  Rig rig;
  rig.network.SetHostUp(rig.server.address(), false);
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Msec(100);
    opts.max_attempts = 3;
    auto reply =
        co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}), opts);
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status(), base::ErrTimedOut());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(RpcTest, ServerCanCallBackIntoClient) {
  // The SNFS callback pattern: while serving a request from A, the server
  // calls B (here: calls A itself) and awaits the result before replying.
  Rig rig;
  rig.client.set_handler([](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_return proto::OkReply(proto::CallbackRep{});
  });
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&rig](const proto::Request&, net::Address from) -> sim::Task<proto::Reply> {
        proto::CallbackReq cb;
        cb.invalidate = true;
        auto result = co_await rig.server.Call(from, proto::Request(cb));
        EXPECT_TRUE(result.ok());
        co_return proto::OkReply(proto::NullRep{});
      });
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    auto reply = co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}));
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) {
      co_return;
    }
    EXPECT_TRUE(reply->status.ok());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.server.client_ops().Get(proto::OpKind::kCallback), 1u);
}

TEST(RpcTest, WorkerPoolBoundsConcurrency) {
  PeerOptions opts;
  opts.num_workers = 2;
  Rig rig({}, opts);
  int running = 0;
  int peak = 0;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
        ++running;
        peak = std::max(peak, running);
        co_await sim::Sleep(rig.simulator, sim::Msec(50));
        --running;
        co_return proto::OkReply(proto::NullRep{});
      });
  for (int i = 0; i < 8; ++i) {
    rig.simulator.Spawn([](Rig& rig) -> sim::Task<void> {
      (void)co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}));
    }(rig));
  }
  rig.simulator.Run();
  EXPECT_EQ(peak, 2);
}

TEST(RpcTest, WireSizeScalesWithPayload) {
  proto::WriteReq small;
  small.data.resize(100);
  proto::WriteReq big;
  big.data.resize(4096);
  EXPECT_GT(proto::WireSize(proto::Request(big)), proto::WireSize(proto::Request(small)) + 3900);
}

TEST(RpcTest, ShutdownFailsPendingCalls) {
  Rig rig;
  // lint: coro-lambda-ok (handler and captures share the test scope)
  rig.server.set_handler([&rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_await sim::Sleep(rig.simulator, sim::Sec(100));
    co_return proto::OkReply(proto::NullRep{});
  });
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    auto reply = co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}));
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) {
      co_return;
    }
    EXPECT_FALSE(reply->status.ok());
    done = true;
  }(rig, done));
  rig.simulator.Schedule(sim::Msec(100), [&rig] { rig.client.Shutdown(); });
  rig.simulator.RunUntil(sim::Sec(10));
  EXPECT_TRUE(done);
}

TEST(RpcTest, GhostRepliesFromDeadGenerationAreDropped) {
  // A quick shutdown+restart while a handler is mid-flight: the old
  // generation's worker finishes *after* the restart. Its reply reflects
  // pre-crash state and must be dropped, not sent — and must not be
  // recorded in the new generation's duplicate cache, where it would mask
  // the retransmitted request's re-execution.
  Rig rig;
  int executions = 0;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&executions, &rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
        int n = ++executions;
        co_await sim::Sleep(rig.simulator, sim::Msec(100));
        proto::LookupRep rep;
        rep.attr.size = static_cast<uint64_t>(n);
        co_return proto::OkReply(rep);
      });

  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Msec(80);
    opts.max_attempts = 5;
    auto body = Expect<proto::LookupRep>(
        co_await rig.client.Call(rig.server.address(), MakeLookup("f"), opts));
    EXPECT_TRUE(body.ok());
    if (body.ok()) {
      // The reply must come from the post-restart execution, not the ghost.
      EXPECT_EQ(body->attr.size, 2u);
    }
    done = true;
  }(rig, done));
  // The host is never marked down in the network, so the ghost reply WOULD
  // be delivered if the worker sent it.
  rig.simulator.Schedule(sim::Msec(50), [&rig] { rig.server.Shutdown(); });
  rig.simulator.Schedule(sim::Msec(60), [&rig] { rig.server.Start(); });
  rig.simulator.RunUntil(sim::Sec(10));
  EXPECT_TRUE(done);
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(rig.server.stale_replies_dropped(), 1u);
}

TEST(RpcTest, ShutdownClearsPendingCallsImmediately) {
  // Shutdown must forget in-flight calls synchronously: a reply that
  // straggles in after a restart must find no promise from the previous
  // incarnation, and repeated crash cycles must not grow the map.
  Rig rig;
  // lint: coro-lambda-ok (handler and captures share the test scope)
  rig.server.set_handler([&rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_await sim::Sleep(rig.simulator, sim::Sec(100));
    co_return proto::OkReply(proto::NullRep{});
  });
  rig.simulator.Spawn([](Rig& rig) -> sim::Task<void> {
    (void)co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}));
  }(rig));
  rig.simulator.Schedule(sim::Msec(100), [&rig] {
    EXPECT_EQ(rig.client.pending_calls(), 1u);
    rig.client.Shutdown();
    EXPECT_EQ(rig.client.pending_calls(), 0u);
  });
  rig.simulator.RunUntil(sim::Sec(1));
}

TEST(RpcTest, RetriedCallTracesOneLogicalSpanWithAttemptChildren) {
  // A create handler slower than the client's timeout: attempt 1 times out,
  // the retransmit lands while the original execution is still in progress
  // (a dup-cache hit), and the eventual reply completes the call on attempt 2.
  // The trace must show ONE logical rpc.call span with two rpc.attempt
  // children, one rpc.handle execution, and the dup-cache hit as an instant
  // attributed to the second attempt.
  Rig rig;
  trace::Recorder recorder(rig.simulator);
  trace::SetActive(&recorder);

  // lint: coro-lambda-ok (handler and captures share the test scope)
  rig.server.set_handler([&rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_await sim::Sleep(rig.simulator, sim::Msec(200));
    co_return proto::OkReply(proto::NullRep{});
  });

  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Msec(150);
    opts.max_attempts = 3;
    auto reply = co_await rig.client.Call(rig.server.address(), MakeCreate("f"), opts);
    EXPECT_TRUE(reply.ok());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  trace::SetActive(nullptr);
  EXPECT_TRUE(done);

  uint64_t call_span = 0;
  std::string call_end_args;
  std::vector<uint64_t> attempt_spans;
  std::vector<uint64_t> attempt_parents;
  uint64_t handle_begins = 0;
  uint64_t dup_hit_span = 0;
  std::string dup_hit_args;
  uint64_t retransmits = 0;
  for (const trace::Event& e : recorder.events()) {
    if (e.kind == trace::EventKind::kSpanBegin && e.name == "rpc.call") {
      EXPECT_EQ(call_span, 0u) << "more than one logical rpc.call span";
      call_span = e.span;
    } else if (e.kind == trace::EventKind::kSpanEnd && e.span == call_span && call_span != 0) {
      call_end_args = e.args;
    } else if (e.kind == trace::EventKind::kSpanBegin && e.name == "rpc.attempt") {
      attempt_spans.push_back(e.span);
      attempt_parents.push_back(e.parent);
    } else if (e.kind == trace::EventKind::kSpanBegin && e.name == "rpc.handle") {
      ++handle_begins;
    } else if (e.name == "rpc.dup_hit") {
      dup_hit_span = e.span;
      dup_hit_args = e.args;
    } else if (e.name == "rpc.retransmit") {
      ++retransmits;
    }
  }
  ASSERT_NE(call_span, 0u);
  EXPECT_EQ(trace::ArgValue(call_end_args, "status"), "done");
  EXPECT_EQ(trace::ArgValue(call_end_args, "attempts"), "2");
  ASSERT_EQ(attempt_spans.size(), 2u);
  EXPECT_EQ(attempt_parents[0], call_span);
  EXPECT_EQ(attempt_parents[1], call_span);
  EXPECT_EQ(retransmits, 1u);
  // The handler ran once; the retransmit was absorbed by the dup cache while
  // the original was still executing, attributed to the retransmit's attempt.
  EXPECT_EQ(handle_begins, 1u);
  EXPECT_EQ(dup_hit_span, attempt_spans[1]);
  EXPECT_EQ(trace::ArgValue(dup_hit_args, "done"), "0");
}

TEST(RpcTest, DupCacheEvictionIsBoundedWithInProgressEntries) {
  // Six workers park forever on their first requests; a stream of quick
  // calls then flows through a 4-entry duplicate cache. Eviction must never
  // drop the in-progress entries: the cache may exceed its capacity only by
  // the number of in-progress entries, no matter how the parked entries
  // interleave with completed ones. Both streams are cached (create and
  // remove), so both occupy entries.
  PeerOptions server_opts;
  server_opts.num_workers = 8;  // 6 get parked; 2 stay free for quick calls
  server_opts.dup_cache_entries = 4;
  Rig rig({}, server_opts);
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&rig](const proto::Request& req, net::Address) -> sim::Task<proto::Reply> {
        if (std::holds_alternative<proto::CreateReq>(req)) {
          co_await sim::Sleep(rig.simulator, sim::Sec(5000));  // park
        }
        co_return proto::OkReply(proto::NullRep{});
      });

  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    CallOptions park_opts;
    park_opts.timeout = sim::Sec(30);
    park_opts.max_attempts = 1;
    for (int i = 0; i < 6; ++i) {
      // Fire-and-forget: these occupy all six workers.
      rig.simulator.Spawn([](Rig& rig, CallOptions opts) -> sim::Task<void> {
        (void)co_await rig.client.Call(rig.server.address(), MakeCreate("park"), opts);
      }(rig, park_opts));
    }
    co_await sim::Sleep(rig.simulator, sim::Msec(50));
    for (int i = 0; i < 20; ++i) {
      proto::RemoveReq remove;
      remove.dir = proto::FileHandle{1, 1, 0};
      remove.name = "q";
      auto reply = co_await rig.client.Call(rig.server.address(), proto::Request(remove));
      EXPECT_TRUE(reply.ok());
      size_t size = rig.server.dup_cache_size();
      size_t in_progress = rig.server.dup_cache_in_progress();
      EXPECT_LE(size, 4u + in_progress)
          << "dup cache over bound after call " << i << ": " << size << " entries, "
          << in_progress << " in progress";
    }
    done = true;
  }(rig, done));
  rig.simulator.RunUntil(sim::Sec(20));
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.server.dup_cache_in_progress(), 6u);
}

TEST(RpcTest, RetransmittedIdempotentCallRunsAgainUncached) {
  // A read handler slower than the client's timeout: the retransmit is not
  // held back by the duplicate cache but executes a second time, and no
  // read reply is ever cached.
  Rig rig;
  int executions = 0;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&executions, &rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
        ++executions;
        co_await sim::Sleep(rig.simulator, sim::Msec(200));
        proto::ReadRep rep;
        rep.data.assign(4096, 0x5a);
        co_return proto::OkReply(std::move(rep));
      });
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Msec(150);
    opts.max_attempts = 3;
    proto::ReadReq read;
    read.fh = proto::FileHandle{1, 7, 0};
    read.count = 4096;
    auto body = Expect<proto::ReadRep>(
        co_await rig.client.Call(rig.server.address(), proto::Request(read), opts));
    EXPECT_TRUE(body.ok());
    if (body.ok()) {
      EXPECT_EQ(body->data.size(), 4096u);
    }
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.client.retransmissions(), 1u);
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(rig.server.duplicates_suppressed(), 0u);
  EXPECT_EQ(rig.server.dup_cache_size(), 0u);
}

// Three hosts for the router role: clients call `router`, which forwards
// every request to `server` (direct server return).
struct RoutedRig {
  sim::Simulator simulator;
  net::Network network;
  sim::Cpu client_cpu{simulator};
  sim::Cpu client2_cpu{simulator};
  sim::Cpu router_cpu{simulator};
  sim::Cpu server_cpu{simulator};
  Peer client{simulator, network, client_cpu, "client"};
  Peer client2{simulator, network, client2_cpu, "client2"};
  Peer router{simulator, network, router_cpu, "router"};
  Peer server{simulator, network, server_cpu, "server"};

  explicit RoutedRig(net::NetworkParams params = {}) : network(simulator, params, /*seed=*/42) {
    router.set_router([this](const proto::Request&) -> std::optional<net::Address> {
      return server.address();
    });
    client.Start();
    client2.Start();
    router.Start();
    server.Start();
  }
};

TEST(RpcRouterTest, RoutedRequestIsServedForTheClientAndRepliedDirectly) {
  RoutedRig rig;
  trace::Recorder recorder(rig.simulator);
  trace::SetActive(&recorder);
  std::vector<int> froms;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&froms](const proto::Request&, net::Address from) -> sim::Task<proto::Reply> {
        froms.push_back(from.host);
        co_return proto::OkReply(proto::CreateRep{});
      });
  bool done = false;
  rig.simulator.Spawn([](RoutedRig& rig, bool& done) -> sim::Task<void> {
    auto reply = co_await rig.client.Call(rig.router.address(), MakeCreate("f"));
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) {
      co_return;
    }
    EXPECT_TRUE(reply->status.ok());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  trace::SetActive(nullptr);
  EXPECT_TRUE(done);

  // The server saw the original client, and keyed its dup cache by it.
  EXPECT_EQ(froms, std::vector<int>{rig.client.address().host});
  EXPECT_EQ(rig.server.dup_cache_size(), 1u);
  // Request, forward, and one reply straight to the client.
  EXPECT_EQ(rig.network.packets_sent(), 3u);
  // The router ran no handler, kept no dup-cache entry, charged no CPU.
  EXPECT_EQ(rig.router.server_ops().Total(), 0u);
  EXPECT_EQ(rig.router.dup_cache_size(), 0u);
  EXPECT_EQ(rig.router_cpu.busy_time(), 0);

  // The hop shows in the trace under the client's attempt, and the server's
  // handler parents directly under that attempt.
  uint64_t attempt_span = 0;
  uint64_t route_span = 0;
  std::string route_args;
  uint64_t handle_parent = 0;
  for (const trace::Event& e : recorder.events()) {
    if (e.kind == trace::EventKind::kSpanBegin && e.name == "rpc.attempt") {
      attempt_span = e.span;
    } else if (e.name == "rpc.route") {
      route_span = e.span;
      route_args = e.args;
    } else if (e.kind == trace::EventKind::kSpanBegin && e.name == "rpc.handle") {
      handle_parent = e.parent;
    }
  }
  ASSERT_NE(attempt_span, 0u);
  EXPECT_EQ(route_span, attempt_span);
  EXPECT_EQ(trace::ArgValue(route_args, "from"), std::to_string(rig.client.address().host));
  EXPECT_EQ(trace::ArgValue(route_args, "to"), std::to_string(rig.server.address().host));
  EXPECT_EQ(handle_parent, attempt_span);
}

TEST(RpcRouterTest, RoutedRetransmissionHitsServerDupCacheKeyedByClient) {
  // Two clients each issue their first call, so both carry xid 1, through
  // one router to a server slower than their timeout, and the server's
  // first replies are lost. Keyed by the router (the packets' sender), the
  // second client's create would be taken for a retransmission of the
  // first; keyed by the original client, each create runs exactly once,
  // the retransmission during execution is dropped, and the one after it
  // gets the cached reply, sent to the client.
  net::NetworkParams params;
  {
    RoutedRig probe;  // host ids are assigned in construction order
    auto plan = std::make_shared<fault::FaultPlan>();
    for (Peer* client : {&probe.client, &probe.client2}) {
      plan->partitions.push_back(fault::Partition{probe.server.address().host,
                                                  client->address().host, sim::Msec(100),
                                                  sim::Msec(300)});
    }
    params.faults = plan;
  }
  RoutedRig rig(params);
  std::vector<int> froms;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&froms, &rig](const proto::Request&, net::Address from) -> sim::Task<proto::Reply> {
        froms.push_back(from.host);
        co_await sim::Sleep(rig.simulator, sim::Msec(200));
        co_return proto::OkReply(proto::CreateRep{});
      });
  int completed = 0;
  for (Peer* client : {&rig.client, &rig.client2}) {
    rig.simulator.Spawn([](RoutedRig& rig, Peer& client, int& completed) -> sim::Task<void> {
      CallOptions opts;
      opts.timeout = sim::Msec(150);
      opts.max_attempts = 5;
      auto reply = co_await client.Call(rig.router.address(), MakeCreate("f"), opts);
      if (reply.ok() && reply->status.ok()) {
        ++completed;
      }
    }(rig, *client, completed));
  }
  rig.simulator.Run();
  EXPECT_EQ(completed, 2);
  std::sort(froms.begin(), froms.end());
  EXPECT_EQ(froms, (std::vector<int>{rig.client.address().host, rig.client2.address().host}));
  EXPECT_GT(rig.client.retransmissions(), 0u);
  EXPECT_GT(rig.client2.retransmissions(), 0u);
  EXPECT_EQ(rig.server.duplicates_suppressed(), 4u);  // per client: in progress, then done
  EXPECT_EQ(rig.router.server_ops().Total(), 0u);
  EXPECT_EQ(rig.router.dup_cache_size(), 0u);
}

}  // namespace
}  // namespace rpc
