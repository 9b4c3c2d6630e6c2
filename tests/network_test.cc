// Transport-level guards for the simulated network, most importantly the
// envelope discipline: a packet carries its envelope by pointer, from the
// sender through delivery and the rx channel to the worker that reuses it
// for the reply, so a stray copy anywhere on the send -> deliver ->
// dispatch path would silently double the per-RPC memory traffic.
// proto::Envelope counts its copies; these tests pin the count to zero on
// the happy path (direct and through a forwarding router) and to exactly
// one per fault-injected duplicate.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/check.h"
#include "src/fault/plan.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "tests/rpc_rig.h"

namespace net {
namespace {

using testbed::RpcRig;

// Echoes write payloads back so replies are as big as requests and a copy
// on either direction of the path would be caught.
void ServeEcho(RpcRig& rig) {
  rig.server.set_handler([](proto::Request request, Address) -> sim::Task<proto::Reply> {
    if (auto* write = std::get_if<proto::WriteReq>(&request)) {
      proto::ReadRep rep;
      rep.data = std::move(write->data);
      co_return proto::OkReply(std::move(rep));
    }
    co_return proto::OkReply(proto::NullRep{});
  });
}

// `calls` one-block writes from the client, straight to the server or
// through the router.
void RunCalls(RpcRig& rig, int calls, bool routed = false) {
  Address dst = routed ? rig.router->address() : rig.server.address();
  int completed = 0;
  for (int i = 0; i < calls; ++i) {
    rig.simulator.Spawn(
        [](rpc::Peer& client, Address dst, int i, int& completed) -> sim::Task<void> {
          proto::WriteReq req;
          req.fh = proto::FileHandle{1, static_cast<uint64_t>(i)};
          req.data = std::vector<uint8_t>(4096, static_cast<uint8_t>(i));
          auto reply = co_await client.Call(dst, std::move(req));
          CHECK(reply.ok());
          ++completed;
        }(rig.client, dst, i, completed));
  }
  rig.simulator.Run();
  EXPECT_EQ(completed, calls);
}

TEST(NetworkTest, HappyPathMovesEnvelopesWithoutCopies) {
  RpcRig rig({.seed = 1});
  ServeEcho(rig);
  proto::Envelope::reset_copy_count();
  RunCalls(rig, 50);
  EXPECT_EQ(proto::Envelope::copy_count(), 0u);
  EXPECT_EQ(rig.network.packets_sent(), 100u);  // 50 requests + 50 replies
}

TEST(NetworkTest, RoutedRequestsMoveEnvelopesWithoutCopies) {
  // The router re-sends the envelope it received, and the server's reply
  // goes straight to the client: forwarding adds a hop but no copy.
  RpcRig rig({.seed = 1, .routed = true});
  ServeEcho(rig);
  proto::Envelope::reset_copy_count();
  RunCalls(rig, 50, /*routed=*/true);
  EXPECT_EQ(proto::Envelope::copy_count(), 0u);
  EXPECT_EQ(rig.network.packets_sent(), 150u);  // request, forward, direct reply
}

TEST(NetworkTest, FaultDuplicationCopiesExactlyOncePerDuplicate) {
  NetworkParams params;
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->duplicate = 0.5;
  params.faults = plan;
  RpcRig rig({.network = params, .seed = 7});
  ServeEcho(rig);
  proto::Envelope::reset_copy_count();
  RunCalls(rig, 50);
  // The duplicate trailing an original is the one legitimate copy on the
  // delivery path; everything else still moves.
  EXPECT_GT(rig.network.packets_duplicated(), 0u);
  EXPECT_EQ(proto::Envelope::copy_count(), rig.network.packets_duplicated());
}

}  // namespace
}  // namespace net
