// Transport-level guards for the simulated network, most importantly the
// envelope move discipline: packets carry requests and replies (including
// multi-kilobyte write payloads) by value, so a stray copy anywhere on the
// send -> deliver -> dispatch path silently doubles the per-RPC memory
// traffic. proto::Envelope counts its copies; these tests pin the count to
// zero on the happy path (direct and through a forwarding router) and to
// exactly one per fault-injected duplicate.
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
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace net {
namespace {

struct EchoRig {
  sim::Simulator simulator;
  Network network;
  sim::Cpu client_cpu{simulator};
  sim::Cpu server_cpu{simulator};
  sim::Cpu router_cpu{simulator};
  rpc::Peer client{simulator, network, client_cpu, "client"};
  rpc::Peer server{simulator, network, server_cpu, "server"};
  // Forwards every request to the server, which replies to the client.
  rpc::Peer router{simulator, network, router_cpu, "router"};

  explicit EchoRig(NetworkParams params = {}, uint64_t seed = 1)
      : network(simulator, params, seed) {
    server.set_handler([](proto::Request request, Address) -> sim::Task<proto::Reply> {
      // Echo write payloads back so replies are as big as requests and a
      // copy on either direction of the path would be caught.
      if (auto* write = std::get_if<proto::WriteReq>(&request)) {
        proto::ReadRep rep;
        rep.data = std::move(write->data);
        co_return proto::OkReply(std::move(rep));
      }
      co_return proto::OkReply(proto::NullRep{});
    });
    router.set_router([this](const proto::Request&) -> std::optional<Address> {
      return server.address();
    });
    client.Start();
    server.Start();
    router.Start();
  }

  void RunCalls(int calls, bool routed = false) {
    Address dst = routed ? router.address() : server.address();
    int completed = 0;
    for (int i = 0; i < calls; ++i) {
      simulator.Spawn(
          [](rpc::Peer& client, Address dst, int i, int& completed) -> sim::Task<void> {
            proto::WriteReq req;
            req.fh = proto::FileHandle{1, static_cast<uint64_t>(i)};
            req.data.assign(4096, static_cast<uint8_t>(i));
            auto reply = co_await client.Call(dst, std::move(req));
            CHECK(reply.ok());
            ++completed;
          }(client, dst, i, completed));
    }
    simulator.Run();
    EXPECT_EQ(completed, calls);
  }
};

TEST(NetworkTest, HappyPathMovesEnvelopesWithoutCopies) {
  EchoRig rig;
  proto::Envelope::reset_copy_count();
  rig.RunCalls(50);
  EXPECT_EQ(proto::Envelope::copy_count(), 0u);
  EXPECT_EQ(rig.network.packets_sent(), 100u);  // 50 requests + 50 replies
}

TEST(NetworkTest, RoutedRequestsMoveEnvelopesWithoutCopies) {
  // The router re-sends the envelope it received, and the server's reply
  // goes straight to the client: forwarding adds a hop but no copy.
  EchoRig rig;
  proto::Envelope::reset_copy_count();
  rig.RunCalls(50, /*routed=*/true);
  EXPECT_EQ(proto::Envelope::copy_count(), 0u);
  EXPECT_EQ(rig.network.packets_sent(), 150u);  // request, forward, direct reply
}

TEST(NetworkTest, FaultDuplicationCopiesExactlyOncePerDuplicate) {
  NetworkParams params;
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->duplicate = 0.5;
  params.faults = plan;
  EchoRig rig(params, /*seed=*/7);
  proto::Envelope::reset_copy_count();
  rig.RunCalls(50);
  // The duplicate trailing an original is the one legitimate copy on the
  // delivery path; everything else still moves.
  EXPECT_GT(rig.network.packets_duplicated(), 0u);
  EXPECT_EQ(proto::Envelope::copy_count(), rig.network.packets_duplicated());
}

}  // namespace
}  // namespace net
