// RpcRig: a simulator, a network and RPC peers for the net and rpc tests.
// A client and a server, each on its own CPU, and with `routed` a router
// that forwards every request to the server, which replies to the client
// directly. Hosts attach in construction order: client = 0, server = 1,
// router = 2; a peer a test adds afterwards gets the next number.
#ifndef TESTS_RPC_RIG_H_
#define TESTS_RPC_RIG_H_

#include <cstdint>
#include <optional>

#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"

namespace testbed {

struct RpcRigOptions {
  net::NetworkParams network = {};
  uint64_t seed = 42;  // seeds the network's loss_rate draws
  rpc::PeerOptions server = {};
  bool routed = false;
};

struct RpcRig {
  sim::Simulator simulator;
  net::Network network;
  sim::Cpu client_cpu{simulator};
  sim::Cpu server_cpu{simulator};
  sim::Cpu router_cpu{simulator};
  rpc::Peer client;
  rpc::Peer server;
  std::optional<rpc::Peer> router;

  explicit RpcRig(RpcRigOptions options = {})
      : network(simulator, options.network, options.seed),
        client(simulator, network, client_cpu, "client"),
        server(simulator, network, server_cpu, "server", options.server) {
    if (options.routed) {
      router.emplace(simulator, network, router_cpu, "router");
      router->set_router([this](const proto::Request&) -> std::optional<net::Address> {
        return server.address();
      });
    }
    client.Start();
    server.Start();
    if (router.has_value()) {
      router->Start();
    }
  }
};

}  // namespace testbed

#endif  // TESTS_RPC_RIG_H_
