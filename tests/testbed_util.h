// Shared test scaffolding: a World with one server and N client machines.
#ifndef TESTS_TESTBED_UTIL_H_
#define TESTS_TESTBED_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/testbed/machine.h"

namespace testbed {

struct World {
  sim::Simulator simulator;
  net::Network network;
  std::unique_ptr<ServerMachine> server;
  std::vector<std::unique_ptr<ClientMachine>> clients;

  explicit World(ServerProtocol protocol, int num_clients = 2,
                 ServerMachineParams server_params = {},
                 ClientMachineParams client_params = {},
                 net::NetworkParams net_params = {})
      : network(simulator, net_params, /*seed=*/7) {
    server = std::make_unique<ServerMachine>(simulator, network, "server", protocol,
                                             server_params);
    for (int i = 0; i < num_clients; ++i) {
      clients.push_back(std::make_unique<ClientMachine>(simulator, network,
                                                        "client" + std::to_string(i),
                                                        client_params));
    }
    server->Start();
    for (auto& c : clients) {
      c->Start();
    }
  }

  ClientMachine& client(int i) { return *clients[i]; }
};

// Mount the server's export on client `i` with the matching protocol client.
inline nfs::RemoteClient& MountData(World& w, int i, ServerProtocol protocol,
                                    const std::string& path = "/data") {
  switch (protocol) {
    case ServerProtocol::kNfs:
      return w.client(i).MountNfs(path, w.server->address(), w.server->root());
    case ServerProtocol::kSnfs:
      return w.client(i).MountSnfs(path, w.server->address(), w.server->root());
    case ServerProtocol::kNqnfs:
      break;
  }
  return w.client(i).MountNqnfs(path, w.server->address(), w.server->root());
}

inline std::string ProtocolLabel(ServerProtocol protocol) {
  switch (protocol) {
    case ServerProtocol::kNfs:
      return "Nfs";
    case ServerProtocol::kSnfs:
      return "Snfs";
    case ServerProtocol::kNqnfs:
      return "Nqnfs";
  }
  return "Unknown";
}

inline std::vector<uint8_t> TestBytes(const std::string& s) { return {s.begin(), s.end()}; }
inline std::string TestStr(const std::vector<uint8_t>& v) { return {v.begin(), v.end()}; }

inline std::vector<uint8_t> TestPattern(size_t n, uint8_t seed = 3) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed * 17 + i * 13 + (i >> 9));
  }
  return v;
}

}  // namespace testbed

#endif  // TESTS_TESTBED_UTIL_H_
