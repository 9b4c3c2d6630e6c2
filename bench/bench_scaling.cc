// Client-scaling experiment. The paper argues but never measures (§2.3):
// "while the NFS server may be able to 'handle' an arbitrary number of
// clients, the Sprite server should be able to provide acceptable
// performance to a larger number of simultaneously active clients" —
// and cites Sprite's claim of supporting ~4x the clients of NFS (§5.2).
//
// We run N clients, each performing an independent compile-like loop
// against one shared server, and report mean completion time and server
// utilization as N grows. The capacity argument shows up as NFS completion
// times degrading much faster with N (every client's writes serialize on
// the server disk) than SNFS's.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/table.h"
#include "src/testbed/machine.h"

namespace {

using bench::PrintShapeCheck;
using testbed::ClientMachine;
using testbed::ServerMachine;
using testbed::ServerProtocol;

// One client's workload: an edit-compile loop (read sources, burn CPU,
// write objects and short-lived temporaries, delete the temporaries).
sim::Task<void> CompileLoop(sim::Simulator& simulator, ClientMachine& client, int rounds,
                            sim::Duration* elapsed, sim::WaitGroup& wg) {
  vfs::Vfs& v = client.vfs();
  sim::Time start = simulator.Now();
  std::string dir = "/data/" + client.name();
  (void)co_await v.MkdirPath(dir);
  std::vector<uint8_t> source(12 * 1024, 0x42);
  (void)co_await v.WriteFile(dir + "/src.c", source);
  for (int r = 0; r < rounds; ++r) {
    auto src = co_await v.ReadFile(dir + "/src.c");
    if (!src.ok()) {
      break;
    }
    co_await client.cpu().Run(sim::Msec(800));  // compile
    std::vector<uint8_t> temp(24 * 1024, static_cast<uint8_t>(r));
    (void)co_await v.WriteFile(dir + "/tmp.s", temp);
    (void)co_await v.ReadFile(dir + "/tmp.s");
    std::vector<uint8_t> object(16 * 1024, static_cast<uint8_t>(r * 3));
    (void)co_await v.WriteFile(dir + "/obj.o", object);
    (void)co_await v.Unlink(dir + "/tmp.s");
  }
  *elapsed = simulator.Now() - start;
  wg.Done();
}

struct ScalePoint {
  double mean_completion_s = 0;
  double server_utilization = 0;
};

ScalePoint RunScale(ServerProtocol protocol, int num_clients) {
  sim::Simulator simulator;
  net::Network network(simulator, {});
  ServerMachine server(simulator, network, "server", protocol);
  std::vector<std::unique_ptr<ClientMachine>> clients;
  for (int i = 0; i < num_clients; ++i) {
    auto c = std::make_unique<ClientMachine>(simulator, network, "c" + std::to_string(i));
    if (protocol == ServerProtocol::kNfs) {
      c->MountNfs("/data", server.address(), server.root());
    } else {
      c->MountSnfs("/data", server.address(), server.root());
    }
    clients.push_back(std::move(c));
  }
  server.Start();
  for (auto& c : clients) {
    c->Start();
  }

  constexpr int kRounds = 20;
  sim::WaitGroup wg(simulator);
  std::vector<sim::Duration> elapsed(static_cast<size_t>(num_clients), 0);
  for (int i = 0; i < num_clients; ++i) {
    wg.Add();
    simulator.Spawn(CompileLoop(simulator, *clients[static_cast<size_t>(i)], kRounds,
                                &elapsed[static_cast<size_t>(i)], wg));
  }
  sim::Time start = simulator.Now();
  simulator.Run();
  sim::Time wall = simulator.Now() - start;

  ScalePoint point;
  for (sim::Duration e : elapsed) {
    point.mean_completion_s += sim::ToSeconds(e);
  }
  point.mean_completion_s /= num_clients;
  point.server_utilization =
      wall > 0 ? sim::ToSeconds(server.cpu().busy_time()) / sim::ToSeconds(wall) : 0;
  return point;
}

}  // namespace

int main() {
  std::printf("=== Client scaling (extension): N clients x 20 compile rounds ===\n");
  std::printf("(the paper's §2.3 capacity argument, measured)\n\n");

  const int kClients[] = {1, 2, 4, 8, 16};
  metrics::Table table({"Clients", "NFS mean completion", "SNFS mean completion",
                        "NFS server util", "SNFS server util"});
  double nfs1 = 0;
  double nfs16 = 0;
  double snfs1 = 0;
  double snfs16 = 0;
  for (int n : kClients) {
    ScalePoint nfs = RunScale(ServerProtocol::kNfs, n);
    ScalePoint snfs = RunScale(ServerProtocol::kSnfs, n);
    if (n == 1) {
      nfs1 = nfs.mean_completion_s;
      snfs1 = snfs.mean_completion_s;
    }
    if (n == 16) {
      nfs16 = nfs.mean_completion_s;
      snfs16 = snfs.mean_completion_s;
    }
    table.AddRow({metrics::Table::Int(static_cast<uint64_t>(n)),
                  metrics::Table::Seconds(nfs.mean_completion_s),
                  metrics::Table::Seconds(snfs.mean_completion_s),
                  metrics::Table::Pct(nfs.server_utilization),
                  metrics::Table::Pct(snfs.server_utilization)});
  }
  table.Print();

  double nfs_slowdown = nfs16 / nfs1;
  double snfs_slowdown = snfs16 / snfs1;
  std::printf("\nSlowdown going from 1 to 16 clients: NFS %.2fx, SNFS %.2fx\n", nfs_slowdown,
              snfs_slowdown);
  std::printf("Capacity at equal degradation: SNFS supports ~%.1fx the clients\n",
              nfs_slowdown / snfs_slowdown);

  std::printf("\n=== Shape checks against the paper's argument ===\n");
  PrintShapeCheck("SNFS degrades less than NFS with client count",
                  nfs_slowdown / snfs_slowdown, 1.2, 100.0);
  PrintShapeCheck("single-client SNFS at least as fast as NFS", snfs1 / nfs1, 0.0, 1.0);
  return bench::ShapeCheckStatus();
}
