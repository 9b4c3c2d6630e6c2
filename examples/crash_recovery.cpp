// Walks through the §2.4 crash-recovery story: a stateful server loses its
// state table in a crash, clients detect the reboot through keepalive
// epochs and re-assert their opens, and consistency survives — including
// dirty data that existed only in a client's cache at crash time.
//
//   ./build/examples/crash_recovery
#include <cstdio>

#include "src/testbed/machine.h"

using testbed::ClientMachine;
using testbed::ServerMachine;
using testbed::ServerProtocol;

namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

void PrintState(ServerMachine& server, const char* when) {
  proto::FileHandle fh{server.fs().fsid(), 2, 0};
  const snfs::StateTable::Entry* entry = server.snfs_server()->state_table().Lookup(fh);
  std::printf("  [%s] server state table: %s\n", when,
              entry == nullptr ? "(no entry)"
                               : std::string(snfs::FileStateName(entry->state())).c_str());
}

}  // namespace

int main() {
  sim::Simulator simulator;
  net::Network network(simulator, {});

  testbed::ServerMachineParams server_params;
  server_params.snfs.enable_recovery = true;  // grace period snfs::kRecoveryGrace
  ServerMachine server(simulator, network, "server", ServerProtocol::kSnfs, server_params);

  snfs::SnfsClientParams client_params;
  client_params.enable_recovery = true;  // pings every snfs::kKeepaliveInterval
  ClientMachine alice(simulator, network, "alice");
  ClientMachine bob(simulator, network, "bob");
  alice.MountSnfs("/data", server.address(), server.root(), client_params);
  bob.MountSnfs("/data", server.address(), server.root(), client_params);
  server.Start();
  alice.Start();
  bob.Start();

  simulator.Spawn([](sim::Simulator& simulator, ServerMachine& server, ClientMachine& alice,
                     ClientMachine& bob, net::Network& network) -> sim::Task<void> {
    vfs::Vfs& a = alice.vfs();

    // Alice writes a report; the data is dirty in her cache only.
    (void)co_await a.WriteFile("/data/report", Bytes("quarterly numbers"));
    std::printf("t=%5.1fs alice wrote /data/report (dirty in her cache; %llu write RPCs)\n",
                sim::ToSeconds(simulator.Now()),
                static_cast<unsigned long long>(
                    alice.peer().client_ops().Get(proto::OpKind::kWrite)));
    PrintState(server, "before crash");

    // The server crashes: its state table was kernel memory.
    server.Crash(network);
    std::printf("t=%5.1fs *** server crashed ***\n", sim::ToSeconds(simulator.Now()));
    co_await sim::Sleep(simulator, sim::Sec(3));
    server.Reboot(network);
    std::printf("t=%5.1fs server rebooted (epoch %llu), in recovery grace period\n",
                sim::ToSeconds(simulator.Now()),
                static_cast<unsigned long long>(server.snfs_server()->epoch()));
    PrintState(server, "after reboot ");

    // Keepalives notice the epoch change; clients reopen their files.
    co_await sim::Sleep(simulator, sim::Sec(25));
    PrintState(server, "post recovery");

    // Bob reads the report: the callback retrieves Alice's dirty blocks —
    // data that never touched the server before the crash survives it.
    auto got = co_await bob.vfs().ReadFile("/data/report");
    std::printf("t=%5.1fs bob read /data/report: \"%s\"\n", sim::ToSeconds(simulator.Now()),
                got.ok() ? std::string(got->begin(), got->end()).c_str() : "<error>");
    std::printf("\n\"The clients together 'know' who is caching the file, and the server\n");
    std::printf(" can reconstruct its state from the clients.\"\n");
  }(simulator, server, alice, bob, network));

  simulator.RunUntil(sim::Sec(120));
  return 0;
}
