// Quickstart: build a simulated SNFS deployment (one server, two client
// workstations), run file operations through the Unix-like VFS API, and
// watch the consistency protocol at work.
//
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/testbed/machine.h"

using testbed::ClientMachine;
using testbed::ServerMachine;
using testbed::ServerProtocol;

namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }
std::string Str(const std::vector<uint8_t>& v) { return {v.begin(), v.end()}; }

}  // namespace

int main() {
  // One simulated world: a virtual clock, an Ethernet, machines.
  sim::Simulator simulator;
  net::Network network(simulator, net::NetworkParams{});

  // A file server speaking the SNFS protocol and two diskless clients.
  ServerMachine server(simulator, network, "server", ServerProtocol::kSnfs);
  ClientMachine alice(simulator, network, "alice");
  ClientMachine bob(simulator, network, "bob");
  snfs::SnfsClient& alice_fs = alice.MountSnfs("/data", server.address(), server.root());
  bob.MountSnfs("/data", server.address(), server.root());
  server.Start();
  alice.Start();
  bob.Start();

  // Client workloads are coroutines running in simulated time.
  simulator.Spawn([](ClientMachine& alice, ClientMachine& bob, ServerMachine& server,
                     snfs::SnfsClient& alice_fs) -> sim::Task<void> {
    vfs::Vfs& a = alice.vfs();
    vfs::Vfs& b = bob.vfs();

    // Alice creates a file. The write is DELAYED: it lives in her cache,
    // and closing the file does not flush it (that is the point of SNFS).
    auto st = co_await a.WriteFile("/data/notes.txt", Bytes("meeting at noon"));
    std::printf("[%8.3fs] alice wrote notes.txt: %s\n", sim::ToSeconds(alice.simulator().Now()),
                st.ok() ? "ok" : "FAILED");
    std::printf("           write RPCs so far: %llu (delayed write-back!)\n",
                static_cast<unsigned long long>(
                    alice.peer().client_ops().Get(proto::OpKind::kWrite)));

    // Bob opens the file. The server knows Alice may hold dirty blocks
    // (CLOSED_DIRTY) and calls her back to retrieve them before Bob's open
    // completes — Bob always sees current data.
    auto data = co_await b.ReadFile("/data/notes.txt");
    std::printf("[%8.3fs] bob read notes.txt: \"%s\"\n", sim::ToSeconds(bob.simulator().Now()),
                data.ok() ? Str(*data).c_str() : "FAILED");
    std::printf("           callbacks served by alice: %llu\n",
                static_cast<unsigned long long>(alice_fs.callbacks_served()));

    // A temporary file that dies young never reaches the server at all.
    uint64_t writes_before = alice.peer().client_ops().Get(proto::OpKind::kWrite);
    (void)co_await a.WriteFile("/data/scratch.tmp", std::vector<uint8_t>(64 * 1024, 0x5A));
    (void)co_await a.Unlink("/data/scratch.tmp");
    std::printf("[%8.3fs] alice created+deleted a 64 KB temp file: %llu write RPCs\n",
                sim::ToSeconds(alice.simulator().Now()),
                static_cast<unsigned long long>(
                    alice.peer().client_ops().Get(proto::OpKind::kWrite) - writes_before));

    // The server's state table tracks every active file.
    const snfs::StateTable::Entry* entry = server.snfs_server()->state_table().Lookup(
        proto::FileHandle{server.fs().fsid(), 2, 0});
    if (entry != nullptr) {
      std::printf("           server state for notes.txt: %s (version %llu)\n",
                  std::string(snfs::FileStateName(entry->state())).c_str(),
                  static_cast<unsigned long long>(entry->version));
    }
  }(alice, bob, server, alice_fs));

  simulator.Run();
  std::printf("\nSimulation finished at t=%.3fs\n", sim::ToSeconds(simulator.Now()));
  return 0;
}
