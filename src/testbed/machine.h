// Testbed: simulated machines wired onto a shared network.
//
// A ClientMachine bundles CPU, RPC endpoint, buffer cache, VFS, and an
// optional local disk; helpers mount NFS/SNFS/NQNFS/local file systems and
// route incoming callbacks (SNFS and NQNFS share the channel) to the mount
// of the server that sent them. A ServerMachine bundles CPU, disk,
// LocalFs, and an NFS, SNFS, or NQNFS server.
//
// Default parameters approximate the paper's testbed: Titan-class CPUs,
// a 10 Mbit/s Ethernet, RA81-class disks, a 16 MB client cache and a
// 3.5 MB server cache, 4 KB blocks.
#ifndef SRC_TESTBED_MACHINE_H_
#define SRC_TESTBED_MACHINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk.h"
#include "src/fs/local_fs.h"
#include "src/fs/local_mount.h"
#include "src/net/network.h"
#include "src/nfs/client.h"
#include "src/nfs/server.h"
#include "src/nqnfs/client.h"
#include "src/nqnfs/server.h"
#include "src/rpc/peer.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/snfs/client.h"
#include "src/snfs/server.h"
#include "src/vfs/vfs.h"

namespace testbed {

struct ClientMachineParams {
  cache::BufferCacheParams cache;  // 16 MB default
  bool with_local_disk = true;
};

class ClientMachine {
 public:
  ClientMachine(sim::Simulator& simulator, net::Network& network, std::string name,
                ClientMachineParams params = {});

  ClientMachine(const ClientMachine&) = delete;
  ClientMachine& operator=(const ClientMachine&) = delete;

  // Mount helpers. Each returns the created client for metric access.
  nfs::NfsClient& MountNfs(const std::string& path, net::Address server,
                           proto::FileHandle root_fh, nfs::NfsClientParams params = {});
  snfs::SnfsClient& MountSnfs(const std::string& path, net::Address server,
                              proto::FileHandle root_fh, snfs::SnfsClientParams params = {});
  nqnfs::NqnfsClient& MountNqnfs(const std::string& path, net::Address server,
                                 proto::FileHandle root_fh);
  fs::LocalMount& MountLocal(const std::string& path);

  // Bring daemons up (RPC endpoint, sync daemon, SNFS/NQNFS client daemons).
  void Start();
  // Crash simulation: drop off the network and lose all cached state.
  void Crash(net::Network& network);
  // Bring a crashed client back: rejoin the network and restart daemons
  // (the caches start cold; SNFS recovery re-asserts state with the server).
  void Restart(net::Network& network);

  sim::Simulator& simulator() { return simulator_; }
  sim::Cpu& cpu() { return cpu_; }
  rpc::Peer& peer() { return *peer_; }
  cache::BufferCache& buffer_cache() { return *cache_; }
  vfs::Vfs& vfs() { return *vfs_; }
  disk::Disk* local_disk() { return disk_.get(); }
  fs::LocalFs* local_fs() { return local_fs_.get(); }
  const std::string& name() const { return name_; }
  net::Address address() const { return peer_->address(); }
  bool started() const { return started_; }
  // Bumped on every Crash(). Lets a workload detect that the machine died
  // under an operation it had in flight: such an operation's results are
  // void — the issuing process died with the kernel — even though the
  // coroutine itself runs to completion against the reset client state.
  int crash_generation() const { return crash_generation_; }

 private:
  sim::Task<proto::Reply> HandleRequest(proto::Request request, net::Address from);

  template <typename Fs>
  Fs& AddMount(const std::string& path, std::unique_ptr<Fs> fs) {
    Fs& ref = *fs;
    vfs_->Mount(path, fs.get());
    mounts_.push_back(std::move(fs));
    return ref;
  }
  // A mount whose server calls back: it gets its callbacks routed to it,
  // and its daemons run while the machine is up.
  template <typename Client>
  Client& AddCallbackMount(const std::string& path, std::unique_ptr<Client> client) {
    Client& ref = AddMount(path, std::move(client));
    callback_mounts_.push_back(&ref);
    if (started_) {
      ref.Start();
    }
    return ref;
  }

  sim::Simulator& simulator_;
  std::string name_;
  sim::Cpu cpu_;
  std::unique_ptr<rpc::Peer> peer_;
  std::unique_ptr<cache::BufferCache> cache_;
  std::unique_ptr<vfs::Vfs> vfs_;
  std::unique_ptr<disk::Disk> disk_;
  std::unique_ptr<fs::LocalFs> local_fs_;
  std::vector<std::unique_ptr<vfs::FileSystem>> mounts_;
  std::vector<snfs::CachingClient*> callback_mounts_;  // SNFS and NQNFS mounts
  bool started_ = false;
  int crash_generation_ = 0;
};

enum class ServerProtocol { kNfs, kSnfs, kNqnfs };

struct ServerMachineParams {
  fs::LocalFsParams fs{.fsid = 1, .cache_blocks = 896};  // 3.5 MB server cache
  snfs::SnfsServerParams snfs;  // used when protocol == kSnfs
};

class ServerMachine {
 public:
  ServerMachine(sim::Simulator& simulator, net::Network& network, std::string name,
                ServerProtocol protocol, ServerMachineParams params = {});

  ServerMachine(const ServerMachine&) = delete;
  ServerMachine& operator=(const ServerMachine&) = delete;

  void Start();

  // Crash + reboot support (SNFS recovery experiments).
  void Crash(net::Network& network);
  void Reboot(net::Network& network);

  sim::Simulator& simulator() { return simulator_; }
  sim::Cpu& cpu() { return cpu_; }
  rpc::Peer& peer() { return *peer_; }
  disk::Disk& disk() { return disk_; }
  fs::LocalFs& fs() { return *fs_; }
  net::Address address() const { return peer_->address(); }
  proto::FileHandle root() const { return fs_->root(); }
  // The protocol's server, or nullptr when the machine serves another.
  snfs::SnfsServer* snfs_server() { return dynamic_cast<snfs::SnfsServer*>(server_.get()); }
  nqnfs::NqnfsServer* nqnfs_server() { return dynamic_cast<nqnfs::NqnfsServer*>(server_.get()); }

 private:
  sim::Simulator& simulator_;
  std::string name_;
  sim::Cpu cpu_;
  disk::Disk disk_;
  std::unique_ptr<fs::LocalFs> fs_;
  std::unique_ptr<rpc::Peer> peer_;
  std::unique_ptr<nfs::NfsServer> server_;
};

}  // namespace testbed

#endif  // SRC_TESTBED_MACHINE_H_
