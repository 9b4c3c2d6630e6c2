// Rig: one benchmark configuration — a client machine, optionally a file
// server, and the mount layout the paper's tables vary:
//
//   kLocal          /data and the temp dir both on the client's local disk;
//   kNfs/kSnfs/kNqnfs
//                   /data remote; temp dir either local or remote per
//                   `remote_tmp` ("one with just the data files remotely
//                   mounted but temporary files kept locally, and the last
//                   with both data and temporary files remotely mounted").
//
// The rig always provides /local (the client's own disk) for benchmark
// inputs/outputs that are not under test.
//
// Fleet topology (src/fleet): setting RigOptions::fleet grows the rig from
// the classic one-server-one-client pair to N shard servers × M clients.
// Shard k exports its tree at "/data/s<k>" (fsid 1+k) and every client
// mounts all shards, so the vfs mount table does the client-side
// longest-prefix routing and the one logical namespace spans the fleet.
// With fleet.meta_cache (NFS only) a fleet::MetaCache is interposed on the
// network path: clients mount the shards with the cache's address as the
// server, and the cache answers getattr/lookup or forwards by fsid.
#ifndef SRC_TESTBED_RIG_H_
#define SRC_TESTBED_RIG_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fleet/meta_cache.h"
#include "src/fleet/shard_map.h"
#include "src/testbed/machine.h"

namespace testbed {

enum class Protocol { kLocal, kNfs, kSnfs, kNqnfs };

std::string_view ProtocolName(Protocol protocol);

// N-server × M-client fleet topology. The defaults (1×1, no cache) keep the
// rig on its classic single-server construction path, byte for byte.
struct FleetOptions {
  int servers = 1;
  int clients = 1;
  // Interpose a fleet::MetaCache between the clients and the shards.
  // NFS only: SNFS/NQNFS callbacks address the peer the server saw the
  // open/lease from, which would be the cache.
  bool meta_cache = false;

  bool active() const { return servers > 1 || clients > 1 || meta_cache; }
};

struct RigOptions {
  Protocol protocol = Protocol::kLocal;
  bool remote_tmp = false;  // meaningful for kNfs / kSnfs
  nfs::NfsClientParams nfs;
  snfs::SnfsClientParams snfs;
  ClientMachineParams client;
  ServerMachineParams server;
  net::NetworkParams network;  // network.faults enables link-fault injection
  FleetOptions fleet;
};

class Rig {
 public:
  explicit Rig(RigOptions options);
  // Reaps the simulator's parked frames (daemons, and any op a RunUntil
  // cut short) before the machines die, so a frame parked inside a
  // critical section releases a lock that still exists.
  ~Rig();

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Where benchmark data / temporaries should go.
  const std::string& data_root() const { return data_root_; }  // "/data"
  const std::string& tmp_dir() const { return tmp_dir_; }      // varies

  // The file system that holds /data (for out-of-band population) and the
  // directory handle /data is mounted on. In fleet mode: shard 0's.
  fs::LocalFs& data_fs();
  proto::FileHandle data_parent() const { return data_parent_; }

  sim::Simulator& simulator() { return simulator_; }
  ClientMachine& client(int i = 0) { return *clients_[static_cast<size_t>(i)]; }
  ServerMachine* server() { return servers_.empty() ? nullptr : servers_[0].get(); }
  net::Network& network() { return network_; }
  const RigOptions& options() const { return options_; }

  // RPC issued by client 0 (all zero in the local configuration).
  const metrics::OpCounters& client_rpcs() const { return clients_[0]->peer().client_ops(); }
  // Server disk counters (the client's own disk for kLocal).
  disk::Disk& served_disk();

  // --- fleet topology -------------------------------------------------------
  int num_shards() const { return static_cast<int>(servers_.size()); }
  int num_clients() const { return static_cast<int>(clients_.size()); }
  ServerMachine& shard(int s) { return *servers_[static_cast<size_t>(s)]; }
  fleet::MetaCache* meta_cache() { return meta_cache_.get(); }
  const fleet::ShardMap& shard_map() const { return shard_map_; }
  fs::LocalFs& shard_fs(int s) { return servers_[static_cast<size_t>(s)]->fs(); }
  proto::FileHandle shard_data_parent(int s) const {
    return data_parents_[static_cast<size_t>(s)];
  }
  // Namespace prefix shard s exports, "/data/s<s>".
  static std::string ShardRoot(int s);

 private:
  void BuildClassic();
  void BuildFleet();

  RigOptions options_;
  sim::Simulator simulator_;
  net::Network network_;
  std::vector<std::unique_ptr<ServerMachine>> servers_;
  std::unique_ptr<fleet::MetaCache> meta_cache_;
  std::vector<std::unique_ptr<ClientMachine>> clients_;
  fleet::ShardMap shard_map_;  // fleet mode only
  std::string data_root_ = "/data";
  std::string tmp_dir_;
  std::string local_root_ = "/local";
  proto::FileHandle data_parent_;
  std::vector<proto::FileHandle> data_parents_;  // fleet mode: per shard
};

}  // namespace testbed

#endif  // SRC_TESTBED_RIG_H_
