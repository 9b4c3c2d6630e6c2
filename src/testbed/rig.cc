#include "src/testbed/rig.h"

namespace testbed {

std::string_view ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kLocal:
      return "local";
    case Protocol::kNfs:
      return "NFS";
    case Protocol::kSnfs:
      return "SNFS";
    case Protocol::kNqnfs:
      return "NQNFS";
  }
  return "?";
}

namespace {
ServerProtocol ServerProtocolFor(Protocol protocol) {
  switch (protocol) {
    case Protocol::kNfs:
      return ServerProtocol::kNfs;
    case Protocol::kNqnfs:
      return ServerProtocol::kNqnfs;
    default:
      return ServerProtocol::kSnfs;
  }
}
}  // namespace

std::string Rig::ShardRoot(int s) { return "/data/s" + std::to_string(s); }

Rig::Rig(RigOptions options)
    : options_(options), network_(simulator_, options.network, /*seed=*/11) {
  if (options_.fleet.active()) {
    BuildFleet();
  } else {
    BuildClassic();
  }
}

Rig::~Rig() { simulator_.ReapParked(); }

void Rig::BuildClassic() {
  bool remote = options_.protocol != Protocol::kLocal;
  if (remote) {
    servers_.push_back(std::make_unique<ServerMachine>(simulator_, network_, "server",
                                                       ServerProtocolFor(options_.protocol),
                                                       options_.server));
  }
  clients_.push_back(
      std::make_unique<ClientMachine>(simulator_, network_, "client", options_.client));

  // Carve out the exported directories before wiring any mounts.
  proto::FileHandle tmp_parent;
  if (remote) {
    simulator_.Spawn([](Rig& rig, proto::FileHandle* tmp_parent) -> sim::Task<void> {
      auto data = co_await rig.servers_[0]->fs().Mkdir(rig.servers_[0]->fs().root(), "data");
      CHECK(data.ok());
      rig.data_parent_ = data->fh;
      auto tmp = co_await rig.servers_[0]->fs().Mkdir(rig.servers_[0]->fs().root(), "tmp");
      CHECK(tmp.ok());
      *tmp_parent = tmp->fh;
    }(*this, &tmp_parent));
    simulator_.Run();
  }

  // /local: the client's own disk, always present.
  clients_[0]->MountLocal(local_root_);

  switch (options_.protocol) {
    case Protocol::kLocal: {
      clients_[0]->MountLocal(data_root_);
      // In the local configuration /data and /local share the client disk;
      // the data tree's parent is the local fs root.
      data_parent_ = data_fs().root();
      tmp_dir_ = "/local/tmp";
      break;
    }
    case Protocol::kNfs: {
      clients_[0]->MountNfs(data_root_, servers_[0]->address(), data_parent_, options_.nfs);
      if (options_.remote_tmp) {
        clients_[0]->MountNfs("/rtmp", servers_[0]->address(), tmp_parent, options_.nfs);
        tmp_dir_ = "/rtmp";
      } else {
        tmp_dir_ = "/local/tmp";
      }
      break;
    }
    case Protocol::kSnfs: {
      clients_[0]->MountSnfs(data_root_, servers_[0]->address(), data_parent_, options_.snfs);
      if (options_.remote_tmp) {
        clients_[0]->MountSnfs("/rtmp", servers_[0]->address(), tmp_parent, options_.snfs);
        tmp_dir_ = "/rtmp";
      } else {
        tmp_dir_ = "/local/tmp";
      }
      break;
    }
    case Protocol::kNqnfs: {
      clients_[0]->MountNqnfs(data_root_, servers_[0]->address(), data_parent_);
      if (options_.remote_tmp) {
        clients_[0]->MountNqnfs("/rtmp", servers_[0]->address(), tmp_parent);
        tmp_dir_ = "/rtmp";
      } else {
        tmp_dir_ = "/local/tmp";
      }
      break;
    }
  }

  if (remote) {
    servers_[0]->Start();
  }
  clients_[0]->Start();

  // Create the local temp directory if the configuration uses one.
  if (tmp_dir_ == "/local/tmp") {
    simulator_.Spawn([](Rig& rig) -> sim::Task<void> {
      auto made = co_await rig.clients_[0]->vfs().MkdirPath("/local/tmp");
      CHECK(made.ok());
    }(*this));
    simulator_.Run();
  }
}

void Rig::BuildFleet() {
  CHECK(options_.protocol != Protocol::kLocal);  // a fleet is remote by definition
  CHECK(!options_.remote_tmp);                   // temporaries stay on the client disk
  if (options_.fleet.meta_cache) {
    CHECK(options_.protocol == Protocol::kNfs);
  }
  int shards = options_.fleet.servers;
  int num_clients = options_.fleet.clients;
  CHECK_GE(shards, 1);
  CHECK_GE(num_clients, 1);

  // Hosts attach in a fixed order — shards, then the cache, then clients —
  // so host ids (and thus trace machine ids) are deterministic.
  for (int s = 0; s < shards; ++s) {
    ServerMachineParams params = options_.server;
    params.fs.fsid = static_cast<uint32_t>(1 + s);  // fsid names the shard
    servers_.push_back(std::make_unique<ServerMachine>(
        simulator_, network_, "server" + std::to_string(s),
        ServerProtocolFor(options_.protocol), params));
  }

  // Carve each shard's exported directory before wiring any mounts.
  data_parents_.resize(static_cast<size_t>(shards));
  simulator_.Spawn([](Rig& rig) -> sim::Task<void> {
    for (size_t s = 0; s < rig.servers_.size(); ++s) {
      auto data = co_await rig.servers_[s]->fs().Mkdir(rig.servers_[s]->fs().root(), "data");
      CHECK(data.ok());
      rig.data_parents_[s] = data->fh;
    }
  }(*this));
  simulator_.Run();
  data_parent_ = data_parents_[0];

  for (int s = 0; s < shards; ++s) {
    shard_map_.AddShard(fleet::Shard{s, ShardRoot(s), servers_[static_cast<size_t>(s)]->fs().fsid(),
                                     servers_[static_cast<size_t>(s)]->address(),
                                     data_parents_[static_cast<size_t>(s)]});
  }

  if (options_.fleet.meta_cache) {
    meta_cache_ =
        std::make_unique<fleet::MetaCache>(simulator_, network_, "metacache", shard_map_);
  }

  for (int c = 0; c < num_clients; ++c) {
    clients_.push_back(std::make_unique<ClientMachine>(
        simulator_, network_, "client" + std::to_string(c), options_.client));
  }

  // Every client mounts every shard at its namespace prefix; the vfs mount
  // table's longest-prefix rule then routes by path, and the mount's root
  // handle carries the shard's fsid for handle-based routing from there on.
  tmp_dir_ = "/local/tmp";
  for (size_t c = 0; c < clients_.size(); ++c) {
    ClientMachine& client = *clients_[c];
    client.MountLocal(local_root_);
    for (int s = 0; s < shards; ++s) {
      net::Address shard_addr = servers_[static_cast<size_t>(s)]->address();
      proto::FileHandle root = data_parents_[static_cast<size_t>(s)];
      switch (options_.protocol) {
        case Protocol::kNfs: {
          // With the metadata tier the cache *is* the server as far as the
          // NFS client can tell; it routes forwards by the handles' fsid.
          net::Address target =
              meta_cache_ != nullptr ? meta_cache_->address() : shard_addr;
          client.MountNfs(ShardRoot(s), target, root, options_.nfs);
          break;
        }
        case Protocol::kSnfs:
          client.MountSnfs(ShardRoot(s), shard_addr, root, options_.snfs);
          break;
        case Protocol::kNqnfs:
          client.MountNqnfs(ShardRoot(s), shard_addr, root);
          break;
        case Protocol::kLocal:
          break;  // unreachable, checked above
      }
    }
  }

  for (size_t s = 0; s < servers_.size(); ++s) {
    servers_[s]->Start();
  }
  if (meta_cache_ != nullptr) {
    meta_cache_->Start();
  }
  for (size_t c = 0; c < clients_.size(); ++c) {
    clients_[c]->Start();
  }

  simulator_.Spawn([](Rig& rig) -> sim::Task<void> {
    for (size_t c = 0; c < rig.clients_.size(); ++c) {
      auto made = co_await rig.clients_[c]->vfs().MkdirPath("/local/tmp");
      CHECK(made.ok());
    }
  }(*this));
  simulator_.Run();
}

fs::LocalFs& Rig::data_fs() {
  if (options_.protocol == Protocol::kLocal) {
    // The client's own disk hosts the data in the local configuration.
    CHECK(clients_[0]->local_fs() != nullptr);
    return *clients_[0]->local_fs();
  }
  return servers_[0]->fs();
}

disk::Disk& Rig::served_disk() {
  if (options_.protocol == Protocol::kLocal) {
    return *clients_[0]->local_disk();
  }
  return servers_[0]->disk();
}

}  // namespace testbed
