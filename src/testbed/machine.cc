#include "src/testbed/machine.h"

#include <utility>

#include "src/trace/trace.h"

namespace testbed {
namespace {

// The client's own disk: an fsid no server uses, and no server-side cache
// (the client's buffer cache fronts it).
constexpr fs::LocalFsParams kClientLocalFs{.fsid = 9000, .cache_blocks = 0};

}  // namespace

ClientMachine::ClientMachine(sim::Simulator& simulator, net::Network& network, std::string name,
                             ClientMachineParams params)
    : simulator_(simulator), name_(std::move(name)), cpu_(simulator) {
  peer_ = std::make_unique<rpc::Peer>(simulator, network, cpu_, name_);
  cache_ = std::make_unique<cache::BufferCache>(simulator, params.cache);
  vfs_ = std::make_unique<vfs::Vfs>(simulator);
  if (params.with_local_disk) {
    disk_ = std::make_unique<disk::Disk>(simulator);
    local_fs_ = std::make_unique<fs::LocalFs>(simulator, *disk_, kClientLocalFs);
  }
  peer_->set_handler([this](proto::Request request, net::Address from) {
    return HandleRequest(std::move(request), from);
  });
}

sim::Task<proto::Reply> ClientMachine::HandleRequest(proto::Request request,
                                                     net::Address from) {
  // Client machines only serve the callback RPC (§4.2.2) — SNFS callbacks
  // and NQNFS vacates arrive over the same channel. Match the sender as
  // well as the handle: every server numbers its files from the same start,
  // so mounts of two servers can both track a handle.
  if (const auto* cb = std::get_if<proto::CallbackReq>(&request)) {
    for (snfs::CachingClient* client : callback_mounts_) {
      if (client->server() == from && client->Owns(cb->fh)) {
        co_return co_await client->HandleCallback(*cb);
      }
    }
    // No mount tracks the file (e.g. reclaimed after we dropped the node);
    // nothing to write back or invalidate.
    co_return proto::OkReply(proto::CallbackRep{});
  }
  co_return proto::ErrorReply(base::ErrNotSupported());
}

nfs::NfsClient& ClientMachine::MountNfs(const std::string& path, net::Address server,
                                        proto::FileHandle root_fh,
                                        nfs::NfsClientParams params) {
  return AddMount(path, std::make_unique<nfs::NfsClient>(simulator_, *peer_, server, root_fh,
                                                         *cache_, params));
}

snfs::SnfsClient& ClientMachine::MountSnfs(const std::string& path, net::Address server,
                                           proto::FileHandle root_fh,
                                           snfs::SnfsClientParams params) {
  return AddCallbackMount(path, std::make_unique<snfs::SnfsClient>(simulator_, *peer_, server,
                                                                   root_fh, *cache_, params));
}

nqnfs::NqnfsClient& ClientMachine::MountNqnfs(const std::string& path, net::Address server,
                                              proto::FileHandle root_fh) {
  return AddCallbackMount(path, std::make_unique<nqnfs::NqnfsClient>(simulator_, *peer_, server,
                                                                     root_fh, *cache_));
}

fs::LocalMount& ClientMachine::MountLocal(const std::string& path) {
  CHECK(local_fs_ != nullptr);
  return AddMount(path, std::make_unique<fs::LocalMount>(simulator_, *local_fs_, *cache_, &cpu_));
}

void ClientMachine::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  peer_->Start();
  cache_->Start();
  for (snfs::CachingClient* client : callback_mounts_) {
    client->Start();
  }
}

void ClientMachine::Crash(net::Network& network) {
  TRACE_INSTANT("machine.crash", address().host, "kind=client");
  network.SetHostUp(address(), false);
  peer_->Shutdown();
  for (snfs::CachingClient* client : callback_mounts_) {
    client->Crash();
  }
  cache_->Stop();
  cache_->DropAll();  // cached blocks, clean and dirty, die with the kernel
  started_ = false;
  ++crash_generation_;
}

void ClientMachine::Restart(net::Network& network) {
  TRACE_INSTANT("machine.restart", address().host, "kind=client");
  network.SetHostUp(address(), true);
  Start();
}

ServerMachine::ServerMachine(sim::Simulator& simulator, net::Network& network, std::string name,
                             ServerProtocol protocol, ServerMachineParams params)
    : simulator_(simulator), name_(std::move(name)), cpu_(simulator), disk_(simulator) {
  fs_ = std::make_unique<fs::LocalFs>(simulator, disk_, params.fs);
  peer_ = std::make_unique<rpc::Peer>(simulator, network, cpu_, name_);
  if (protocol == ServerProtocol::kNfs) {
    server_ = std::make_unique<nfs::NfsServer>(*fs_, *peer_);
  } else if (protocol == ServerProtocol::kSnfs) {
    server_ = std::make_unique<snfs::SnfsServer>(simulator, *fs_, *peer_, params.snfs);
  } else {
    server_ = std::make_unique<nqnfs::NqnfsServer>(simulator, *fs_, *peer_);
  }
}

void ServerMachine::Start() { peer_->Start(); }

void ServerMachine::Crash(net::Network& network) {
  TRACE_INSTANT("machine.crash", address().host, "kind=server");
  network.SetHostUp(address(), false);
  peer_->Shutdown();
  server_->Crash();
}

void ServerMachine::Reboot(net::Network& network) {
  TRACE_INSTANT("machine.restart", address().host, "kind=server");
  network.SetHostUp(address(), true);
  server_->Restart();
  peer_->Start();
}

}  // namespace testbed
