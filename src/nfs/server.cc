#include "src/nfs/server.h"

#include <utility>

namespace nfs {
namespace {

template <typename T>
proto::Reply FromResult(base::Result<T> result) {
  if (!result.ok()) {
    return proto::ErrorReply(result.status());
  }
  return proto::OkReply(std::move(*result));
}

proto::Reply FromStatus(base::Result<void> result) {
  if (!result.ok()) {
    return proto::ErrorReply(result.status());
  }
  return proto::OkReply(proto::NullRep{});
}

}  // namespace

NfsServer::NfsServer(fs::LocalFs& fs, rpc::Peer& peer) : fs_(fs), peer_(peer) {
  peer_.set_handler([this](proto::Request request, net::Address from) {
    return Handle(std::move(request), from);
  });
}

sim::Task<proto::Reply> NfsServer::Handle(proto::Request request, net::Address from) {
  switch (proto::KindOf(request)) {
    case proto::OpKind::kNull:
      co_return proto::OkReply(proto::NullRep{});
    case proto::OpKind::kGetAttr: {
      const auto& req = std::get<proto::GetAttrReq>(request);
      auto attr = fs_.GetAttr(req.fh);
      if (!attr.ok()) {
        co_return proto::ErrorReply(attr.status());
      }
      co_return proto::OkReply(proto::AttrRep{*attr});
    }
    case proto::OpKind::kSetAttr: {
      const auto& req = std::get<proto::SetAttrReq>(request);
      auto attr = co_await fs_.SetAttr(req.fh, req);
      if (!attr.ok()) {
        co_return proto::ErrorReply(attr.status());
      }
      co_return proto::OkReply(proto::AttrRep{*attr});
    }
    case proto::OpKind::kLookup: {
      const auto& req = std::get<proto::LookupReq>(request);
      co_return FromResult(co_await fs_.Lookup(req.dir, req.name));
    }
    case proto::OpKind::kRead: {
      const auto& req = std::get<proto::ReadReq>(request);
      co_return FromResult(co_await fs_.Read(req.fh, req.offset, req.count));
    }
    case proto::OpKind::kWrite: {
      auto& req = std::get<proto::WriteReq>(request);
      // Stateless-server requirement: data reaches stable storage before
      // the reply goes out.
      auto attr = co_await fs_.Write(req.fh, req.offset, std::move(req.data),
                                     fs::LocalFs::WriteMode::kSync);
      if (!attr.ok()) {
        co_return proto::ErrorReply(attr.status());
      }
      co_return proto::OkReply(proto::AttrRep{*attr});
    }
    case proto::OpKind::kCreate: {
      const auto& req = std::get<proto::CreateReq>(request);
      co_return FromResult(co_await fs_.Create(req.dir, req.name, req.exclusive));
    }
    case proto::OpKind::kRemove: {
      const auto& req = std::get<proto::RemoveReq>(request);
      co_return FromStatus(co_await fs_.Remove(req.dir, req.name));
    }
    case proto::OpKind::kRename: {
      const auto& req = std::get<proto::RenameReq>(request);
      co_return FromStatus(
          co_await fs_.Rename(req.from_dir, req.from_name, req.to_dir, req.to_name));
    }
    case proto::OpKind::kMkdir: {
      const auto& req = std::get<proto::MkdirReq>(request);
      co_return FromResult(co_await fs_.Mkdir(req.dir, req.name));
    }
    case proto::OpKind::kRmdir: {
      const auto& req = std::get<proto::RmdirReq>(request);
      co_return FromStatus(co_await fs_.Rmdir(req.dir, req.name));
    }
    case proto::OpKind::kReadDir: {
      const auto& req = std::get<proto::ReadDirReq>(request);
      co_return FromResult(co_await fs_.ReadDir(req.dir, req.cookie, req.count));
    }
    default:
      // open/close/callback/ping/reopen are SNFS vocabulary; "a hybrid
      // client could distinguish between SNFS and NFS servers, since the
      // latter will reject an open operation" (§6.1).
      co_return proto::ErrorReply(base::ErrNotSupported());
  }
}

}  // namespace nfs
