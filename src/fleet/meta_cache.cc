#include "src/fleet/meta_cache.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace fleet {
namespace {

// A file's version for floor/guard purposes. LocalFs bumps mtime on data
// mutations and ctime on attribute mutations, so the max is monotone across
// every mutation kind.
uint64_t VersionOf(const proto::Attr& attr) {
  return static_cast<uint64_t>(std::max(attr.mtime, attr.ctime));
}

std::string FileArgs(proto::FileHandle fh, uint64_t version) {
  return "fsid=" + std::to_string(fh.fsid) + " file=" + std::to_string(fh.fileid) +
         " v=" + std::to_string(version);
}

std::string AttrFillKey(proto::FileHandle fh) {
  return "a:" + std::to_string(fh.fsid) + ":" + std::to_string(fh.fileid) + ":" +
         std::to_string(fh.gen);
}

std::string LookupFillKey(proto::FileHandle dir, const std::string& name) {
  return "l:" + std::to_string(dir.fsid) + ":" + std::to_string(dir.fileid) + ":" +
         std::to_string(dir.gen) + ":" + name;
}

}  // namespace

MetaCache::MetaCache(sim::Simulator& simulator, net::Network& network, std::string name,
                     ShardMap shards, MetaCacheParams params)
    : simulator_(simulator),
      name_(std::move(name)),
      shards_(std::move(shards)),
      params_(params),
      cpu_(simulator) {
  CHECK_GT(shards_.num_shards(), 0);
  CHECK_GT(params_.max_entries, 0u);
  peer_ = std::make_unique<rpc::Peer>(simulator_, network, cpu_, name_, params_.peer);
  peer_->set_handler([this](proto::Request request, net::Address from) {
    return Handle(std::move(request), from);
  });
  peer_->set_router([this](const proto::Request& request) { return Route(request); });
}

std::optional<net::Address> MetaCache::Route(const proto::Request& request) {
  proto::OpKind kind = proto::KindOf(request);
  if (kind != proto::OpKind::kRead && kind != proto::OpKind::kReadDir) {
    return std::nullopt;
  }
  base::Result<int> shard = ShardForRequest(shards_, request);
  if (!shard.ok()) {
    return std::nullopt;  // Handle() forwards it and replies with the error
  }
  ++forwarded_;
  return shards_.shard(*shard).address;
}

void MetaCache::Start() { peer_->Start(); }

sim::Task<proto::Reply> MetaCache::Handle(proto::Request request, net::Address from) {
  (void)from;
  switch (proto::KindOf(request)) {
    case proto::OpKind::kNull:
      co_return proto::OkReply(proto::NullRep{});
    case proto::OpKind::kGetAttr: {
      proto::FileHandle fh = std::get<proto::GetAttrReq>(request).fh;
      auto it = attrs_.find(fh);
      if (it != attrs_.end()) {
        ++attr_hits_;
        TouchAttr(it);
        proto::Attr attr = it->second.attr;
        TRACE_INSTANT("fleet.meta_serve", host(), FileArgs(fh, VersionOf(attr)) + " src=attr");
        co_return proto::OkReply(proto::AttrRep{attr});
      }
      co_return co_await MissFill(AttrFillKey(fh), std::move(request));
    }
    case proto::OpKind::kLookup: {
      const auto& req = std::get<proto::LookupReq>(request);
      auto bound = lookups_.find(NameKey{req.dir, req.name});
      if (bound != lookups_.end()) {
        auto attr_it = attrs_.find(bound->second.child);
        if (attr_it != attrs_.end()) {
          ++lookup_hits_;
          proto::FileHandle child = bound->second.child;
          lookup_lru_.splice(lookup_lru_.end(), lookup_lru_, bound->second.lru);
          TouchAttr(attr_it);
          proto::Attr attr = attr_it->second.attr;
          TRACE_INSTANT("fleet.meta_serve", host(),
                        FileArgs(child, VersionOf(attr)) + " src=lookup");
          co_return proto::OkReply(proto::LookupRep{child, attr});
        }
      }
      std::string key = LookupFillKey(req.dir, req.name);
      co_return co_await MissFill(std::move(key), std::move(request));
    }
    case proto::OpKind::kMetaInval: {
      ApplyInval(std::get<proto::MetaInvalReq>(request));
      co_return proto::OkReply(proto::MetaInvalRep{});
    }
    default:
      co_return co_await Forward(std::move(request));
  }
}

sim::Task<proto::Reply> MetaCache::MissFill(std::string key, proto::Request request) {
  auto found = inflight_.find(key);
  if (found != inflight_.end()) {
    // Someone is already filling this key: park behind their RPC instead of
    // duplicating it — the Fletch-style storm absorption. The future's
    // shared state outlives the map entry, so the leader erasing the key
    // cannot strand a parked joiner.
    ++coalesced_;
    sim::Future<proto::Reply> fill = found->second.GetFuture();
    co_return co_await fill;
  }
  ++misses_;
  sim::Promise<proto::Reply> fill(simulator_);
  inflight_.emplace(key, fill);
  proto::Reply reply = co_await Forward(std::move(request));
  inflight_.erase(key);
  fill.Set(reply);
  co_return reply;
}

sim::Task<proto::Reply> MetaCache::Forward(proto::Request request) {
  base::Result<int> shard = ShardForRequest(shards_, request);
  if (!shard.ok()) {
    co_return proto::ErrorReply(shard.status());
  }

  AbsorbCtx ctx;
  ctx.kind = proto::KindOf(request);
  ctx.shard = *shard;
  switch (ctx.kind) {
    case proto::OpKind::kGetAttr:
      ctx.fh = std::get<proto::GetAttrReq>(request).fh;
      break;
    case proto::OpKind::kSetAttr:
      ctx.fh = std::get<proto::SetAttrReq>(request).fh;
      break;
    case proto::OpKind::kWrite:
      ctx.fh = std::get<proto::WriteReq>(request).fh;
      break;
    case proto::OpKind::kLookup: {
      const auto& r = std::get<proto::LookupReq>(request);
      ctx.dir = r.dir;
      ctx.name = r.name;
      break;
    }
    case proto::OpKind::kCreate: {
      const auto& r = std::get<proto::CreateReq>(request);
      ctx.dir = r.dir;
      ctx.name = r.name;
      break;
    }
    case proto::OpKind::kMkdir: {
      const auto& r = std::get<proto::MkdirReq>(request);
      ctx.dir = r.dir;
      ctx.name = r.name;
      break;
    }
    case proto::OpKind::kRemove: {
      const auto& r = std::get<proto::RemoveReq>(request);
      ctx.dir = r.dir;
      ctx.name = r.name;
      break;
    }
    case proto::OpKind::kRmdir: {
      const auto& r = std::get<proto::RmdirReq>(request);
      ctx.dir = r.dir;
      ctx.name = r.name;
      break;
    }
    case proto::OpKind::kRename: {
      const auto& r = std::get<proto::RenameReq>(request);
      ctx.dir = r.from_dir;
      ctx.name = r.from_name;
      ctx.dir2 = r.to_dir;
      ctx.name2 = r.to_name;
      break;
    }
    default:
      break;
  }

  net::Address dst = shards_.shard(*shard).address;
  ++forwarded_;
  base::Result<proto::Reply> reply = co_await peer_->Call(dst, std::move(request));
  if (!reply.ok()) {
    co_return proto::ErrorReply(reply.status());
  }
  if (reply->status.ok()) {
    Absorb(ctx, *reply);
  }
  co_return *std::move(reply);
}

void MetaCache::Absorb(const AbsorbCtx& ctx, const proto::Reply& reply) {
  switch (ctx.kind) {
    case proto::OpKind::kGetAttr: {
      if (const auto* rep = std::get_if<proto::AttrRep>(&reply.body)) {
        InsertGuarded(ctx.fh, rep->attr);
      }
      break;
    }
    case proto::OpKind::kLookup: {
      if (const auto* rep = std::get_if<proto::LookupRep>(&reply.body)) {
        InsertGuarded(rep->fh, rep->attr);
        BindName(ctx.dir, ctx.name, rep->fh);
      }
      break;
    }
    case proto::OpKind::kWrite:
    case proto::OpKind::kSetAttr: {
      // The linearization point for fleet mutations: the shard has applied
      // the mutation and its reply is passing through the cache.
      if (const auto* rep = std::get_if<proto::AttrRep>(&reply.body)) {
        Commit(ctx.fh, rep->attr, ctx.shard);
      }
      break;
    }
    case proto::OpKind::kCreate:
    case proto::OpKind::kMkdir: {
      if (const auto* rep = std::get_if<proto::CreateRep>(&reply.body)) {
        Commit(rep->fh, rep->attr, ctx.shard);
        BindName(ctx.dir, ctx.name, rep->fh);
        // The parent's mtime changed and the reply does not carry the new
        // value; drop the parent's attrs and let a later getattr refill.
        DropAttr(ctx.dir);
      }
      break;
    }
    case proto::OpKind::kRemove:
    case proto::OpKind::kRmdir: {
      DropName(NameKey{ctx.dir, ctx.name}, /*drop_child_attr=*/true);
      DropAttr(ctx.dir);
      break;
    }
    case proto::OpKind::kRename: {
      DropName(NameKey{ctx.dir, ctx.name}, /*drop_child_attr=*/false);
      DropName(NameKey{ctx.dir2, ctx.name2}, /*drop_child_attr=*/true);
      DropAttr(ctx.dir);
      DropAttr(ctx.dir2);
      break;
    }
    default:
      break;
  }
}

void MetaCache::ApplyInval(const proto::MetaInvalReq& req) {
  ++invalidations_;
  for (proto::FileHandle fh : req.handles) {
    DropAttr(fh);
  }
  for (const proto::MetaInvalEntry& entry : req.entries) {
    DropName(NameKey{entry.dir, entry.name}, /*drop_child_attr=*/false);
  }
  if (req.drop_all) {
    attrs_.clear();
    attr_lru_.clear();
    lookups_.clear();
    lookup_lru_.clear();
    // Floors survive: they are safety information, not cached data.
  }
  TRACE_INSTANT("fleet.meta_inval", host(),
                "handles=" + std::to_string(req.handles.size()) +
                    " entries=" + std::to_string(req.entries.size()) +
                    " drop_all=" + std::to_string(req.drop_all ? 1 : 0));
}

void MetaCache::InsertGuarded(proto::FileHandle fh, const proto::Attr& attr) {
  uint64_t version = VersionOf(attr);
  if (version < Floor(fh)) {
    // An in-flight fill raced a mutation: the reply predates the committed
    // floor, so admitting it would serve stale metadata.
    ++stale_fills_rejected_;
    return;
  }
  auto it = attrs_.find(fh);
  if (it != attrs_.end()) {
    if (version < VersionOf(it->second.attr)) {
      ++stale_fills_rejected_;
      return;
    }
    it->second.attr = attr;
    TouchAttr(it);
    return;
  }
  if (attrs_.size() >= params_.max_entries) {
    proto::FileHandle coldest = attr_lru_.front();
    attr_lru_.pop_front();
    attrs_.erase(coldest);
    ++evictions_;
  }
  attr_lru_.push_back(fh);
  attrs_.emplace(fh, AttrEntry{attr, std::prev(attr_lru_.end())});
}

void MetaCache::Commit(proto::FileHandle fh, const proto::Attr& attr, int shard) {
  uint64_t version = VersionOf(attr);
  RaiseFloor(fh, version);
  InsertGuarded(fh, attr);
  TRACE_INSTANT("fleet.commit", host(),
                FileArgs(fh, version) + " shard=" + std::to_string(shard));
}

void MetaCache::DropAttr(proto::FileHandle fh) {
  auto it = attrs_.find(fh);
  if (it == attrs_.end()) {
    return;
  }
  attr_lru_.erase(it->second.lru);
  attrs_.erase(it);
}

void MetaCache::BindName(proto::FileHandle dir, std::string name, proto::FileHandle child) {
  NameKey key{dir, std::move(name)};
  auto it = lookups_.find(key);
  if (it != lookups_.end()) {
    it->second.child = child;
    lookup_lru_.splice(lookup_lru_.end(), lookup_lru_, it->second.lru);
    return;
  }
  if (lookups_.size() >= params_.max_entries) {
    NameKey coldest = lookup_lru_.front();
    lookup_lru_.pop_front();
    lookups_.erase(coldest);
    ++evictions_;
  }
  lookup_lru_.push_back(key);
  lookups_.emplace(std::move(key), LookupEntry{child, std::prev(lookup_lru_.end())});
}

void MetaCache::DropName(const NameKey& key, bool drop_child_attr) {
  auto it = lookups_.find(key);
  if (it == lookups_.end()) {
    return;
  }
  if (drop_child_attr) {
    DropAttr(it->second.child);
  }
  lookup_lru_.erase(it->second.lru);
  lookups_.erase(it);
}

void MetaCache::RaiseFloor(proto::FileHandle fh, uint64_t version) {
  auto it = floors_.find(fh);
  if (it != floors_.end()) {
    if (version > it->second) {
      it->second = version;
    }
    return;
  }
  if (floors_.size() >= 4 * params_.max_entries) {
    floors_.erase(floor_order_.front());
    floor_order_.pop_front();
  }
  floors_.emplace(fh, version);
  floor_order_.push_back(fh);
}

uint64_t MetaCache::Floor(proto::FileHandle fh) const {
  auto it = floors_.find(fh);
  return it == floors_.end() ? 0 : it->second;
}

void MetaCache::TouchAttr(
    std::unordered_map<proto::FileHandle, AttrEntry, proto::FileHandleHash>::iterator it) {
  attr_lru_.splice(attr_lru_.end(), attr_lru_, it->second.lru);
}

}  // namespace fleet
