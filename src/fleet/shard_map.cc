#include "src/fleet/shard_map.h"

#include <variant>

#include "src/base/check.h"

namespace fleet {
namespace {

// The routing handle of each NFS request; every other request is not
// routable.
struct RouteVisitor {
  const ShardMap& map;
  template <typename Req>
  base::Result<int> operator()(const Req&) const {
    return base::ErrInval();
  }
  base::Result<int> operator()(const proto::GetAttrReq& r) const {
    return map.ShardForHandle(r.fh);
  }
  base::Result<int> operator()(const proto::SetAttrReq& r) const {
    return map.ShardForHandle(r.fh);
  }
  base::Result<int> operator()(const proto::LookupReq& r) const {
    return map.ShardForHandle(r.dir);
  }
  base::Result<int> operator()(const proto::ReadReq& r) const {
    return map.ShardForHandle(r.fh);
  }
  base::Result<int> operator()(const proto::WriteReq& r) const {
    return map.ShardForHandle(r.fh);
  }
  base::Result<int> operator()(const proto::CreateReq& r) const {
    return map.ShardForHandle(r.dir);
  }
  base::Result<int> operator()(const proto::RemoveReq& r) const {
    return map.ShardForHandle(r.dir);
  }
  base::Result<int> operator()(const proto::RenameReq& r) const {
    ASSIGN_OR_RETURN(int from, map.ShardForHandle(r.from_dir));
    ASSIGN_OR_RETURN(int to, map.ShardForHandle(r.to_dir));
    if (from != to) {
      return base::ErrXDev();  // cross-shard rename is not one operation
    }
    return from;
  }
  base::Result<int> operator()(const proto::MkdirReq& r) const {
    return map.ShardForHandle(r.dir);
  }
  base::Result<int> operator()(const proto::RmdirReq& r) const {
    return map.ShardForHandle(r.dir);
  }
  base::Result<int> operator()(const proto::ReadDirReq& r) const {
    return map.ShardForHandle(r.dir);
  }
};

}  // namespace

void ShardMap::AddShard(Shard shard) {
  CHECK_EQ(shard.id, static_cast<int>(shards_.size()));  // dense, in order
  for (const Shard& existing : shards_) {
    CHECK(existing.prefix != shard.prefix);
    CHECK(existing.fsid != shard.fsid);
  }
  shards_.push_back(std::move(shard));
}

const Shard& ShardMap::shard(int id) const {
  CHECK_GE(id, 0);
  CHECK_LT(id, num_shards());
  return shards_[static_cast<size_t>(id)];
}

base::Result<int> ShardMap::ShardForHandle(proto::FileHandle fh) const {
  for (const Shard& s : shards_) {
    if (s.fsid == fh.fsid) {
      return s.id;
    }
  }
  return base::ErrStale();
}

base::Result<int> ShardForRequest(const ShardMap& map, const proto::Request& request) {
  return std::visit(RouteVisitor{map}, request);
}

}  // namespace fleet
