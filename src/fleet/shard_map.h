// fleet::ShardMap — the routing contract for a sharded server fleet.
//
// One logical namespace ("/data") is partitioned across N ServerMachines by
// mount-table prefixes: shard k exports its tree under a path prefix (e.g.
// "/data/s2") and owns one fsid. Each client mounts every shard at its
// prefix, so a path is routed by the client's vfs mount table; a request is
// routed by handle — proto::FileHandle carries the owning shard's fsid,
// which makes every RPC routable without consulting the namespace again.
//
// The map is a value type: the testbed builds one while wiring a fleet rig
// and hands copies to whoever routes (clients, the meta-cache tier).
// Cross-shard renames cannot be one namespace operation; routing them
// reports base::ErrXDev() rather than silently picking one of the shards.
#ifndef SRC_FLEET_SHARD_MAP_H_
#define SRC_FLEET_SHARD_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/proto/types.h"

namespace fleet {

struct Shard {
  int id = -1;                 // dense, 0..num_shards-1
  std::string prefix;          // namespace prefix, e.g. "/data/s0"
  uint64_t fsid = 0;           // fsid of the shard's exported file system
  net::Address address;        // the shard server's RPC endpoint
  proto::FileHandle root;      // handle of the exported directory
};

class ShardMap {
 public:
  // Shards must be added with dense ids in order (0, 1, 2, ...) and with
  // distinct prefixes and fsids; violations are programming errors.
  void AddShard(Shard shard);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const Shard& shard(int id) const;

  // Route for a file handle by owning fsid. kStale if no shard owns it —
  // the handle refers to a file system this fleet does not serve.
  base::Result<int> ShardForHandle(proto::FileHandle fh) const;

 private:
  std::vector<Shard> shards_;  // index == id
};

// Extracts the routing handle from an NFS request and routes it. Rename
// routes both directories and reports kXDev when they live on different
// shards. Every other request — null, ping, the tier's own metainval, and
// the SNFS and NQNFS extensions the NFS-only tier never carries — is not
// routable and reports kInval.
base::Result<int> ShardForRequest(const ShardMap& map, const proto::Request& request);

}  // namespace fleet

#endif  // SRC_FLEET_SHARD_MAP_H_
