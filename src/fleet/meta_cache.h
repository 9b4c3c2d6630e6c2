// fleet::MetaCache — an in-network metadata cache in front of a shard fleet,
// in the spirit of Fletch's in-switch caching (PAPERS.md): the machine sits
// on the network path between NFS clients and the shard servers, answers
// getattr and lookup from a bounded versioned cache, passes every mutation
// through to the owning shard (routed by the ShardMap), and routes reads
// and readdirs around itself.
//
// Mutations stay interposed, which makes the cache coherent by
// construction: clients mount the shards with the cache's address as the
// server address, so every mutation's reply passes through the cache — the
// cache raises that file's committed floor and refreshes (or drops) the
// affected entries before the client ever sees the reply. A getattr/lookup
// miss is forwarded once and its reply is admitted only if it is not older
// than the committed floor, which closes the race where an in-flight miss
// reply would otherwise re-install pre-mutation attributes. Concurrent
// misses for the same key coalesce behind one forwarded RPC.
//
// Reads and readdirs take the direct path (direct server return): the
// peer's router re-sends the request to the owning shard unchanged, with
// the client as reply-to, and the shard replies to the client directly, so
// each data byte crosses the wire once instead of twice. The forward takes
// no worker and charges no tier CPU: a switch forwards at line rate, and
// the per-call cost models the tier's metadata work. Reads mutate nothing,
// so the tier needs neither their replies nor any state for them, and the
// committed floors are untouched. Tier attributes are refreshed only by
// fills and mutation commits, not by the attributes a read reply carries;
// on perfbench's fleet load every rejection `stale_fills_rejected` counted
// was such a read-reply refresh, and the count fell from 72 to 0. Writes
// stay interposed: their replies are the tier's linearization point, and
// most of a write's latency is the shard's synchronous disk, not the extra
// hop.
//
// The cache is NFS-only: SNFS/NQNFS servers address callbacks and leases to
// the network peer they saw the open/lease request from, which would be the
// cache, breaking the callback channel. (Those protocols carry their own
// consistency state and do not need the tier — it exists to absorb NFS's
// per-open getattr probe and lookup storms.)
//
// Versions are (mtime, ctime) reduced to max(mtime, ctime): LocalFs bumps
// one of the two on every mutation, so the floor is monotone per file.
// Trace hooks (`fleet.commit` on mutation replies, `fleet.meta_serve` on
// cache hits) feed the shard-aware stale-read rule in trace::Checker.
#ifndef SRC_FLEET_META_CACHE_H_
#define SRC_FLEET_META_CACHE_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fleet/shard_map.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/cpu.h"
#include "src/sim/future.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace fleet {

struct MetaCacheParams {
  // Switch-resident: per-call costs far below a full server's RPC stack.
  rpc::PeerOptions peer{
      .num_workers = 16,
      .costs = {.client_per_call = sim::Usec(30),
                .server_per_call = sim::Usec(30),
                .per_kb = sim::Usec(20)},
      .default_call = {},
      .dup_cache_entries = 1024};
  // Bound for each of the attribute and name-binding tables (LRU eviction).
  size_t max_entries = 4096;
};

class MetaCache {
 public:
  MetaCache(sim::Simulator& simulator, net::Network& network, std::string name,
            ShardMap shards, MetaCacheParams params = {});

  MetaCache(const MetaCache&) = delete;
  MetaCache& operator=(const MetaCache&) = delete;

  // Bring the RPC endpoint (receive loop + worker pool) up.
  void Start();

  net::Address address() const { return peer_->address(); }
  rpc::Peer& peer() { return *peer_; }
  sim::Cpu& cpu() { return cpu_; }
  const ShardMap& shards() const { return shards_; }
  const std::string& name() const { return name_; }

  // Statistics.
  uint64_t attr_hits() const { return attr_hits_; }
  uint64_t lookup_hits() const { return lookup_hits_; }
  uint64_t hits() const { return attr_hits_ + lookup_hits_; }
  uint64_t misses() const { return misses_; }        // forwarded fill RPCs
  uint64_t coalesced() const { return coalesced_; }  // joins on in-flight fills
  uint64_t forwarded() const { return forwarded_; }  // pass-through and routed RPCs
  uint64_t evictions() const { return evictions_; }
  uint64_t invalidations() const { return invalidations_; }
  uint64_t stale_fills_rejected() const { return stale_fills_rejected_; }
  size_t attr_entries() const { return attrs_.size(); }
  size_t lookup_entries() const { return lookups_.size(); }

 private:
  struct AttrEntry {
    proto::Attr attr;
    std::list<proto::FileHandle>::iterator lru;
  };

  struct NameKey {
    proto::FileHandle dir;
    std::string name;
    friend bool operator==(const NameKey&, const NameKey&) = default;
  };
  struct NameKeyHash {
    size_t operator()(const NameKey& k) const {
      return proto::FileHandleHash()(k.dir) * 1315423911ULL ^ std::hash<std::string>()(k.name);
    }
  };
  struct LookupEntry {
    proto::FileHandle child;
    std::list<NameKey>::iterator lru;
  };

  // Everything Absorb() needs from a request, captured before the request
  // is moved into the forwarded Call.
  struct AbsorbCtx {
    proto::OpKind kind = proto::OpKind::kNull;
    int shard = -1;
    proto::FileHandle fh;   // target of getattr/write/setattr
    proto::FileHandle dir;  // parent of lookup/create/remove/mkdir/rmdir/rename-from
    proto::FileHandle dir2; // rename-to parent
    std::string name;
    std::string name2;      // rename-to name
  };

  // The peer's router: read and readdir go straight to the owning shard,
  // which replies to the client directly.
  std::optional<net::Address> Route(const proto::Request& request);
  sim::Task<proto::Reply> Handle(proto::Request request, net::Address from);
  // Miss path for getattr/lookup: coalesce on `key`, forward once.
  sim::Task<proto::Reply> MissFill(std::string key, proto::Request request);
  // Route to the owning shard, forward, and absorb the reply into the cache.
  sim::Task<proto::Reply> Forward(proto::Request request);

  void Absorb(const AbsorbCtx& ctx, const proto::Reply& reply);
  void ApplyInval(const proto::MetaInvalReq& req);

  // Cache maintenance (all synchronous; never called across a suspension).
  void InsertGuarded(proto::FileHandle fh, const proto::Attr& attr);
  void Commit(proto::FileHandle fh, const proto::Attr& attr, int shard);
  void DropAttr(proto::FileHandle fh);
  void BindName(proto::FileHandle dir, std::string name, proto::FileHandle child);
  void DropName(const NameKey& key, bool drop_child_attr);
  void RaiseFloor(proto::FileHandle fh, uint64_t version);
  uint64_t Floor(proto::FileHandle fh) const;
  void TouchAttr(std::unordered_map<proto::FileHandle, AttrEntry,
                                    proto::FileHandleHash>::iterator it);

  int host() const { return peer_->address().host; }

  sim::Simulator& simulator_;
  std::string name_;
  ShardMap shards_;
  MetaCacheParams params_;
  sim::Cpu cpu_;
  std::unique_ptr<rpc::Peer> peer_;

  // Attribute cache: fh -> attrs, LRU-bounded at params_.max_entries.
  std::unordered_map<proto::FileHandle, AttrEntry, proto::FileHandleHash> attrs_;
  std::list<proto::FileHandle> attr_lru_;  // front = coldest

  // Name-binding cache: (dir, name) -> child fh, LRU-bounded likewise.
  std::unordered_map<NameKey, LookupEntry, NameKeyHash> lookups_;
  std::list<NameKey> lookup_lru_;  // front = coldest

  // Committed floors: the highest mutation version seen per file. Floors
  // outlive cache entries (they guard re-insertion) and are bounded FIFO at
  // 4x max_entries; evicting a floor only widens a race the checker watches.
  std::unordered_map<proto::FileHandle, uint64_t, proto::FileHandleHash> floors_;
  std::deque<proto::FileHandle> floor_order_;

  // One promise per in-flight cache fill; concurrent misses for the same
  // key await the leader's future instead of duplicating its shard RPC
  // (the Fletch-style storm absorption).
  std::unordered_map<std::string, sim::Promise<proto::Reply>> inflight_;

  uint64_t attr_hits_ = 0;
  uint64_t lookup_hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t forwarded_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t stale_fills_rejected_ = 0;
};

}  // namespace fleet

#endif  // SRC_FLEET_META_CACHE_H_
