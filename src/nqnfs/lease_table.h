// LeaseTable: the NQNFS server's per-(file, host) Gray/Cheriton leases
// (SNIPPETS.md, freebsd 06.nfs/2.t): an expiry scan, extension on access,
// and protocol meaning attached to expiry itself.
//
// The table is deliberately passive: lookups, insertions, expiry snapshots.
// Its owner runs awaited RPCs (vacate callbacks) between table operations,
// so every mutation is explicit and the owner re-finds entries after each
// suspension point — the table never holds iterators for the caller.
// Iteration is over a std::map so scan order (and therefore the event
// queue) is deterministic.
#ifndef SRC_NQNFS_LEASE_TABLE_H_
#define SRC_NQNFS_LEASE_TABLE_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/proto/types.h"
#include "src/sim/time.h"

namespace nqnfs {

struct LeaseKey {
  uint64_t fileid = 0;
  int host = -1;
  friend auto operator<=>(const LeaseKey&, const LeaseKey&) = default;
};

struct Lease {
  proto::FileHandle fh;
  bool write = false;
  sim::Time expires = 0;
};

class LeaseTable {
 public:
  // nullptr when (fileid, host) holds no lease. The pointer is invalidated
  // by any mutation of the table — re-find after every suspension point.
  Lease* Find(uint64_t fileid, int host);

  // Insert or overwrite the lease for (fileid, host).
  void Put(uint64_t fileid, int host, Lease lease);

  bool Erase(uint64_t fileid, int host);

  // Snapshot of entries with expires <= now, in key order. Callers act on
  // the snapshot one entry at a time (erasing before any awaited follow-up,
  // so a concurrent grant for the same key is never clobbered afterwards).
  std::vector<std::pair<LeaseKey, Lease>> Expired(sim::Time now) const;

  // Every holder of a lease on `fileid`, in host order.
  std::vector<std::pair<LeaseKey, Lease>> HoldersOf(uint64_t fileid) const;

  size_t size() const { return leases_.size(); }
  void Clear() { leases_.clear(); }

 private:
  std::map<LeaseKey, Lease> leases_;
};

}  // namespace nqnfs

#endif  // SRC_NQNFS_LEASE_TABLE_H_
