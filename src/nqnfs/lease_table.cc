#include "src/nqnfs/lease_table.h"

#include <limits>

namespace nqnfs {

Lease* LeaseTable::Find(uint64_t fileid, int host) {
  auto it = leases_.find(LeaseKey{fileid, host});
  return it == leases_.end() ? nullptr : &it->second;
}

void LeaseTable::Put(uint64_t fileid, int host, Lease lease) {
  leases_[LeaseKey{fileid, host}] = lease;
}

bool LeaseTable::Erase(uint64_t fileid, int host) {
  return leases_.erase(LeaseKey{fileid, host}) > 0;
}

std::vector<std::pair<LeaseKey, Lease>> LeaseTable::Expired(sim::Time now) const {
  std::vector<std::pair<LeaseKey, Lease>> out;
  for (const auto& [key, lease] : leases_) {
    if (lease.expires <= now) {
      out.emplace_back(key, lease);
    }
  }
  return out;
}

std::vector<std::pair<LeaseKey, Lease>> LeaseTable::HoldersOf(uint64_t fileid) const {
  std::vector<std::pair<LeaseKey, Lease>> out;
  for (auto it = leases_.lower_bound(LeaseKey{fileid, std::numeric_limits<int>::min()});
       it != leases_.end(); ++it) {
    if (it->first.fileid != fileid) {
      break;
    }
    out.emplace_back(it->first, it->second);
  }
  return out;
}

}  // namespace nqnfs
