// Seed-sweep driver: run a small multi-client workload under a FaultPlan
// and FaultSchedule for N different seeds, asserting protocol invariants
// throughout:
//
//  * data integrity — every readable block is a uniform fill whose version
//    lies between the last fsync-committed version and the newest written
//    version of that file (single-writer files make the oracle exact);
//  * duplicate-cache bound — no peer's cache exceeds rpc::kDupCacheEntries
//    by more than the number of in-progress entries;
//  * state-table invariants — snfs::StateTable::CheckInvariants() on a
//    periodic tick (SNFS only; it CHECK-aborts on violation);
//  * no ghost replies — replies computed by a crashed server generation
//    are dropped, never sent (counted via Peer::stale_replies_dropped).
//
// Each seed gets its own simulator, network, machines, fault-injector RNG
// stream, and workload RNG streams, so a failing seed replays exactly.
#ifndef SRC_FAULT_SWEEP_H_
#define SRC_FAULT_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/plan.h"
#include "src/fault/schedule.h"
#include "src/sim/time.h"
#include "src/testbed/machine.h"

namespace fault {

// One cell of the sweep: the protocol and the faults. The workload and the
// machines are fixed (sweep.cc): two clients with no local disk, three
// files each, SNFS crash recovery on.
struct SweepOptions {
  testbed::ServerProtocol protocol = testbed::ServerProtocol::kSnfs;

  // Link faults; `plan.seed` is overridden with the sweep seed per run.
  FaultPlan plan;
  // Scripted crash/restart points, identical across seeds.
  FaultSchedule schedule;

  // Record a causal trace of the whole run and validate it with
  // trace::CheckTrace; violations fail the seed like any other invariant.
  bool trace_check = false;
};

struct SeedStats {
  uint64_t seed = 0;
  bool ok = true;
  std::string failure;  // first violated invariant, when !ok

  uint64_t ops_attempted = 0;
  uint64_t ops_ok = 0;
  uint64_t ops_failed = 0;
  uint64_t reads_verified = 0;
  uint64_t invariant_checks = 0;

  uint64_t trace_events = 0;      // events recorded (0 unless trace_check)
  uint64_t trace_violations = 0;  // checker findings (first one fails the seed)

  uint64_t retransmissions = 0;        // summed over all peers
  uint64_t duplicates_suppressed = 0;  // summed over all peers
  uint64_t stale_replies_dropped = 0;  // summed over all peers
  uint64_t packets_dropped = 0;        // network (loss + partitions + down hosts)
  uint64_t packets_duplicated = 0;     // network (fault injector)

  // First successful operation completion after the schedule's last server
  // reboot, relative to that reboot; -1 if the schedule has no reboot or no
  // operation succeeded afterwards.
  sim::Duration recovery_latency = -1;
};

struct SweepResult {
  std::vector<SeedStats> seeds;

  bool all_ok() const {
    for (const SeedStats& s : seeds) {
      if (!s.ok) {
        return false;
      }
    }
    return true;
  }
  const SeedStats* first_failure() const {
    for (const SeedStats& s : seeds) {
      if (!s.ok) {
        return &s;
      }
    }
    return nullptr;
  }
};

// Run the workload once under `seed`; deterministic for a fixed
// (options, seed) pair.
SeedStats RunFaultSeed(const SweepOptions& options, uint64_t seed);

// Run seeds first_seed .. first_seed + num_seeds - 1.
SweepResult RunFaultSweep(const SweepOptions& options, uint64_t first_seed, int num_seeds);

}  // namespace fault

#endif  // SRC_FAULT_SWEEP_H_
