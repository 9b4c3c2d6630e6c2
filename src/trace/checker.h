// trace::Checker — replays a recorded event trace and validates the
// cache-consistency invariants the paper's protocol is supposed to provide,
// *per event* rather than only at quiescence:
//
//  stale-read        A cached read on a client never observes data older
//                    than the version established for that client by the
//                    serialization of opens/closes/callbacks: every
//                    `snfs.read_observe` must carry a version >= the version
//                    of the client's most recent `snfs.open_granted` for the
//                    file, and must not occur at all without a grant.
//                    Shard-aware extension (src/fleet): a getattr/lookup the
//                    meta-cache answers from its cache (`fleet.meta_serve`,
//                    keyed by fsid+file so each shard's namespace is
//                    tracked separately) must reflect the owning shard's
//                    latest committed version (`fleet.commit`, emitted when
//                    a mutation's reply passes through the cache).
//  concurrent-dirty  No two clients hold write-dirty cached blocks of the
//                    same file at the same time (`cache.file_dirty` /
//                    `cache.file_clean` transitions with scope=snfs). A
//                    client crash (`machine.crash`) clears its dirty state —
//                    the blocks died with the kernel.
//  retransmit-once   A retransmitted RPC is either absorbed by the server's
//                    duplicate-request cache or idempotent: within one
//                    server generation, a non-idempotent operation must not
//                    produce two `rpc.handle` executions for the same
//                    (client, xid). Re-execution across generations (the
//                    dup cache died with the server) is legal.
//  lease-expired-read
//                    NQNFS: a cached read is only ever served inside a live
//                    lease, at a version no older than the lease granted:
//                    every `nqnfs.read_observe` needs a preceding
//                    `nqnfs.lease_grant` (extended by `nqnfs.lease_extend`)
//                    whose expiry lies strictly after the read's timestamp.
//                    `nqnfs.lease_end` / `nqnfs.invalidated` retire the
//                    lease, as does a client `machine.crash`.
//                    (`nqnfs.self_invalidate` — a client dropping its own
//                    cached blocks around a write-through while a read
//                    lease stays live — deliberately does not.)
//  dual-write-lease  NQNFS: the server never has two un-lapsed write leases
//                    on one file (`nqnfs.write_lease_grant` / `_extend` /
//                    `_end`, with `host=`). Leases are retired by an
//                    explicit end event or by their expiry time — NOT by a
//                    server `machine.crash`, because the promise to the
//                    holder outlives the lease table; a rebooted server
//                    granting before its quiet window closes is exactly the
//                    bug this rule exists to catch.
//
// The checker is pure: it consumes the event vector and produces violations;
// it never mutates simulator state, so it can run after the simulation or
// over a hand-built fixture trace.
#ifndef SRC_TRACE_CHECKER_H_
#define SRC_TRACE_CHECKER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace trace {

struct Violation {
  // "stale-read", "concurrent-dirty", "retransmit-once",
  // "lease-expired-read", or "dual-write-lease".
  std::string rule;
  size_t event_index;  // index into the checked event vector
  std::string message;
};

// proto::IsIdempotent for the operation named `op` (as the `op=` argument
// of an `rpc.handle` span spells it); false for an unknown name.
bool IsIdempotentOp(std::string_view op);

std::vector<Violation> CheckTrace(const std::vector<Event>& events);

inline std::vector<Violation> CheckTrace(const Recorder& recorder) {
  return CheckTrace(recorder.events());
}

}  // namespace trace

#endif  // SRC_TRACE_CHECKER_H_
