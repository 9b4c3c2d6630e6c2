// The NQNFS server: Spritely-NFS consistency rebuilt on Gray/Cheriton
// leases (SNIPPETS.md, freebsd 06.nfs/2.t "Not Quite NFS").
//
// Clients ask for read or write leases instead of registering opens; the
// server vacates conflicting holders over the existing callback channel
// (write-back + invalidate) before granting, extends a holder's lease by
// piggybacking the new expiry on every data-RPC reply, and lets idle leases
// lapse on a periodic scan. Because every promise the server makes is
// time-bounded, a crash needs no recovery protocol at all: after a reboot
// the server simply refuses to issue *new* leases for one maximum lease
// term (the "quiet window", covering every lease a previous incarnation
// could still have outstanding) while serving uncached data RPCs
// immediately — lease expiry IS recovery, and there is no reopen grace
// period anywhere.
//
// Like the SNFS server, "our only modification to the original NFS server
// code" is additive: the lease machinery is layered in front of the
// callback-server core (snfs::CallbackServer), which vacates over its
// callback channel.
#ifndef SRC_NQNFS_SERVER_H_
#define SRC_NQNFS_SERVER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "src/snfs/callback_server.h"

namespace nqnfs {

// Maximum lease term; also the length of the post-reboot quiet window.
inline constexpr sim::Duration kLeaseTerm = sim::Sec(30);
// How often the server erases the leases that have lapsed.
inline constexpr sim::Duration kLeaseReapInterval = sim::Sec(1);

class NqnfsServer : public snfs::CallbackServer {
 public:
  // Installs itself as `peer`'s request handler.
  NqnfsServer(sim::Simulator& simulator, fs::LocalFs& fs, rpc::Peer& peer);

  sim::Task<proto::Reply> Handle(proto::Request request, net::Address from) override;

  // Crash simulation: the leases live in kernel memory and die with it.
  void Crash() override;

  // Reboot: open the quiet window — no new leases until every lease a dead
  // incarnation could have granted has lapsed. Data RPCs serve immediately.
  void Restart() override;

  bool in_quiet_window() const { return simulator_.Now() < no_grant_until_; }

  uint64_t leases_granted() const { return leases_granted_; }
  uint64_t grants_denied() const { return grants_denied_; }
  uint64_t vacates_issued() const { return vacates_issued_; }
  uint64_t vacates_failed() const { return vacates_failed_; }
  uint64_t lease_expiries() const { return lease_expiries_; }
  size_t active_leases() const;

 private:
  // A Gray/Cheriton lease: extended on access, and its expiry carries
  // protocol meaning.
  struct Lease {
    bool write = false;
    sim::Time expires = 0;
  };
  // Run of leaseless write-throughs from a single host (typically a client
  // flushing after its write lease lapsed). The version is bumped once at
  // the start of the burst — that is enough to fail revalidation for every
  // other cache — and `prev_version` remembers the pre-bump version so the
  // burst writer's own (still coherent) cache can revalidate at its next
  // grant. Invalidated by any event that lets the data diverge from what
  // the burst writer holds: a write-lease grant or a leaseless write by
  // another host.
  struct LeaselessBurst {
    int host = -1;
    uint64_t prev_version = 0;
  };
  // Everything the server keeps about one file. Created on first use and
  // erased once it holds nothing. Handlers run awaited RPCs (vacate
  // callbacks) between record operations, so no pointer into a record
  // survives a suspension: re-find after every one.
  struct FileState {
    std::map<int, Lease> holders;  // by host, so vacates go in host order
    // Hosts a vacate holds a budget slot for: their write-backs skip the
    // foreign-write path, and their leases are not extended.
    std::set<int> vacating;
    // The last write-lease holder could not be reached for its final
    // write-back; cleared by the next successful foreign write.
    bool inconsistent = false;
    std::optional<LeaselessBurst> burst;

    bool empty() const {
      return holders.empty() && vacating.empty() && !inconsistent && !burst.has_value();
    }
  };

  sim::Task<proto::Reply> HandleGetLease(proto::GetLeaseReq req, net::Address from);

  // Vacate every holder whose lease conflicts with `host` accessing the
  // file in `write` mode. Runs under the file lock; loops re-scanning the
  // holders after every awaited callback.
  sim::Task<void> VacateConflicting(proto::FileHandle fh, int host, bool write);

  // One vacate callback under the budget. On delivery failure the server
  // cannot force the holder off the file, so it waits out the remainder of
  // the lease — the one promise it can still keep.
  sim::Task<void> VacateOne(proto::FileHandle fh, int host, Lease lease);

  // Leaseless writes (write-through clients, post-expiry flushes) must
  // vacate other holders and bump the file version so stale caches can
  // never revalidate against the overwritten data. Returns the file lock,
  // still held, when it took that path — the caller releases it only after
  // the delegated write has landed, so no grant can slip between the bump
  // and the write — or nullptr when the write was already lease-covered.
  sim::Task<sim::Mutex*> PrepareForeignWrite(proto::FileHandle fh, int host);

  sim::Task<void> LeaseDaemon();

  // nullptr when the server keeps nothing for the file; invalidated by any
  // record erasure.
  FileState* Find(uint64_t fileid);
  FileState& FindOrCreate(uint64_t fileid);  // lint: unstable-source
  // nullptr when `host` holds no lease on the file.
  Lease* FindLease(uint64_t fileid, int host);
  void EraseLease(uint64_t fileid, int host);
  void EraseIfEmpty(uint64_t fileid);
  bool VacateInProgress(uint64_t fileid, int host) {
    FileState* file = Find(fileid);
    return file != nullptr && file->vacating.contains(host);
  }

  // --- CallbackServer hooks --------------------------------------------------
  // A removed file's leases, inconsistent mark and burst go with it (the
  // holders' client-side leases lapse on their own); a vacate in flight
  // keeps its marker, so its write-back still skips the foreign-write lock.
  void Forget(const proto::FileHandle& fh) override;
  // The vacate-in-progress marker goes up only once the vacate holds a
  // budget slot, so a holder's data RPCs extend its lease while the vacate
  // still waits for one.
  void OnCallbackSlot(int host, const proto::CallbackReq& req) override {
    FindOrCreate(req.fh.fileid).vacating.insert(host);
  }

  std::unordered_map<uint64_t, FileState> files_;
  sim::Time no_grant_until_ = 0;
  uint64_t leases_granted_ = 0;
  uint64_t grants_denied_ = 0;
  uint64_t vacates_issued_ = 0;
  uint64_t vacates_failed_ = 0;
  uint64_t lease_expiries_ = 0;
};

}  // namespace nqnfs

#endif  // SRC_NQNFS_SERVER_H_
