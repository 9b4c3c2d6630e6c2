#include "src/trace/checker.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "src/proto/messages.h"

namespace trace {
namespace {

uint64_t ParseU64(std::string_view s) {
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      break;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

struct FileKey {
  int machine;
  uint64_t file;
  friend auto operator<=>(const FileKey&, const FileKey&) = default;
};

struct ExecKey {
  int server;
  uint64_t from;
  uint64_t xid;
  uint64_t gen;
  friend auto operator<=>(const ExecKey&, const ExecKey&) = default;
};

// Shard-aware stale-read: a file in the fleet is identified by
// (fsid, fileid) — the fsid names the owning shard, so one checker map
// covers every shard at once.
struct ShardFileKey {
  uint64_t fsid;
  uint64_t file;
  friend auto operator<=>(const ShardFileKey&, const ShardFileKey&) = default;
};

// lease-expired-read: what an NQNFS client holds for one file.
struct ClientLease {
  uint64_t version = 0;
  sim::Time expires = 0;
};

}  // namespace

bool IsIdempotentOp(std::string_view op) {
  for (int i = 0; i < proto::kNumOpKinds; ++i) {
    auto kind = static_cast<proto::OpKind>(i);
    if (proto::OpKindName(kind) == op) {
      return proto::IsIdempotent(kind);
    }
  }
  return false;
}

std::vector<Violation> CheckTrace(const std::vector<Event>& events) {
  std::vector<Violation> out;
  // stale-read: (client machine, file) -> granted version.
  std::map<FileKey, uint64_t> granted;
  // concurrent-dirty: file -> set of dirty client machines.
  std::map<uint64_t, std::set<int>> dirty;
  // retransmit-once: executions per (server, client, xid, generation).
  std::map<ExecKey, std::pair<int, std::string>> execs;
  // lease-expired-read: (client machine, file) -> live lease.
  std::map<FileKey, ClientLease> leases;
  // dual-write-lease: file -> (holder host -> expiry). Never cleared by a
  // machine.crash: a dead server's promises are retired by the clock alone.
  std::map<uint64_t, std::map<int, sim::Time>> write_leases;
  // shard-aware stale-read: (fsid, file) -> highest version committed
  // through the meta-cache (the linearization point for fleet mutations).
  std::map<ShardFileKey, uint64_t> fleet_committed;

  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.kind == EventKind::kInstant && e.name == "snfs.open_granted") {
      FileKey key{e.machine, ParseU64(ArgValue(e.args, "file"))};
      granted[key] = ParseU64(ArgValue(e.args, "version"));
    } else if (e.kind == EventKind::kInstant && e.name == "snfs.read_observe") {
      FileKey key{e.machine, ParseU64(ArgValue(e.args, "file"))};
      uint64_t version = ParseU64(ArgValue(e.args, "version"));
      auto it = granted.find(key);
      if (it == granted.end()) {
        out.push_back(Violation{"stale-read", i,
                                "client m" + std::to_string(e.machine) +
                                    " served a cached read of file " +
                                    std::to_string(key.file) + " without an open grant"});
      } else if (version < it->second) {
        out.push_back(Violation{
            "stale-read", i,
            "client m" + std::to_string(e.machine) + " read version " + std::to_string(version) +
                " of file " + std::to_string(key.file) + " but holds a grant for version " +
                std::to_string(it->second)});
      }
    } else if (e.kind == EventKind::kInstant && e.name == "snfs.invalidated") {
      granted.erase(FileKey{e.machine, ParseU64(ArgValue(e.args, "file"))});
    } else if (e.kind == EventKind::kInstant && e.name == "nqnfs.lease_grant") {
      FileKey key{e.machine, ParseU64(ArgValue(e.args, "file"))};
      leases[key] = ClientLease{ParseU64(ArgValue(e.args, "version")),
                                static_cast<sim::Time>(ParseU64(ArgValue(e.args, "expires")))};
    } else if (e.kind == EventKind::kInstant && e.name == "nqnfs.lease_extend") {
      FileKey key{e.machine, ParseU64(ArgValue(e.args, "file"))};
      auto it = leases.find(key);
      sim::Time expires = static_cast<sim::Time>(ParseU64(ArgValue(e.args, "expires")));
      if (it != leases.end() && expires > it->second.expires) {
        it->second.expires = expires;
      }
    } else if (e.kind == EventKind::kInstant && e.name == "nqnfs.read_observe") {
      FileKey key{e.machine, ParseU64(ArgValue(e.args, "file"))};
      uint64_t version = ParseU64(ArgValue(e.args, "version"));
      auto it = leases.find(key);
      if (it == leases.end()) {
        out.push_back(Violation{"lease-expired-read", i,
                                "client m" + std::to_string(e.machine) +
                                    " served a cached read of file " + std::to_string(key.file) +
                                    " without a lease"});
      } else if (e.at >= it->second.expires) {
        out.push_back(Violation{
            "lease-expired-read", i,
            "client m" + std::to_string(e.machine) + " served a cached read of file " +
                std::to_string(key.file) + " at t=" + std::to_string(e.at) +
                " but its lease expired at t=" + std::to_string(it->second.expires)});
      } else if (version < it->second.version) {
        out.push_back(Violation{
            "lease-expired-read", i,
            "client m" + std::to_string(e.machine) + " read version " + std::to_string(version) +
                " of file " + std::to_string(key.file) + " but holds a lease for version " +
                std::to_string(it->second.version)});
      }
    } else if (e.kind == EventKind::kInstant &&
               (e.name == "nqnfs.lease_end" || e.name == "nqnfs.invalidated")) {
      leases.erase(FileKey{e.machine, ParseU64(ArgValue(e.args, "file"))});
    } else if (e.kind == EventKind::kInstant && e.name == "nqnfs.write_lease_grant") {
      uint64_t file = ParseU64(ArgValue(e.args, "file"));
      int host = static_cast<int>(ParseU64(ArgValue(e.args, "host")));
      std::map<int, sim::Time>& holders = write_leases[file];
      for (auto it = holders.begin(); it != holders.end();) {
        if (it->second <= e.at) {
          it = holders.erase(it);  // lapsed by time; no longer a promise
          continue;
        }
        if (it->first != host) {
          out.push_back(Violation{
              "dual-write-lease", i,
              "server m" + std::to_string(e.machine) + " granted host " + std::to_string(host) +
                  " a write lease on file " + std::to_string(file) + " while host " +
                  std::to_string(it->first) + "'s write lease runs until t=" +
                  std::to_string(it->second) + " (grant at t=" + std::to_string(e.at) + ")"});
        }
        ++it;
      }
      holders[host] = static_cast<sim::Time>(ParseU64(ArgValue(e.args, "expires")));
    } else if (e.kind == EventKind::kInstant && e.name == "nqnfs.write_lease_extend") {
      uint64_t file = ParseU64(ArgValue(e.args, "file"));
      int host = static_cast<int>(ParseU64(ArgValue(e.args, "host")));
      sim::Time expires = static_cast<sim::Time>(ParseU64(ArgValue(e.args, "expires")));
      auto file_it = write_leases.find(file);
      if (file_it != write_leases.end()) {
        auto it = file_it->second.find(host);
        if (it != file_it->second.end() && expires > it->second) {
          it->second = expires;
        }
      }
    } else if (e.kind == EventKind::kInstant && e.name == "nqnfs.write_lease_end") {
      uint64_t file = ParseU64(ArgValue(e.args, "file"));
      int host = static_cast<int>(ParseU64(ArgValue(e.args, "host")));
      auto file_it = write_leases.find(file);
      if (file_it != write_leases.end()) {
        file_it->second.erase(host);
      }
    } else if (e.kind == EventKind::kInstant && e.name == "cache.file_dirty" &&
               (ArgValue(e.args, "scope") == "snfs" || ArgValue(e.args, "scope") == "nqnfs")) {
      uint64_t file = ParseU64(ArgValue(e.args, "file"));
      std::set<int>& holders = dirty[file];
      holders.insert(e.machine);
      if (holders.size() > 1) {
        std::string who;
        for (int m : holders) {
          who += (who.empty() ? "m" : ",m") + std::to_string(m);
        }
        out.push_back(Violation{"concurrent-dirty", i,
                                "file " + std::to_string(file) +
                                    " is write-dirty on two clients concurrently (" + who + ")"});
      }
    } else if (e.kind == EventKind::kInstant && e.name == "cache.file_clean" &&
               (ArgValue(e.args, "scope") == "snfs" || ArgValue(e.args, "scope") == "nqnfs")) {
      dirty[ParseU64(ArgValue(e.args, "file"))].erase(e.machine);
    } else if (e.kind == EventKind::kInstant && e.name == "fleet.commit") {
      // A mutation's reply passed through the meta-cache: the owning
      // shard's committed version for this file is now at least `v`.
      // Replies of racing mutations can be observed out of order, so the
      // floor only ever rises.
      ShardFileKey key{ParseU64(ArgValue(e.args, "fsid")), ParseU64(ArgValue(e.args, "file"))};
      uint64_t version = ParseU64(ArgValue(e.args, "v"));
      uint64_t& floor = fleet_committed[key];
      if (version > floor) {
        floor = version;
      }
    } else if (e.kind == EventKind::kInstant && e.name == "fleet.meta_serve") {
      // The meta-cache answered a getattr/lookup from its cache. It must
      // reflect the owning shard's latest committed version — serving
      // anything older is the shard-aware stale read.
      ShardFileKey key{ParseU64(ArgValue(e.args, "fsid")), ParseU64(ArgValue(e.args, "file"))};
      uint64_t version = ParseU64(ArgValue(e.args, "v"));
      auto it = fleet_committed.find(key);
      if (it != fleet_committed.end() && version < it->second) {
        out.push_back(Violation{
            "stale-read", i,
            "meta-cache m" + std::to_string(e.machine) + " served file " +
                std::to_string(key.file) + " of shard fsid " + std::to_string(key.fsid) +
                " at version " + std::to_string(version) +
                " but the shard's latest committed version is " + std::to_string(it->second)});
      }
    } else if (e.kind == EventKind::kInstant && e.name == "machine.crash") {
      // Cached state — grants, client-held leases, dirty blocks — died with
      // the kernel. Server-side write-lease records deliberately survive:
      // they expire by time, not by crash.
      for (auto it = granted.begin(); it != granted.end();) {
        it = it->first.machine == e.machine ? granted.erase(it) : std::next(it);
      }
      for (auto it = leases.begin(); it != leases.end();) {
        it = it->first.machine == e.machine ? leases.erase(it) : std::next(it);
      }
      for (auto& [file, holders] : dirty) {
        holders.erase(e.machine);
      }
    } else if (e.kind == EventKind::kSpanBegin && e.name == "rpc.handle") {
      ExecKey key{e.machine, ParseU64(ArgValue(e.args, "from")),
                  ParseU64(ArgValue(e.args, "xid")), ParseU64(ArgValue(e.args, "gen"))};
      std::string op(ArgValue(e.args, "op"));
      auto [it, inserted] = execs.emplace(key, std::make_pair(0, op));
      ++it->second.first;
      if (it->second.first > 1 && !IsIdempotentOp(it->second.second)) {
        out.push_back(Violation{
            "retransmit-once", i,
            "server m" + std::to_string(key.server) + " executed non-idempotent op '" +
                it->second.second + "' " + std::to_string(it->second.first) +
                " times for xid " + std::to_string(key.xid) + " from host " +
                std::to_string(key.from) + " within generation " + std::to_string(key.gen)});
      }
    }
  }
  return out;
}

}  // namespace trace
