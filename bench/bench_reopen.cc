// Reproduces the §5.3 aside: the SunOS 4.0.3 microbenchmark highlighting the
// penalty for invalidating the client cache when closing a temporary file.
//
// "This benchmark writes a large file, closes it, and then opens and reads
// either the same file, or a different file of the same size. ... There was
// no significant difference in elapsed times, indicating that the
// (elapsed-time) cost of a read missing the client cache is negligible
// compared to the cost of writing through."
//
// We run write-close-reopen-read for: NFS with the invalidate-on-close bug
// (the paper's Ultrix client), NFS without it (the fixed reference port),
// SNFS, and NQNFS. The read-same vs read-different comparison shows the
// write-through cost dwarfing the reread cost under NFS, while SNFS and
// NQNFS avoid both (delayed writes under an open grant / a write lease).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/metrics/table.h"
#include "src/testbed/rig.h"

namespace {

using bench::PrintShapeCheck;
using metrics::Table;
using testbed::Protocol;
using testbed::Rig;
using testbed::RigOptions;

constexpr uint64_t kFileBytes = 1 << 20;  // 1 MB

struct ReopenResult {
  double write_close_s = 0;  // write + close (write-through cost)
  double reread_same_s = 0;  // reopen + read same file
  double reread_other_s = 0; // open + read a different file of equal size
  uint64_t read_rpcs = 0;
};

ReopenResult RunCase(Protocol protocol, bool invalidate_on_close) {
  RigOptions options;
  options.protocol = protocol;
  options.nfs.invalidate_on_close = invalidate_on_close;
  Rig rig(options);

  // The "different file of the same size" is populated server-side so the
  // client has never cached it.
  rig.simulator().Spawn([](Rig& rig) -> sim::Task<void> {
    fs::LocalFs& fs = rig.data_fs();
    auto file = co_await fs.Create(rig.data_parent(), "other", /*exclusive=*/true);
    CHECK(file.ok());
    std::vector<uint8_t> payload(kFileBytes);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i * 31);
    }
    auto wrote =
        co_await fs.Write(file->fh, 0, std::move(payload), fs::LocalFs::WriteMode::kMemory);
    CHECK(wrote.ok());
  }(rig));
  rig.simulator().Run();

  ReopenResult result;
  bool done = false;
  rig.simulator().Spawn([](Rig& rig, ReopenResult& result, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = rig.client().vfs();
    std::vector<uint8_t> payload(kFileBytes);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i * 31);
    }
    sim::Time t0 = rig.simulator().Now();
    CHECK((co_await v.WriteFile("/data/big", payload)).ok());
    sim::Time t1 = rig.simulator().Now();
    uint64_t reads0 = rig.client().peer().client_ops().Get(proto::OpKind::kRead);
    auto same = co_await v.ReadFile("/data/big");
    CHECK(same.ok() && same->size() == kFileBytes);
    sim::Time t2 = rig.simulator().Now();
    result.read_rpcs = rig.client().peer().client_ops().Get(proto::OpKind::kRead) - reads0;
    auto other = co_await v.ReadFile("/data/other");
    CHECK(other.ok() && other->size() == kFileBytes);
    sim::Time t3 = rig.simulator().Now();

    result.write_close_s = sim::ToSeconds(t1 - t0);
    result.reread_same_s = sim::ToSeconds(t2 - t1);
    result.reread_other_s = sim::ToSeconds(t3 - t2);
    done = true;
  }(rig, result, done));
  rig.simulator().Run();
  CHECK(done);
  return result;
}

}  // namespace

int main() {
  std::printf("=== §5.3 microbenchmark: write-close-reopen-read, 1 MB file ===\n\n");

  ReopenResult nfs_bug = RunCase(Protocol::kNfs, /*invalidate_on_close=*/true);
  ReopenResult nfs_fixed = RunCase(Protocol::kNfs, /*invalidate_on_close=*/false);
  ReopenResult snfs = RunCase(Protocol::kSnfs, true);
  ReopenResult nqnfs = RunCase(Protocol::kNqnfs, true);

  Table t({"Client", "write+close", "reread same", "read other", "read RPCs"});
  t.AddRow({"NFS (Ultrix bug)", Table::Seconds(nfs_bug.write_close_s),
            Table::Seconds(nfs_bug.reread_same_s), Table::Seconds(nfs_bug.reread_other_s),
            Table::Int(nfs_bug.read_rpcs)});
  t.AddRow({"NFS (fixed)", Table::Seconds(nfs_fixed.write_close_s),
            Table::Seconds(nfs_fixed.reread_same_s), Table::Seconds(nfs_fixed.reread_other_s),
            Table::Int(nfs_fixed.read_rpcs)});
  t.AddRow({"SNFS", Table::Seconds(snfs.write_close_s), Table::Seconds(snfs.reread_same_s),
            Table::Seconds(snfs.reread_other_s), Table::Int(snfs.read_rpcs)});
  t.AddRow({"NQNFS", Table::Seconds(nqnfs.write_close_s), Table::Seconds(nqnfs.reread_same_s),
            Table::Seconds(nqnfs.reread_other_s), Table::Int(nqnfs.read_rpcs)});
  t.Print();

  std::printf("\n=== Shape checks against the paper ===\n");
  // "No significant difference in elapsed times" between reading the same
  // file (invalidated cache) and a different one under buggy NFS...
  PrintShapeCheck("NFS(bug) reread-same / read-other (paper ~1.0)",
                  nfs_bug.reread_same_s / nfs_bug.reread_other_s, 0.5, 1.5);
  // ...because both are negligible next to the write-through cost.
  PrintShapeCheck("NFS(bug) reread-same / write-close (paper: negligible, <0.4)",
                  nfs_bug.reread_same_s / nfs_bug.write_close_s, 0.0, 0.4);
  // The fixed client serves the reread from its cache.
  PrintShapeCheck("NFS(fixed) reread-same / reread-other (cache hit, <0.3)",
                  nfs_fixed.reread_same_s / nfs_fixed.reread_other_s, 0.0, 0.3);
  // SNFS avoids the write-through entirely.
  PrintShapeCheck("SNFS write-close / NFS write-close (delayed, <0.2)",
                  snfs.write_close_s / nfs_bug.write_close_s, 0.0, 0.2);
  PrintShapeCheck("SNFS reread read-RPC count (cache valid, ==0)",
                  static_cast<double>(snfs.read_rpcs), 0.0, 0.5);
  // NQNFS writes are delayed under a write lease, like SNFS — and the
  // reread is served from cache under the same (extended) lease.
  PrintShapeCheck("NQNFS write-close / NFS write-close (delayed, <0.2)",
                  nqnfs.write_close_s / nfs_bug.write_close_s, 0.0, 0.2);
  PrintShapeCheck("NQNFS reread read-RPC count (lease live, ==0)",
                  static_cast<double>(nqnfs.read_rpcs), 0.0, 0.5);
  return bench::ShapeCheckStatus();
}
