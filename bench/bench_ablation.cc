// Ablations over the design levers DESIGN.md calls out, using the Andrew
// benchmark (tmp remote) and a small append workload:
//
//  1. the invalidate-on-close bug (§5.2): how much of NFS's read traffic it
//     causes;
//  2. partial-block write delaying (the reference-port optimization);
//  3. delayed close (§6.2): open/close RPC elimination on reopen-heavy
//     workloads;
//  4. version-number generation (§4.3.3): stable per-file versions vs the
//     paper prototype's global counter under state-table pressure.
//
// Each ablation gets one directional shape check on the RPC count the paper
// says its lever moves; the bench exits 1 if one fails.
#include <cstdio>

#include <limits>
#include <utility>

#include "bench/bench_util.h"
#include "src/metrics/table.h"

namespace {

using bench::AndrewRun;
using bench::PrintShapeCheck;
using bench::RunAndrewConfig;
using metrics::Table;
using testbed::Protocol;
using testbed::RigOptions;

// Each ablation's check is directional: the lever moves its RPC count the
// way the paper says, by at least one call.
constexpr double kNoUpperBound = std::numeric_limits<double>::infinity();

// How many more calls `more` made than `fewer`.
double Excess(uint64_t more, uint64_t fewer) {
  return static_cast<double>(more) - static_cast<double>(fewer);
}

}  // namespace

int main() {
  // RPC counts the shape checks compare, one pair per ablation.
  uint64_t reads_with_bug = 0;
  uint64_t reads_without_bug = 0;
  uint64_t writes_delayed = 0;
  uint64_t writes_undelayed = 0;
  uint64_t opens_delayed_close = 0;
  uint64_t opens_plain_close = 0;
  uint64_t reads_stable_versions = 0;
  uint64_t reads_global_counter = 0;

  std::printf("=== Ablation 1: invalidate-on-close bug (NFS, Andrew tmp=remote) ===\n\n");
  {
    RigOptions with_bug;
    with_bug.nfs.invalidate_on_close = true;
    RigOptions without_bug;
    without_bug.nfs.invalidate_on_close = false;
    AndrewRun buggy = RunAndrewConfig(Protocol::kNfs, true, with_bug);
    AndrewRun fixed = RunAndrewConfig(Protocol::kNfs, true, without_bug);
    reads_with_bug = buggy.rpcs.Get(proto::OpKind::kRead);
    reads_without_bug = fixed.rpcs.Get(proto::OpKind::kRead);
    Table t({"NFS client", "read RPCs", "total RPCs", "elapsed"});
    t.AddRow({"Ultrix (bug)", Table::Int(buggy.rpcs.Get(proto::OpKind::kRead)),
              Table::Int(buggy.rpcs.Total()), Table::Seconds(sim::ToSeconds(buggy.report.total))});
    t.AddRow({"fixed", Table::Int(fixed.rpcs.Get(proto::OpKind::kRead)),
              Table::Int(fixed.rpcs.Total()), Table::Seconds(sim::ToSeconds(fixed.report.total))});
    t.Print();
    std::printf("(the paper attributes NFS's inflated read counts to this bug, §5.2,\n"
                " and estimates it explains less than a quarter of the sort difference)\n");
  }

  std::printf("\n=== Ablation 2: partial-block write delaying (NFS, 512 B appends) ===\n\n");
  {
    // A logging-style workload: 64 appends of 512 B. The reference port
    // coalesces them into block-sized writes; without the delay every
    // append becomes its own (partial) write RPC.
    auto run = [](bool delay) {
      RigOptions options;
      options.protocol = Protocol::kNfs;
      options.nfs.delay_partial_writes = delay;
      testbed::Rig rig(options);
      uint64_t writes = 0;
      double elapsed = 0;
      rig.simulator().Spawn([](testbed::Rig& rig, uint64_t& writes,
                               double& elapsed) -> sim::Task<void> {
        vfs::Vfs& v = rig.client().vfs();
        sim::Time t0 = rig.simulator().Now();
        auto fd = co_await v.Open("/data/log", vfs::OpenFlags::WriteCreate());
        CHECK(fd.ok());
        std::vector<uint8_t> chunk(512, 7);
        for (int i = 0; i < 64; ++i) {
          CHECK((co_await v.Write(*fd, chunk)).ok());
        }
        CHECK((co_await v.Close(*fd)).ok());
        writes = rig.client().peer().client_ops().Get(proto::OpKind::kWrite);
        elapsed = sim::ToSeconds(rig.simulator().Now() - t0);
      }(rig, writes, elapsed));
      rig.simulator().Run();
      return std::pair<uint64_t, double>(writes, elapsed);
    };
    auto [on_writes, on_s] = run(true);
    auto [off_writes, off_s] = run(false);
    writes_delayed = on_writes;
    writes_undelayed = off_writes;
    Table t({"Partial-block delay", "write RPCs", "elapsed"});
    t.AddRow({"on (reference port)", Table::Int(on_writes), Table::Seconds(on_s)});
    t.AddRow({"off", Table::Int(off_writes), Table::Seconds(off_s)});
    t.Print();
    std::printf("(footnote 4: \"the reference port of NFS delays writes that do not extend\n"
                " to the end of a block, as a means of optimizing improperly-buffered\n"
                " sequential writes\")\n");
  }

  std::printf("\n=== Ablation 3: delayed close (SNFS, Andrew tmp=remote, §6.2) ===\n\n");
  {
    RigOptions base;
    RigOptions dc;
    dc.snfs.delayed_close = true;
    AndrewRun off = RunAndrewConfig(Protocol::kSnfs, true, base);
    AndrewRun on = RunAndrewConfig(Protocol::kSnfs, true, dc);
    opens_delayed_close = on.rpcs.Get(proto::OpKind::kOpen);
    opens_plain_close = off.rpcs.Get(proto::OpKind::kOpen);
    Table t({"Delayed close", "open RPCs", "close RPCs", "total RPCs", "elapsed"});
    t.AddRow({"off (paper's implementation)", Table::Int(off.rpcs.Get(proto::OpKind::kOpen)),
              Table::Int(off.rpcs.Get(proto::OpKind::kClose)), Table::Int(off.rpcs.Total()),
              Table::Seconds(sim::ToSeconds(off.report.total))});
    t.AddRow({"on (§6.2 extension)", Table::Int(on.rpcs.Get(proto::OpKind::kOpen)),
              Table::Int(on.rpcs.Get(proto::OpKind::kClose)), Table::Int(on.rpcs.Total()),
              Table::Seconds(sim::ToSeconds(on.report.total))});
    t.Print();
    std::printf("(\"most files are reopened soon after they are closed, [so] we could avoid\n"
                " a lot of network traffic\" — the popular-header pattern)\n");
  }

  std::printf("\n=== Ablation 4: version number generation (§4.3.3) ===\n\n");
  {
    // Reopen-heavy workload under a tiny state table: the global counter
    // hands out fresh versions once entries are reclaimed, spuriously
    // invalidating warm caches; stable per-file versions never do.
    auto run = [](snfs::VersionMode mode) {
      RigOptions options;
      options.server.snfs.version_mode = mode;
      options.server.snfs.max_state_entries = 8;
      return RunAndrewConfig(Protocol::kSnfs, true, options);
    };
    AndrewRun stable = run(snfs::VersionMode::kStable);
    AndrewRun counter = run(snfs::VersionMode::kGlobalCounter);
    reads_stable_versions = stable.rpcs.Get(proto::OpKind::kRead);
    reads_global_counter = counter.rpcs.Get(proto::OpKind::kRead);
    Table t({"Version mode", "read RPCs", "total RPCs", "elapsed"});
    t.AddRow({"stable per-file (ours)", Table::Int(stable.rpcs.Get(proto::OpKind::kRead)),
              Table::Int(stable.rpcs.Total()),
              Table::Seconds(sim::ToSeconds(stable.report.total))});
    t.AddRow({"global counter (paper prototype)",
              Table::Int(counter.rpcs.Get(proto::OpKind::kRead)),
              Table::Int(counter.rpcs.Total()),
              Table::Seconds(sim::ToSeconds(counter.report.total))});
    t.Print();
    std::printf("(\"we chose to use a global counter ... suitable only for experimental\n"
                " use, as it poses several obvious problems\")\n");
  }

  std::printf("\n=== Shape checks against the paper ===\n");
  // §5.2: the Ultrix client's invalidate-on-close inflates NFS reads.
  PrintShapeCheck("read RPCs the invalidate-on-close bug adds (paper 5.2: >0)",
                  Excess(reads_with_bug, reads_without_bug), 1, kNoUpperBound);
  // Footnote 4: delaying partial-block writes coalesces small appends.
  PrintShapeCheck("write RPCs the partial-block delay saves (footnote 4: >0)",
                  Excess(writes_undelayed, writes_delayed), 1, kNoUpperBound);
  // §6.2: reopened files need no open RPC under delayed close.
  PrintShapeCheck("open RPCs delayed close saves (paper 6.2: >0)",
                  Excess(opens_plain_close, opens_delayed_close), 1, kNoUpperBound);
  // §4.3.3: a reclaimed entry's fresh counter value invalidates a warm
  // cache. Elapsed time is not checked: the paper claims the spurious
  // invalidations, not a time.
  PrintShapeCheck("read RPCs the global version counter adds (4.3.3: >0)",
                  Excess(reads_global_counter, reads_stable_versions), 1, kNoUpperBound);
  return bench::ShapeCheckStatus();
}
