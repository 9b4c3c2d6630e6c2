// Reproduces paper Table 5-3 (sort benchmark elapsed time for three input
// sizes with /usr/tmp local, NFS, and SNFS) and Table 5-4 (RPC calls for
// the 2816 KB input), with an NQNFS column alongside: leases should match
// SNFS's delayed-write win without any open/close RPC traffic at all.
//
// Paper values (Table 5-3, elapsed seconds):
//   input 281 k  (temp  304 k):  local  4   NFS   8    SNFS   4
//   input 1408 k (temp 2170 k):  local 33   NFS 105    SNFS  48
//   input 2816 k (temp 7764 k):  local 74   NFS 234    SNFS 127
// Shape: SNFS ~2x faster than NFS; client CPU utilization higher under
// SNFS (I/O latency is the bottleneck); SNFS does far fewer read RPCs.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/metrics/table.h"

namespace {

using bench::PrintShapeCheck;
using bench::Ratio;
using bench::RunSortConfig;
using bench::SortRun;
using metrics::Table;
using testbed::Protocol;

}  // namespace

int main(int argc, char** argv) {
  bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv);
  bool traced = flags.tracing();

  std::printf("=== Table 5-3: Sort benchmark, elapsed time in seconds ===\n");
  std::printf("(paper: 281k: 4/8/4; 1408k: 33/105/48; 2816k: 74/234/127 for local/NFS/SNFS)\n\n");

  const uint64_t kSizes[] = {281 * 1024, 1408 * 1024, 2816 * 1024};
  SortRun local[3];
  SortRun nfs[3];
  SortRun snfs[3];
  SortRun nqnfs[3];

  Table t3({"File size", "Temp storage", "local /usr/tmp", "NFS /usr/tmp", "SNFS /usr/tmp",
            "NQNFS /usr/tmp"});
  for (int i = 0; i < 3; ++i) {
    local[i] = RunSortConfig(Protocol::kLocal, kSizes[i], true, 1280, {}, traced);
    nfs[i] = RunSortConfig(Protocol::kNfs, kSizes[i], true, 1280, {}, traced);
    snfs[i] = RunSortConfig(Protocol::kSnfs, kSizes[i], true, 1280, {}, traced);
    nqnfs[i] = RunSortConfig(Protocol::kNqnfs, kSizes[i], true, 1280, {}, traced);
    t3.AddRow({Table::Int(kSizes[i] / 1024) + " k",
               Table::Int(local[i].report.temp_bytes_written / 1024) + " k",
               Table::Seconds(sim::ToSeconds(local[i].report.elapsed)),
               Table::Seconds(sim::ToSeconds(nfs[i].report.elapsed)),
               Table::Seconds(sim::ToSeconds(snfs[i].report.elapsed)),
               Table::Seconds(sim::ToSeconds(nqnfs[i].report.elapsed))});
  }
  t3.Print();

  std::printf("\n=== Table 5-4: RPC calls for Sort benchmark (2816 kB input) ===\n\n");
  Table t4({"Operation", "NFS", "SNFS", "NQNFS"});
  const proto::OpKind kRows[] = {proto::OpKind::kLookup, proto::OpKind::kGetAttr,
                                 proto::OpKind::kRead,   proto::OpKind::kWrite,
                                 proto::OpKind::kOpen,   proto::OpKind::kClose,
                                 proto::OpKind::kGetLease,
                                 proto::OpKind::kCreate, proto::OpKind::kRemove};
  for (proto::OpKind kind : kRows) {
    t4.AddRow({std::string(proto::OpKindName(kind)), Table::Int(nfs[2].rpcs.Get(kind)),
               Table::Int(snfs[2].rpcs.Get(kind)), Table::Int(nqnfs[2].rpcs.Get(kind))});
  }
  t4.AddRow({"total", Table::Int(nfs[2].rpcs.Total()), Table::Int(snfs[2].rpcs.Total()),
             Table::Int(nqnfs[2].rpcs.Total())});
  t4.Print();

  std::printf("\nClient CPU utilization (2816k): NFS %.0f%%, SNFS %.0f%% "
              "(paper: higher for SNFS; I/O latency is the bottleneck)\n",
              nfs[2].client_cpu_utilization * 100, snfs[2].client_cpu_utilization * 100);
  std::printf("Server CPU-relevant RPC totals (2816k): NFS %llu, SNFS %llu "
              "(paper: SNFS ~40%% fewer)\n",
              static_cast<unsigned long long>(nfs[2].rpcs.Total()),
              static_cast<unsigned long long>(snfs[2].rpcs.Total()));

  std::printf("\n=== Shape checks against the paper ===\n");
  PrintShapeCheck("SNFS/NFS elapsed, 2816k (paper ~0.54: SNFS ~2x faster)",
                  Ratio(sim::ToSeconds(snfs[2].report.elapsed),
                        sim::ToSeconds(nfs[2].report.elapsed)),
                  0.35, 0.75);
  PrintShapeCheck("SNFS/NFS elapsed, 1408k (paper ~0.46)",
                  Ratio(sim::ToSeconds(snfs[1].report.elapsed),
                        sim::ToSeconds(nfs[1].report.elapsed)),
                  0.30, 0.75);
  PrintShapeCheck("NFS/local elapsed, 2816k (paper ~3.2)",
                  Ratio(sim::ToSeconds(nfs[2].report.elapsed),
                        sim::ToSeconds(local[2].report.elapsed)),
                  1.8, 4.5);
  PrintShapeCheck("SNFS/local elapsed, 2816k (paper ~1.7)",
                  Ratio(sim::ToSeconds(snfs[2].report.elapsed),
                        sim::ToSeconds(local[2].report.elapsed)),
                  1.0, 2.5);
  PrintShapeCheck("SNFS/NFS read RPCs, 2816k (paper: far fewer, <0.3)",
                  Ratio(static_cast<double>(snfs[2].rpcs.Get(proto::OpKind::kRead)),
                        static_cast<double>(nfs[2].rpcs.Get(proto::OpKind::kRead))),
                  0.0, 0.30);
  // Paper ~0.61. Our counter snapshot ends with the workload, while some of
  // SNFS's delayed write-backs land just after it (the paper's back-to-back
  // trials charge them to the next trial); the ratio is sensitive to that
  // boundary, so the band is wide.
  PrintShapeCheck("SNFS/NFS total RPCs, 2816k (paper ~0.61: ~40% fewer)",
                  Ratio(static_cast<double>(snfs[2].rpcs.Total()),
                        static_cast<double>(nfs[2].rpcs.Total())),
                  0.15, 0.80);
  PrintShapeCheck("temp/input volume, 2816k (paper ~2.76)",
                  Ratio(static_cast<double>(snfs[2].report.temp_bytes_written),
                        static_cast<double>(snfs[2].report.input_bytes)),
                  2.0, 3.5);
  PrintShapeCheck("temp/input volume, 281k (paper ~1.08)",
                  Ratio(static_cast<double>(snfs[0].report.temp_bytes_written),
                        static_cast<double>(snfs[0].report.input_bytes)),
                  0.9, 1.6);
  double cpu_shape = snfs[2].client_cpu_utilization - nfs[2].client_cpu_utilization;
  PrintShapeCheck("SNFS minus NFS client CPU utilization (paper: positive)", cpu_shape, 0.01,
                  1.0);
  // NQNFS: same delayed-write regime as SNFS, so elapsed time lands in the
  // same band — with no open/close traffic and only a handful of lease RPCs.
  PrintShapeCheck("NQNFS/SNFS elapsed, 2816k (leases match grants, ~1.0)",
                  Ratio(sim::ToSeconds(nqnfs[2].report.elapsed),
                        sim::ToSeconds(snfs[2].report.elapsed)),
                  0.7, 1.3);
  PrintShapeCheck("NQNFS/NFS total RPCs, 2816k (fewer, like SNFS)",
                  Ratio(static_cast<double>(nqnfs[2].rpcs.Total()),
                        static_cast<double>(nfs[2].rpcs.Total())),
                  0.15, 0.80);
  PrintShapeCheck("NQNFS open+close RPCs, 2816k (no such RPCs, ==0)",
                  static_cast<double>(nqnfs[2].rpcs.Get(proto::OpKind::kOpen) +
                                      nqnfs[2].rpcs.Get(proto::OpKind::kClose)),
                  0.0, 0.5);

  if (traced) {
    bench::PrintLatencyTable("=== RPC latency from rpc.call spans, NFS 2816k ===",
                             nfs[2].rpc_latency);
    bench::PrintLatencyTable("=== RPC latency from rpc.call spans, SNFS 2816k ===",
                             snfs[2].rpc_latency);
  }
  if (!flags.json_path.empty()) {
    std::vector<std::pair<std::string, std::string>> configs;
    const char* kSizeNames[] = {"281k", "1408k", "2816k"};
    for (int i = 0; i < 3; ++i) {
      configs.emplace_back(std::string("local_") + kSizeNames[i], bench::SortRunJson(local[i]));
      configs.emplace_back(std::string("nfs_") + kSizeNames[i], bench::SortRunJson(nfs[i]));
      configs.emplace_back(std::string("snfs_") + kSizeNames[i], bench::SortRunJson(snfs[i]));
      configs.emplace_back(std::string("nqnfs_") + kSizeNames[i], bench::SortRunJson(nqnfs[i]));
    }
    bench::WriteBenchJson(flags.json_path, "sort", configs);
    std::printf("\nwrote %s\n", flags.json_path.c_str());
  }
  if (!flags.trace_path.empty()) {
    bench::WriteTextFile(flags.trace_path, snfs[2].chrome_json);
    std::printf("\nwrote Chrome trace of SNFS 2816k to %s\n", flags.trace_path.c_str());
  }
  return bench::ShapeCheckStatus();
}
