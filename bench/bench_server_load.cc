// Reproduces paper Figures 5-1 and 5-2: server CPU utilization and RPC call
// rates (total, read, write) over time while the Andrew benchmark runs with
// /tmp remotely mounted, for NFS and for SNFS.
//
// The figures' headline observation: "The load ... was strongly correlated
// with the aggregate rate of RPC calls; it was NOT correlated with the rate
// of read or write calls", and the SNFS run completes faster with a
// slightly lower load integral but slightly higher (burstier) average load.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/metrics/table.h"
#include "src/metrics/time_series.h"
#include "src/testbed/rig.h"
#include "src/workload/andrew.h"

namespace {

using bench::PrintShapeCheck;
using metrics::TimeSeries;
using testbed::Protocol;
using testbed::Rig;
using testbed::RigOptions;

constexpr sim::Duration kWindow = sim::Sec(10);

struct LoadTrace {
  TimeSeries utilization;   // server CPU busy fraction per window
  TimeSeries total_rate;    // RPC calls/s per window
  TimeSeries read_rate;
  TimeSeries write_rate;
  sim::Duration elapsed = 0;
  sim::Duration cpu_integral = 0;  // total busy time
};

LoadTrace RunTrace(Protocol protocol) {
  RigOptions options;
  options.protocol = protocol;
  options.remote_tmp = true;
  Rig rig(options);

  workload::AndrewShape shape;
  rig.simulator().Spawn(workload::PopulateAndrewTree(rig.data_fs(), rig.data_parent(), shape));
  rig.simulator().Run();

  workload::AndrewConfig config;
  config.src_root = rig.data_root() + "/src";
  config.target_root = rig.data_root() + "/target";
  config.tmp_dir = rig.tmp_dir();
  config.shape = shape;

  LoadTrace trace;
  bool done = false;

  // Sampler daemon: every window, record utilization and rates.
  rig.simulator().Spawn([](Rig& rig, LoadTrace& trace, bool& done) -> sim::Task<void> {
    sim::Duration last_busy = rig.server()->cpu().busy_time();
    metrics::OpCounters last_ops = rig.server()->peer().server_ops();
    while (!done) {
      co_await sim::Sleep(rig.simulator(), kWindow, /*background=*/true);
      sim::Time now = rig.simulator().Now();
      sim::Duration busy = rig.server()->cpu().busy_time();
      metrics::OpCounters ops = rig.server()->peer().server_ops();
      metrics::OpCounters delta = ops.Diff(last_ops);
      double seconds = sim::ToSeconds(kWindow);
      trace.utilization.Push(now, sim::ToSeconds(busy - last_busy) / seconds);
      trace.total_rate.Push(now, static_cast<double>(delta.Total()) / seconds);
      trace.read_rate.Push(now, static_cast<double>(delta.Get(proto::OpKind::kRead)) / seconds);
      trace.write_rate.Push(now, static_cast<double>(delta.Get(proto::OpKind::kWrite)) / seconds);
      last_busy = busy;
      last_ops = ops;
    }
  }(rig, trace, done));

  rig.simulator().Spawn([](Rig& rig, workload::AndrewConfig config, LoadTrace& trace,
                           bool& done) -> sim::Task<void> {
    sim::Duration busy0 = rig.server()->cpu().busy_time();
    auto report = co_await workload::RunAndrew(rig.simulator(), rig.client().vfs(),
                                               rig.client().cpu(), config);
    CHECK(report.ok());
    trace.elapsed = report->total;
    trace.cpu_integral = rig.server()->cpu().busy_time() - busy0;
    done = true;
  }(rig, config, trace, done));
  rig.simulator().Run();
  return trace;
}

void PrintTrace(const char* name, const LoadTrace& trace) {
  std::printf("\n--- %s: server utilization and call rates vs time (10 s windows) ---\n", name);
  std::printf("%8s %12s %12s %10s %10s\n", "t (s)", "util (%)", "calls/s", "reads/s",
              "writes/s");
  const auto& u = trace.utilization.samples();
  const auto& t = trace.total_rate.samples();
  const auto& r = trace.read_rate.samples();
  const auto& w = trace.write_rate.samples();
  for (size_t i = 0; i < u.size(); ++i) {
    // An ASCII bar makes the utilization curve legible in a terminal.
    int bar = static_cast<int>(u[i].value * 40);
    std::printf("%8.0f %11.1f%% %12.1f %10.1f %10.1f  |%.*s\n", sim::ToSeconds(u[i].at),
                u[i].value * 100, t[i].value, r[i].value, w[i].value, bar,
                "########################################");
  }
}

}  // namespace

int main() {
  std::printf("=== Figures 5-1 / 5-2: Andrew benchmark with /tmp remote ===\n");

  LoadTrace nfs = RunTrace(Protocol::kNfs);
  LoadTrace snfs = RunTrace(Protocol::kSnfs);

  PrintTrace("Figure 5-1 (NFS)", nfs);
  PrintTrace("Figure 5-2 (SNFS)", snfs);

  double nfs_corr_total = TimeSeries::Correlation(nfs.utilization, nfs.total_rate);
  double nfs_corr_read = TimeSeries::Correlation(nfs.utilization, nfs.read_rate);
  double nfs_corr_write = TimeSeries::Correlation(nfs.utilization, nfs.write_rate);
  double snfs_corr_total = TimeSeries::Correlation(snfs.utilization, snfs.total_rate);

  std::printf("\nCorrelation of server load with call rates:\n");
  std::printf("  NFS : total %.3f, read %.3f, write %.3f\n", nfs_corr_total, nfs_corr_read,
              nfs_corr_write);
  std::printf("  SNFS: total %.3f\n", snfs_corr_total);
  std::printf("CPU integral over the run: NFS %.1f s, SNFS %.1f s\n",
              sim::ToSeconds(nfs.cpu_integral), sim::ToSeconds(snfs.cpu_integral));
  std::printf("Mean utilization during the run: NFS %.1f%%, SNFS %.1f%%\n",
              nfs.utilization.Mean() * 100, snfs.utilization.Mean() * 100);

  std::printf("\n=== Shape checks against the paper ===\n");
  PrintShapeCheck("load/total-call-rate correlation, NFS (paper: strong)", nfs_corr_total, 0.7,
                  1.0);
  PrintShapeCheck("load/total-call-rate correlation, SNFS (paper: strong)", snfs_corr_total,
                  0.7, 1.0);
  PrintShapeCheck("load/write-rate correlation, NFS (paper: weak, below total's)",
                  nfs_corr_write, -1.0, nfs_corr_total - 0.05);
  PrintShapeCheck("SNFS/NFS server CPU integral (paper: slightly lower, ~0.85-1.0)",
                  sim::ToSeconds(snfs.cpu_integral) / sim::ToSeconds(nfs.cpu_integral), 0.6,
                  1.05);
  PrintShapeCheck("SNFS/NFS elapsed (SNFS completes significantly faster)",
                  sim::ToSeconds(snfs.elapsed) / sim::ToSeconds(nfs.elapsed), 0.6, 0.95);
  return bench::ShapeCheckStatus();
}
