// Raw simulator throughput: events/sec and sim-time-per-wall-second across
// four microloads, from the bare event queue up to a full protocol stack.
//
//   pure-timer  self-rescheduling closure timers with mixed near/far delays
//               (exercises the timer queue: fast lane and far-timer heap);
//   ping-pong   coroutine pairs bouncing tokens through channels (exercises
//               the Ready() resumption path, the dominant event kind);
//   rpc-echo    closed-loop NullReq RPCs between two peers over the
//               simulated network (resumptions + packet delivery closures);
//   andrew     one Andrew-benchmark trial on the SNFS remote-tmp rig (the
//               realistic mix: cache, disk, RPC, workload coroutines).
//
// This is the one bench family whose headline numbers depend on wall-clock
// time; everything else the repo measures is virtual. The JSON therefore
// separates deterministic fields (events, work units, simulated seconds)
// from machine-dependent ones (wall seconds, events/sec). One sample of a
// wall-clock figure says little on a shared host, so each load runs once to
// warm up and then kSamples times; the table and the JSON give the median,
// min and max of wall seconds and of events/sec (--smoke runs one sample).
// Snapshots are checked in at the repo root as BENCH_simperf.json per the
// ROADMAP's perf-trajectory item; see EXPERIMENTS.md for how to read them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/table.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/workload/andrew.h"

namespace {

using metrics::Table;

struct LoadResult {
  std::string name;
  uint64_t events = 0;      // simulator events processed
  uint64_t work_units = 0;  // load-specific: timer hops, rounds, calls, trials
  double sim_sec = 0;       // virtual time elapsed
  double wall_sec = 0;      // host time elapsed (machine-dependent)

  double events_per_sec() const { return wall_sec > 0 ? events / wall_sec : 0; }
  double sim_per_wall() const { return wall_sec > 0 ? sim_sec / wall_sec : 0; }
};

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// --- pure-timer -------------------------------------------------------------

// A battery of timers, each rescheduling itself with a rotating delay mix:
// mostly near-future (fast-lane territory), occasionally seconds out (heap
// territory), so both sides of the timer queue are exercised.
struct SelfTimer {
  sim::Simulator& simulator;
  uint64_t& hops;
  uint64_t target;
  int step;

  void Fire() {
    static constexpr sim::Duration kDelays[] = {sim::Usec(50), sim::Usec(700), sim::Msec(3),
                                                sim::Msec(40), sim::Sec(2)};
    if (hops >= target) {
      return;
    }
    ++hops;
    ++step;
    simulator.Schedule(kDelays[step % 5], [this] { Fire(); });
  }
};

LoadResult RunPureTimer(uint64_t hops_target) {
  sim::Simulator simulator;
  uint64_t hops = 0;
  std::vector<SelfTimer> timers;
  timers.reserve(64);
  for (int i = 0; i < 64; ++i) {
    timers.push_back(SelfTimer{simulator, hops, hops_target, i});
  }
  WallTimer wall;
  for (SelfTimer& t : timers) {
    t.Fire();
  }
  simulator.Run();
  LoadResult r;
  r.name = "pure_timer";
  r.events = simulator.events_processed();
  r.work_units = hops;
  r.sim_sec = sim::ToSeconds(simulator.Now());
  r.wall_sec = wall.Seconds();
  return r;
}

// --- coroutine ping-pong ----------------------------------------------------

sim::Task<void> Pinger(sim::Channel<int>& tx, sim::Channel<int>& rx, uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    tx.Send(static_cast<int>(i));
    co_await rx.Recv();
  }
  tx.Close();
}

sim::Task<void> Ponger(sim::Channel<int>& rx, sim::Channel<int>& tx) {
  while (true) {
    std::optional<int> v = co_await rx.Recv();
    if (!v.has_value()) {
      co_return;
    }
    tx.Send(*v);
  }
}

LoadResult RunPingPong(uint64_t rounds_per_pair) {
  sim::Simulator simulator;
  constexpr int kPairs = 8;
  std::vector<std::unique_ptr<sim::Channel<int>>> channels;
  for (int i = 0; i < 2 * kPairs; ++i) {
    channels.push_back(std::make_unique<sim::Channel<int>>(simulator));
  }
  WallTimer wall;
  for (int i = 0; i < kPairs; ++i) {
    simulator.Spawn(Pinger(*channels[2 * i], *channels[2 * i + 1], rounds_per_pair));
    simulator.Spawn(Ponger(*channels[2 * i], *channels[2 * i + 1]));
  }
  simulator.Run();
  LoadResult r;
  r.name = "ping_pong";
  r.events = simulator.events_processed();
  r.work_units = rounds_per_pair * kPairs;
  r.sim_sec = sim::ToSeconds(simulator.Now());
  r.wall_sec = wall.Seconds();
  return r;
}

// --- rpc-echo ---------------------------------------------------------------

sim::Task<void> EchoCaller(rpc::Peer& client, net::Address server, uint64_t calls,
                           uint64_t& completed) {
  for (uint64_t i = 0; i < calls; ++i) {
    auto reply = co_await client.Call(server, proto::NullReq{});
    CHECK(reply.ok());
    ++completed;
  }
}

LoadResult RunRpcEcho(uint64_t calls_per_caller) {
  sim::Simulator simulator;
  net::Network network(simulator, {}, /*seed=*/42);
  sim::Cpu client_cpu(simulator);
  sim::Cpu server_cpu(simulator);
  rpc::Peer client(simulator, network, client_cpu, "client");
  rpc::Peer server(simulator, network, server_cpu, "server");
  server.set_handler([](proto::Request, net::Address) -> sim::Task<proto::Reply> {
    co_return proto::OkReply(proto::NullRep{});
  });
  client.Start();
  server.Start();

  constexpr int kCallers = 4;
  uint64_t completed = 0;
  WallTimer wall;
  for (int i = 0; i < kCallers; ++i) {
    simulator.Spawn(EchoCaller(client, server.address(), calls_per_caller, completed));
  }
  simulator.Run();
  LoadResult r;
  r.name = "rpc_echo";
  r.events = simulator.events_processed();
  r.work_units = completed;
  r.sim_sec = sim::ToSeconds(simulator.Now());
  r.wall_sec = wall.Seconds();
  CHECK_EQ(completed, calls_per_caller * kCallers);
  client.Shutdown();
  server.Shutdown();
  return r;
}

// --- andrew replay ----------------------------------------------------------

LoadResult RunAndrewReplay(int trials) {
  testbed::RigOptions options;
  options.protocol = testbed::Protocol::kSnfs;
  options.remote_tmp = true;
  testbed::Rig rig(options);

  workload::AndrewShape shape;
  rig.simulator().Spawn(workload::PopulateAndrewTree(rig.data_fs(), rig.data_parent(), shape));
  rig.simulator().Run();

  uint64_t events0 = rig.simulator().events_processed();
  sim::Time sim0 = rig.simulator().Now();
  WallTimer wall;
  for (int trial = 0; trial < trials; ++trial) {
    workload::AndrewConfig config;
    config.src_root = rig.data_root() + "/src";
    config.target_root = rig.data_root() + "/t" + std::to_string(trial);
    config.tmp_dir = rig.tmp_dir();
    config.shape = shape;
    bool ok = false;
    rig.simulator().Spawn(
        [](testbed::Rig& rig, workload::AndrewConfig config, bool* ok) -> sim::Task<void> {
          auto report = co_await workload::RunAndrew(rig.simulator(), rig.client().vfs(),
                                                     rig.client().cpu(), config);
          CHECK(report.ok());
          *ok = true;
        }(rig, config, &ok));
    rig.simulator().Run();
    CHECK(ok);
  }
  LoadResult r;
  r.name = "andrew_replay";
  r.events = rig.simulator().events_processed() - events0;
  r.work_units = static_cast<uint64_t>(trials);
  r.sim_sec = sim::ToSeconds(rig.simulator().Now() - sim0);
  r.wall_sec = wall.Seconds();
  return r;
}

// --- sampling ---------------------------------------------------------------

constexpr int kSamples = 5;

struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread SpreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  double median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
  return Spread{median, values.front(), values.back()};
}

// One load's samples: the deterministic fields, which every run must
// reproduce, and the spread of the wall-clock ones.
struct LoadSamples {
  LoadResult result;  // the first sample's fields
  int samples = 0;
  Spread wall_sec;
  Spread events_per_sec;
  Spread sim_per_wall;
};

template <typename RunLoad>
LoadSamples Sample(int warmups, int samples, RunLoad run) {
  for (int i = 0; i < warmups; ++i) {
    (void)run();
  }
  LoadSamples out;
  std::vector<double> wall;
  std::vector<double> events_per_sec;
  std::vector<double> sim_per_wall;
  for (int i = 0; i < samples; ++i) {
    LoadResult r = run();
    if (i == 0) {
      out.result = r;
    }
    CHECK_EQ(r.events, out.result.events);
    CHECK_EQ(r.work_units, out.result.work_units);
    CHECK(r.sim_sec == out.result.sim_sec);
    wall.push_back(r.wall_sec);
    events_per_sec.push_back(r.events_per_sec());
    sim_per_wall.push_back(r.sim_per_wall());
  }
  out.samples = samples;
  out.wall_sec = SpreadOf(wall);
  out.events_per_sec = SpreadOf(events_per_sec);
  out.sim_per_wall = SpreadOf(sim_per_wall);
  return out;
}

// --- output -----------------------------------------------------------------

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// `wall_s`, `events_per_sec` and `sim_s_per_wall_s` are medians.
std::string LoadJson(const LoadSamples& s) {
  const LoadResult& r = s.result;
  std::string out = "{";
  out += "\"events\":" + std::to_string(r.events);
  out += ",\"work_units\":" + std::to_string(r.work_units);
  out += ",\"sim_elapsed_s\":" + JsonNum(r.sim_sec);
  out += ",\"samples\":" + std::to_string(s.samples);
  out += ",\"wall_s\":" + JsonNum(s.wall_sec.median);
  out += ",\"wall_s_min\":" + JsonNum(s.wall_sec.min);
  out += ",\"wall_s_max\":" + JsonNum(s.wall_sec.max);
  out += ",\"events_per_sec\":" + JsonNum(s.events_per_sec.median);
  out += ",\"events_per_sec_min\":" + JsonNum(s.events_per_sec.min);
  out += ",\"events_per_sec_max\":" + JsonNum(s.events_per_sec.max);
  out += ",\"sim_s_per_wall_s\":" + JsonNum(s.sim_per_wall.median);
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json=<path>] [--smoke]\n", argv[0]);
      return 2;
    }
  }

  // Smoke sizes keep the whole binary under ~1s for scripts/check.sh; full
  // sizes run each load long enough for stable events/sec.
  uint64_t timer_hops = smoke ? 50'000 : 2'000'000;
  uint64_t pingpong_rounds = smoke ? 20'000 : 500'000;  // per pair
  uint64_t echo_calls = smoke ? 2'000 : 50'000;         // per caller
  int andrew_trials = smoke ? 1 : 2;

  int warmups = smoke ? 0 : 1;
  int samples = smoke ? 1 : kSamples;

  std::printf("=== bench_simperf: raw simulator throughput ===\n\n");
  std::printf("%d sample%s per load%s; med = median\n\n", samples, samples == 1 ? "" : "s",
              warmups > 0 ? " after one warm-up run" : "");
  std::vector<LoadSamples> results;
  results.push_back(Sample(warmups, samples, [&] { return RunPureTimer(timer_hops); }));
  results.push_back(Sample(warmups, samples, [&] { return RunPingPong(pingpong_rounds); }));
  results.push_back(Sample(warmups, samples, [&] { return RunRpcEcho(echo_calls); }));
  results.push_back(Sample(warmups, samples, [&] { return RunAndrewReplay(andrew_trials); }));

  Table t({"Load", "Events", "Work units", "Sim s", "Wall s med", "min", "max", "Events/s med",
           "min", "max", "Sim s/wall s med"});
  for (const LoadSamples& s : results) {
    const LoadResult& r = s.result;
    t.AddRow({r.name, Table::Int(r.events), Table::Int(r.work_units), Table::Num(r.sim_sec, 2),
              Table::Num(s.wall_sec.median, 3), Table::Num(s.wall_sec.min, 3),
              Table::Num(s.wall_sec.max, 3), Table::Num(s.events_per_sec.median, 0),
              Table::Num(s.events_per_sec.min, 0), Table::Num(s.events_per_sec.max, 0),
              Table::Num(s.sim_per_wall.median, 1)});
  }
  t.Print();

  if (!json_path.empty()) {
    std::vector<std::pair<std::string, std::string>> configs;
    for (const LoadSamples& s : results) {
      configs.emplace_back(s.result.name, LoadJson(s));
    }
    bench::WriteBenchJson(json_path, "simperf", configs);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
