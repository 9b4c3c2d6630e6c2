// The deterministic fault-injection harness: FaultPlan semantics (loss,
// duplication, reordering, partitions, per-seed determinism), FaultSchedule
// interpretation against testbed machines (crash/reboot, crash
// mid-RPC-handler), and the seed-sweep driver's protocol invariants under
// NFS and SNFS.
#include <gtest/gtest.h>

#include <vector>

#include "src/fault/plan.h"
#include "src/fault/schedule.h"
#include "src/fault/sweep.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/simulator.h"
#include "src/testbed/fault_runner.h"
#include "src/vfs/vfs.h"
#include "tests/rpc_rig.h"
#include "tests/testbed_util.h"

namespace fault {
namespace {

using testbed::RpcRig;
using testbed::ServerProtocol;
using testbed::TestBytes;
using testbed::World;

// --- FaultInjector unit behaviour -------------------------------------------

TEST(FaultPlanTest, SameSeedReplaysTheSameDecisionSequence) {
  FaultPlan plan;
  plan.loss = 0.2;
  plan.duplicate = 0.2;
  plan.reorder_jitter = sim::Msec(5);
  plan.seed = 77;

  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 1000; ++i) {
    FaultDecision da = a.OnSend(0, 1, sim::Msec(i));
    FaultDecision db = b.OnSend(0, 1, sim::Msec(i));
    ASSERT_EQ(da.drop, db.drop);
    ASSERT_EQ(da.duplicate, db.duplicate);
    ASSERT_EQ(da.extra_delay, db.extra_delay);
    ASSERT_EQ(da.dup_extra_delay, db.dup_extra_delay);
  }
  EXPECT_GT(a.drops(), 0u);
  EXPECT_GT(a.duplicates(), 0u);
  EXPECT_GT(a.delayed(), 0u);
  EXPECT_EQ(a.drops(), b.drops());
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  FaultPlan plan;
  plan.loss = 0.5;
  plan.seed = 1;
  FaultInjector a(plan);
  plan.seed = 2;
  FaultInjector b(plan);
  int differ = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.OnSend(0, 1, 0).drop != b.OnSend(0, 1, 0).drop) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultPlanTest, LinkOverridesBeatPlanDefaults) {
  FaultPlan plan;
  plan.loss = 0.0;
  plan.links.push_back(LinkFaults{.src = 3, .dst = 4, .loss = 1.0});
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.OnSend(3, 4, 0).drop);    // matching link: always dropped
  EXPECT_FALSE(inj.OnSend(4, 3, 0).drop);   // reverse direction: defaults
  EXPECT_FALSE(inj.OnSend(0, 1, 0).drop);
}

TEST(FaultPlanTest, PartitionsCutBothDirectionsUntilHeal) {
  FaultPlan plan;
  plan.partitions.push_back(Partition{.host_a = 0, .host_b = 1,
                                      .start = sim::Sec(1), .heal = sim::Sec(3)});
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.OnSend(0, 1, sim::Msec(500)).drop);  // before start
  EXPECT_TRUE(inj.OnSend(0, 1, sim::Sec(2)).drop);      // active, forward
  EXPECT_TRUE(inj.OnSend(1, 0, sim::Sec(2)).drop);      // active, reverse
  EXPECT_FALSE(inj.OnSend(0, 2, sim::Sec(2)).drop);     // other pair untouched
  EXPECT_FALSE(inj.OnSend(0, 1, sim::Sec(3)).drop);     // healed
  EXPECT_EQ(inj.partition_drops(), 2u);
}

// --- Faults wired into the network + RPC layer ------------------------------

// The shared RPC rig's network under `plan`.
net::NetworkParams WithPlan(FaultPlan plan) {
  net::NetworkParams params;
  params.faults = std::make_shared<FaultPlan>(std::move(plan));
  return params;
}

void AnswerNull(RpcRig& rig) {
  rig.server.set_handler([](proto::Request, net::Address) -> sim::Task<proto::Reply> {
    co_return proto::OkReply(proto::NullRep{});
  });
}

TEST(FaultNetworkTest, DisabledPlanInstallsNoInjector) {
  sim::Simulator simulator;
  net::NetworkParams params;
  params.faults = std::make_shared<FaultPlan>();  // default: nothing enabled
  net::Network network(simulator, params);
  EXPECT_EQ(network.fault_injector(), nullptr);
}

TEST(FaultNetworkTest, DuplicatedRequestsAreSuppressedByTheDupCache) {
  FaultPlan plan;
  plan.duplicate = 1.0;  // every packet delivered twice
  plan.seed = 5;
  RpcRig rig({.network = WithPlan(std::move(plan))});
  AnswerNull(rig);
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    rig.simulator.Spawn([](RpcRig& rig, int& ok) -> sim::Task<void> {
      proto::CreateReq create;  // non-idempotent: its reply is cached
      create.name = "f";
      auto reply = co_await rig.client.Call(rig.server.address(), proto::Request(create));
      if (reply.ok() && reply->status.ok()) {
        ++ok;
      }
    }(rig, ok));
  }
  rig.simulator.Run();
  EXPECT_EQ(ok, 20);
  EXPECT_EQ(rig.network.packets_duplicated(), rig.network.packets_sent());
  // Every duplicated request hit the server's duplicate cache; none of the
  // copies re-executed the handler.
  EXPECT_GE(rig.server.duplicates_suppressed(), 20u);
  EXPECT_EQ(rig.server.server_ops().Get(proto::OpKind::kCreate), 20u);
}

TEST(FaultNetworkTest, ReorderJitterDelaysButDelivers) {
  FaultPlan plan;
  plan.reorder_jitter = sim::Msec(20);
  plan.seed = 9;
  RpcRig rig({.network = WithPlan(std::move(plan))});
  AnswerNull(rig);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    rig.simulator.Spawn([](RpcRig& rig, int& ok) -> sim::Task<void> {
      auto reply = co_await rig.client.Call(rig.server.address(),
                                            proto::Request(proto::NullReq{}));
      if (reply.ok() && reply->status.ok()) {
        ++ok;
      }
    }(rig, ok));
  }
  rig.simulator.Run();
  EXPECT_EQ(ok, 10);
  ASSERT_NE(rig.network.fault_injector(), nullptr);
  EXPECT_GT(rig.network.fault_injector()->delayed(), 0u);
}

TEST(FaultNetworkTest, PartitionStallsCallsUntilHeal) {
  // Hosts attach in construction order: client = 0, server = 1.
  FaultPlan plan;
  plan.partitions.push_back(Partition{.host_a = 0, .host_b = 1,
                                      .start = sim::Sec(1), .heal = sim::Sec(3)});
  RpcRig rig({.network = WithPlan(std::move(plan))});
  AnswerNull(rig);
  bool done = false;
  rig.simulator.Spawn([](RpcRig& rig, bool& done) -> sim::Task<void> {
    co_await sim::Sleep(rig.simulator, sim::Msec(1500));
    rpc::CallOptions opts;
    opts.timeout = sim::Msec(500);
    opts.max_attempts = 8;
    auto reply = co_await rig.client.Call(rig.server.address(),
                                          proto::Request(proto::NullReq{}), opts);
    EXPECT_TRUE(reply.ok());
    // The call cannot complete while the partition is up.
    EXPECT_GE(rig.simulator.Now(), sim::Sec(3));
    done = true;
  }(rig, done));
  rig.simulator.RunUntil(sim::Sec(30));
  EXPECT_TRUE(done);
  ASSERT_NE(rig.network.fault_injector(), nullptr);
  EXPECT_GT(rig.network.fault_injector()->partition_drops(), 0u);
  EXPECT_GT(rig.client.retransmissions(), 0u);
}

// --- FaultSchedule against testbed machines ---------------------------------

TEST(FaultScheduleTest, ScheduledServerCrashAndRebootAreApplied) {
  World w(ServerProtocol::kNfs, 1);
  w.client(0).MountNfs("/data", w.server->address(), w.server->root());

  FaultSchedule schedule;
  schedule.CrashServerAt(sim::Sec(2)).RebootServerAt(sim::Sec(4));
  testbed::ApplyFaultSchedule(w.simulator, w.network, w.server.get(),
                              {&w.client(0)}, schedule);

  bool done = false;
  w.simulator.Spawn([](World& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    EXPECT_TRUE((co_await v.WriteFile("/data/f", TestBytes("before"))).ok());
    co_await sim::Sleep(w.simulator, sim::Sec(2) + sim::Msec(500));
    EXPECT_FALSE(w.server->peer().running());  // schedule crashed it at 2s
    // NFS is stateless: retransmissions bridge the outage once rebooted.
    auto got = co_await v.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    EXPECT_TRUE(w.server->peer().running());
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(60));
  EXPECT_TRUE(done);
}

TEST(FaultScheduleTest, ScheduledClientCrashAndRestartAreApplied) {
  World w(ServerProtocol::kNfs, 1);
  w.client(0).MountNfs("/data", w.server->address(), w.server->root());

  FaultSchedule schedule;
  schedule.CrashClientAt(sim::Sec(2), 0).RestartClientAt(sim::Sec(3), 0);
  testbed::ApplyFaultSchedule(w.simulator, w.network, w.server.get(),
                              {&w.client(0)}, schedule);

  bool done = false;
  w.simulator.Spawn([](World& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    EXPECT_TRUE((co_await v.WriteFile("/data/f", TestBytes("durable"))).ok());
    EXPECT_TRUE((co_await v.ReadFile("/data/f")).ok());  // now cached
    co_await sim::Sleep(w.simulator, sim::Sec(2) + sim::Msec(500));
    EXPECT_FALSE(w.client(0).started());
    co_await sim::Sleep(w.simulator, sim::Sec(1));
    EXPECT_TRUE(w.client(0).started());
    // The cache died with the crash; the read refetches from the server.
    uint64_t reads_before = w.client(0).peer().client_ops().Get(proto::OpKind::kRead);
    auto got = co_await v.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    EXPECT_GT(w.client(0).peer().client_ops().Get(proto::OpKind::kRead), reads_before);
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(60));
  EXPECT_TRUE(done);
}

TEST(FaultScheduleTest, CrashMidHandlerKillsTheDispatchedRequest) {
  World w(ServerProtocol::kNfs, 1);
  w.client(0).MountNfs("/data", w.server->address(), w.server->root());

  FaultSchedule schedule;
  schedule.CrashServerInHandlerAt(sim::Sec(2)).RebootServerAt(sim::Sec(5));
  testbed::ApplyFaultSchedule(w.simulator, w.network, w.server.get(),
                              {&w.client(0)}, schedule);

  bool done = false;
  w.simulator.Spawn([](World& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    // Keep RPCs flowing so a handler dispatch lands at/after the trigger.
    for (int i = 0; i < 8; ++i) {
      (void)co_await v.WriteFile("/data/f", TestBytes("v" + std::to_string(i)));
      co_await sim::Sleep(w.simulator, sim::Msec(400));
    }
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(60));
  EXPECT_TRUE(done);
  // The hook fired: the server crashed out from under a dispatched request
  // (generation bumped by the scheduled reboot) and came back.
  EXPECT_GE(w.server->peer().generation(), 1u);
  EXPECT_TRUE(w.server->peer().running());
}

// --- Seed sweeps: protocol invariants under scripted chaos ------------------

SweepOptions ChaosOptions(ServerProtocol protocol) {
  SweepOptions options;
  options.protocol = protocol;
  options.plan.loss = 0.03;
  options.plan.duplicate = 0.03;
  options.plan.reorder_jitter = sim::Msec(2);
  options.schedule.CrashServerAt(sim::Sec(20))
      .RebootServerAt(sim::Sec(28))
      .CrashClientAt(sim::Sec(45), 1)
      .RestartClientAt(sim::Sec(55), 1)
      .CrashServerInHandlerAt(sim::Sec(65))
      .RebootServerAt(sim::Sec(70));
  return options;
}

void ExpectSweepClean(const SweepResult& result, int num_seeds) {
  ASSERT_EQ(static_cast<int>(result.seeds.size()), num_seeds);
  const SeedStats* failure = result.first_failure();
  EXPECT_TRUE(result.all_ok())
      << "seed " << (failure != nullptr ? failure->seed : 0) << ": "
      << (failure != nullptr ? failure->failure : "");
  uint64_t total_retransmissions = 0;
  for (const SeedStats& s : result.seeds) {
    EXPECT_GT(s.ops_ok, 0u) << "seed " << s.seed << " made no progress";
    EXPECT_GT(s.invariant_checks, 0u);
    // The schedule reboots the server; clients must get going again.
    EXPECT_GE(s.recovery_latency, 0) << "seed " << s.seed << " never recovered";
    total_retransmissions += s.retransmissions;
  }
  // The fault mix actually bit: losses forced retransmissions somewhere.
  EXPECT_GT(total_retransmissions, 0u);
}

TEST(FaultSweepTest, NfsSurvivesTwentySeedsOfChaos) {
  SweepResult result = RunFaultSweep(ChaosOptions(ServerProtocol::kNfs), 1, 20);
  ExpectSweepClean(result, 20);
}

TEST(FaultSweepTest, SnfsSurvivesTwentySeedsOfChaos) {
  SweepResult result = RunFaultSweep(ChaosOptions(ServerProtocol::kSnfs), 1, 20);
  ExpectSweepClean(result, 20);
}

TEST(FaultSweepTest, SeedRunsAreReproducible) {
  SweepOptions options = ChaosOptions(ServerProtocol::kSnfs);
  SeedStats a = RunFaultSeed(options, 7);
  SeedStats b = RunFaultSeed(options, 7);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.ops_attempted, b.ops_attempted);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.packets_duplicated, b.packets_duplicated);
  EXPECT_EQ(a.recovery_latency, b.recovery_latency);
}

// Pinned golden for the determinism contract. The counters are downstream
// of event order — retransmissions depend on timeout-vs-reply races,
// duplication counts on RNG draw order, the trace event count on every
// scheduling decision in the run — so a failure here means the contract
// (time order, FIFO at equal time) moved, not just a statistic. The cell
// was captured under the original std::function-heap simulator and
// reproduced exactly under the three-lane queue.
//
// It was re-pinned once, on purpose, when the server's duplicate-request
// cache stopped keeping idempotent replies (proto::CachesReply). A
// retransmitted read, getattr or lookup used to be dropped while the
// original was still executing, leaving the client to wait for a later
// retransmission; now it runs again and its reply goes out at once. The
// clients therefore get further through the same horizon (221 -> 233 ops
// attempted) and different replies race the timeouts: 71 -> 78
// retransmissions, 53 -> 47 suppressed duplicates (only cached ops count
// now). Every invariant, the retransmit-once trace rule included, still
// holds.
TEST(FaultSweepTest, SeedSevenChaosCellMatchesPinnedGolden) {
  SweepOptions options = ChaosOptions(ServerProtocol::kSnfs);
  options.trace_check = true;
  SeedStats s = RunFaultSeed(options, 7);
  EXPECT_TRUE(s.ok) << s.failure;
  EXPECT_EQ(s.ops_attempted, 233u);
  EXPECT_EQ(s.ops_ok, 231u);
  EXPECT_EQ(s.reads_verified, 117u);
  EXPECT_EQ(s.trace_events, 10812u);
  EXPECT_EQ(s.trace_violations, 0u);
  EXPECT_EQ(s.retransmissions, 78u);
  EXPECT_EQ(s.duplicates_suppressed, 47u);
  EXPECT_EQ(s.stale_replies_dropped, 0u);
  EXPECT_EQ(s.packets_dropped, 83u);
  EXPECT_EQ(s.packets_duplicated, 47u);
  EXPECT_EQ(s.recovery_latency, 8095067);
}

}  // namespace
}  // namespace fault
