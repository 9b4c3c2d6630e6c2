// Tests for the discrete-event simulation kernel: event ordering, coroutine
// tasks, sleeps, futures, and sync primitives.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/frame_pool.h"
#include "src/sim/future.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sim/trace_ctx.h"

namespace sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(Msec(30), [&] { order.push_back(3); });
  s.Schedule(Msec(10), [&] { order.push_back(1); });
  s.Schedule(Msec(20), [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), Msec(30));
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.Schedule(Msec(5), [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, NestedSchedulingAdvancesClock) {
  Simulator s;
  Time inner_time = -1;
  s.Schedule(Sec(1), [&] { s.Schedule(Sec(2), [&] { inner_time = s.Now(); }); });
  s.Run();
  EXPECT_EQ(inner_time, Sec(3));
}

TEST(SimulatorTest, RunUntilRunsEventExactlyAtDeadline) {
  Simulator s;
  int fired = 0;
  s.Schedule(Sec(2), [&] { ++fired; });
  s.RunUntil(Sec(2));
  EXPECT_EQ(fired, 1);  // "events at exactly `deadline` still run"
  EXPECT_EQ(s.Now(), Sec(2));
}

TEST(SimulatorTest, RunUntilAdvancesThroughBackgroundOnlyEvents) {
  Simulator s;
  int fired = 0;
  // Only background events pending: Run() would return immediately, but
  // RunUntil must still process everything up to its deadline.
  s.Schedule(Msec(10), [&] { ++fired; }, /*background=*/true);
  s.Schedule(Sec(5), [&] { ++fired; }, /*background=*/true);
  Time end = s.RunUntil(Sec(1));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(end, Sec(1));
  EXPECT_EQ(s.background_pending(), 1u);
  EXPECT_EQ(s.foreground_pending(), 0u);
}

TEST(SimulatorTest, RunReturnsWhenOnlyBackgroundEventsRemain) {
  Simulator s;
  int foreground = 0;
  int background = 0;
  s.Schedule(Msec(1), [&] { ++foreground; });
  s.Schedule(Msec(2), [&] { ++background; }, /*background=*/true);
  s.Run();
  EXPECT_EQ(foreground, 1);
  EXPECT_EQ(background, 0);
  EXPECT_EQ(s.Now(), Msec(1));
  EXPECT_EQ(s.background_pending(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.Schedule(Sec(1), [&] { ++fired; });
  s.Schedule(Sec(5), [&] { ++fired; });
  s.RunUntil(Sec(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.Now(), Sec(2));
  s.Run();
  EXPECT_EQ(fired, 2);
}

TEST(TaskTest, SpawnedTaskRunsAndSleeps) {
  Simulator s;
  Time woke = -1;
  s.Spawn([](Simulator& sim, Time& woke) -> Task<void> {
    co_await Sleep(sim, Msec(250));
    woke = sim.Now();
  }(s, woke));
  s.Run();
  EXPECT_EQ(woke, Msec(250));
}

Task<int> AddAfter(Simulator& s, int a, int b, Duration d) {
  co_await Sleep(s, d);
  co_return a + b;
}

TEST(TaskTest, AwaitedChildReturnsValue) {
  Simulator s;
  int result = 0;
  s.Spawn([](Simulator& sim, int& result) -> Task<void> {
    result = co_await AddAfter(sim, 2, 3, Msec(10));
    result += co_await AddAfter(sim, 10, 20, Msec(10));
  }(s, result));
  s.Run();
  EXPECT_EQ(result, 35);
  EXPECT_EQ(s.Now(), Msec(20));
}

Task<int> DeepChain(Simulator& s, int depth) {
  if (depth == 0) {
    co_await Sleep(s, Usec(1));
    co_return 0;
  }
  int below = co_await DeepChain(s, depth - 1);
  co_return below + 1;
}

TEST(TaskTest, DeepAwaitChainsDoNotOverflow) {
  Simulator s;
  int result = -1;
  s.Spawn([](Simulator& sim, int& result) -> Task<void> {
    result = co_await DeepChain(sim, 5000);
  }(s, result));
  s.Run();
  EXPECT_EQ(result, 5000);
}

TEST(FutureTest, AwaitAlreadySetFutureIsImmediate) {
  Simulator s;
  Promise<int> p(s);
  p.Set(42);
  int got = 0;
  s.Spawn([](Promise<int> p, int& got) -> Task<void> {
    got = co_await p.GetFuture();
  }(p, got));
  s.Run();
  EXPECT_EQ(got, 42);
}

TEST(FutureTest, MultipleWaitersAllResume) {
  Simulator s;
  Promise<std::string> p(s);
  std::vector<std::string> got;
  for (int i = 0; i < 3; ++i) {
    s.Spawn([](Promise<std::string> p, std::vector<std::string>& got) -> Task<void> {
      got.push_back(co_await p.GetFuture());
    }(p, got));
  }
  s.Schedule(Sec(1), [&] { p.Set("done"); });
  s.Run();
  ASSERT_EQ(got.size(), 3u);
  for (const auto& v : got) {
    EXPECT_EQ(v, "done");
  }
}

TEST(FutureTest, TrySetIsIdempotent) {
  Simulator s;
  Promise<int> p(s);
  EXPECT_TRUE(p.TrySet(1));
  EXPECT_FALSE(p.TrySet(2));
  int got = 0;
  s.Spawn([](Promise<int> p, int& got) -> Task<void> { got = co_await p.GetFuture(); }(p, got));
  s.Run();
  EXPECT_EQ(got, 1);
}

TEST(MutexTest, MutualExclusionAndFifo) {
  Simulator s;
  Mutex m(s);
  std::vector<int> order;
  int in_critical = 0;
  for (int i = 0; i < 4; ++i) {
    s.Spawn([](Simulator& sim, Mutex& m, std::vector<int>& order, int& in_critical,
               int id) -> Task<void> {
      co_await m.Acquire();
      ++in_critical;
      EXPECT_EQ(in_critical, 1);
      co_await Sleep(sim, Msec(10));
      order.push_back(id);
      --in_critical;
      m.Release();
    }(s, m, order, in_critical, i));
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.Now(), Msec(40));
  EXPECT_FALSE(m.locked());
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulator s;
  Semaphore sem(s, 2);
  int running = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    s.Spawn([](Simulator& sim, Semaphore& sem, int& running, int& peak) -> Task<void> {
      co_await sem.Acquire();
      ++running;
      peak = std::max(peak, running);
      co_await Sleep(sim, Msec(10));
      --running;
      sem.Release();
    }(s, sem, running, peak));
  }
  s.Run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(s.Now(), Msec(30));
}

TEST(WaitGroupTest, WaitsForAll) {
  Simulator s;
  WaitGroup wg(s);
  Time done_at = -1;
  for (int i = 1; i <= 3; ++i) {
    wg.Add();
    s.Spawn([](Simulator& sim, WaitGroup& wg, int i) -> Task<void> {
      co_await Sleep(sim, Sec(i));
      wg.Done();
    }(s, wg, i));
  }
  s.Spawn([](Simulator& sim, WaitGroup& wg, Time& done_at) -> Task<void> {
    co_await wg.Wait();
    done_at = sim.Now();
  }(s, wg, done_at));
  s.Run();
  EXPECT_EQ(done_at, Sec(3));
}

TEST(ChannelTest, SendRecvAcrossTasks) {
  Simulator s;
  Channel<int> ch(s);
  std::vector<int> got;
  s.Spawn([](Channel<int>& ch, std::vector<int>& got) -> Task<void> {
    while (true) {
      std::optional<int> v = co_await ch.Recv();
      if (!v.has_value()) {
        break;
      }
      got.push_back(*v);
    }
  }(ch, got));
  s.Spawn([](Simulator& sim, Channel<int>& ch) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      ch.Send(i);
      co_await Sleep(sim, Msec(1));
    }
    ch.Close();
  }(s, ch));
  s.Run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, CloseWakesBlockedReceivers) {
  Simulator s;
  Channel<int> ch(s);
  bool got_nullopt = false;
  s.Spawn([](Channel<int>& ch, bool& got_nullopt) -> Task<void> {
    std::optional<int> v = co_await ch.Recv();
    got_nullopt = !v.has_value();
  }(ch, got_nullopt));
  s.Schedule(Sec(1), [&] { ch.Close(); });
  s.Run();
  EXPECT_TRUE(got_nullopt);
}

TEST(CpuTest, SerializesWorkAndAccountsBusyTime) {
  Simulator s;
  Cpu cpu(s);
  for (int i = 0; i < 3; ++i) {
    s.Spawn([](Cpu& cpu) -> Task<void> { co_await cpu.Run(Msec(100)); }(cpu));
  }
  s.Run();
  EXPECT_EQ(s.Now(), Msec(300));
  EXPECT_EQ(cpu.busy_time(), Msec(300));
}

TEST(RngTest, DeterministicAndInRange) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = r.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- execution-order contract ------------------------------------------------

// A load whose delays scatter events across all three queue lanes: zero
// (now lane), sub-span (timing wheel), the exact wheel-span boundary, and
// multi-second (far heap).
std::vector<std::pair<Time, uint64_t>> RunScatterLoad(uint64_t seed) {
  Simulator s;
  std::vector<std::pair<Time, uint64_t>> steps;
  s.set_step_observer([&steps](Time at, uint64_t seq) { steps.emplace_back(at, seq); });
  Rng rng(seed);
  int remaining = 4000;
  std::function<void()> hop = [&] {
    if (remaining == 0) {
      return;
    }
    --remaining;
    static constexpr Duration kDelays[] = {0,    Usec(1),        Usec(137), Msec(4),
                                           8191, 8192 /* span */, Sec(3)};
    s.Schedule(kDelays[rng.UniformInt(0, 6)], hop);
  };
  for (int i = 0; i < 8; ++i) {
    s.Schedule(Usec(i), hop);
  }
  s.Run();
  return steps;
}

// The executed (at, seq) stream is the simulator's definition of execution
// order: time-ordered, and FIFO in scheduling order at equal times. Because
// seq is assigned monotonically at schedule time, both together mean the
// stream must be lexicographically sorted — regardless of which lane each
// event traveled through.
TEST(SimulatorTest, ExecutionOrderIsLexicographicallySorted) {
  auto steps = RunScatterLoad(12345);
  ASSERT_GT(steps.size(), 4000u);
  for (size_t i = 1; i < steps.size(); ++i) {
    bool sorted = steps[i - 1].first < steps[i].first ||
                  (steps[i - 1].first == steps[i].first && steps[i - 1].second < steps[i].second);
    ASSERT_TRUE(sorted) << "step " << i << ": (" << steps[i - 1].first << ","
                        << steps[i - 1].second << ") then (" << steps[i].first << ","
                        << steps[i].second << ")";
  }
}

TEST(SimulatorTest, ExecutionOrderIsDeterministicAcrossRuns) {
  auto a = RunScatterLoad(777);
  auto b = RunScatterLoad(777);
  EXPECT_EQ(a, b);
  auto c = RunScatterLoad(778);
  EXPECT_NE(a, c);
}

// --- event-budget overflow diagnostics --------------------------------------

void RunawayLoop() {
  Simulator s;
  s.set_max_events(3);
  std::function<void()> loop;
  loop = [&] { s.Schedule(Usec(1), loop); };
  s.Schedule(Usec(1), loop);
  s.Schedule(Sec(1), [] {}, /*background=*/true);
  s.Run();
}

TEST(SimulatorDeathTest, EventBudgetOverflowReportsDiagnostics) {
  // The third pop of the self-rescheduling loop trips the budget at t=3us;
  // the report must carry the virtual time, the offending event's identity,
  // and the pending-event counts (the background timer is still queued).
  EXPECT_DEATH(RunawayLoop(), "event budget exhausted after 3 events");
  EXPECT_DEATH(RunawayLoop(), "virtual time: 3 us");
  EXPECT_DEATH(RunawayLoop(), "offending event: at=3 us seq=3 foreground");
  EXPECT_DEATH(RunawayLoop(), "pending: 0 foreground \\+ 1 background");
}

// --- per-event task-start budget -------------------------------------------

Task<void> FlushNothing() { co_return; }

// The NQNFS expiry-daemon spin in miniature: the loop re-tests a condition
// that only another event could change, and its awaited child never
// suspends, so the event never ends and set_max_events never counts it.
void SpinWithoutSuspending() {
  Simulator s;
  bool dirty = true;
  s.Spawn([](bool& dirty) -> Task<void> {
    tracectx::current_span = 42;  // the loop runs under span 42
    while (dirty) {
      co_await FlushNothing();
    }
  }(dirty));
  s.Run();
}

TEST(SimulatorDeathTest, LoopWhoseAwaitedChildNeverSuspendsTripsTheStartBudget) {
#ifdef __SANITIZE_ADDRESS__
  // Sanitizer instrumentation keeps symmetric transfer from being a tail
  // call, so each synchronous await nests two stack frames and the loop
  // exhausts the stack (after ~25k starts) before it reaches the budget.
  // It dies either way; it never hangs.
  EXPECT_DEATH(SpinWithoutSuspending(), "stack-overflow");
#else
  EXPECT_DEATH(SpinWithoutSuspending(),
               "task-start budget exhausted: more than 4000000 Task starts within one event.*"
               "virtual time: 0 us.*offending event: at=0 us seq=0 foreground.*"
               "ambient trace span: 42");
#endif
}

// --- teardown ----------------------------------------------------------------

Task<void> ParkOnChannel(Channel<int>& channel, bool& resumed) {
  co_await channel.Recv();
  resumed = true;
}

Task<void> LeafInsideScopedLock(Mutex& mutex, Channel<int>& channel, bool& resumed) {
  ScopedLock lock(mutex);
  co_await lock;
  co_await ParkOnChannel(channel, resumed);
}

Task<void> MiddleOfChain(Mutex& mutex, Channel<int>& channel, bool& resumed) {
  co_await LeafInsideScopedLock(mutex, channel, resumed);
  resumed = true;
}

// Destroying a simulator destroys every root it leaves parked, with the
// children each awaits, wherever it is parked: a channel, a mutex held by
// another parked root, a semaphore, a wait group, a future, a background
// sleep, and two awaits below a held ScopedLock whose mutex has a parked
// waiter. Nothing resumes, every frame is freed, and the ScopedLock's
// mutex is released.
TEST(TeardownTest, DestroyingTheSimulatorReapsEveryParkedRoot) {
  uint64_t live_before = framepool::LiveFrames();
  auto s = std::make_unique<Simulator>();
  Channel<int> channel(*s);
  Mutex held(*s);
  Mutex scoped(*s);
  Semaphore semaphore(*s, 0);
  WaitGroup group(*s);
  group.Add();
  Promise<int> promise(*s);
  bool resumed = false;

  s->Spawn(ParkOnChannel(channel, resumed));
  s->Spawn([](Mutex& held, Semaphore& semaphore, bool& resumed) -> Task<void> {
    co_await held.Acquire();
    co_await semaphore.Acquire();
    resumed = true;
  }(held, semaphore, resumed));
  s->Spawn([](Mutex& held, bool& resumed) -> Task<void> {
    co_await held.Acquire();
    resumed = true;
  }(held, resumed));
  s->Spawn([](WaitGroup& group, bool& resumed) -> Task<void> {
    co_await group.Wait();
    resumed = true;
  }(group, resumed));
  s->Spawn([](Future<int> future, bool& resumed) -> Task<void> {
    co_await future;
    resumed = true;
  }(promise.GetFuture(), resumed));
  s->Spawn([](Simulator& sim, bool& resumed) -> Task<void> {
    co_await Sleep(sim, Sec(30), /*background=*/true);
    resumed = true;
  }(*s, resumed));
  s->Spawn([](Mutex& scoped, Channel<int>& channel, bool& resumed) -> Task<void> {
    co_await MiddleOfChain(scoped, channel, resumed);
    resumed = true;
  }(scoped, channel, resumed));
  s->Spawn([](Mutex& scoped, bool& resumed) -> Task<void> {
    ScopedLock lock(scoped);
    co_await lock;
    resumed = true;
  }(scoped, resumed));
  s->Run();
  ASSERT_TRUE(held.locked());
  ASSERT_TRUE(scoped.locked());
  // Eight roots, plus the three-frame chain below the ScopedLock root.
  EXPECT_EQ(framepool::LiveFrames() - live_before, 11u);

  s.reset();
  EXPECT_EQ(framepool::LiveFrames(), live_before);
  EXPECT_FALSE(resumed);
  EXPECT_FALSE(scoped.locked());  // released by the reaped ScopedLock
  EXPECT_TRUE(held.locked());     // a manual Acquire has no destructor
}

// Reaping runs no event and queues none: the pending counts and the event
// total stay where the run left them, and the simulator cannot run again.
TEST(TeardownTest, ReapingSchedulesNothing) {
  Simulator s;
  Channel<int> channel(s);
  Mutex mutex(s);
  bool resumed = false;
  s.Spawn(LeafInsideScopedLock(mutex, channel, resumed));
  s.Spawn([](Mutex& mutex, bool& resumed) -> Task<void> {
    co_await mutex.Acquire();
    resumed = true;
  }(mutex, resumed));
  s.Spawn([](Simulator& sim) -> Task<void> {
    co_await Sleep(sim, Sec(5), /*background=*/true);
  }(s));
  s.Run();
  uint64_t events = s.events_processed();
  ASSERT_EQ(s.background_pending(), 1u);

  s.ReapParked();
  EXPECT_EQ(s.events_processed(), events);
  EXPECT_EQ(s.foreground_pending(), 0u);
  EXPECT_EQ(s.background_pending(), 1u);
  EXPECT_FALSE(resumed);
  EXPECT_FALSE(mutex.locked());
  EXPECT_DEATH(s.Run(), "reaped_");
}

// Outside teardown, destroying a child that was started and has not
// finished is still a bug: something still holds its handle.
void DestroyStartedChildOutsideTeardown() {
  Simulator s;
  Channel<int> channel(s);
  bool resumed = false;
  std::optional<Task<void>> child;
  child.emplace(ParkOnChannel(channel, resumed));
  s.Spawn([](std::optional<Task<void>>& child) -> Task<void> { co_await *child; }(child));
  s.Run();
  child.reset();
}

TEST(TeardownDeathTest, DestroyingAStartedUnfinishedTaskOutsideTeardownChecks) {
  EXPECT_DEATH(DestroyStartedChildOutsideTeardown(),
               "started \\|\\| handle_.done\\(\\) \\|\\| coroctx::reaping");
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng a(99);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace sim
