// Tests for the sync primitives: FIFO fairness of Mutex / Semaphore /
// WaitGroup / Channel wakeups, the ScopedLock RAII guard, and the
// per-activity ownership CHECKs on sim::Mutex (self-deadlock and release by
// non-owner fail fast instead of hanging).
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace sim {
namespace {

TEST(SyncMutexTest, TransfersOwnershipInFifoOrder) {
  Simulator s;
  Mutex m(s);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    s.Spawn([](Simulator& sim, Mutex& m, std::vector<int>& order, int id) -> Task<void> {
      co_await m.Acquire();
      co_await Sleep(sim, Msec(10));
      order.push_back(id);
      m.Release();
    }(s, m, order, i));
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(m.locked());
}

TEST(SyncMutexTest, ChildAcquireParentReleaseIsOneActivity) {
  // The PrepareForeignWrite pattern: a co_awaited child task acquires and
  // hands the lock to the parent, which releases it later. The whole
  // co_await chain is one activity, so the ownership CHECK stays quiet.
  Simulator s;
  Mutex m(s);
  bool done = false;
  s.Spawn([](Simulator& sim, Mutex& m, bool& done) -> Task<void> {
    Mutex* lock = co_await [](Mutex& inner) -> Task<Mutex*> {
      co_await inner.Acquire();
      co_return &inner;
    }(m);
    co_await Sleep(sim, Msec(1));
    lock->Release();
    done = true;
  }(s, m, done));
  s.Run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(m.locked());
}

TEST(ScopedLockTest, SerializesAndReleasesAtScopeExit) {
  Simulator s;
  Mutex m(s);
  std::vector<int> order;
  int in_critical = 0;
  for (int i = 0; i < 3; ++i) {
    s.Spawn([](Simulator& sim, Mutex& m, std::vector<int>& order, int& in_critical,
               int id) -> Task<void> {
      ScopedLock lock(m);
      co_await lock;
      ++in_critical;
      EXPECT_EQ(in_critical, 1);
      co_await Sleep(sim, Msec(5));
      order.push_back(id);
      --in_critical;
    }(s, m, order, in_critical, i));
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(m.locked());
}

TEST(ScopedLockTest, ReleasesOnEarlyReturn) {
  Simulator s;
  Mutex m(s);
  bool second_ran = false;
  s.Spawn([](Simulator& sim, Mutex& m) -> Task<void> {
    ScopedLock lock(m);
    co_await lock;
    co_await Sleep(sim, Msec(5));
    co_return;  // the guard's destructor releases during frame teardown
  }(s, m));
  s.Spawn([](Mutex& m, bool& second_ran) -> Task<void> {
    ScopedLock lock(m);
    co_await lock;
    second_ran = true;
  }(m, second_ran));
  s.Run();
  EXPECT_TRUE(second_ran);
  EXPECT_FALSE(m.locked());
}

TEST(ScopedLockTest, UnawaitedGuardDoesNotRelease) {
  Simulator s;
  Mutex m(s);
  {
    ScopedLock lock(m);  // declared but never co_awaited: owns nothing
    EXPECT_FALSE(lock.held());
  }
  EXPECT_FALSE(m.locked());
}

TEST(SyncSemaphoreTest, WakesWaitersInFifoOrder) {
  Simulator s;
  Semaphore sem(s, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    s.Spawn([](Simulator& sim, Semaphore& sem, std::vector<int>& order, int id) -> Task<void> {
      co_await sem.Acquire();
      co_await Sleep(sim, Msec(10));
      order.push_back(id);
      sem.Release();
    }(s, sem, order, i));
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sem.count(), 1);
  EXPECT_EQ(sem.waiting(), 0u);
}

TEST(SyncWaitGroupTest, ReleasesWaitersInFifoOrderWhenCountDrops) {
  Simulator s;
  WaitGroup wg(s);
  wg.Add(2);
  std::vector<int> woke;
  for (int i = 0; i < 2; ++i) {
    s.Spawn([](WaitGroup& wg, std::vector<int>& woke, int id) -> Task<void> {
      co_await wg.Wait();
      woke.push_back(id);
    }(wg, woke, i));
  }
  s.Spawn([](Simulator& sim, WaitGroup& wg) -> Task<void> {
    co_await Sleep(sim, Msec(1));
    wg.Done();
    co_await Sleep(sim, Msec(1));
    wg.Done();
  }(s, wg));
  s.Run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1}));
  EXPECT_EQ(wg.count(), 0);
}

TEST(SyncChannelTest, DrainsQueuedValuesInFifoOrder) {
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
  ch.Send(1);
  ch.Send(2);
  ch.Send(3);
  ch.Close();
  s.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(SyncChannelTest, WakesBlockedReceiversInFifoOrder) {
  Simulator s;
  Channel<int> ch(s);
  std::vector<std::pair<int, int>> got;  // (receiver id, value)
  for (int i = 0; i < 2; ++i) {
    s.Spawn([](Channel<int>& ch, std::vector<std::pair<int, int>>& got, int id) -> Task<void> {
      std::optional<int> v = co_await ch.Recv();
      got.push_back({id, v.value_or(-1)});
    }(ch, got, i));
  }
  s.Spawn([](Simulator& sim, Channel<int>& ch) -> Task<void> {
    co_await Sleep(sim, Msec(1));
    ch.Send(10);
    ch.Send(20);
  }(s, ch));
  s.Run();
  EXPECT_EQ(got, (std::vector<std::pair<int, int>>{{0, 10}, {1, 20}}));
}

// --- ownership CHECKs -------------------------------------------------------

void ReacquireHeldMutex() {
  Simulator s;
  Mutex m(s);
  s.Spawn([](Mutex& m) -> Task<void> {
    co_await m.Acquire();
    co_await m.Acquire();  // same activity: guaranteed self-deadlock
  }(m));
  s.Run();
}

TEST(SyncMutexDeathTest, ReacquireByOwnerChecksInsteadOfHanging) {
  EXPECT_DEATH(ReacquireHeldMutex(), "owner_ != coroctx::current_activity");
}

void ReacquireInAwaitedCallee() {
  Simulator s;
  Mutex m(s);
  s.Spawn([](Mutex& m) -> Task<void> {
    co_await m.Acquire();
    // The awaited child runs in the holder's activity, so its acquire is a
    // re-acquire by the owner.
    co_await [](Mutex& inner) -> Task<void> {
      co_await inner.Acquire();
    }(m);
  }(m));
  s.Run();
}

TEST(SyncMutexDeathTest, ReacquireInAwaitedCalleeChecks) {
  EXPECT_DEATH(ReacquireInAwaitedCallee(), "owner_ != coroctx::current_activity");
}

void ReleaseFromForeignActivity() {
  Simulator s;
  Mutex m(s);
  s.Spawn([](Mutex& m) -> Task<void> {
    co_await m.Acquire();
    co_return;  // holds the lock; a different activity tries to release
  }(m));
  s.Spawn([](Mutex& m) -> Task<void> {
    m.Release();
    co_return;
  }(m));
  s.Run();
}

TEST(SyncMutexDeathTest, ReleaseByNonOwnerChecks) {
  EXPECT_DEATH(ReleaseFromForeignActivity(), "owner_ == coroctx::current_activity");
}

void ReleaseUnlockedMutex() {
  Simulator s;
  Mutex m(s);
  s.Spawn([](Mutex& m) -> Task<void> {
    m.Release();
    co_return;
  }(m));
  s.Run();
}

TEST(SyncMutexDeathTest, ReleaseOfUnlockedMutexChecks) {
  EXPECT_DEATH(ReleaseUnlockedMutex(), "locked_");
}

}  // namespace
}  // namespace sim
