// Synchronization primitives for simulated coroutines.
//
// All wakeups are funneled through Simulator::Ready, so waiters resume in
// FIFO order at the current virtual time — deterministic and fair.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/sim/coro_ctx.h"
#include "src/sim/simulator.h"

namespace sim {

// FIFO mutex. Use Acquire/Release directly or the ScopedLock helper:
//   co_await mutex.Acquire();
//   ... critical section (may co_await) ...
//   mutex.Release();
//
// Ownership is tracked per *activity* (the co_await chain, see
// src/sim/coro_ctx.h): re-acquiring a mutex the current activity already
// holds is a guaranteed self-deadlock on a FIFO mutex, and releasing a
// mutex some other activity holds corrupts the critical section — both
// CHECK-fail immediately instead of hanging or silently interleaving.
// Acquiring in a child task and releasing in the awaiting parent (the
// PrepareForeignWrite pattern) is one activity and stays legal.
class Mutex {
 public:
  explicit Mutex(Simulator& simulator) : simulator_(simulator) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  struct Acquirer {
    Mutex& mutex;
    bool await_ready() const noexcept {
      if (!mutex.locked_) {
        mutex.locked_ = true;
        mutex.owner_ = coroctx::current_activity;
        return true;
      }
      CHECK(mutex.owner_ != coroctx::current_activity);  // self-deadlock
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      mutex.waiters_.push_back(Waiter{h, coroctx::current_activity});
    }
    void await_resume() const noexcept {}
  };

  Acquirer Acquire() { return Acquirer{*this}; }

  void Release() {
    CHECK(locked_);
    if (coroctx::reaping) {
      // A ScopedLock in a frame destroyed at teardown: its waiters are
      // parked frames being destroyed too, so unlock and wake nobody.
      locked_ = false;
      owner_ = 0;
      waiters_.clear();
      return;
    }
    CHECK(owner_ == coroctx::current_activity);  // release by non-owner
    if (!waiters_.empty()) {
      // Ownership transfers directly to the first waiter.
      Waiter next = waiters_.front();
      waiters_.pop_front();
      owner_ = next.activity;
      simulator_.Ready(next.handle);
    } else {
      locked_ = false;
      owner_ = 0;
    }
  }

  bool locked() const { return locked_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    uint64_t activity;
  };

  Simulator& simulator_;
  bool locked_ = false;
  uint64_t owner_ = 0;
  std::deque<Waiter> waiters_;
};

// Awaitable RAII guard for Mutex: co_await acquires, the destructor
// releases if still held. For critical sections that end with their
// enclosing scope:
//   sim::ScopedLock lock(mutex);
//   co_await lock;
//   ... critical section (may co_await) ...
// Keep manual Acquire/Release where ownership escapes the scope (early
// release before more work, or transfer to another coroutine).
class ScopedLock {
 public:
  explicit ScopedLock(Mutex& mutex) : mutex_(mutex) {}

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

  ~ScopedLock() {
    if (held_) {
      mutex_.Release();
    }
  }

  bool await_ready() const noexcept { return Mutex::Acquirer{mutex_}.await_ready(); }
  void await_suspend(std::coroutine_handle<> h) { Mutex::Acquirer{mutex_}.await_suspend(h); }
  void await_resume() noexcept { held_ = true; }

  bool held() const { return held_; }

 private:
  Mutex& mutex_;
  bool held_ = false;
};

// Counting semaphore with FIFO wakeup.
class Semaphore {
 public:
  Semaphore(Simulator& simulator, int64_t initial) : simulator_(simulator), count_(initial) {
    CHECK_GE(initial, 0);
  }

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Acquirer {
    Semaphore& sem;
    bool await_ready() const noexcept {
      if (sem.count_ > 0) {
        --sem.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { sem.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Acquirer Acquire() { return Acquirer{*this}; }

  void Release() {
    if (!waiters_.empty()) {
      std::coroutine_handle<> next = waiters_.front();
      waiters_.pop_front();
      simulator_.Ready(next);
    } else {
      ++count_;
    }
  }

  int64_t count() const { return count_; }
  size_t waiting() const { return waiters_.size(); }

 private:
  Simulator& simulator_;
  int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Wait for a set of activities to finish (Go-style).
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& simulator) : simulator_(simulator) {}

  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void Add(int64_t n = 1) { count_ += n; }

  void Done() {
    CHECK_GT(count_, 0);
    if (--count_ == 0) {
      for (std::coroutine_handle<> h : waiters_) {
        simulator_.Ready(h);
      }
      waiters_.clear();
    }
  }

  struct Waiter {
    WaitGroup& wg;
    bool await_ready() const noexcept { return wg.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) { wg.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Waiter Wait() { return Waiter{*this}; }

  int64_t count() const { return count_; }

 private:
  Simulator& simulator_;
  int64_t count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Unbounded FIFO channel. Recv yields std::optional<T>: nullopt once the
// channel is closed and drained. Daemons use Close as their stop signal.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& simulator) : simulator_(simulator) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void Send(T value) {
    CHECK(!closed_);
    if (!waiters_.empty()) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      w.slot->emplace(std::move(value));
      simulator_.Ready(w.handle);
      return;
    }
    queue_.push_back(std::move(value));
  }

  // Close the channel: queued items still drain, then Recv returns nullopt.
  void Close() {
    if (closed_) {
      return;
    }
    closed_ = true;
    for (const Waiter& w : waiters_) {
      simulator_.Ready(w.handle);  // slot stays empty -> nullopt
    }
    waiters_.clear();
  }

  struct Receiver {
    Channel& channel;
    std::optional<T> result;

    bool await_ready() {
      if (!channel.queue_.empty()) {
        result.emplace(std::move(channel.queue_.front()));
        channel.queue_.pop_front();
        return true;
      }
      return channel.closed_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      channel.waiters_.push_back(Waiter{h, &result});
    }
    std::optional<T> await_resume() { return std::move(result); }
  };

  Receiver Recv() { return Receiver{*this, std::nullopt}; }

  size_t size() const { return queue_.size(); }
  bool closed() const { return closed_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;
  };

  Simulator& simulator_;
  bool closed_ = false;
  std::deque<T> queue_;
  std::deque<Waiter> waiters_;
};

}  // namespace sim

#endif  // SRC_SIM_SYNC_H_
