// Task<T>: the coroutine type for all simulated activities.
//
// Tasks are lazy: creating one does nothing until it is either awaited
// (`co_await ChildOp()`, which runs the child to completion before the
// parent resumes) or handed to Simulator::Spawn (detached top-level
// activity, e.g. a client workload or a daemon).
//
// Lifetime rules:
//  - An awaited task completes before the awaiter resumes, so the Task
//    object always outlives the coroutine frame.
//  - A spawned task owns itself; its frame is destroyed at final-suspend.
//    Until then it is linked into its simulator's list of roots.
//  - A root still parked when its simulation ends (a daemon on its
//    channel, a background sleep, an op cut off by RunUntil) is destroyed
//    by Simulator::ReapParked: from testbed::Rig's destructor before the
//    machines die, else from ~Simulator. Destroying a root destroys the
//    Task objects in its frame, and each destroys the child it awaits, so
//    the whole parked chain goes with it. Reaping resumes nothing,
//    schedules no event and records no trace event (coroctx::reaping).
//  - An owner that destroys its machines before its simulator (perfbench's
//    Topology) relies on ~Simulator alone, so the reaped frames' locals
//    must touch nothing the machines owned. That holds once Run() has
//    drained: no frame is then parked inside a ScopedLock section, the
//    one local whose destructor reaches into a machine.
//  - Destroying a Task that was started but is not finished is otherwise a
//    bug (some awaitable still holds its handle); we CHECK against it.
//
// Nothing in the simulator throws: an exception that escapes a task body
// terminates the process (the C++ runtime's handler prints it), so a frame
// carries no exception slot and awaiting a task never rethrows.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "src/base/check.h"
#include "src/sim/coro_ctx.h"
#include "src/sim/frame_pool.h"
#include "src/sim/trace_ctx.h"

namespace sim {

template <typename T>
class Task;

namespace detail {

// Wraps every awaitable co_awaited inside a Task coroutine: the ambient
// trace span and activity id are saved when the coroutine suspends and
// restored when it resumes, so both follow the causal chain instead of
// whichever coroutine happens to run next. The `suspended` flag keeps the
// no-suspend fast path (await_ready() == true, e.g. an uncontended Mutex)
// from touching the context at all.
template <typename A>
struct TraceAwaiter {
  A awaitable;
  uint64_t saved_span = 0;
  uint64_t saved_activity = 0;
  bool suspended = false;

  bool await_ready() { return awaitable.await_ready(); }

  template <typename Promise>
  auto await_suspend(std::coroutine_handle<Promise> h) {
    saved_span = tracectx::current_span;
    saved_activity = coroctx::current_activity;
    suspended = true;
    return awaitable.await_suspend(h);
  }

  decltype(auto) await_resume() {
    if (suspended) {
      tracectx::current_span = saved_span;
      coroctx::current_activity = saved_activity;
    }
    return awaitable.await_resume();
  }
};

// Links a spawned root's frame into its simulator's circular list of live
// roots (Simulator::Spawn links, final suspend unlinks), so that teardown
// can find every root still parked.
struct RootLink {
  RootLink* prev = nullptr;
  RootLink* next = nullptr;

  void InsertBefore(RootLink& head) {
    prev = head.prev;
    next = &head;
    head.prev->next = this;
    head.prev = this;
  }
  void Unlink() {
    prev->next = next;
    next->prev = prev;
    prev = next = nullptr;
  }
};

// Aborts through the running simulator's overflow report once the running
// event has started more than coroctx::kMaxTaskStartsPerEvent tasks.
[[noreturn]] void ReportTaskStartOverflow();

inline void CountTaskStart() {
  if (++coroctx::event_task_starts > coroctx::kMaxTaskStartsPerEvent) {
    ReportTaskStartOverflow();
  }
}

struct PromiseBase : RootLink {
  // Coroutine frames allocate through the size-class pool: every simulated
  // activity is a Task, so this removes a malloc/free pair per activity on
  // the hot path (frame_pool.h).
  static void* operator new(size_t n) { return framepool::Alloc(n); }
  static void operator delete(void* p, size_t n) { framepool::Free(p, n); }

  std::coroutine_handle<> continuation;
  bool detached = false;
  bool started = false;
  // Ambient span at coroutine creation; restored when the body first runs.
  uint64_t trace_span = tracectx::current_span;
  // Activity chain this frame belongs to: a child created while an activity
  // runs inherits its id; a root created outside any activity mints a fresh
  // one. Simulator::Spawn re-mints, so spawned tasks are always new chains.
  uint64_t activity =
      coroctx::current_activity != 0 ? coroctx::current_activity : coroctx::NewActivity();

  // Restores the creator's trace context on first resumption (covers both
  // Spawn-scheduled starts and symmetric-transfer starts from co_await).
  struct InitialAwaiter {
    PromiseBase* promise;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {
      tracectx::current_span = promise->trace_span;
      coroctx::current_activity = promise->activity;
    }
  };

  template <typename A>
  TraceAwaiter<A> await_transform(A&& awaitable) {
    return TraceAwaiter<A>{std::forward<A>(awaitable)};
  }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) const noexcept {
      PromiseBase& p = h.promise();
      if (p.continuation) {
        return p.continuation;
      }
      if (p.detached) {
        p.Unlink();
        h.destroy();
      }
      return std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  InitialAwaiter initial_suspend() noexcept { return InitialAwaiter{this}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { std::terminate(); }
};

// What a finished task hands its awaiter: the value of a Task<T>, nothing
// for a Task<void>.
template <typename T>
struct ReturnChannel : PromiseBase {
  std::optional<T> value;

  void return_value(T v) { value.emplace(std::move(v)); }
  T Take() {
    CHECK(value.has_value());
    return std::move(*value);
  }
};

template <>
struct ReturnChannel<void> : PromiseBase {
  void return_void() {}
  void Take() {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::ReturnChannel<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Reset();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Reset(); }

  // Awaiting a task starts it (symmetric transfer) and resumes the awaiter
  // once the task completes, yielding its value.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    CHECK(handle_ && !handle_.promise().started);
    detail::CountTaskStart();
    handle_.promise().started = true;
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  T await_resume() { return handle_.promise().Take(); }

  // Relinquish ownership (used by Simulator::Spawn).
  Handle Release() { return std::exchange(handle_, {}); }

 private:
  void Reset() {
    if (handle_) {
      // Either never started, or ran to completion under co_await, or its
      // parked awaiter is being reaped at teardown.
      CHECK(!handle_.promise().started || handle_.done() || coroctx::reaping);
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

}  // namespace sim

#endif  // SRC_SIM_TASK_H_
