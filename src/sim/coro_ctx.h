// Ambient activity context for simulated coroutines.
//
// An *activity* is one logical chain of Task frames linked by co_await:
// a spawned top-level task plus every child task it awaits (children run
// to completion before the parent resumes, so exactly one frame of the
// chain runs at a time). The ambient id is maintained by the same Task
// awaiter hooks that restore the trace span (src/sim/task.h): a child
// created under a running activity inherits its id, Simulator::Spawn
// mints a fresh id for the new top-level chain, and the Simulator clears
// the ambient before each plain-lambda event.
//
// sim::Mutex uses the ambient id for ownership checks: the activity that
// acquired the lock (not the individual frame) must be the one releasing
// it, which keeps the PrepareForeignWrite pattern — acquire in a child,
// release in the awaiting parent — legal while still catching releases
// from unrelated coroutines and same-activity re-acquires (self-deadlock
// on a FIFO mutex).
//
// Plain global, like tracectx::current_span: the simulator is
// single-threaded, so no TLS needed.
#ifndef SRC_SIM_CORO_CTX_H_
#define SRC_SIM_CORO_CTX_H_

#include <cstdint>

namespace sim::coroctx {

// 0 = no activity (plain scheduled lambdas, code outside the simulator).
inline uint64_t current_activity = 0;
inline uint64_t next_activity = 1;

inline uint64_t NewActivity() { return next_activity++; }

// True while a Simulator destroys the frames still parked at its teardown
// (Simulator::ReapParked). Destroying a frame runs the destructors of its
// locals; the ones that would otherwise act check this flag and stay
// inert: Task destroys its started child instead of CHECK-failing,
// Mutex::Release wakes no waiter, trace::Span records no end event.
inline bool reaping = false;

// Task starts (children begun by co_await) within the event now running;
// Simulator::Step zeroes it before each event. A loop whose awaited child
// never suspends spins at one virtual instant without completing an event,
// so set_max_events never sees it; past this budget the simulator aborts
// with its overflow report instead. The largest count the test suite,
// bench/ and perfbench reach is DESIGN.md §9's; the budget is over 100x it.
inline uint64_t event_task_starts = 0;
inline constexpr uint64_t kMaxTaskStartsPerEvent = 4'000'000;

}  // namespace sim::coroctx

#endif  // SRC_SIM_CORO_CTX_H_
