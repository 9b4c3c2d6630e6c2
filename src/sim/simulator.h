// The discrete-event simulator core: a virtual clock and an event queue.
//
// Determinism: events at the same virtual time run in scheduling order
// (FIFO via a monotone sequence number), so a given seed always produces an
// identical execution. All coroutine resumptions go through this queue.
//
// Hot-path design (see DESIGN.md §9). Events are arena-recycled nodes in
// one of three lanes, chosen by how far in the future they land:
//
//   now lane    when == Now(): an intrusive FIFO. This is the dominant
//               case — Ready()/Spawn() resumptions and zero-delay
//               schedules — and costs one free-list pop and two pointer
//               writes, no comparisons and no heap allocation.
//   wheel       0 < when - Now() < kWheelSpan: a timing wheel with one
//               bucket per microsecond (the clock's full resolution, so a
//               bucket never holds two distinct times and FIFO append is
//               already seq order). An occupancy bitmap makes "next
//               nonempty bucket" a word scan.
//   far heap    when - Now() >= kWheelSpan: a binary min-heap of
//               {at, seq, node} entries held by value and ordered by
//               (at, seq), so a sift compares keys without loading nodes —
//               RPC timeouts, daemon periods, crash schedules.
//
// When the now lane drains, the next bucket-or-heap time is found and every
// node at that exact time is spliced into the now lane, merging the wheel
// and heap runs by seq so the FIFO-at-equal-time contract holds across
// lanes. Coroutine resumptions carry a bare coroutine handle — no
// std::function, no closure state; only genuinely closure-shaped events
// (packet deliveries, timers with payloads) pay for one.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/check.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace sim {

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time. Valid at any point, including before Run.
  Time Now() const { return now_; }

  // Enqueue `fn` to run at Now() + delay. delay must be >= 0. Background
  // events (periodic daemon wakeups) do not keep Run() alive: Run() returns
  // once only background events remain.
  void Schedule(Duration delay, std::function<void()> fn, bool background = false);

  // Enqueue at an absolute virtual time (>= Now()).
  void ScheduleAt(Time when, std::function<void()> fn, bool background = false);

  // Closure-free variants for coroutine resumptions: the event carries the
  // bare handle. Sleep, Ready, and Spawn route through these.
  void ScheduleResume(Duration delay, std::coroutine_handle<> h, bool background = false);
  void ScheduleResumeAt(Time when, std::coroutine_handle<> h, bool background = false);

  // Start a detached coroutine. The task begins running at the current
  // virtual time (via the event queue) and owns itself until completion.
  // Until then it is one of this simulator's roots (see ReapParked).
  void Spawn(Task<void> task);

  // Destroy every spawned root still parked (on a channel, a lock, a
  // future, a sleep, or not yet started), together with the child tasks it
  // awaits. Resumes nothing, schedules no event and records no trace event,
  // so no figure moves; the simulator cannot Run again afterwards. The
  // destructor calls it. An owner whose parked frames may hold locks in
  // objects it destroys before the simulator calls it first (testbed::Rig).
  void ReapParked();

  // Process events until no foreground events remain. Returns the final
  // time. Parked coroutines (channel receivers with nothing to receive) and
  // background timers do not count as pending work.
  Time Run();

  // Process events until virtual time exceeds `deadline`; events at exactly
  // `deadline` still run. Returns the time of the last processed event.
  Time RunUntil(Time deadline);

  // Safety valve: on overflow, abort with the current virtual time, the
  // pending-event counts, and the last event's trace span (catches
  // accidental infinite event loops in tests and fault sweeps). A loop
  // that never lets its event end trips the per-event task-start budget
  // instead (coroctx::kMaxTaskStartsPerEvent), through the same report.
  void set_max_events(uint64_t n) { max_events_ = n; }

  uint64_t events_processed() const { return events_processed_; }
  uint64_t foreground_pending() const { return foreground_pending_; }
  uint64_t background_pending() const { return background_pending_; }

  // Resume a coroutine through the event queue at the current time. This is
  // the only way sync primitives wake waiters: it guarantees FIFO fairness
  // and avoids unbounded recursion through resume chains.
  void Ready(std::coroutine_handle<> h) { ScheduleResumeAt(now_, h); }

  // Test hook: observe every executed event's (time, seq) just before it
  // runs. The (at, seq) stream is the simulator's definition of execution
  // order; the determinism tests checksum it.
  using StepObserver = std::function<void(Time at, uint64_t seq)>;
  void set_step_observer(StepObserver observer) { step_observer_ = std::move(observer); }

 private:
  // One queued event. `handle` set: a coroutine resumption; otherwise `fn`
  // runs. Nodes are arena-owned and recycled through a free list; `next`
  // links both the free list and the now-lane / wheel-bucket FIFOs.
  struct EventNode {
    Time at = 0;
    uint64_t seq = 0;
    EventNode* next = nullptr;
    std::coroutine_handle<> handle;
    std::function<void()> fn;
    bool background = false;
  };

  // Wheel geometry: one bucket per microsecond of near future. 8192
  // buckets cover 8.2 ms — network latencies, CPU costs, and disk I/O land
  // here; second-scale timers fall through to the far heap.
  static constexpr int kWheelBits = 13;
  static constexpr Time kWheelSpan = Time{1} << kWheelBits;
  static constexpr uint64_t kWheelMask = kWheelSpan - 1;
  static constexpr size_t kBitmapWords = kWheelSpan / 64;
  static constexpr size_t kChunkNodes = 256;
  static constexpr Time kNoTime = INT64_MAX;

  EventNode* AllocNode();
  void FreeNode(EventNode* node);
  void Enqueue(Time when, EventNode* node);
  void PushNowLane(EventNode* node);
  void PushWheel(EventNode* node);
  Time NextWheelTime() const;
  // Advance the clock to the next event time and splice every node at that
  // time into the now lane (merging wheel and heap runs by seq). False if
  // no events remain.
  bool RefillNowLane();
  // Time of the next event without advancing the clock; kNoTime if none.
  Time PeekNextTime() const;
  bool Step();  // run one event; false if queue empty
  // Abort naming the budget that tripped, the running event's (at, seq)
  // and kind, the pending counts, and a trace span.
  [[noreturn]] void ReportOverflow(const char* budget, const char* span_label, uint64_t span,
                                   const char* hint);
  friend void detail::ReportTaskStartOverflow();

  Time now_ = 0;
  uint64_t foreground_pending_ = 0;
  uint64_t background_pending_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t max_events_ = 2'000'000'000;
  // Trace span left ambient by the most recently completed event; reported
  // by ReportOverflow so runaway loops name their causal span.
  uint64_t last_event_span_ = 0;
  // The event Step is running, for ReportOverflow.
  uint64_t running_seq_ = 0;
  bool running_background_ = false;

  // Sentinel of the circular list of spawned roots not yet finished.
  detail::RootLink roots_;
  bool reaped_ = false;

  // Now lane: intrusive FIFO of events at exactly now_.
  EventNode* now_head_ = nullptr;
  EventNode* now_tail_ = nullptr;

  // Timing wheel: per-bucket FIFO (head/tail) plus an occupancy bitmap.
  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };
  std::unique_ptr<Bucket[]> wheel_;
  uint64_t bitmap_[kBitmapWords] = {};
  size_t wheel_count_ = 0;

  // Far heap: each node's (at, seq) key beside its pointer, ordered by
  // (at, seq), min at front.
  struct FarEntry {
    Time at;
    uint64_t seq;
    EventNode* node;
  };
  std::vector<FarEntry> far_;

  // Node arena: fixed-size chunks, recycled through an intrusive free list.
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  size_t chunk_used_ = kChunkNodes;
  EventNode* free_ = nullptr;

  StepObserver step_observer_;
};

// Awaitable: suspend the current coroutine for `d` of virtual time.
//   co_await sim::Sleep(sim, sim::Msec(30));
struct Sleep {
  Simulator& simulator;
  Duration duration;
  bool background;

  // `background` marks the sleep of a periodic daemon; it does not keep
  // Simulator::Run() alive.
  Sleep(Simulator& s, Duration d, bool background = false)
      : simulator(s), duration(d), background(background) {}

  bool await_ready() const noexcept { return duration <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    simulator.ScheduleResume(duration, h, background);
  }
  void await_resume() const noexcept {}
};

}  // namespace sim

#endif  // SRC_SIM_SIMULATOR_H_
