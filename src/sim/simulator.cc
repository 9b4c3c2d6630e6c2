#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/sim/coro_ctx.h"
#include "src/sim/trace_ctx.h"

namespace sim {
namespace {

// The simulator whose event is running (Step sets it), for the task-start
// overflow report, which fires inside a Task with no simulator at hand.
// Single-threaded by construction; a simulator clears it when it dies.
Simulator* g_current = nullptr;

// Far-heap order: min (at, seq) at the front.
struct FarLater {
  bool operator()(const auto& a, const auto& b) const {
    if (a.at != b.at) {
      return a.at > b.at;
    }
    return a.seq > b.seq;
  }
};

}  // namespace

Simulator::Simulator() : wheel_(std::make_unique<Bucket[]>(kWheelSpan)) {
  roots_.prev = roots_.next = &roots_;
}

Simulator::~Simulator() {
  ReapParked();
  if (g_current == this) {
    g_current = nullptr;
  }
}

Simulator::EventNode* Simulator::AllocNode() {
  if (free_ != nullptr) {
    EventNode* node = free_;
    free_ = node->next;
    node->next = nullptr;
    return node;
  }
  if (chunk_used_ == kChunkNodes) {
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkNodes));
    chunk_used_ = 0;
  }
  return &chunks_.back()[chunk_used_++];
}

void Simulator::FreeNode(EventNode* node) {
  node->handle = nullptr;
  if (node->fn) {
    node->fn = nullptr;
  }
  node->next = free_;
  free_ = node;
}

void Simulator::PushNowLane(EventNode* node) {
  if (now_tail_ != nullptr) {
    now_tail_->next = node;
  } else {
    now_head_ = node;
  }
  now_tail_ = node;
}

void Simulator::PushWheel(EventNode* node) {
  uint64_t idx = static_cast<uint64_t>(node->at) & kWheelMask;
  Bucket& bucket = wheel_[idx];
  if (bucket.head == nullptr) {
    bucket.head = bucket.tail = node;
    bitmap_[idx >> 6] |= uint64_t{1} << (idx & 63);
    ++wheel_count_;  // counts occupied buckets
  } else {
    // Appending keeps the bucket in seq order: one bucket holds exactly one
    // microsecond, and seq is globally monotone.
    bucket.tail->next = node;
    bucket.tail = node;
  }
}

Time Simulator::NextWheelTime() const {
  if (wheel_count_ == 0) {
    return kNoTime;
  }
  // Every occupied bucket holds a time in (now_, now_ + kWheelSpan); the
  // first set bit circularly after now_ is therefore the soonest.
  uint64_t start = static_cast<uint64_t>(now_ + 1) & kWheelMask;
  Time scanned = 0;
  while (scanned < kWheelSpan) {
    uint64_t pos = (start + static_cast<uint64_t>(scanned)) & kWheelMask;
    uint64_t bits = bitmap_[pos >> 6] >> (pos & 63);
    if (bits != 0) {
      Time dist = scanned + std::countr_zero(bits);
      CHECK_LT(dist, kWheelSpan);
      return now_ + 1 + dist;
    }
    scanned += 64 - static_cast<Time>(pos & 63);  // jump to next word
  }
  CHECK(false);  // wheel_count_ > 0 guarantees a set bit
  return kNoTime;
}

void Simulator::Enqueue(Time when, EventNode* node) {
  CHECK_GE(when, now_);
  node->at = when;
  node->seq = next_seq_++;
  node->next = nullptr;
  if (node->background) {
    ++background_pending_;
  } else {
    ++foreground_pending_;
  }
  if (when == now_) {
    PushNowLane(node);
  } else if (when - now_ < kWheelSpan) {
    PushWheel(node);
  } else {
    far_.push_back(FarEntry{when, node->seq, node});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
  }
}

Time Simulator::PeekNextTime() const {
  if (now_head_ != nullptr) {
    return now_;
  }
  Time wheel_t = NextWheelTime();
  Time far_t = far_.empty() ? kNoTime : far_.front().at;
  return wheel_t < far_t ? wheel_t : far_t;
}

bool Simulator::RefillNowLane() {
  Time wheel_t = NextWheelTime();
  Time far_t = far_.empty() ? kNoTime : far_.front().at;
  Time t = wheel_t < far_t ? wheel_t : far_t;
  if (t == kNoTime) {
    return false;
  }
  now_ = t;

  EventNode* wheel_head = nullptr;
  EventNode* wheel_tail = nullptr;
  if (wheel_t == t) {
    uint64_t idx = static_cast<uint64_t>(t) & kWheelMask;
    Bucket& bucket = wheel_[idx];
    wheel_head = bucket.head;
    wheel_tail = bucket.tail;
    bucket.head = bucket.tail = nullptr;
    bitmap_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
    --wheel_count_;
  }
  if (far_t != t) {
    now_head_ = wheel_head;
    now_tail_ = wheel_tail;
    return true;
  }

  // Far-heap run at exactly t: pops come out in seq order.
  EventNode* far_head = nullptr;
  EventNode* far_tail = nullptr;
  while (!far_.empty() && far_.front().at == t) {
    std::pop_heap(far_.begin(), far_.end(), FarLater{});
    EventNode* node = far_.back().node;
    far_.pop_back();
    node->next = nullptr;
    if (far_tail != nullptr) {
      far_tail->next = node;
    } else {
      far_head = node;
    }
    far_tail = node;
  }

  // Merge the two seq-ascending runs so FIFO-at-equal-time holds across
  // lanes (an event scheduled far ahead must still run before a later-
  // scheduled event at the same time).
  EventNode dummy;
  EventNode* tail = &dummy;
  EventNode* a = wheel_head;
  EventNode* b = far_head;
  while (a != nullptr && b != nullptr) {
    EventNode** take = a->seq < b->seq ? &a : &b;
    EventNode* node = *take;
    *take = node->next;
    tail->next = node;
    tail = node;
  }
  if (a != nullptr) {
    tail->next = a;
    now_tail_ = wheel_tail;
  } else if (b != nullptr) {
    tail->next = b;
    now_tail_ = far_tail;
  } else {
    tail->next = nullptr;
    now_tail_ = tail == &dummy ? nullptr : tail;
  }
  now_head_ = dummy.next;
  return now_head_ != nullptr;
}

void Simulator::Schedule(Duration delay, std::function<void()> fn, bool background) {
  CHECK_GE(delay, 0);
  ScheduleAt(now_ + delay, std::move(fn), background);
}

void Simulator::ScheduleAt(Time when, std::function<void()> fn, bool background) {
  EventNode* node = AllocNode();
  node->fn = std::move(fn);
  node->background = background;
  Enqueue(when, node);
}

void Simulator::ScheduleResume(Duration delay, std::coroutine_handle<> h, bool background) {
  CHECK_GE(delay, 0);
  ScheduleResumeAt(now_ + delay, h, background);
}

void Simulator::ScheduleResumeAt(Time when, std::coroutine_handle<> h, bool background) {
  EventNode* node = AllocNode();
  node->handle = h;
  node->background = background;
  Enqueue(when, node);
}

void Simulator::Spawn(Task<void> task) {
  auto handle = task.Release();
  CHECK(handle);
  handle.promise().detached = true;
  handle.promise().started = true;
  // A spawned task is a new top-level chain, not part of the spawner's
  // activity — re-mint so lock-ownership checks see it as a stranger.
  handle.promise().activity = coroctx::NewActivity();
  handle.promise().InsertBefore(roots_);
  ScheduleResumeAt(now_, handle);
}

void Simulator::ReapParked() {
  reaped_ = true;
  bool outer_reaping = std::exchange(coroctx::reaping, true);
  // A reaped trace::Span restores the ambient span it saved; put the
  // caller's back, since roots created after teardown inherit it.
  uint64_t span = tracectx::current_span;
  while (roots_.next != &roots_) {
    detail::RootLink* root = roots_.next;
    root->Unlink();
    // Spawn only takes Task<void>, so every root has its promise type.
    auto& promise =
        static_cast<Task<void>::promise_type&>(static_cast<detail::PromiseBase&>(*root));
    Task<void>::Handle::from_promise(promise).destroy();
  }
  coroctx::reaping = outer_reaping;
  tracectx::current_span = span;
}

void Simulator::ReportOverflow(const char* budget, const char* span_label, uint64_t span,
                               const char* hint) {
  std::fprintf(stderr,
               "sim::Simulator: %s\n"
               "  virtual time: %lld us\n"
               "  offending event: at=%lld us seq=%llu %s\n"
               "  pending: %llu foreground + %llu background events\n"
               "  %s: %llu\n"
               "%s\n",
               budget, static_cast<long long>(now_), static_cast<long long>(now_),
               static_cast<unsigned long long>(running_seq_),
               running_background_ ? "background" : "foreground",
               static_cast<unsigned long long>(foreground_pending_),
               static_cast<unsigned long long>(background_pending_), span_label,
               static_cast<unsigned long long>(span), hint);
  std::abort();
}

void detail::ReportTaskStartOverflow() {
  char budget[160];
  std::snprintf(budget, sizeof budget,
                "task-start budget exhausted: more than %llu Task starts within one event",
                static_cast<unsigned long long>(coroctx::kMaxTaskStartsPerEvent));
  CHECK(g_current != nullptr);  // tasks start only inside a simulator's events
  g_current->ReportOverflow(
      budget, "ambient trace span", tracectx::current_span,
      "Likely a loop whose awaited child never suspends: it re-tests a condition\n"
      "that cannot change until the loop yields to another event.");
}

bool Simulator::Step() {
  if (now_head_ == nullptr && !RefillNowLane()) {
    return false;
  }
  EventNode* node = now_head_;
  now_head_ = node->next;
  if (now_head_ == nullptr) {
    now_tail_ = nullptr;
  }
  if (node->background) {
    CHECK_GT(background_pending_, 0u);
    --background_pending_;
  } else {
    CHECK_GT(foreground_pending_, 0u);
    --foreground_pending_;
  }
  ++events_processed_;
  running_seq_ = node->seq;
  running_background_ = node->background;
  if (events_processed_ >= max_events_) {
    char budget[96];
    std::snprintf(budget, sizeof budget,
                  "event budget exhausted after %llu events (set_max_events)",
                  static_cast<unsigned long long>(events_processed_));
    ReportOverflow(budget, "last completed event's trace span", last_event_span_,
                   "Likely a runaway event loop; if the workload is genuinely this large,\n"
                   "raise the budget with set_max_events().");
  }
  if (step_observer_) {
    step_observer_(node->at, node->seq);
  }
  g_current = this;
  // Plain scheduled lambdas (timers, packet deliveries) run unattributed;
  // coroutine resumptions restore their own span and activity via Task's
  // awaiter hooks.
  tracectx::current_span = 0;
  coroctx::current_activity = 0;
  coroctx::event_task_starts = 0;
  if (node->handle) {
    std::coroutine_handle<> h = node->handle;
    FreeNode(node);
    h.resume();
  } else {
    std::function<void()> fn = std::move(node->fn);
    FreeNode(node);
    fn();
  }
  last_event_span_ = tracectx::current_span;
  return true;
}

Time Simulator::Run() {
  CHECK(!reaped_);  // queued resumptions may name reaped frames
  while (foreground_pending_ > 0 && Step()) {
  }
  return now_;
}

Time Simulator::RunUntil(Time deadline) {
  CHECK(!reaped_);
  while (true) {
    Time next = PeekNextTime();
    if (next == kNoTime || next > deadline) {
      break;
    }
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

}  // namespace sim
