// Deterministic causal event tracing.
//
// A trace::Recorder collects fixed-schema events — span begin/end and
// instants — stamped with the virtual time, the machine (network host id)
// they occurred on, and a causal span id. Span ids are assigned from a
// sequential counter and propagated implicitly through the simulator's
// ambient trace context (src/sim/trace_ctx.h): coroutines inherit the span
// active when they were created and keep it across suspensions, and the RPC
// layer carries span ids in proto::Envelope so a client operation's span
// parents the server-side handler, buffer-cache activity, and disk I/O it
// causes — across machines.
//
// Zero cost when disabled: instrumentation sites test trace::Active() (a
// plain global pointer) and do nothing when no recorder is installed.
// Recording never schedules simulator events or suspends, so enabling
// tracing cannot perturb a simulation's results.
//
// Exporters: ToChromeJson() produces a chrome://tracing / Perfetto-loadable
// trace_event array; ToCompactText() is a canonical one-line-per-event text
// form whose FNV-1a checksum is stable across runs for a fixed seed
// (pinned by trace_test).
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/metrics/histogram.h"
#include "src/sim/time.h"
#include "src/sim/trace_ctx.h"

namespace sim {
class Simulator;
}  // namespace sim

namespace trace {

enum class EventKind : uint8_t { kSpanBegin, kSpanEnd, kInstant };

std::string_view EventKindName(EventKind kind);

// Machine id for events that should inherit the enclosing span's machine
// (e.g. buffer-cache and disk activity, which have no host of their own).
inline constexpr int kInheritMachine = -1;

struct Event {
  EventKind kind = EventKind::kInstant;
  sim::Time at = 0;
  int machine = -1;    // network host id; -1 if unattributed
  uint64_t span = 0;   // span begun/ended, or the span an instant belongs to
  uint64_t parent = 0; // begin events only: causal parent span (0 = root)
  std::string name;    // dotted event name, e.g. "rpc.call"
  std::string args;    // deterministic "k=v k=v ..." detail string
};

class Recorder {
 public:
  explicit Recorder(sim::Simulator& simulator) : simulator_(simulator) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Starts a span whose parent is the ambient span; installs the new span as
  // ambient. Returns its id (never 0).
  uint64_t BeginSpan(std::string name, int machine = kInheritMachine, std::string args = {});
  // Same, with an explicit parent (cross-machine causality: the RPC worker
  // parents its handler span from the span id carried in the envelope).
  uint64_t BeginSpanUnder(uint64_t parent, std::string name, int machine, std::string args = {});

  // Ends `span`. Does not touch the ambient context (the Span guard
  // restores it).
  void EndSpan(uint64_t span, std::string args = {});

  void Instant(std::string name, int machine = kInheritMachine, std::string args = {});
  // Instant attributed to an explicit span (for code holding a captured span
  // id, e.g. a packet-delivery lambda).
  void InstantInSpan(uint64_t span, std::string name, int machine, std::string args = {});

  const std::vector<Event>& events() const { return events_; }
  // Machine a span was begun on (-1 for unknown span / unattributed).
  int SpanMachine(uint64_t span) const;

  // Deterministic one-line-per-event form, and its FNV-1a 64 checksum.
  std::string ToCompactText() const;
  uint64_t Checksum() const;

  // Chrome trace_event JSON (load in chrome://tracing or ui.perfetto.dev).
  // pid 0 holds every machine as a tid; span/parent ids ride in args.
  std::string ToChromeJson() const;

  // Durations (in virtual microseconds) of completed spans named `name`,
  // grouped by the value of `key` in their begin args (e.g. name="rpc.call",
  // key="op" buckets RPC latency per operation).
  std::map<std::string, metrics::Histogram> SpanDurationsBy(std::string_view name,
                                                            std::string_view key) const;

  // Same, additionally grouped by the machine the span began on — the fleet
  // benches use this to report per-server RPC latency percentiles.
  std::map<int, std::map<std::string, metrics::Histogram>> SpanDurationsByMachine(
      std::string_view name, std::string_view key) const;

 private:
  sim::Time Now() const;
  int ResolveMachine(int machine, uint64_t parent) const;

  sim::Simulator& simulator_;
  std::vector<Event> events_;
  std::vector<int> span_machines_;  // index = span id - 1
  uint64_t next_span_ = 1;
};

// The active recorder, installed by the testbed (or a test) for the
// duration of a run. Null means tracing is disabled.
Recorder* Active();
void SetActive(Recorder* recorder);

// Extracts the value of `key` from a "k=v k=v" args string ("" if absent).
std::string_view ArgValue(std::string_view args, std::string_view key);

// RAII span guard: begins a span on construction (no-op when tracing is
// disabled) and ends it — restoring the ambient context — on destruction or
// at an explicit End(). Safe to destroy after the recorder was deactivated.
class Span {
 public:
  Span() = default;
  Span(std::string name, int machine = kInheritMachine, std::string args = {}) {
    Begin(std::move(name), machine, std::move(args));
  }
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Begin(std::string name, int machine = kInheritMachine, std::string args = {});
  void BeginUnder(uint64_t parent, std::string name, int machine, std::string args = {});
  void End(std::string args = {});

  bool active() const { return id_ != 0; }
  uint64_t id() const { return id_; }

 private:
  uint64_t id_ = 0;
  uint64_t saved_ambient_ = 0;
};

}  // namespace trace

#define TRACE_INSTANT(name, machine, args)                                               \
  do {                                                                                   \
    if (trace::Recorder* trace_recorder_ = trace::Active()) {                            \
      trace_recorder_->Instant((name), (machine), (args));                               \
    }                                                                                    \
  } while (0)

#endif  // SRC_TRACE_TRACE_H_
