#include "src/trace/trace.h"

#include <cinttypes>
#include <cstdio>

#include "src/base/check.h"
#include "src/sim/coro_ctx.h"
#include "src/sim/simulator.h"

namespace trace {
namespace {

Recorder* g_active = nullptr;

// FNV-1a 64-bit.
uint64_t Fnv1a(std::string_view text) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

}  // namespace

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSpanBegin:
      return "B";
    case EventKind::kSpanEnd:
      return "E";
    case EventKind::kInstant:
      return "I";
  }
  return "?";
}

Recorder* Active() { return g_active; }

void SetActive(Recorder* recorder) { g_active = recorder; }

std::string_view ArgValue(std::string_view args, std::string_view key) {
  size_t pos = 0;
  while (pos < args.size()) {
    size_t end = args.find(' ', pos);
    if (end == std::string_view::npos) {
      end = args.size();
    }
    std::string_view pair = args.substr(pos, end - pos);
    size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    pos = end + 1;
  }
  return {};
}

sim::Time Recorder::Now() const { return simulator_.Now(); }

int Recorder::ResolveMachine(int machine, uint64_t parent) const {
  if (machine != kInheritMachine) {
    return machine;
  }
  return SpanMachine(parent);
}

int Recorder::SpanMachine(uint64_t span) const {
  if (span == 0 || span >= next_span_) {
    return -1;
  }
  return span_machines_[span - 1];
}

uint64_t Recorder::BeginSpan(std::string name, int machine, std::string args) {
  return BeginSpanUnder(sim::tracectx::current_span, std::move(name), machine, std::move(args));
}

uint64_t Recorder::BeginSpanUnder(uint64_t parent, std::string name, int machine,
                                  std::string args) {
  uint64_t id = next_span_++;
  int resolved = ResolveMachine(machine, parent);
  span_machines_.push_back(resolved);
  events_.push_back(Event{EventKind::kSpanBegin, Now(), resolved, id, parent, std::move(name),
                          std::move(args)});
  sim::tracectx::current_span = id;
  return id;
}

void Recorder::EndSpan(uint64_t span, std::string args) {
  if (span == 0 || span >= next_span_) {
    return;
  }
  events_.push_back(Event{EventKind::kSpanEnd, Now(), span_machines_[span - 1], span, 0,
                          std::string(), std::move(args)});
}

void Recorder::Instant(std::string name, int machine, std::string args) {
  InstantInSpan(sim::tracectx::current_span, std::move(name), machine, std::move(args));
}

void Recorder::InstantInSpan(uint64_t span, std::string name, int machine, std::string args) {
  events_.push_back(Event{EventKind::kInstant, Now(), ResolveMachine(machine, span), span, 0,
                          std::move(name), std::move(args)});
}

std::string Recorder::ToCompactText() const {
  std::string out;
  out.reserve(events_.size() * 48);
  char buf[160];
  for (const Event& e : events_) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 " m%d %s %" PRIu64 "<%" PRIu64 " ",
                  static_cast<int64_t>(e.at), e.machine,
                  std::string(EventKindName(e.kind)).c_str(), e.span, e.parent);
    out += buf;
    out += e.name;
    if (!e.args.empty()) {
      out += ' ';
      out += e.args;
    }
    out += '\n';
  }
  return out;
}

uint64_t Recorder::Checksum() const { return Fnv1a(ToCompactText()); }

std::string Recorder::ToChromeJson() const {
  std::string out = "[\n";
  char buf[192];
  bool first = true;
  for (const Event& e : events_) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    const char* ph = "i";
    switch (e.kind) {
      case EventKind::kSpanBegin:
        ph = "B";
        break;
      case EventKind::kSpanEnd:
        ph = "E";
        break;
      case EventKind::kInstant:
        ph = "i";
        break;
    }
    out += "{\"ph\":\"";
    out += ph;
    out += "\",\"name\":\"";
    // End events reuse their begin's name slot as empty; chrome pairs B/E by
    // nesting per tid, so an empty name is acceptable, but emitting the span
    // id keeps traces debuggable.
    AppendJsonEscaped(out, e.name);
    out += "\"";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%" PRId64 ",\"pid\":0,\"tid\":%d",
                  static_cast<int64_t>(e.at), e.machine < 0 ? 99 : e.machine);
    out += buf;
    if (e.kind == EventKind::kInstant) {
      out += ",\"s\":\"t\"";
    }
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRIu64,
                  e.span, e.parent);
    out += buf;
    out += ",\"detail\":\"";
    AppendJsonEscaped(out, e.args);
    out += "\"}";
    out += "}";
  }
  out += "\n]\n";
  return out;
}

std::map<std::string, metrics::Histogram> Recorder::SpanDurationsBy(std::string_view name,
                                                                    std::string_view key) const {
  // span id -> (begin time, bucket) for spans matching `name`.
  std::map<uint64_t, std::pair<sim::Time, std::string>> open;
  std::map<std::string, metrics::Histogram> out;
  for (const Event& e : events_) {
    if (e.kind == EventKind::kSpanBegin && e.name == name) {
      open.emplace(e.span, std::make_pair(e.at, std::string(ArgValue(e.args, key))));
    } else if (e.kind == EventKind::kSpanEnd) {
      auto it = open.find(e.span);
      if (it != open.end()) {
        out[it->second.second].Add(static_cast<double>(e.at - it->second.first));
        open.erase(it);
      }
    }
  }
  return out;
}

std::map<int, std::map<std::string, metrics::Histogram>> Recorder::SpanDurationsByMachine(
    std::string_view name, std::string_view key) const {
  struct Open {
    sim::Time begin;
    int machine;
    std::string bucket;
  };
  std::map<uint64_t, Open> open;
  std::map<int, std::map<std::string, metrics::Histogram>> out;
  for (const Event& e : events_) {
    if (e.kind == EventKind::kSpanBegin && e.name == name) {
      open.emplace(e.span, Open{e.at, e.machine, std::string(ArgValue(e.args, key))});
    } else if (e.kind == EventKind::kSpanEnd) {
      auto it = open.find(e.span);
      if (it != open.end()) {
        out[it->second.machine][it->second.bucket].Add(
            static_cast<double>(e.at - it->second.begin));
        open.erase(it);
      }
    }
  }
  return out;
}

void Span::Begin(std::string name, int machine, std::string args) {
  Recorder* recorder = Active();
  if (recorder == nullptr || id_ != 0) {
    return;
  }
  saved_ambient_ = sim::tracectx::current_span;
  id_ = recorder->BeginSpan(std::move(name), machine, std::move(args));
}

void Span::BeginUnder(uint64_t parent, std::string name, int machine, std::string args) {
  Recorder* recorder = Active();
  if (recorder == nullptr || id_ != 0) {
    return;
  }
  saved_ambient_ = sim::tracectx::current_span;
  id_ = recorder->BeginSpanUnder(parent, std::move(name), machine, std::move(args));
}

void Span::End(std::string args) {
  if (id_ == 0) {
    return;
  }
  // A span in a frame reaped at teardown ended with its simulation, not
  // here: record nothing.
  Recorder* recorder = Active();
  if (recorder != nullptr && !sim::coroctx::reaping) {
    recorder->EndSpan(id_, std::move(args));
  }
  sim::tracectx::current_span = saved_ambient_;
  id_ = 0;
}

}  // namespace trace
