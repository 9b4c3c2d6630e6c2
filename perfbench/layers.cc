#include "perfbench/layers.h"

#include <algorithm>
#include <numeric>

namespace perfbench {

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRpcClient:
      return "rpc.client";
    case Layer::kRpcQueueWire:
      return "rpc.queue_wire";
    case Layer::kRpcHandler:
      return "rpc.handle_self";
    case Layer::kCacheFetch:
      return "cache.fetch";
    case Layer::kCacheWriteback:
      return "cache.writeback";
    case Layer::kDisk:
      return "disk";
    case Layer::kCallback:
      return "callback";
    case Layer::kOther:
    case Layer::kCount:
      break;
  }
  return "other";
}

Layer LayerOf(std::string_view name) {
  if (name == "rpc.call") {
    return Layer::kRpcClient;
  }
  if (name == "rpc.attempt") {
    return Layer::kRpcQueueWire;
  }
  if (name == "rpc.handle") {
    return Layer::kRpcHandler;
  }
  if (name == "cache.fetch") {
    return Layer::kCacheFetch;
  }
  if (name == "cache.writeback") {
    return Layer::kCacheWriteback;
  }
  if (name.starts_with("disk.")) {
    return Layer::kDisk;
  }
  if (name.starts_with("snfs.callback") || name == "nqnfs.vacate" ||
      name == "nqnfs.callback_serve") {
    return Layer::kCallback;
  }
  return Layer::kOther;
}

void LayerTimes::Add(const LayerTimes& other) {
  for (int i = 0; i < kNumLayers; ++i) {
    self[static_cast<size_t>(i)] += other.self[static_cast<size_t>(i)];
  }
  root_total += other.root_total;
  trees += other.trees;
  unbalanced_trees += other.unbalanced_trees;
  rpc_call_us.insert(rpc_call_us.end(), other.rpc_call_us.begin(), other.rpc_call_us.end());
  disk_span_total += other.disk_span_total;
}

namespace {

struct SpanRec {
  bool seen = false;
  bool ended = false;
  std::string_view name;
  sim::Time begin = 0;
  sim::Time end = 0;
  uint64_t parent = 0;
  std::vector<uint64_t> children;  // sorted by (begin, id)
};

// Gives every instant of [lo, hi) — an interval span `id` was selected for —
// to `id` or to one of its descendants.
void Assign(std::vector<SpanRec>& spans, uint64_t id, sim::Time lo, sim::Time hi,
            LayerTimes& out) {
  const SpanRec& span = spans[id];
  auto layer = static_cast<size_t>(LayerOf(span.name));
  sim::Time t = lo;
  while (t < hi) {
    uint64_t pick = 0;
    sim::Time next = hi;
    for (uint64_t c : span.children) {
      const SpanRec& child = spans[c];
      if (child.begin > t) {
        next = std::min(next, child.begin);
        break;
      }
      if (child.end > t) {
        pick = c;  // the earliest-begun child still running at t
        break;
      }
    }
    if (pick != 0) {
      sim::Time until = std::min(spans[pick].end, hi);
      Assign(spans, pick, t, until, out);
      t = until;
    } else {
      out.self[layer] += next - t;
      t = next;
    }
  }
}

sim::Duration SelfSum(const LayerTimes& times) {
  return std::accumulate(times.self.begin(), times.self.end(), sim::Duration{0});
}

}  // namespace

LayerTimes AttributeLayers(const std::vector<trace::Event>& events) {
  LayerTimes out;
  sim::Time trace_end = 0;
  uint64_t max_id = 0;
  for (const trace::Event& e : events) {
    trace_end = std::max(trace_end, e.at);
    if (e.kind == trace::EventKind::kSpanBegin) {
      max_id = std::max(max_id, e.span);
    }
  }
  std::vector<SpanRec> spans(max_id + 1);
  for (const trace::Event& e : events) {
    if (e.kind == trace::EventKind::kSpanBegin) {
      SpanRec& s = spans[e.span];
      s.seen = true;
      s.name = e.name;
      s.begin = e.at;
      s.parent = e.parent;
    } else if (e.kind == trace::EventKind::kSpanEnd && e.span <= max_id && spans[e.span].seen) {
      spans[e.span].ended = true;
      spans[e.span].end = e.at;
    }
  }

  std::vector<uint64_t> roots;
  for (uint64_t id = 1; id <= max_id; ++id) {
    SpanRec& s = spans[id];
    if (!s.seen) {
      continue;
    }
    if (s.ended) {
      if (s.name == "rpc.call") {
        out.rpc_call_us.push_back(s.end - s.begin);
      } else if (LayerOf(s.name) == Layer::kDisk) {
        out.disk_span_total += s.end - s.begin;
      }
    } else {
      s.end = trace_end;
    }
    // Parents are always begun before their children; anything else (or a
    // parent from before the recorder was installed) starts a tree of its own.
    if (s.parent != 0 && s.parent < id && spans[s.parent].seen) {
      spans[s.parent].children.push_back(id);
    } else {
      roots.push_back(id);
    }
  }
  for (SpanRec& s : spans) {
    std::sort(s.children.begin(), s.children.end(), [&spans](uint64_t a, uint64_t b) {
      return spans[a].begin != spans[b].begin ? spans[a].begin < spans[b].begin : a < b;
    });
  }

  for (uint64_t root : roots) {
    const SpanRec& s = spans[root];
    sim::Duration before = SelfSum(out);
    Assign(spans, root, s.begin, s.end, out);
    if (SelfSum(out) - before != s.end - s.begin) {
      ++out.unbalanced_trees;
    }
    out.root_total += s.end - s.begin;
    ++out.trees;
  }
  return out;
}

}  // namespace perfbench
