// Layer-sum test for AttributeLayers: per-layer self times of every tree add
// up exactly to the root span's duration, including when sibling spans
// overlap (a read-ahead cache.fetch beside a demand fetch), when a child
// outlives its parent, and when a span never ends. Exits nonzero on failure.
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench/layers.h"

namespace {

using perfbench::Layer;
using trace::Event;
using trace::EventKind;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

Event Begin(uint64_t span, uint64_t parent, sim::Time at, std::string name) {
  Event e;
  e.kind = EventKind::kSpanBegin;
  e.span = span;
  e.parent = parent;
  e.at = at;
  e.name = std::move(name);
  return e;
}

Event End(uint64_t span, sim::Time at) {
  Event e;
  e.kind = EventKind::kSpanEnd;
  e.span = span;
  e.at = at;
  return e;
}

sim::Duration Self(const perfbench::LayerTimes& t, Layer layer) {
  return t.self[static_cast<size_t>(layer)];
}

sim::Duration SelfSum(const perfbench::LayerTimes& t) {
  return std::accumulate(t.self.begin(), t.self.end(), sim::Duration{0});
}

// rpc.call [0,100) > rpc.attempt [10,90) > rpc.handle [20,80), whose two
// cache.fetch children overlap: demand [30,60) with a disk.read [35,50), and
// read-ahead [40,70). Subtracting each child's duration separately would
// give 110 µs for a 100 µs call.
void OverlappingFetches() {
  std::vector<Event> events = {
      Begin(1, 0, 0, "rpc.call"),    Begin(2, 1, 10, "rpc.attempt"),
      Begin(3, 2, 20, "rpc.handle"), Begin(4, 3, 30, "cache.fetch"),
      Begin(5, 4, 35, "disk.read"),  Begin(6, 3, 40, "cache.fetch"),
      End(5, 50),                    End(4, 60),
      End(6, 70),                    End(3, 80),
      End(2, 90),                    End(1, 100),
  };
  perfbench::LayerTimes t = perfbench::AttributeLayers(events);
  Expect(t.trees == 1 && t.unbalanced_trees == 0, "overlap: one balanced tree");
  Expect(t.root_total == 100 && SelfSum(t) == 100, "overlap: self times sum to the root");
  Expect(Self(t, Layer::kRpcClient) == 20, "overlap: rpc.call self");
  Expect(Self(t, Layer::kRpcQueueWire) == 20, "overlap: rpc.attempt self");
  Expect(Self(t, Layer::kRpcHandler) == 20, "overlap: rpc.handle self");
  // Demand fetch: [30,60) minus its disk read; read-ahead only after it.
  Expect(Self(t, Layer::kCacheFetch) == 15 + 10, "overlap: cache.fetch self");
  Expect(Self(t, Layer::kDisk) == 15, "overlap: disk self");
  Expect(t.rpc_call_us.size() == 1 && t.rpc_call_us[0] == 100, "overlap: rpc.call duration");
  Expect(t.disk_span_total == 15, "overlap: disk span total");
}

// A write-behind spawned under a handler outlives it; an unfinished span is
// cut at the last event; a span whose parent is unknown is a root.
void EscapingAndOpenSpans() {
  std::vector<Event> events = {
      Begin(1, 0, 0, "rpc.handle"),       Begin(2, 1, 5, "cache.writeback"),
      End(1, 10),                         Begin(3, 99, 12, "rpc.call"),
      Begin(4, 3, 14, "rpc.attempt"),     End(2, 30),
      End(3, 40),
  };
  perfbench::LayerTimes t = perfbench::AttributeLayers(events);
  Expect(t.trees == 2 && t.unbalanced_trees == 0, "escape: two balanced trees");
  Expect(Self(t, Layer::kRpcHandler) == 5, "escape: handler keeps [0,5)");
  Expect(Self(t, Layer::kCacheWriteback) == 5, "escape: writeback clipped to [5,10)");
  // The attempt never ends: it runs to the trace end (40), i.e. [14,40).
  Expect(Self(t, Layer::kRpcClient) == 2 && Self(t, Layer::kRpcQueueWire) == 26,
         "escape: open attempt runs to the trace end");
  Expect(t.root_total == 10 + 28 && SelfSum(t) == t.root_total, "escape: sums");
}

// Same-start siblings: the lower span id wins the tie, the other keeps only
// what outlasts it.
void SameStartSiblings() {
  std::vector<Event> events = {
      Begin(1, 0, 0, "rpc.handle"), Begin(2, 1, 0, "disk.write"), Begin(3, 1, 0, "snfs.callback"),
      End(2, 4),                    End(3, 9),                    End(1, 12),
  };
  perfbench::LayerTimes t = perfbench::AttributeLayers(events);
  Expect(Self(t, Layer::kDisk) == 4 && Self(t, Layer::kCallback) == 5 &&
             Self(t, Layer::kRpcHandler) == 3,
         "ties: lower id first");
  Expect(SelfSum(t) == 12 && t.unbalanced_trees == 0, "ties: sums");
}

}  // namespace

int main() {
  OverlappingFetches();
  EscapingAndOpenSpans();
  SameStartSiblings();
  if (failures > 0) {
    std::printf("%d failure(s)\n", failures);
    return 1;
  }
  std::printf("layers_test: ok\n");
  return 0;
}
