// Virtual self time per layer, replayed from a causal trace.
//
// A span's self time is its duration minus the part of that interval its
// child spans cover. Children can overlap each other (a read-ahead
// cache.fetch running beside a demand fetch) or outlive their parent (a
// write-behind spawned inside a handler), so plain "duration minus children"
// sums would count some instants twice. AttributeLayers instead partitions
// every root span's interval: each instant goes to exactly one span, found by
// descending from the root into the earliest-begun child active at that
// instant (children clipped to the interval their parent was given) until no
// child is active. The self times of one tree therefore add up exactly to its
// root's duration, and a span no sibling overlaps gets precisely the
// duration-minus-covered-children figure.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/sim/time.h"
#include "src/trace/trace.h"

namespace perfbench {

// The layers the existing spans delimit.
enum class Layer {
  kRpcClient,       // rpc.call: client marshalling CPU before the first attempt
  kRpcQueueWire,    // rpc.attempt not covered by rpc.handle: wire + server queue
  kRpcHandler,      // rpc.handle not covered by cache/disk/nested calls
  kCacheFetch,      // cache.fetch
  kCacheWriteback,  // cache.writeback
  kDisk,            // disk.read / disk.write (queue wait + service)
  kCallback,        // snfs.callback*, nqnfs.vacate, nqnfs.callback_serve
  kOther,           // any span name not listed above
  kCount,
};

inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);

std::string_view LayerName(Layer layer);
Layer LayerOf(std::string_view span_name);

struct LayerTimes {
  std::array<sim::Duration, kNumLayers> self{};  // virtual µs attributed per layer
  sim::Duration root_total = 0;  // Σ root span durations
  uint64_t trees = 0;
  // Trees whose attributed self times do not add up to the root's duration.
  uint64_t unbalanced_trees = 0;
  std::vector<sim::Duration> rpc_call_us;  // durations of completed rpc.call spans
  sim::Duration disk_span_total = 0;       // Σ durations of completed disk.* spans

  void Add(const LayerTimes& other);
};

// Spans still open when the trace ends are treated as ending at the last
// event's timestamp. A span whose parent is not in `events` is a root.
LayerTimes AttributeLayers(const std::vector<trace::Event>& events);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
