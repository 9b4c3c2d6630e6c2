// The benchmark's three workloads. One call runs one repetition of a
// workload from a fresh set of machines and returns its host timings, its
// deterministic figures (virtual times and layer counters) and the outcome
// of its correctness gates.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/layers.h"

namespace perfbench {

enum class Workload { kAndrew, kSort, kFleet };

// Parses "andrew" / "sort" / "fleet"; false for anything else.
bool ParseWorkload(std::string_view name, Workload* out);

// Metric name -> value.
using Tally = std::map<std::string, double>;

struct RepResult {
  // Host seconds of each set-up (machine construction + out-of-band
  // population) and of each measured phase, in a fixed order per workload.
  std::vector<double> setup_phases_s;
  std::vector<double> wall_phases_s;
  // Virtual-clock end-to-end metrics and per-layer counter metrics. For a
  // given seed these are identical in every repetition, traced or not.
  Tally figures;
  uint64_t attempted = 0;  // workload operations issued
  uint64_t failed = 0;     // operations that failed or returned wrong data
  std::vector<std::string> errors;  // gate failures, one line each (capped)

  // Traced repetitions only.
  LayerTimes layers;
  uint64_t trace_events = 0;
  uint64_t trace_violations = 0;
  double export_s = 0;  // host time of ToChromeJson + Checksum
  double check_s = 0;   // host time of trace::CheckTrace
};

// `seed` 0 selects the inputs the paper-table benches use (bench_andrew's
// and bench_sort's default trees); other seeds perturb only the generated
// inputs. `traced` installs a trace::Recorder over the measured phases.
RepResult RunRep(Workload workload, uint64_t seed, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
