// Ambient causal-trace context for the simulator.
//
// The tracing subsystem (src/trace) attributes events to *spans*; a span id
// is propagated implicitly along the causal chain of execution:
//
//  - a coroutine captures the ambient span at creation and restores it when
//    it first runs (Task's initial awaiter);
//  - every co_await saves the ambient span at suspension and restores it at
//    resumption (Task's await_transform), so interleaved coroutines cannot
//    leak their spans into each other;
//  - the Simulator clears the ambient span before each event, so plain
//    scheduled lambdas (timers, packet deliveries) run unattributed unless
//    they captured a span explicitly.
//
// The simulator is single-threaded by construction, so the context is a
// plain global. Span id 0 means "no span". This header is deliberately
// free of any dependency on src/trace: the sim layer only carries the id.
#ifndef SRC_SIM_TRACE_CTX_H_
#define SRC_SIM_TRACE_CTX_H_

#include <cstdint>

namespace sim {
namespace tracectx {

inline uint64_t current_span = 0;

}  // namespace tracectx
}  // namespace sim

#endif  // SRC_SIM_TRACE_CTX_H_
