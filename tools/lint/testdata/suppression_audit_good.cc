// Fixture: suppression-audit must stay quiet when every suppression absorbs
// a real diagnostic.
#include "src/base/status.h"
#include "src/sim/task.h"

sim::Task<base::Status> Background();

sim::Task<void> Caller() {
  co_await Background();  // lint: unused-status-ok
}
