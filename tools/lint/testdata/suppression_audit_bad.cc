// Fixture: suppression-audit must fire on a suppression that no longer
// absorbs any diagnostic and on a suppression naming an unknown rule.
#include "src/base/status.h"
#include "src/sim/task.h"

sim::Task<base::Status> Work();

sim::Task<void> Caller() {
  (void)co_await Work();  // lint: unused-status-ok
  int x = 0;              // lint: not-a-rule-ok
  (void)x;
  co_return;
}
