// Fixture: unused-status must stay quiet when the awaited value is consumed,
// explicitly discarded with (void), or suppressed.
#include "src/base/result.h"
#include "src/base/status.h"
#include "src/sim/task.h"

sim::Task<base::Status> Sync();
sim::Task<base::Result<void>> Flush();

sim::Task<base::Status> Caller() {
  base::Status status = co_await Sync();
  if (!status.ok()) {
    co_return status;
  }
  (void)co_await Flush();
  co_await Flush();  // lint: unused-status-ok
  co_return base::OkStatus();
}
