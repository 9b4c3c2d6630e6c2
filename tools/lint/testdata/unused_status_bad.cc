// Fixture: unused-status must fire when the Status/Result payload of an
// awaited task is silently dropped. Plain calls that drop a Status or
// Result are the compiler's: both types are [[nodiscard]] and the build
// makes -Wunused-result an error, so the rule leaves them alone.
#include "src/base/result.h"
#include "src/base/status.h"
#include "src/sim/task.h"

base::Status Apply();
base::Result<int> Compute();
sim::Task<base::Result<void>> Flush();

sim::Task<void> Caller() {
  Apply();            // quiet: a compile error, not a lint finding
  Compute();          // quiet: likewise
  co_await Flush();   // fires: the awaited Result is dropped
}
