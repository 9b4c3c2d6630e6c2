// Reproduces paper Table 4-1: the SNFS server state transitions. The state
// table is driven through every (state, event) pair and the realized
// transition — new state, cachability, and callbacks — is printed in the
// paper's layout.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/metrics/table.h"
#include "src/snfs/state_table.h"

namespace {

using metrics::Table;
using snfs::CallbackAction;
using snfs::FileState;
using snfs::FileStateName;
using snfs::OpenResult;
using snfs::StateTable;

const proto::FileHandle kFile{1, 1, 0};
constexpr int kA = 1;  // "this client"
constexpr int kB = 2;  // "another client"

std::string DescribeCallbacks(const std::vector<CallbackAction>& callbacks) {
  if (callbacks.empty()) {
    return "none";
  }
  std::string out;
  for (const CallbackAction& cb : callbacks) {
    if (!out.empty()) {
      out += "; ";
    }
    out += "to ";
    out += cb.host == kA ? "A" : "B";
    out += ":";
    if (cb.writeback) {
      out += " writeback";
    }
    if (cb.invalidate) {
      out += " invalidate";
    }
  }
  return out;
}

// Drive the table into a named starting state using host A (and B for the
// multi-client states).
void Prepare(StateTable& t, FileState state) {
  switch (state) {
    case FileState::kClosed:
      t.OnOpen(kFile, kA, false, 1);
      t.OnClose(kFile, kA, false, false);
      break;
    case FileState::kClosedDirty:
      t.OnOpen(kFile, kA, true, 1);
      t.OnClose(kFile, kA, true, /*has_dirty=*/true);
      break;
    case FileState::kOneReader:
      t.OnOpen(kFile, kA, false, 1);
      break;
    case FileState::kOneRdrDirty:
      t.OnOpen(kFile, kA, true, 1);
      t.OnClose(kFile, kA, true, true);
      t.OnOpen(kFile, kA, false, 1);
      break;
    case FileState::kMultReaders:
      t.OnOpen(kFile, kA, false, 1);
      t.OnOpen(kFile, kB, false, 1);
      break;
    case FileState::kOneWriter:
      t.OnOpen(kFile, kA, true, 1);
      break;
    case FileState::kWriteShared:
      t.OnOpen(kFile, kA, true, 1);
      t.OnOpen(kFile, kB, false, 1);
      break;
  }
}

}  // namespace

int main() {
  std::printf("=== Table 4-1: SNFS server state transitions ===\n");
  std::printf("(host A holds the starting state; events come from A or a new client B)\n\n");

  struct Event {
    const char* name;
    std::function<OpenResult(StateTable&)> apply;
  };
  const std::vector<Event> kEvents = {
      {"open read by A", [](StateTable& t) { return t.OnOpen(kFile, kA, false, 1); }},
      {"open write by A", [](StateTable& t) { return t.OnOpen(kFile, kA, true, 1); }},
      {"open read by B", [](StateTable& t) { return t.OnOpen(kFile, kB, false, 1); }},
      {"open write by B", [](StateTable& t) { return t.OnOpen(kFile, kB, true, 1); }},
  };
  const FileState kStates[] = {FileState::kClosed,      FileState::kClosedDirty,
                               FileState::kOneReader,   FileState::kOneRdrDirty,
                               FileState::kMultReaders, FileState::kOneWriter,
                               FileState::kWriteShared};

  Table table({"Current state", "Event", "New state", "Cachable", "Callbacks"});
  for (FileState state : kStates) {
    for (const Event& event : kEvents) {
      StateTable t;
      Prepare(t, state);
      const StateTable::Entry* before = t.Lookup(kFile);
      CHECK(before != nullptr && before->state() == state);
      OpenResult result = event.apply(t);
      t.CheckInvariants();
      table.AddRow({std::string(FileStateName(state)), event.name,
                    std::string(FileStateName(result.state)),
                    result.cache_enabled ? "yes" : "NO",
                    DescribeCallbacks(result.callbacks)});
    }
  }
  table.Print();

  std::printf("\n=== Close transitions ===\n\n");
  Table closes({"Current state", "Event", "New state"});
  {
    StateTable t;
    t.OnOpen(kFile, kA, true, 1);
    auto r = t.OnClose(kFile, kA, true, /*has_dirty=*/true);
    closes.AddRow({"ONE_WRITER", "final close (dirty)", std::string(FileStateName(r.state))});
  }
  {
    StateTable t;
    t.OnOpen(kFile, kA, true, 1);
    auto r = t.OnClose(kFile, kA, true, false);
    closes.AddRow({"ONE_WRITER", "final close (clean)", std::string(FileStateName(r.state))});
  }
  {
    StateTable t;
    t.OnOpen(kFile, kA, false, 1);
    t.OnOpen(kFile, kA, true, 1);
    auto r = t.OnClose(kFile, kA, true, true);
    closes.AddRow(
        {"ONE_WRITER", "close write, A still reading (dirty)", std::string(FileStateName(r.state))});
  }
  {
    StateTable t;
    t.OnOpen(kFile, kA, false, 1);
    t.OnOpen(kFile, kB, false, 1);
    auto r = t.OnClose(kFile, kB, false, false);
    closes.AddRow({"MULT_READERS", "final close by B", std::string(FileStateName(r.state))});
  }
  {
    StateTable t;
    t.OnOpen(kFile, kA, true, 1);
    t.OnOpen(kFile, kB, false, 1);
    auto r = t.OnClose(kFile, kA, true, false);
    closes.AddRow({"WRITE_SHARED", "writer closes, reader remains",
                   std::string(FileStateName(r.state))});
  }
  {
    StateTable t;
    t.OnOpen(kFile, kA, true, 1);
    t.OnClose(kFile, kA, true, true);
    t.OnOpen(kFile, kA, false, 1);
    auto r = t.OnClose(kFile, kA, false, /*has_dirty=*/true);
    closes.AddRow({"ONE_RDR_DIRTY", "final close (still dirty)",
                   std::string(FileStateName(r.state))});
  }
  closes.Print();

  std::printf("\nState table entry cost: %zu bytes/entry in the paper's implementation (68);\n",
              sizeof(StateTable::Entry));
  std::printf("1000 simultaneously open files within ~%zu KB of table data (paper: ~70 KB).\n",
              1000 * sizeof(StateTable::Entry) / 1024);
  return 0;
}
