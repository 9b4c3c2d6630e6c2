// Exhaustive tests of the SNFS server state table (paper §4.3.4, Table 4-1)
// plus a randomized property sweep checking the structural invariants after
// arbitrary legal open/close sequences.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/sim/random.h"
#include "src/snfs/state_table.h"

namespace snfs {
namespace {

const proto::FileHandle kFile{1, 42, 0};
constexpr int kHostA = 1;
constexpr int kHostB = 2;
constexpr int kHostC = 3;

FileState StateOf(const StateTable& table) {
  const StateTable::Entry* entry = table.Lookup(kFile);
  EXPECT_NE(entry, nullptr);
  return entry == nullptr ? FileState::kClosed : entry->state();
}

// --- Table 4-1: open transitions --------------------------------------------

TEST(StateTableOpen, ClosedToOneReader) {
  StateTable t;
  OpenResult r = t.OnOpen(kFile, kHostA, /*write=*/false, /*stable_version=*/1);
  EXPECT_TRUE(r.cache_enabled);
  EXPECT_TRUE(r.callbacks.empty());
  EXPECT_FALSE(r.version_bumped);
  EXPECT_EQ(r.state, FileState::kOneReader);
  t.CheckInvariants();
}

TEST(StateTableOpen, ClosedToOneWriterBumpsVersion) {
  StateTable t;
  OpenResult r = t.OnOpen(kFile, kHostA, /*write=*/true, 7);
  EXPECT_TRUE(r.cache_enabled);
  EXPECT_TRUE(r.version_bumped);
  EXPECT_EQ(r.version, 8u);
  EXPECT_EQ(r.prev_version, 7u);
  EXPECT_EQ(r.state, FileState::kOneWriter);
  t.CheckInvariants();
}

TEST(StateTableOpen, SecondReaderMakesMultReaders) {
  StateTable t;
  t.OnOpen(kFile, kHostA, false, 1);
  OpenResult r = t.OnOpen(kFile, kHostB, false, 1);
  EXPECT_TRUE(r.cache_enabled);
  EXPECT_TRUE(r.callbacks.empty());
  EXPECT_EQ(r.state, FileState::kMultReaders);
  t.CheckInvariants();
}

TEST(StateTableOpen, SameReaderAgainNoTransition) {
  StateTable t;
  t.OnOpen(kFile, kHostA, false, 1);
  OpenResult r = t.OnOpen(kFile, kHostA, false, 1);
  EXPECT_EQ(r.state, FileState::kOneReader);
  EXPECT_TRUE(r.callbacks.empty());
}

TEST(StateTableOpen, ReaderUpgradesToWriterSameClient) {
  StateTable t;
  t.OnOpen(kFile, kHostA, false, 1);
  OpenResult r = t.OnOpen(kFile, kHostA, true, 1);
  EXPECT_TRUE(r.cache_enabled);
  EXPECT_TRUE(r.callbacks.empty());
  EXPECT_EQ(r.state, FileState::kOneWriter);
}

TEST(StateTableOpen, WriterArrivesOverReaderIsWriteShared) {
  StateTable t;
  t.OnOpen(kFile, kHostA, false, 1);
  OpenResult r = t.OnOpen(kFile, kHostB, true, 1);
  EXPECT_FALSE(r.cache_enabled);
  EXPECT_EQ(r.state, FileState::kWriteShared);
  // The existing reader must be told to stop caching; it has nothing dirty.
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].invalidate);
  EXPECT_FALSE(r.callbacks[0].writeback);
  t.CheckInvariants();
}

TEST(StateTableOpen, ReaderArrivesOverWriterCallsBackWriter) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  OpenResult r = t.OnOpen(kFile, kHostB, false, 1);
  EXPECT_FALSE(r.cache_enabled);
  EXPECT_EQ(r.state, FileState::kWriteShared);
  // "the first writer must be told to stop caching its copy and to return
  // all the dirty pages to the server".
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].invalidate);
  EXPECT_TRUE(r.callbacks[0].writeback);
}

TEST(StateTableOpen, WriterOverMultReadersInvalidatesAll) {
  StateTable t;
  t.OnOpen(kFile, kHostA, false, 1);
  t.OnOpen(kFile, kHostB, false, 1);
  OpenResult r = t.OnOpen(kFile, kHostC, true, 1);
  EXPECT_FALSE(r.cache_enabled);
  EXPECT_EQ(r.state, FileState::kWriteShared);
  ASSERT_EQ(r.callbacks.size(), 2u);
  for (const CallbackAction& cb : r.callbacks) {
    EXPECT_TRUE(cb.invalidate);
    EXPECT_FALSE(cb.writeback);
    EXPECT_TRUE(cb.host == kHostA || cb.host == kHostB);
  }
}

TEST(StateTableOpen, WriterOverMultReadersSkipsSelfCallback) {
  StateTable t;
  t.OnOpen(kFile, kHostA, false, 1);
  t.OnOpen(kFile, kHostB, false, 1);
  // A, already reading, now opens for write: only B needs a callback.
  OpenResult r = t.OnOpen(kFile, kHostA, true, 1);
  EXPECT_FALSE(r.cache_enabled);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostB);
}

TEST(StateTableOpen, SecondWriterOverWriterIsWriteShared) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  OpenResult r = t.OnOpen(kFile, kHostB, true, 1);
  EXPECT_FALSE(r.cache_enabled);
  EXPECT_EQ(r.state, FileState::kWriteShared);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].writeback);
  EXPECT_TRUE(r.callbacks[0].invalidate);
}

TEST(StateTableOpen, WriteSharedAbsorbsMoreOpensWithoutCallbacks) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnOpen(kFile, kHostB, true, 1);
  OpenResult r = t.OnOpen(kFile, kHostC, false, 1);
  EXPECT_FALSE(r.cache_enabled);
  EXPECT_TRUE(r.callbacks.empty());
  EXPECT_EQ(r.state, FileState::kWriteShared);
}

// --- Table 4-1: close transitions and CLOSED_DIRTY ---------------------------

TEST(StateTableClose, FinalWriteCloseWithDirtyIsClosedDirty) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  CloseResult r = t.OnClose(kFile, kHostA, true, /*has_dirty=*/true);
  EXPECT_EQ(r.state, FileState::kClosedDirty);
  const StateTable::Entry* entry = t.Lookup(kFile);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->last_writer, kHostA);
  t.CheckInvariants();
}

TEST(StateTableClose, FinalWriteCloseCleanIsClosed) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  CloseResult r = t.OnClose(kFile, kHostA, true, false);
  EXPECT_EQ(r.state, FileState::kClosed);
}

TEST(StateTableClose, WriteCloseWhileStillReadingIsOneRdrDirty) {
  StateTable t;
  // Table 4-1: "Final close for write, client still reading" ->
  // ONE_RDR_DIRTY with this client recorded as last writer.
  t.OnOpen(kFile, kHostA, false, 1);
  t.OnOpen(kFile, kHostA, true, 1);
  CloseResult r = t.OnClose(kFile, kHostA, true, /*has_dirty=*/true);
  EXPECT_EQ(r.state, FileState::kOneRdrDirty);
  const StateTable::Entry* entry = t.Lookup(kFile);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->last_writer, kHostA);
  t.CheckInvariants();
}

TEST(StateTableClose, MultReadersShrinksToOneReader) {
  StateTable t;
  t.OnOpen(kFile, kHostA, false, 1);
  t.OnOpen(kFile, kHostB, false, 1);
  CloseResult r = t.OnClose(kFile, kHostB, false, false);
  EXPECT_EQ(r.state, FileState::kOneReader);
  r = t.OnClose(kFile, kHostA, false, false);
  EXPECT_EQ(r.state, FileState::kClosed);
}

TEST(StateTableClose, WriteSharedDoesNotDowngradeUntilEmpty) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnOpen(kFile, kHostB, false, 1);
  CloseResult r = t.OnClose(kFile, kHostA, true, false);
  // One reader left, but caching cannot be re-enabled mid-open.
  EXPECT_EQ(r.state, FileState::kWriteShared);
  r = t.OnClose(kFile, kHostB, false, false);
  EXPECT_EQ(r.state, FileState::kClosed);
}

TEST(StateTableClose, UnknownCloseIsHarmless) {
  StateTable t;
  CloseResult r = t.OnClose(kFile, kHostA, false, false);
  EXPECT_FALSE(r.entry_known);
}

// --- CLOSED_DIRTY reopen paths -----------------------------------------------

TEST(StateTableDirty, LastWriterReopensWriteNoCallback) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnClose(kFile, kHostA, true, true);
  OpenResult r = t.OnOpen(kFile, kHostA, true, 1);
  EXPECT_TRUE(r.cache_enabled);
  EXPECT_TRUE(r.callbacks.empty());
  EXPECT_EQ(r.state, FileState::kOneWriter);
  // prev_version rule lets the writer revalidate its cache.
  EXPECT_EQ(r.prev_version, r.version - 1);
}

TEST(StateTableDirty, LastWriterReopensReadIsOneRdrDirty) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnClose(kFile, kHostA, true, true);
  OpenResult r = t.OnOpen(kFile, kHostA, false, 1);
  EXPECT_TRUE(r.cache_enabled);
  EXPECT_TRUE(r.callbacks.empty());
  EXPECT_EQ(r.state, FileState::kOneRdrDirty);
}

TEST(StateTableDirty, OtherClientReadTriggersWritebackCallback) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnClose(kFile, kHostA, true, true);
  OpenResult r = t.OnOpen(kFile, kHostB, false, 1);
  EXPECT_TRUE(r.cache_enabled);
  EXPECT_EQ(r.state, FileState::kOneReader);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].writeback);
  EXPECT_FALSE(r.callbacks[0].invalidate);  // A's (clean) copy can stay
}

TEST(StateTableDirty, OtherClientWriteTriggersWritebackCallback) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnClose(kFile, kHostA, true, true);
  OpenResult r = t.OnOpen(kFile, kHostB, true, 1);
  EXPECT_TRUE(r.cache_enabled);
  EXPECT_EQ(r.state, FileState::kOneWriter);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].writeback);
}

TEST(StateTableDirty, ReaderOverOneRdrDirtyRetrievesDirtyBlocks) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnClose(kFile, kHostA, true, true);
  t.OnOpen(kFile, kHostA, false, 1);  // ONE_RDR_DIRTY
  ASSERT_EQ(StateOf(t), FileState::kOneRdrDirty);
  OpenResult r = t.OnOpen(kFile, kHostB, false, 1);
  EXPECT_EQ(r.state, FileState::kMultReaders);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].writeback);
}

TEST(StateTableDirty, WriterOverOneRdrDirtyIsWriteSharedWithWriteback) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnClose(kFile, kHostA, true, true);
  t.OnOpen(kFile, kHostA, false, 1);  // ONE_RDR_DIRTY
  OpenResult r = t.OnOpen(kFile, kHostB, true, 1);
  EXPECT_FALSE(r.cache_enabled);
  EXPECT_EQ(r.state, FileState::kWriteShared);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].writeback);
  EXPECT_TRUE(r.callbacks[0].invalidate);
}

// --- Versions ------------------------------------------------------------------

TEST(StateTableVersion, EveryWriteOpenBumps) {
  StateTable t;
  uint64_t last = 10;
  for (int i = 0; i < 5; ++i) {
    OpenResult r = t.OnOpen(kFile, kHostA, true, 10);
    EXPECT_EQ(r.version, last + 1);
    EXPECT_EQ(r.prev_version, last);
    last = r.version;
    t.OnClose(kFile, kHostA, true, false);
  }
}

TEST(StateTableVersion, ReadOpensDoNotBump) {
  StateTable t;
  OpenResult r1 = t.OnOpen(kFile, kHostA, false, 10);
  OpenResult r2 = t.OnOpen(kFile, kHostB, false, 10);
  EXPECT_EQ(r1.version, 10u);
  EXPECT_EQ(r2.version, 10u);
}

// --- MarkFlushed / MarkInconsistent / Forget ------------------------------------

TEST(StateTableMisc, MarkFlushedClearsDirty) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnClose(kFile, kHostA, true, true);
  ASSERT_EQ(StateOf(t), FileState::kClosedDirty);
  t.MarkFlushed(kFile);
  EXPECT_EQ(StateOf(t), FileState::kClosed);
  t.CheckInvariants();
}

TEST(StateTableMisc, MarkInconsistentDropsDeadClient) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnOpen(kFile, kHostB, false, 1);  // WRITE_SHARED
  t.MarkInconsistent(kFile, kHostA);
  const StateTable::Entry* entry = t.Lookup(kFile);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->inconsistent);
  EXPECT_EQ(entry->clients.size(), 1u);
  // Subsequent opens surface the inconsistency.
  OpenResult r = t.OnOpen(kFile, kHostC, false, 1);
  EXPECT_TRUE(r.possibly_inconsistent);
  t.CheckInvariants();
}

TEST(StateTableMisc, MarkInconsistentForAnotherHostKeepsClosedDirty) {
  // A failed callback to B says nothing about A's dirty blocks: the file
  // stays CLOSED_DIRTY at A, and the next opener still calls A back.
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnClose(kFile, kHostA, true, /*has_dirty=*/true);
  t.MarkInconsistent(kFile, kHostB);
  t.CheckInvariants();
  EXPECT_EQ(StateOf(t), FileState::kClosedDirty);
  OpenResult r = t.OnOpen(kFile, kHostC, false, 1);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].writeback);
}

TEST(StateTableMisc, MarkInconsistentForAnotherHostKeepsOneRdrDirty) {
  StateTable t;
  t.OnOpen(kFile, kHostA, true, 1);
  t.OnClose(kFile, kHostA, true, /*has_dirty=*/true);
  t.OnOpen(kFile, kHostA, false, 1);  // ONE_RDR_DIRTY
  t.MarkInconsistent(kFile, kHostB);
  EXPECT_EQ(StateOf(t), FileState::kOneRdrDirty);
  OpenResult r = t.OnOpen(kFile, kHostC, false, 1);
  EXPECT_EQ(r.state, FileState::kMultReaders);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].writeback);
  t.CheckInvariants();
}

TEST(StateTableMisc, ForgetRemovesEntry) {
  StateTable t;
  t.OnOpen(kFile, kHostA, false, 1);
  t.Forget(kFile);
  EXPECT_EQ(t.Lookup(kFile), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

// --- Reclaim -----------------------------------------------------------------

TEST(StateTableReclaim, ClosedEntriesDropWhenOverLimit) {
  StateTable t(/*max_entries=*/4);
  for (uint64_t i = 0; i < 8; ++i) {
    proto::FileHandle fh{1, 100 + i, 0};
    t.OnOpen(fh, kHostA, false, 1);
    t.OnClose(fh, kHostA, false, false);
  }
  EXPECT_EQ(t.size(), 8u);
  auto plans = t.PlanReclaim();
  EXPECT_TRUE(plans.empty());  // CLOSED entries reclaimed without callbacks
  EXPECT_LE(t.size(), 4u);
}

TEST(StateTableReclaim, ClosedDirtyNeedsWritebackCallback) {
  StateTable t(/*max_entries=*/2);
  for (uint64_t i = 0; i < 4; ++i) {
    proto::FileHandle fh{1, 100 + i, 0};
    t.OnOpen(fh, kHostA, true, 1);
    t.OnClose(fh, kHostA, true, /*has_dirty=*/true);
  }
  auto plans = t.PlanReclaim();
  ASSERT_GE(plans.size(), 2u);
  for (const auto& plan : plans) {
    EXPECT_EQ(plan.callback.host, kHostA);
    EXPECT_TRUE(plan.callback.writeback);
  }
}

TEST(StateTableReclaim, ReopenDuringReclaimCallbackKeepsEntry) {
  // Guard for the interleaving in SnfsServer::ReclaimEntries: the reclaim
  // writeback callback suspends, and the client can re-open the file before
  // it completes. The entry the plan named must survive — MarkFlushed
  // downgrades the re-opened entry instead of dropping it, and the server's
  // post-callback re-lookup (state != CLOSED) must skip the Forget.
  StateTable t(/*max_entries=*/1);
  t.OnOpen(kFile, kHostA, /*write=*/true, /*stable_version=*/1);
  t.OnClose(kFile, kHostA, /*write=*/true, /*has_dirty=*/true);  // CLOSED_DIRTY
  proto::FileHandle other{1, 43, 0};
  t.OnOpen(other, kHostB, false, 1);  // pushes the table over its limit
  auto plans = t.PlanReclaim();
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].fh.fileid, kFile.fileid);
  EXPECT_TRUE(plans[0].callback.writeback);

  // Callback in flight; the client re-opens first.
  t.OnOpen(kFile, kHostA, /*write=*/false, 1);
  EXPECT_EQ(StateOf(t), FileState::kOneRdrDirty);

  // Callback completes: the dirty blocks are at the server, but the file is
  // open again — it must downgrade, not disappear.
  t.MarkFlushed(kFile);
  const StateTable::Entry* entry = t.Lookup(kFile);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state(), FileState::kOneReader);
  ASSERT_EQ(entry->clients.size(), 1u);
  EXPECT_EQ(entry->clients[0].host, kHostA);
  EXPECT_GT(entry->clients[0].readers + entry->clients[0].writers, 0u);  // A has it open
  t.CheckInvariants();
}

// --- Recovery (reopen) ----------------------------------------------------------

TEST(StateTableRecovery, ReopenRebuildsSingleWriter) {
  StateTable t;
  OpenResult r = t.ApplyReopen(kFile, kHostA, 0, 1, true, 12, 12);
  EXPECT_TRUE(r.cache_enabled);
  EXPECT_EQ(StateOf(t), FileState::kOneWriter);
  EXPECT_EQ(r.version, 12u);
}

TEST(StateTableRecovery, ReopenRebuildsWriteShared) {
  StateTable t;
  t.ApplyReopen(kFile, kHostA, 0, 1, false, 5, 5);
  OpenResult r = t.ApplyReopen(kFile, kHostB, 1, 0, false, 5, 5);
  EXPECT_FALSE(r.cache_enabled);
  EXPECT_EQ(StateOf(t), FileState::kWriteShared);
}

TEST(StateTableRecovery, ReopenDirtyOnlyIsClosedDirty) {
  StateTable t;
  t.ApplyReopen(kFile, kHostA, 0, 0, /*has_dirty=*/true, 9, 9);
  EXPECT_EQ(StateOf(t), FileState::kClosedDirty);
  const StateTable::Entry* entry = t.Lookup(kFile);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->last_writer, kHostA);
}

// A reopens with dirty blocks only, B with a read open: B reads, A may be
// dirty (ONE_RDR_DIRTY with the dirty blocks at another client).
void ReopenReaderBesideDirtyA(StateTable& t) {
  t.ApplyReopen(kFile, kHostA, 0, 0, /*has_dirty=*/true, 9, 9);
  t.ApplyReopen(kFile, kHostB, 1, 0, /*has_dirty=*/false, 9, 9);
  EXPECT_EQ(StateOf(t), FileState::kOneRdrDirty);
}

TEST(StateTableRecovery, ReopenedReaderWriteOpenCallsBackTheDirtyHolder) {
  StateTable t;
  ReopenReaderBesideDirtyA(t);
  OpenResult r = t.OnOpen(kFile, kHostB, true, 9);
  EXPECT_EQ(r.state, FileState::kOneWriter);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].writeback);
  EXPECT_FALSE(r.callbacks[0].invalidate);
}

TEST(StateTableRecovery, ReopenedDirtyHolderIsNotCalledBackForItsOwnOpen) {
  StateTable t;
  ReopenReaderBesideDirtyA(t);
  OpenResult r = t.OnOpen(kFile, kHostA, false, 9);
  EXPECT_EQ(r.state, FileState::kMultReaders);
  EXPECT_TRUE(r.callbacks.empty());
  // A's dirty blocks are still owed to the next opener.
  r = t.OnOpen(kFile, kHostC, false, 9);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].writeback);
}

TEST(StateTableRecovery, ReopenedReadersKeepTheDirtyHolder) {
  StateTable t;
  t.ApplyReopen(kFile, kHostA, 1, 0, /*has_dirty=*/true, 9, 9);
  t.ApplyReopen(kFile, kHostB, 1, 0, /*has_dirty=*/false, 9, 9);
  ASSERT_EQ(StateOf(t), FileState::kMultReaders);
  CloseResult closed = t.OnClose(kFile, kHostB, false, false);
  EXPECT_EQ(closed.state, FileState::kOneRdrDirty);
  OpenResult r = t.OnOpen(kFile, kHostC, false, 9);
  ASSERT_EQ(r.callbacks.size(), 1u);
  EXPECT_EQ(r.callbacks[0].host, kHostA);
  EXPECT_TRUE(r.callbacks[0].writeback);
}

TEST(StateTableRecovery, WriteSharingCallsBackADirtyHolderWithNoOpen) {
  // A reopens with dirty blocks only, beside readers B and C. B's write
  // open makes the file write-shared: C is told to stop caching, and A,
  // which has no open, must still write its dirty blocks back.
  StateTable t;
  t.ApplyReopen(kFile, kHostA, 0, 0, /*has_dirty=*/true, 9, 9);
  t.ApplyReopen(kFile, kHostB, 1, 0, /*has_dirty=*/false, 9, 9);
  t.ApplyReopen(kFile, kHostC, 1, 0, /*has_dirty=*/false, 9, 9);
  ASSERT_EQ(StateOf(t), FileState::kMultReaders);
  OpenResult r = t.OnOpen(kFile, kHostB, true, 9);
  EXPECT_EQ(r.state, FileState::kWriteShared);
  EXPECT_FALSE(r.cache_enabled);
  ASSERT_EQ(r.callbacks.size(), 2u);
  EXPECT_EQ(r.callbacks[0], (CallbackAction{kHostC, /*writeback=*/false, /*invalidate=*/true}));
  EXPECT_EQ(r.callbacks[1], (CallbackAction{kHostA, /*writeback=*/true, /*invalidate=*/true}));
  t.CheckInvariants();
}

TEST(StateTableRecovery, ReopenMatchesStateBuiltByNormalOpens) {
  // Property: rebuilding from per-client reopen summaries yields the same
  // (state, clients) as the original sequence of opens.
  sim::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    StateTable original;
    std::map<int, std::pair<uint32_t, uint32_t>> per_client;  // host -> (r, w)
    int ops = static_cast<int>(rng.UniformInt(1, 6));
    for (int i = 0; i < ops; ++i) {
      int host = static_cast<int>(rng.UniformInt(1, 3));
      bool write = rng.Bernoulli(0.4);
      original.OnOpen(kFile, host, write, 1);
      if (write) {
        ++per_client[host].second;
      } else {
        ++per_client[host].first;
      }
    }
    const StateTable::Entry* oe = original.Lookup(kFile);
    ASSERT_NE(oe, nullptr);

    StateTable rebuilt;
    for (const auto& [host, counts] : per_client) {
      rebuilt.ApplyReopen(kFile, host, counts.first, counts.second, false, oe->version,
                          oe->version);
    }
    const StateTable::Entry* re = rebuilt.Lookup(kFile);
    ASSERT_NE(re, nullptr);
    EXPECT_EQ(re->state(), oe->state()) << "trial " << trial;
    EXPECT_EQ(re->clients.size(), oe->clients.size());
    rebuilt.CheckInvariants();
  }
}

// --- Randomized property sweep ---------------------------------------------------

struct RandomOp {
  bool is_open;
  int host;
  bool write;
};

TEST(StateTableProperty, InvariantsHoldUnderRandomLegalSequences) {
  sim::Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    StateTable t;
    // Track per-host open modes so we only issue legal closes.
    std::map<int, std::vector<bool>> open_modes;  // host -> list of write flags
    for (int step = 0; step < 40; ++step) {
      int host = static_cast<int>(rng.UniformInt(1, 4));
      bool do_open = rng.Bernoulli(0.55) || open_modes[host].empty();
      if (do_open) {
        bool write = rng.Bernoulli(0.35);
        OpenResult r = t.OnOpen(kFile, host, write, 1);
        open_modes[host].push_back(write);
        // cache_enabled implies a non-write-shared state.
        const StateTable::Entry* entry = t.Lookup(kFile);
        ASSERT_NE(entry, nullptr);
        if (r.cache_enabled) {
          EXPECT_NE(entry->state(), FileState::kWriteShared);
        }
        // Callbacks never target the opener.
        for (const CallbackAction& cb : r.callbacks) {
          EXPECT_NE(cb.host, host);
        }
      } else {
        bool write = open_modes[host].back();
        open_modes[host].pop_back();
        bool dirty = write && rng.Bernoulli(0.5);
        t.OnClose(kFile, host, write, dirty);
      }
      t.CheckInvariants();
    }
  }
}

TEST(StateTableProperty, VersionsNeverDecrease) {
  sim::Rng rng(99);
  StateTable t;
  uint64_t last_version = 0;
  std::map<int, int> opens;
  for (int step = 0; step < 2000; ++step) {
    int host = static_cast<int>(rng.UniformInt(1, 5));
    if (rng.Bernoulli(0.6) || opens[host] == 0) {
      OpenResult r = t.OnOpen(kFile, host, rng.Bernoulli(0.5), 0);
      EXPECT_GE(r.version, last_version);
      last_version = r.version;
      ++opens[host];
    } else {
      t.OnClose(kFile, host, false, false);
      --opens[host];
    }
  }
}

}  // namespace
}  // namespace snfs
