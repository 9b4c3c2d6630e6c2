// Tests for the disk model: FIFO queueing, sequential-access detection,
// transfer-time accounting, and the counters the benchmarks rely on.
#include <gtest/gtest.h>

#include "src/disk/disk.h"
#include "src/sim/simulator.h"

namespace disk {
namespace {

TEST(DiskTest, SingleReadCostsPositioningPlusTransfer) {
  sim::Simulator simulator;
  Disk disk(simulator);
  simulator.Spawn([](Disk& disk) -> sim::Task<void> { co_await disk.Read(4096); }(disk));
  simulator.Run();
  // 36 ms of positioning, then 4096 B at 2.2 MB/s: 1861.8 us, truncated.
  EXPECT_EQ(simulator.Now(), kAccessLatency + sim::Usec(1861));
  EXPECT_EQ(disk.reads(), 1u);
  EXPECT_EQ(disk.bytes_read(), 4096u);
}

TEST(DiskTest, RequestsAreServedFifo) {
  sim::Simulator simulator;
  Disk disk(simulator);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    simulator.Spawn([](Disk& disk, std::vector<int>& order, int id) -> sim::Task<void> {
      co_await disk.Write(4096);
      order.push_back(id);
    }(disk, order, i));
  }
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(disk.writes(), 4u);
}

TEST(DiskTest, SequentialBlocksArePromoted) {
  sim::Simulator simulator;
  Disk disk(simulator);
  simulator.Spawn([](Disk& disk) -> sim::Task<void> {
    for (uint64_t b = 0; b < 10; ++b) {
      co_await disk.WriteBlock(/*stream=*/1, b, 4096);
    }
  }(disk));
  simulator.Run();
  // First access positions fully; the next nine ride the sequential stream.
  EXPECT_EQ(disk.sequential_hits(), 9u);
  EXPECT_LT(simulator.Now(),
            kAccessLatency + 9 * kSequentialLatency + sim::Msec(25) /* transfer */);
}

TEST(DiskTest, InterleavedStreamsBreakSequentiality) {
  sim::Simulator simulator;
  Disk disk(simulator);
  simulator.Spawn([](Disk& disk) -> sim::Task<void> {
    for (uint64_t b = 0; b < 5; ++b) {
      co_await disk.WriteBlock(1, b, 4096);
      co_await disk.WriteBlock(2, b, 4096);  // alternating files
    }
  }(disk));
  simulator.Run();
  EXPECT_EQ(disk.sequential_hits(), 0u);
}

TEST(DiskTest, MetadataWritesBreakTheStream) {
  sim::Simulator simulator;
  Disk disk(simulator);
  simulator.Spawn([](Disk& disk) -> sim::Task<void> {
    co_await disk.WriteBlock(1, 0, 4096);
    co_await disk.Write(512);  // inode update elsewhere on the platter
    co_await disk.WriteBlock(1, 1, 4096);
  }(disk));
  simulator.Run();
  EXPECT_EQ(disk.sequential_hits(), 0u);  // the NFS per-write penalty
}

TEST(DiskTest, BusyTimeAccumulates) {
  sim::Simulator simulator;
  Disk disk(simulator);
  simulator.Spawn([](Disk& disk) -> sim::Task<void> {
    co_await disk.Read(4096);
    co_await disk.Write(4096);
  }(disk));
  simulator.Run();
  EXPECT_EQ(disk.busy_time(), simulator.Now());
}

}  // namespace
}  // namespace disk
