// Simulated disk (RA81/RA82-class): a FIFO request queue where each
// operation costs a positioning latency plus size/transfer-rate.
//
// Sequential accesses are detected per (file, block) stream: a block
// following the previous one on the same file pays only the sequential
// (track-buffered) latency. This reproduces the 1989 asymmetry the paper's
// results turn on: a local file system flushing delayed writes gets
// clustered sequential transfers, while a stateless NFS server performing
// one synchronous data+inode update per write RPC pays full positioning
// twice per call ("writes are always synchronous with the disk at the
// server, unlike reads which often hit in the server cache").
#ifndef SRC_DISK_DISK_H_
#define SRC_DISK_DISK_H_

#include <cstdint>
#include <string>

#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/trace/trace.h"

namespace disk {

// Full positioning (seek + rotation) for a random access. RA81: ~28 ms
// average seek plus 8.3 ms half-rotation.
inline constexpr sim::Duration kAccessLatency = sim::Msec(36);
// Positioning for a sequential continuation (track buffer / same cylinder).
inline constexpr sim::Duration kSequentialLatency = sim::Msec(4);
// Media transfer rate. RA81: ~2.2 MB/s.
inline constexpr double kTransferBytesPerSec = 2.2e6;

class Disk {
 public:
  explicit Disk(sim::Simulator& simulator) : simulator_(simulator), queue_(simulator) {}

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Positional block access: sequential continuation of the last access on
  // this stream is cheap. `stream` identifies a file, `block` its index.
  sim::Task<void> ReadBlock(uint64_t stream, uint64_t block, uint32_t bytes) {
    return Access(stream, block, bytes, /*is_write=*/false);
  }
  sim::Task<void> WriteBlock(uint64_t stream, uint64_t block, uint32_t bytes) {
    return Access(stream, block, bytes, /*is_write=*/true);
  }

  // Non-positional access (metadata, untracked): always full positioning.
  sim::Task<void> Read(uint32_t bytes) { return Access(kNoStream, 0, bytes, false); }
  sim::Task<void> Write(uint32_t bytes) { return Access(kNoStream, 0, bytes, true); }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t sequential_hits() const { return sequential_hits_; }
  sim::Duration busy_time() const { return busy_us_; }

 private:
  static constexpr uint64_t kNoStream = ~0ULL;

  sim::Task<void> Access(uint64_t stream, uint64_t block, uint32_t bytes, bool is_write) {
    // Span covers queue wait + service time; the machine is inherited from
    // the causing span (the disk itself has no network host id).
    trace::Span io_span;
    if (trace::Active() != nullptr) {
      io_span.Begin(is_write ? "disk.write" : "disk.read", trace::kInheritMachine,
                    "bytes=" + std::to_string(bytes) +
                        (stream == kNoStream ? std::string(" stream=meta")
                                             : " stream=" + std::to_string(stream) +
                                                   " block=" + std::to_string(block)));
    }
    co_await queue_.Acquire();
    bool sequential =
        stream != kNoStream && stream == last_stream_ && block == last_block_ + 1;
    if (sequential) {
      ++sequential_hits_;
    }
    last_stream_ = stream;
    last_block_ = stream == kNoStream ? 0 : block;
    sim::Duration service =
        (sequential ? kSequentialLatency : kAccessLatency) +
        static_cast<sim::Duration>(static_cast<double>(bytes) / kTransferBytesPerSec * 1e6);
    co_await sim::Sleep(simulator_, service);
    busy_us_ += service;
    if (is_write) {
      ++writes_;
      bytes_written_ += bytes;
    } else {
      ++reads_;
      bytes_read_ += bytes;
    }
    io_span.End(sequential ? "seq=1" : "seq=0");
    queue_.Release();
  }

  sim::Simulator& simulator_;
  sim::Mutex queue_;
  uint64_t last_stream_ = kNoStream;
  uint64_t last_block_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t sequential_hits_ = 0;
  sim::Duration busy_us_ = 0;
};

}  // namespace disk

#endif  // SRC_DISK_DISK_H_
