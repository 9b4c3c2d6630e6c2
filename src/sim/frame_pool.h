// Size-bucketed free-list recycling for coroutine frames.
//
// Every simulated activity is a Task<T> coroutine, so the allocator sees a
// steady churn of small frame allocations (an RPC round trip alone is half
// a dozen frames: the call, the handler, and a cpu.Run per cost charge).
// Frames cluster into a handful of sizes, which makes a size-class pool
// ideal: O(1) alloc/free, no malloc on the steady state, and — because the
// simulator is single-threaded by construction — no locking.
//
// Task's promise types route their frame allocation here via operator
// new/delete (see task.h). Blocks above kMaxPooledBytes fall through to the
// global allocator and are counted; pooled blocks are kept until process
// exit (they remain reachable through the class heads, so leak checkers
// stay quiet).
//
// Frame lifetime. Every frame this pool hands out comes back before its
// simulation ends: an awaited frame is freed by the Task that awaited it,
// a spawned root frees itself at final suspend, and a frame still parked
// (a daemon on its channel, a background sleep) is destroyed by its
// Simulator's teardown, together with the children it awaits
// (Simulator::ReapParked, task.h's lifetime rules). LiveFrames() counts
// allocations minus frees, so a test can assert that a torn-down
// simulation left none behind.
#ifndef SRC_SIM_FRAME_POOL_H_
#define SRC_SIM_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>

namespace sim {
namespace framepool {

// 64-byte classes up to 4 KB cover every frame bench_andrew, bench_sort and
// bench_fleet allocate. The largest is the server handler every protocol's
// requests reach, NfsServer::Handle, at 3,048 bytes in a RelWithDebInfo
// build with GCC 12 (then SnfsServer::Handle at 1,312, NqnfsServer::Handle
// at 1,040 and snfs::CallbackServer::Remove at 848); a 2 KB ceiling sent it
// to malloc on every server RPC. FramePoolTest (consistency_test) pins that
// NFS, SNFS and NQNFS read round trips make no fall-through allocation.
inline constexpr size_t kClassBytes = 64;
inline constexpr size_t kMaxPooledBytes = 4096;
inline constexpr size_t kNumClasses = kMaxPooledBytes / kClassBytes;

struct FreeBlock {
  FreeBlock* next;
};

inline FreeBlock* g_free[kNumClasses] = {};
inline uint64_t g_unpooled_allocs = 0;
inline uint64_t g_live_frames = 0;

// Frames allocated with plain new because they exceed kMaxPooledBytes,
// since process start.
inline uint64_t UnpooledAllocs() { return g_unpooled_allocs; }

// Frames allocated and not yet freed, pooled or not.
inline uint64_t LiveFrames() { return g_live_frames; }

// Class index for a request of n bytes; kNumClasses if not pooled.
inline size_t ClassOf(size_t n) {
  return n == 0 ? 0 : (n + kClassBytes - 1) / kClassBytes - 1;
}

inline void* Alloc(size_t n) {
  ++g_live_frames;
  size_t cls = ClassOf(n);
  if (cls >= kNumClasses) {
    ++g_unpooled_allocs;
    return ::operator new(n);
  }
  FreeBlock* block = g_free[cls];
  if (block != nullptr) {
    g_free[cls] = block->next;
    return block;
  }
  return ::operator new((cls + 1) * kClassBytes);
}

inline void Free(void* p, size_t n) {
  --g_live_frames;
  size_t cls = ClassOf(n);
  if (cls >= kNumClasses) {
    ::operator delete(p);
    return;
  }
  auto* block = static_cast<FreeBlock*>(p);
  block->next = g_free[cls];
  g_free[cls] = block;
}

}  // namespace framepool
}  // namespace sim

#endif  // SRC_SIM_FRAME_POOL_H_
