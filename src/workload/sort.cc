#include "src/workload/sort.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/sim/random.h"

namespace workload {
namespace {

// A record is kSortRecordBytes bytes whose first 8 bytes are the big-endian
// key (so byte-wise comparison equals key comparison).
void FillRecord(uint8_t* rec, uint64_t key, sim::Rng& rng) {
  for (int i = 0; i < 8; ++i) {
    rec[i] = static_cast<uint8_t>(key >> (56 - 8 * i));
  }
  for (uint32_t i = 8; i < kSortRecordBytes; ++i) {
    rec[i] = static_cast<uint8_t>(rng.Next());
  }
}

bool RecordLess(const uint8_t* a, const uint8_t* b) {
  return std::memcmp(a, b, kSortRecordBytes) < 0;
}

std::string RunName(const std::string& tmp_dir, int pass, uint64_t index) {
  return tmp_dir + "/srt" + std::to_string(pass) + "_" + std::to_string(index);
}

}  // namespace

sim::Task<void> PopulateSortInput(fs::LocalFs& fs, proto::FileHandle parent,
                                  std::string name, uint64_t bytes, uint64_t seed) {
  sim::Rng rng(seed);
  uint64_t records = bytes / kSortRecordBytes;
  auto file = co_await fs.Create(parent, name, /*exclusive=*/false);
  CHECK(file.ok());
  // Write in 64 KB slabs to keep allocation sane.
  constexpr uint64_t kSlabRecords = 1024;
  std::vector<uint8_t> slab;
  uint64_t offset = 0;
  for (uint64_t r = 0; r < records; r += kSlabRecords) {
    uint64_t n = std::min(kSlabRecords, records - r);
    slab.assign(n * kSortRecordBytes, 0);
    for (uint64_t i = 0; i < n; ++i) {
      FillRecord(&slab[i * kSortRecordBytes], rng.Next(), rng);
    }
    uint64_t written = slab.size();
    auto wrote =
        co_await fs.Write(file->fh, offset, std::move(slab), fs::LocalFs::WriteMode::kMemory);
    CHECK(wrote.ok());
    offset += written;
  }
}

namespace {

// Read `count` bytes at the fd's current position, looping on short reads.
sim::Task<base::Result<std::vector<uint8_t>>> ReadFully(vfs::Vfs& vfs, int fd, uint32_t count) {
  std::vector<uint8_t> out;
  while (out.size() < count) {
    CO_ASSIGN_OR_RETURN(std::vector<uint8_t> chunk,
                        co_await vfs.Read(fd, count - static_cast<uint32_t>(out.size())));
    if (chunk.empty()) {
      break;  // EOF
    }
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  co_return out;
}

struct MergeSource {
  int fd = -1;
  std::vector<uint8_t> buffer;
  size_t pos = 0;  // byte offset of the next record in buffer
  bool exhausted = false;
};

// Refill a merge source's buffer if it has been consumed.
sim::Task<base::Result<void>> Refill(vfs::Vfs& vfs, MergeSource& src, uint32_t chunk) {
  if (src.exhausted || src.pos < src.buffer.size()) {
    co_return base::OkStatus();
  }
  CO_ASSIGN_OR_RETURN(src.buffer, co_await ReadFully(vfs, src.fd, chunk));
  src.pos = 0;
  if (src.buffer.empty()) {
    src.exhausted = true;
  }
  co_return base::OkStatus();
}

}  // namespace

sim::Task<base::Result<SortReport>> RunSort(sim::Simulator& simulator, vfs::Vfs& vfs,
                                            sim::Cpu& cpu, SortConfig config) {
  SortReport report;
  sim::Time start = simulator.Now();

  // --- Run generation: read buffer-sized chunks, sort, write to tmp. ----
  CO_ASSIGN_OR_RETURN(int in_fd, co_await vfs.Open(config.input_path, vfs::OpenFlags::ReadOnly()));
  std::vector<std::string> runs;
  uint32_t run_bytes = config.buffer_bytes / kSortRecordBytes * kSortRecordBytes;
  while (true) {
    CO_ASSIGN_OR_RETURN(std::vector<uint8_t> buffer, co_await ReadFully(vfs, in_fd, run_bytes));
    if (buffer.empty()) {
      break;
    }
    report.input_bytes += buffer.size();
    uint64_t nrec = buffer.size() / kSortRecordBytes;
    // In-memory sort of the run (indices, then permute).
    std::vector<uint32_t> order(nrec);
    for (uint64_t i = 0; i < nrec; ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return RecordLess(&buffer[a * kSortRecordBytes], &buffer[b * kSortRecordBytes]);
    });
    std::vector<uint8_t> sorted(buffer.size());
    for (uint64_t i = 0; i < nrec; ++i) {
      std::memcpy(&sorted[i * kSortRecordBytes], &buffer[order[i] * kSortRecordBytes],
                  kSortRecordBytes);
    }
    co_await cpu.Run(config.cpu.per_record_sort * static_cast<int64_t>(nrec));

    std::string run = RunName(config.tmp_dir, 0, runs.size());
    CO_RETURN_IF_ERROR(co_await vfs.WriteFile(run, sorted));
    report.temp_bytes_written += sorted.size();
    runs.push_back(std::move(run));
  }
  CO_RETURN_IF_ERROR(co_await vfs.Close(in_fd));
  report.runs_created = runs.size();

  // --- Merge passes: k-way merge until one run remains. -----------------
  int pass = 1;
  const uint32_t kMergeChunk = 16 * 1024;
  while (runs.size() > 1) {
    ++report.merge_passes;
    std::vector<std::string> next;
    for (size_t group = 0; group < runs.size();
         group += static_cast<size_t>(config.merge_order)) {
      size_t group_end = std::min(runs.size(), group + static_cast<size_t>(config.merge_order));
      bool final_merge = runs.size() - (group_end - group) + 1 == 1 && group == 0 &&
                         group_end == runs.size();
      std::string out_path =
          final_merge ? config.output_path : RunName(config.tmp_dir, pass, next.size());

      std::vector<MergeSource> sources(group_end - group);
      for (size_t i = 0; i < sources.size(); ++i) {
        CO_ASSIGN_OR_RETURN(sources[i].fd,
                            co_await vfs.Open(runs[group + i], vfs::OpenFlags::ReadOnly()));
        CO_RETURN_IF_ERROR(co_await Refill(vfs, sources[i], kMergeChunk));
      }
      CO_ASSIGN_OR_RETURN(int out_fd, co_await vfs.Open(out_path, vfs::OpenFlags::WriteCreate()));

      std::vector<uint8_t> out_buffer;
      uint64_t merged_records = 0;
      while (true) {
        int best = -1;
        for (size_t i = 0; i < sources.size(); ++i) {
          if (sources[i].exhausted) {
            continue;
          }
          if (best < 0 ||
              RecordLess(&sources[i].buffer[sources[i].pos],
                         &sources[static_cast<size_t>(best)]
                              .buffer[sources[static_cast<size_t>(best)].pos])) {
            best = static_cast<int>(i);
          }
        }
        if (best < 0) {
          break;
        }
        // Refill mutates the source in place while it awaits the disk, but
        // `sources` is coroutine-local and never resized during the merge,
        // so no interleaved coroutine can invalidate the reference.
        // lint: suspend-escape-ok
        MergeSource& src = sources[static_cast<size_t>(best)];
        out_buffer.insert(out_buffer.end(), src.buffer.begin() + static_cast<int64_t>(src.pos),
                          src.buffer.begin() + static_cast<int64_t>(src.pos + kSortRecordBytes));
        src.pos += kSortRecordBytes;
        ++merged_records;
        CO_RETURN_IF_ERROR(co_await Refill(vfs, src, kMergeChunk));
        if (out_buffer.size() >= kMergeChunk) {
          CO_RETURN_IF_ERROR(co_await vfs.Write(out_fd, out_buffer));
          if (!final_merge) {
            report.temp_bytes_written += out_buffer.size();
          }
          out_buffer.clear();
        }
      }
      if (!out_buffer.empty()) {
        CO_RETURN_IF_ERROR(co_await vfs.Write(out_fd, out_buffer));
        if (!final_merge) {
          report.temp_bytes_written += out_buffer.size();
        }
      }
      co_await cpu.Run(config.cpu.per_record_merge * static_cast<int64_t>(merged_records));
      CO_RETURN_IF_ERROR(co_await vfs.Close(out_fd));
      for (size_t i = 0; i < sources.size(); ++i) {
        CO_RETURN_IF_ERROR(co_await vfs.Close(sources[i].fd));
        // Consumed runs die young: SNFS/local cancel their delayed writes.
        CO_RETURN_IF_ERROR(co_await vfs.Unlink(runs[group + i]));
      }
      if (!final_merge) {
        next.push_back(out_path);
      }
    }
    runs = std::move(next);
    ++pass;
    if (runs.empty()) {
      break;  // the last group was the final merge
    }
  }
  if (runs.size() == 1) {
    // Single run: it IS the sorted output; "rename" by copy + delete.
    CO_ASSIGN_OR_RETURN(std::vector<uint8_t> data, co_await vfs.ReadFile(runs[0]));
    CO_RETURN_IF_ERROR(co_await vfs.WriteFile(config.output_path, data));
    CO_RETURN_IF_ERROR(co_await vfs.Unlink(runs[0]));
  }

  report.elapsed = simulator.Now() - start;

  // --- Verify the output (outside the timed region). ----------------------
  CO_ASSIGN_OR_RETURN(std::vector<uint8_t> output, co_await vfs.ReadFile(config.output_path));
  report.verified = output.size() == report.input_bytes;
  for (uint64_t i = kSortRecordBytes; report.verified && i < output.size();
       i += kSortRecordBytes) {
    if (RecordLess(&output[i], &output[i - kSortRecordBytes])) {
      report.verified = false;
    }
  }

  co_return report;
}

}  // namespace workload
