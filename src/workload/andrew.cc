#include "src/workload/andrew.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace workload {
namespace {

std::string DirName(int d) { return "dir" + std::to_string(d); }
std::string FileName(int f) { return "file" + std::to_string(f) + ".c"; }
std::string HeaderName(int h) { return "hdr" + std::to_string(h) + ".h"; }
std::string ObjectName(int f) { return "file" + std::to_string(f) + ".o"; }

std::vector<uint8_t> SyntheticBytes(sim::Rng& rng, uint32_t n) {
  std::vector<uint8_t> v(n);
  for (uint32_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

// `n` bytes where byte i is i * step (mod 256). Each value depends only on
// i mod 256, so one 256-byte period is filled and then tiled.
std::vector<uint8_t> PeriodicBytes(size_t n, uint8_t step) {
  uint8_t period[256];
  for (size_t i = 0; i < sizeof(period); ++i) {
    period[i] = static_cast<uint8_t>(i * step);
  }
  std::vector<uint8_t> v(n);
  for (size_t at = 0; at < n; at += sizeof(period)) {
    std::memcpy(v.data() + at, period, std::min(sizeof(period), n - at));
  }
  return v;
}

uint32_t FileBytes(const AndrewShape& shape, sim::Rng& rng) {
  return static_cast<uint32_t>(rng.UniformInt(shape.min_file_bytes, shape.max_file_bytes));
}

}  // namespace

std::string_view AndrewPhaseName(AndrewPhase phase) {
  switch (phase) {
    case AndrewPhase::kMakeDir:
      return "MakeDir";
    case AndrewPhase::kCopy:
      return "Copy";
    case AndrewPhase::kScanDir:
      return "ScanDir";
    case AndrewPhase::kReadAll:
      return "ReadAll";
    case AndrewPhase::kMake:
      return "Make";
  }
  return "?";
}

sim::Task<void> PopulateAndrewTree(fs::LocalFs& fs, proto::FileHandle parent,
                                   AndrewShape shape) {
  sim::Rng rng(shape.seed);
  auto src = co_await fs.Mkdir(parent, "src");
  CHECK(src.ok());
  auto include = co_await fs.Mkdir(src->fh, "include");
  CHECK(include.ok());
  for (int h = 0; h < shape.num_headers; ++h) {
    auto file = co_await fs.Create(include->fh, HeaderName(h), /*exclusive=*/true);
    CHECK(file.ok());
    auto wrote = co_await fs.Write(file->fh, 0, SyntheticBytes(rng, shape.header_bytes),
                                   fs::LocalFs::WriteMode::kMemory);
    CHECK(wrote.ok());
  }
  for (int d = 0; d < shape.dirs; ++d) {
    auto dir = co_await fs.Mkdir(src->fh, DirName(d));
    CHECK(dir.ok());
    for (int f = 0; f < shape.files_per_dir; ++f) {
      auto file = co_await fs.Create(dir->fh, FileName(f), /*exclusive=*/true);
      CHECK(file.ok());
      auto wrote =
          co_await fs.Write(file->fh, 0, SyntheticBytes(rng, FileBytes(shape, rng)),
                            fs::LocalFs::WriteMode::kMemory);
      CHECK(wrote.ok());
    }
  }
}

namespace {

// Phase 1: construct a target subtree identical in structure to the source.
sim::Task<base::Result<void>> PhaseMakeDir(vfs::Vfs& vfs, AndrewConfig config) {
  CO_RETURN_IF_ERROR(co_await vfs.MkdirPath(config.target_root));
  CO_RETURN_IF_ERROR(co_await vfs.MkdirPath(config.target_root + "/include"));
  for (int d = 0; d < config.shape.dirs; ++d) {
    CO_RETURN_IF_ERROR(co_await vfs.MkdirPath(config.target_root + "/" + DirName(d)));
  }
  co_return base::OkStatus();
}

// Phase 2: copy every file from the source subtree to the target subtree.
sim::Task<base::Result<uint64_t>> PhaseCopy(vfs::Vfs& vfs, sim::Cpu& cpu,
                                            AndrewConfig config) {
  uint64_t bytes = 0;
  for (int h = 0; h < config.shape.num_headers; ++h) {
    std::string name = "/include/" + HeaderName(h);
    co_await cpu.Run(config.cpu.copy_per_file);
    CO_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                        co_await vfs.ReadFile(config.src_root + name));
    bytes += data.size();
    CO_RETURN_IF_ERROR(co_await vfs.WriteFile(config.target_root + name, std::move(data)));
  }
  for (int d = 0; d < config.shape.dirs; ++d) {
    for (int f = 0; f < config.shape.files_per_dir; ++f) {
      std::string name = "/" + DirName(d) + "/" + FileName(f);
      co_await cpu.Run(config.cpu.copy_per_file);
      CO_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                          co_await vfs.ReadFile(config.src_root + name));
      bytes += data.size();
      CO_RETURN_IF_ERROR(co_await vfs.WriteFile(config.target_root + name, std::move(data)));
    }
  }
  co_return bytes;
}

// Phase 3: recursively traverse the target subtree, stat-ing every file
// without reading contents.
sim::Task<base::Result<void>> PhaseScanDir(sim::Simulator& simulator, vfs::Vfs& vfs,
                                           sim::Cpu& cpu, AndrewConfig config) {
  std::vector<std::string> stack{config.target_root};
  while (!stack.empty()) {
    std::string dir = stack.back();
    stack.pop_back();
    CO_ASSIGN_OR_RETURN(std::vector<proto::DirEntry> entries, co_await vfs.ReadDir(dir));
    for (const proto::DirEntry& entry : entries) {
      std::string path = dir + "/" + entry.name;
      CO_ASSIGN_OR_RETURN(proto::Attr attr, co_await vfs.Stat(path));
      co_await cpu.Run(config.cpu.scan_per_file);
      if (attr.type == proto::FileType::kDirectory) {
        stack.push_back(path);
      }
    }
  }
  co_return base::OkStatus();
}

// Phase 4: read every byte of every file in the target subtree.
sim::Task<base::Result<void>> PhaseReadAll(vfs::Vfs& vfs, sim::Cpu& cpu,
                                           AndrewConfig config) {
  std::vector<std::string> stack{config.target_root};
  while (!stack.empty()) {
    std::string dir = stack.back();
    stack.pop_back();
    CO_ASSIGN_OR_RETURN(std::vector<proto::DirEntry> entries, co_await vfs.ReadDir(dir));
    for (const proto::DirEntry& entry : entries) {
      std::string path = dir + "/" + entry.name;
      CO_ASSIGN_OR_RETURN(proto::Attr attr, co_await vfs.Stat(path));
      if (attr.type == proto::FileType::kDirectory) {
        stack.push_back(path);
        continue;
      }
      CO_ASSIGN_OR_RETURN(std::vector<uint8_t> data, co_await vfs.ReadFile(path));
      co_await cpu.Run(config.cpu.read_per_kb * static_cast<int64_t>(1 + data.size() / 1024));
    }
  }
  co_return base::OkStatus();
}

// One synthetic compilation: reads the source and the popular headers,
// produces a temporary (preprocessor/assembler) file in tmp, burns CPU,
// writes the object into the target tree, deletes the temporary.
sim::Task<base::Result<uint64_t>> CompileOne(sim::Simulator& simulator, vfs::Vfs& vfs,
                                             sim::Cpu& cpu, AndrewConfig config, int d,
                                             int f, sim::Rng& rng) {
  std::string src = config.target_root + "/" + DirName(d) + "/" + FileName(f);
  CO_ASSIGN_OR_RETURN(std::vector<uint8_t> source, co_await vfs.ReadFile(src));

  // The popular-header pattern: a handful of headers are opened and read by
  // every compile ("a popular header file is read repeatedly during the
  // course of some seconds. This pattern is actually quite common.").
  uint64_t header_bytes = 0;
  for (int i = 0; i < config.shape.headers_per_compile; ++i) {
    int h = static_cast<int>(rng.UniformInt(0, config.shape.num_headers - 1));
    std::string hdr = config.target_root + "/include/" + HeaderName(h);
    CO_ASSIGN_OR_RETURN(std::vector<uint8_t> data, co_await vfs.ReadFile(hdr));
    header_bytes += data.size();
  }

  // Preprocessor output: short-lived temporary (expanded source + headers).
  std::string tmp_path =
      config.tmp_dir + "/cc" + std::to_string(d) + "_" + std::to_string(f) + ".s";
  size_t temp_bytes = static_cast<size_t>(static_cast<double>(source.size() + header_bytes) *
                                          config.shape.temp_multiplier);
  CO_RETURN_IF_ERROR(co_await vfs.WriteFile(tmp_path, PeriodicBytes(temp_bytes, 7)));

  // Compile proper (cost follows the source, not the expanded temporary).
  co_await cpu.Run(config.cpu.compile_base +
                   config.cpu.compile_per_kb * static_cast<int64_t>(1 + source.size() / 1024));

  // Read the temporary back (assembler pass), emit the object file.
  CO_ASSIGN_OR_RETURN(std::vector<uint8_t> reread, co_await vfs.ReadFile(tmp_path));
  uint64_t object_bytes =
      static_cast<uint64_t>(static_cast<double>(source.size()) * config.shape.object_multiplier) +
      config.shape.object_base_bytes;
  std::string obj_path = config.target_root + "/" + DirName(d) + "/" + ObjectName(f);
  CO_RETURN_IF_ERROR(co_await vfs.WriteFile(obj_path, PeriodicBytes(object_bytes, 13)));

  // The temporary dies young — the delete-before-writeback opportunity.
  CO_RETURN_IF_ERROR(co_await vfs.Unlink(tmp_path));
  co_return object_bytes;
}

// Phase 5: compile every source file, then link the objects.
sim::Task<base::Result<uint64_t>> PhaseMake(sim::Simulator& simulator, vfs::Vfs& vfs,
                                            sim::Cpu& cpu, AndrewConfig config) {
  sim::Rng rng(config.shape.seed ^ 0xABCD);
  uint64_t compiled = 0;
  uint64_t object_bytes = 0;
  for (int d = 0; d < config.shape.dirs; ++d) {
    for (int f = 0; f < config.shape.files_per_dir; ++f) {
      CO_ASSIGN_OR_RETURN(uint64_t obj,
                          co_await CompileOne(simulator, vfs, cpu, config, d, f, rng));
      object_bytes += obj;
      ++compiled;
    }
  }
  // Link: read every object, burn CPU, write the final binary.
  for (int d = 0; d < config.shape.dirs; ++d) {
    for (int f = 0; f < config.shape.files_per_dir; ++f) {
      std::string obj_path = config.target_root + "/" + DirName(d) + "/" + ObjectName(f);
      CO_ASSIGN_OR_RETURN(std::vector<uint8_t> data, co_await vfs.ReadFile(obj_path));
      (void)data;
    }
  }
  co_await cpu.Run(config.cpu.link_base +
                   config.cpu.link_per_kb * static_cast<int64_t>(1 + object_bytes / 1024));
  CO_RETURN_IF_ERROR(co_await vfs.WriteFile(config.target_root + "/a.out",
                                            PeriodicBytes(object_bytes * 9 / 10, 1)));
  co_return compiled;
}

}  // namespace

sim::Task<base::Result<AndrewReport>> RunAndrew(sim::Simulator& simulator, vfs::Vfs& vfs,
                                                sim::Cpu& cpu, AndrewConfig config) {
  AndrewReport report;
  sim::Time start = simulator.Now();
  sim::Time phase_start = start;

  auto end_phase = [&](AndrewPhase phase) {
    sim::Time now = simulator.Now();
    report.phase_time[static_cast<int>(phase)] = now - phase_start;
    phase_start = now;
  };

  CO_RETURN_IF_ERROR(co_await PhaseMakeDir(vfs, config));
  end_phase(AndrewPhase::kMakeDir);

  CO_ASSIGN_OR_RETURN(report.bytes_copied, co_await PhaseCopy(vfs, cpu, config));
  end_phase(AndrewPhase::kCopy);

  CO_RETURN_IF_ERROR(co_await PhaseScanDir(simulator, vfs, cpu, config));
  end_phase(AndrewPhase::kScanDir);

  CO_RETURN_IF_ERROR(co_await PhaseReadAll(vfs, cpu, config));
  end_phase(AndrewPhase::kReadAll);

  CO_ASSIGN_OR_RETURN(report.files_compiled, co_await PhaseMake(simulator, vfs, cpu, config));
  end_phase(AndrewPhase::kMake);

  report.total = simulator.Now() - start;
  co_return report;
}

}  // namespace workload
