// Tests for the benchmark workloads: the Andrew suite and the external sort
// run correctly (and verifiably) on every configuration the paper measures.
#include <gtest/gtest.h>

#include "src/testbed/rig.h"
#include "src/workload/andrew.h"
#include "src/workload/sort.h"

namespace workload {
namespace {

using testbed::Protocol;
using testbed::Rig;
using testbed::RigOptions;

// gtest names each case after the raw bytes of its parameter, so the padding
// after remote_tmp is spelled out and zeroed: left implicit, it held stack
// garbage and the test names changed from one build to the next.
struct RunParam {
  Protocol protocol;
  bool remote_tmp;
  uint8_t zero_padding[3] = {};
};
static_assert(sizeof(RunParam) == 8, "RunParam must have no implicit padding");

std::string ParamName(const ::testing::TestParamInfo<RunParam>& info) {
  std::string name(testbed::ProtocolName(info.param.protocol));
  if (name == "NFS" || name == "SNFS") {
    name += info.param.remote_tmp ? "TmpRemote" : "TmpLocal";
  }
  return name;
}

class AndrewSweep : public ::testing::TestWithParam<RunParam> {};

TEST_P(AndrewSweep, CompletesAllPhases) {
  RigOptions options;
  options.protocol = GetParam().protocol;
  options.remote_tmp = GetParam().remote_tmp;
  Rig rig(options);

  AndrewShape shape;
  shape.dirs = 3;
  shape.files_per_dir = 5;  // small tree: this is a correctness test
  rig.simulator().Spawn(PopulateAndrewTree(rig.data_fs(), rig.data_parent(), shape));
  rig.simulator().Run();

  AndrewConfig config;
  config.src_root = rig.data_root() + "/src";
  config.target_root = rig.data_root() + "/target";
  config.tmp_dir = rig.tmp_dir();
  config.shape = shape;

  bool done = false;
  rig.simulator().Spawn([](Rig& rig, AndrewConfig config, bool& done) -> sim::Task<void> {
    auto report = co_await RunAndrew(rig.simulator(), rig.client().vfs(), rig.client().cpu(),
                                     config);
    EXPECT_TRUE(report.ok());
    if (!report.ok()) {
      co_return;
    }
    EXPECT_EQ(report->files_compiled, 15u);
    EXPECT_GT(report->bytes_copied, 10000u);
    for (int p = 0; p < kNumAndrewPhases; ++p) {
      EXPECT_GT(report->phase_time[p], 0) << AndrewPhaseName(static_cast<AndrewPhase>(p));
    }
    EXPECT_GT(report->total, 0);
    done = true;
  }(rig, config, done));
  rig.simulator().Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Configs, AndrewSweep,
                         ::testing::Values(RunParam{Protocol::kLocal, false},
                                           RunParam{Protocol::kNfs, false},
                                           RunParam{Protocol::kNfs, true},
                                           RunParam{Protocol::kSnfs, false},
                                           RunParam{Protocol::kSnfs, true}),
                         ParamName);

class SortSweep : public ::testing::TestWithParam<RunParam> {};

TEST_P(SortSweep, SortsCorrectlyAndCleansUp) {
  RigOptions options;
  options.protocol = GetParam().protocol;
  options.remote_tmp = true;  // the sort benchmark varies only the temp dir
  if (GetParam().protocol == Protocol::kLocal) {
    options.remote_tmp = false;
  }
  Rig rig(options);

  constexpr uint64_t kInputBytes = 281 * 1024;
  CHECK(rig.client().local_fs() != nullptr);
  rig.simulator().Spawn(PopulateSortInput(*rig.client().local_fs(),
                                          rig.client().local_fs()->root(), "input", kInputBytes,
                                          /*seed=*/555));
  rig.simulator().Run();

  SortConfig config;
  config.input_path = "/local/input";
  config.output_path = "/local/output";
  config.tmp_dir = rig.tmp_dir();

  bool done = false;
  rig.simulator().Spawn([](Rig& rig, SortConfig config, bool& done) -> sim::Task<void> {
    auto report =
        co_await RunSort(rig.simulator(), rig.client().vfs(), rig.client().cpu(), config);
    EXPECT_TRUE(report.ok());
    if (!report.ok()) {
      co_return;
    }
    EXPECT_TRUE(report->verified);  // output is sorted and complete
    EXPECT_EQ(report->input_bytes, 281u * 1024);
    EXPECT_GE(report->runs_created, 2u);
    EXPECT_GE(report->temp_bytes_written, report->input_bytes);
    // All temporaries were deleted.
    auto leftovers = co_await rig.client().vfs().ReadDir(config.tmp_dir);
    EXPECT_TRUE(leftovers.ok());
    if (leftovers.ok()) {
      EXPECT_TRUE(leftovers->empty());
    }
    done = true;
  }(rig, config, done));
  rig.simulator().Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Configs, SortSweep,
                         ::testing::Values(RunParam{Protocol::kLocal, false},
                                           RunParam{Protocol::kNfs, true},
                                           RunParam{Protocol::kSnfs, true}),
                         ParamName);

TEST(SortShape, TempVolumeGrowsFasterThanInput) {
  // The paper's Table 5-3 shows temp storage growing superlinearly
  // (304 k / 2170 k / 7764 k for 281 k / 1408 k / 2816 k inputs) because
  // larger inputs need more merge passes. Verify the mechanism.
  double ratio_small = 0;
  double ratio_large = 0;
  for (uint64_t input_kb : {281, 2816}) {
    testbed::RigOptions options;
    options.protocol = Protocol::kLocal;
    Rig rig(options);
    rig.simulator().Spawn(PopulateSortInput(*rig.client().local_fs(),
                                            rig.client().local_fs()->root(), "input",
                                            input_kb * 1024, 9));
    rig.simulator().Run();
    SortConfig config;
    config.input_path = "/local/input";
    config.output_path = "/local/output";
    config.tmp_dir = rig.tmp_dir();
    double* slot = input_kb == 281 ? &ratio_small : &ratio_large;
    rig.simulator().Spawn([](Rig& rig, SortConfig config, double* slot) -> sim::Task<void> {
      auto report =
          co_await RunSort(rig.simulator(), rig.client().vfs(), rig.client().cpu(), config);
      EXPECT_TRUE(report.ok());
      if (report.ok()) {
        EXPECT_TRUE(report->verified);
        *slot = static_cast<double>(report->temp_bytes_written) /
                static_cast<double>(report->input_bytes);
      }
    }(rig, config, slot));
    rig.simulator().Run();
  }
  EXPECT_GT(ratio_small, 0.9);
  EXPECT_LT(ratio_small, 1.6);   // single merge pass
  EXPECT_GT(ratio_large, 2.0);   // multiple passes
}

}  // namespace
}  // namespace workload
