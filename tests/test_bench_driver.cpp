// Runs the bench_all driver. Each device-level experiment, alone under
// `--only`, must print a contiguous slice of the committed golden
// transcript; the flow-level ones are held to the whole golden by CI's
// artifact-cache job. A malformed invocation exits 2 before any work.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#ifndef TAF_BENCH_DRIVER
#error "TAF_BENCH_DRIVER must be the path of the bench_all executable"
#endif
#ifndef TAF_GOLDEN_DIR
#error "TAF_GOLDEN_DIR must point at the tests/golden source directory"
#endif

namespace {

/// Exit code (-1 if it did not exit) and stdout of one bench_all run.
std::pair<int, std::string> run_driver(const std::string& args) {
  const std::string cmd = "'" + std::string(TAF_BENCH_DRIVER) + "' " + args + " 2>/dev/null";
  std::pair<int, std::string> r{-1, ""};
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  for (int c; (c = std::fgetc(pipe)) != EOF;) r.second.push_back(static_cast<char>(c));
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.first = WEXITSTATUS(status);
  return r;
}

class BenchAllOnly : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchAllOnly, StdoutIsASliceOfTheGolden) {
  std::ostringstream golden;
  golden << std::ifstream(std::string(TAF_GOLDEN_DIR) + "/bench_all.stdout").rdbuf();
  ASSERT_FALSE(golden.str().empty()) << "cannot read the golden transcript";
  const auto [code, out] = run_driver(std::string("-j 1 --only ") + GetParam());
  ASSERT_EQ(code, 0);
  ASSERT_FALSE(out.empty());
  EXPECT_NE(golden.str().find(out), std::string::npos)
      << GetParam() << " stdout is not a contiguous slice of the golden:\n"
      << out;
}

INSTANTIATE_TEST_SUITE_P(DeviceLevel, BenchAllOnly,
                         ::testing::Values("ablation_sizing", "eq1_expected_delay",
                                           "fig1_delay_vs_temp", "fig2_corner_matrix",
                                           "fig3_cp_corner_curves", "table1_arch_params",
                                           "table2_characterization",
                                           "validation_dsp_liberty", "validation_thermal"),
                         [](const auto& name_info) { return std::string(name_info.param); });

TEST(BenchAllArgs, UnknownExperimentOrMalformedThreadCountExitsTwo) {
  for (const char* args : {"--only no_such_experiment", "-j abc --list", "-jfoo --list",
                           "-j 0 --list", "-j -3 --list", "-j 4x --list", "-j --list"}) {
    EXPECT_EQ(run_driver(args), std::make_pair(2, std::string())) << args;
  }
}

TEST(BenchAllArgs, WellFormedThreadCountIsAccepted) {
  for (const char* args : {"-j 2 --list", "-j2 --list"}) {
    const auto [code, out] = run_driver(args);
    EXPECT_EQ(code, 0) << args;
    EXPECT_NE(out.find("table1_arch_params\n"), std::string::npos) << args;
  }
}

}  // namespace
