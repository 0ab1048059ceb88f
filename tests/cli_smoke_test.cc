// Copyright 2026 The DOD Authors.
//
// End-to-end smoke tests of the dod_cli binary: exercises the flag paths,
// CSV/binary I/O, plan export, and error handling through the real
// executable. The binary location comes from the DOD_CLI_PATH compile
// definition set by CMake.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "io/csv.h"

#ifndef DOD_CLI_PATH
#define DOD_CLI_PATH "build/tools/dod_cli"
#endif

namespace dod {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunCommand(const std::string& args) {
  const std::string command = std::string(DOD_CLI_PATH) + " " + args + " 2>&1";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

TEST(CliSmokeTest, HelpExitsZero) {
  const CommandResult result = RunCommand("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("--strategy"), std::string::npos);
}

TEST(CliSmokeTest, GeneratedRunReportsOutliers) {
  const CommandResult result =
      RunCommand("--generate uniform --n 3000 --density 0.02 --seed 7");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("outliers"), std::string::npos);
  EXPECT_NE(result.output.find("DMT"), std::string::npos);
}

TEST(CliSmokeTest, AllStrategiesRun) {
  for (const char* strategy :
       {"domain", "unispace", "ddriven", "cdriven", "dmt"}) {
    const CommandResult result = RunCommand(
        std::string("--generate uniform --n 1500 --strategy ") + strategy);
    EXPECT_EQ(result.exit_code, 0) << strategy << ": " << result.output;
  }
}

TEST(CliSmokeTest, CsvInputAndOutput) {
  const std::string in_path = testing::TempDir() + "/cli_smoke_in.csv";
  const std::string out_path = testing::TempDir() + "/cli_smoke_out.csv";
  {
    // A grid of points plus one far-away outlier.
    std::string csv;
    for (int x = 0; x < 30; ++x) {
      for (int y = 0; y < 30; ++y) {
        csv += std::to_string(x) + "," + std::to_string(y) + "\n";
      }
    }
    csv += "500,500\n";
    FILE* f = fopen(in_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(csv.c_str(), f);
    fclose(f);
  }
  const CommandResult result = RunCommand("--input " + in_path +
                                          " --radius 2 --k 4 --out " +
                                          out_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  Result<Dataset> outliers = ReadCsv(out_path);
  ASSERT_TRUE(outliers.ok());
  // The isolated point must be among the reported outliers.
  bool found = false;
  for (size_t i = 0; i < outliers.value().size(); ++i) {
    if (outliers.value()[static_cast<PointId>(i)][0] == 500.0) found = true;
  }
  EXPECT_TRUE(found);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(CliSmokeTest, PlanExport) {
  const std::string plan_path = testing::TempDir() + "/cli_smoke_plan.txt";
  const CommandResult result = RunCommand(
      "--generate uniform --n 2000 --plan-out " + plan_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  FILE* f = fopen(plan_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[16] = {0};
  ASSERT_NE(fgets(header, sizeof(header), f), nullptr);
  EXPECT_EQ(std::string(header).rfind("dod-plan", 0), 0u);
  fclose(f);
  std::remove(plan_path.c_str());
}

TEST(CliSmokeTest, TransientFaultInjectionStillSucceeds) {
  const CommandResult result = RunCommand(
      "--generate uniform --n 2000 --seed 7 --fault_failure_prob 0.35 "
      "--fault_seed 9 --max_task_attempts 8 --verbose");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // Under a 40% per-attempt failure rate something fails and recovers, and
  // the report advertises it.
  EXPECT_NE(result.output.find("fault recovery"), std::string::npos)
      << result.output;
}

TEST(CliSmokeTest, ExhaustedRetriesFailCleanly) {
  const CommandResult result = RunCommand(
      "--generate uniform --n 1000 --fault_failure_prob 1 "
      "--max_task_attempts 2");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("failed after 2 attempts"), std::string::npos)
      << result.output;
}

TEST(CliSmokeTest, UnknownFlagIsRejected) {
  const CommandResult result =
      RunCommand("--generate uniform --n 1000 --bogus-flag 3");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown flag"), std::string::npos);
}

TEST(CliSmokeTest, BadStrategyIsRejected) {
  const CommandResult result =
      RunCommand("--generate uniform --n 1000 --strategy quantum");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown --strategy"), std::string::npos);
}

TEST(CliSmokeTest, TooManyColumnsExitsWithMessage) {
  // A 9-entry --columns list is past kMaxDimensions: exit 1 with a
  // message, not a signal.
  const std::string in_path = testing::TempDir() + "/cli_smoke_wide.csv";
  FILE* f = fopen(in_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("0,1,2,3,4,5,6,7,8\n", f);
  fclose(f);
  const CommandResult result =
      RunCommand("--input " + in_path + " --columns 0,1,2,3,4,5,6,7,8");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("columns"), std::string::npos)
      << result.output;
  std::remove(in_path.c_str());
}

TEST(CliSmokeTest, CellGridOverflowExitsWithMessage) {
  // A radius so small that the domain spans more Cell-Based cells than
  // int32 coordinates hold: exit 1 with a message, not a signal or a
  // silently collapsed grid.
  const CommandResult result = RunCommand(
      "--generate uniform --n 2000 --radius 1e-9 --k 1 --strategy cdriven "
      "--algorithm cell_based --threads 1");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("int32"), std::string::npos) << result.output;
}

TEST(CliSmokeTest, MissingInputFileIsRejected) {
  const CommandResult result = RunCommand("--input /no/such/file.csv");
  EXPECT_NE(result.exit_code, 0);
}

}  // namespace
}  // namespace dod
