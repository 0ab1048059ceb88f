// Copyright 2026 The DOD Authors.
//
// End-to-end correctness of the DOD pipeline: every strategy × detector
// combination must report exactly the distance-threshold outliers that a
// centralized brute-force scan finds (Lemma 3.1 / the framework's
// single-pass exactness claim), on a spectrum of data distributions.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/geo_like.h"
#include "data/tiger_like.h"
#include "detection/brute_force.h"

namespace dod {
namespace {

std::vector<PointId> GroundTruth(const Dataset& data,
                                 const DetectionParams& params) {
  BruteForceDetector oracle;
  std::vector<uint32_t> local =
      oracle.DetectOutliers(data, data.size(), params, nullptr);
  return std::vector<PointId>(local.begin(), local.end());
}

struct PipelineCase {
  StrategyKind strategy;
  AlgorithmKind algorithm;  // ignored for DMT
};

std::string CaseName(const testing::TestParamInfo<PipelineCase>& info) {
  std::string name = StrategyKindName(info.param.strategy);
  if (info.param.strategy != StrategyKind::kDmt) {
    name += std::string("_") + AlgorithmKindName(info.param.algorithm);
  }
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class PipelineExactness : public testing::TestWithParam<PipelineCase> {
 protected:
  DodConfig MakeConfig(DetectionParams params) const {
    const PipelineCase& c = GetParam();
    DodConfig config = c.strategy == StrategyKind::kDmt
                           ? DodConfig::Dmt(params)
                           : DodConfig::Baseline(params, c.strategy,
                                                 c.algorithm);
    // Small cluster/plan so tests exercise multi-cell paths quickly.
    config.target_partitions = 16;
    config.num_reduce_tasks = 5;
    config.num_blocks = 7;
    config.sampler.rate = 0.2;  // high rate: stable plans on small data
    config.sampler.buckets_per_dim = 16;
    return config;
  }

  void ExpectExact(const Dataset& data, DetectionParams params) {
    const std::vector<PointId> expected = GroundTruth(data, params);
    DodPipeline pipeline(MakeConfig(params));
    const DodResult result = pipeline.RunOrDie(data);
    EXPECT_EQ(result.outliers, expected)
        << "strategy=" << pipeline.config().Label()
        << " n=" << data.size() << " found=" << result.outliers.size()
        << " expected=" << expected.size();
  }
};

TEST_P(PipelineExactness, UniformData) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const Dataset data = GenerateUniform(2000, DomainForDensity(2000, 0.05), 7);
  ExpectExact(data, params);
}

TEST_P(PipelineExactness, ClusteredData) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  SettlementProfile profile;
  const Dataset data =
      GenerateSettlements(3000, DomainForDensity(3000, 0.05), profile, 11);
  ExpectExact(data, params);
}

TEST_P(PipelineExactness, SparseData) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const Dataset data =
      GenerateUniform(1000, DomainForDensity(1000, 0.004), 13);
  ExpectExact(data, params);
}

TEST_P(PipelineExactness, DenseData) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const Dataset data = GenerateUniform(2000, DomainForDensity(2000, 0.8), 17);
  ExpectExact(data, params);
}

TEST_P(PipelineExactness, CorridorData) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const Dataset data = GenerateTigerLike(2500, 19);
  ExpectExact(data, params);
}

TEST_P(PipelineExactness, LargerNeighborThreshold) {
  DetectionParams params{/*radius=*/8.0, /*min_neighbors=*/12};
  SettlementProfile profile;
  profile.num_cities = 3;
  const Dataset data =
      GenerateSettlements(1500, DomainForDensity(1500, 0.08), profile, 23);
  ExpectExact(data, params);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PipelineExactness,
    testing::Values(
        PipelineCase{StrategyKind::kDomain, AlgorithmKind::kNestedLoop},
        PipelineCase{StrategyKind::kDomain, AlgorithmKind::kCellBased},
        PipelineCase{StrategyKind::kUniSpace, AlgorithmKind::kNestedLoop},
        PipelineCase{StrategyKind::kUniSpace, AlgorithmKind::kCellBased},
        PipelineCase{StrategyKind::kDDriven, AlgorithmKind::kNestedLoop},
        PipelineCase{StrategyKind::kDDriven, AlgorithmKind::kCellBased},
        PipelineCase{StrategyKind::kCDriven, AlgorithmKind::kNestedLoop},
        PipelineCase{StrategyKind::kCDriven, AlgorithmKind::kCellBased},
        PipelineCase{StrategyKind::kDmt, AlgorithmKind::kNestedLoop}),
    CaseName);

TEST(PipelineBasics, ReportsStageBreakdown) {
  DetectionParams params{5.0, 4};
  const Dataset data = GenerateUniform(1500, DomainForDensity(1500, 0.05), 3);
  DodPipeline pipeline(DodConfig::Dmt(params));
  const DodResult result = pipeline.RunOrDie(data);
  EXPECT_GT(result.breakdown.detect.reduce_seconds, 0.0);
  EXPECT_GT(result.breakdown.preprocess_seconds, 0.0);
  EXPECT_EQ(result.breakdown.verify.total(), 0.0);
  EXPECT_GE(result.breakdown.total(), result.breakdown.detect.total());
}

TEST(PipelineBasics, DomainBaselineRunsVerificationJob) {
  DetectionParams params{5.0, 4};
  const Dataset data = GenerateUniform(1500, DomainForDensity(1500, 0.02), 5);
  DodPipeline pipeline(DodConfig::Baseline(params, StrategyKind::kDomain,
                                           AlgorithmKind::kNestedLoop));
  const DodResult result = pipeline.RunOrDie(data);
  // The Domain baseline must have run the second job (it shuffles border
  // points even when no candidate is rescued).
  EXPECT_GT(result.verify_stats.records_mapped, 0u);
  EXPECT_EQ(result.outliers, GroundTruth(data, params));
}

TEST(PipelineBasics, CentralizedHelperMatchesOracle) {
  DetectionParams params{5.0, 4};
  const Dataset data = GenerateUniform(800, DomainForDensity(800, 0.05), 9);
  EXPECT_EQ(DetectOutliersCentralized(data, AlgorithmKind::kNestedLoop,
                                      params),
            GroundTruth(data, params));
  EXPECT_EQ(DetectOutliersCentralized(data, AlgorithmKind::kCellBased,
                                      params),
            GroundTruth(data, params));
}

TEST(PipelineBasics, PointCountCheckRejectsIdsPastTheTagBit) {
  // Shuffle records pack a 31-bit point id beside the core/support tag, so
  // Run refuses inputs whose ids would reach the tag bit before any job
  // starts (the check takes a count, so no 2^31-point dataset is built).
  EXPECT_TRUE(CheckPipelinePointCount(1).ok());
  EXPECT_TRUE(CheckPipelinePointCount(kMaxPipelinePoints).ok());
  const Status too_many = CheckPipelinePointCount(kMaxPipelinePoints + 1);
  EXPECT_EQ(too_many.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_many.message().find("2147483649"), std::string::npos)
      << too_many.ToString();
  EXPECT_EQ(CheckPipelinePointCount(0).code(),
            StatusCode::kInvalidArgument);
}

TEST(PipelineBasics, CellGridOverflowIsRefusedBeforeAnyJob) {
  // At radius 1e-9 the Cell-Based cell side is ~3.5e-10, so the uniform
  // domain spans ~1e11 cells per dimension: past the grid's int32 cell
  // coordinates. Every configuration that can run Cell-Based refuses it.
  DetectionParams params{1e-9, 1};
  const Dataset data = GenerateUniform(2000, DomainForDensity(2000, 0.05), 3);
  for (const DodConfig& config :
       {DodConfig::Dmt(params),
        DodConfig::Baseline(params, StrategyKind::kCDriven,
                            AlgorithmKind::kCellBased),
        DodConfig::Baseline(params, StrategyKind::kDomain,
                            AlgorithmKind::kCellBased)}) {
    const Result<DodResult> result = DodPipeline(config).Run(data);
    ASSERT_FALSE(result.ok()) << config.Label();
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << config.Label();
    EXPECT_NE(result.status().message().find("int32"), std::string::npos)
        << result.status().ToString();
  }
  // Nested-Loop keeps no grid, so the same radius runs.
  const Result<DodResult> nested =
      DodPipeline(DodConfig::Baseline(params, StrategyKind::kCDriven,
                                      AlgorithmKind::kNestedLoop))
          .Run(data);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(nested.value().outliers, GroundTruth(data, params));
}

TEST(PipelineBasics, DeterministicAcrossRuns) {
  DetectionParams params{5.0, 4};
  const Dataset data = GenerateTigerLike(2000, 31);
  DodPipeline pipeline(DodConfig::Dmt(params));
  const DodResult a = pipeline.RunOrDie(data);
  const DodResult b = pipeline.RunOrDie(data);
  EXPECT_EQ(a.outliers, b.outliers);
  EXPECT_EQ(a.plan.partition_plan.num_cells(), b.plan.partition_plan.num_cells());
}

}  // namespace
}  // namespace dod
