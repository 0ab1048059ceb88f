// Copyright 2026 The DOD Authors.
//
// Pipeline robustness across configuration space: exactness must hold for
// any block count, reducer count, partition granularity, packing policy,
// sampling rate, cluster shape, dimensionality, and dataset family.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/distort.h"
#include "data/generators.h"
#include "data/geo_like.h"
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

Dataset TestData(uint64_t seed, size_t n = 2500) {
  SettlementProfile profile;
  return GenerateSettlements(n, DomainForDensity(n, 0.05), profile, seed);
}

TEST(PipelineConfigTest, SingleBlockSingleReducer) {
  const Dataset data = TestData(1);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.num_blocks = 1;
  config.num_reduce_tasks = 1;
  config.sampler.rate = 0.3;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, ManyBlocksManyReducers) {
  const Dataset data = TestData(2);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.num_blocks = 64;
  config.num_reduce_tasks = 128;
  config.sampler.rate = 0.3;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, SinglePartitionDegenerates) {
  const Dataset data = TestData(3);
  DetectionParams params{5.0, 4};
  for (StrategyKind strategy : {StrategyKind::kUniSpace,
                                StrategyKind::kDDriven,
                                StrategyKind::kDomain}) {
    DodConfig config = DodConfig::Baseline(params, strategy,
                                           AlgorithmKind::kNestedLoop);
    config.target_partitions = 1;
    config.sampler.rate = 0.3;
    EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
              GroundTruth(data, params))
        << StrategyKindName(strategy);
  }
}

TEST(PipelineConfigTest, AllPackingPolicies) {
  const Dataset data = TestData(4);
  DetectionParams params{5.0, 4};
  const std::vector<PointId> expected = GroundTruth(data, params);
  for (PackingPolicy policy :
       {PackingPolicy::kRoundRobin, PackingPolicy::kLpt,
        PackingPolicy::kKarmarkarKarp}) {
    DodConfig config = DodConfig::Dmt(params);
    config.packing = policy;
    config.sampler.rate = 0.3;
    EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers, expected)
        << PackingPolicyName(policy);
  }
}

TEST(PipelineConfigTest, VeryLowSamplingRateStaysExact) {
  // A bad sample may produce a poor plan, never a wrong answer.
  const Dataset data = TestData(5, 4000);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.005;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, CoarseAndFineMiniBuckets) {
  const Dataset data = TestData(6);
  DetectionParams params{5.0, 4};
  const std::vector<PointId> expected = GroundTruth(data, params);
  for (int buckets : {4, 16, 96}) {
    DodConfig config = DodConfig::Dmt(params);
    config.sampler.rate = 0.3;
    config.sampler.buckets_per_dim = buckets;
    EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers, expected)
        << buckets << " buckets/dim";
  }
}

TEST(PipelineConfigTest, TinyClusterStillExact) {
  const Dataset data = TestData(7);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.cluster = ClusterSpec::Local(2);
  config.sampler.rate = 0.3;
  const DodResult result = DodPipeline(config).RunOrDie(data);
  EXPECT_EQ(result.outliers, GroundTruth(data, params));
  EXPECT_GT(result.breakdown.detect.reduce_seconds, 0.0);
}

TEST(PipelineConfigTest, ThreeDimensionalPipeline) {
  const Dataset data = GenerateUniform(2000, Rect::Cube(3, 0.0, 60.0), 8);
  DetectionParams params{4.0, 5};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.3;
  config.sampler.buckets_per_dim = 12;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, DistortedDataPipeline) {
  const Dataset base = TestData(9, 800);
  DistortOptions distort;
  distort.copies = 3;
  const Dataset data = DistortReplicate(base, distort);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.3;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, HierarchicalDataAllStrategies) {
  const Dataset data = GenerateHierarchical(MapLevel::kNewEngland, 900, 10);
  DetectionParams params{5.0, 4};
  const std::vector<PointId> expected = GroundTruth(data, params);
  for (StrategyKind strategy :
       {StrategyKind::kDomain, StrategyKind::kUniSpace,
        StrategyKind::kDDriven, StrategyKind::kCDriven, StrategyKind::kDmt}) {
    DodConfig config =
        strategy == StrategyKind::kDmt
            ? DodConfig::Dmt(params)
            : DodConfig::Baseline(params, strategy,
                                  AlgorithmKind::kCellBased);
    config.sampler.rate = 0.3;
    EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers, expected)
        << StrategyKindName(strategy);
  }
}

TEST(PipelineConfigTest, RadiusLargerThanDomain) {
  // Every point is everyone's neighbor; with k < n there are no outliers,
  // and every cell's supporting area covers the whole domain.
  const Dataset data = GenerateUniform(300, Rect::Cube(2, 0.0, 10.0), 11);
  DetectionParams params{100.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.5;
  EXPECT_TRUE(DodPipeline(config).RunOrDie(data).outliers.empty());
}

TEST(PipelineConfigTest, KOfOne) {
  const Dataset data = TestData(12, 1200);
  DetectionParams params{3.0, 1};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.3;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, DuplicateHeavyData) {
  // Many exact duplicates (sensor pileups): grouping and self-exclusion
  // must stay correct.
  Dataset data(2);
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    const Point p{rng.NextUniform(0.0, 100.0), rng.NextUniform(0.0, 100.0)};
    const int copies = 1 + static_cast<int>(rng.NextBounded(5));
    for (int c = 0; c < copies; ++c) data.Append(p);
  }
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.5;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, ClusterSpecAffectsSimulatedTimesOnly) {
  const Dataset data = TestData(14);
  DetectionParams params{5.0, 4};
  DodConfig small = DodConfig::Dmt(params);
  small.cluster = ClusterSpec::Local(1);
  small.sampler.rate = 0.3;
  DodConfig large = DodConfig::Dmt(params);
  large.cluster.num_nodes = 100;
  large.sampler.rate = 0.3;
  const DodResult a = DodPipeline(small).RunOrDie(data);
  const DodResult b = DodPipeline(large).RunOrDie(data);
  EXPECT_EQ(a.outliers, b.outliers);
  // One slot serializes everything; 800 reduce slots parallelize fully.
  EXPECT_GT(a.breakdown.detect.reduce_seconds,
            b.breakdown.detect.reduce_seconds);
}

TEST(PipelineConfigTest, CountersReportAlgorithmMix) {
  const Dataset data = GenerateHierarchical(MapLevel::kNewEngland, 2000, 15);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.3;
  const DodResult result = DodPipeline(config).RunOrDie(data);
  const uint64_t nl_cells =
      result.detect_stats.counters.Get("cells.Nested-Loop");
  const uint64_t cb_cells =
      result.detect_stats.counters.Get("cells.Cell-Based");
  EXPECT_GT(nl_cells + cb_cells, 0u);
}

// `dod_cli --generate uniform --n <n> --seed 11 --blocks 4 --reducers
// <reducers> --memory_budget_mb <budget_mb> --threads <threads>`.
DodConfig BudgetedConfig(int reducers, uint64_t budget_mb, int threads) {
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  config.seed = 11;
  config.target_partitions = 50;
  config.num_blocks = 4;
  config.num_reduce_tasks = reducers;
  config.memory_budget_mb = budget_mb;
  config.num_threads = threads;
  return config;
}

Dataset BudgetedData() {
  return GenerateUniform(200000, DomainForDensity(200000, 0.05), 11);
}

TEST(PipelineConfigTest, TightBudgetCommitsSameOutliersAtEveryThreadCount) {
  // Each of the two reduce tasks' arenas fits the 3 MiB budget alone but
  // not next to the other's: a concurrent task waits for room instead of
  // failing, so every thread count commits the sequential run's outliers.
  const Dataset data = BudgetedData();
  std::vector<PointId> sequential;
  for (int threads : {1, 2, 4}) {
    DodConfig config = BudgetedConfig(/*reducers=*/2, /*budget_mb=*/3, threads);
    config.spill_dir = testing::TempDir() + "/tight_budget_spill";
    config.spill_threshold_mb = 64;
    Result<DodResult> result = DodPipeline(config).Run(data);
    ASSERT_TRUE(result.ok()) << "threads " << threads << ": "
                             << result.status().ToString();
    if (threads == 1) {
      sequential = result.value().outliers;
      EXPECT_FALSE(sequential.empty());
    } else {
      EXPECT_EQ(result.value().outliers, sequential) << "threads " << threads;
    }
  }
}

TEST(PipelineConfigTest, ArenaOverBudgetFailsWithOneMessageAtEveryThreadCount) {
  // A reduce task's arena cannot fit the 1 MiB budget alone: the error
  // names its size and the limit — never what concurrent tasks hold — so
  // every thread count reports the same one.
  const Dataset data = BudgetedData();
  std::string sequential;
  for (int threads : {1, 2, 4}) {
    Result<DodResult> result =
        DodPipeline(BudgetedConfig(/*reducers=*/3, /*budget_mb=*/1, threads))
            .Run(data);
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    const std::string message = result.status().ToString();
    EXPECT_NE(message.find("more than the whole 1048576-byte memory budget"),
              std::string::npos)
        << message;
    if (threads == 1) {
      sequential = message;
    } else {
      EXPECT_EQ(message, sequential) << "threads " << threads;
    }
  }
}

TEST(PipelineConfigTest, ByteBudgetsThatOverflowAreInvalidArguments) {
  // MiB counts above UINT64_MAX >> 20 would wrap on the byte conversion:
  // 2^44 + 1 MiB used to become a 1 MiB budget, 2^44 MiB "unlimited".
  const Dataset data = TestData(16, 500);
  for (uint64_t mb : {(uint64_t{1} << 44) + 1, uint64_t{1} << 44,
                      ~uint64_t{0}}) {
    DodConfig budget = DodConfig::Dmt(DetectionParams{5.0, 4});
    budget.memory_budget_mb = mb;
    EXPECT_EQ(DodPipeline(budget).Run(data).status().code(),
              StatusCode::kInvalidArgument)
        << "memory_budget_mb " << mb;
    DodConfig spill = DodConfig::Dmt(DetectionParams{5.0, 4});
    spill.spill_dir = testing::TempDir() + "/overflow_spill";
    spill.spill_threshold_mb = mb;
    EXPECT_EQ(DodPipeline(spill).Run(data).status().code(),
              StatusCode::kInvalidArgument)
        << "spill_threshold_mb " << mb;
  }
  // The largest convertible count still runs.
  DodConfig largest = DodConfig::Dmt(DetectionParams{5.0, 4});
  largest.memory_budget_mb = ~uint64_t{0} >> 20;
  EXPECT_TRUE(DodPipeline(largest).Run(data).ok());
}

TEST(PipelineConfigTest, EmptyJobShapesAreInvalidArguments) {
  const Dataset data = TestData(17, 500);
  DodConfig reducers = DodConfig::Dmt(DetectionParams{5.0, 4});
  reducers.num_reduce_tasks = 0;
  DodConfig blocks = DodConfig::Dmt(DetectionParams{5.0, 4});
  blocks.num_blocks = 0;
  DodConfig buckets = DodConfig::Dmt(DetectionParams{5.0, 4});
  buckets.sampler.buckets_per_dim = 0;
  for (const DodConfig& config : {reducers, blocks, buckets}) {
    EXPECT_EQ(DodPipeline(config).Run(data).status().code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace dod
