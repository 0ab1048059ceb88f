// Copyright 2026 The DOD Authors.
//
// Fault tolerance: deterministic fault injection, task attempts with retry
// and backoff, speculative execution, node blacklisting, and Status-based
// error propagation — at the engine level and through the full pipeline.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/generators.h"
#include "detection/brute_force.h"
#include "mapreduce/job.h"

namespace dod {
namespace {

// ---------------------------------------------------------------------------
// Engine-level fixtures: the classic word-count-style job from
// mapreduce_job_test, now run under an adversarial injector.

class ModMapper : public Mapper<int, int> {
 public:
  explicit ModMapper(int per_split) : per_split_(per_split) {}

  Status Map(size_t split_index, Emitter<int, int>& out) override {
    const int base = static_cast<int>(split_index) * per_split_;
    for (int v = base; v < base + per_split_; ++v) {
      out.Emit(v % 10, v);
    }
    return Status::Ok();
  }

 private:
  int per_split_;
};

struct KeyCount {
  int key;
  int count;
  bool operator==(const KeyCount& other) const {
    return key == other.key && count == other.count;
  }
};

class CountReducer : public Reducer<int, int, KeyCount> {
 public:
  Status Reduce(const GroupedView<int, int>& groups,
                std::vector<KeyCount>& out, Counters& counters) override {
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      out.push_back(
          KeyCount{groups.key(g), static_cast<int>(groups.size(g))});
      counters.Increment("groups_seen");
    }
    return Status::Ok();
  }
};

JobSpec FaultFreeSpec(int reducers) {
  JobSpec spec;
  spec.num_reduce_tasks = reducers;
  spec.cluster = ClusterSpec::Local(4);
  return spec;
}

// Faults stop after `transient_attempts` attempts per task, so a retry
// budget above that always converges.
JobSpec TransientFaultSpec(int reducers, int transient_attempts) {
  JobSpec spec = FaultFreeSpec(reducers);
  spec.faults.enabled = true;
  spec.faults.seed = 7;
  spec.faults.max_faulty_attempts_per_task = transient_attempts;
  return spec;
}

JobOutput<KeyCount> RunCountJob(const JobSpec& spec) {
  ModMapper mapper(100);
  CountReducer reducer;
  return RunMapReduce<int, int, KeyCount>(
             /*num_splits=*/5, mapper, reducer,
             [](const int& key) { return key % 3; }, spec)
      .ValueOrDie();
}

Result<JobOutput<KeyCount>> TryCountJob(const JobSpec& spec) {
  ModMapper mapper(100);
  CountReducer reducer;
  return RunMapReduce<int, int, KeyCount>(
      /*num_splits=*/5, mapper, reducer,
      [](const int& key) { return key % 3; }, spec);
}

TEST(FaultToleranceTest, TransientTaskFailuresRetryToExactOutput) {
  const JobOutput<KeyCount> baseline = RunCountJob(FaultFreeSpec(3));

  JobSpec spec = TransientFaultSpec(3, /*transient_attempts=*/2);
  spec.faults.task_failure_prob = 1.0;  // first two attempts always crash
  spec.retry.max_task_attempts = 4;
  const JobOutput<KeyCount> job = RunCountJob(spec);

  EXPECT_EQ(job.output, baseline.output);
  EXPECT_EQ(job.stats.counters.Get("groups_seen"), 10u);
  // 5 map + 3 reduce tasks, each failing its first two attempts.
  EXPECT_EQ(job.stats.task_failures, 16u);
  EXPECT_EQ(job.stats.task_retries, 16u);
  EXPECT_EQ(job.stats.task_attempts, 24u);
  EXPECT_GT(job.stats.backoff_seconds, 0.0);
  // Every attempt occupies a slot, so the stage sees more costs than tasks.
  EXPECT_EQ(job.stats.map_task_seconds.size(), 15u);
}

TEST(FaultToleranceTest, ExhaustedRetriesReturnStructuredErrorNotAbort) {
  JobSpec spec = FaultFreeSpec(3);
  spec.faults.enabled = true;
  spec.faults.seed = 7;
  spec.faults.task_failure_prob = 1.0;  // every attempt fails, forever
  spec.retry.max_task_attempts = 3;

  const Result<JobOutput<KeyCount>> job = TryCountJob(spec);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kUnavailable);
  // The error names the task, the attempt count, and the fault kind.
  const std::string message(job.status().message());
  EXPECT_NE(message.find("map task 0"), std::string::npos) << message;
  EXPECT_NE(message.find("failed after 3 attempts"), std::string::npos)
      << message;
  EXPECT_NE(message.find("task-failure"), std::string::npos) << message;
}

TEST(FaultToleranceTest, UserMapStatusPropagatesWithTaskContext) {
  class PoisonSplitMapper : public Mapper<int, int> {
   public:
    Status Map(size_t split_index, Emitter<int, int>& out) override {
      if (split_index == 2) return Status::Internal("checksum mismatch");
      out.Emit(static_cast<int>(split_index), 1);
      return Status::Ok();
    }
  };
  PoisonSplitMapper mapper;
  CountReducer reducer;
  JobSpec spec = FaultFreeSpec(2);
  spec.retry.max_task_attempts = 2;
  const auto job = RunMapReduce<int, int, KeyCount>(
      4, mapper, reducer, [](const int&) { return 0; }, spec);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kInternal);
  const std::string message(job.status().message());
  EXPECT_NE(message.find("map task 2"), std::string::npos) << message;
  EXPECT_NE(message.find("checksum mismatch"), std::string::npos) << message;
}

TEST(FaultToleranceTest, StragglerTriggersSpeculativeExecution) {
  const JobOutput<KeyCount> baseline = RunCountJob(FaultFreeSpec(3));

  JobSpec spec = TransientFaultSpec(3, /*transient_attempts=*/1);
  spec.faults.straggler_prob = 1.0;
  spec.faults.straggler_multiplier = 4.0;  // above the 1.5 threshold
  const JobOutput<KeyCount> job = RunCountJob(spec);

  EXPECT_EQ(job.output, baseline.output);
  // Every first attempt straggles → every task launches a duplicate.
  EXPECT_EQ(job.stats.speculative_attempts, 8u);
  EXPECT_LE(job.stats.speculative_wins, job.stats.speculative_attempts);
  EXPECT_EQ(job.stats.task_failures, 0u);
  // Both the straggler and its duplicate occupy slots (Hadoop semantics).
  EXPECT_EQ(job.stats.map_task_seconds.size(), 10u);
}

TEST(FaultToleranceTest, SpeculationCanBeDisabled) {
  JobSpec spec = TransientFaultSpec(3, /*transient_attempts=*/1);
  spec.faults.straggler_prob = 1.0;
  spec.retry.speculative_execution = false;
  const JobOutput<KeyCount> job = RunCountJob(spec);
  EXPECT_EQ(job.stats.speculative_attempts, 0u);
  EXPECT_EQ(job.stats.map_task_seconds.size(), 5u);
}

TEST(FaultToleranceTest, ShuffleDropPoisonsAttemptAndRecovers) {
  const JobOutput<KeyCount> baseline = RunCountJob(FaultFreeSpec(3));

  JobSpec spec = TransientFaultSpec(3, /*transient_attempts=*/1);
  spec.faults.shuffle_drop_prob = 0.05;  // ~5 of 100 records per map attempt
  const JobOutput<KeyCount> job = RunCountJob(spec);

  // Committed output is exact: poisoned attempts were discarded wholesale.
  EXPECT_EQ(job.output, baseline.output);
  EXPECT_GT(job.stats.shuffle_records_dropped, 0u);
  EXPECT_GT(job.stats.task_failures, 0u);
  EXPECT_EQ(job.stats.records_shuffled, 500u);
}

TEST(FaultToleranceTest, ShuffleCorruptionPoisonsAttemptAndRecovers) {
  const JobOutput<KeyCount> baseline = RunCountJob(FaultFreeSpec(3));

  JobSpec spec = TransientFaultSpec(3, /*transient_attempts=*/1);
  spec.faults.shuffle_corrupt_prob = 0.05;
  const JobOutput<KeyCount> job = RunCountJob(spec);

  EXPECT_EQ(job.output, baseline.output);
  EXPECT_GT(job.stats.shuffle_records_corrupted, 0u);
  EXPECT_EQ(job.output.size(), baseline.output.size());
}

TEST(FaultToleranceTest, FailingNodesAreBlacklisted) {
  ModMapper mapper(50);
  CountReducer reducer;
  JobSpec spec;
  spec.num_reduce_tasks = 4;
  spec.cluster.num_nodes = 4;
  spec.cluster.map_slots_per_node = 2;
  spec.cluster.reduce_slots_per_node = 2;
  spec.faults.enabled = true;
  spec.faults.seed = 11;
  spec.faults.task_failure_prob = 1.0;
  spec.faults.max_faulty_attempts_per_task = 1;
  spec.retry.max_task_attempts = 4;
  spec.retry.node_failure_quota = 2;

  const auto job = RunMapReduce<int, int, KeyCount>(
                       12, mapper, reducer,
                       [](const int& key) { return key % 4; }, spec)
                       .ValueOrDie();
  // 16 task failures over 4 nodes with quota 2 → someone gets blacklisted,
  // yet the job still completes on the surviving slots.
  EXPECT_GT(job.stats.nodes_blacklisted, 0u);
  EXPECT_EQ(job.stats.groups_reduced, 10u);
}

TEST(FaultToleranceTest, IdenticalSeedsGiveIdenticalFaultSchedules) {
  JobSpec spec = TransientFaultSpec(3, /*transient_attempts=*/2);
  spec.faults.task_failure_prob = 0.4;
  spec.faults.straggler_prob = 0.3;
  spec.faults.shuffle_drop_prob = 0.01;
  spec.retry.max_task_attempts = 5;

  const JobOutput<KeyCount> a = RunCountJob(spec);
  const JobOutput<KeyCount> b = RunCountJob(spec);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.stats.task_attempts, b.stats.task_attempts);
  EXPECT_EQ(a.stats.task_failures, b.stats.task_failures);
  EXPECT_EQ(a.stats.task_retries, b.stats.task_retries);
  EXPECT_EQ(a.stats.speculative_attempts, b.stats.speculative_attempts);
  EXPECT_EQ(a.stats.speculative_wins, b.stats.speculative_wins);
  EXPECT_EQ(a.stats.shuffle_records_dropped, b.stats.shuffle_records_dropped);
  EXPECT_EQ(a.stats.shuffle_records_corrupted,
            b.stats.shuffle_records_corrupted);
  EXPECT_EQ(a.stats.nodes_blacklisted, b.stats.nodes_blacklisted);
  EXPECT_DOUBLE_EQ(a.stats.backoff_seconds, b.stats.backoff_seconds);
}

// ---------------------------------------------------------------------------
// Parallel determinism under faults: for every fault-injection kind, a run
// on N worker threads must commit byte-identical output, counters, and
// fault accounting to the sequential run. (nodes_blacklisted is excluded:
// injected *faults* are pure hashes of (seed, phase, task, attempt), but
// node *placement* probes the blacklist at attempt start, which is
// interleaving-sensitive — it affects no committed output.)

JobSpec WithThreads(JobSpec spec, int num_threads) {
  spec.num_threads = num_threads;
  return spec;
}

void ExpectSameCommittedResults(const JobOutput<KeyCount>& sequential,
                                const JobOutput<KeyCount>& parallel,
                                const std::string& label) {
  EXPECT_EQ(parallel.output, sequential.output) << label;
  EXPECT_EQ(parallel.stats.counters.values(),
            sequential.stats.counters.values())
      << label;
  EXPECT_EQ(parallel.stats.records_shuffled, sequential.stats.records_shuffled)
      << label;
  EXPECT_EQ(parallel.stats.groups_reduced, sequential.stats.groups_reduced)
      << label;
  EXPECT_EQ(parallel.stats.task_attempts, sequential.stats.task_attempts)
      << label;
  EXPECT_EQ(parallel.stats.task_failures, sequential.stats.task_failures)
      << label;
  EXPECT_EQ(parallel.stats.task_retries, sequential.stats.task_retries)
      << label;
  EXPECT_EQ(parallel.stats.speculative_attempts,
            sequential.stats.speculative_attempts)
      << label;
  EXPECT_EQ(parallel.stats.speculative_wins, sequential.stats.speculative_wins)
      << label;
  EXPECT_EQ(parallel.stats.shuffle_records_dropped,
            sequential.stats.shuffle_records_dropped)
      << label;
  EXPECT_EQ(parallel.stats.shuffle_records_corrupted,
            sequential.stats.shuffle_records_corrupted)
      << label;
  EXPECT_DOUBLE_EQ(parallel.stats.backoff_seconds,
                   sequential.stats.backoff_seconds)
      << label;
  // Per-slot costs are measured attempt durations — values vary run to run,
  // but the attempt schedule (and hence slot count) is thread-invariant.
  EXPECT_EQ(parallel.stats.map_task_seconds.size(),
            sequential.stats.map_task_seconds.size())
      << label;
  EXPECT_EQ(parallel.stats.reduce_task_seconds.size(),
            sequential.stats.reduce_task_seconds.size())
      << label;
}

TEST(ParallelFaultDeterminismTest, EveryFaultKindCommitsIdentically) {
  struct Scenario {
    const char* name;
    JobSpec spec;
  };
  std::vector<Scenario> scenarios;

  {
    JobSpec crash = TransientFaultSpec(3, /*transient_attempts=*/2);
    crash.faults.task_failure_prob = 1.0;
    crash.retry.max_task_attempts = 4;
    scenarios.push_back({"task-failure", crash});
  }
  {
    JobSpec straggle = TransientFaultSpec(3, /*transient_attempts=*/1);
    straggle.faults.straggler_prob = 1.0;
    straggle.faults.straggler_multiplier = 4.0;
    scenarios.push_back({"straggler+speculation", straggle});
  }
  {
    JobSpec drop = TransientFaultSpec(3, /*transient_attempts=*/1);
    drop.faults.shuffle_drop_prob = 0.05;
    scenarios.push_back({"shuffle-drop", drop});
  }
  {
    JobSpec corrupt = TransientFaultSpec(3, /*transient_attempts=*/1);
    corrupt.faults.shuffle_corrupt_prob = 0.05;
    scenarios.push_back({"shuffle-corrupt", corrupt});
  }
  {
    JobSpec mixed = TransientFaultSpec(3, /*transient_attempts=*/2);
    mixed.faults.task_failure_prob = 0.4;
    mixed.faults.straggler_prob = 0.3;
    mixed.faults.straggler_multiplier = 4.0;
    mixed.faults.shuffle_drop_prob = 0.01;
    mixed.faults.shuffle_corrupt_prob = 0.01;
    mixed.retry.max_task_attempts = 5;
    scenarios.push_back({"mixed", mixed});
  }

  for (const Scenario& scenario : scenarios) {
    const JobOutput<KeyCount> sequential =
        RunCountJob(WithThreads(scenario.spec, 1));
    ASSERT_GT(sequential.stats.task_attempts, 8u) << scenario.name;
    for (int threads : {2, 8}) {
      const JobOutput<KeyCount> parallel =
          RunCountJob(WithThreads(scenario.spec, threads));
      ExpectSameCommittedResults(
          sequential, parallel,
          std::string(scenario.name) + " @ " + std::to_string(threads) +
              " threads");
    }
  }
}

TEST(ParallelFaultDeterminismTest, ExhaustedRetriesFailIdenticallyInParallel) {
  JobSpec spec = FaultFreeSpec(3);
  spec.faults.enabled = true;
  spec.faults.seed = 7;
  spec.faults.task_failure_prob = 1.0;  // permanent
  spec.retry.max_task_attempts = 3;

  const Result<JobOutput<KeyCount>> sequential =
      TryCountJob(WithThreads(spec, 1));
  ASSERT_FALSE(sequential.ok());
  for (int threads : {2, 8}) {
    const Result<JobOutput<KeyCount>> parallel =
        TryCountJob(WithThreads(spec, threads));
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status().code(), sequential.status().code());
    // Every map task fails permanently; the committed error is always the
    // lowest-index task's, so the message matches the sequential run.
    EXPECT_EQ(std::string(parallel.status().message()),
              std::string(sequential.status().message()));
  }
}

// ---------------------------------------------------------------------------
// Pipeline-level: the acceptance-facing behaviors.

std::vector<PointId> GroundTruth(const Dataset& data,
                                 const DetectionParams& params) {
  BruteForceDetector oracle;
  std::vector<uint32_t> local =
      oracle.DetectOutliers(data, data.size(), params, nullptr);
  return std::vector<PointId>(local.begin(), local.end());
}

DodConfig SmallDmtConfig(const DetectionParams& params) {
  DodConfig config = DodConfig::Dmt(params);
  config.target_partitions = 16;
  config.num_reduce_tasks = 5;
  config.num_blocks = 7;
  config.sampler.rate = 0.2;
  config.sampler.buckets_per_dim = 16;
  return config;
}

TEST(PipelineFaultTest, EmptyDatasetIsInvalidArgumentNotAbort) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  DodPipeline pipeline(SmallDmtConfig(params));
  const Result<DodResult> run = pipeline.Run(Dataset(2));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("empty"), std::string::npos)
      << run.status().ToString();
}

TEST(PipelineFaultTest, ExactOutliersUnderTransientInjectedFailures) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const Dataset data = GenerateUniform(1500, DomainForDensity(1500, 0.05), 7);
  const std::vector<PointId> expected = GroundTruth(data, params);

  DodConfig config = SmallDmtConfig(params);
  config.faults.enabled = true;
  config.faults.seed = 3;
  config.faults.task_failure_prob = 0.5;
  config.faults.shuffle_drop_prob = 0.002;
  config.faults.max_faulty_attempts_per_task = 2;
  config.retry.max_task_attempts = 5;

  DodPipeline pipeline(config);
  const Result<DodResult> run = pipeline.Run(data);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().outliers, expected);
  // The run actually had something to recover from.
  EXPECT_GT(run.value().detect_stats.task_failures, 0u);
  EXPECT_GT(run.value().detect_stats.task_retries, 0u);
}

TEST(PipelineFaultTest, ExhaustedRetriesSurfaceAsErrorNamingTheJob) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const Dataset data = GenerateUniform(500, DomainForDensity(500, 0.05), 7);

  DodConfig config = SmallDmtConfig(params);
  config.faults.enabled = true;
  config.faults.seed = 3;
  config.faults.task_failure_prob = 1.0;  // permanent: retries must exhaust
  config.retry.max_task_attempts = 3;

  DodPipeline pipeline(config);
  const Result<DodResult> run = pipeline.Run(data);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
  const std::string message(run.status().message());
  EXPECT_NE(message.find("detection job"), std::string::npos) << message;
  EXPECT_NE(message.find("failed after 3 attempts"), std::string::npos)
      << message;
}

TEST(PipelineFaultTest, StragglersTriggerSpeculationVisibleInStats) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const Dataset data = GenerateUniform(1000, DomainForDensity(1000, 0.05), 7);
  const std::vector<PointId> expected = GroundTruth(data, params);

  DodConfig config = SmallDmtConfig(params);
  config.faults.enabled = true;
  config.faults.seed = 5;
  config.faults.straggler_prob = 0.6;
  config.faults.straggler_multiplier = 4.0;
  config.faults.max_faulty_attempts_per_task = 1;

  DodPipeline pipeline(config);
  const Result<DodResult> run = pipeline.Run(data);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().outliers, expected);
  EXPECT_GT(run.value().detect_stats.speculative_attempts, 0u);
}

TEST(PipelineFaultTest, IdenticalFaultSeedsGiveIdenticalStats) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const Dataset data = GenerateUniform(1200, DomainForDensity(1200, 0.05), 7);

  DodConfig config = SmallDmtConfig(params);
  config.faults.enabled = true;
  config.faults.seed = 17;
  config.faults.task_failure_prob = 0.4;
  config.faults.straggler_prob = 0.3;
  config.faults.shuffle_drop_prob = 0.001;
  config.faults.max_faulty_attempts_per_task = 2;
  config.retry.max_task_attempts = 5;

  DodPipeline pipeline(config);
  const Result<DodResult> a = pipeline.Run(data);
  const Result<DodResult> b = pipeline.Run(data);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(a.value().outliers, b.value().outliers);
  const JobStats& sa = a.value().detect_stats;
  const JobStats& sb = b.value().detect_stats;
  EXPECT_EQ(sa.task_attempts, sb.task_attempts);
  EXPECT_EQ(sa.task_failures, sb.task_failures);
  EXPECT_EQ(sa.task_retries, sb.task_retries);
  EXPECT_EQ(sa.speculative_attempts, sb.speculative_attempts);
  EXPECT_EQ(sa.speculative_wins, sb.speculative_wins);
  EXPECT_EQ(sa.shuffle_records_dropped, sb.shuffle_records_dropped);
  EXPECT_EQ(sa.shuffle_records_corrupted, sb.shuffle_records_corrupted);
  EXPECT_EQ(sa.nodes_blacklisted, sb.nodes_blacklisted);
  EXPECT_DOUBLE_EQ(sa.backoff_seconds, sb.backoff_seconds);
  // The stats line advertises the recovery work.
  EXPECT_NE(sa.ToString().find("attempts="), std::string::npos);
}

TEST(PipelineFaultTest, ThreadCountNeverChangesTheOutliersEvenUnderFaults) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const Dataset data = GenerateUniform(1500, DomainForDensity(1500, 0.05), 7);

  DodConfig config = SmallDmtConfig(params);
  config.faults.enabled = true;
  config.faults.seed = 3;
  config.faults.task_failure_prob = 0.5;
  config.faults.straggler_prob = 0.3;
  config.faults.straggler_multiplier = 4.0;
  config.faults.shuffle_drop_prob = 0.002;
  config.faults.max_faulty_attempts_per_task = 2;
  config.retry.max_task_attempts = 5;

  config.num_threads = 1;
  const Result<DodResult> sequential = DodPipeline(config).Run(data);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  EXPECT_EQ(sequential.value().detect_stats.threads_used, 1);
  EXPECT_GT(sequential.value().detect_stats.task_failures, 0u);

  for (int threads : {2, 8}) {
    config.num_threads = threads;
    const Result<DodResult> parallel = DodPipeline(config).Run(data);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel.value().detect_stats.threads_used, threads);
    EXPECT_EQ(parallel.value().outliers, sequential.value().outliers)
        << threads << " threads";
    const JobStats& s = sequential.value().detect_stats;
    const JobStats& p = parallel.value().detect_stats;
    EXPECT_EQ(p.task_attempts, s.task_attempts);
    EXPECT_EQ(p.task_failures, s.task_failures);
    EXPECT_EQ(p.speculative_attempts, s.speculative_attempts);
    EXPECT_EQ(p.counters.values(), s.counters.values());
  }
}

}  // namespace
}  // namespace dod
