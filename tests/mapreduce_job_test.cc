// Copyright 2026 The DOD Authors.
//
// The MapReduce engine: grouping semantics, partition routing, counters,
// stats accounting, and determinism — exercised with a classic word-count
// style job independent of the outlier code.

#include "mapreduce/job.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace dod {
namespace {

// Mapper emitting (value mod 10, value) for a fixed range per split.
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

JobSpec SmallClusterSpec(int reducers) {
  JobSpec spec;
  spec.num_reduce_tasks = reducers;
  spec.cluster = ClusterSpec::Local(4);
  return spec;
}

TEST(MapReduceJobTest, GroupsAllValuesByKey) {
  ModMapper mapper(100);
  CountReducer reducer;
  auto job = RunMapReduce<int, int, KeyCount>(
      /*num_splits=*/5, mapper, reducer,
      [](const int& key) { return key % 3; }, SmallClusterSpec(3))
                 .ValueOrDie();
  // 500 values, keys 0..9, 50 each.
  std::map<int, int> counts;
  for (const KeyCount& kc : job.output) counts[kc.key] = kc.count;
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [key, count] : counts) EXPECT_EQ(count, 50) << key;
}

TEST(MapReduceJobTest, StatsAccounting) {
  ModMapper mapper(100);
  CountReducer reducer;
  auto job = RunMapReduce<int, int, KeyCount>(
      5, mapper, reducer, [](const int& key) { return key % 3; },
      SmallClusterSpec(3), /*record_bytes=*/16)
                 .ValueOrDie();
  EXPECT_EQ(job.stats.records_mapped, 500u);
  EXPECT_EQ(job.stats.records_shuffled, 500u);
  EXPECT_EQ(job.stats.bytes_shuffled, 500u * 16);
  EXPECT_EQ(job.stats.groups_reduced, 10u);
  EXPECT_EQ(job.stats.map_task_seconds.size(), 5u);
  EXPECT_EQ(job.stats.reduce_task_seconds.size(), 3u);
  EXPECT_EQ(job.stats.counters.Get("groups_seen"), 10u);
  EXPECT_GT(job.stats.stage_times.shuffle_seconds, 0.0);
  EXPECT_GE(job.stats.wall_seconds, 0.0);
}

TEST(MapReduceJobTest, PartitionFunctionControlsTaskPlacement) {
  // Route every key to task 2 of 4; the other tasks reduce nothing.
  ModMapper mapper(50);
  CountReducer reducer;
  auto job = RunMapReduce<int, int, KeyCount>(
      2, mapper, reducer, [](const int&) { return 2; }, SmallClusterSpec(4))
                 .ValueOrDie();
  EXPECT_EQ(job.stats.groups_reduced, 10u);
  EXPECT_EQ(job.output.size(), 10u);
}

TEST(MapReduceJobTest, ReducerSeesKeysSorted) {
  // With one reduce task, output order is the sorted key order.
  ModMapper mapper(100);
  CountReducer reducer;
  auto job = RunMapReduce<int, int, KeyCount>(
      1, mapper, reducer, [](const int&) { return 0; }, SmallClusterSpec(1))
                 .ValueOrDie();
  ASSERT_EQ(job.output.size(), 10u);
  for (int k = 0; k < 10; ++k) EXPECT_EQ(job.output[k].key, k);
}

TEST(MapReduceJobTest, ValuesPreserveEmissionOrderWithinKey) {
  class FirstValueReducer : public Reducer<int, int, int> {
   public:
    Status Reduce(const GroupedView<int, int>& groups, std::vector<int>& out,
                  Counters&) override {
      for (size_t g = 0; g < groups.num_groups(); ++g) {
        out.push_back(groups.value(g, 0));
      }
      return Status::Ok();
    }
  };
  ModMapper mapper(100);
  FirstValueReducer reducer;
  auto job = RunMapReduce<int, int, int>(
      1, mapper, reducer, [](const int&) { return 0; }, SmallClusterSpec(1))
                 .ValueOrDie();
  // Stable sort: the first value of key k is k itself (first emission).
  ASSERT_EQ(job.output.size(), 10u);
  for (int k = 0; k < 10; ++k) EXPECT_EQ(job.output[k], k);
}

TEST(MapReduceJobTest, DeterministicOutputAcrossRuns) {
  ModMapper mapper(200);
  CountReducer reducer;
  auto run = [&] {
    return RunMapReduce<int, int, KeyCount>(
               4, mapper, reducer, [](const int& key) { return key % 2; },
               SmallClusterSpec(2))
        .ValueOrDie();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.output, b.output);
}

TEST(MapReduceJobTest, EmptyInputProducesEmptyOutput) {
  class NullMapper : public Mapper<int, int> {
   public:
    Status Map(size_t, Emitter<int, int>&) override { return Status::Ok(); }
  };
  NullMapper mapper;
  CountReducer reducer;
  auto job = RunMapReduce<int, int, KeyCount>(
      3, mapper, reducer, [](const int&) { return 0; }, SmallClusterSpec(2))
                 .ValueOrDie();
  EXPECT_TRUE(job.output.empty());
  EXPECT_EQ(job.stats.records_mapped, 0u);
  EXPECT_EQ(job.stats.groups_reduced, 0u);
}

TEST(MapReduceJobTest, StageTimesUseSlotScheduling) {
  // With 4 local slots and 5 map tasks, the simulated map stage must be at
  // least the longest task but below the serial sum.
  ModMapper mapper(2000);
  CountReducer reducer;
  auto job = RunMapReduce<int, int, KeyCount>(
      5, mapper, reducer, [](const int& key) { return key % 3; },
      SmallClusterSpec(3))
                 .ValueOrDie();
  double serial = 0.0, longest = 0.0;
  for (double t : job.stats.map_task_seconds) {
    serial += t;
    longest = std::max(longest, t);
  }
  EXPECT_GE(job.stats.stage_times.map_seconds, longest);
  EXPECT_LE(job.stats.stage_times.map_seconds, serial + 1e-9);
}

}  // namespace
}  // namespace dod
