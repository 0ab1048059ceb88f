// Copyright 2026 The DOD Authors.
//
// Columnar zero-copy shuffle: the counting-sort grouping, arena-backed
// partition views, and the shared probe blocks must be byte-identical to
// the classic sorted shuffle — at the grouping layer, through the engine
// (threads × fault schedules), and end-to-end through the pipeline
// (strategies × kernel modes), including the Domain verification job.

#include "mapreduce/shuffle.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "detection/brute_force.h"
#include "detection/cell_based.h"
#include "detection/nested_loop.h"
#include "detection/partition_view.h"
#include "durability/checkpoint.h"
#include "durability/memory_budget.h"
#include "durability/payload.h"
#include "mapreduce/job.h"
#include "mapreduce/spill.h"
#include "observability/metrics.h"

namespace dod {
namespace {

using internal::FallbackReason;
using internal::GroupPath;
using internal::GroupScratch;

// ---------------------------------------------------------------------------
// Grouping layer: GroupSegments' two modes must be indistinguishable from
// a stable sort of the segments' concatenation, wherever the records sit.

// Buckets of (key, emission sequence) pairs: equal value sequences per
// group prove stability, not just equal multisets.
template <typename K>
std::vector<std::pair<K, int>> SequencedBucket(const std::vector<K>& keys) {
  std::vector<std::pair<K, int>> bucket;
  bucket.reserve(keys.size());
  int seq = 0;
  for (const K& key : keys) bucket.emplace_back(key, seq++);
  return bucket;
}

// The oracle: a stable sort of the records by key, read off as equal-key
// runs.
template <typename K>
std::vector<std::pair<K, std::vector<int>>> OracleGroups(
    std::vector<std::pair<K, int>> records) {
  std::stable_sort(
      records.begin(), records.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<K, std::vector<int>>> groups;
  for (const auto& [key, value] : records) {
    if (groups.empty() || groups.back().first != key) {
      groups.emplace_back(key, std::vector<int>());
    }
    groups.back().second.push_back(value);
  }
  return groups;
}

template <typename K>
void ExpectOracleGroups(const GroupedView<K, int>& view,
                        const std::vector<std::pair<K, int>>& records) {
  const auto expected = OracleGroups(records);
  ASSERT_EQ(view.num_groups(), expected.size());
  ASSERT_EQ(view.num_records(), records.size());
  for (size_t g = 0; g < expected.size(); ++g) {
    EXPECT_EQ(view.key(g), expected[g].first) << "group " << g;
    ASSERT_EQ(view.size(g), expected[g].second.size()) << "group " << g;
    for (size_t i = 0; i < view.size(g); ++i) {
      EXPECT_EQ(view.value(g, i), expected[g].second[i])
          << "group " << g << " value " << i;
    }
  }
}

std::string FreshSpillDir(const char* tag) {
  const std::string dir = testing::TempDir() + "/dod_spill_" + tag + "_" +
                          std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

// Segment layouts of one reduce task's input: `memory` in-memory segments,
// the first `runs` of them each followed by one disk run.
struct SegmentLayout {
  size_t memory;
  size_t runs;
};

const SegmentLayout kLayouts[] = {{1, 0}, {3, 2}, {32, 8}};

std::string LayoutName(const SegmentLayout& layout) {
  return std::to_string(layout.memory) + "m+" + std::to_string(layout.runs) +
         "r";
}

// One reduce task's segment list over `records` (at least one record per
// slice), cut into consecutive slices laid out as `layout` says. Owns the
// memory slices and the runs.
template <typename K>
struct SegmentInput {
  std::vector<std::vector<std::pair<K, int>>> memory;
  std::vector<internal::SpillRunInfo> runs;
  std::vector<internal::ShuffleSegment<K, int>> segments;
  internal::SpillGc gc;
};

template <typename K>
std::unique_ptr<SegmentInput<K>> MakeSegments(
    const std::vector<std::pair<K, int>>& records, SegmentLayout layout,
    const std::string& dir) {
  auto input = std::make_unique<SegmentInput<K>>();
  std::vector<bool> is_run;
  for (size_t m = 0; m < layout.memory; ++m) {
    is_run.push_back(false);
    if (m < layout.runs) is_run.push_back(true);
  }
  std::filesystem::create_directories(dir);
  internal::TaskSpiller<K, int> spiller(
      internal::SpillFilePath(dir, "map", 0), &input->gc);
  typename internal::TaskSpiller<K, int>::Buckets flush(1);
  input->memory.reserve(layout.memory);
  for (size_t i = 0; i < is_run.size(); ++i) {
    const auto begin = records.begin() + records.size() * i / is_run.size();
    const auto end =
        records.begin() + records.size() * (i + 1) / is_run.size();
    if (is_run[i]) {
      flush[0].assign(begin, end);
      spiller.Spill(flush);
    } else {
      input->memory.emplace_back(begin, end);
    }
  }
  EXPECT_TRUE(spiller.status().ok());
  input->runs = spiller.TakeRuns();
  EXPECT_EQ(input->runs.size(), layout.runs);  // slices are never empty
  size_t next_memory = 0;
  size_t next_run = 0;
  for (bool run : is_run) {
    input->segments.push_back(
        run ? internal::ShuffleSegment<K, int>{nullptr,
                                               &input->runs[next_run++]}
            : internal::ShuffleSegment<K, int>{&input->memory[next_memory++],
                                               nullptr});
  }
  return input;
}

// The path a grouping of `segments` reports when no guard fires.
template <typename K>
GroupPath PlainPath(ShuffleMode mode,
                    const std::vector<internal::ShuffleSegment<K, int>>& s) {
  const bool any_runs =
      std::any_of(s.begin(), s.end(), [](const auto& seg) {
        return seg.run != nullptr;
      });
  if (mode == ShuffleMode::kColumnar) {
    return any_runs ? GroupPath::kColumnarSpilled : GroupPath::kColumnar;
  }
  return any_runs ? GroupPath::kSortedSpilled : GroupPath::kSorted;
}

TEST(ShuffleGroupingTest, ModesMatchOracleOnRandomSegments) {
  const std::string dir = FreshSpillDir("random");
  Rng rng(2026);
  for (const SegmentLayout& layout : kLayouts) {
    for (int round = 0; round < 8; ++round) {
      std::vector<uint32_t> keys(500);
      for (uint32_t& key : keys) {
        key = static_cast<uint32_t>(rng.NextBounded(50));
      }
      const std::vector<std::pair<uint32_t, int>> records =
          SequencedBucket(keys);
      for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
        const std::string label =
            LayoutName(layout) + " " + ShuffleModeName(mode);
        auto input = MakeSegments(records, layout, dir);
        const std::vector<std::vector<std::pair<uint32_t, int>>> pristine =
            input->memory;
        GroupScratch<uint32_t, int> scratch;
        GroupPath path;
        FallbackReason reason;
        auto grouped = internal::GroupSegments(input->segments, mode,
                                               &scratch, &path, &reason,
                                               /*budget=*/nullptr);
        ASSERT_TRUE(grouped.ok()) << label;
        EXPECT_EQ(path, PlainPath(mode, input->segments)) << label;
        EXPECT_EQ(reason, FallbackReason::kNone) << label;
        ExpectOracleGroups(grouped.value(), records);
        if (mode == ShuffleMode::kColumnar) {
          // The columnar path must not touch the memory segments (attempt
          // retries re-read them): every slice keeps its emission order.
          ASSERT_EQ(input->memory.size(), pristine.size()) << label;
          for (size_t i = 0; i < pristine.size(); ++i) {
            EXPECT_EQ(input->memory[i], pristine[i]) << label << " slice " << i;
          }
        } else if (layout.runs == 0) {
          // Memory-only sorted input is sorted in place: no merged copy.
          EXPECT_EQ(scratch.merged.capacity(), 0u) << label;
        }
        // An attempt retry regroups the same segment list to the same
        // groups, whatever the first grouping did to the memory segments.
        GroupScratch<uint32_t, int> retry_scratch;
        auto retried = internal::GroupSegments(input->segments, mode,
                                               &retry_scratch, &path, &reason,
                                               /*budget=*/nullptr);
        ASSERT_TRUE(retried.ok()) << label;
        EXPECT_EQ(path, PlainPath(mode, input->segments)) << label;
        EXPECT_EQ(reason, FallbackReason::kNone) << label;
        ExpectOracleGroups(retried.value(), records);
      }
    }
  }
}

TEST(ShuffleGroupingTest, GroupsAscendingAndStableWithinGroup) {
  std::vector<std::pair<uint32_t, int>> bucket =
      SequencedBucket<uint32_t>({7, 3, 7, 0, 3, 7, 0, 9});
  std::vector<internal::ShuffleSegment<uint32_t, int>> segments = {
      {&bucket, nullptr}};
  GroupScratch<uint32_t, int> scratch;
  GroupPath path;
  FallbackReason reason;
  auto grouped = internal::GroupSegments(segments, ShuffleMode::kColumnar,
                                         &scratch, &path, &reason, nullptr);
  ASSERT_TRUE(grouped.ok());
  const GroupedView<uint32_t, int>& groups = grouped.value();

  ASSERT_EQ(groups.num_groups(), 4u);
  EXPECT_EQ(groups.num_records(), 8u);
  const std::vector<uint32_t> expected_keys = {0, 3, 7, 9};
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    EXPECT_EQ(groups.key(g), expected_keys[g]);
    // Values are emission sequence numbers, so stability means every
    // group's values come out strictly increasing.
    for (size_t i = 1; i < groups.size(g); ++i) {
      EXPECT_LT(groups.value(g, i - 1), groups.value(g, i));
    }
  }
  // Columnar grouping exposes each group as a contiguous value span.
  const int* column = groups.column(2);
  ASSERT_NE(column, nullptr);
  EXPECT_EQ(column[0], 0);
  EXPECT_EQ(column[1], 2);
  EXPECT_EQ(column[2], 5);
}

TEST(ShuffleGroupingTest, SortedBackingHasNoColumn) {
  std::vector<std::pair<uint32_t, int>> bucket =
      SequencedBucket<uint32_t>({1, 1, 2});
  std::vector<internal::ShuffleSegment<uint32_t, int>> segments = {
      {&bucket, nullptr}};
  GroupScratch<uint32_t, int> scratch;
  GroupPath path;
  FallbackReason reason;
  auto grouped = internal::GroupSegments(segments, ShuffleMode::kSorted,
                                         &scratch, &path, &reason, nullptr);
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(path, GroupPath::kSorted);
  EXPECT_EQ(grouped.value().column(0), nullptr);
  EXPECT_EQ(grouped.value().value(0, 1), 1);
}

TEST(ShuffleGroupingTest, NegativeKeysGroupInAscendingOrder) {
  const std::vector<std::pair<int, int>> records =
      SequencedBucket<int>({3, -5, 0, -5, 3, -1, 0});
  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    std::vector<std::pair<int, int>> bucket = records;
    std::vector<internal::ShuffleSegment<int, int>> segments = {
        {&bucket, nullptr}};
    GroupScratch<int, int> scratch;
    GroupPath path;
    FallbackReason reason;
    auto grouped = internal::GroupSegments(segments, mode, &scratch, &path,
                                           &reason, nullptr);
    ASSERT_TRUE(grouped.ok());
    EXPECT_EQ(path, PlainPath(mode, segments));
    ASSERT_EQ(grouped.value().num_groups(), 4u);
    EXPECT_EQ(grouped.value().key(0), -5);
    EXPECT_EQ(grouped.value().key(3), 3);
    ExpectOracleGroups(grouped.value(), records);
  }
}

TEST(ShuffleGroupingTest, SparseKeyRangeFallsBackToSorting) {
  // Two records a million keys apart: a counting histogram would be
  // absurd, so the columnar request lands on the sorted path.
  std::vector<std::pair<uint32_t, int>> bucket =
      SequencedBucket<uint32_t>({1000000, 0, 1000000});
  std::vector<internal::ShuffleSegment<uint32_t, int>> segments = {
      {&bucket, nullptr}};
  GroupScratch<uint32_t, int> scratch;
  GroupPath path;
  FallbackReason reason;
  auto grouped = internal::GroupSegments(segments, ShuffleMode::kColumnar,
                                         &scratch, &path, &reason, nullptr);
  ASSERT_TRUE(grouped.ok());
  const GroupedView<uint32_t, int>& groups = grouped.value();

  EXPECT_EQ(path, GroupPath::kSortedFallback);
  EXPECT_EQ(reason, FallbackReason::kDensity);
  ASSERT_EQ(groups.num_groups(), 2u);
  EXPECT_EQ(groups.key(0), 0u);
  EXPECT_EQ(groups.key(1), 1000000u);
  EXPECT_EQ(groups.size(1), 2u);
  EXPECT_EQ(groups.value(1, 0), 0);
  EXPECT_EQ(groups.value(1, 1), 2);
}

TEST(ShuffleGroupingTest, EmptyAndSingleKeyInputs) {
  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    std::vector<std::pair<uint32_t, int>> empty;
    GroupScratch<uint32_t, int> scratch;
    GroupPath path;
    FallbackReason reason;
    for (std::vector<internal::ShuffleSegment<uint32_t, int>> segments :
         {std::vector<internal::ShuffleSegment<uint32_t, int>>{},
          std::vector<internal::ShuffleSegment<uint32_t, int>>{
              {&empty, nullptr}}}) {
      auto none = internal::GroupSegments(segments, mode, &scratch, &path,
                                          &reason, nullptr);
      ASSERT_TRUE(none.ok());
      EXPECT_EQ(path, PlainPath(mode, segments));
      EXPECT_EQ(none.value().num_groups(), 0u);
      EXPECT_EQ(none.value().num_records(), 0u);
    }

    std::vector<std::pair<uint32_t, int>> single =
        SequencedBucket<uint32_t>({42, 42, 42});
    std::vector<internal::ShuffleSegment<uint32_t, int>> segments = {
        {&single, nullptr}};
    auto one = internal::GroupSegments(segments, mode, &scratch, &path,
                                       &reason, nullptr);
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(one.value().num_groups(), 1u);
    EXPECT_EQ(one.value().key(0), 42u);
    EXPECT_EQ(one.value().size(0), 3u);
  }
}

TEST(ShuffleGroupingTest, ModeNamesRoundTrip) {
  EXPECT_STREQ(ShuffleModeName(ShuffleMode::kSorted), "sorted");
  EXPECT_STREQ(ShuffleModeName(ShuffleMode::kColumnar), "columnar");
  ShuffleMode mode;
  EXPECT_TRUE(ParseShuffleMode("sorted", &mode));
  EXPECT_EQ(mode, ShuffleMode::kSorted);
  EXPECT_TRUE(ParseShuffleMode("columnar", &mode));
  EXPECT_EQ(mode, ShuffleMode::kColumnar);
  EXPECT_FALSE(ParseShuffleMode("merge", &mode));
}

// ---------------------------------------------------------------------------
// Engine layer: RunMapReduce output, counters, and shuffle accounting are
// byte-identical across modes, thread counts, and fault schedules. The
// reducer records every group's full value sequence, so any grouping or
// stability difference shows up as an output mismatch.

class SpreadMapper : public Mapper<int, int> {
 public:
  Status Map(size_t split_index, Emitter<int, int>& out) override {
    const int base = static_cast<int>(split_index) * 60;
    for (int v = base; v < base + 60; ++v) out.Emit(v % 17, v);
    return Status::Ok();
  }
};

struct GroupDigest {
  int key;
  std::vector<int> values;
  bool operator==(const GroupDigest& other) const {
    return key == other.key && values == other.values;
  }
};

class DigestReducer : public Reducer<int, int, GroupDigest> {
 public:
  Status Reduce(const GroupedView<int, int>& groups,
                std::vector<GroupDigest>& out, Counters& counters) override {
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      GroupDigest digest{groups.key(g), {}};
      for (size_t i = 0; i < groups.size(g); ++i) {
        digest.values.push_back(groups.value(g, i));
      }
      out.push_back(std::move(digest));
      counters.Increment("groups_seen");
      counters.Increment("values_seen", groups.size(g));
    }
    return Status::Ok();
  }
};

template <typename Partition>
JobOutput<GroupDigest> RunDigestJob(const JobSpec& spec,
                                    const Partition& partition) {
  SpreadMapper mapper;
  DigestReducer reducer;
  return RunMapReduce<int, int, GroupDigest>(
             /*num_splits=*/7, mapper, reducer, partition, spec,
             /*record_bytes=*/sizeof(int) + sizeof(int))
      .ValueOrDie();
}

JobOutput<GroupDigest> RunDigestJob(const JobSpec& spec) {
  return RunDigestJob(spec, [](const int& key) { return key % 4; });
}

// Checkpointing stores outputs as raw bytes, so the crash-resume spill
// test needs a trivially copyable output type — GroupDigest's vector
// disqualifies it.
struct SpillKeySum {
  int key = 0;
  int64_t sum = 0;
  bool operator==(const SpillKeySum& other) const {
    return key == other.key && sum == other.sum;
  }
};

class SpillSumReducer : public Reducer<int, int, SpillKeySum> {
 public:
  Status Reduce(const GroupedView<int, int>& groups,
                std::vector<SpillKeySum>& out, Counters& counters) override {
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      int64_t sum = 0;
      for (size_t i = 0; i < groups.size(g); ++i) sum += groups.value(g, i);
      out.push_back(SpillKeySum{groups.key(g), sum});
      counters.Increment("groups_seen");
    }
    return Status::Ok();
  }
};

Result<JobOutput<SpillKeySum>> RunSumJob(const JobSpec& spec) {
  SpreadMapper mapper;
  SpillSumReducer reducer;
  return RunMapReduce<int, int, SpillKeySum>(
      /*num_splits=*/7, mapper, reducer,
      [](const int& key) { return key % 4; }, spec,
      /*record_bytes=*/sizeof(int) + sizeof(int));
}

JobSpec DigestSpec(ShuffleMode mode, int threads, const FaultSpec& faults) {
  JobSpec spec;
  spec.num_reduce_tasks = 4;
  spec.num_threads = threads;
  spec.cluster = ClusterSpec::Local(4);
  spec.shuffle = mode;
  spec.faults = faults;
  if (faults.enabled) spec.retry.max_task_attempts = 4;
  return spec;
}

std::vector<FaultSpec> AllFaultKinds() {
  std::vector<FaultSpec> kinds;
  kinds.push_back(FaultSpec{});  // fault-free
  FaultSpec crash;
  crash.enabled = true;
  crash.seed = 7;
  crash.task_failure_prob = 1.0;
  crash.max_faulty_attempts_per_task = 1;
  kinds.push_back(crash);
  FaultSpec straggle;
  straggle.enabled = true;
  straggle.seed = 7;
  straggle.straggler_prob = 0.5;
  kinds.push_back(straggle);
  FaultSpec drop;
  drop.enabled = true;
  drop.seed = 7;
  drop.shuffle_drop_prob = 0.01;
  drop.max_faulty_attempts_per_task = 1;
  kinds.push_back(drop);
  FaultSpec corrupt;
  corrupt.enabled = true;
  corrupt.seed = 7;
  corrupt.shuffle_corrupt_prob = 0.01;
  corrupt.max_faulty_attempts_per_task = 1;
  kinds.push_back(corrupt);
  return kinds;
}

TEST(ShuffleEngineTest, ModesAgreeAcrossThreadsAndFaults) {
  const JobOutput<GroupDigest> baseline =
      RunDigestJob(DigestSpec(ShuffleMode::kSorted, 1, FaultSpec{}));
  ASSERT_EQ(baseline.output.size(), 17u);

  for (int threads : {1, 4, 8}) {
    for (const FaultSpec& faults : AllFaultKinds()) {
      const JobOutput<GroupDigest> sorted =
          RunDigestJob(DigestSpec(ShuffleMode::kSorted, threads, faults));
      const JobOutput<GroupDigest> columnar =
          RunDigestJob(DigestSpec(ShuffleMode::kColumnar, threads, faults));
      const std::string label =
          "threads=" + std::to_string(threads) +
          " faults=" + std::to_string(faults.enabled);

      EXPECT_EQ(columnar.output, sorted.output) << label;
      EXPECT_EQ(columnar.output, baseline.output) << label;
      EXPECT_EQ(columnar.stats.counters.values(),
                sorted.stats.counters.values())
          << label;
      EXPECT_EQ(columnar.stats.records_shuffled,
                sorted.stats.records_shuffled)
          << label;
      EXPECT_EQ(columnar.stats.bytes_shuffled, sorted.stats.bytes_shuffled)
          << label;
      EXPECT_EQ(columnar.stats.groups_reduced, sorted.stats.groups_reduced)
          << label;
    }
  }
}

TEST(ShuffleEngineTest, PartitionTableMatchesPartitionFunction) {
  // The pipeline routes through a lambda over its allocation table; the
  // engine must treat it exactly like any other partition callable.
  JobSpec spec = DigestSpec(ShuffleMode::kColumnar, 4, FaultSpec{});
  std::vector<int> table(17);
  for (int key = 0; key < 17; ++key) table[key] = key % 4;

  const JobOutput<GroupDigest> via_function = RunDigestJob(spec);
  const JobOutput<GroupDigest> via_table = RunDigestJob(
      spec, [&table](const int& key) { return table.at(key); });

  EXPECT_EQ(via_table.output, via_function.output);
  EXPECT_EQ(via_table.stats.records_shuffled,
            via_function.stats.records_shuffled);
  EXPECT_EQ(via_table.stats.bytes_shuffled, via_function.stats.bytes_shuffled);
}

// ---------------------------------------------------------------------------
// Partition views and the shared probe arena.

Dataset ViewTestData(size_t n) {
  return GenerateUniform(n, DomainForDensity(n, 0.05), /*seed=*/29);
}

TEST(PartitionViewTest, IdentityViewResolvesDirectly) {
  const Dataset data = ViewTestData(64);
  const PartitionView view(data, /*num_core=*/64);

  EXPECT_TRUE(view.identity());
  EXPECT_EQ(view.size(), data.size());
  EXPECT_EQ(view.dims(), data.dims());
  for (size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.id(i), static_cast<PointId>(i));
    EXPECT_EQ(view.point(i), data[static_cast<PointId>(i)]);
  }
  const Rect bounds = view.Bounds();
  const Rect expected = data.Bounds();
  for (int d = 0; d < data.dims(); ++d) {
    EXPECT_EQ(bounds.min()[d], expected.min()[d]);
    EXPECT_EQ(bounds.max()[d], expected.max()[d]);
  }
}

TEST(PartitionViewTest, GatheredViewPreservesLocalOrder) {
  const Dataset data = ViewTestData(64);
  const std::vector<PointId> ids = {9, 3, 60, 3, 17};
  const PartitionView view(data, ids.data(), ids.size(), /*num_core=*/2);

  EXPECT_FALSE(view.identity());
  EXPECT_EQ(view.num_core(), 2u);
  const Dataset gathered = view.Gather();
  ASSERT_EQ(gathered.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(view.id(i), ids[i]);
    for (int d = 0; d < data.dims(); ++d) {
      EXPECT_EQ(gathered[static_cast<PointId>(i)][d], data[ids[i]][d]);
    }
  }
}

TEST(PartitionViewTest, ArenaSegmentsAreAlignedPermutationsOfTheirCells) {
  const Dataset data = ViewTestData(64);
  TaskArena arena(data);

  // Three staged cells: a normal one, an empty one, and one crossing a
  // block boundary; plus an all-support cell (num_core = 0).
  const std::vector<std::vector<PointId>> cells = {
      {0, 1, 2, 3, 4}, {}, {10, 11, 12, 13, 14, 15, 16, 17, 18}, {20, 21}};
  const std::vector<size_t> num_core = {3, 0, 9, 0};
  for (size_t c = 0; c < cells.size(); ++c) {
    arena.BeginCell();
    for (PointId id : cells[c]) arena.AddPoint(id);
    arena.EndCell(num_core[c], /*permutation_seed=*/1000 + c);
  }
  arena.BuildProbes();
  ASSERT_EQ(arena.num_cells(), cells.size());

  for (size_t c = 0; c < cells.size(); ++c) {
    const PartitionView view = arena.View(c);
    ASSERT_EQ(view.size(), cells[c].size()) << "cell " << c;
    EXPECT_EQ(view.num_core(), num_core[c]) << "cell " << c;
    if (view.empty()) continue;
    ASSERT_TRUE(view.has_probes());
    // Segments start on a block boundary so kernels never cross cells.
    EXPECT_EQ(view.probe_begin() % kSoaWidth, 0u) << "cell " << c;

    // The segment's slot ids are a permutation of the cell's local
    // indices, and every slot's coordinates match the id it carries.
    const SoABlock& probes = view.probes();
    std::vector<uint32_t> seen;
    for (size_t slot = view.probe_begin(); slot < view.probe_end(); ++slot) {
      const uint32_t local = probes.IdAt(slot);
      ASSERT_LT(local, view.size()) << "cell " << c;
      seen.push_back(local);
      const double* expected = view.point(local);
      const size_t block = slot / kSoaWidth;
      const size_t lane_slot = slot % kSoaWidth;
      for (int d = 0; d < view.dims(); ++d) {
        EXPECT_EQ(probes.Lane(block, d)[lane_slot], expected[d])
            << "cell " << c << " slot " << slot;
      }
    }
    std::sort(seen.begin(), seen.end());
    for (uint32_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  }
}

TEST(PartitionViewTest, ArenaClearSupportsAttemptRetries) {
  const Dataset data = ViewTestData(32);
  TaskArena arena(data);

  std::vector<std::vector<uint32_t>> first_orders;
  for (int attempt = 0; attempt < 2; ++attempt) {
    arena.Clear();
    arena.BeginCell();
    for (PointId id = 0; id < 12; ++id) arena.AddPoint(id);
    arena.EndCell(/*num_core=*/12, /*permutation_seed=*/77);
    arena.BuildProbes();

    const PartitionView view = arena.View(0);
    std::vector<uint32_t> order;
    for (size_t s = view.probe_begin(); s < view.probe_end(); ++s) {
      order.push_back(view.probes().IdAt(s));
    }
    first_orders.push_back(std::move(order));
  }
  // Identical seeds rebuild the identical permutation: retries of a
  // reduce-task attempt cannot diverge.
  EXPECT_EQ(first_orders[0], first_orders[1]);
}

TEST(PartitionViewTest, AllSupportCellYieldsNoOutliers) {
  const Dataset data = ViewTestData(32);
  TaskArena arena(data);
  arena.BeginCell();
  for (PointId id = 0; id < 8; ++id) arena.AddPoint(id);
  arena.EndCell(/*num_core=*/0, /*permutation_seed=*/5);
  arena.BuildProbes();

  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const BruteForceDetector detector;
  EXPECT_TRUE(detector.DetectOutliers(arena.View(0), params, nullptr).empty());
}

// Every detector must return the same verdict through the arena view as
// through its legacy Dataset entry point, in both kernel modes.
class DetectorViewEquivalence
    : public testing::TestWithParam<std::tuple<AlgorithmKind, KernelMode>> {};

TEST_P(DetectorViewEquivalence, ViewPathMatchesDatasetPath) {
  const auto [kind, kernels] = GetParam();
  const Dataset data = ViewTestData(400);

  // One cell: an arbitrary scatter of core points plus support points.
  TaskArena arena(data);
  arena.BeginCell();
  Rng rng(99);
  std::vector<PointId> ids;
  for (PointId id = 0; id < 400; id += 2) ids.push_back(id);  // core
  Shuffle(ids, rng);
  const size_t num_core = ids.size();
  for (PointId id = 1; id < 400; id += 4) ids.push_back(id);  // support
  for (PointId id : ids) arena.AddPoint(id);
  arena.EndCell(num_core, /*permutation_seed=*/123);
  arena.BuildProbes();
  const PartitionView view = arena.View(0);

  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  params.kernels = kernels;
  params.seed = 4242;

  const std::unique_ptr<Detector> detector = MakeDetector(kind);
  Counters dataset_counters;
  Counters view_counters;
  std::vector<uint32_t> via_dataset = detector->DetectOutliers(
      view.Gather(), num_core, params, &dataset_counters);
  std::vector<uint32_t> via_view =
      detector->DetectOutliers(view, params, &view_counters);

  std::sort(via_dataset.begin(), via_dataset.end());
  std::sort(via_view.begin(), via_view.end());
  EXPECT_EQ(via_view, via_dataset) << AlgorithmKindName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllDetectors, DetectorViewEquivalence,
    testing::Combine(testing::Values(AlgorithmKind::kNestedLoop,
                                     AlgorithmKind::kCellBased,
                                     AlgorithmKind::kBruteForce),
                     testing::Values(KernelMode::kScalar, KernelMode::kAuto)),
    [](const testing::TestParamInfo<std::tuple<AlgorithmKind, KernelMode>>&
           info) {
      std::string name =
          std::string(AlgorithmKindName(std::get<0>(info.param))) + "_" +
          KernelModeName(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Pipeline layer: --shuffle is invisible end to end.

const Dataset& PipelineData() {
  static const Dataset data =
      GenerateUniform(2000, DomainForDensity(2000, 0.05), /*seed=*/7);
  return data;
}

std::vector<PointId> PipelineGroundTruth() {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  BruteForceDetector oracle;
  const Dataset& data = PipelineData();
  std::vector<uint32_t> local =
      oracle.DetectOutliers(data, data.size(), params, nullptr);
  return std::vector<PointId>(local.begin(), local.end());
}

DodConfig PipelineConfig(StrategyKind strategy, ShuffleMode shuffle,
                         int threads, KernelMode kernels,
                         const FaultSpec& faults) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  params.kernels = kernels;
  DodConfig config =
      strategy == StrategyKind::kDmt
          ? DodConfig::Dmt(params)
          : DodConfig::Baseline(params, strategy, AlgorithmKind::kCellBased);
  config.target_partitions = 16;
  config.num_reduce_tasks = 5;
  config.num_blocks = 7;
  config.num_threads = threads;
  config.sampler.rate = 0.2;
  config.sampler.buckets_per_dim = 16;
  config.shuffle = shuffle;
  config.faults = faults;
  if (faults.enabled) config.retry.max_task_attempts = 4;
  return config;
}

void ExpectSameRun(const DodResult& columnar, const DodResult& sorted,
                   const std::string& label) {
  EXPECT_EQ(columnar.outliers, sorted.outliers) << label;
  EXPECT_EQ(columnar.detect_stats.counters.values(),
            sorted.detect_stats.counters.values())
      << label;
  EXPECT_EQ(columnar.detect_stats.records_shuffled,
            sorted.detect_stats.records_shuffled)
      << label;
  EXPECT_EQ(columnar.detect_stats.bytes_shuffled,
            sorted.detect_stats.bytes_shuffled)
      << label;
  EXPECT_EQ(columnar.detect_stats.groups_reduced,
            sorted.detect_stats.groups_reduced)
      << label;
  EXPECT_EQ(columnar.verify_stats.counters.values(),
            sorted.verify_stats.counters.values())
      << label;
  EXPECT_EQ(columnar.verify_stats.records_shuffled,
            sorted.verify_stats.records_shuffled)
      << label;
  EXPECT_EQ(columnar.verify_stats.bytes_shuffled,
            sorted.verify_stats.bytes_shuffled)
      << label;
}

TEST(PipelineShuffleEquivalence, DmtAcrossThreadsAndKernels) {
  const std::vector<PointId> truth = PipelineGroundTruth();
  for (int threads : {1, 4, 8}) {
    for (KernelMode kernels : {KernelMode::kScalar, KernelMode::kAuto}) {
      const std::string label = "threads=" + std::to_string(threads) +
                                " kernels=" + KernelModeName(kernels);
      const DodResult sorted =
          DodPipeline(PipelineConfig(StrategyKind::kDmt, ShuffleMode::kSorted,
                                     threads, kernels, FaultSpec{}))
              .RunOrDie(PipelineData());
      const DodResult columnar =
          DodPipeline(PipelineConfig(StrategyKind::kDmt,
                                     ShuffleMode::kColumnar, threads, kernels,
                                     FaultSpec{}))
              .RunOrDie(PipelineData());
      ExpectSameRun(columnar, sorted, label);
      EXPECT_EQ(columnar.outliers, truth) << label;
    }
  }
}

TEST(PipelineShuffleEquivalence, DomainVerificationJob) {
  // The Domain baseline runs the second (verification) MapReduce job, whose
  // reducer counts candidate neighbors against arena-built border probes.
  const std::vector<PointId> truth = PipelineGroundTruth();
  for (int threads : {1, 4}) {
    const std::string label = "domain threads=" + std::to_string(threads);
    const DodResult sorted =
        DodPipeline(PipelineConfig(StrategyKind::kDomain,
                                   ShuffleMode::kSorted, threads,
                                   KernelMode::kAuto, FaultSpec{}))
            .RunOrDie(PipelineData());
    const DodResult columnar =
        DodPipeline(PipelineConfig(StrategyKind::kDomain,
                                   ShuffleMode::kColumnar, threads,
                                   KernelMode::kAuto, FaultSpec{}))
            .RunOrDie(PipelineData());
    ExpectSameRun(columnar, sorted, label);
    EXPECT_EQ(columnar.outliers, truth) << label;
    EXPECT_GT(columnar.verify_stats.records_shuffled, 0u) << label;
  }
}

TEST(PipelineShuffleEquivalence, FaultSchedulesCannotTellModesApart) {
  const std::vector<PointId> truth = PipelineGroundTruth();
  for (const FaultSpec& faults : AllFaultKinds()) {
    if (!faults.enabled) continue;
    const std::string label =
        std::string("fault-kind drop=") +
        std::to_string(faults.shuffle_drop_prob) +
        " corrupt=" + std::to_string(faults.shuffle_corrupt_prob) +
        " crash=" + std::to_string(faults.task_failure_prob) +
        " straggle=" + std::to_string(faults.straggler_prob);
    const DodResult sorted =
        DodPipeline(PipelineConfig(StrategyKind::kDmt, ShuffleMode::kSorted,
                                   4, KernelMode::kAuto, faults))
            .RunOrDie(PipelineData());
    const DodResult columnar =
        DodPipeline(PipelineConfig(StrategyKind::kDmt, ShuffleMode::kColumnar,
                                   4, KernelMode::kAuto, faults))
            .RunOrDie(PipelineData());
    ExpectSameRun(columnar, sorted, label);
    EXPECT_EQ(columnar.outliers, truth) << label;
  }
}

uint64_t MetricCount(const std::vector<MetricSnapshot>& snapshots,
                     const std::string& name) {
  for (const MetricSnapshot& m : snapshots) {
    if (m.name == name) return m.count;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Spill-to-disk shuffle runs: byte-identical to the in-memory paths across
// modes × threads × faults, garbage-collected run files, reason-labeled
// fallbacks, and exact crash-resume with spilled checkpoints.

size_t SpillFilesIn(const std::string& dir) {
  // Recursive: the engine namespaces run files per job under the
  // configured spill dir.
  std::error_code ec;
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".runs") ++count;
  }
  return count;
}

TEST(ShuffleSpillTest, TaskSpillerRoundTripsSortedRunsWithChecksums) {
  const std::string dir = FreshSpillDir("roundtrip");
  std::filesystem::create_directories(dir);
  const std::string file = internal::SpillFilePath(dir, "map", 0);
  internal::SpillGc gc;
  internal::TaskSpiller<uint32_t, int> spiller(file, &gc);

  // Two flushes (time slices), each stably sorted on write. Partition 1
  // stays empty throughout and must produce no run.
  internal::TaskSpiller<uint32_t, int>::Buckets buckets(3);
  buckets[0] = SequencedBucket<uint32_t>({5, 1, 5, 3});
  buckets[2] = SequencedBucket<uint32_t>({9, 9});
  spiller.Spill(buckets);
  ASSERT_TRUE(spiller.status().ok());
  EXPECT_TRUE(buckets[0].empty());  // flushed buckets are cleared
  buckets[0] = SequencedBucket<uint32_t>({2, 1});
  ASSERT_TRUE(spiller.Finish(buckets).ok());

  std::vector<internal::SpillRunInfo> runs = spiller.TakeRuns();
  ASSERT_EQ(runs.size(), 3u);  // {p0, p2} then {p0}
  EXPECT_EQ(runs[0].partition, 0u);
  EXPECT_EQ(runs[0].records, 4u);
  EXPECT_EQ(runs[0].min_key, 1u);
  EXPECT_EQ(runs[0].max_key, 5u);
  EXPECT_EQ(runs[1].partition, 2u);
  EXPECT_EQ(runs[2].partition, 0u);
  EXPECT_EQ(runs[2].records, 2u);

  // Flush 1 of partition 0, sorted stably: (1,1) (3,3) (5,0) (5,2).
  internal::SpillRunCursor<uint32_t, int> cursor;
  ASSERT_TRUE(cursor.Open(runs[0]).ok());
  const std::vector<std::pair<uint32_t, int>> expected = {
      {1, 1}, {3, 3}, {5, 0}, {5, 2}};
  for (const auto& record : expected) {
    ASSERT_FALSE(cursor.AtEnd());
    EXPECT_EQ(cursor.Head(), record);
    ASSERT_TRUE(cursor.Advance().ok());
  }
  EXPECT_TRUE(cursor.AtEnd());

  // Flip one payload byte: the cursor must fail the checksum, not hand the
  // reducer silently corrupted groups.
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(runs[0].offset));
    char byte;
    f.seekg(static_cast<std::streamoff>(runs[0].offset));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(runs[0].offset));
    f.write(&byte, 1);
  }
  internal::SpillRunCursor<uint32_t, int> corrupted;
  Status status = corrupted.Open(runs[0]);
  while (status.ok() && !corrupted.AtEnd()) status = corrupted.Advance();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
}

TEST(ShuffleSpillTest, GroupSegmentsMatchesOracleOfConcatenation) {
  const std::string dir = FreshSpillDir("segments");
  std::filesystem::create_directories(dir);
  Rng rng(4097);
  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    // Three map tasks' worth of records; task 1 spills in two flushes, the
    // others stay in memory. The reference is the oracle grouping of the
    // concatenation in (task, flush) order.
    std::vector<std::vector<std::pair<uint32_t, int>>> slices(4);
    std::vector<std::pair<uint32_t, int>> all;
    int seq = 0;
    for (auto& slice : slices) {
      for (int i = 0; i < 120; ++i) {
        slice.emplace_back(static_cast<uint32_t>(rng.NextBounded(40)), seq++);
      }
      all.insert(all.end(), slice.begin(), slice.end());
    }

    internal::SpillGc gc;
    internal::TaskSpiller<uint32_t, int> spiller(
        internal::SpillFilePath(dir, "map", 1), &gc);
    internal::TaskSpiller<uint32_t, int>::Buckets flush(1);
    flush[0] = slices[1];
    spiller.Spill(flush);
    flush[0] = slices[2];
    ASSERT_TRUE(spiller.Finish(flush).ok());
    std::vector<internal::SpillRunInfo> runs = spiller.TakeRuns();
    ASSERT_EQ(runs.size(), 2u);

    std::vector<internal::ShuffleSegment<uint32_t, int>> segments;
    segments.push_back({&slices[0], nullptr});
    segments.push_back({nullptr, &runs[0]});
    segments.push_back({nullptr, &runs[1]});
    segments.push_back({&slices[3], nullptr});
    GroupScratch<uint32_t, int> scratch;
    GroupPath path;
    FallbackReason reason;
    auto grouped = internal::GroupSegments(segments, mode, &scratch, &path,
                                           &reason, nullptr);
    ASSERT_TRUE(grouped.ok()) << ShuffleModeName(mode);
    EXPECT_EQ(path, mode == ShuffleMode::kColumnar
                        ? GroupPath::kColumnarSpilled
                        : GroupPath::kSortedSpilled);
    EXPECT_EQ(reason, FallbackReason::kNone);
    ExpectOracleGroups(grouped.value(), all);
  }
}

TEST(ShuffleSpillTest, GroupSegmentsOrdersMixedSignKeysLikeInMemory) {
  const std::string dir = FreshSpillDir("mixed_sign");
  std::filesystem::create_directories(dir);

  // int keys spanning zero with a small signed range: the density guard
  // admits them (the unsigned subtraction wraps back to the true span),
  // and the histogram must emit groups in signed ascending order —
  // negative keys first — whether the records sit in memory or in runs.
  {
    Rng rng(777);
    std::vector<int> keys(300);
    for (int& key : keys) {
      key = static_cast<int>(rng.NextBounded(100)) - 50;  // [-50, 49]
    }
    std::vector<std::pair<int, int>> memory_slice = SequencedBucket(keys);
    std::vector<std::pair<int, int>> run_slice;
    int seq = static_cast<int>(keys.size());
    run_slice.emplace_back(-50, seq++);  // both signs guaranteed in the run
    run_slice.emplace_back(49, seq++);
    for (int i = 0; i < 200; ++i) {
      run_slice.emplace_back(static_cast<int>(rng.NextBounded(100)) - 50,
                             seq++);
    }
    std::vector<std::pair<int, int>> all = memory_slice;
    all.insert(all.end(), run_slice.begin(), run_slice.end());

    internal::SpillGc gc;
    internal::TaskSpiller<int, int> spiller(
        internal::SpillFilePath(dir, "map", 0), &gc);
    internal::TaskSpiller<int, int>::Buckets flush(1);
    flush[0] = run_slice;
    spiller.Spill(flush);
    ASSERT_TRUE(spiller.status().ok());
    std::vector<internal::SpillRunInfo> runs = spiller.TakeRuns();
    ASSERT_EQ(runs.size(), 1u);
    // Run metadata stores the bit-casts of the signed extremes, so a
    // mixed-sign run's raw u64 max sits below its raw min.
    EXPECT_LT(runs[0].max_key, runs[0].min_key);

    std::vector<internal::ShuffleSegment<int, int>> segments;
    segments.push_back({&memory_slice, nullptr});
    segments.push_back({nullptr, &runs[0]});
    GroupScratch<int, int> scratch;
    GroupPath path;
    FallbackReason reason;
    auto grouped = internal::GroupSegments(segments, ShuffleMode::kColumnar,
                                           &scratch, &path, &reason, nullptr);
    ASSERT_TRUE(grouped.ok());
    EXPECT_EQ(path, GroupPath::kColumnarSpilled);
    EXPECT_EQ(reason, FallbackReason::kNone);
    ExpectOracleGroups(grouped.value(), all);

    for (const SegmentLayout& layout : kLayouts) {
      auto input = MakeSegments(all, layout, dir + "/layout");
      GroupScratch<int, int> layout_scratch;
      auto regrouped = internal::GroupSegments(
          input->segments, ShuffleMode::kColumnar, &layout_scratch, &path,
          &reason, nullptr);
      ASSERT_TRUE(regrouped.ok()) << LayoutName(layout);
      EXPECT_EQ(path, PlainPath(ShuffleMode::kColumnar, input->segments))
          << LayoutName(layout);
      EXPECT_EQ(reason, FallbackReason::kNone) << LayoutName(layout);
      ExpectOracleGroups(regrouped.value(), all);
    }
  }

  // Narrow keys (int8): the unsigned subtraction promotes to int and goes
  // negative for a mixed-sign span, so the density guard rejects whatever
  // the layout, and the sorted path must still group like the oracle.
  {
    std::vector<int8_t> keys(200);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<int8_t>(static_cast<int>(i) % 201 - 100);
    }
    std::vector<std::pair<int8_t, int>> memory_slice = SequencedBucket(keys);
    std::vector<std::pair<int8_t, int>> run_slice;
    int seq = static_cast<int>(keys.size());
    for (int i = 0; i < 100; ++i) {
      run_slice.emplace_back(static_cast<int8_t>(i % 101 - 50), seq++);
    }
    std::vector<std::pair<int8_t, int>> all = memory_slice;
    all.insert(all.end(), run_slice.begin(), run_slice.end());

    internal::SpillGc gc;
    internal::TaskSpiller<int8_t, int> spiller(
        internal::SpillFilePath(dir, "map", 1), &gc);
    internal::TaskSpiller<int8_t, int>::Buckets flush(1);
    flush[0] = run_slice;
    spiller.Spill(flush);
    ASSERT_TRUE(spiller.status().ok());
    std::vector<internal::SpillRunInfo> runs = spiller.TakeRuns();
    ASSERT_EQ(runs.size(), 1u);

    std::vector<internal::ShuffleSegment<int8_t, int>> segments;
    segments.push_back({&memory_slice, nullptr});
    segments.push_back({nullptr, &runs[0]});
    GroupScratch<int8_t, int> scratch;
    GroupPath path;
    FallbackReason reason;
    auto grouped = internal::GroupSegments(segments, ShuffleMode::kColumnar,
                                           &scratch, &path, &reason, nullptr);
    ASSERT_TRUE(grouped.ok());
    EXPECT_EQ(path, GroupPath::kSortedSpilled);
    EXPECT_EQ(reason, FallbackReason::kDensity);
    ExpectOracleGroups(grouped.value(), all);

    for (const SegmentLayout& layout : kLayouts) {
      auto input = MakeSegments(all, layout, dir + "/layout");
      GroupScratch<int8_t, int> layout_scratch;
      auto regrouped = internal::GroupSegments(
          input->segments, ShuffleMode::kColumnar, &layout_scratch, &path,
          &reason, nullptr);
      ASSERT_TRUE(regrouped.ok()) << LayoutName(layout);
      EXPECT_EQ(path, layout.runs > 0 ? GroupPath::kSortedSpilled
                                      : GroupPath::kSortedFallback)
          << LayoutName(layout);
      EXPECT_EQ(reason, FallbackReason::kDensity) << LayoutName(layout);
      ExpectOracleGroups(regrouped.value(), all);
    }
  }
}

TEST(ShuffleSpillTest, BudgetFallbackSortsMemorySegmentsInPlace) {
  // A budget the histogram scratch cannot fit alone: the sorted path,
  // labelled budget-driven. It sorts the memory segments' concatenation
  // in place — no copy the budget never saw — folded into the first
  // segment. Keys (i * 7) % 50, in emission order.
  std::vector<uint32_t> keys(500);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint32_t>((i * 7) % 50);
  }
  const std::vector<std::pair<uint32_t, int>> records = SequencedBucket(keys);
  const uint64_t scratch_bytes = internal::ColumnarScratchBytes(
      records.size(), /*range=*/50, sizeof(uint32_t), sizeof(int));
  MemoryBudget tight(scratch_bytes / 2);
  std::vector<std::vector<std::pair<uint32_t, int>>> slices(3);
  std::vector<internal::ShuffleSegment<uint32_t, int>> segments;
  for (size_t i = 0; i < slices.size(); ++i) {
    slices[i].assign(records.begin() + records.size() * i / slices.size(),
                     records.begin() +
                         records.size() * (i + 1) / slices.size());
    segments.push_back({&slices[i], nullptr});
  }
  GroupScratch<uint32_t, int> scratch;
  GroupPath path;
  FallbackReason reason;
  auto sorted = internal::GroupSegments(segments, ShuffleMode::kColumnar,
                                        &scratch, &path, &reason, &tight);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(path, GroupPath::kSortedBudget);
  EXPECT_EQ(reason, FallbackReason::kBudget);
  ExpectOracleGroups(sorted.value(), records);
  EXPECT_EQ(scratch.merged.capacity(), 0u);
  EXPECT_EQ(slices[0].size(), records.size());
  EXPECT_EQ(slices[1].capacity(), 0u);
  EXPECT_EQ(slices[2].capacity(), 0u);
}

JobSpec SpilledDigestSpec(ShuffleMode mode, int threads,
                          const FaultSpec& faults, const std::string& dir,
                          uint64_t threshold_bytes) {
  JobSpec spec = DigestSpec(mode, threads, faults);
  spec.spill.dir = dir;
  spec.spill.threshold_bytes = threshold_bytes;
  return spec;
}

TEST(ShuffleSpillTest, SpilledRunsMatchInMemoryAcrossModesThreadsAndFaults) {
  // Each map task emits 60 8-byte pairs (480 bytes); a 128-byte threshold
  // forces several mid-task flushes plus the Finish remainder.
  const std::string dir = FreshSpillDir("matrix");
  const JobOutput<GroupDigest> baseline =
      RunDigestJob(DigestSpec(ShuffleMode::kSorted, 1, FaultSpec{}));

  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    for (int threads : {1, 4, 8}) {
      for (const FaultSpec& faults : AllFaultKinds()) {
        const std::string label =
            std::string(ShuffleModeName(mode)) +
            " threads=" + std::to_string(threads) +
            " faults=" + std::to_string(faults.enabled) +
            " crash=" + std::to_string(faults.task_failure_prob);
        const JobOutput<GroupDigest> in_memory =
            RunDigestJob(DigestSpec(mode, threads, faults));
        const JobOutput<GroupDigest> spilled = RunDigestJob(
            SpilledDigestSpec(mode, threads, faults, dir, /*threshold=*/128));

        EXPECT_EQ(spilled.output, in_memory.output) << label;
        EXPECT_EQ(spilled.output, baseline.output) << label;
        EXPECT_EQ(spilled.stats.counters.values(),
                  in_memory.stats.counters.values())
            << label;
        EXPECT_EQ(spilled.stats.records_shuffled,
                  in_memory.stats.records_shuffled)
            << label;
        EXPECT_EQ(spilled.stats.bytes_shuffled, in_memory.stats.bytes_shuffled)
            << label;
        EXPECT_EQ(spilled.stats.groups_reduced, in_memory.stats.groups_reduced)
            << label;
        // Run files are job-scoped garbage: none survive the job, even
        // under retries and speculative schedules.
        EXPECT_EQ(SpillFilesIn(dir), 0u) << label;
      }
    }
  }
}

// The task-level retry contract: an attempt that fails with a retryable
// (non-terminal) status after staging output and counters leaves no trace;
// the task's next attempt regroups the same input and commits exactly what
// a clean run commits.
class FlakyDigestReducer : public Reducer<int, int, GroupDigest> {
 public:
  Status Reduce(const GroupedView<int, int>& groups,
                std::vector<GroupDigest>& out, Counters& counters) override {
    DOD_RETURN_IF_ERROR(inner_.Reduce(groups, out, counters));
    if (groups.num_groups() == 0) return Status::Ok();
    // The first key identifies the task (keys route by key % 4).
    std::lock_guard<std::mutex> lock(mutex_);
    if (failed_tasks_.insert(groups.key(0) % 4).second) {
      return Status::Unavailable("flaky reducer: first attempt of task");
    }
    return Status::Ok();
  }

 private:
  DigestReducer inner_;
  std::mutex mutex_;
  std::set<int> failed_tasks_;
};

TEST(ShuffleSpillTest, ReduceRetriesAfterRetryableErrorCommitExactOutput) {
  ASSERT_FALSE(IsTerminalTaskStatus(StatusCode::kUnavailable));
  const JobOutput<GroupDigest> baseline =
      RunDigestJob(DigestSpec(ShuffleMode::kSorted, 1, FaultSpec{}));
  const std::string dir = FreshSpillDir("flaky_reduce");
  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    for (int threads : {1, 4}) {
      for (bool spill : {false, true}) {
        const std::string label = std::string(ShuffleModeName(mode)) +
                                  " threads=" + std::to_string(threads) +
                                  " spill=" + std::to_string(spill);
        JobSpec spec =
            spill ? SpilledDigestSpec(mode, threads, FaultSpec{}, dir, 128)
                  : DigestSpec(mode, threads, FaultSpec{});
        spec.retry.max_task_attempts = 2;
        SpreadMapper mapper;
        FlakyDigestReducer reducer;
        const JobOutput<GroupDigest> job =
            RunMapReduce<int, int, GroupDigest>(
                /*num_splits=*/7, mapper, reducer,
                [](const int& key) { return key % 4; }, spec,
                /*record_bytes=*/sizeof(int) + sizeof(int))
                .ValueOrDie();
        EXPECT_EQ(job.output, baseline.output) << label;
        EXPECT_EQ(job.stats.counters.values(),
                  baseline.stats.counters.values())
            << label;
        EXPECT_EQ(job.stats.groups_reduced, baseline.stats.groups_reduced)
            << label;
        // Each of the 4 reduce tasks failed exactly once.
        EXPECT_EQ(job.stats.task_failures, 4u) << label;
        EXPECT_EQ(job.stats.task_retries, 4u) << label;
        EXPECT_EQ(SpillFilesIn(dir), 0u) << label;
      }
    }
  }
}

TEST(ShuffleSpillTest, SpillMetricsAndPathsAreRecorded) {
  const std::string dir = FreshSpillDir("metrics");
  MetricsRegistry& metrics = MetricsRegistry::Global();

  metrics.Reset();
  FaultSpec crash = AllFaultKinds()[1];  // every task fails once, retries
  RunDigestJob(
      SpilledDigestSpec(ShuffleMode::kColumnar, 4, crash, dir, 128));
  const std::vector<MetricSnapshot> columnar = metrics.Snapshot();
  EXPECT_EQ(MetricCount(columnar, "mr.spill.map_tasks"), 7u);
  EXPECT_GT(MetricCount(columnar, "mr.spill.runs_written"), 0u);
  EXPECT_GT(MetricCount(columnar, "mr.spill.bytes_written"), 0u);
  EXPECT_GT(MetricCount(columnar, "mr.spill.runs_merged"), 0u);
  EXPECT_GT(MetricCount(columnar, "mr.spill.bytes_read"), 0u);
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.columnar_spilled_tasks"), 4u);
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.sorted_spilled_tasks"), 0u);
  // Dense keys, no budget: the spill came from the threshold, not from a
  // guard, so no fallback reason is charged.
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.fallback.density"), 0u);
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.fallback.budget"), 0u);

  metrics.Reset();
  RunDigestJob(
      SpilledDigestSpec(ShuffleMode::kSorted, 4, FaultSpec{}, dir, 128));
  const std::vector<MetricSnapshot> sorted = metrics.Snapshot();
  EXPECT_EQ(MetricCount(sorted, "mr.shuffle.sorted_spilled_tasks"), 4u);
  EXPECT_EQ(MetricCount(sorted, "mr.shuffle.columnar_spilled_tasks"), 0u);
  EXPECT_GT(MetricCount(sorted, "mr.spill.runs_merged"), 0u);
}

// A sparse-key mapper: the density guard, not the budget or the spill
// threshold, is what pushes these tasks off the counting-sort path.
class SparseKeyMapper : public Mapper<int, int> {
 public:
  Status Map(size_t split_index, Emitter<int, int>& out) override {
    const int base = static_cast<int>(split_index) * 10;
    for (int v = base; v < base + 10; ++v) out.Emit(v * 1000000, v);
    return Status::Ok();
  }
};

TEST(ShuffleSpillTest, FallbackReasonCountersLabelEachGuard) {
  MetricsRegistry& metrics = MetricsRegistry::Global();

  // Density: sparse keys in columnar mode.
  metrics.Reset();
  {
    SparseKeyMapper mapper;
    DigestReducer reducer;
    JobSpec spec = DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{});
    RunMapReduce<int, int, GroupDigest>(
        /*num_splits=*/3, mapper, reducer,
        [](const int& key) { return (key / 1000000) % 4; }, spec)
        .ValueOrDie();
  }
  const std::vector<MetricSnapshot> density = metrics.Snapshot();
  EXPECT_GT(MetricCount(density, "mr.shuffle.fallback.density"), 0u);
  EXPECT_EQ(MetricCount(density, "mr.shuffle.fallback.budget"), 0u);

  // Budget: a budget too small for any histogram scratch.
  metrics.Reset();
  {
    MemoryBudget tiny(16);
    JobSpec spec = DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{});
    spec.memory = &tiny;
    RunDigestJob(spec);
  }
  const std::vector<MetricSnapshot> budget = metrics.Snapshot();
  EXPECT_GT(MetricCount(budget, "mr.shuffle.fallback.budget"), 0u);
  EXPECT_EQ(MetricCount(budget, "mr.shuffle.fallback.density"), 0u);
  EXPECT_GT(MetricCount(budget, "mr.shuffle.budget_fallback_tasks"), 0u);

  // No guard: reduce task 0's histogram scratch (123 records over key
  // range [0, 16]) fits the budget alone, but not next to its resident
  // bucket. Resident map output is not the budget's to charge, so with a
  // spill dir available the task still groups columnar in memory.
  metrics.Reset();
  const std::string dir = FreshSpillDir("reason");
  {
    const uint64_t scratch_bytes = internal::ColumnarScratchBytes(
        /*records=*/123, /*range=*/17, sizeof(int), sizeof(int));
    MemoryBudget window(scratch_bytes + 64);
    JobSpec spec = SpilledDigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{},
                                     dir, uint64_t{1} << 30);
    spec.memory = &window;
    EXPECT_EQ(RunDigestJob(spec).output,
              RunDigestJob(DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{}))
                  .output);
  }
  const std::vector<MetricSnapshot> window = metrics.Snapshot();
  EXPECT_EQ(MetricCount(window, "mr.shuffle.columnar_tasks"), 8u);
  EXPECT_EQ(MetricCount(window, "mr.shuffle.fallback.budget"), 0u);
  EXPECT_EQ(MetricCount(window, "mr.spill.runs_written"), 0u);
  EXPECT_EQ(SpillFilesIn(dir), 0u);
}

TEST(ShuffleSpillTest, CrashResumeRestoresSpilledCheckpointsExactly) {
  const JobOutput<SpillKeySum> baseline =
      RunSumJob(DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{}))
          .ValueOrDie();

  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    const std::string tag = ShuffleModeName(mode);
    const std::string dir = FreshSpillDir(("resume_" + tag).c_str());
    const std::string ckpt = dir + "_ckpt";
    std::error_code ec;
    std::filesystem::remove_all(ckpt, ec);

    MetricsRegistry& metrics = MetricsRegistry::Global();
    metrics.Reset();
    {
      auto store = CheckpointStore::Open(ckpt, "sum", /*resume=*/false)
                       .ValueOrDie();
      JobSpec crashing =
          SpilledDigestSpec(mode, 1, FaultSpec{}, dir, /*threshold=*/128);
      crashing.checkpoint = store.get();
      crashing.faults.crash_at_task = 1;
      crashing.faults.crash_phase = TaskPhase::kReduce;
      const auto crashed = RunSumJob(crashing);
      ASSERT_FALSE(crashed.ok()) << tag;
      ASSERT_EQ(crashed.status().code(), StatusCode::kUnavailable) << tag;
    }
    // The failed checkpointing job must leave its runs for the resume —
    // the durable map records reference them.
    EXPECT_GT(SpillFilesIn(dir), 0u) << tag;

    {
      auto store = CheckpointStore::Open(ckpt, "sum", /*resume=*/true)
                       .ValueOrDie();
      JobSpec resuming =
          SpilledDigestSpec(mode, 1, FaultSpec{}, dir, /*threshold=*/128);
      resuming.checkpoint = store.get();
      resuming.resume = true;
      const JobOutput<SpillKeySum> resumed =
          RunSumJob(resuming).ValueOrDie();
      EXPECT_EQ(resumed.output, baseline.output) << tag;
    }
    // Every restored run descriptor validated against its file: resuming
    // with intact spill files must not burn a single load failure, and the
    // successful resume garbage-collects the runs.
    const std::vector<MetricSnapshot> after = metrics.Snapshot();
    EXPECT_EQ(MetricCount(after, "durability.checkpoint.load_failures"), 0u)
        << tag;
    EXPECT_GT(MetricCount(after, "durability.checkpoint.tasks_resumed"), 0u)
        << tag;
    EXPECT_EQ(SpillFilesIn(dir), 0u) << tag;
  }
}

// A map checkpoint whose spill-run descriptor disagrees with itself or its
// file must be discarded like any other unusable record: the map task
// re-runs and the job matches a clean run. Both descriptors below pass a
// partition check and an unchecked "offset + bytes <= file size" test;
// restored on those checks alone, they failed every reduce attempt.
TEST(ShuffleSpillTest, ResumeDiscardsInconsistentSpillRunDescriptors) {
  const JobOutput<SpillKeySum> baseline =
      RunSumJob(DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{}))
          .ValueOrDie();
  struct BadRun {
    const char* name;
    uint64_t file_bytes;
    uint64_t records;
    uint64_t offset;
    uint64_t bytes;
  };
  const BadRun bad_runs[] = {
      // 2^61 records claimed over zero payload bytes.
      {"records", 1, uint64_t{1} << 61, 0, 0},
      // offset + bytes wraps around to 8, inside the 16-byte file.
      {"wrap", 16, 2, ~uint64_t{0} - 7, 16},
  };
  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    for (const BadRun& bad : bad_runs) {
      const std::string tag =
          std::string(ShuffleModeName(mode)) + "_" + bad.name;
      const std::string dir = FreshSpillDir(("bad_run_" + tag).c_str());
      const std::string ckpt = dir + "_ckpt";
      const std::string run_file = dir + "_bogus.runs";
      std::error_code ec;
      std::filesystem::remove_all(ckpt, ec);
      {
        std::ofstream file(run_file, std::ios::binary | std::ios::trunc);
        file << std::string(bad.file_bytes, '\0');
      }
      {
        // Map task 0's record, hand-built in the checkpoint layout: stats
        // delta, slot costs, the spilled flag and one run descriptor.
        PayloadWriter payload;
        SerializeJobStatsDelta(JobStats(), &payload);
        payload.F64Vec({});
        payload.U8(1);
        payload.U64(1);
        payload.String(run_file);
        payload.U32(0);  // partition
        payload.U64(bad.records);
        payload.U64(bad.offset);
        payload.U64(bad.bytes);
        payload.U64(0);  // checksum
        payload.U64(0);  // min key
        payload.U64(0);  // max key
        auto store = CheckpointStore::Open(ckpt, "sum", /*resume=*/false)
                         .ValueOrDie();
        ASSERT_TRUE(store->CommitTask("map", 0, payload.str()).ok()) << tag;
      }
      MetricsRegistry& metrics = MetricsRegistry::Global();
      metrics.Reset();
      auto store =
          CheckpointStore::Open(ckpt, "sum", /*resume=*/true).ValueOrDie();
      JobSpec resuming =
          SpilledDigestSpec(mode, 1, FaultSpec{}, dir, /*threshold=*/128);
      resuming.checkpoint = store.get();
      resuming.resume = true;
      const Result<JobOutput<SpillKeySum>> resumed = RunSumJob(resuming);
      ASSERT_TRUE(resumed.ok()) << tag << ": " << resumed.status().ToString();
      EXPECT_EQ(resumed.value().output, baseline.output) << tag;
      EXPECT_GE(MetricCount(metrics.Snapshot(),
                            "durability.checkpoint.load_failures"),
                1u)
          << tag;
      std::filesystem::remove(run_file, ec);
    }
  }
}

TEST(ShuffleSpillTest, ResumeSweepsOrphanedReduceRuns) {
  // A file in the job's spill namespace that nothing tracks — a reduce
  // run a crashed predecessor left behind, say. A checkpointed job keeps
  // the namespace through a structured failure, and its success exit
  // sweeps it, untracked files included.
  const JobOutput<SpillKeySum> baseline =
      RunSumJob(DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{}))
          .ValueOrDie();
  const std::string dir = FreshSpillDir("orphan");
  const std::string ckpt = dir + "_ckpt";
  std::error_code ec;
  std::filesystem::remove_all(ckpt, ec);

  // The map side (1 GiB threshold) never spills.
  std::string orphan;
  {
    auto store =
        CheckpointStore::Open(ckpt, "sum", /*resume=*/false).ValueOrDie();
    const std::string job_dir = internal::SpillJobDir(
        dir, store->dir() + "\n" + store->job_key());
    std::filesystem::create_directories(job_dir);
    orphan = internal::SpillFilePath(job_dir, "reduce", 0);
    std::ofstream(orphan) << "orphaned run";
    JobSpec crashing = SpilledDigestSpec(ShuffleMode::kColumnar, 1,
                                         FaultSpec{}, dir, uint64_t{1} << 30);
    crashing.checkpoint = store.get();
    crashing.faults.crash_at_task = 1;
    crashing.faults.crash_phase = TaskPhase::kReduce;
    const auto crashed = RunSumJob(crashing);
    ASSERT_FALSE(crashed.ok());
    ASSERT_EQ(crashed.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_TRUE(std::filesystem::exists(orphan));

  {
    auto store =
        CheckpointStore::Open(ckpt, "sum", /*resume=*/true).ValueOrDie();
    JobSpec resuming = SpilledDigestSpec(ShuffleMode::kColumnar, 1,
                                         FaultSpec{}, dir, uint64_t{1} << 30);
    resuming.checkpoint = store.get();
    resuming.resume = true;
    const JobOutput<SpillKeySum> resumed = RunSumJob(resuming).ValueOrDie();
    EXPECT_EQ(resumed.output, baseline.output);
  }
  // The untracked file is gone with the namespace.
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_EQ(SpillFilesIn(dir), 0u);
}

TEST(PipelineShuffleEquivalence, MetricsRecordGroupPathAndArenaReuse) {
  MetricsRegistry& metrics = MetricsRegistry::Global();

  metrics.Reset();
  DodPipeline(PipelineConfig(StrategyKind::kDmt, ShuffleMode::kColumnar, 1,
                             KernelMode::kAuto, FaultSpec{}))
      .RunOrDie(PipelineData());
  const std::vector<MetricSnapshot> columnar = metrics.Snapshot();
  EXPECT_GT(MetricCount(columnar, "mr.shuffle.columnar_tasks"), 0u);
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.sorted_tasks"), 0u);
  // Cell-id key spaces are dense; the sparsity guard must never trip here.
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.fallback_tasks"), 0u);
  // Shared probe arenas: one build per task serves all its cells.
  const uint64_t arenas = MetricCount(columnar, "kernels.soa_reuse.arenas");
  const uint64_t cells = MetricCount(columnar, "kernels.soa_reuse.cells");
  EXPECT_GT(arenas, 0u);
  EXPECT_GE(cells, arenas);
  EXPECT_EQ(MetricCount(columnar, "kernels.soa_reuse.saved_builds"),
            cells - arenas);

  metrics.Reset();
  DodPipeline(PipelineConfig(StrategyKind::kDmt, ShuffleMode::kSorted, 1,
                             KernelMode::kAuto, FaultSpec{}))
      .RunOrDie(PipelineData());
  const std::vector<MetricSnapshot> sorted = metrics.Snapshot();
  EXPECT_GT(MetricCount(sorted, "mr.shuffle.sorted_tasks"), 0u);
  EXPECT_EQ(MetricCount(sorted, "mr.shuffle.columnar_tasks"), 0u);
}

}  // namespace
}  // namespace dod
