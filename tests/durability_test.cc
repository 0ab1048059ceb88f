// Copyright 2026 The DOD Authors.
//
// Durable execution: checkpoint store round-trips, crash-at-task-N
// injection with resume exactness (engine and pipeline level), deadline /
// cancellation propagation with partial-progress stats, terminal statuses
// bypassing the retry budget, and memory-budget guards (arena charges and
// the columnar shuffle's deterministic degrade).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "data/generators.h"
#include "durability/checkpoint.h"
#include "durability/memory_budget.h"
#include "durability/payload.h"
#include "durability/run_control.h"
#include "detection/partition_view.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"

namespace dod {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const char* tag) {
  const std::string dir = testing::TempDir() + "/dod_durability_" + tag + "_" +
                          std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

// ---------------------------------------------------------------------------
// Payload codec.

TEST(PayloadTest, RoundTripAllTypes) {
  PayloadWriter writer;
  writer.U8(7);
  writer.U32(0xDEADBEEFu);
  writer.U64(0xFFFFFFFFFFFFFFFFULL);
  writer.F64(-2.5);
  writer.String("hello");
  writer.String("");
  writer.F64Vec({1.0, 2.0, 3.0});
  writer.F64Vec({});

  PayloadReader reader(writer.str());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0.0;
  std::string s;
  std::vector<double> v;
  ASSERT_TRUE(reader.U8(&u8).ok());
  EXPECT_EQ(u8, 7);
  ASSERT_TRUE(reader.U32(&u32).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(reader.U64(&u64).ok());
  EXPECT_EQ(u64, 0xFFFFFFFFFFFFFFFFULL);
  ASSERT_TRUE(reader.F64(&f64).ok());
  EXPECT_EQ(f64, -2.5);
  ASSERT_TRUE(reader.String(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(reader.String(&s).ok());
  EXPECT_EQ(s, "");
  ASSERT_TRUE(reader.F64Vec(&v).ok());
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.0, 3.0}));
  ASSERT_TRUE(reader.F64Vec(&v).ok());
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(reader.ExpectDone().ok());
}

TEST(PayloadTest, TruncationIsStructuredAndSticky) {
  PayloadWriter writer;
  writer.U64(42);
  PayloadReader reader(std::string_view(writer.str()).substr(0, 3));
  uint64_t out = 0;
  const Status first = reader.U64(&out);
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  // Failed readers keep failing instead of reading garbage.
  uint8_t b = 0;
  EXPECT_FALSE(reader.U8(&b).ok());
  EXPECT_FALSE(reader.ExpectDone().ok());
}

TEST(PayloadTest, TrailingBytesFailExpectDone) {
  PayloadWriter writer;
  writer.U32(1);
  writer.U32(2);
  PayloadReader reader(writer.str());
  uint32_t out = 0;
  ASSERT_TRUE(reader.U32(&out).ok());
  EXPECT_FALSE(reader.ExpectDone().ok());
}

// ---------------------------------------------------------------------------
// Checkpoint store.

TEST(CheckpointStoreTest, CommitReopenAndReload) {
  const std::string dir = FreshDir("store");
  auto store =
      CheckpointStore::Open(dir, "job-a", /*resume=*/false).ValueOrDie();
  EXPECT_EQ(store->CommittedTasks(), 0u);
  EXPECT_FALSE(store->HasTask("map", 0));
  ASSERT_TRUE(store->CommitTask("map", 0, "payload-m0").ok());
  ASSERT_TRUE(store->CommitTask("reduce", 2, "payload-r2").ok());
  EXPECT_TRUE(store->HasTask("map", 0));
  EXPECT_EQ(store->CommittedTasks(), 2u);

  // A new process resuming the same job sees the committed records.
  auto resumed =
      CheckpointStore::Open(dir, "job-a", /*resume=*/true).ValueOrDie();
  EXPECT_EQ(resumed->CommittedTasks(), 2u);
  EXPECT_EQ(resumed->LoadTask("map", 0).ValueOrDie(), "payload-m0");
  EXPECT_EQ(resumed->LoadTask("reduce", 2).ValueOrDie(), "payload-r2");
  EXPECT_EQ(resumed->LoadTask("reduce", 5).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, OpenWithoutResumeDiscardsPriorRecords) {
  const std::string dir = FreshDir("fresh");
  {
    auto store =
        CheckpointStore::Open(dir, "job-a", /*resume=*/false).ValueOrDie();
    ASSERT_TRUE(store->CommitTask("map", 0, "old").ok());
  }
  auto store =
      CheckpointStore::Open(dir, "job-a", /*resume=*/false).ValueOrDie();
  EXPECT_EQ(store->CommittedTasks(), 0u);
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST.log"));
  EXPECT_FALSE(fs::exists(dir + "/DATA.log"));
}

TEST(CheckpointStoreTest, RefusesResumeAcrossJobKeys) {
  const std::string dir = FreshDir("jobkey");
  {
    auto store =
        CheckpointStore::Open(dir, "job-a", /*resume=*/false).ValueOrDie();
    ASSERT_TRUE(store->CommitTask("map", 0, "x").ok());
  }
  const auto other = CheckpointStore::Open(dir, "job-b", /*resume=*/true);
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointStoreTest, DetectsTruncationAndCorruption) {
  const std::string dir = FreshDir("corrupt");
  auto store =
      CheckpointStore::Open(dir, "job-a", /*resume=*/false).ValueOrDie();
  ASSERT_TRUE(store->CommitTask("reduce", 1, "0123456789").ok());

  // Truncate the segment: the record's slice overruns what is on disk.
  const std::string segment_path = dir + "/DATA.log";
  { std::ofstream(segment_path, std::ios::trunc) << "0123"; }
  auto reopened =
      CheckpointStore::Open(dir, "job-a", /*resume=*/true).ValueOrDie();
  EXPECT_EQ(reopened->LoadTask("reduce", 1).status().code(),
            StatusCode::kIoError);

  // Same length, flipped byte: checksum mismatch.
  { std::ofstream(segment_path, std::ios::trunc) << "0123456780"; }
  EXPECT_EQ(reopened->LoadTask("reduce", 1).status().code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Engine-level crash / resume / control / budget.

struct KeySum {
  int key = 0;
  int64_t sum = 0;
  bool operator==(const KeySum& other) const {
    return key == other.key && sum == other.sum;
  }
};

class RangeMapper : public Mapper<int, int> {
 public:
  explicit RangeMapper(int per_split) : per_split_(per_split) {}
  Status Map(size_t split_index, Emitter<int, int>& out) override {
    const int base = static_cast<int>(split_index) * per_split_;
    for (int v = base; v < base + per_split_; ++v) out.Emit(v % 7, v);
    return Status::Ok();
  }

 private:
  int per_split_;
};

class SumReducer : public Reducer<int, int, KeySum> {
 public:
  Status Reduce(const GroupedView<int, int>& groups,
                std::vector<KeySum>& out, Counters& counters) override {
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      int64_t sum = 0;
      for (size_t i = 0; i < groups.size(g); ++i) sum += groups.value(g, i);
      out.push_back(KeySum{groups.key(g), sum});
      counters.Increment("groups_seen");
    }
    return Status::Ok();
  }
};

JobSpec BaseSpec(int threads, ShuffleMode shuffle) {
  JobSpec spec;
  spec.num_reduce_tasks = 3;
  spec.num_threads = threads;
  spec.cluster = ClusterSpec::Local(4);
  spec.shuffle = shuffle;
  return spec;
}

Result<JobOutput<KeySum>> RunSumJob(const JobSpec& spec) {
  RangeMapper mapper(100);
  SumReducer reducer;
  return RunMapReduce<int, int, KeySum>(
      /*num_splits=*/4, mapper, reducer,
      [](const int& key) { return key % 3; }, spec);
}

void ExpectSameJob(const JobOutput<KeySum>& a, const JobOutput<KeySum>& b) {
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.stats.records_mapped, b.stats.records_mapped);
  EXPECT_EQ(a.stats.records_shuffled, b.stats.records_shuffled);
  EXPECT_EQ(a.stats.bytes_shuffled, b.stats.bytes_shuffled);
  EXPECT_EQ(a.stats.groups_reduced, b.stats.groups_reduced);
  EXPECT_EQ(a.stats.task_attempts, b.stats.task_attempts);
  EXPECT_EQ(a.stats.counters.values(), b.stats.counters.values());
}

TEST(EngineDurabilityTest, CrashThenResumeIsExactAcrossThreadsAndShuffle) {
  for (const int threads : {1, 4}) {
    for (const ShuffleMode shuffle :
         {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " shuffle="
                   << ShuffleModeName(shuffle));
      const JobOutput<KeySum> baseline =
          RunSumJob(BaseSpec(threads, shuffle)).ValueOrDie();

      const std::string dir = FreshDir("engine");
      auto store =
          CheckpointStore::Open(dir, "sum-job", /*resume=*/false)
              .ValueOrDie();
      JobSpec crashing = BaseSpec(threads, shuffle);
      crashing.checkpoint = store.get();
      crashing.faults.crash_at_task = 1;
      crashing.faults.crash_phase = TaskPhase::kReduce;
      const auto crashed = RunSumJob(crashing);
      ASSERT_FALSE(crashed.ok());
      EXPECT_EQ(crashed.status().code(), StatusCode::kUnavailable);
      // The crash fired after the commit: its record is durable.
      EXPECT_TRUE(store->HasTask("reduce", 1));

      auto resumed_store =
          CheckpointStore::Open(dir, "sum-job", /*resume=*/true).ValueOrDie();
      const size_t committed = resumed_store->CommittedTasks();
      EXPECT_GE(committed, 5u);  // all 4 map tasks + reduce task 1
      JobSpec resuming = BaseSpec(threads, shuffle);
      resuming.checkpoint = resumed_store.get();
      resuming.resume = true;
      const JobOutput<KeySum> resumed = RunSumJob(resuming).ValueOrDie();
      ExpectSameJob(baseline, resumed);
    }
  }
}

TEST(EngineDurabilityTest, MapPhaseCrashResumesExactly) {
  const JobOutput<KeySum> baseline =
      RunSumJob(BaseSpec(1, ShuffleMode::kColumnar)).ValueOrDie();
  const std::string dir = FreshDir("mapcrash");
  auto store =
      CheckpointStore::Open(dir, "sum-job", /*resume=*/false).ValueOrDie();
  JobSpec crashing = BaseSpec(1, ShuffleMode::kColumnar);
  crashing.checkpoint = store.get();
  crashing.faults.crash_at_task = 2;
  crashing.faults.crash_phase = TaskPhase::kMap;
  ASSERT_EQ(RunSumJob(crashing).status().code(), StatusCode::kUnavailable);

  auto resumed_store =
      CheckpointStore::Open(dir, "sum-job", /*resume=*/true).ValueOrDie();
  JobSpec resuming = BaseSpec(1, ShuffleMode::kColumnar);
  resuming.checkpoint = resumed_store.get();
  resuming.resume = true;
  ExpectSameJob(baseline, RunSumJob(resuming).ValueOrDie());
}

TEST(EngineDurabilityTest, CorruptedCheckpointSelfHealsByRerunning) {
  const JobOutput<KeySum> baseline =
      RunSumJob(BaseSpec(1, ShuffleMode::kColumnar)).ValueOrDie();
  const std::string dir = FreshDir("selfheal");
  {
    auto store =
        CheckpointStore::Open(dir, "sum-job", /*resume=*/false).ValueOrDie();
    JobSpec spec = BaseSpec(1, ShuffleMode::kColumnar);
    spec.checkpoint = store.get();
    ASSERT_TRUE(RunSumJob(spec).ok());
  }
  // Flip the segment's first byte — map task 0's payload starts at offset
  // 0 under the sequential run above. The resumed run must detect the
  // checksum mismatch, discard the record, and re-run that task.
  {
    std::fstream file(dir + "/DATA.log",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(0);
    byte = static_cast<char>(byte ^ 0x5A);
    file.write(&byte, 1);
  }
  auto store =
      CheckpointStore::Open(dir, "sum-job", /*resume=*/true).ValueOrDie();
  JobSpec resuming = BaseSpec(1, ShuffleMode::kColumnar);
  resuming.checkpoint = store.get();
  resuming.resume = true;
  ExpectSameJob(baseline, RunSumJob(resuming).ValueOrDie());
}

TEST(EngineDurabilityTest, CheckpointRequiresTriviallyCopyableTypes) {
  class StringReducer : public Reducer<int, int, std::string> {
   public:
    Status Reduce(const GroupedView<int, int>&, std::vector<std::string>&,
                  Counters&) override {
      return Status::Ok();
    }
  };
  const std::string dir = FreshDir("nonpod");
  auto store =
      CheckpointStore::Open(dir, "x", /*resume=*/false).ValueOrDie();
  RangeMapper mapper(10);
  StringReducer reducer;
  JobSpec spec = BaseSpec(1, ShuffleMode::kSorted);
  spec.checkpoint = store.get();
  const auto job = RunMapReduce<int, int, std::string>(
      1, mapper, reducer, [](const int&) { return 0; }, spec);
  EXPECT_EQ(job.status().code(), StatusCode::kUnimplemented);
}

TEST(EngineDurabilityTest, CancellationSkipsRetriesAndFillsPartialStats) {
  CancellationToken token;
  const RunControl control = RunControl::WithDeadline(0.0, token);
  class CancellingReducer : public Reducer<int, int, KeySum> {
   public:
    explicit CancellingReducer(CancellationToken token)
        : token_(std::move(token)) {}
    Status Reduce(const GroupedView<int, int>&, std::vector<KeySum>&,
                  Counters&) override {
      token_.Cancel();
      return Status::Ok();
    }

   private:
    CancellationToken token_;
  };
  RangeMapper mapper(100);
  CancellingReducer reducer(token);
  JobStats partial;
  JobSpec spec = BaseSpec(1, ShuffleMode::kColumnar);
  spec.retry.max_task_attempts = 4;
  spec.control = &control;
  spec.partial_stats = &partial;
  const auto job = RunMapReduce<int, int, KeySum>(
      4, mapper, reducer, [](const int& key) { return key % 3; }, spec);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kCancelled);
  // The maps all ran before the cancel fired; their work is reported.
  EXPECT_EQ(partial.records_mapped, 400u);
  EXPECT_GE(partial.task_attempts, 5u);  // 4 maps + the cancelling reduce
  // Cancellation is terminal: no retry burned the attempt budget.
  EXPECT_EQ(partial.task_retries, 0u);
}

TEST(EngineDurabilityTest, TerminalStatusBypassesRetryBudget) {
  class ExhaustedReducer : public Reducer<int, int, KeySum> {
   public:
    Status Reduce(const GroupedView<int, int>&, std::vector<KeySum>&,
                  Counters&) override {
      return Status::ResourceExhausted("synthetic budget failure");
    }
  };
  RangeMapper mapper(100);
  ExhaustedReducer reducer;
  JobStats partial;
  JobSpec spec = BaseSpec(1, ShuffleMode::kColumnar);
  spec.retry.max_task_attempts = 6;
  spec.partial_stats = &partial;
  const auto job = RunMapReduce<int, int, KeySum>(
      4, mapper, reducer, [](const int& key) { return key % 3; }, spec);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(partial.task_retries, 0u);
}

// ---------------------------------------------------------------------------
// Run control and memory budget primitives.

TEST(RunControlTest, InactiveByDefaultAndChecksPass) {
  const RunControl control;
  EXPECT_FALSE(control.active());
  EXPECT_TRUE(control.Check().ok());
}

TEST(RunControlTest, CancellationWinsOverDeadline) {
  CancellationToken token;
  // An already-expired deadline plus a cancelled token: kCancelled wins.
  const RunControl control = RunControl::WithDeadline(1e-12, token);
  token.Cancel();
  EXPECT_EQ(control.Check().code(), StatusCode::kCancelled);
}

TEST(RunControlTest, ExpiredDeadlineFires) {
  const RunControl control =
      RunControl::WithDeadline(1e-12, CancellationToken());
  EXPECT_EQ(control.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(MemoryBudgetTest, ReserveReleasePeakAndFitsAlone) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.FitsAlone(100));
  EXPECT_FALSE(budget.FitsAlone(101));
  ASSERT_TRUE(budget.Reserve(60, "a").ok());
  ASSERT_TRUE(budget.Reserve(40, "b").ok());
  EXPECT_EQ(budget.used_bytes(), 100u);
  budget.Release(40);
  EXPECT_EQ(budget.used_bytes(), 60u);
  EXPECT_EQ(budget.peak_bytes(), 100u);
  // FitsAlone ignores live reservations — it is the deterministic check.
  EXPECT_TRUE(budget.FitsAlone(100));
  // Too large alone: fails at once, charges nothing, and the message
  // names only the bytes and the limit.
  const Status status = budget.Reserve(101, "oversize");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.message(),
            "oversize needs 101 bytes, more than the whole 100-byte memory "
            "budget");
  EXPECT_EQ(budget.used_bytes(), 60u);
}

TEST(MemoryBudgetTest, ZeroLimitIsUnlimitedButAccounted) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.FitsAlone(1ull << 60));
  EXPECT_TRUE(budget.Reserve(1ull << 40, "a").ok());
  EXPECT_TRUE(budget.Reserve(1ull << 40, "b").ok());
  EXPECT_EQ(budget.peak_bytes(), 1ull << 41);
}

TEST(MemoryBudgetTest, ReserveWaitsForRoomInsteadOfFailing) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.Reserve(80, "holder").ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    EXPECT_TRUE(budget.Reserve(50, "waiter").ok());
    granted = true;
  });
  // 50 fits alone but not next to the 80 held: the waiter blocks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  budget.Release(80);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(budget.used_bytes(), 50u);
  EXPECT_EQ(budget.peak_bytes(), 80u);
}

TEST(MemoryBudgetTest, ConcurrentReservationsThatFitAloneAllSucceed) {
  // Eight holders, each taking one reservation at a time, with sizes up to
  // the whole limit: every reservation is granted, usage never passes the
  // limit, and an oversize request fails without charging.
  constexpr uint64_t kLimit = 1000;
  MemoryBudget budget(kLimit);
  std::atomic<int> failures{0};
  std::atomic<int> oversize_denials{0};
  std::vector<std::thread> holders;
  for (uint64_t t = 0; t < 8; ++t) {
    holders.emplace_back([&budget, &failures, &oversize_denials, t] {
      for (uint64_t i = 0; i < 200; ++i) {
        MemoryCharge charge;
        const uint64_t bytes = 1 + (t * 131 + i * 37) % kLimit;
        if (!charge.Acquire(&budget, bytes, "task").ok()) ++failures;
        if (i == 100) {
          MemoryCharge oversize;
          const Status status =
              oversize.Acquire(&budget, kLimit + 1, "oversize");
          if (status.code() == StatusCode::kResourceExhausted) {
            ++oversize_denials;
          }
        }
      }
    });
  }
  for (std::thread& holder : holders) holder.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(oversize_denials.load(), 8);
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_GT(budget.peak_bytes(), 0u);
  EXPECT_LE(budget.peak_bytes(), kLimit);
}

TEST(MemoryBudgetTest, MemoryChargeIsRaii) {
  MemoryBudget budget(100);
  {
    MemoryCharge charge;
    ASSERT_TRUE(charge.Acquire(&budget, 80, "test").ok());
    EXPECT_EQ(budget.used_bytes(), 80u);
    // Re-acquiring releases the held reservation first, so it never
    // waits on itself.
    ASSERT_TRUE(charge.Acquire(&budget, 90, "regrown").ok());
    EXPECT_EQ(budget.used_bytes(), 90u);
    MemoryCharge denied;
    const Status status = denied.Acquire(&budget, 101, "overflow");
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(status.message().find("overflow"), std::string::npos);
    EXPECT_EQ(budget.used_bytes(), 90u);
  }
  EXPECT_EQ(budget.used_bytes(), 0u);  // released on scope exit
  MemoryCharge no_budget;
  EXPECT_TRUE(no_budget.Acquire(nullptr, 1ull << 60, "unbudgeted").ok());
}

TEST(TaskArenaBudgetTest, ReservationBeyondBudgetIsResourceExhausted) {
  const Dataset data = GenerateUniform(100, Rect::Cube(2, 0.0, 1.0), 3);
  MemoryBudget tiny(1024);
  TaskArena arena(data, &tiny);
  const Status status = arena.TryReserve(/*num_cells=*/4,
                                         /*num_points=*/100000);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // The failed reservation must not leave a dangling charge.
  EXPECT_EQ(tiny.used_bytes(), 0u);
}

TEST(ShuffleBudgetTest, ColumnarDegradesToSortedWithIdenticalGroups) {
  std::vector<std::pair<uint32_t, int>> records;
  for (int i = 0; i < 500; ++i) {
    records.emplace_back(static_cast<uint32_t>(i % 37), i);
  }
  // The oracle: a stable sort by key, read off as equal-key runs.
  std::vector<std::pair<uint32_t, int>> oracle = records;
  std::stable_sort(
      oracle.begin(), oracle.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  const MemoryBudget tiny(16);  // denies any real scratch
  for (const MemoryBudget* budget : {static_cast<const MemoryBudget*>(nullptr),
                                     &tiny}) {
    std::vector<std::pair<uint32_t, int>> bucket = records;
    std::vector<internal::ShuffleSegment<uint32_t, int>> segments = {
        {&bucket, nullptr}};
    internal::GroupScratch<uint32_t, int> scratch;
    internal::GroupPath path;
    internal::FallbackReason reason;
    auto grouped = internal::GroupSegments(segments, ShuffleMode::kColumnar,
                                           &scratch, &path, &reason, budget);
    ASSERT_TRUE(grouped.ok());
    EXPECT_EQ(path, budget == nullptr ? internal::GroupPath::kColumnar
                                      : internal::GroupPath::kSortedBudget);
    const GroupedView<uint32_t, int>& view = grouped.value();
    ASSERT_EQ(view.num_records(), oracle.size());
    size_t index = 0;
    for (size_t g = 0; g < view.num_groups(); ++g) {
      for (size_t i = 0; i < view.size(g); ++i, ++index) {
        EXPECT_EQ(view.key(g), oracle[index].first);
        EXPECT_EQ(view.value(g, i), oracle[index].second);
      }
      // Groups are maximal equal-key runs.
      if (g > 0) {
        EXPECT_LT(view.key(g - 1), view.key(g));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline-level durability.

DodConfig SmallDmtConfig() {
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  config.sampler.rate = 0.3;
  config.num_threads = 4;
  return config;
}

void ExpectSameProfiles(const std::vector<PartitionProfile>& a,
                        const std::vector<PartitionProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell, b[i].cell);
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].core_points, b[i].core_points);
    EXPECT_EQ(a[i].support_points, b[i].support_points);
    EXPECT_EQ(a[i].area, b[i].area);
    EXPECT_EQ(a[i].density, b[i].density);
    EXPECT_EQ(a[i].predicted_cost, b[i].predicted_cost);
    EXPECT_EQ(a[i].measured_distance_evals, b[i].measured_distance_evals);
    // measured_seconds is wall clock: not comparable.
  }
}

TEST(PipelineDurabilityTest, CrashResumeMatchesUninterruptedRun) {
  const Dataset data =
      GenerateUniform(4000, DomainForDensity(4000, 0.04), 17);
  const DodResult baseline = DodPipeline(SmallDmtConfig()).RunOrDie(data);

  const std::string dir = FreshDir("pipeline");
  DodConfig crashing = SmallDmtConfig();
  crashing.checkpoint_dir = dir;
  crashing.faults.crash_at_task = 1;
  crashing.faults.crash_phase = TaskPhase::kReduce;
  const auto crashed = DodPipeline(crashing).Run(data);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kUnavailable);

  DodConfig resuming = SmallDmtConfig();
  resuming.checkpoint_dir = dir;
  resuming.resume = true;
  // Resume on a different thread count: still byte-identical.
  resuming.num_threads = 1;
  const DodResult resumed = DodPipeline(resuming).RunOrDie(data);
  EXPECT_EQ(baseline.outliers, resumed.outliers);
  EXPECT_EQ(baseline.detect_stats.records_mapped,
            resumed.detect_stats.records_mapped);
  EXPECT_EQ(baseline.detect_stats.groups_reduced,
            resumed.detect_stats.groups_reduced);
  EXPECT_EQ(baseline.detect_stats.counters.values(),
            resumed.detect_stats.counters.values());
  ExpectSameProfiles(baseline.detect_stats.partition_profiles,
                     resumed.detect_stats.partition_profiles);
}

TEST(PipelineDurabilityTest, ResumeRefusesDifferentConfiguration) {
  const Dataset data =
      GenerateUniform(2000, DomainForDensity(2000, 0.04), 18);
  const std::string dir = FreshDir("refuse");
  DodConfig first = SmallDmtConfig();
  first.checkpoint_dir = dir;
  ASSERT_TRUE(DodPipeline(first).Run(data).ok());

  DodConfig other = SmallDmtConfig();
  other.checkpoint_dir = dir;
  other.resume = true;
  other.seed = first.seed + 1;  // different fingerprint
  const auto refused = DodPipeline(other).Run(data);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineDurabilityTest, DomainBaselineCrashResumeAcrossBothJobs) {
  const Dataset data =
      GenerateUniform(3000, DomainForDensity(3000, 0.04), 19);
  DodConfig base = DodConfig::Baseline(DetectionParams{5.0, 4},
                                       StrategyKind::kDomain,
                                       AlgorithmKind::kCellBased);
  base.num_threads = 4;
  const DodResult baseline = DodPipeline(base).RunOrDie(data);

  // The crash task index exists in both jobs; the run crashes in the
  // detection job first, and after one resume crashes again in the
  // verification job, so convergence takes two resumes.
  const std::string dir = FreshDir("domain");
  DodConfig crashing = base;
  crashing.checkpoint_dir = dir;
  crashing.faults.crash_at_task = 0;
  crashing.faults.crash_phase = TaskPhase::kReduce;
  ASSERT_EQ(DodPipeline(crashing).Run(data).status().code(),
            StatusCode::kUnavailable);
  DodConfig once = crashing;
  once.resume = true;
  ASSERT_EQ(DodPipeline(once).Run(data).status().code(),
            StatusCode::kUnavailable);
  DodConfig final_run = base;
  final_run.checkpoint_dir = dir;
  final_run.resume = true;
  const DodResult resumed = DodPipeline(final_run).RunOrDie(data);
  EXPECT_EQ(baseline.outliers, resumed.outliers);
  EXPECT_EQ(baseline.verify_stats.groups_reduced,
            resumed.verify_stats.groups_reduced);
}

TEST(PipelineDurabilityTest, DeadlineAndCancellationAreStructured) {
  const Dataset data =
      GenerateUniform(2000, DomainForDensity(2000, 0.04), 20);
  DodConfig deadline_config = SmallDmtConfig();
  deadline_config.deadline_seconds = 1e-9;
  RunDiagnostics diagnostics;
  const auto timed_out =
      DodPipeline(deadline_config).Run(data, &diagnostics);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  DodConfig cancel_config = SmallDmtConfig();
  cancel_config.cancel_token.Cancel();
  const auto cancelled = DodPipeline(cancel_config).Run(data);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace dod
