// Copyright 2026 The DOD Authors.
//
// Streaming outlier service tests: the shared cell-keying contract, window
// edge cases (entire-cell expiry, verdict flips caused purely by a
// *neighbor's* expiry, duplicate-id rejection, empty feeds), the central
// oracle property — after every round the incremental outlier set is
// byte-identical to a from-scratch batch pipeline run over the window, for
// every thread count × kernel mode × shuffle mode — the neighbor-count
// summaries (saturation edges, randomized per-round equality against a
// centralized detector across expiry patterns and configurations) — and
// checkpoint/resume reproducing the uninterrupted run's deltas exactly,
// including summary rebuilds from summary-less checkpoints.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "detection/cell_key.h"
#include "detection/grid.h"
#include "core/pipeline.h"
#include "durability/checkpoint.h"
#include "durability/payload.h"
#include "streaming/streaming_detector.h"

#include "gtest/gtest.h"

namespace dod {
namespace {

namespace fs = std::filesystem;

StreamingConfig BaseConfig(double radius, int k) {
  StreamingConfig config;
  config.params.radius = radius;
  config.params.min_neighbors = k;
  config.params.seed = 7;
  return config;
}

StreamBlock MakeBlock(std::initializer_list<std::pair<PointId, Point>> points,
                      double timestamp = 0.0) {
  StreamBlock block(points.begin()->second.dims());
  for (const auto& [id, p] : points) block.Add(id, p.data());
  block.timestamp = timestamp;
  return block;
}

// ---------------------------------------------------------------------------
// Shared cell keying: the streaming tracker and the batch SparseGrid must
// assign identical cell ids to identical coordinates.

TEST(CellKeyTest, MatchesSparseGridForRandomPointsOriginsAndSides) {
  Rng rng(0xCE11);
  for (int trial = 0; trial < 50; ++trial) {
    const int dims = 1 + static_cast<int>(rng.NextBounded(3));
    Point origin(dims);
    for (int d = 0; d < dims; ++d) origin[d] = rng.NextDouble() * 20.0 - 10.0;
    const double side = 0.25 + rng.NextDouble() * 4.0;
    SparseGrid grid(origin, side);
    for (int i = 0; i < 40; ++i) {
      Point p(dims);
      for (int d = 0; d < dims; ++d) p[d] = rng.NextDouble() * 200.0 - 100.0;
      const CellCoord from_grid = grid.CoordOf(p.data());
      const CellCoord from_helper =
          UniformCellKey(p.data(), dims, origin.data(), side);
      EXPECT_TRUE(from_grid == from_helper);
      EXPECT_EQ(CellCoordHash{}(from_grid), CellCoordHash{}(from_helper));
    }
  }
}

TEST(CellKeyTest, BoundaryPointsBelongToTheUpperCell) {
  // Cell i covers [origin + i*side, origin + (i+1)*side): a point exactly
  // on a cell edge keys into the higher cell.
  const double origin[2] = {0.0, 0.0};
  const double p[2] = {2.0, -2.0};
  const CellCoord coord = UniformCellKey(p, 2, origin, 1.0);
  EXPECT_EQ(coord.c[0], 2);
  EXPECT_EQ(coord.c[1], -2);
}

// ---------------------------------------------------------------------------
// Window edge cases.

TEST(StreamingDetectorTest, EmptyFeedIsNoopDelta) {
  auto created = StreamingDetector::Create(BaseConfig(1.0, 2));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  StreamingDetector& detector = *created.value();

  StreamBlock empty(2);
  auto delta = detector.Feed(empty);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_TRUE(delta.value().newly_flagged.empty());
  EXPECT_TRUE(delta.value().newly_cleared.empty());
  EXPECT_EQ(delta.value().stats.round, 1u);
  EXPECT_EQ(delta.value().stats.resident_points, 0u);
  EXPECT_EQ(detector.rounds(), 1u);
  EXPECT_TRUE(detector.outliers().empty());
}

TEST(StreamingDetectorTest, DuplicateIdsAreRejectedWindowUnchanged) {
  auto created = StreamingDetector::Create(BaseConfig(1.0, 1));
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();

  // Duplicate within one block.
  auto dup_in_block =
      detector.Feed(MakeBlock({{5, {0.0, 0.0}}, {5, {1.0, 1.0}}}));
  EXPECT_EQ(dup_in_block.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(detector.rounds(), 0u);
  EXPECT_EQ(detector.resident_points(), 0u);

  ASSERT_TRUE(detector.Feed(MakeBlock({{5, {0.0, 0.0}}})).ok());

  // Duplicate against a resident point.
  auto dup_resident = detector.Feed(MakeBlock({{5, {2.0, 2.0}}}));
  EXPECT_EQ(dup_resident.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(detector.rounds(), 1u);
  EXPECT_EQ(detector.resident_points(), 1u);
}

TEST(StreamingDetectorTest, RejectsDimensionMismatchAndNonFinite) {
  auto created = StreamingDetector::Create(BaseConfig(1.0, 1));
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();
  ASSERT_TRUE(detector.Feed(MakeBlock({{0, {0.0, 0.0}}})).ok());

  StreamBlock three_d(3);
  const double q[3] = {0.0, 0.0, 0.0};
  three_d.Add(1, q);
  EXPECT_EQ(detector.Feed(three_d).status().code(),
            StatusCode::kInvalidArgument);

  StreamBlock nan_block(2);
  const double bad[2] = {0.0, std::nan("")};
  nan_block.Add(2, bad);
  EXPECT_EQ(detector.Feed(nan_block).status().code(),
            StatusCode::kInvalidArgument);

  // Finite, but its cell index does not fit the int32 cell coordinates.
  StreamBlock far_block(2);
  const double far[2] = {1e300, 0.0};
  far_block.Add(3, far);
  EXPECT_EQ(detector.Feed(far_block).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(detector.resident_points(), 1u);
}

TEST(StreamingDetectorTest, CreateRejectsUnsupportedConfigs) {
  // The re-detection path is gone: a caller asking for it is refused, not
  // silently served the summaries.
  StreamingConfig no_summaries = BaseConfig(1.0, 2);
  no_summaries.summaries = false;
  EXPECT_EQ(StreamingDetector::Create(no_summaries).status().code(),
            StatusCode::kInvalidArgument);
  // A cell side this far below the radius would need a supporting ring
  // wider than the int32 cell coordinates can walk.
  StreamingConfig tiny_cells = BaseConfig(1.0, 2);
  tiny_cells.cell_side = 1e-12;
  EXPECT_EQ(StreamingDetector::Create(tiny_cells).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamingDetectorTest, EntireCellExpiryClearsItsOutliers) {
  StreamingConfig config = BaseConfig(1.0, 2);
  config.window_blocks = 2;
  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();

  // An isolated point: no neighbors -> outlier; its cell holds only it.
  auto first = detector.Feed(MakeBlock({{10, {50.0, 50.0}}}));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().newly_flagged, std::vector<PointId>{10});
  EXPECT_EQ(detector.resident_cells(), 1u);

  ASSERT_TRUE(detector.Feed(MakeBlock({{11, {-50.0, -50.0}}})).ok());

  // Third block pushes block 1 out of the window: the whole cell of point
  // 10 expires and the id must come back as newly_cleared.
  auto third = detector.Feed(MakeBlock({{12, {70.0, 70.0}}}));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().stats.expired_points, 1u);
  EXPECT_EQ(third.value().newly_cleared, std::vector<PointId>{10});
  EXPECT_EQ(detector.outliers(), (std::vector<PointId>{11, 12}));
}

TEST(StreamingDetectorTest, NeighborExpiryFlipsUntouchedCellsVerdict) {
  // r=1, k=2. Block 0 puts A and B in cell (0,0); block 1 puts C in cell
  // (1,0) within distance r of both, so C is an inlier. When block 0
  // expires, C's own cell is never touched — only the supporting-ring
  // dirty rule re-detects it — and C must flip to outlier.
  StreamingConfig config = BaseConfig(1.0, 2);
  config.window_blocks = 2;
  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();

  ASSERT_TRUE(
      detector.Feed(MakeBlock({{0, {0.1, 0.1}}, {1, {0.2, 0.1}}})).ok());
  auto second = detector.Feed(MakeBlock({{2, {1.05, 0.1}}}));
  ASSERT_TRUE(second.ok());
  // A, B, C all have >= 2 neighbors within r=1: no outliers yet.
  EXPECT_TRUE(detector.outliers().empty());

  // D is far away; feeding it expires block 0 (A and B).
  auto third = detector.Feed(MakeBlock({{3, {30.0, 30.0}}}));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().stats.expired_points, 2u);
  // C lost both neighbors without its own cell being touched.
  ASSERT_EQ(detector.outliers(), (std::vector<PointId>{2, 3}));
  EXPECT_EQ(third.value().newly_flagged, (std::vector<PointId>{2, 3}));
}

TEST(StreamingDetectorTest, SaturatedPointWhoseNeighborsExpireFlipsSameRound) {
  // The saturation edge: slack 0 saturates counting exactly at k, so a
  // point carrying `>= k` (not an exact count) that loses neighbors to
  // expiry must re-count — and flip — in the same round the bound drops
  // below k. r=1, k=2, window of 2 blocks.
  StreamingConfig config = BaseConfig(1.0, 2);
  config.window_blocks = 2;
  config.summary_slack = 0;
  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  StreamingDetector& detector = *created.value();

  // Round 1: A and B adjacent; each has 1 < k neighbors -> both flagged.
  ASSERT_TRUE(
      detector.Feed(MakeBlock({{0, {0.1, 0.1}}, {1, {0.2, 0.1}}})).ok());
  EXPECT_EQ(detector.outliers(), (std::vector<PointId>{0, 1}));
  EXPECT_EQ(detector.saturated_points(), 0u);

  // Round 2: P lands within r of both. P's first count stops at the cap
  // (k + slack = 2): P is saturated, an inlier; A and B flip exact counts
  // 1 -> 2 through the incremental insert pass.
  auto second = detector.Feed(MakeBlock({{2, {0.5, 0.5}}}));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.full_counted_points, 1u);
  EXPECT_EQ(second.value().newly_cleared, (std::vector<PointId>{0, 1}));
  EXPECT_TRUE(detector.outliers().empty());
  EXPECT_EQ(detector.saturated_points(), 1u);

  // Round 3: a far block expires A and B. P's bound drops 2 - 2 = 0 < k:
  // it re-counts to 0 and must flip to outlier in this very round.
  auto third = detector.Feed(MakeBlock({{3, {40.0, 40.0}}}));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().stats.expired_points, 2u);
  EXPECT_EQ(third.value().stats.recounted_points, 1u);
  EXPECT_EQ(third.value().newly_flagged, (std::vector<PointId>{2, 3}));
  EXPECT_TRUE(third.value().newly_cleared.empty());
  EXPECT_EQ(detector.outliers(), (std::vector<PointId>{2, 3}));
  EXPECT_EQ(detector.saturated_points(), 0u);
}

// ---------------------------------------------------------------------------
// Oracle property: after every round, outliers() must equal a from-scratch
// batch pipeline run over the window contents, across configurations.

struct StreamSchedule {
  Dataset data = Dataset(2);
  size_t block_size = 0;
  size_t window_blocks = 0;

  size_t num_blocks() const {
    return (data.size() + block_size - 1) / block_size;
  }
  size_t begin(size_t b) const { return b * block_size; }
  size_t end(size_t b) const {
    return std::min(data.size(), (b + 1) * block_size);
  }
  size_t first_resident(size_t round) const {
    return round > window_blocks ? round - window_blocks : 0;
  }
};

std::vector<PointId> BatchOracle(const StreamSchedule& schedule, size_t round,
                                 const DodConfig& config) {
  Dataset window(schedule.data.dims());
  std::vector<PointId> window_ids;
  for (size_t b = schedule.first_resident(round); b < round; ++b) {
    for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
      window.Append(schedule.data[static_cast<PointId>(i)]);
      window_ids.push_back(static_cast<PointId>(i));
    }
  }
  if (window.empty()) return {};
  DodPipeline pipeline(config);
  const DodResult result = pipeline.RunOrDie(window);
  std::vector<PointId> outliers;
  outliers.reserve(result.outliers.size());
  for (PointId local : result.outliers) outliers.push_back(window_ids[local]);
  return outliers;
}

TEST(StreamingPropertyTest, MatchesBatchPipelineAcrossConfigs) {
  StreamSchedule schedule;
  // Dense enough that the window holds a real mix of inliers and outliers.
  schedule.data = GenerateUniform(1200, DomainForDensity(1200, 2.0), 99);
  schedule.block_size = 100;
  schedule.window_blocks = 5;

  const double radius = 1.5;
  const int k = 4;

  struct Case {
    int threads;
    KernelMode kernels;
    ShuffleMode shuffle;
  };
  const std::vector<Case> cases = {
      {1, KernelMode::kScalar, ShuffleMode::kColumnar},
      {4, KernelMode::kAuto, ShuffleMode::kColumnar},
      {8, KernelMode::kAuto, ShuffleMode::kSorted},
      {4, KernelMode::kScalar, ShuffleMode::kSorted},
  };

  std::vector<std::vector<PointId>> outliers_by_case;
  for (const Case& c : cases) {
    StreamingConfig config = BaseConfig(radius, k);
    config.params.kernels = c.kernels;
    config.num_threads = c.threads;
    config.window_blocks = schedule.window_blocks;

    DodConfig oracle = DodConfig::Dmt(config.params);
    oracle.num_threads = c.threads;
    oracle.shuffle = c.shuffle;
    oracle.seed = config.params.seed;

    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    StreamingDetector& detector = *created.value();

    std::vector<PointId> running;  // delta-reconstructed outlier set
    for (size_t b = 0; b < schedule.num_blocks(); ++b) {
      StreamBlock block(schedule.data.dims());
      for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
        block.Add(static_cast<PointId>(i),
                  schedule.data[static_cast<PointId>(i)]);
      }
      auto fed = detector.Feed(block);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();

      // Applying the delta to the previous set reconstructs outliers().
      std::vector<PointId> next;
      std::set_difference(running.begin(), running.end(),
                          fed.value().newly_cleared.begin(),
                          fed.value().newly_cleared.end(),
                          std::back_inserter(next));
      std::vector<PointId> merged;
      std::merge(next.begin(), next.end(), fed.value().newly_flagged.begin(),
                 fed.value().newly_flagged.end(), std::back_inserter(merged));
      running = std::move(merged);
      ASSERT_EQ(running, detector.outliers());

      ASSERT_EQ(detector.outliers(), BatchOracle(schedule, b + 1, oracle))
          << "round " << (b + 1) << " threads=" << c.threads;
    }
    outliers_by_case.push_back(detector.outliers());
  }
  // Every configuration converged to the same final verdict set.
  for (size_t i = 1; i < outliers_by_case.size(); ++i) {
    EXPECT_EQ(outliers_by_case[0], outliers_by_case[i]);
  }
}

TEST(StreamingPropertyTest, SpilledOracleBatchYieldsIdenticalVerdicts) {
  // The batch pipelines run on a stream's behalf (dod_stream_cli's
  // per-round oracle) may spill their shuffle. A spilling oracle must
  // agree with the streaming detector verdict for verdict, round by round
  // — spilling is invisible in batch output.
  StreamSchedule schedule;
  schedule.data = GenerateUniform(600, DomainForDensity(600, 2.0), 41);
  schedule.block_size = 100;
  schedule.window_blocks = 3;

  StreamingConfig config = BaseConfig(1.5, 4);
  config.window_blocks = schedule.window_blocks;
  config.num_threads = 4;
  const std::string spill_dir = testing::TempDir() + "/dod_stream_spill_" +
                                std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(spill_dir, ec);

  DodConfig oracle = DodConfig::Dmt(config.params);
  oracle.num_threads = config.num_threads;
  oracle.seed = config.params.seed;
  oracle.spill_dir = spill_dir;
  oracle.spill_threshold_mb = 1;
  DodConfig in_memory_oracle = oracle;
  in_memory_oracle.spill_dir.clear();

  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  StreamingDetector& detector = *created.value();
  for (size_t b = 0; b < schedule.num_blocks(); ++b) {
    StreamBlock block(schedule.data.dims());
    for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
      block.Add(static_cast<PointId>(i),
                schedule.data[static_cast<PointId>(i)]);
    }
    ASSERT_TRUE(detector.Feed(block).ok());
    EXPECT_EQ(detector.outliers(), BatchOracle(schedule, b + 1, oracle))
        << "round " << (b + 1);
    EXPECT_EQ(BatchOracle(schedule, b + 1, oracle),
              BatchOracle(schedule, b + 1, in_memory_oracle))
        << "round " << (b + 1);
  }
}

// ---------------------------------------------------------------------------
// Summary maintenance vs a centralized detector: after every round of a
// randomized schedule, the delta-reconstructed outlier set must equal a
// from-scratch centralized run over the current window — across seeds,
// expiry patterns (count- and time-based windows) and runtime
// configurations.

TEST(StreamingPropertyTest, SummariesMatchCentralizedOracleAcrossConfigs) {
  struct Case {
    int threads;
    KernelMode kernels;
    AlgorithmKind oracle_algorithm;
    int slack;
  };
  const std::vector<Case> cases = {
      {1, KernelMode::kScalar, AlgorithmKind::kCellBased, 0},
      {4, KernelMode::kAuto, AlgorithmKind::kCellBased, 32},
      {8, KernelMode::kAuto, AlgorithmKind::kNestedLoop, 2},
      {4, KernelMode::kScalar, AlgorithmKind::kBruteForce, 8},
  };

  for (uint64_t seed : {21u, 77u}) {
    StreamSchedule schedule;
    schedule.data = GenerateUniform(900, DomainForDensity(900, 2.0), seed);
    schedule.block_size = 75;
    schedule.window_blocks = 4;

    for (bool time_window : {false, true}) {
      for (size_t c = 0; c < cases.size(); ++c) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " time_window=" + std::to_string(time_window) +
                     " case=" + std::to_string(c));
        StreamingConfig config = BaseConfig(1.5, 4);
        config.params.kernels = cases[c].kernels;
        config.num_threads = cases[c].threads;
        config.summary_slack = cases[c].slack;
        if (time_window) {
          // Timestamps are round indices: window_seconds == window_blocks
          // keeps exactly the count-based resident set, expiring via the
          // time rule instead.
          config.window_seconds = static_cast<double>(schedule.window_blocks);
        } else {
          config.window_blocks = schedule.window_blocks;
        }
        auto created = StreamingDetector::Create(config);
        ASSERT_TRUE(created.ok()) << created.status().ToString();
        StreamingDetector& detector = *created.value();

        std::vector<PointId> running;  // delta-reconstructed outlier set
        for (size_t b = 0; b < schedule.num_blocks(); ++b) {
          StreamBlock block(schedule.data.dims());
          for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
            block.Add(static_cast<PointId>(i),
                      schedule.data[static_cast<PointId>(i)]);
          }
          block.timestamp = static_cast<double>(b);
          auto fed = detector.Feed(block);
          ASSERT_TRUE(fed.ok()) << fed.status().ToString();
          std::vector<PointId> next;
          std::set_difference(running.begin(), running.end(),
                              fed.value().newly_cleared.begin(),
                              fed.value().newly_cleared.end(),
                              std::back_inserter(next));
          running.clear();
          std::merge(next.begin(), next.end(),
                     fed.value().newly_flagged.begin(),
                     fed.value().newly_flagged.end(),
                     std::back_inserter(running));
          ASSERT_EQ(running, detector.outliers()) << "round " << (b + 1);

          Dataset window(schedule.data.dims());
          std::vector<PointId> window_ids;
          for (size_t w = schedule.first_resident(b + 1); w <= b; ++w) {
            for (size_t i = schedule.begin(w); i < schedule.end(w); ++i) {
              window.Append(schedule.data[static_cast<PointId>(i)]);
              window_ids.push_back(static_cast<PointId>(i));
            }
          }
          std::vector<PointId> expected;
          for (PointId local : DetectOutliersCentralized(
                   window, cases[c].oracle_algorithm, config.params)) {
            expected.push_back(window_ids[local]);
          }
          std::sort(expected.begin(), expected.end());
          ASSERT_EQ(running, expected) << "round " << (b + 1);
        }
        if (cases[c].slack == 0) {
          // Zero slack caps counting at k: dense uniform data must leave
          // saturated lower bounds behind.
          EXPECT_GT(detector.saturated_points(), 0u);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume.

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              (name + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

TEST(StreamingCheckpointTest, ResumeReproducesRemainingDeltas) {
  StreamSchedule schedule;
  schedule.data = GenerateUniform(800, DomainForDensity(800, 2.0), 5);
  schedule.block_size = 80;
  schedule.window_blocks = 4;

  auto feed_block = [&](StreamingDetector& detector,
                        size_t b) -> Result<OutlierDelta> {
    StreamBlock block(schedule.data.dims());
    for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
      block.Add(static_cast<PointId>(i),
                schedule.data[static_cast<PointId>(i)]);
    }
    return detector.Feed(block);
  };

  StreamingConfig config = BaseConfig(1.5, 4);
  config.window_blocks = schedule.window_blocks;
  config.num_threads = 4;
  config.job_tag = "resume-test";

  // Uninterrupted run: record every round's delta.
  std::vector<std::pair<std::vector<PointId>, std::vector<PointId>>> full;
  {
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok());
    for (size_t b = 0; b < schedule.num_blocks(); ++b) {
      auto fed = feed_block(*created.value(), b);
      ASSERT_TRUE(fed.ok());
      full.emplace_back(fed.value().newly_flagged,
                        fed.value().newly_cleared);
    }
  }

  // Checkpointed run stops after round `stop`; a resumed service (different
  // thread count — resume does not depend on it) replays the rest.
  const size_t stop = 6;
  TempDir dir("dod-streaming-ck");
  config.checkpoint_dir = dir.str();
  {
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok());
    for (size_t b = 0; b < stop; ++b) {
      auto fed = feed_block(*created.value(), b);
      ASSERT_TRUE(fed.ok());
      ASSERT_EQ(fed.value().newly_flagged, full[b].first);
    }
    // No explicit shutdown: the committed checkpoint is all that survives.
  }
  config.resume = true;
  config.num_threads = 1;
  auto resumed = StreamingDetector::Create(config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->rounds(), stop);
  for (size_t b = stop; b < schedule.num_blocks(); ++b) {
    auto fed = feed_block(*resumed.value(), b);
    ASSERT_TRUE(fed.ok());
    EXPECT_EQ(fed.value().newly_flagged, full[b].first) << "round " << b + 1;
    EXPECT_EQ(fed.value().newly_cleared, full[b].second) << "round " << b + 1;
  }
}

TEST(StreamingCheckpointTest, SummariesResumeFromSummaryLessCheckpoint) {
  // Builds that could run rounds by re-detection wrote version-3 snapshots
  // with has_summaries = 0 (no persisted counts). Resuming from one must
  // rebuild every summary deterministically and replay the identical
  // deltas. The snapshot is written out of band, byte for byte as such a
  // build laid it out.
  StreamSchedule schedule;
  schedule.data = GenerateUniform(600, DomainForDensity(600, 2.0), 13);
  schedule.block_size = 60;
  schedule.window_blocks = 3;

  auto make_block = [&](size_t b) {
    StreamBlock block(schedule.data.dims());
    for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
      block.Add(static_cast<PointId>(i),
                schedule.data[static_cast<PointId>(i)]);
    }
    return block;
  };

  StreamingConfig config = BaseConfig(1.5, 4);
  config.window_blocks = schedule.window_blocks;
  config.job_tag = "rebuild-test";

  // Reference: uninterrupted run, remembering the outlier set after `stop`.
  const size_t stop = 5;
  std::vector<std::pair<std::vector<PointId>, std::vector<PointId>>> full;
  std::vector<PointId> outliers_at_stop;
  {
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok());
    for (size_t b = 0; b < schedule.num_blocks(); ++b) {
      auto fed = created.value()->Feed(make_block(b));
      ASSERT_TRUE(fed.ok());
      full.emplace_back(fed.value().newly_flagged, fed.value().newly_cleared);
      if (b + 1 == stop) outliers_at_stop = created.value()->outliers();
    }
  }

  // The summary-less snapshot of round `stop`: blocks [stop - W, stop) of
  // source 0, one block per round (seq = block index), no time window.
  PayloadWriter w;
  w.U32(3);     // version
  w.U64(stop);  // round
  w.U64(stop);  // next_seq
  w.U32(static_cast<uint32_t>(schedule.data.dims()));
  w.U8(0);  // has_summaries
  w.U64(1);  // sources
  w.U32(0);  // source id
  w.U8(0);   // saw_timestamp
  w.F64(0.0);  // high water
  w.U64(schedule.window_blocks);
  for (size_t b = schedule.first_resident(stop); b < stop; ++b) {
    w.U64(b);  // seq
    w.F64(0.0);  // timestamp
    w.U64(schedule.end(b) - schedule.begin(b));
    for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
      w.U32(static_cast<uint32_t>(i));
      w.Raw(schedule.data[static_cast<PointId>(i)],
            sizeof(double) * static_cast<size_t>(schedule.data.dims()));
    }
  }
  w.U64(outliers_at_stop.size());
  for (PointId id : outliers_at_stop) w.U32(id);
  w.U64(stop);  // arrivals
  w.U64(0);     // late_dropped
  w.U8(0);      // saw_arrival
  w.F64(0.0);   // global max ts
  w.U64(0);     // next_arrival
  w.U64(0);     // watermark clocks
  w.U64(0);     // buffered blocks

  TempDir dir("dod-streaming-rebuild");
  config.checkpoint_dir = dir.str();
  {
    auto store =
        CheckpointStore::Open(dir.str(), StreamingDetector::JobKeyFor(config),
                              /*resume=*/false);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store.value()
                    ->CommitTask("stream", static_cast<int>(stop), w.str())
                    .ok());
    PayloadWriter latest;
    latest.U64(stop);
    ASSERT_TRUE(store.value()->CommitTask("latest", 0, latest.str()).ok());
  }
  config.resume = true;
  auto resumed = StreamingDetector::Create(config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->rounds(), stop);
  EXPECT_EQ(resumed.value()->outliers(), outliers_at_stop);
  for (size_t b = stop; b < schedule.num_blocks(); ++b) {
    auto fed = resumed.value()->Feed(make_block(b));
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    EXPECT_EQ(fed.value().newly_flagged, full[b].first) << "round " << b + 1;
    EXPECT_EQ(fed.value().newly_cleared, full[b].second) << "round " << b + 1;
  }
}

TEST(StreamingCheckpointTest, ResumeRefusesMismatchedConfig) {
  TempDir dir("dod-streaming-key");
  StreamingConfig config = BaseConfig(1.0, 2);
  config.window_blocks = 2;
  config.checkpoint_dir = dir.str();
  {
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE(created.value()->Feed(MakeBlock({{0, {0.0, 0.0}}})).ok());
  }
  config.resume = true;
  config.params.radius = 2.0;  // different outlier definition
  auto resumed = StreamingDetector::Create(config);
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingCheckpointTest, CheckpointWithoutDirIsFailedPrecondition) {
  auto created = StreamingDetector::Create(BaseConfig(1.0, 2));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value()->Checkpoint().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dod
