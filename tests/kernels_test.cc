// Copyright 2026 The DOD Authors.
//
// The kernel exactness contract: scalar, blocked and AVX2 kernels return
// bit-identical results on every input — dimensions 1..kMaxDimensions,
// sizes straddling block boundaries, ties at exactly r, NaN/infinity
// coordinates — and every detector produces the same outlier set under
// --kernels=scalar and --kernels=auto, for any thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "data/tiger_like.h"
#include "detection/brute_force.h"
#include "detection/cell_based.h"
#include "detection/nested_loop.h"
#include "extensions/dbscan.h"
#include "extensions/knn_outliers.h"
#include "kernels/distance_kernels.h"
#include "kernels/soa_block.h"

namespace dod {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Every implementation compiled into this binary and usable on this CPU.
std::vector<const KernelOps*> AvailableImpls() {
  std::vector<const KernelOps*> impls = {GetKernelOpsByName("scalar"),
                                         GetKernelOpsByName("blocked")};
  if (const KernelOps* avx2 = GetKernelOpsByName("avx2")) {
    impls.push_back(avx2);
  }
  return impls;
}

Dataset RandomDataset(int dims, size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset data(dims);
  Point p(dims);
  for (size_t i = 0; i < n; ++i) {
    for (int d = 0; d < dims; ++d) p[d] = rng.NextUniform(0.0, 10.0);
    data.Append(p);
    // Sprinkle exact duplicates so self-exclusion by id matters.
    if (i % 17 == 3) data.Append(p);
  }
  return data;
}

// Sizes around the block width: empty, partial, exact, width±1, multiple.
const size_t kBoundarySizes[] = {0,  1,  kSoaWidth - 1, kSoaWidth,
                                 kSoaWidth + 1, 2 * kSoaWidth - 1,
                                 2 * kSoaWidth, 2 * kSoaWidth + 1, 33};

TEST(SoABlockTest, LayoutAndPadding) {
  SoABlock block(3);
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.num_blocks(), 0u);
  const double p0[] = {1.0, 2.0, 3.0};
  const double p1[] = {4.0, 5.0, 6.0};
  block.Append(p0, 7);
  block.Append(p1, 9);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_EQ(block.num_blocks(), 1u);
  EXPECT_EQ(block.Lane(0, 0)[0], 1.0);
  EXPECT_EQ(block.Lane(0, 0)[1], 4.0);
  EXPECT_EQ(block.Lane(0, 2)[1], 6.0);
  EXPECT_EQ(block.IdAt(0), 7u);
  EXPECT_EQ(block.Ids(0)[1], 9u);
  // Pad slots: +inf coordinates, invalid id.
  for (size_t s = 2; s < kSoaWidth; ++s) {
    EXPECT_EQ(block.Lane(0, 1)[s], kInf);
    EXPECT_EQ(block.Ids(0)[s], kSoaInvalidId);
  }
}

TEST(DistanceKernelsTest, ImplsAgreeOnRandomData) {
  const std::vector<const KernelOps*> impls = AvailableImpls();
  const KernelOps& scalar = *impls[0];
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (size_t n : kBoundarySizes) {
      const Dataset data = RandomDataset(dims, n, 1000u * dims + n);
      SoABlock soa(dims);
      soa.Assign(data);
      Rng rng(77u * dims + n);
      Point q(dims);
      for (int trial = 0; trial < 8; ++trial) {
        for (int d = 0; d < dims; ++d) q[d] = rng.NextUniform(0.0, 10.0);
        const double sq_radius =
            trial % 2 == 0 ? rng.NextUniform(0.5, 16.0) : 2.0;
        const uint32_t skip =
            data.empty() ? kSoaInvalidId
                         : static_cast<uint32_t>(rng.NextBounded(
                               data.size() + 1));  // sometimes matches none
        const size_t begin = data.empty() ? 0 : rng.NextBounded(data.size());
        const size_t end =
            begin + (data.size() > begin
                         ? rng.NextBounded(data.size() - begin + 1)
                         : 0);

        uint64_t scalar_pairs = 0;
        const int want_count = scalar.count_within_radius(
            soa, begin, end, q.data(), sq_radius, skip, -1, &scalar_pairs);
        std::vector<uint32_t> want_mask;
        scalar.range_mask(soa, q.data(), sq_radius, skip, &want_mask,
                          nullptr);
        const double want_min =
            scalar.min_squared_distance(soa, q.data(), nullptr);
        std::vector<double> want_dists(data.size());
        scalar.squared_distances(soa, q.data(), want_dists.data(), nullptr);

        for (const KernelOps* ops : impls) {
          SCOPED_TRACE(std::string("impl=") + ops->name);
          uint64_t pairs = 0;
          EXPECT_EQ(ops->count_within_radius(soa, begin, end, q.data(),
                                             sq_radius, skip, -1, &pairs),
                    want_count);
          // Uncapped kernels evaluate every non-skipped pair in range.
          EXPECT_EQ(pairs, scalar_pairs);
          // Capped: the verdict (count >= cap) must agree even though the
          // batched count may overshoot within a block.
          for (int cap : {1, 2, want_count, want_count + 1}) {
            if (cap < 0) continue;
            const int capped = ops->count_within_radius(
                soa, begin, end, q.data(), sq_radius, skip, cap, nullptr);
            EXPECT_EQ(capped >= cap, want_count >= cap) << "cap=" << cap;
            if (capped < cap) {
              EXPECT_EQ(capped, want_count);
            }
          }
          std::vector<uint32_t> mask;
          ops->range_mask(soa, q.data(), sq_radius, skip, &mask, nullptr);
          EXPECT_EQ(mask, want_mask);
          const double min = ops->min_squared_distance(soa, q.data(), nullptr);
          EXPECT_TRUE(min == want_min || (std::isnan(min) && std::isnan(want_min)));
          std::vector<double> dists(data.size());
          ops->squared_distances(soa, q.data(), dists.data(), nullptr);
          for (size_t j = 0; j < data.size(); ++j) {
            EXPECT_TRUE(dists[j] == want_dists[j] ||
                        (std::isnan(dists[j]) && std::isnan(want_dists[j])))
                << "slot " << j;
          }
        }
      }
    }
  }
}

TEST(DistanceKernelsTest, CountBlockImplsAgreeAndAccumulate) {
  // The batched block×segment entry must add, for every query row, the
  // exact uncapped neighbor count of the sub-range — bit-identical across
  // implementations, on top of whatever the counts array already holds.
  const std::vector<const KernelOps*> impls = AvailableImpls();
  const KernelOps& scalar = *impls[0];
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (size_t n : kBoundarySizes) {
      const Dataset data = RandomDataset(dims, n, 3000u * dims + n);
      SoABlock soa(dims);
      soa.Assign(data);
      Rng rng(131u * dims + n);
      for (int trial = 0; trial < 4; ++trial) {
        const size_t num_queries = 1 + rng.NextBounded(12);
        std::vector<double> queries(num_queries * dims);
        for (double& c : queries) c = rng.NextUniform(0.0, 10.0);
        const double sq_radius = rng.NextUniform(0.5, 16.0);
        const size_t begin = data.empty() ? 0 : rng.NextBounded(data.size());
        const size_t end =
            begin + (data.size() > begin
                         ? rng.NextBounded(data.size() - begin + 1)
                         : 0);

        std::vector<uint32_t> want(num_queries, 0);
        uint64_t want_pairs = 0;
        for (size_t i = 0; i < num_queries; ++i) {
          want[i] = 100 + static_cast<uint32_t>(i) +
                    static_cast<uint32_t>(scalar.count_within_radius(
                        soa, begin, end, queries.data() + i * dims, sq_radius,
                        kSoaInvalidId, -1, &want_pairs));
        }
        for (const KernelOps* ops : impls) {
          SCOPED_TRACE(std::string("impl=") + ops->name);
          std::vector<uint32_t> counts(num_queries);
          for (size_t i = 0; i < num_queries; ++i) {
            counts[i] = 100 + static_cast<uint32_t>(i);  // pre-seeded
          }
          uint64_t pairs = 0;
          ops->count_block_within_radius(soa, begin, end, queries.data(),
                                         num_queries, sq_radius, counts.data(),
                                         &pairs);
          EXPECT_EQ(counts, want) << "dims=" << dims << " n=" << n;
          EXPECT_EQ(pairs, want_pairs);
        }
      }
    }
  }
}

TEST(DistanceKernelsTest, TieAtExactlyRadiusIsANeighbor) {
  // 1-d points at distance exactly r: d² == r² must count in every impl.
  SoABlock soa(1);
  for (uint32_t i = 0; i < kSoaWidth + 3; ++i) {
    const double coord = 3.0 + static_cast<double>(i);  // q at 0, r = 3+i
    soa.Append(&coord, i);
  }
  const double q = 0.0;
  for (const KernelOps* ops : AvailableImpls()) {
    SCOPED_TRACE(std::string("impl=") + ops->name);
    // r = 3: exactly one point at distance exactly 3, none closer.
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), &q, 9.0,
                                       kSoaInvalidId, -1, nullptr),
              1);
    std::vector<uint32_t> mask;
    ops->range_mask(soa, &q, 9.0, kSoaInvalidId, &mask, nullptr);
    EXPECT_EQ(mask, (std::vector<uint32_t>{0}));
    EXPECT_EQ(ops->min_squared_distance(soa, &q, nullptr), 9.0);
  }
}

TEST(DistanceKernelsTest, NaNCoordinatesAreExcludedEverywhere) {
  SoABlock soa(2);
  const double good[] = {1.0, 0.0};
  const double nan_point[] = {kNaN, 0.0};
  const double inf_point[] = {kInf, 0.0};
  soa.Append(good, 0);
  soa.Append(nan_point, 1);
  soa.Append(inf_point, 2);
  const double q[] = {0.0, 0.0};
  for (const KernelOps* ops : AvailableImpls()) {
    SCOPED_TRACE(std::string("impl=") + ops->name);
    // Huge radius: the NaN point still never matches; the +inf point's
    // distance is +inf, beyond any finite radius.
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), q, 1e300,
                                       kSoaInvalidId, -1, nullptr),
              1);
    std::vector<uint32_t> mask;
    ops->range_mask(soa, q, 1e300, kSoaInvalidId, &mask, nullptr);
    EXPECT_EQ(mask, (std::vector<uint32_t>{0}));
    EXPECT_EQ(ops->min_squared_distance(soa, q, nullptr), 1.0);
    double dists[3];
    ops->squared_distances(soa, q, dists, nullptr);
    EXPECT_EQ(dists[0], 1.0);
    EXPECT_TRUE(std::isnan(dists[1]));
    EXPECT_EQ(dists[2], kInf);
  }
}

TEST(DistanceKernelsTest, NonFiniteQueryAgainstPadSlots) {
  // A +inf query coordinate turns pad-slot distances into NaN; no impl may
  // count or report a pad slot regardless.
  SoABlock soa(1);
  const double c = 1.0;
  soa.Append(&c, 0);  // one real slot, kSoaWidth-1 pads
  const double q = kInf;
  for (const KernelOps* ops : AvailableImpls()) {
    SCOPED_TRACE(std::string("impl=") + ops->name);
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), &q, 1e300,
                                       kSoaInvalidId, -1, nullptr),
              0);
    std::vector<uint32_t> mask;
    ops->range_mask(soa, &q, 1e300, kSoaInvalidId, &mask, nullptr);
    EXPECT_TRUE(mask.empty());
    EXPECT_EQ(ops->min_squared_distance(soa, &q, nullptr), kInf);
  }
}

TEST(DistanceKernelsTest, DispatchAndParsing) {
  EXPECT_STREQ(GetKernelOps(KernelMode::kScalar).name, "scalar");
  const KernelOps& auto_ops = GetKernelOps(KernelMode::kAuto);
  if (Avx2KernelsAvailable()) {
    EXPECT_STREQ(auto_ops.name, "avx2");
  } else {
    EXPECT_STREQ(auto_ops.name, "blocked");
  }
  KernelMode mode;
  EXPECT_TRUE(ParseKernelMode("scalar", &mode));
  EXPECT_EQ(mode, KernelMode::kScalar);
  EXPECT_TRUE(ParseKernelMode("auto", &mode));
  EXPECT_EQ(mode, KernelMode::kAuto);
  EXPECT_FALSE(ParseKernelMode("sse9", &mode));
  EXPECT_EQ(GetKernelOpsByName("nope"), nullptr);
}

// ---- detector-level equivalence ----------------------------------------

std::vector<uint32_t> Detect(const Detector& detector, const Dataset& data,
                             size_t num_core, DetectionParams params,
                             KernelMode mode) {
  params.kernels = mode;
  return detector.DetectOutliers(data, num_core, params, nullptr);
}

TEST(KernelEquivalenceTest, DetectorsMatchScalarAcrossDims) {
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (size_t base_n : {0ul, 1ul, 7ul, 9ul, 120ul}) {
      const Dataset data = RandomDataset(dims, base_n, 5000u * dims + base_n);
      DetectionParams params;
      params.radius = 1.5;
      params.min_neighbors = 3;
      params.seed = 11 * dims;
      // All-core, core/support split, and all-support datasets.
      for (size_t num_core :
           {data.size(), data.size() * 3 / 4, size_t{0}}) {
        NestedLoopDetector nested;
        BruteForceDetector brute;
        const std::vector<uint32_t> want =
            Detect(brute, data, num_core, params, KernelMode::kScalar);
        EXPECT_EQ(Detect(brute, data, num_core, params, KernelMode::kAuto),
                  want);
        for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
          SCOPED_TRACE(KernelModeName(mode));
          EXPECT_EQ(Detect(nested, data, num_core, params, mode), want)
              << "nested dims=" << dims << " n=" << data.size();
        }
        // The cell-based grid enumerates (2·ring+1)^d cells per verdict;
        // keep its sweep to the dimensions where that stays tractable.
        if (dims <= 3) {
          CellBasedDetector cell;
          for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
            SCOPED_TRACE(KernelModeName(mode));
            EXPECT_EQ(Detect(cell, data, num_core, params, mode), want)
                << "cell dims=" << dims << " n=" << data.size();
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, ExtensionsMatchScalar) {
  const Dataset data = GenerateTigerLike(2500, 17);

  DbscanParams dbscan;
  dbscan.eps = 4.0;
  dbscan.min_pts = 4;
  dbscan.kernels = KernelMode::kScalar;
  const std::vector<int32_t> want_labels = DbscanLabels(data, dbscan);
  dbscan.kernels = KernelMode::kAuto;
  EXPECT_EQ(DbscanLabels(data, dbscan), want_labels);

  KnnOutlierParams knn;
  knn.k = 5;
  knn.top_n = 25;
  knn.kernels = KernelMode::kScalar;
  const std::vector<KnnOutlier> want_scores = TopNKnnOutliers(data, knn);
  knn.kernels = KernelMode::kAuto;
  const std::vector<KnnOutlier> got_scores = TopNKnnOutliers(data, knn);
  ASSERT_EQ(got_scores.size(), want_scores.size());
  for (size_t i = 0; i < want_scores.size(); ++i) {
    EXPECT_EQ(got_scores[i].id, want_scores[i].id);
    EXPECT_EQ(got_scores[i].k_distance, want_scores[i].k_distance);
  }

  EXPECT_EQ(KDistance(data, 3, 4, KernelMode::kScalar),
            KDistance(data, 3, 4, KernelMode::kAuto));
}

// ---- pipeline-level determinism ----------------------------------------

TEST(KernelEquivalenceTest, PipelineOutliersIdenticalAcrossModesAndThreads) {
  const Dataset data = GenerateTigerLike(4000, 99);
  DetectionParams params;
  params.radius = 5.0;
  params.min_neighbors = 4;

  std::vector<PointId> want;
  bool first = true;
  for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
    for (int threads : {1, 8}) {
      DodConfig config = DodConfig::Dmt(params);
      config.params.kernels = mode;
      config.num_threads = threads;
      DodPipeline pipeline(config);
      const Result<DodResult> run = pipeline.Run(data);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      if (first) {
        want = run.value().outliers;
        EXPECT_FALSE(want.empty());
        first = false;
      } else {
        EXPECT_EQ(run.value().outliers, want)
            << "kernels=" << KernelModeName(mode) << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace dod
