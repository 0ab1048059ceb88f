// Copyright 2026 The DOD Authors.
//
// Property / metamorphic tests of the outlier definition (Def. 2.2) and
// its implementations. Each invariant runs over >= 160 seeded random
// cases, across the centralized detectors (Nested-Loop, Cell-Based) under
// both --kernels=scalar and auto, and — for the distributed
// agreement property — across the pipeline strategies against the
// brute-force oracle.
//
// Datasets use integer coordinates so that translation by an integer
// vector is exact in floating point: distances, and therefore verdicts,
// are bit-identical before and after the move.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/dataset.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "detection/cell_based.h"
#include "detection/detector.h"
#include "detection/nested_loop.h"

namespace dod {
namespace {

constexpr uint64_t kBaseSeed = 0xD0D5EEDULL;
constexpr KernelMode kKernelModes[] = {KernelMode::kScalar,
                                       KernelMode::kAuto};

// A clustered dataset with integer coordinates: a few dense blobs (mostly
// inliers) plus a handful of far-away isolated points (mostly outliers).
Dataset MakeClusteredIntDataset(uint64_t seed, int dims) {
  Rng rng(seed);
  Dataset data(dims);
  double p[kMaxDimensions];
  const int num_clusters = 2 + static_cast<int>(rng.NextBounded(3));
  for (int c = 0; c < num_clusters; ++c) {
    double center[kMaxDimensions];
    for (int d = 0; d < dims; ++d) {
      center[d] =
          static_cast<double>(static_cast<int64_t>(rng.NextBounded(201)) -
                              100);
    }
    const size_t cluster_points = 25 + rng.NextBounded(40);
    for (size_t i = 0; i < cluster_points; ++i) {
      for (int d = 0; d < dims; ++d) {
        p[d] = center[d] +
               static_cast<double>(static_cast<int64_t>(rng.NextBounded(17)) -
                                   8);
      }
      data.Append(p);
    }
  }
  const size_t isolated = 1 + rng.NextBounded(6);
  for (size_t i = 0; i < isolated; ++i) {
    for (int d = 0; d < dims; ++d) {
      p[d] = static_cast<double>(static_cast<int64_t>(rng.NextBounded(4001)) -
                                 2000);
    }
    data.Append(p);
  }
  return data;
}

DetectionParams MakeParams(uint64_t seed, KernelMode mode) {
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  DetectionParams params;
  params.radius = static_cast<double>(4 + rng.NextBounded(20));
  params.min_neighbors = static_cast<int>(1 + rng.NextBounded(6));
  params.seed = seed;
  params.kernels = mode;
  return params;
}

struct NamedDetector {
  const char* name;
  std::unique_ptr<Detector> detector;
};

std::vector<NamedDetector> AllDetectors() {
  std::vector<NamedDetector> detectors;
  detectors.push_back({"NestedLoop", MakeDetector(AlgorithmKind::kNestedLoop)});
  detectors.push_back({"CellBased", MakeDetector(AlgorithmKind::kCellBased)});
  return detectors;
}

std::vector<uint32_t> Detect(const Detector& detector, const Dataset& data,
                             const DetectionParams& params) {
  return detector.DetectOutliers(data, data.size(), params);
}

// --- Invariant 1: permutation + integer translation invariance ----------
//
// Outlierness depends only on pairwise distances, so (a) relabeling the
// points and (b) translating everything by an integer vector (exact in
// FP) must both preserve the outlier *set*. 40 seeds x 2 detectors x
// 2 kernel modes = 160 cases.
TEST(PropertyTest, PermutationAndTranslationInvariance) {
  const auto detectors = AllDetectors();
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const int dims = 1 + static_cast<int>(seed % 3);
    const Dataset data = MakeClusteredIntDataset(kBaseSeed + seed, dims);

    // One permutation and one integer translation per seed.
    Rng rng(kBaseSeed * 31 + seed);
    std::vector<uint32_t> perm(data.size());
    for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
    Shuffle(perm, rng);
    double shift[kMaxDimensions];
    for (int d = 0; d < dims; ++d) {
      shift[d] = static_cast<double>(
          static_cast<int64_t>(rng.NextBounded(20001)) - 10000);
    }

    Dataset permuted(dims);
    double p[kMaxDimensions];
    for (uint32_t i = 0; i < data.size(); ++i) permuted.Append(data[perm[i]]);
    Dataset translated(dims);
    for (uint32_t i = 0; i < data.size(); ++i) {
      for (int d = 0; d < dims; ++d) p[d] = data[i][d] + shift[d];
      translated.Append(p);
    }

    for (KernelMode mode : kKernelModes) {
      const DetectionParams params = MakeParams(seed, mode);
      for (const NamedDetector& entry : detectors) {
        const std::vector<uint32_t> base = Detect(*entry.detector, data,
                                                  params);
        std::vector<uint32_t> via_perm;
        for (uint32_t local : Detect(*entry.detector, permuted, params)) {
          via_perm.push_back(perm[local]);
        }
        std::sort(via_perm.begin(), via_perm.end());
        EXPECT_EQ(base, via_perm)
            << entry.name << " seed=" << seed << ": outlier set changed "
            << "under permutation";
        EXPECT_EQ(base, Detect(*entry.detector, translated, params))
            << entry.name << " seed=" << seed << ": outlier set changed "
            << "under integer translation";
      }
    }
  }
}

// --- Invariant 2: monotonicity in r and k -------------------------------
//
// Growing the radius only adds neighbors, shrinking k only relaxes the
// outlier test: neither may produce a NEW outlier. 40 x 2 x 2 = 160 cases.
TEST(PropertyTest, MonotoneInRadiusAndNeighborThreshold) {
  const auto detectors = AllDetectors();
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const int dims = 1 + static_cast<int>(seed % 3);
    const Dataset data = MakeClusteredIntDataset(kBaseSeed * 7 + seed, dims);
    for (KernelMode mode : kKernelModes) {
      const DetectionParams params = MakeParams(seed * 3 + 1, mode);
      for (const NamedDetector& entry : detectors) {
        const std::vector<uint32_t> base = Detect(*entry.detector, data,
                                                  params);

        DetectionParams grown = params;
        grown.radius = params.radius + 3.0;
        const std::vector<uint32_t> fewer_by_r =
            Detect(*entry.detector, data, grown);
        EXPECT_TRUE(std::includes(base.begin(), base.end(),
                                  fewer_by_r.begin(), fewer_by_r.end()))
            << entry.name << " seed=" << seed
            << ": growing r added an outlier";

        if (params.min_neighbors > 1) {
          DetectionParams relaxed = params;
          relaxed.min_neighbors = params.min_neighbors - 1;
          const std::vector<uint32_t> fewer_by_k =
              Detect(*entry.detector, data, relaxed);
          EXPECT_TRUE(std::includes(base.begin(), base.end(),
                                    fewer_by_k.begin(), fewer_by_k.end()))
              << entry.name << " seed=" << seed
              << ": shrinking k added an outlier";
        }
      }
    }
  }
}

// --- Invariant 3: duplication makes an inlier ---------------------------
//
// Appending k exact copies of any point gives it (and each copy) at least
// k zero-distance neighbors, so none of them can be an outlier, while
// every point that already was an inlier stays one (neighborhoods only
// grow). 40 x 2 x 2 = 160 cases.
TEST(PropertyTest, DuplicatingAPointMakesItInlier) {
  const auto detectors = AllDetectors();
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const int dims = 1 + static_cast<int>(seed % 3);
    const Dataset data = MakeClusteredIntDataset(kBaseSeed * 13 + seed, dims);
    Rng rng(kBaseSeed * 17 + seed);
    const uint32_t victim =
        static_cast<uint32_t>(rng.NextBounded(data.size()));

    for (KernelMode mode : kKernelModes) {
      const DetectionParams params = MakeParams(seed * 5 + 2, mode);
      for (const NamedDetector& entry : detectors) {
        const std::vector<uint32_t> base = Detect(*entry.detector, data,
                                                  params);

        Dataset augmented(dims);
        augmented.AppendAll(data);
        for (int i = 0; i < params.min_neighbors; ++i) {
          augmented.Append(data[victim]);
        }
        const std::vector<uint32_t> after =
            Detect(*entry.detector, augmented, params);

        // Neither the victim nor any copy may be an outlier...
        for (uint32_t id : after) {
          EXPECT_NE(id, victim)
              << entry.name << " seed=" << seed
              << ": point stayed an outlier despite k duplicates";
          EXPECT_LT(id, data.size())
              << entry.name << " seed=" << seed
              << ": a duplicate was itself reported as outlier";
        }
        // ...and no previously-inlying point may become one.
        EXPECT_TRUE(std::includes(base.begin(), base.end(), after.begin(),
                                  after.end()))
            << entry.name << " seed=" << seed
            << ": adding points created a new outlier";
      }
    }
  }
}

// --- Invariant 4: distributed == centralized (Lemma 3.1) ----------------
//
// Every partitioning strategy must reproduce the brute-force centralized
// verdict exactly. 25 seeds x 4 strategies x 2 kernel modes = 200 cases,
// alternating the thread count between the sequential and parallel
// runtime paths.
TEST(PropertyTest, PipelineAgreesWithCentralizedOracle) {
  struct StrategyCase {
    StrategyKind strategy;
    AlgorithmKind algorithm;
  };
  const StrategyCase cases[] = {
      {StrategyKind::kDomain, AlgorithmKind::kNestedLoop},
      {StrategyKind::kUniSpace, AlgorithmKind::kNestedLoop},
      {StrategyKind::kUniSpace, AlgorithmKind::kCellBased},
      {StrategyKind::kDmt, AlgorithmKind::kCellBased},
  };

  for (uint64_t seed = 0; seed < 25; ++seed) {
    const Dataset data = MakeClusteredIntDataset(kBaseSeed * 19 + seed, 2);
    for (KernelMode mode : kKernelModes) {
      DetectionParams params = MakeParams(seed * 7 + 3, mode);
      const std::vector<PointId> oracle =
          DetectOutliersCentralized(data, AlgorithmKind::kBruteForce, params);

      for (const StrategyCase& c : cases) {
        DodConfig config =
            c.strategy == StrategyKind::kDmt
                ? DodConfig::Dmt(params)
                : DodConfig::Baseline(params, c.strategy, c.algorithm);
        config.sampler.rate = 0.4;
        config.num_blocks = 4;
        config.num_reduce_tasks = 4;
        config.num_threads = (seed % 2 == 0) ? 1 : 4;
        config.seed = kBaseSeed + seed;

        std::vector<PointId> outliers =
            DodPipeline(config).RunOrDie(data).outliers;
        std::sort(outliers.begin(), outliers.end());
        EXPECT_EQ(oracle, outliers)
            << config.Label() << " seed=" << seed << " threads="
            << config.num_threads << ": disagrees with brute-force oracle";
      }
    }
  }
}

}  // namespace
}  // namespace dod
