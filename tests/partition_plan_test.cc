// Copyright 2026 The DOD Authors.
//
// PartitionPlan structural invariants (Def. 3.1), supporting areas
// (Def. 3.3), and the router (core + support point mapping of Fig. 3).

#include "partition/partition_plan.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/distance.h"
#include "core/plan.h"
#include "data/generators.h"
#include "data/geo_like.h"
#include "partition/sampler.h"
#include "partition/strategies.h"

namespace dod {
namespace {

constexpr uint32_t kNoCore = std::numeric_limits<uint32_t>::max();

PartitionPlan TwoByTwoPlan(double radius = 1.0) {
  const Rect domain = Rect::Cube(2, 0.0, 10.0);
  return PartitionPlan(domain, radius, EquiWidthCells(domain, 4));
}

TEST(PartitionPlanTest, ValidPlanPassesValidation) {
  const PartitionPlan plan = TwoByTwoPlan();
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_EQ(plan.num_cells(), 4u);
}

TEST(PartitionPlanTest, OverlappingCellsFailValidation) {
  const Rect domain = Rect::Cube(2, 0.0, 10.0);
  std::vector<Rect> cells = {Rect(Point{0.0, 0.0}, Point{6.0, 10.0}),
                             Rect(Point{5.0, 0.0}, Point{10.0, 10.0})};
  const PartitionPlan plan(domain, 1.0, cells);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PartitionPlanTest, GapsFailValidation) {
  const Rect domain = Rect::Cube(2, 0.0, 10.0);
  std::vector<Rect> cells = {Rect(Point{0.0, 0.0}, Point{4.0, 10.0}),
                             Rect(Point{5.0, 0.0}, Point{10.0, 10.0})};
  const PartitionPlan plan(domain, 1.0, cells);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PartitionPlanTest, CellOutsideDomainFailsValidation) {
  const Rect domain = Rect::Cube(2, 0.0, 10.0);
  std::vector<Rect> cells = {Rect(Point{0.0, 0.0}, Point{12.0, 10.0})};
  const PartitionPlan plan(domain, 1.0, cells);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PartitionPlanTest, SupportBoundsAreRExtension) {
  const PartitionPlan plan = TwoByTwoPlan(1.5);
  const Rect support = plan.SupportBounds(0);
  const Rect& cell = plan.cell(0).bounds;
  for (int d = 0; d < 2; ++d) {
    EXPECT_DOUBLE_EQ(support.lo(d), cell.lo(d) - 1.5);
    EXPECT_DOUBLE_EQ(support.hi(d), cell.hi(d) + 1.5);
  }
}

TEST(PartitionPlanTest, ContainsCoreIsHalfOpenInside) {
  const PartitionPlan plan = TwoByTwoPlan();
  // The internal boundary x=5 belongs to the right cells only.
  const double on_split[2] = {5.0, 2.0};
  int owners = 0;
  for (uint32_t id = 0; id < plan.num_cells(); ++id) {
    if (plan.ContainsCore(id, on_split)) ++owners;
  }
  EXPECT_EQ(owners, 1);
}

TEST(PartitionPlanTest, DomainUpperBoundaryIsOwned) {
  const PartitionPlan plan = TwoByTwoPlan();
  const double corner[2] = {10.0, 10.0};
  int owners = 0;
  for (uint32_t id = 0; id < plan.num_cells(); ++id) {
    if (plan.ContainsCore(id, corner)) ++owners;
  }
  EXPECT_EQ(owners, 1);
}

TEST(PartitionRouterTest, RouteCoreAgreesWithContainsCore) {
  const PartitionPlan plan = TwoByTwoPlan();
  const PartitionRouter router(plan);
  const Dataset data = GenerateUniform(2000, plan.domain(), 17);
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data[static_cast<PointId>(i)];
    const uint32_t cell = router.RouteCore(p);
    EXPECT_TRUE(plan.ContainsCore(cell, p));
  }
}

TEST(PartitionRouterTest, EveryPointHasExactlyOneCoreCell) {
  const Rect domain = Rect::Cube(2, 0.0, 100.0);
  const PartitionPlan plan(domain, 2.0, EquiWidthCells(domain, 25));
  const Dataset data = GenerateUniform(3000, domain, 19);
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data[static_cast<PointId>(i)];
    int owners = 0;
    for (uint32_t id = 0; id < plan.num_cells(); ++id) {
      if (plan.ContainsCore(id, p)) ++owners;
    }
    EXPECT_EQ(owners, 1);
  }
}

TEST(PartitionRouterTest, RouteSupportMatchesDefinition) {
  // Def. 3.3 ground truth: p is a support point of cell C iff p lies in the
  // r-extension of C but is not a core point of C.
  const Rect domain = Rect::Cube(2, 0.0, 50.0);
  const PartitionPlan plan(domain, 3.0, EquiWidthCells(domain, 16));
  const PartitionRouter router(plan);
  const Dataset data = GenerateUniform(1500, domain, 23);
  std::vector<uint32_t> routed;
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data[static_cast<PointId>(i)];
    routed.clear();
    router.RouteSupport(p, &routed);
    const std::set<uint32_t> got(routed.begin(), routed.end());
    EXPECT_EQ(got.size(), routed.size()) << "duplicate support cells";
    for (uint32_t id = 0; id < plan.num_cells(); ++id) {
      const bool expected =
          plan.SupportBounds(id).Contains(p) && !plan.ContainsCore(id, p);
      EXPECT_EQ(got.contains(id), expected)
          << "point " << i << " cell " << id;
    }
  }
}

TEST(PartitionRouterTest, SupportCoversAllForeignNeighbors) {
  // Lemma 3.1 sufficiency at the plan level: if q is within r of p, then q
  // is either in p's core cell or a support point of it.
  const Rect domain = Rect::Cube(2, 0.0, 40.0);
  const double radius = 2.5;
  const PartitionPlan plan(domain, radius, EquiWidthCells(domain, 9));
  const PartitionRouter router(plan);
  const Dataset data = GenerateUniform(800, domain, 29);
  std::vector<uint32_t> support;
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data[static_cast<PointId>(i)];
    const uint32_t home = router.RouteCore(p);
    for (size_t j = 0; j < data.size(); ++j) {
      if (i == j) continue;
      const double* q = data[static_cast<PointId>(j)];
      if (!WithinDistance(p, q, 2, radius)) continue;
      if (plan.ContainsCore(home, q)) continue;
      support.clear();
      router.RouteSupport(q, &support);
      EXPECT_NE(std::find(support.begin(), support.end(), home),
                support.end())
          << "neighbor " << j << " of point " << i
          << " not replicated into cell " << home;
    }
  }
}

TEST(PartitionRouterTest, WorksWithManyIrregularCells) {
  // A 1×N strip plan: thin cells stress the router's bin index.
  const Rect domain = Rect::Cube(2, 0.0, 100.0);
  std::vector<Rect> cells;
  const int strips = 50;
  for (int s = 0; s < strips; ++s) {
    cells.push_back(Rect(Point{s * 2.0, 0.0}, Point{(s + 1) * 2.0, 100.0}));
  }
  const PartitionPlan plan(domain, 1.0, cells);
  ASSERT_TRUE(plan.Validate().ok());
  const PartitionRouter router(plan);
  const Dataset data = GenerateUniform(1000, domain, 31);
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data[static_cast<PointId>(i)];
    const uint32_t cell = router.RouteCore(p);
    EXPECT_TRUE(plan.ContainsCore(cell, p));
  }
}

// Brute-force Defs. 3.1-3.3 over every cell in id order: the lowest-id
// cell with p as a core point (kNoCore if none), and the ascending ids of
// the cells with p as a support point.
uint32_t DefinitionCore(const PartitionPlan& plan, const double* p) {
  for (uint32_t id = 0; id < plan.num_cells(); ++id) {
    if (plan.ContainsCore(id, p)) return id;
  }
  return kNoCore;
}

std::vector<uint32_t> DefinitionSupport(const PartitionPlan& plan,
                                        const double* p) {
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < plan.num_cells(); ++id) {
    if (plan.SupportBounds(id).Contains(p) && !plan.ContainsCore(id, p)) {
      ids.push_back(id);
    }
  }
  return ids;
}

// Every router entry point must agree with the definition, support ids in
// order. Route/RouteCore are only asked about points with a core cell.
void ExpectRoutesMatchDefinition(const PartitionPlan& plan,
                                 const PartitionRouter& router,
                                 const double* p) {
  const std::vector<uint32_t> support = DefinitionSupport(plan, p);
  std::vector<uint32_t> routed;
  router.RouteSupport(p, &routed);
  EXPECT_EQ(routed, support) << Point(p, plan.dims()).ToString();
  const uint32_t core = DefinitionCore(plan, p);
  if (core == kNoCore) return;
  EXPECT_EQ(router.RouteCore(p), core) << Point(p, plan.dims()).ToString();
  routed.assign(1, 7777);  // Route appends, like RouteSupport
  EXPECT_EQ(router.Route(p, &routed), core);
  routed.erase(routed.begin());
  EXPECT_EQ(routed, support) << Point(p, plan.dims()).ToString();
}

// Points on every face of every cell and of its r-extension: the corners of
// each box, plus the box center with one coordinate moved onto a face. On
// an interior face a point belongs to the upper cell; on the domain's
// upper boundary to the cell below it.
std::vector<Point> FacePoints(const PartitionPlan& plan) {
  std::vector<Point> points;
  const int dims = plan.dims();
  for (uint32_t id = 0; id < plan.num_cells(); ++id) {
    for (const Rect& box : {plan.cell(id).bounds, plan.SupportBounds(id)}) {
      const Point center = box.Center();
      for (int d = 0; d < dims; ++d) {
        for (double face : {box.lo(d), box.hi(d)}) {
          Point p = center;
          p[d] = face;
          points.push_back(p);
        }
      }
      if (dims > 3) continue;  // 2^d corners per box stays small below 4-d
      for (int mask = 0; mask < (1 << dims); ++mask) {
        Point p(dims);
        for (int d = 0; d < dims; ++d) {
          p[d] = (mask >> d) & 1 ? box.hi(d) : box.lo(d);
        }
        points.push_back(p);
      }
    }
  }
  return points;
}

MultiTacticPlan NewYorkDmtPlan() {
  const Dataset data = GenerateGeoRegion(GeoRegion::kNewYork, 50000, 41);
  SamplerOptions options;
  options.rate = 0.2;
  options.buckets_per_dim = 64;
  const DistributionSketch sketch = BuildSketch(data, data.Bounds(), options);
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  config.target_partitions = 64;
  config.num_reduce_tasks = 8;
  return BuildMultiTacticPlan(sketch, config);
}

TEST(PartitionRouterTest, SkewedDmtPlanMatchesDefinition) {
  const MultiTacticPlan dmt = NewYorkDmtPlan();
  const PartitionPlan& plan = dmt.partition_plan;
  ASSERT_TRUE(plan.Validate().ok());
  ASSERT_GT(plan.num_cells(), 16u);
  const PartitionRouter router(plan);
  EXPECT_LE(router.index_bytes(), size_t{1} << 20);
  const Dataset data = GenerateGeoRegion(GeoRegion::kNewYork, 50000, 41);
  size_t support_points = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data[static_cast<PointId>(i)];
    ExpectRoutesMatchDefinition(plan, router, p);
    support_points += !DefinitionSupport(plan, p).empty();
    if (HasFailure()) break;
  }
  EXPECT_GT(support_points, 0u);  // the plan's borders are exercised
}

TEST(PartitionRouterTest, FacePointsMatchDefinition) {
  const MultiTacticPlan dmt = NewYorkDmtPlan();
  for (const PartitionPlan& plan :
       {dmt.partition_plan, TwoByTwoPlan(2.5),
        PartitionPlan(Rect::Cube(3, -4.0, 4.0), 0.5,
                      EquiWidthCells(Rect::Cube(3, -4.0, 4.0), 27))}) {
    const PartitionRouter router(plan);
    for (const Point& p : FacePoints(plan)) {
      ExpectRoutesMatchDefinition(plan, router, p.data());
      if (HasFailure()) return;
    }
  }
}

TEST(PartitionRouterTest, DomainUpperBoundaryRoutesToLastCell) {
  const PartitionPlan plan = TwoByTwoPlan();
  const PartitionRouter router(plan);
  const double corner[2] = {10.0, 10.0};
  std::vector<uint32_t> support;
  EXPECT_EQ(router.Route(corner, &support), 3u);
  EXPECT_TRUE(support.empty());
  const double interior_face[2] = {5.0, 10.0};
  EXPECT_EQ(router.Route(interior_face, &support), 3u);
  EXPECT_EQ(support, std::vector<uint32_t>{1});
}

TEST(PartitionRouterTest, ZeroExtentDimensionMatchesDefinition) {
  // The middle dimension has no extent (the router keeps one bin there).
  // Hand-built x/z grid cells, and equi-width cells, which repeat every box
  // along the flat dimension (the lowest id owns the shared core points).
  const Rect domain(Point{0.0, 5.0, -30.0}, Point{100.0, 5.0, 30.0});
  std::vector<Rect> grid;
  for (int x = 0; x < 5; ++x) {
    for (int z = 0; z < 4; ++z) {
      grid.push_back(Rect(Point{x * 20.0, 5.0, -30.0 + z * 15.0},
                          Point{(x + 1) * 20.0, 5.0, -15.0 + z * 15.0}));
    }
  }
  const Dataset data = GenerateUniform(3000, domain, 43);
  for (const PartitionPlan& plan :
       {PartitionPlan(domain, 3.0, grid),
        PartitionPlan(domain, 3.0, EquiWidthCells(domain, 27))}) {
    ASSERT_TRUE(plan.Validate().ok());
    const PartitionRouter router(plan);
    for (size_t i = 0; i < data.size(); ++i) {
      ExpectRoutesMatchDefinition(plan, router,
                                  data[static_cast<PointId>(i)]);
    }
    for (const Point& p : FacePoints(plan)) {
      ExpectRoutesMatchDefinition(plan, router, p.data());
    }
    if (HasFailure()) return;
  }
}

TEST(PartitionRouterTest, EightDimensionalPlanMatchesDefinition) {
  const Rect domain = Rect::Cube(8, 0.0, 10.0);
  const PartitionPlan plan(domain, 1.5, EquiWidthCells(domain, 256));
  ASSERT_EQ(plan.num_cells(), 256u);
  const PartitionRouter router(plan);
  EXPECT_LE(router.index_bytes(), size_t{1} << 20);
  const Dataset data = GenerateUniform(3000, domain, 47);
  for (size_t i = 0; i < data.size(); ++i) {
    ExpectRoutesMatchDefinition(plan, router, data[static_cast<PointId>(i)]);
    if (HasFailure()) return;
  }
  for (const Point& p : FacePoints(plan)) {
    ExpectRoutesMatchDefinition(plan, router, p.data());
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace dod
