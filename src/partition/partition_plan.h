// Copyright 2026 The DOD Authors.
//
// Partition plans (Sec. III-C): a set of m pairwise-disjoint grid cells
// whose union covers the domain space (Def. 3.1), each augmented with an
// r-extension supporting area (Def. 3.3). The plan is the map-side input of
// the DOD framework: every point is routed to exactly one core cell and to
// zero or more cells whose supporting area contains it.

#ifndef DOD_PARTITION_PARTITION_PLAN_H_
#define DOD_PARTITION_PARTITION_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bounds.h"
#include "common/dataset.h"
#include "common/status.h"

namespace dod {

// One partition of the domain space (Def. 3.1). Cells use half-open
// membership [lo, hi) per dimension, closed on the domain's upper boundary,
// so every domain point has exactly one core cell.
struct GridCell {
  uint32_t id = 0;
  Rect bounds;
};

class PartitionPlan {
 public:
  PartitionPlan() = default;

  // `radius` is the outlier distance threshold r used to derive supporting
  // areas. Cell ids are (re)assigned to their index order.
  PartitionPlan(Rect domain, double radius, std::vector<Rect> cell_bounds);

  int dims() const { return domain_.dims(); }
  double radius() const { return radius_; }
  const Rect& domain() const { return domain_; }

  size_t num_cells() const { return cells_.size(); }
  const std::vector<GridCell>& cells() const { return cells_; }
  const GridCell& cell(uint32_t id) const { return cells_[id]; }

  // The r-extension of cell `id` (Def. 3.3), support region including the
  // cell itself. A point p is a *support point* of the cell iff p lies in
  // this rect (closed) but is not a core point of the cell.
  Rect SupportBounds(uint32_t id) const {
    return cells_[id].bounds.Expanded(radius_);
  }

  // True iff `p` is a core point of cell `id`: inside [lo, hi) in every
  // dimension, where a cell face lying on the domain's upper boundary is
  // treated as closed.
  bool ContainsCore(uint32_t id, const double* p) const;

  // Checks the Def. 3.1 structural invariants: at least one cell, pairwise
  // disjoint interiors, and union covering the domain (area check).
  Status Validate() const;

  std::string ToString() const;

 private:
  Rect domain_;
  double radius_ = 0.0;
  std::vector<GridCell> cells_;
};

// Maps points to cells ("the AF tree can be leveraged as an index to
// accelerate the process of mapping data points into partitions" — we use
// an equivalent flat spatial index that works for every plan shape).
//
// The index is a uniform bin grid over the plan's domain with two CSR
// tables (an offsets array plus an ids array): per bin, the cells whose core
// box meets it, and the cells whose r-extension meets it minus those whose
// core box strictly encloses it (a point there is a core point of that
// cell, never a support point). Each cell registers in bins
// floor((lo - domain.lo) * scale) .. floor((hi - domain.lo) * scale); a
// point's bin comes from the same monotone floor, so no cell containing the
// point is ever missed, and the exact box tests run against flat copies of
// the cell bounds. Ids in every bin ascend, so support cells come out in
// ascending id order.
//
// Resolution comes from the plan, with no knob: start from the finest grid
// of at most 2^16 bins that has the same power of two along every dimension
// with extent (one bin along a dimension of zero extent); while the index
// exceeds 1 MiB, halve the dimension whose halving shrinks it most.
class PartitionRouter {
 public:
  // Copies what it needs; the plan need not outlive the router.
  explicit PartitionRouter(const PartitionPlan& plan);

  // Core cell of `p`; also appends to `support` the ids of every cell for
  // which `p` is a support point, as RouteSupport does. One bin lookup
  // serves both. Aborts if the plan does not cover `p` (Validate() guards
  // against this).
  uint32_t Route(const double* p, std::vector<uint32_t>* support) const;

  // Core cell of `p`. Aborts if the plan does not cover `p`.
  uint32_t RouteCore(const double* p) const;

  // Appends the ids of every cell for which `p` is a support point
  // (Def. 3.2 realized via the Def. 3.3 superset): p inside the cell's
  // r-extension but not a core point of the cell.
  void RouteSupport(const double* p, std::vector<uint32_t>* out) const;

  // Heap bytes held by the flat bounds and both CSR tables.
  size_t index_bytes() const;

 private:
  static constexpr uint32_t kNoCell = ~uint32_t{0};

  int BinCoord(int d, double x) const;
  size_t BinOf(const double* p) const;
  void SetScales(const Rect& domain);
  size_t CountIndexBytes() const;
  // Calls fn(bin) for every bin cell `id` registers in: of its core box,
  // or of its r-extension minus the bins its core box strictly encloses.
  template <typename Fn>
  void ForEachBin(uint32_t id, bool support, Fn&& fn) const;

  bool IsCore(uint32_t id, const double* p) const;
  bool InSupport(uint32_t id, const double* p) const;
  uint32_t FindCore(size_t bin, const double* p) const;
  void CollectSupport(size_t bin, const double* p, uint32_t core,
                      std::vector<uint32_t>* out) const;

  int dims_ = 0;
  uint32_t num_cells_ = 0;
  double origin_[kMaxDimensions] = {};
  double scale_[kMaxDimensions] = {};
  int bins_[kMaxDimensions] = {};
  size_t num_bins_ = 1;
  // Per cell, four doubles per dimension: core lo, core hi, support lo,
  // support hi.
  std::vector<double> bounds_;
  // Per cell, bit d set when the core face hi(d) lies on the domain's upper
  // boundary and is therefore closed.
  std::vector<uint8_t> closed_hi_;
  std::vector<uint32_t> core_offsets_;
  std::vector<uint32_t> core_ids_;
  std::vector<uint32_t> support_offsets_;
  std::vector<uint32_t> support_ids_;
};

}  // namespace dod

#endif  // DOD_PARTITION_PARTITION_PLAN_H_
