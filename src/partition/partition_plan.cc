// Copyright 2026 The DOD Authors.

#include "partition/partition_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dod {

PartitionPlan::PartitionPlan(Rect domain, double radius,
                             std::vector<Rect> cell_bounds)
    : domain_(std::move(domain)), radius_(radius) {
  DOD_CHECK(radius_ > 0.0);
  DOD_CHECK(!cell_bounds.empty());
  cells_.reserve(cell_bounds.size());
  for (size_t i = 0; i < cell_bounds.size(); ++i) {
    DOD_CHECK(cell_bounds[i].dims() == domain_.dims());
    cells_.push_back(GridCell{static_cast<uint32_t>(i), cell_bounds[i]});
  }
}

bool PartitionPlan::ContainsCore(uint32_t id, const double* p) const {
  const Rect& cell = cells_[id].bounds;
  for (int d = 0; d < dims(); ++d) {
    if (p[d] < cell.lo(d)) return false;
    if (p[d] >= cell.hi(d)) {
      // A face flush with the domain's upper boundary is closed so points
      // on the boundary still have a core cell.
      if (!(cell.hi(d) >= domain_.hi(d) && p[d] <= cell.hi(d))) return false;
    }
  }
  return true;
}

Status PartitionPlan::Validate() const {
  if (cells_.empty()) {
    return Status::FailedPrecondition("plan has no cells");
  }
  // Pairwise interior disjointness.
  for (size_t i = 0; i < cells_.size(); ++i) {
    for (size_t j = i + 1; j < cells_.size(); ++j) {
      const Rect& a = cells_[i].bounds;
      const Rect& b = cells_[j].bounds;
      bool overlap = true;
      for (int d = 0; d < dims(); ++d) {
        // Interiors overlap only with strict inequalities on both sides.
        if (a.hi(d) <= b.lo(d) + 1e-12 || b.hi(d) <= a.lo(d) + 1e-12) {
          overlap = false;
          break;
        }
      }
      if (overlap) {
        return Status::FailedPrecondition(
            "cells " + std::to_string(i) + " and " + std::to_string(j) +
            " overlap: " + a.ToString() + " vs " + b.ToString());
      }
    }
  }
  // Coverage: cells must lie inside the domain and their areas must add up
  // to the domain area (sufficient together with disjointness).
  double total_area = 0.0;
  for (const GridCell& cell : cells_) {
    if (!domain_.Covers(cell.bounds)) {
      return Status::FailedPrecondition("cell " + std::to_string(cell.id) +
                                        " outside domain: " +
                                        cell.bounds.ToString());
    }
    total_area += cell.bounds.Area();
  }
  const double domain_area = domain_.Area();
  if (domain_area > 0.0 &&
      std::fabs(total_area - domain_area) > 1e-6 * domain_area) {
    return Status::FailedPrecondition(
        "cells cover " + std::to_string(total_area) + " of domain area " +
        std::to_string(domain_area));
  }
  return Status::Ok();
}

std::string PartitionPlan::ToString() const {
  std::string out = "PartitionPlan{domain=" + domain_.ToString() +
                    ", r=" + std::to_string(radius_) +
                    ", cells=" + std::to_string(cells_.size()) + "}";
  return out;
}

namespace {

// The finest router grid holds about this many bins; the index is coarsened
// until it fits the byte budget.
constexpr size_t kRouterMaxBins = size_t{1} << 16;
constexpr size_t kRouterIndexBudget = size_t{1} << 20;

static_assert(kMaxDimensions <= 8, "closed-face flags are one uint8_t");

// Fills a CSR table: `for_each_bin(id, fn)` calls fn(bin) for every bin
// cell `id` registers in. A count pass sizes the ids array; the fill pass
// visits cells in ascending id, so every bin lists its ids ascending.
template <typename ForEachBin>
void BuildCsr(size_t num_bins, uint32_t num_cells,
              const ForEachBin& for_each_bin, std::vector<uint32_t>* offsets,
              std::vector<uint32_t>* ids) {
  offsets->assign(num_bins + 1, 0);
  for (uint32_t id = 0; id < num_cells; ++id) {
    for_each_bin(id, [offsets](size_t bin) { ++(*offsets)[bin + 1]; });
  }
  std::partial_sum(offsets->begin(), offsets->end(), offsets->begin());
  ids->resize(offsets->back());
  std::vector<uint32_t> cursor(offsets->begin(), offsets->end() - 1);
  for (uint32_t id = 0; id < num_cells; ++id) {
    for_each_bin(id, [&](size_t bin) { (*ids)[cursor[bin]++] = id; });
  }
}

}  // namespace

PartitionRouter::PartitionRouter(const PartitionPlan& plan)
    : dims_(plan.dims()),
      num_cells_(static_cast<uint32_t>(plan.num_cells())) {
  const Rect& domain = plan.domain();
  const size_t stride = 4 * static_cast<size_t>(dims_);
  bounds_.resize(num_cells_ * stride);
  closed_hi_.assign(num_cells_, 0);
  for (const GridCell& cell : plan.cells()) {
    const Rect support = plan.SupportBounds(cell.id);
    double* b = &bounds_[cell.id * stride];
    for (int d = 0; d < dims_; ++d) {
      b[4 * d] = cell.bounds.lo(d);
      b[4 * d + 1] = cell.bounds.hi(d);
      b[4 * d + 2] = support.lo(d);
      b[4 * d + 3] = support.hi(d);
      if (cell.bounds.hi(d) >= domain.hi(d)) {
        closed_hi_[cell.id] |= static_cast<uint8_t>(1u << d);
      }
    }
  }

  // Resolution (see the class comment). Halving the dimension that shrinks
  // the index most coarsens the one the cells span the most bins of, which
  // separates them the least.
  int spread_dims = 0;
  for (int d = 0; d < dims_; ++d) spread_dims += domain.Extent(d) > 0.0;
  int per_dim = 1;
  if (spread_dims > 0) {
    while (std::pow(2.0 * per_dim, spread_dims) <=
           static_cast<double>(kRouterMaxBins)) {
      per_dim *= 2;
    }
  }
  for (int d = 0; d < dims_; ++d) {
    origin_[d] = domain.lo(d);
    bins_[d] = domain.Extent(d) > 0.0 ? per_dim : 1;
  }
  SetScales(domain);
  while (CountIndexBytes() > kRouterIndexBudget) {
    int coarsen = -1;
    size_t coarsened_bytes = 0;
    for (int d = 0; d < dims_; ++d) {
      if (bins_[d] == 1) continue;
      bins_[d] /= 2;
      SetScales(domain);
      const size_t bytes = CountIndexBytes();
      bins_[d] *= 2;
      if (coarsen < 0 || bytes < coarsened_bytes) {
        coarsen = d;
        coarsened_bytes = bytes;
      }
    }
    if (coarsen < 0) break;  // a single bin: nothing left to coarsen
    bins_[coarsen] /= 2;
    SetScales(domain);
  }

  BuildCsr(
      num_bins_, num_cells_,
      [this](uint32_t id, auto&& fn) { ForEachBin(id, false, fn); },
      &core_offsets_, &core_ids_);
  BuildCsr(
      num_bins_, num_cells_,
      [this](uint32_t id, auto&& fn) { ForEachBin(id, true, fn); },
      &support_offsets_, &support_ids_);
}

void PartitionRouter::SetScales(const Rect& domain) {
  num_bins_ = 1;
  for (int d = 0; d < dims_; ++d) {
    const double extent = domain.Extent(d);
    scale_[d] = extent > 0.0 ? bins_[d] / extent : 0.0;
    num_bins_ *= static_cast<size_t>(bins_[d]);
  }
}

// clamp(floor((x - origin) * scale), 0, bins - 1), monotone in x. Below 1
// the clamp gives 0 (NaN included); above it truncation equals floor.
int PartitionRouter::BinCoord(int d, double x) const {
  const double v = (x - origin_[d]) * scale_[d];
  if (!(v >= 1.0)) return 0;
  const int top = bins_[d] - 1;
  if (v >= static_cast<double>(top)) return top;
  return static_cast<int>(v);
}

size_t PartitionRouter::BinOf(const double* p) const {
  size_t flat = 0;
  for (int d = 0; d < dims_; ++d) {
    flat = flat * static_cast<size_t>(bins_[d]) +
           static_cast<size_t>(BinCoord(d, p[d]));
  }
  return flat;
}

template <typename Fn>
void PartitionRouter::ForEachBin(uint32_t id, bool support, Fn&& fn) const {
  const double* b = &bounds_[id * 4 * static_cast<size_t>(dims_)];
  int core_lo[kMaxDimensions], core_hi[kMaxDimensions];
  int lo[kMaxDimensions], hi[kMaxDimensions];
  for (int d = 0; d < dims_; ++d) {
    core_lo[d] = BinCoord(d, b[4 * d]);
    core_hi[d] = BinCoord(d, b[4 * d + 1]);
    lo[d] = support ? BinCoord(d, b[4 * d + 2]) : core_lo[d];
    hi[d] = support ? BinCoord(d, b[4 * d + 3]) : core_hi[d];
  }
  int idx[kMaxDimensions];
  for (int d = 0; d < dims_; ++d) idx[d] = lo[d];
  while (true) {
    size_t flat = 0;
    bool enclosed = support;
    for (int d = 0; d < dims_; ++d) {
      flat = flat * static_cast<size_t>(bins_[d]) + static_cast<size_t>(idx[d]);
      enclosed = enclosed && core_lo[d] < idx[d] && idx[d] < core_hi[d];
    }
    if (!enclosed) fn(flat);
    int d = dims_ - 1;
    while (d >= 0) {
      if (++idx[d] <= hi[d]) break;
      idx[d] = lo[d];
      --d;
    }
    if (d < 0) break;
  }
}

// The index size at the current resolution, from each cell's bin ranges in
// closed form (no enumeration).
size_t PartitionRouter::CountIndexBytes() const {
  size_t ids = 0;
  for (uint32_t id = 0; id < num_cells_; ++id) {
    const double* b = &bounds_[id * 4 * static_cast<size_t>(dims_)];
    size_t core = 1, support = 1, enclosed = 1;
    for (int d = 0; d < dims_; ++d) {
      const int core_lo = BinCoord(d, b[4 * d]);
      const int core_hi = BinCoord(d, b[4 * d + 1]);
      core *= static_cast<size_t>(core_hi - core_lo + 1);
      support *= static_cast<size_t>(BinCoord(d, b[4 * d + 3]) -
                                     BinCoord(d, b[4 * d + 2]) + 1);
      enclosed *= static_cast<size_t>(std::max(core_hi - core_lo - 1, 0));
    }
    ids += core + support - enclosed;
  }
  return bounds_.size() * sizeof(double) + closed_hi_.size() +
         (2 * (num_bins_ + 1) + ids) * sizeof(uint32_t);
}

size_t PartitionRouter::index_bytes() const {
  return bounds_.size() * sizeof(double) + closed_hi_.size() +
         (core_offsets_.size() + core_ids_.size() + support_offsets_.size() +
          support_ids_.size()) *
             sizeof(uint32_t);
}

// PartitionPlan::ContainsCore over the flat bounds.
bool PartitionRouter::IsCore(uint32_t id, const double* p) const {
  const double* b = &bounds_[id * 4 * static_cast<size_t>(dims_)];
  const unsigned closed = closed_hi_[id];
  for (int d = 0; d < dims_; ++d) {
    if (p[d] < b[4 * d]) return false;
    if (p[d] >= b[4 * d + 1] &&
        !(((closed >> d) & 1u) != 0 && p[d] <= b[4 * d + 1])) {
      return false;
    }
  }
  return true;
}

// Closed containment in the cell's r-extension (SupportBounds().Contains).
bool PartitionRouter::InSupport(uint32_t id, const double* p) const {
  const double* b = &bounds_[id * 4 * static_cast<size_t>(dims_)];
  for (int d = 0; d < dims_; ++d) {
    if (p[d] < b[4 * d + 2] || p[d] > b[4 * d + 3]) return false;
  }
  return true;
}

uint32_t PartitionRouter::FindCore(size_t bin, const double* p) const {
  for (uint32_t k = core_offsets_[bin]; k < core_offsets_[bin + 1]; ++k) {
    if (IsCore(core_ids_[k], p)) return core_ids_[k];
  }
  return kNoCell;
}

// `core` is p's core cell when known (kNoCell otherwise): it is skipped
// without a box test.
void PartitionRouter::CollectSupport(size_t bin, const double* p,
                                     uint32_t core,
                                     std::vector<uint32_t>* out) const {
  for (uint32_t k = support_offsets_[bin]; k < support_offsets_[bin + 1];
       ++k) {
    const uint32_t id = support_ids_[k];
    if (id != core && InSupport(id, p) && !IsCore(id, p)) out->push_back(id);
  }
}

uint32_t PartitionRouter::Route(const double* p,
                                std::vector<uint32_t>* support) const {
  const size_t bin = BinOf(p);
  const uint32_t core = FindCore(bin, p);
  DOD_CHECK_MSG(core != kNoCell, "point not covered by partition plan");
  CollectSupport(bin, p, core, support);
  return core;
}

uint32_t PartitionRouter::RouteCore(const double* p) const {
  const uint32_t core = FindCore(BinOf(p), p);
  DOD_CHECK_MSG(core != kNoCell, "point not covered by partition plan");
  return core;
}

void PartitionRouter::RouteSupport(const double* p,
                                   std::vector<uint32_t>* out) const {
  CollectSupport(BinOf(p), p, kNoCell, out);
}

}  // namespace dod
