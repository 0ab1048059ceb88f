// Copyright 2026 The DOD Authors.
//
// Zero-copy partition views and the per-reduce-task probe arena.
//
// The detection reducers used to materialize every cell's partition as a
// fresh Dataset (copying each point's coordinates out of the global
// dataset), after which the detector copied the coordinates *again* into
// its blocked-SoA probe buffer. A point replicated into several cells of
// one reduce task paid that double copy once per cell.
//
// PartitionView removes the first copy: it is a span of PointIds over the
// global dataset — AoS coordinate reads resolve through one indexed load,
// and the core-points-first local ordering the detectors expect is encoded
// in the id order. TaskArena removes the repeated SoA builds: one blocked
// SoA buffer per reduce task holds every cell's probe segment back to back
// (each segment block-aligned, pre-permuted, slot ids = local indices), so
// the kernels scan exactly [probe_begin, probe_begin + size) of the shared
// buffer and one arena build serves every cell of the task.
//
// Lifetime: a TaskArena lives on the stack of one reduce-task attempt
// (reducer instances are shared across concurrent tasks and must stay
// stateless). Views returned by View() borrow the arena's id and probe
// storage and must not outlive it; the global dataset outlives everything.

#ifndef DOD_DETECTION_PARTITION_VIEW_H_
#define DOD_DETECTION_PARTITION_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bounds.h"
#include "common/dataset.h"
#include "common/point.h"
#include "durability/memory_budget.h"
#include "kernels/soa_block.h"

namespace dod {

// A read-only view of one cell's partition: `size()` points, the first
// `num_core()` of which are core points. Local index i resolves to the
// global point ids()[i]; an identity view (no id array) covers a whole
// dataset directly, which lets view-based detector code serve the legacy
// Dataset entry points with zero overhead.
class PartitionView {
 public:
  // Identity view over all of `data`; local index == PointId.
  PartitionView(const Dataset& data, size_t num_core)
      : data_(&data), ids_(nullptr), size_(data.size()), num_core_(num_core) {}

  // Gathered view: local index i is the point `ids[i]` of `data`, core
  // points first. `ids` must outlive the view.
  PartitionView(const Dataset& data, const PointId* ids, size_t size,
                size_t num_core)
      : data_(&data), ids_(ids), size_(size), num_core_(num_core) {}

  const Dataset& data() const { return *data_; }
  int dims() const { return data_->dims(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_core() const { return num_core_; }
  bool identity() const { return ids_ == nullptr; }

  // Global id of local point i.
  PointId id(size_t i) const {
    return ids_ != nullptr ? ids_[i] : static_cast<PointId>(i);
  }

  // Coordinates of local point i (one indexed load into the global data).
  const double* point(size_t i) const {
    return ids_ != nullptr ? (*data_)[ids_[i]]
                           : (*data_)[static_cast<PointId>(i)];
  }

  // Bounding box of the viewed points. Must not be called on an empty view.
  Rect Bounds() const;

  // Materializes the view as an owning Dataset (local order preserved);
  // the compatibility path for detectors without a native view entry.
  Dataset Gather() const;

  // Shared probe segment: slots [probe_begin, probe_begin + size) of
  // `probes` hold this view's points in a permuted order, each slot
  // carrying its point's *local* index as id (so kernels skip the query by
  // local index, exactly like a detector-built probe buffer).
  bool has_probes() const { return probes_ != nullptr; }
  const SoABlock& probes() const { return *probes_; }
  size_t probe_begin() const { return probe_begin_; }
  size_t probe_end() const { return probe_begin_ + size_; }

  void SetProbes(const SoABlock* probes, size_t probe_begin) {
    probes_ = probes;
    probe_begin_ = probe_begin;
  }

 private:
  const Dataset* data_;
  const PointId* ids_;
  size_t size_;
  size_t num_core_;
  const SoABlock* probes_ = nullptr;
  size_t probe_begin_ = 0;
};

// Builds the shared probe arena of one reduce task. Usage, inside a
// reduce-task attempt:
//
//   TaskArena arena(data);
//   for each cell:  arena.BeginCell();
//                   arena.AddPoint(id)...        // core first, then support
//                   arena.EndCell(num_core, permutation_seed);
//   arena.BuildProbes();
//   for each cell:  PartitionView view = arena.View(cell_index);
//
// The two-phase shape exists because id storage is one growing vector:
// views hand out raw pointers into it, so they are only created after every
// cell has been staged. BuildProbes lays each cell's segment into one
// SoABlock, block-aligned, in a deterministic per-cell random permutation
// (seeded by the caller — detectors with randomized probe order rely on
// it), and records the kernels.soa_reuse.* metrics.
class TaskArena {
 public:
  // `budget` (optional, borrowed) bounds the arena: the id staging and the
  // probe buffer are reserved together, as one charge, before allocation,
  // and the charge is held for the arena's lifetime (Clear() keeps
  // capacity, so it keeps the charge too).
  explicit TaskArena(const Dataset& data, MemoryBudget* budget = nullptr);

  // Optional pre-sizing with the task's totals. Reserves the estimated
  // bytes against the budget — waiting for room while other arenas hold
  // theirs (MemoryBudget::Reserve) — and returns kResourceExhausted when
  // they cannot fit the budget alone or the allocation fails.
  Status TryReserve(size_t num_cells, size_t num_points);

  void BeginCell();
  void AddPoint(PointId id) { ids_.push_back(id); }
  void EndCell(size_t num_core, uint64_t permutation_seed);

  // TryBuildProbes converts std::bad_alloc from the probe layout into
  // kResourceExhausted (reservation estimates cover the common case, but
  // staging past the reserved sizes can still grow the buffers).
  Status TryBuildProbes();
  void BuildProbes();

  size_t num_cells() const { return cells_.size(); }

  // View of staged cell `index` (creation order). Valid only after
  // BuildProbes(), until the arena dies or is cleared.
  PartitionView View(size_t index) const;

  // Drops all staged cells and probes; keeps capacity (attempt retries).
  void Clear();

 private:
  struct CellSlot {
    size_t ids_begin = 0;
    size_t size = 0;
    size_t num_core = 0;
    size_t probe_begin = 0;
    uint64_t permutation_seed = 0;
  };

  const Dataset& data_;
  MemoryBudget* budget_;
  MemoryCharge charge_;
  std::vector<PointId> ids_;
  std::vector<CellSlot> cells_;
  SoABlock probes_;
  bool built_ = false;
};

}  // namespace dod

#endif  // DOD_DETECTION_PARTITION_VIEW_H_
