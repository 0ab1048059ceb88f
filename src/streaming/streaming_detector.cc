// Copyright 2026 The DOD Authors.

#include "streaming/streaming_detector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "detection/neighbor_count.h"
#include "detection/partition_view.h"
#include "durability/payload.h"
#include "observability/metrics.h"
#include "observability/trace.h"

namespace dod {
namespace {

// The only snapshot version this reader accepts: per-source windows,
// per-point neighbor-count summaries behind a has_summaries flag, and the
// watermark/reorder section (arrival counters, per-source clocks,
// buffered blocks). Every other version fails with kFailedPrecondition.
// Older versions cannot reach a reader: CheckpointStore refuses every
// manifest format older than the one that shipped alongside version 3.
// A v3 snapshot written with has_summaries = 0 (by a build that could run
// rounds by re-detection) still restores: its counts rebuild on resume.
constexpr uint32_t kStreamStateVersion = 3;

// Same per-cell seed derivation as the batch reducers (core/pipeline.cc):
// the probe-order seed and the arena's permutation seed come from
// independent streams so slot order and probe starts don't correlate.
constexpr uint64_t kArenaSeedSalt = 0xA5C3D2E1F0B49687ULL;

// Largest supporting ring (cells per side of the center) a configuration
// may ask for; keeps ceil(radius / cell_side) and every ring walk inside
// int32 cell coordinates.
constexpr double kMaxRing = 1 << 20;

uint64_t CellSeed(uint64_t base, uint64_t cell) {
  return base ^ (0x9E3779B97F4A7C15ULL * (cell + 1));
}

uint64_t CoordToken(const CellCoord& coord) {
  return static_cast<uint64_t>(CellCoordHash{}(coord));
}

void SortUnique(std::vector<CellCoord>* coords) {
  std::sort(coords->begin(), coords->end(), CellCoordLess{});
  coords->erase(std::unique(coords->begin(), coords->end()), coords->end());
}

// Invokes fn(coord) for every cell coordinate within Chebyshev distance
// `ring` of `center` — center included — in odometer order over the
// (2*ring+1)^dims offset block (dimension 0 fastest).
template <typename Fn>
void ForEachInRing(const CellCoord& center, int ring, Fn&& fn) {
  CellCoord probe;
  probe.dims = center.dims;
  int offset[kMaxDimensions];
  for (int d = 0; d < center.dims; ++d) {
    offset[d] = -ring;
    probe.c[d] = center.c[d] - ring;
  }
  while (true) {
    fn(probe);
    int d = 0;
    while (d < center.dims) {
      if (++offset[d] <= ring) {
        probe.c[d] = center.c[d] + offset[d];
        break;
      }
      offset[d] = -ring;
      probe.c[d] = center.c[d] - ring;
      ++d;
    }
    if (d == center.dims) break;
  }
}

// Half-open slot range of one cell's segment inside a SegmentIndex SoA.
struct CellSegment {
  uint32_t begin = 0;
  uint32_t end = 0;
};

// The appended/evicted points of one round, laid out cell by cell in one
// SoA so a dirty cell's residents count against each nearby segment with a
// single batched kernel call.
struct SegmentIndex {
  explicit SegmentIndex(int dims) : soa(dims) {}
  SoABlock soa;
  std::unordered_map<CellCoord, CellSegment, CellCoordHash> ranges;
  bool empty() const { return soa.empty(); }
};

}  // namespace

StreamingDetector::StreamingDetector(const StreamingConfig& config)
    : config_(config),
      side_(config.cell_side > 0.0 ? config.cell_side
                                   : config.params.radius),
      executor_(std::make_unique<ParallelExecutor>(config.num_threads)) {
  // Supporting ring: with cell side s, any neighbor within distance r is
  // at most ceil(r/s) cells away per dimension (see DirtyCells).
  ring_ = static_cast<int>(std::ceil(config_.params.radius / side_));
  if (ring_ < 1) ring_ = 1;
  if (config_.grid_origin.dims() > 0) {
    for (int i = 0; i < config_.grid_origin.dims(); ++i) {
      origin_[i] = config_.grid_origin[i];
    }
  }
}

Result<std::unique_ptr<StreamingDetector>> StreamingDetector::Create(
    const StreamingConfig& config) {
  if (config.params.radius <= 0.0 || config.params.min_neighbors < 1) {
    return Status::InvalidArgument(
        "StreamingDetector: radius must be > 0 and min_neighbors >= 1");
  }
  if (config.cell_side < 0.0 || config.window_seconds < 0.0) {
    return Status::InvalidArgument(
        "StreamingDetector: cell_side and window_seconds must be >= 0");
  }
  const double side =
      config.cell_side > 0.0 ? config.cell_side : config.params.radius;
  if (!(config.params.radius / side <= kMaxRing)) {
    return Status::InvalidArgument(
        "StreamingDetector: cell_side is too small for the radius (the "
        "supporting ring would exceed 2^20 cells)");
  }
  if (!config.summaries) {
    return Status::InvalidArgument(
        "StreamingDetector: summaries must be true (rounds run on "
        "neighbor-count summaries only)");
  }
  if (config.summary_slack < 0) {
    return Status::InvalidArgument(
        "StreamingDetector: summary_slack must be >= 0");
  }
  if (config.watermark.enabled &&
      (!std::isfinite(config.watermark.lateness) ||
       config.watermark.lateness < 0.0 ||
       !std::isfinite(config.watermark.idle_timeout) ||
       config.watermark.idle_timeout < 0.0)) {
    return Status::InvalidArgument(
        "StreamingDetector: watermark lateness and idle_timeout must be "
        "finite and >= 0");
  }
  if (config.resume && config.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "StreamingDetector: resume requires checkpoint_dir");
  }
  std::unique_ptr<StreamingDetector> service(new StreamingDetector(config));
  if (!config.checkpoint_dir.empty()) {
    DOD_ASSIGN_OR_RETURN(service->store_,
                         CheckpointStore::Open(config.checkpoint_dir,
                                               service->JobKey(),
                                               config.resume));
    if (config.resume) DOD_RETURN_IF_ERROR(service->RestoreLatest());
  }
  return service;
}

Status StreamingDetector::InitDims(int dims) {
  if (dims < 1 || dims > kMaxDimensions) {
    return Status::InvalidArgument("StreamingDetector: unsupported dims " +
                                   std::to_string(dims));
  }
  if (config_.grid_origin.dims() > 0 && config_.grid_origin.dims() != dims) {
    return Status::InvalidArgument(
        "StreamingDetector: block dims do not match grid_origin dims");
  }
  dims_ = dims;
  window_.emplace(dims);
  return Status::Ok();
}

Status StreamingDetector::ValidateBlock(const StreamBlock& block) const {
  if (block.ids.size() != block.points.size()) {
    return Status::InvalidArgument(
        "StreamingDetector::Feed: block has " +
        std::to_string(block.ids.size()) + " ids for " +
        std::to_string(block.points.size()) + " points");
  }
  if (block.points.empty()) return Status::Ok();
  if (dims_ != 0 && block.points.dims() != dims_) {
    return Status::InvalidArgument(
        "StreamingDetector::Feed: block dims " +
        std::to_string(block.points.dims()) + " != window dims " +
        std::to_string(dims_));
  }
  DOD_RETURN_IF_ERROR(block.points.Validate());
  for (size_t i = 0; i < block.points.size(); ++i) {
    if (!KeyInRange(block.points[static_cast<PointId>(i)],
                    block.points.dims())) {
      return Status::InvalidArgument(
          "StreamingDetector::Feed: point id " +
          std::to_string(block.ids[i]) +
          " lies outside the grid's int32 cell range (|x - origin| / "
          "cell_side must stay below 2^31 cells)");
    }
  }
  std::unordered_set<PointId> seen;
  seen.reserve(block.ids.size());
  for (PointId id : block.ids) {
    if (!seen.insert(id).second || id_to_slot_.count(id) != 0) {
      return Status::InvalidArgument(
          "StreamingDetector::Feed: duplicate point id " +
          std::to_string(id) + " (ids must be unique among resident points)");
    }
  }
  return Status::Ok();
}

uint32_t StreamingDetector::AllocSlot(PointId id, const double* p) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    double* row = window_->mutable_raw().data() +
                  static_cast<size_t>(slot) * dims_;
    std::copy(p, p + dims_, row);
  } else {
    slot = static_cast<uint32_t>(window_->Append(p));
    slots_.push_back(SlotState{});
  }
  SlotState fresh;
  fresh.stream_id = id;
  slots_[slot] = fresh;
  id_to_slot_[id] = slot;
  return slot;
}

CellCoord StreamingDetector::KeyOf(const double* p) const {
  // The exact keying the batch grids use (detection/cell_key.h).
  return UniformCellKey(p, dims_, origin_, side_);
}

bool StreamingDetector::KeyInRange(const double* p, int dims) const {
  const double limit =
      static_cast<double>(std::numeric_limits<int32_t>::max()) - ring_ - 1;
  for (int d = 0; d < dims; ++d) {
    if (!(std::abs((p[d] - origin_[d]) / side_) < limit)) return false;
  }
  return true;
}

void StreamingDetector::AppendBlock(const StreamBlock& block,
                                    std::vector<CellCoord>* touched,
                                    std::vector<uint32_t>* appended_slots) {
  if (block.points.empty()) return;
  WindowBlock wb;
  wb.seq = next_seq_++;
  wb.timestamp = block.timestamp;
  wb.slots.reserve(block.ids.size());
  for (size_t i = 0; i < block.ids.size(); ++i) {
    const double* p = block.points[static_cast<PointId>(i)];
    const uint32_t slot = AllocSlot(block.ids[i], p);
    const CellCoord coord = KeyOf(p);
    cells_[coord].slots.push_back(slot);
    wb.slots.push_back(slot);
    touched->push_back(coord);
    appended_slots->push_back(slot);
  }
  windows_[block.source_id].blocks.push_back(std::move(wb));
}

size_t StreamingDetector::ExpireBlocks(std::vector<CellCoord>* touched,
                                       std::vector<PointId>* expired_flagged,
                                       std::vector<uint32_t>* evicted_slots) {
  size_t expired_points = 0;
  // Ascending source-id order keeps the eviction sequence — and therefore
  // the evicted SoA segments and delta stats — deterministic. Emptied
  // windows stay resident: their expiry clock must survive idle gaps.
  for (auto& entry : windows_) {
    SourceWindow& source = entry.second;
    while (!source.blocks.empty()) {
      const bool over_count = config_.window_blocks > 0 &&
                              source.blocks.size() > config_.window_blocks;
      const bool over_age =
          config_.window_seconds > 0.0 && source.saw_timestamp &&
          source.high_water - source.blocks.front().timestamp >=
              config_.window_seconds;
      if (!over_count && !over_age) break;
      WindowBlock block = std::move(source.blocks.front());
      source.blocks.pop_front();
      for (uint32_t slot : block.slots) {
        const SlotState& state = slots_[slot];
        const CellCoord coord = KeyOf((*window_)[slot]);
        auto it = cells_.find(coord);
        DOD_CHECK(it != cells_.end());
        std::vector<uint32_t>& members = it->second.slots;
        members.erase(std::find(members.begin(), members.end(), slot));
        if (members.empty()) cells_.erase(it);
        touched->push_back(coord);
        if (state.flagged != 0) expired_flagged->push_back(state.stream_id);
        id_to_slot_.erase(state.stream_id);
        free_slots_.push_back(slot);
        evicted_slots->push_back(slot);
        ++expired_points;
      }
    }
  }
  return expired_points;
}

std::vector<CellCoord> StreamingDetector::DirtyCells(
    std::vector<CellCoord>* touched) const {
  SortUnique(touched);
  // Expand each touched cell by the supporting ring and keep the resident
  // ones. Correctness: a point q's neighbor count changed iff a point
  // within distance r of q was appended or expired; that point's cell is
  // touched, and q's cell is then within ring_ of it (coordinates more
  // than ring_ cells apart differ by > ring_*side >= r in that dimension).
  std::unordered_set<CellCoord, CellCoordHash> dirty;
  for (const CellCoord& center : *touched) {
    ForEachInRing(center, ring_, [&](const CellCoord& probe) {
      if (cells_.count(probe) != 0) dirty.insert(probe);
    });
  }
  std::vector<CellCoord> result(dirty.begin(), dirty.end());
  std::sort(result.begin(), result.end(), CellCoordLess{});
  return result;
}

void StreamingDetector::StageCellWithRing(const CellCoord& center,
                                          TaskArena* arena) const {
  arena->BeginCell();
  const CellState& cell = cells_.at(center);
  for (uint32_t slot : cell.slots) arena->AddPoint(slot);
  const size_t num_core = cell.slots.size();
  ForEachInRing(center, ring_, [&](const CellCoord& probe) {
    if (probe == center) return;
    auto it = cells_.find(probe);
    if (it == cells_.end()) return;
    for (uint32_t slot : it->second.slots) arena->AddPoint(slot);
  });
  arena->EndCell(num_core, CellSeed(config_.params.seed, CoordToken(center)) ^
                               kArenaSeedSalt);
}

int StreamingDetector::SaturationCap() const {
  const long long cap = static_cast<long long>(config_.params.min_neighbors) +
                        config_.summary_slack;
  return static_cast<int>(
      std::min<long long>(cap, std::numeric_limits<int>::max()));
}

size_t StreamingDetector::saturated_points() const {
  size_t n = 0;
  for (const auto& entry : id_to_slot_) {
    if (slots_[entry.second].saturated != 0) ++n;
  }
  return n;
}

Status StreamingDetector::SummaryUpdate(
    const std::vector<CellCoord>& dirty,
    const std::vector<uint32_t>& appended_slots,
    const std::vector<uint32_t>& evicted_slots, OutlierDelta* delta) {
  std::vector<TargetCell> targets;
  {
    trace::Span span("stream", "summary_update");
    if (dims_ != 0 && !dirty.empty()) {
      // Appended/evicted point segments, grouped by cell in one SoA each.
      // Evicted coordinates are still readable: freed slots are only
      // recycled by the *next* round's appends.
      SegmentIndex inserted(dims_);
      SegmentIndex evicted(dims_);
      const auto build = [&](const std::vector<uint32_t>& round_slots,
                             SegmentIndex* index) {
        std::vector<std::pair<CellCoord, uint32_t>> items;
        items.reserve(round_slots.size());
        for (uint32_t slot : round_slots) {
          items.emplace_back(KeyOf((*window_)[slot]), slot);
        }
        std::stable_sort(items.begin(), items.end(),
                         [](const std::pair<CellCoord, uint32_t>& a,
                            const std::pair<CellCoord, uint32_t>& b) {
                           return CellCoordLess{}(a.first, b.first);
                         });
        index->soa.Reserve(items.size());
        for (size_t i = 0; i < items.size();) {
          size_t j = i;
          while (j < items.size() && items[j].first == items[i].first) {
            index->soa.Append((*window_)[items[j].second], items[j].second);
            ++j;
          }
          index->ranges.emplace(
              items[i].first, CellSegment{static_cast<uint32_t>(i),
                                          static_cast<uint32_t>(j)});
          i = j;
        }
      };
      build(appended_slots, &inserted);
      build(evicted_slots, &evicted);

      std::vector<uint8_t> is_new(slots_.size(), 0);
      for (uint32_t slot : appended_slots) is_new[slot] = 1;

      // Per dirty cell, in parallel: count the cell's surviving old
      // residents against every appended (increment) and evicted
      // (decrement) segment within the supporting ring. Results stage per
      // cell and fold sequentially below.
      struct CellPass {
        std::vector<uint32_t> old_slots;  // queries, segment order
        std::vector<uint32_t> inc;
        std::vector<uint32_t> dec;
        uint64_t inc_pairs = 0;
        uint64_t dec_pairs = 0;
      };
      const double sq_radius =
          config_.params.radius * config_.params.radius;
      std::vector<CellPass> pass(dirty.size());
      DOD_RETURN_IF_ERROR(executor_->RunTasks(
          dirty.size(), [&](size_t i) -> Status {
            CellPass& p = pass[i];
            const CellState& cell = cells_.at(dirty[i]);
            std::vector<double> queries;
            queries.reserve(cell.slots.size() *
                            static_cast<size_t>(dims_));
            for (uint32_t slot : cell.slots) {
              if (is_new[slot] != 0) continue;
              p.old_slots.push_back(slot);
              const double* row = (*window_)[slot];
              queries.insert(queries.end(), row, row + dims_);
            }
            if (p.old_slots.empty()) return Status::Ok();
            p.inc.assign(p.old_slots.size(), 0);
            p.dec.assign(p.old_slots.size(), 0);
            ForEachInRing(dirty[i], ring_, [&](const CellCoord& probe) {
              if (!inserted.empty()) {
                auto it = inserted.ranges.find(probe);
                if (it != inserted.ranges.end()) {
                  CountBlockAgainstSegment(
                      inserted.soa, it->second.begin, it->second.end,
                      queries.data(), p.old_slots.size(), sq_radius,
                      config_.params.kernels, p.inc.data(), &p.inc_pairs);
                }
              }
              if (!evicted.empty()) {
                auto it = evicted.ranges.find(probe);
                if (it != evicted.ranges.end()) {
                  CountBlockAgainstSegment(
                      evicted.soa, it->second.begin, it->second.end,
                      queries.data(), p.old_slots.size(), sq_radius,
                      config_.params.kernels, p.dec.data(), &p.dec_pairs);
                }
              }
            });
            return Status::Ok();
          }));

      // Sequential fold in dirty (lexicographic) order: exact counts
      // adjust and flip in place; saturated bounds absorb the delta and
      // queue a re-count only when they drop below k; appended points
      // queue their first count.
      const int k = config_.params.min_neighbors;
      for (size_t i = 0; i < dirty.size(); ++i) {
        const CellState& cell = cells_.at(dirty[i]);
        const CellPass& p = pass[i];
        TargetCell target;
        target.coord = dirty[i];
        size_t q = 0;
        for (size_t j = 0; j < cell.slots.size(); ++j) {
          const uint32_t slot = cell.slots[j];
          if (is_new[slot] != 0) {
            target.locals.push_back(static_cast<uint32_t>(j));
            ++delta->stats.full_counted_points;
            continue;
          }
          DOD_CHECK(q < p.old_slots.size() && p.old_slots[q] == slot);
          const long long inc = p.inc[q];
          const long long dec = p.dec[q];
          ++q;
          if (inc == 0 && dec == 0) continue;
          SlotState& state = slots_[slot];
          if (state.saturated == 0) {
            const long long next =
                static_cast<long long>(state.count) + inc - dec;
            DOD_CHECK(next >= 0);
            state.count = static_cast<uint32_t>(next);
            const bool now = next < k;
            if (now != (state.flagged != 0)) {
              (now ? delta->newly_flagged : delta->newly_cleared)
                  .push_back(state.stream_id);
              state.flagged = now ? 1 : 0;
            }
          } else {
            const long long bound =
                static_cast<long long>(state.count) + inc - dec;
            if (bound >= k) {
              // True count >= old count + inc - dec, so the bound stays
              // certified; the point stays a known inlier.
              state.count = static_cast<uint32_t>(bound);
            } else {
              state.count =
                  static_cast<uint32_t>(std::max(bound, 0LL));
              target.locals.push_back(static_cast<uint32_t>(j));
              ++delta->stats.recounted_points;
            }
          }
        }
        delta->stats.insert_pairs += p.inc_pairs;
        delta->stats.expiry_pairs += p.dec_pairs;
        if (!target.locals.empty()) targets.push_back(std::move(target));
      }
    }
    span.Arg("dirty_cells", static_cast<uint64_t>(dirty.size()))
        .Arg("inc_pairs", delta->stats.insert_pairs)
        .Arg("dec_pairs", delta->stats.expiry_pairs);
  }
  return CountTargets(targets, delta);
}

Status StreamingDetector::CountTargets(const std::vector<TargetCell>& targets,
                                       OutlierDelta* delta) {
  trace::Span span("stream", "summary_recount");
  span.Arg("recounts",
           static_cast<uint64_t>(delta->stats.recounted_points))
      .Arg("full_counts",
           static_cast<uint64_t>(delta->stats.full_counted_points));
  if (targets.empty()) return Status::Ok();

  TaskArena arena(*window_);
  for (const TargetCell& target : targets) {
    StageCellWithRing(target.coord, &arena);
  }
  DOD_RETURN_IF_ERROR(arena.TryBuildProbes());

  const int cap = SaturationCap();
  std::vector<std::vector<NeighborCountSummary>> staged(targets.size());
  DOD_RETURN_IF_ERROR(executor_->RunTasks(
      targets.size(), [&](size_t i) -> Status {
        const PartitionView view = arena.View(i);
        DetectionParams params = config_.params;
        params.seed =
            CellSeed(config_.params.seed, CoordToken(targets[i].coord));
        std::vector<NeighborCountSummary>& out = staged[i];
        out.reserve(targets[i].locals.size());
        for (uint32_t local : targets[i].locals) {
          out.push_back(
              CountNeighbors(view, local, params, cap, /*pairs=*/nullptr));
        }
        return Status::Ok();
      }));

  const uint32_t k =
      static_cast<uint32_t>(config_.params.min_neighbors);
  for (size_t i = 0; i < targets.size(); ++i) {
    const CellState& cell = cells_.at(targets[i].coord);
    for (size_t t = 0; t < targets[i].locals.size(); ++t) {
      const NeighborCountSummary summary = staged[i][t];
      SlotState& state = slots_[cell.slots[targets[i].locals[t]]];
      state.count = summary.count;
      state.saturated = summary.saturated ? 1 : 0;
      const bool now = !summary.saturated && summary.count < k;
      if (now != (state.flagged != 0)) {
        (now ? delta->newly_flagged : delta->newly_cleared)
            .push_back(state.stream_id);
        state.flagged = now ? 1 : 0;
      }
    }
  }
  return Status::Ok();
}

Status StreamingDetector::RebuildSummaries() {
  std::vector<CellCoord> coords;
  coords.reserve(cells_.size());
  for (const auto& entry : cells_) coords.push_back(entry.first);
  std::sort(coords.begin(), coords.end(), CellCoordLess{});
  std::vector<TargetCell> targets;
  targets.reserve(coords.size());
  size_t total = 0;
  for (const CellCoord& coord : coords) {
    TargetCell target;
    target.coord = coord;
    const size_t n = cells_.at(coord).slots.size();
    target.locals.resize(n);
    for (size_t j = 0; j < n; ++j) {
      target.locals[j] = static_cast<uint32_t>(j);
    }
    total += n;
    targets.push_back(std::move(target));
  }
  OutlierDelta scratch;
  scratch.stats.full_counted_points = total;
  DOD_RETURN_IF_ERROR(CountTargets(targets, &scratch));
  // The restored flagged set fixed every verdict; a recount that flips one
  // means the snapshot's outliers disagree with its window contents.
  if (!scratch.newly_flagged.empty() || !scratch.newly_cleared.empty()) {
    return Status::IoError(
        "stream checkpoint: flagged set disagrees with window contents");
  }
  return Status::Ok();
}

void StreamingDetector::ApplyDeltaToOutlierSet(const OutlierDelta& delta) {
  if (delta.newly_flagged.empty() && delta.newly_cleared.empty()) return;
  std::vector<PointId> next;
  next.reserve(outliers_.size() + delta.newly_flagged.size());
  std::set_difference(outliers_.begin(), outliers_.end(),
                      delta.newly_cleared.begin(), delta.newly_cleared.end(),
                      std::back_inserter(next));
  std::vector<PointId> merged;
  merged.reserve(next.size() + delta.newly_flagged.size());
  std::merge(next.begin(), next.end(), delta.newly_flagged.begin(),
             delta.newly_flagged.end(), std::back_inserter(merged));
  outliers_ = std::move(merged);
}

void StreamingDetector::RecordRound(const OutlierDelta& delta) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static const uint32_t kRounds =
      metrics.Id("stream.rounds", MetricKind::kCounter);
  static const uint32_t kDirtyCells =
      metrics.Id("stream.cells_redetected", MetricKind::kCounter);
  static const uint32_t kFlagged =
      metrics.Id("stream.delta_flagged", MetricKind::kCounter);
  static const uint32_t kCleared =
      metrics.Id("stream.delta_cleared", MetricKind::kCounter);
  static const uint32_t kResident =
      metrics.Id("stream.resident_points", MetricKind::kGauge);
  static const uint32_t kDirtyFraction =
      metrics.Id("stream.dirty_cell_fraction", MetricKind::kHistogram);
  static const uint32_t kRoundSeconds =
      metrics.Id("stream.round_seconds", MetricKind::kHistogram);
  static const uint32_t kSummaryRounds =
      metrics.Id("stream.summary.rounds", MetricKind::kCounter);
  static const uint32_t kInsertPairs =
      metrics.Id("stream.summary.insert_count_pairs", MetricKind::kCounter);
  static const uint32_t kExpiryPairs =
      metrics.Id("stream.summary.expiry_count_pairs", MetricKind::kCounter);
  static const uint32_t kFullPoints =
      metrics.Id("stream.summary.full_count_points", MetricKind::kCounter);
  static const uint32_t kRecountPoints =
      metrics.Id("stream.summary.recount_points", MetricKind::kCounter);
  static const uint32_t kSaturated =
      metrics.Id("stream.summary.saturated_points", MetricKind::kGauge);
  static const uint32_t kRecountQueue =
      metrics.Id("stream.summary.recount_queue", MetricKind::kHistogram);
  // The stream.watermark.* family and stream.late_dropped likewise
  // register on every round so validate_trace sees the schema on in-order
  // runs too; the counters only move under a watermark policy.
  static const uint32_t kLateDropped =
      metrics.Id("stream.late_dropped", MetricKind::kCounter);
  static const uint32_t kAdvances =
      metrics.Id("stream.watermark.advances", MetricKind::kCounter);
  static const uint32_t kReorderAdmitted =
      metrics.Id("stream.watermark.reorder_admitted", MetricKind::kCounter);
  static const uint32_t kBuffered =
      metrics.Id("stream.watermark.buffered_blocks", MetricKind::kGauge);
  static const uint32_t kSources =
      metrics.Id("stream.watermark.sources", MetricKind::kGauge);
  (void)kLateDropped;
  (void)kAdvances;
  (void)kBuffered;
  if (config_.watermark.enabled) metrics.Increment(kReorderAdmitted);
  metrics.SetMax(kSources, static_cast<double>(windows_.size()));
  metrics.Increment(kRounds);
  metrics.Increment(kDirtyCells, delta.stats.dirty_cells);
  metrics.Increment(kFlagged, delta.newly_flagged.size());
  metrics.Increment(kCleared, delta.newly_cleared.size());
  metrics.SetMax(kResident,
                 static_cast<double>(delta.stats.resident_points));
  metrics.Observe(kDirtyFraction, delta.stats.dirty_fraction);
  metrics.Observe(kRoundSeconds, delta.stats.round_seconds);
  metrics.Increment(kSummaryRounds);
  metrics.Increment(kInsertPairs, delta.stats.insert_pairs);
  metrics.Increment(kExpiryPairs, delta.stats.expiry_pairs);
  metrics.Increment(kFullPoints, delta.stats.full_counted_points);
  metrics.Increment(kRecountPoints, delta.stats.recounted_points);
  metrics.SetMax(kSaturated, static_cast<double>(saturated_points()));
  metrics.Observe(kRecountQueue,
                  static_cast<double>(delta.stats.recounted_points));
}

Result<OutlierDelta> StreamingDetector::AdmitBlock(const StreamBlock& block) {
  StopWatch watch;
  DOD_RETURN_IF_ERROR(ValidateBlock(block));
  if (dims_ == 0 && !block.points.empty()) {
    DOD_RETURN_IF_ERROR(InitDims(block.points.dims()));
  }
  trace::Span span("stream", "round");

  OutlierDelta delta;
  std::vector<CellCoord> touched;
  std::vector<PointId> expired_flagged;
  std::vector<uint32_t> appended_slots;
  std::vector<uint32_t> evicted_slots;
  AppendBlock(block, &touched, &appended_slots);
  if (config_.window_seconds > 0.0) {
    SourceWindow& source = windows_[block.source_id];
    source.high_water = source.saw_timestamp
                            ? std::max(source.high_water, block.timestamp)
                            : block.timestamp;
    source.saw_timestamp = true;
  }
  const size_t expired_points =
      ExpireBlocks(&touched, &expired_flagged, &evicted_slots);

  const std::vector<CellCoord> dirty = DirtyCells(&touched);
  DOD_RETURN_IF_ERROR(
      SummaryUpdate(dirty, appended_slots, evicted_slots, &delta));

  // Flagged points that left the window clear by expiry; verdict flips
  // were collected per dirty cell above. The two sources are disjoint
  // (expired slots are out of every cell before the summary update runs).
  delta.newly_cleared.insert(delta.newly_cleared.end(),
                             expired_flagged.begin(), expired_flagged.end());
  std::sort(delta.newly_flagged.begin(), delta.newly_flagged.end());
  std::sort(delta.newly_cleared.begin(), delta.newly_cleared.end());
  ApplyDeltaToOutlierSet(delta);

  ++round_;
  delta.stats.round = round_;
  delta.stats.appended_points = block.ids.size();
  delta.stats.expired_points = expired_points;
  delta.stats.resident_points = id_to_slot_.size();
  delta.stats.resident_cells = cells_.size();
  delta.stats.dirty_cells = dirty.size();
  delta.stats.dirty_fraction =
      cells_.empty() ? 0.0
                     : static_cast<double>(dirty.size()) /
                           static_cast<double>(cells_.size());
  delta.stats.round_seconds = watch.ElapsedSeconds();
  RecordRound(delta);
  span.Arg("round", delta.stats.round)
      .Arg("appended", static_cast<uint64_t>(delta.stats.appended_points))
      .Arg("expired", static_cast<uint64_t>(expired_points))
      .Arg("dirty_cells", static_cast<uint64_t>(dirty.size()))
      .Arg("flagged", static_cast<uint64_t>(delta.newly_flagged.size()))
      .Arg("cleared", static_cast<uint64_t>(delta.newly_cleared.size()));
  return delta;
}

Result<OutlierDelta> StreamingDetector::Feed(const StreamBlock& block) {
  if (config_.watermark.enabled) {
    return Status::FailedPrecondition(
        "StreamingDetector::Feed: a watermark policy is enabled; blocks "
        "must go through Ingest so the reorder stage sees them");
  }
  DOD_ASSIGN_OR_RETURN(OutlierDelta delta, AdmitBlock(block));
  arrivals_ = round_;  // in-order mode: one arrival per round, by definition
  if (store_ != nullptr && config_.checkpoint_every > 0 &&
      round_ % config_.checkpoint_every == 0) {
    DOD_RETURN_IF_ERROR(CommitCheckpoint());
  }
  return delta;
}

Status StreamingDetector::ValidateArrival(const StreamBlock& block) const {
  if (!std::isfinite(block.timestamp)) {
    return Status::InvalidArgument(
        "StreamingDetector::Ingest: block timestamp must be finite under a "
        "watermark policy");
  }
  DOD_RETURN_IF_ERROR(ValidateBlock(block));
  for (PointId id : block.ids) {
    if (pending_ids_.count(id) != 0) {
      return Status::InvalidArgument(
          "StreamingDetector::Ingest: duplicate point id " +
          std::to_string(id) + " (already parked in the reorder buffer)");
    }
  }
  // The window learns its dims from the first *admitted* block; arrivals
  // must agree among themselves too, or a buffered block would fail — and
  // abort a drain half-applied — only at admission time.
  if (dims_ == 0 && !block.points.empty()) {
    for (const PendingBlock& pending : reorder_) {
      if (pending.block.points.empty()) continue;
      if (pending.block.points.dims() != block.points.dims()) {
        return Status::InvalidArgument(
            "StreamingDetector::Ingest: block dims " +
            std::to_string(block.points.dims()) + " != buffered dims " +
            std::to_string(pending.block.points.dims()));
      }
      break;
    }
  }
  return Status::Ok();
}

bool StreamingDetector::CurrentWatermark(double* watermark) const {
  if (!saw_arrival_) return false;
  // min over live sources of max_seen - L. A source lagging the global
  // maximum by more than idle_timeout is excluded until it sends again;
  // the source holding the global maximum lags by zero, so at least one
  // clock always survives the filter.
  bool any = false;
  double min_clock = 0.0;
  for (const auto& entry : wm_clocks_) {
    if (config_.watermark.idle_timeout > 0.0 &&
        global_max_ts_ - entry.second > config_.watermark.idle_timeout) {
      continue;
    }
    if (!any || entry.second < min_clock) {
      min_clock = entry.second;
      any = true;
    }
  }
  if (!any) return false;
  *watermark = min_clock - config_.watermark.lateness;
  return true;
}

Status StreamingDetector::DrainReorderBuffer(double bound,
                                             IngestResult* result) {
  while (!reorder_.empty() && reorder_.front().block.timestamp < bound) {
    PendingBlock pending = std::move(reorder_.front());
    reorder_.pop_front();
    for (PointId id : pending.block.ids) pending_ids_.erase(id);
    trace::Span span("stream", "reorder_admit");
    span.Arg("source", static_cast<uint64_t>(pending.block.source_id))
        .Arg("arrival", pending.arrival)
        .Arg("buffered", static_cast<uint64_t>(reorder_.size()));
    DOD_ASSIGN_OR_RETURN(OutlierDelta delta, AdmitBlock(pending.block));
    result->admitted.push_back(std::move(delta));
  }
  return Status::Ok();
}

Result<IngestResult> StreamingDetector::Ingest(const StreamBlock& block) {
  IngestResult result;
  if (!config_.watermark.enabled) {
    DOD_ASSIGN_OR_RETURN(OutlierDelta delta, Feed(block));
    result.admitted.push_back(std::move(delta));
    return result;
  }
  DOD_RETURN_IF_ERROR(ValidateArrival(block));

  MetricsRegistry& metrics = MetricsRegistry::Global();
  static const uint32_t kLateDropped =
      metrics.Id("stream.late_dropped", MetricKind::kCounter);
  static const uint32_t kAdvances =
      metrics.Id("stream.watermark.advances", MetricKind::kCounter);
  static const uint32_t kBuffered =
      metrics.Id("stream.watermark.buffered_blocks", MetricKind::kGauge);
  static const uint32_t kSources =
      metrics.Id("stream.watermark.sources", MetricKind::kGauge);

  // Rejection is against the watermark *before* this arrival moves any
  // clock: buffered blocks at or beyond it are still unadmitted, so the
  // canonical order can absorb anything at ts >= watermark — but a block
  // below it may already have admitted successors, and applying it now
  // would diverge from in-order delivery.
  double prev_wm = 0.0;
  const bool had_prev = CurrentWatermark(&prev_wm);
  if (had_prev && block.timestamp < prev_wm) {
    ++late_dropped_;
    metrics.Increment(kLateDropped);
    // The drop count is part of the durable state: re-commit (same arrival
    // index, keyed overwrite) so a kill right after the rejection doesn't
    // resurrect the counter at its pre-drop value.
    if (store_ != nullptr && config_.checkpoint_every > 0) {
      DOD_RETURN_IF_ERROR(CommitCheckpoint());
    }
    return Status::OutOfRange(
        "StreamingDetector::Ingest: block at ts " +
        std::to_string(block.timestamp) + " is behind the watermark " +
        std::to_string(prev_wm) + " (lateness " +
        std::to_string(config_.watermark.lateness) +
        "); rejected as late, window unchanged");
  }

  // Register the arrival: advance its source clock and park the block at
  // its canonical (timestamp, source, arrival) position. next_arrival_
  // ticks monotonically, so equal (ts, source) pairs keep arrival order.
  auto clock = wm_clocks_.find(block.source_id);
  if (clock == wm_clocks_.end()) {
    wm_clocks_.emplace(block.source_id, block.timestamp);
  } else if (block.timestamp > clock->second) {
    clock->second = block.timestamp;
  }
  if (!saw_arrival_ || block.timestamp > global_max_ts_) {
    global_max_ts_ = block.timestamp;
  }
  saw_arrival_ = true;
  PendingBlock pending;
  pending.arrival = next_arrival_++;
  pending.block = block;
  auto pos = std::upper_bound(
      reorder_.begin(), reorder_.end(), pending,
      [](const PendingBlock& a, const PendingBlock& b) {
        if (a.block.timestamp != b.block.timestamp) {
          return a.block.timestamp < b.block.timestamp;
        }
        return a.block.source_id < b.block.source_id;
      });
  reorder_.insert(pos, std::move(pending));
  pending_ids_.insert(block.ids.begin(), block.ids.end());
  ++arrivals_;

  double wm = 0.0;
  result.has_watermark = CurrentWatermark(&wm);
  if (result.has_watermark) {
    result.watermark = wm;
    if (!had_prev || wm > prev_wm) metrics.Increment(kAdvances);
    DOD_RETURN_IF_ERROR(DrainReorderBuffer(wm, &result));
  }
  result.buffered = reorder_.size();
  metrics.SetMax(kBuffered, static_cast<double>(reorder_.size()));
  metrics.SetMax(kSources, static_cast<double>(wm_clocks_.size()));

  // Checkpoint cadence counts arrivals, not rounds: the reorder buffer
  // changes on every accepted block, rounds only on admissions — a kill
  // mid-reorder must restore the parked blocks too.
  if (store_ != nullptr && config_.checkpoint_every > 0 &&
      arrivals_ % config_.checkpoint_every == 0) {
    DOD_RETURN_IF_ERROR(CommitCheckpoint());
  }
  return result;
}

Result<IngestResult> StreamingDetector::Flush() {
  IngestResult result;
  if (!config_.watermark.enabled) return result;
  result.has_watermark = CurrentWatermark(&result.watermark);
  if (reorder_.empty()) return result;
  DOD_RETURN_IF_ERROR(
      DrainReorderBuffer(std::numeric_limits<double>::infinity(), &result));
  if (store_ != nullptr && config_.checkpoint_every > 0) {
    DOD_RETURN_IF_ERROR(CommitCheckpoint());
  }
  return result;
}

std::string StreamingDetector::JobKey() const {
  // Everything that shapes window state and verdicts goes in; num_threads
  // and kernel mode stay out (resuming under either produces byte-identical
  // deltas, like the batch fingerprint).
  PayloadWriter w;
  w.F64(config_.params.radius);
  w.U64(static_cast<uint64_t>(config_.params.min_neighbors));
  w.U64(config_.params.seed);
  // The algorithm slot of the key's layout, fixed now that no detector is
  // configurable: stores written with the former default keep their key.
  w.U64(static_cast<uint64_t>(AlgorithmKind::kCellBased));
  w.U64(config_.window_blocks);
  w.F64(config_.window_seconds);
  w.F64(side_);
  w.U64(static_cast<uint64_t>(config_.grid_origin.dims()));
  for (int i = 0; i < config_.grid_origin.dims(); ++i) {
    w.F64(config_.grid_origin[i]);
  }
  w.String(config_.job_tag);
  // Folded in only when enabled so stores written before watermarks
  // existed (or by watermark-free runs) keep their byte-identical key.
  if (config_.watermark.enabled) {
    w.U8(1);
    w.F64(config_.watermark.lateness);
    w.F64(config_.watermark.idle_timeout);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(w.str())));
  return std::string("dod-stream-") + hex;
}

std::string StreamingDetector::JobKeyFor(const StreamingConfig& config) {
  return StreamingDetector(config).JobKey();
}

Status StreamingDetector::Checkpoint() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "StreamingDetector::Checkpoint: no checkpoint_dir configured");
  }
  return CommitCheckpoint();
}

Status StreamingDetector::CommitCheckpoint() {
  trace::Span span("durability", "stream_checkpoint");
  PayloadWriter w;
  w.U32(kStreamStateVersion);
  w.U64(round_);
  w.U64(next_seq_);
  w.U32(static_cast<uint32_t>(dims_));
  w.U8(1);  // has_summaries: every point's count follows its coordinates
  // Per-source windows, ascending source id (map order).
  w.U64(windows_.size());
  for (const auto& entry : windows_) {
    const SourceWindow& source = entry.second;
    w.U32(entry.first);
    w.U8(source.saw_timestamp ? 1 : 0);
    w.F64(source.high_water);
    w.U64(source.blocks.size());
    for (const WindowBlock& block : source.blocks) {
      w.U64(block.seq);
      w.F64(block.timestamp);
      w.U64(block.slots.size());
      for (uint32_t slot : block.slots) {
        w.U32(slots_[slot].stream_id);
        w.Raw((*window_)[slot], sizeof(double) * static_cast<size_t>(dims_));
        w.U32(slots_[slot].count);
        w.U8(slots_[slot].saturated);
      }
    }
  }
  w.U64(outliers_.size());
  for (PointId id : outliers_) w.U32(id);
  // Watermark/reorder section — written unconditionally (empty when the
  // policy is off) so the layout never depends on configuration.
  w.U64(arrivals_);
  w.U64(late_dropped_);
  w.U8(saw_arrival_ ? 1 : 0);
  w.F64(global_max_ts_);
  w.U64(next_arrival_);
  w.U64(wm_clocks_.size());
  for (const auto& entry : wm_clocks_) {
    w.U32(entry.first);
    w.F64(entry.second);
  }
  w.U64(reorder_.size());
  for (const PendingBlock& pending : reorder_) {
    w.U64(pending.arrival);
    w.U32(pending.block.source_id);
    w.F64(pending.block.timestamp);
    // Buffered blocks carry their own dims: the window may not have
    // admitted a non-empty block yet (dims_ == 0) while arrivals wait.
    const uint32_t block_dims =
        static_cast<uint32_t>(pending.block.points.dims());
    w.U32(block_dims);
    w.U64(pending.block.ids.size());
    for (size_t i = 0; i < pending.block.ids.size(); ++i) {
      w.U32(pending.block.ids[i]);
      w.Raw(pending.block.points[static_cast<PointId>(i)],
            sizeof(double) * block_dims);
    }
  }

  // Snapshot first, latest-pointer second: a crash between the two leaves
  // the previous commit's pointer intact and the orphan snapshot is dead
  // space, never torn state. Watermark mode keys the snapshot by arrival
  // (the buffer changes without rounds advancing); in-order mode keys by
  // round, as before.
  const uint64_t task_index = config_.watermark.enabled ? arrivals_ : round_;
  DOD_RETURN_IF_ERROR(
      store_->CommitTask("stream", static_cast<int>(task_index), w.str()));
  PayloadWriter latest;
  latest.U64(task_index);
  return store_->CommitTask("latest", 0, latest.str());
}

Status StreamingDetector::RestoreLatest() {
  if (!store_->HasTask("latest", 0)) return Status::Ok();  // fresh store
  DOD_ASSIGN_OR_RETURN(std::string latest_bytes,
                       store_->LoadTask("latest", 0));
  PayloadReader latest(latest_bytes);
  uint64_t task_index = 0;
  DOD_RETURN_IF_ERROR(latest.U64(&task_index));
  DOD_RETURN_IF_ERROR(latest.ExpectDone());
  DOD_ASSIGN_OR_RETURN(
      std::string bytes,
      store_->LoadTask("stream", static_cast<int>(task_index)));

  PayloadReader r(bytes);
  uint32_t version = 0;
  DOD_RETURN_IF_ERROR(r.U32(&version));
  if (version != kStreamStateVersion) {
    // Another writer's layout: refusing outright beats misparsing it. The
    // caller keeps the store intact for the build that wrote it.
    return Status::FailedPrecondition(
        "stream checkpoint version skew: snapshot version " +
        std::to_string(version) + ", this reader supports only version " +
        std::to_string(kStreamStateVersion));
  }
  DOD_RETURN_IF_ERROR(r.U64(&round_));
  DOD_RETURN_IF_ERROR(r.U64(&next_seq_));
  uint32_t dims = 0;
  DOD_RETURN_IF_ERROR(r.U32(&dims));
  if (dims > 0) DOD_RETURN_IF_ERROR(InitDims(static_cast<int>(dims)));
  uint8_t has_summaries = 0;
  DOD_RETURN_IF_ERROR(r.U8(&has_summaries));

  const auto read_blocks = [&](SourceWindow* source) -> Status {
    uint64_t num_blocks = 0;
    DOD_RETURN_IF_ERROR(r.U64(&num_blocks));
    for (uint64_t b = 0; b < num_blocks; ++b) {
      WindowBlock wb;
      DOD_RETURN_IF_ERROR(r.U64(&wb.seq));
      DOD_RETURN_IF_ERROR(r.F64(&wb.timestamp));
      uint64_t num_points = 0;
      DOD_RETURN_IF_ERROR(r.U64(&num_points));
      if (num_points > 0 && dims_ == 0) {
        return Status::IoError(
            "stream checkpoint: resident points in a window without dims");
      }
      double coords[kMaxDimensions];
      for (uint64_t i = 0; i < num_points; ++i) {
        uint32_t id = 0;
        DOD_RETURN_IF_ERROR(r.U32(&id));
        DOD_RETURN_IF_ERROR(
            r.Raw(coords, sizeof(double) * static_cast<size_t>(dims_)));
        if (!KeyInRange(coords, dims_)) {
          return Status::IoError(
              "stream checkpoint: resident coordinate outside the grid's "
              "cell range");
        }
        uint32_t count = 0;
        uint8_t saturated = 0;
        if (has_summaries) {
          DOD_RETURN_IF_ERROR(r.U32(&count));
          DOD_RETURN_IF_ERROR(r.U8(&saturated));
        }
        if (id_to_slot_.count(id) != 0) {
          return Status::IoError("stream checkpoint: duplicate resident id " +
                                 std::to_string(id));
        }
        const uint32_t slot = AllocSlot(id, coords);
        slots_[slot].count = count;
        slots_[slot].saturated = saturated != 0 ? 1 : 0;
        cells_[KeyOf(coords)].slots.push_back(slot);
        wb.slots.push_back(slot);
      }
      source->blocks.push_back(std::move(wb));
    }
    return Status::Ok();
  };

  uint64_t num_sources = 0;
  DOD_RETURN_IF_ERROR(r.U64(&num_sources));
  bool first_source = true;
  uint32_t prev_source = 0;
  for (uint64_t s = 0; s < num_sources; ++s) {
    uint32_t source_id = 0;
    DOD_RETURN_IF_ERROR(r.U32(&source_id));
    if (!first_source && source_id <= prev_source) {
      return Status::IoError(
          "stream checkpoint: source ids not strictly ascending");
    }
    first_source = false;
    prev_source = source_id;
    SourceWindow& source = windows_[source_id];
    uint8_t saw = 0;
    DOD_RETURN_IF_ERROR(r.U8(&saw));
    source.saw_timestamp = saw != 0;
    DOD_RETURN_IF_ERROR(r.F64(&source.high_water));
    DOD_RETURN_IF_ERROR(read_blocks(&source));
  }

  uint64_t num_outliers = 0;
  DOD_RETURN_IF_ERROR(r.U64(&num_outliers));
  outliers_.clear();
  for (uint64_t i = 0; i < num_outliers; ++i) {
    uint32_t id = 0;
    DOD_RETURN_IF_ERROR(r.U32(&id));
    auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end()) {
      return Status::IoError("stream checkpoint: flagged id " +
                             std::to_string(id) + " is not resident");
    }
    slots_[it->second].flagged = 1;
    outliers_.push_back(id);
  }
  if (!std::is_sorted(outliers_.begin(), outliers_.end())) {
    return Status::IoError("stream checkpoint: flagged ids not sorted");
  }

  DOD_RETURN_IF_ERROR(r.U64(&arrivals_));
  DOD_RETURN_IF_ERROR(r.U64(&late_dropped_));
  uint8_t saw_arrival = 0;
  DOD_RETURN_IF_ERROR(r.U8(&saw_arrival));
  saw_arrival_ = saw_arrival != 0;
  DOD_RETURN_IF_ERROR(r.F64(&global_max_ts_));
  DOD_RETURN_IF_ERROR(r.U64(&next_arrival_));
  uint64_t num_clocks = 0;
  DOD_RETURN_IF_ERROR(r.U64(&num_clocks));
  bool first_clock = true;
  uint32_t prev_clock = 0;
  for (uint64_t i = 0; i < num_clocks; ++i) {
    uint32_t source_id = 0;
    double clock = 0.0;
    DOD_RETURN_IF_ERROR(r.U32(&source_id));
    DOD_RETURN_IF_ERROR(r.F64(&clock));
    if ((!first_clock && source_id <= prev_clock) || !std::isfinite(clock)) {
      return Status::IoError(
          "stream checkpoint: malformed watermark clock record");
    }
    first_clock = false;
    prev_clock = source_id;
    wm_clocks_.emplace(source_id, clock);
  }
  uint64_t num_pending = 0;
  DOD_RETURN_IF_ERROR(r.U64(&num_pending));
  for (uint64_t i = 0; i < num_pending; ++i) {
    PendingBlock pending;
    DOD_RETURN_IF_ERROR(r.U64(&pending.arrival));
    uint32_t source_id = 0;
    double timestamp = 0.0;
    uint32_t block_dims = 0;
    uint64_t num_points = 0;
    DOD_RETURN_IF_ERROR(r.U32(&source_id));
    DOD_RETURN_IF_ERROR(r.F64(&timestamp));
    DOD_RETURN_IF_ERROR(r.U32(&block_dims));
    DOD_RETURN_IF_ERROR(r.U64(&num_points));
    if (!std::isfinite(timestamp) || block_dims < 1 ||
        block_dims > kMaxDimensions ||
        (dims_ != 0 && num_points > 0 &&
         block_dims != static_cast<uint32_t>(dims_))) {
      return Status::IoError(
          "stream checkpoint: malformed reorder-buffer record");
    }
    StreamBlock block(static_cast<int>(block_dims));
    block.timestamp = timestamp;
    block.source_id = source_id;
    double coords[kMaxDimensions];
    for (uint64_t p = 0; p < num_points; ++p) {
      uint32_t id = 0;
      DOD_RETURN_IF_ERROR(r.U32(&id));
      DOD_RETURN_IF_ERROR(
          r.Raw(coords, sizeof(double) * static_cast<size_t>(block_dims)));
      if (!KeyInRange(coords, static_cast<int>(block_dims))) {
        return Status::IoError(
            "stream checkpoint: non-finite or out-of-range reorder-buffer "
            "coordinate");
      }
      if (id_to_slot_.count(id) != 0 || pending_ids_.count(id) != 0) {
        return Status::IoError(
            "stream checkpoint: duplicate reorder-buffer id " +
            std::to_string(id));
      }
      pending_ids_.insert(id);
      block.Add(id, coords);
    }
    if (pending.arrival >= next_arrival_) {
      return Status::IoError(
          "stream checkpoint: reorder-buffer arrival sequence skew");
    }
    pending.block = std::move(block);
    reorder_.push_back(std::move(pending));
  }
  // Re-establish the canonical (timestamp, source, arrival) order
  // instead of trusting record order — a hostile snapshot must not be
  // able to force an out-of-order admission.
  std::sort(reorder_.begin(), reorder_.end(),
            [](const PendingBlock& a, const PendingBlock& b) {
              if (a.block.timestamp != b.block.timestamp) {
                return a.block.timestamp < b.block.timestamp;
              }
              if (a.block.source_id != b.block.source_id) {
                return a.block.source_id < b.block.source_id;
              }
              return a.arrival < b.arrival;
            });
  DOD_RETURN_IF_ERROR(r.ExpectDone());

  if (has_summaries != 0) {
    // Cross-validate the restored summaries against the flagged set: a
    // saturated bound never sits below k at a round boundary, and a point
    // is flagged exactly when its exact count is below k.
    const uint32_t k = static_cast<uint32_t>(config_.params.min_neighbors);
    for (const auto& entry : id_to_slot_) {
      const SlotState& state = slots_[entry.second];
      const bool valid = state.saturated != 0
                             ? state.count >= k && state.flagged == 0
                             : (state.count < k) == (state.flagged != 0);
      if (!valid) {
        return Status::IoError("stream checkpoint: summary for id " +
                               std::to_string(state.stream_id) +
                               " is inconsistent with its verdict");
      }
    }
  } else {
    // Summary-less snapshot (written by a build running rounds by
    // re-detection): rebuild every resident count deterministically.
    DOD_RETURN_IF_ERROR(RebuildSummaries());
  }

  MetricsRegistry& metrics = MetricsRegistry::Global();
  static const uint32_t kRestored =
      metrics.Id("stream.rounds_restored", MetricKind::kCounter);
  metrics.Increment(kRestored, round_);
  return Status::Ok();
}

}  // namespace dod
