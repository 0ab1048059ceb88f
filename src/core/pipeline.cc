// Copyright 2026 The DOD Authors.

#include "core/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/distance.h"
#include "common/timer.h"
#include "detection/brute_force.h"
#include "detection/cell_based.h"
#include "detection/partition_view.h"
#include "durability/checkpoint.h"
#include "durability/memory_budget.h"
#include "durability/payload.h"
#include "durability/run_control.h"
#include "kernels/distance_kernels.h"
#include "kernels/soa_block.h"
#include "mapreduce/job.h"
#include "observability/metrics.h"
#include "observability/profile.h"
#include "observability/trace.h"

namespace dod {
namespace {

// Job counter charged with an algorithm's distance evaluations; diffing it
// around a detector call isolates the call's evaluations (groups within a
// reduce task run sequentially, so the diff sees only this cell).
const char* EvalCounterName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kNestedLoop:
      return "nested_loop.distance_evals";
    case AlgorithmKind::kCellBased:
      return "cell_based.distance_evals";
    case AlgorithmKind::kBruteForce:
      return "brute_force.distance_evals";
  }
  return "";
}

// Registry histograms fed by the detection reducers. Observations happen
// per executed attempt (a retried attempt observes again), which is still
// deterministic because the attempt schedule is a pure function of the
// fault-injection seed.
void RecordPartitionMetrics(const PartitionProfile& profile) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static const uint32_t kCore = metrics.Id("detect.partition_core_points",
                                           MetricKind::kHistogram);
  static const uint32_t kSupport = metrics.Id(
      "detect.partition_support_points", MetricKind::kHistogram);
  static const uint32_t kSeconds =
      metrics.Id("detect.cell_seconds", MetricKind::kHistogram);
  metrics.Observe(kCore, static_cast<double>(profile.core_points));
  metrics.Observe(kSupport, static_cast<double>(profile.support_points));
  metrics.Observe(kSeconds, profile.measured_seconds);
}

// Shuffle value of the detection job: one point reference with the core /
// support tag of Fig. 3 ("0-p" / "1-p") bit-packed into a single word —
// bit 31 carries the tag, the low 31 bits the point id. Half the in-memory
// footprint of the old {id, bool} struct, and the whole (cell, value)
// shuffle pair packs into 8 bytes.
using TaggedWord = uint32_t;

constexpr TaggedWord kSupportFlag = 0x80000000u;
static_assert(kMaxPipelinePoints == kSupportFlag,
              "every point id must fit below the tag bit");

TaggedWord PackTagged(PointId id, bool support) {
  DOD_CHECK((id & kSupportFlag) == 0);  // ids fit in 31 bits
  return id | (support ? kSupportFlag : 0u);
}
PointId TaggedId(TaggedWord word) { return word & ~kSupportFlag; }
bool TaggedSupport(TaggedWord word) { return (word & kSupportFlag) != 0; }

// Per-cell deterministic seed for the detectors' randomized probe order.
uint64_t CellSeed(uint64_t base, uint32_t cell) {
  return base ^ (0x9E3779B97F4A7C15ULL * (cell + 1));
}

// The arena draws each cell's probe-segment permutation from a stream
// salted with this constant: the detector draws its start offsets from
// CellSeed directly, and starts drawn from the same stream that produced
// the permutation would correlate with the slot order they index into.
constexpr uint64_t kArenaSeedSalt = 0xA5C3D2E1F0B49687ULL;

// Wire size of one shuffled record: coordinates + tag + cell id.
size_t DetectRecordBytes(int dims) {
  return sizeof(double) * static_cast<size_t>(dims) + 1 + sizeof(uint32_t);
}

// Map side of the detection job (Fig. 3's map function): route each point
// of the split's block to its core cell and its supporting cells. Splits
// run concurrently on one shared mapper instance, so routing scratch lives
// on the stack of each Map call.
class DetectMapper : public Mapper<uint32_t, TaggedWord> {
 public:
  DetectMapper(const BlockStore& store, const PartitionRouter& router,
               bool emit_support)
      : store_(store), router_(router), emit_support_(emit_support) {}

  Status Map(size_t split_index, Emitter<uint32_t, TaggedWord>& out) override {
    const Dataset& data = store_.dataset();
    std::vector<uint32_t> support_cells;
    for (PointId id : store_.block(split_index)) {
      const double* p = data[id];
      if (!emit_support_) {
        out.Emit(router_.RouteCore(p), PackTagged(id, false));
        continue;
      }
      support_cells.clear();
      out.Emit(router_.Route(p, &support_cells), PackTagged(id, false));
      for (uint32_t cell : support_cells) {
        out.Emit(cell, PackTagged(id, true));
      }
    }
    return Status::Ok();
  }

 private:
  const BlockStore& store_;
  const PartitionRouter& router_;
  bool emit_support_;
};

// All candidate detectors, built eagerly so concurrent reduce tasks can
// share them without synchronization (DetectOutliers is const/stateless).
class DetectorSet {
 public:
  DetectorSet() {
    for (size_t k = 0; k < 3; ++k) {
      detectors_[k] = MakeDetector(static_cast<AlgorithmKind>(k));
    }
  }
  const Detector& For(AlgorithmKind kind) const {
    return *detectors_[static_cast<size_t>(kind)];
  }

 private:
  std::unique_ptr<Detector> detectors_[3];
};

// Reduce side when supporting areas are on: verdicts are final.
//
// Task-at-a-time: every cell of the reduce task stages into one TaskArena
// — ids first, then a single shared SoA probe build covering all cells —
// and each cell is then detected through its zero-copy PartitionView. No
// per-cell Dataset is materialized and no per-cell probe buffer is built;
// the arena lives on this attempt's stack, keeping the reducer stateless
// across concurrent tasks.
class DetectReducer : public Reducer<uint32_t, TaggedWord, PointId> {
 public:
  // `control` / `memory` (optional, borrowed): per-cell deadline and
  // cancellation checks, and the budget the task arena charges against.
  DetectReducer(const Dataset& data, const MultiTacticPlan& plan,
                const DetectionParams& params, PartitionProfiler* profiler,
                const RunControl* control, MemoryBudget* memory)
      : data_(data),
        plan_(plan),
        params_(params),
        profiler_(profiler),
        control_(control),
        memory_(memory) {}

  Status Reduce(const GroupedView<uint32_t, TaggedWord>& groups,
                std::vector<PointId>& out, Counters& counters) override {
    // Stage every cell's partition: core points first, then support points
    // (the same local ordering the per-cell gathering used to produce).
    TaskArena arena(data_, memory_);
    DOD_RETURN_IF_ERROR(
        arena.TryReserve(groups.num_groups(), groups.num_records()));
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      const size_t group_size = groups.size(g);
      arena.BeginCell();
      size_t num_core = 0;
      for (size_t i = 0; i < group_size; ++i) {
        const TaggedWord record = groups.value(g, i);
        if (!TaggedSupport(record)) {
          arena.AddPoint(TaggedId(record));
          ++num_core;
        }
      }
      for (size_t i = 0; i < group_size; ++i) {
        const TaggedWord record = groups.value(g, i);
        if (TaggedSupport(record)) arena.AddPoint(TaggedId(record));
      }
      arena.EndCell(num_core,
                    CellSeed(params_.seed, groups.key(g)) ^ kArenaSeedSalt);
    }
    DOD_RETURN_IF_ERROR(arena.TryBuildProbes());

    for (size_t g = 0; g < groups.num_groups(); ++g) {
      // Cell granularity: a fired deadline or cancellation stops between
      // cells, not mid-kernel, so the abort latency is one cell's work.
      if (control_ != nullptr) DOD_RETURN_IF_ERROR(control_->Check());
      const uint32_t cell = groups.key(g);
      const PartitionView view = arena.View(g);
      const size_t num_core = view.num_core();

      const AlgorithmKind algorithm = plan_.algorithm_plan[cell];
      PartitionProfile profile;
      profile.cell = cell;
      profile.algorithm = AlgorithmKindName(algorithm);
      profile.core_points = num_core;
      profile.support_points = view.size() - num_core;
      profile.area = plan_.partition_plan.cell(cell).bounds.Area();
      profile.density = profile.area > 0.0
                            ? static_cast<double>(num_core) / profile.area
                            : 0.0;
      profile.predicted_cost = cell < plan_.estimated_cost.size()
                                   ? plan_.estimated_cost[cell]
                                   : 0.0;

      if (num_core > 0) {
        trace::Span span("detect", "cell");
        span.Arg("cell", cell)
            .Arg("algorithm", profile.algorithm.c_str())
            .Arg("core", num_core)
            .Arg("support", profile.support_points);
        const char* eval_counter = EvalCounterName(algorithm);
        const uint64_t evals_before = counters.Get(eval_counter);
        StopWatch detect_watch;
        const Detector& detector = detectors_.For(algorithm);
        DetectionParams params = params_;
        params.seed = CellSeed(params_.seed, cell);
        const std::vector<uint32_t> local =
            detector.DetectOutliers(view, params, &counters);
        profile.measured_seconds = detect_watch.ElapsedSeconds();
        profile.measured_distance_evals =
            counters.Get(eval_counter) - evals_before;
        for (uint32_t index : local) out.push_back(view.id(index));
        counters.Increment(std::string("cells.") +
                           AlgorithmKindName(algorithm));
      }
      if (profiler_ != nullptr) profiler_->Record(profile);
      RecordPartitionMetrics(profile);
    }
    return Status::Ok();
  }

 private:
  const Dataset& data_;
  const MultiTacticPlan& plan_;
  const DetectionParams& params_;
  PartitionProfiler* profiler_;
  const RunControl* control_;
  MemoryBudget* memory_;
  DetectorSet detectors_;
};

// A locally-detected outlier of the Domain baseline: a candidate until the
// verification job has seen the points of neighboring cells.
struct Candidate {
  PointId id = 0;
  // Neighbors found inside the candidate's own cell (< k by construction).
  int32_t partial = 0;
};

// Reduce side without supporting areas (Domain baseline job 1): detect
// locally; inlier verdicts are final, outliers become candidates carrying
// their partial neighbor counts. Task-at-a-time like DetectReducer: one
// shared probe arena per task, zero-copy views per cell, and the partial
// neighbor counts come off the cell's probe segment with the kernels
// (cap-free, so the counts stay exact).
class DomainDetectReducer : public Reducer<uint32_t, TaggedWord, Candidate> {
 public:
  DomainDetectReducer(const Dataset& data, const MultiTacticPlan& plan,
                      const DetectionParams& params,
                      PartitionProfiler* profiler, const RunControl* control,
                      MemoryBudget* memory)
      : data_(data),
        plan_(plan),
        params_(params),
        profiler_(profiler),
        control_(control),
        memory_(memory) {}

  Status Reduce(const GroupedView<uint32_t, TaggedWord>& groups,
                std::vector<Candidate>& out, Counters& counters) override {
    // Without supporting areas every shipped point is core.
    TaskArena arena(data_, memory_);
    DOD_RETURN_IF_ERROR(
        arena.TryReserve(groups.num_groups(), groups.num_records()));
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      const size_t group_size = groups.size(g);
      arena.BeginCell();
      for (size_t i = 0; i < group_size; ++i) {
        arena.AddPoint(TaggedId(groups.value(g, i)));
      }
      arena.EndCell(group_size,
                    CellSeed(params_.seed, groups.key(g)) ^ kArenaSeedSalt);
    }
    DOD_RETURN_IF_ERROR(arena.TryBuildProbes());

    const double sq_radius = params_.radius * params_.radius;
    const KernelOps& ops = GetKernelOps(params_.kernels);
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      if (control_ != nullptr) DOD_RETURN_IF_ERROR(control_->Check());
      const uint32_t cell = groups.key(g);
      const PartitionView view = arena.View(g);
      const AlgorithmKind algorithm = plan_.algorithm_plan[cell];
      PartitionProfile profile;
      profile.cell = cell;
      profile.algorithm = AlgorithmKindName(algorithm);
      profile.core_points = view.size();
      profile.area = plan_.partition_plan.cell(cell).bounds.Area();
      profile.density = profile.area > 0.0
                            ? static_cast<double>(view.size()) / profile.area
                            : 0.0;
      profile.predicted_cost = cell < plan_.estimated_cost.size()
                                   ? plan_.estimated_cost[cell]
                                   : 0.0;
      trace::Span span("detect", "cell");
      span.Arg("cell", cell)
          .Arg("algorithm", profile.algorithm.c_str())
          .Arg("core", view.size());
      const char* eval_counter = EvalCounterName(algorithm);
      const uint64_t evals_before = counters.Get(eval_counter);
      StopWatch detect_watch;
      const Detector& detector = detectors_.For(algorithm);
      DetectionParams params = params_;
      params.seed = CellSeed(params_.seed, cell);
      const std::vector<uint32_t> local =
          detector.DetectOutliers(view, params, &counters);
      profile.measured_seconds = detect_watch.ElapsedSeconds();
      profile.measured_distance_evals =
          counters.Get(eval_counter) - evals_before;
      if (profiler_ != nullptr) profiler_->Record(profile);
      RecordPartitionMetrics(profile);

      // Exact partial neighbor count for each candidate (bounded by k).
      for (uint32_t index : local) {
        uint64_t ignored = 0;
        const int32_t partial = static_cast<int32_t>(ops.count_within_radius(
            view.probes(), view.probe_begin(), view.probe_end(),
            view.point(index), sq_radius, /*skip_id=*/index, /*cap=*/-1,
            &ignored));
        out.push_back(Candidate{view.id(index), partial});
      }
      counters.Increment("domain.candidates", local.size());
    }
    return Status::Ok();
  }

 private:
  const Dataset& data_;
  const MultiTacticPlan& plan_;
  const DetectionParams& params_;
  PartitionProfiler* profiler_;
  const RunControl* control_;
  MemoryBudget* memory_;
  DetectorSet detectors_;
};

// Shuffle record of the verification job: point id and candidate flag
// bit-packed into one word, plus the partial neighbor count candidates
// carry (zero for border points).
struct VerifyRecord {
  TaggedWord word = 0;
  int32_t partial = 0;
};

// Wire size of one verification record: coordinates + cell id + candidate
// flag, plus the partial neighbor count candidates carry. Variable-size —
// this is what the engine's per-record size callback accounts for.
size_t VerifyRecordBytes(int dims, const VerifyRecord& record) {
  return sizeof(double) * static_cast<size_t>(dims) + sizeof(uint32_t) + 1 +
         (TaggedSupport(record.word) ? sizeof(int32_t) : 0);
}

// Prepends job context to a task failure bubbling out of RunMapReduce.
Status AnnotateJobError(const char* job, const Status& status) {
  return Status(status.code(), std::string(job) + ": " + status.message());
}

// Profile rows ride the reduce-task checkpoints: a resumed run skips the
// committed tasks entirely, so the per-partition profiles those tasks
// recorded (part of JobStats::partition_profiles, i.e. of the output) can
// only come back from the payload.
void WriteProfile(const PartitionProfile& profile, PayloadWriter& writer) {
  writer.U32(profile.cell);
  writer.String(profile.algorithm);
  writer.U64(profile.core_points);
  writer.U64(profile.support_points);
  writer.F64(profile.area);
  writer.F64(profile.density);
  writer.F64(profile.predicted_cost);
  writer.U64(profile.measured_distance_evals);
  writer.F64(profile.measured_seconds);
}

Status ReadProfile(PayloadReader& reader, PartitionProfile* profile) {
  DOD_RETURN_IF_ERROR(reader.U32(&profile->cell));
  DOD_RETURN_IF_ERROR(reader.String(&profile->algorithm));
  DOD_RETURN_IF_ERROR(reader.U64(&profile->core_points));
  DOD_RETURN_IF_ERROR(reader.U64(&profile->support_points));
  DOD_RETURN_IF_ERROR(reader.F64(&profile->area));
  DOD_RETURN_IF_ERROR(reader.F64(&profile->density));
  DOD_RETURN_IF_ERROR(reader.F64(&profile->predicted_cost));
  DOD_RETURN_IF_ERROR(reader.U64(&profile->measured_distance_evals));
  DOD_RETURN_IF_ERROR(reader.F64(&profile->measured_seconds));
  return Status::Ok();
}

// Job key guarding resume: checkpoints written under a different
// configuration or dataset shape must be refused, or the engine would
// splice incompatible partial outputs. Everything that shapes the task
// outputs goes in; num_threads deliberately stays out (resuming on a
// different thread count is supported and byte-identical), and so does the
// fault spec (the resumed run typically disables the crash that created
// the checkpoints). The spill policy also stays out: spilled and
// in-memory shuffles commit byte-identical outputs, so resuming with a
// different --spill_dir/--spill_threshold_mb is supported.
std::string ConfigFingerprint(const DodConfig& config, const Dataset& data) {
  PayloadWriter w;
  w.String(config.Label());
  w.F64(config.params.radius);
  w.U64(static_cast<uint64_t>(config.params.min_neighbors));
  w.U64(config.seed);
  w.U64(static_cast<uint64_t>(config.shuffle));
  w.U64(static_cast<uint64_t>(config.num_reduce_tasks));
  w.U64(config.num_blocks);
  w.U64(config.target_partitions);
  w.U64(data.size());
  w.U64(static_cast<uint64_t>(data.dims()));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(w.str())));
  return std::string("dod-") + hex;
}

// Map side of the verification job: every point is shipped to the
// neighboring cells whose r-extension contains it — exactly the supporting
// points the first job skipped. The mappers of this second job run with no
// knowledge of where job 1 found candidates (shared-nothing: there is no
// cross-job coordination channel), so the border replication is
// unconditional; this re-reading and re-distribution is what makes the
// Domain baseline a multi-job solution with "prohibitive costs" (Sec. I).
// The first split additionally re-emits the candidates (a small side
// input) to their home cells.
class VerifyMapper : public Mapper<uint32_t, VerifyRecord> {
 public:
  VerifyMapper(const BlockStore& store, const PartitionRouter& router,
               const std::vector<Candidate>& candidates)
      : store_(store), router_(router), candidates_(candidates) {}

  Status Map(size_t split_index,
             Emitter<uint32_t, VerifyRecord>& out) override {
    const Dataset& data = store_.dataset();
    if (split_index == 0) {
      for (const Candidate& candidate : candidates_) {
        out.Emit(router_.RouteCore(data[candidate.id]),
                 VerifyRecord{PackTagged(candidate.id, true),
                              candidate.partial});
      }
    }
    std::vector<uint32_t> support_cells;
    for (PointId id : store_.block(split_index)) {
      const double* p = data[id];
      support_cells.clear();
      router_.Route(p, &support_cells);
      for (uint32_t cell : support_cells) {
        out.Emit(cell, VerifyRecord{PackTagged(id, false), 0});
      }
    }
    return Status::Ok();
  }

 private:
  const BlockStore& store_;
  const PartitionRouter& router_;
  const std::vector<Candidate>& candidates_;
};

// Reduce side of the verification job: count the candidates' remaining
// neighbors among the shipped border points. The border points of every
// cell in the task stage into one shared probe arena; each candidate then
// takes a capped kernel count against its cell's segment (capped at the
// verdict threshold — the verdict is identical to the per-pair scan with
// early exit it replaces).
class VerifyReducer : public Reducer<uint32_t, VerifyRecord, PointId> {
 public:
  VerifyReducer(const Dataset& data, const DetectionParams& params,
                const RunControl* control, MemoryBudget* memory)
      : data_(data), params_(params), control_(control), memory_(memory) {}

  Status Reduce(const GroupedView<uint32_t, VerifyRecord>& groups,
                std::vector<PointId>& out, Counters& counters) override {
    // Split each group into its candidates and its border points; only the
    // border points go into the arena (they are the only probe targets).
    TaskArena arena(data_, memory_);
    DOD_RETURN_IF_ERROR(
        arena.TryReserve(groups.num_groups(), groups.num_records()));
    std::vector<Candidate> candidates;
    std::vector<size_t> candidate_offsets;
    candidate_offsets.reserve(groups.num_groups() + 1);
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      candidate_offsets.push_back(candidates.size());
      const size_t group_size = groups.size(g);
      arena.BeginCell();
      size_t border = 0;
      for (size_t i = 0; i < group_size; ++i) {
        const VerifyRecord& record = groups.value(g, i);
        if (TaggedSupport(record.word)) {
          candidates.push_back(
              Candidate{TaggedId(record.word), record.partial});
        } else {
          arena.AddPoint(TaggedId(record.word));
          ++border;
        }
      }
      arena.EndCell(border,
                    CellSeed(params_.seed, groups.key(g)) ^ kArenaSeedSalt);
    }
    candidate_offsets.push_back(candidates.size());
    DOD_RETURN_IF_ERROR(arena.TryBuildProbes());

    const double sq_radius = params_.radius * params_.radius;
    const KernelOps& ops = GetKernelOps(params_.kernels);
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      if (control_ != nullptr) DOD_RETURN_IF_ERROR(control_->Check());
      const PartitionView view = arena.View(g);
      for (size_t c = candidate_offsets[g]; c < candidate_offsets[g + 1];
           ++c) {
        const Candidate& candidate = candidates[c];
        int neighbors = candidate.partial;
        if (neighbors < params_.min_neighbors && !view.empty()) {
          uint64_t ignored = 0;
          // A candidate never appears among its own cell's border points
          // (support routing excludes the home cell), so no slot needs
          // skipping.
          neighbors += ops.count_within_radius(
              view.probes(), view.probe_begin(), view.probe_end(),
              data_[candidate.id], sq_radius, /*skip_id=*/kSoaInvalidId,
              params_.min_neighbors - neighbors, &ignored);
        }
        if (neighbors < params_.min_neighbors) {
          out.push_back(candidate.id);
        } else {
          counters.Increment("domain.rescued_candidates");
        }
      }
    }
    return Status::Ok();
  }

 private:
  const Dataset& data_;
  const DetectionParams& params_;
  const RunControl* control_;
  MemoryBudget* memory_;
};

// InvalidArgument when Cell-Based can run — DMT may pick it for any
// partition, the baselines when it is the fixed detector — and the domain
// is too many cells wide for the grid's int32 cell coordinates. A
// partition's grid origin is its lower bound, so a cell index reaches
// extent / side, and the neighbor walk adds CellBasedNeighborRings more.
// The streaming service refuses the same points at Feed.
Status CheckCellGridRange(const DodConfig& config, const Rect& domain) {
  if (config.strategy != StrategyKind::kDmt &&
      config.fixed_algorithm != AlgorithmKind::kCellBased) {
    return Status::Ok();
  }
  const int dims = domain.dims();
  const double side = CellBasedCellSide(config.params.radius, dims);
  const double limit =
      static_cast<double>(std::numeric_limits<int32_t>::max()) -
      CellBasedNeighborRings(dims);
  for (int d = 0; d < dims; ++d) {
    const double cells = domain.Extent(d) / side;
    if (!(cells < limit)) {
      char message[256];
      std::snprintf(message, sizeof(message),
                    "DodPipeline::Run: radius %g makes dimension %d span "
                    "%.3g Cell-Based grid cells, more than the grid's int32 "
                    "cell coordinates hold; raise the radius or rescale the "
                    "data",
                    config.params.radius, d, cells);
      return Status::InvalidArgument(message);
    }
  }
  return Status::Ok();
}

}  // namespace

Status CheckPipelinePointCount(size_t num_points) {
  if (num_points == 0) {
    return Status::InvalidArgument(
        "DodPipeline::Run: dataset is empty — nothing to detect on");
  }
  if (num_points > kMaxPipelinePoints) {
    return Status::InvalidArgument(
        "DodPipeline::Run: dataset has " + std::to_string(num_points) +
        " points, more than the " + std::to_string(kMaxPipelinePoints) +
        " a 31-bit shuffle id can address");
  }
  return Status::Ok();
}

Result<DodResult> DodPipeline::Run(const Dataset& data) const {
  return Run(data, nullptr);
}

Result<DodResult> DodPipeline::Run(const Dataset& data,
                                   RunDiagnostics* diagnostics) const {
  DOD_RETURN_IF_ERROR(CheckPipelinePointCount(data.size()));
  const DodConfig& config = config_;
  const Rect domain = data.Bounds();
  DOD_RETURN_IF_ERROR(CheckCellGridRange(config, domain));
  StopWatch wall;
  DodResult result;
  trace::Span run_span("pipeline", "run");
  run_span.Arg("config", config.Label().c_str())
      .Arg("points", static_cast<uint64_t>(data.size()));

  // The deadline clock starts here and covers preprocessing and every job;
  // the budget bounds arena and shuffle-scratch allocations across both
  // jobs (0 = unlimited, accounting still feeds the peak gauge).
  const RunControl control =
      RunControl::WithDeadline(config.deadline_seconds, config.cancel_token);
  MemoryBudget memory(config.memory_budget_mb * (1024ull * 1024ull));
  const RunControl* control_ptr = control.active() ? &control : nullptr;

  // ---- Preprocessing job -------------------------------------------------
  // Distribution estimation (sampling map tasks) + plan generation (single
  // reducer). Domain / uniSpace need no statistics — only the domain
  // bounds, which come from dataset metadata — so their preprocessing time
  // is zero, matching Fig. 10(a).
  BlockStore store(data, config.num_blocks, config.seed ^ 0xB10C);

  const bool needs_sketch = config.strategy == StrategyKind::kDDriven ||
                            config.strategy == StrategyKind::kCDriven ||
                            config.strategy == StrategyKind::kDmt;
  const double sampling_rate =
      EffectiveSamplingRate(config.sampler, data.size());
  DistributionSketch sketch{
      MiniBucketGrid(domain,
                     EffectiveBucketsPerDim(config.sampler, data.size())),
      sampling_rate, 0};
  double preprocess_seconds = 0.0;
  if (needs_sketch) {
    // The sampling map tasks scan the full input once; charge the HDFS
    // read like any other map stage.
    trace::Span sample_span("pipeline", "sample");
    sample_span.Arg("blocks", static_cast<uint64_t>(store.num_blocks()));
    const double read_bytes_per_second =
        config.cluster.disk_read_mbps_per_slot * 1e6;
    std::vector<double> sample_task_seconds;
    Rng sample_rng(config.sampler.seed ^ config.seed);
    for (size_t b = 0; b < store.num_blocks(); ++b) {
      if (control_ptr != nullptr) DOD_RETURN_IF_ERROR(control_ptr->Check());
      StopWatch task;
      sketch.sample_size += SampleBlockInto(data, store.block(b),
                                            sampling_rate, sample_rng,
                                            &sketch.grid);
      sample_task_seconds.push_back(
          task.ElapsedSeconds() +
          store.block(b).size() * store.BytesPerRecord() /
              read_bytes_per_second);
    }
    preprocess_seconds +=
        Makespan(sample_task_seconds, config.cluster.map_slots());
    sample_span.Arg("sample_size", sketch.sample_size);
  }

  StopWatch plan_watch;
  {
    trace::Span plan_span("pipeline", "plan");
    result.plan = BuildMultiTacticPlan(sketch, config);
    plan_span.Arg("partitions", static_cast<uint64_t>(
                                    result.plan.partition_plan.num_cells()));
  }
  preprocess_seconds += plan_watch.ElapsedSeconds();
  result.breakdown.preprocess_seconds = preprocess_seconds;

  {
    MetricsRegistry& metrics = MetricsRegistry::Global();
    static const uint32_t kRuns =
        metrics.Id("pipeline.runs", MetricKind::kCounter);
    static const uint32_t kPartitions =
        metrics.Id("pipeline.partitions", MetricKind::kGauge);
    static const uint32_t kPreprocess =
        metrics.Id("pipeline.preprocess_seconds", MetricKind::kHistogram);
    metrics.Increment(kRuns);
    metrics.SetMax(kPartitions, static_cast<double>(
                                    result.plan.partition_plan.num_cells()));
    metrics.Observe(kPreprocess, preprocess_seconds);
  }

  // Plan generation can be slow on large sketches; give the deadline a
  // checkpoint between preprocessing and the jobs.
  if (control_ptr != nullptr) DOD_RETURN_IF_ERROR(control_ptr->Check());

  const PartitionRouter router(result.plan.partition_plan);
  const std::vector<int>& allocation = result.plan.allocation;
  // The allocation plan (Fig. 6, Step 3) as the jobs' partition function.
  const auto partition = [&allocation](const uint32_t& cell) {
    DOD_CHECK(cell < allocation.size());
    return allocation[cell];
  };

  // One checkpoint store per job: the detection and verification jobs use
  // the same task indices, so their records must not share a directory.
  // The fingerprint refuses resume across configurations (see
  // ConfigFingerprint).
  std::unique_ptr<CheckpointStore> detect_store;
  std::unique_ptr<CheckpointStore> verify_store;
  if (!config.checkpoint_dir.empty()) {
    const std::string job_key = ConfigFingerprint(config, data);
    DOD_ASSIGN_OR_RETURN(
        detect_store,
        CheckpointStore::Open(config.checkpoint_dir + "/detect", job_key,
                              config.resume));
    if (!result.plan.uses_supporting_area) {
      DOD_ASSIGN_OR_RETURN(
          verify_store,
          CheckpointStore::Open(config.checkpoint_dir + "/verify", job_key,
                                config.resume));
    }
  }

  JobSpec spec;
  spec.num_reduce_tasks = config.num_reduce_tasks;
  spec.num_threads = config.num_threads;
  spec.cluster = config.cluster;
  spec.faults = config.faults;
  spec.retry = config.retry;
  spec.shuffle = config.shuffle;
  spec.spill.dir = config.spill_dir;
  spec.spill.threshold_bytes = config.spill_threshold_mb * (uint64_t{1} << 20);
  spec.resume = config.resume;
  spec.control = control_ptr;
  spec.memory = &memory;
  spec.split_input_bytes.reserve(store.num_blocks());
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    spec.split_input_bytes.push_back(store.block(b).size() *
                                     store.BytesPerRecord());
  }
  const size_t record_bytes = DetectRecordBytes(data.dims());
  const int dims = data.dims();

  // ---- Detection job ------------------------------------------------------
  // The reducers record one predicted-vs-measured profile per reduced cell;
  // keyed by cell, so retried attempts overwrite instead of duplicating.
  PartitionProfiler profiler;

  // The detection job's checkpoint payloads carry the profile rows of the
  // task's cells alongside the engine-owned output (the rows feed
  // JobStats::partition_profiles, so a resumed run must recover them). The
  // cells of reduce task `index` are exactly the ones the allocation plan
  // assigned to it.
  JobSpec detect_spec = spec;
  detect_spec.checkpoint = detect_store.get();
  if (diagnostics != nullptr) {
    detect_spec.partial_stats = &diagnostics->detect_stats;
  }
  detect_spec.checkpoint_extra = [&profiler, &allocation](
                                     TaskPhase phase, int index,
                                     PayloadWriter& writer) {
    if (phase != TaskPhase::kReduce) return;  // map tasks record no profiles
    std::vector<PartitionProfile> rows;
    for (uint32_t cell = 0; cell < allocation.size(); ++cell) {
      PartitionProfile profile;
      if (allocation[cell] == index && profiler.Get(cell, &profile)) {
        rows.push_back(std::move(profile));
      }
    }
    writer.U64(rows.size());
    for (const PartitionProfile& row : rows) WriteProfile(row, writer);
  };
  detect_spec.restore_extra = [&profiler](TaskPhase phase, int /*index*/,
                                          PayloadReader& reader) -> Status {
    if (phase != TaskPhase::kReduce) return Status::Ok();
    uint64_t count = 0;
    DOD_RETURN_IF_ERROR(reader.U64(&count));
    for (uint64_t i = 0; i < count; ++i) {
      PartitionProfile profile;
      DOD_RETURN_IF_ERROR(ReadProfile(reader, &profile));
      // Re-observing the registry histograms keeps the metric totals
      // consistent with a run that executed the task (the profiles are
      // output; the histograms are their observability mirror).
      RecordPartitionMetrics(profile);
      profiler.Record(profile);
    }
    return Status::Ok();
  };

  if (result.plan.uses_supporting_area) {
    trace::Span job_span("pipeline", "detect_job");
    DetectMapper mapper(store, router, /*emit_support=*/true);
    DetectReducer reducer(data, result.plan, config.params, &profiler,
                          control_ptr, &memory);
    Result<JobOutput<PointId>> job =
        RunMapReduce<uint32_t, TaggedWord, PointId>(
            store.num_blocks(), mapper, reducer, partition, detect_spec,
            record_bytes);
    if (!job.ok()) return AnnotateJobError("detection job", job.status());
    result.outliers = std::move(job.value().output);
    result.detect_stats = std::move(job.value().stats);
    result.breakdown.detect = result.detect_stats.stage_times;
  } else {
    // Domain baseline: job 1 detects locally, job 2 verifies candidates.
    trace::Span job_span("pipeline", "detect_job");
    DetectMapper mapper(store, router, /*emit_support=*/false);
    DomainDetectReducer reducer(data, result.plan, config.params, &profiler,
                                control_ptr, &memory);
    Result<JobOutput<Candidate>> job =
        RunMapReduce<uint32_t, TaggedWord, Candidate>(
            store.num_blocks(), mapper, reducer, partition, detect_spec,
            record_bytes);
    if (!job.ok()) return AnnotateJobError("detection job", job.status());
    result.detect_stats = std::move(job.value().stats);
    result.breakdown.detect = result.detect_stats.stage_times;

    trace::Span verify_span("pipeline", "verify_job");
    JobSpec verify_spec = spec;
    verify_spec.checkpoint = verify_store.get();
    if (diagnostics != nullptr) {
      verify_spec.partial_stats = &diagnostics->verify_stats;
    }
    VerifyMapper verify_mapper(store, router, job.value().output);
    VerifyReducer verify_reducer(data, config.params, control_ptr, &memory);
    Result<JobOutput<PointId>> verify =
        RunMapReduce<uint32_t, VerifyRecord, PointId>(
            store.num_blocks(), verify_mapper, verify_reducer, partition,
            verify_spec, record_bytes,
            [dims](const uint32_t&, const VerifyRecord& record) {
              return VerifyRecordBytes(dims, record);
            });
    if (!verify.ok()) {
      return AnnotateJobError("verification job", verify.status());
    }
    result.outliers = std::move(verify.value().output);
    result.verify_stats = std::move(verify.value().stats);
    result.breakdown.verify = result.verify_stats.stage_times;
  }
  result.detect_stats.partition_profiles = profiler.Sorted();
  if (diagnostics != nullptr) {
    // On success the diagnostics mirror the result's stats (on failure the
    // engine filled them with the partial-progress deltas before
    // returning).
    diagnostics->detect_stats = result.detect_stats;
    diagnostics->verify_stats = result.verify_stats;
  }

  std::sort(result.outliers.begin(), result.outliers.end());
  result.wall_seconds = wall.ElapsedSeconds();
  {
    MetricsRegistry& metrics = MetricsRegistry::Global();
    static const uint32_t kOutliers =
        metrics.Id("pipeline.outliers", MetricKind::kCounter);
    static const uint32_t kWall =
        metrics.Id("pipeline.wall_seconds", MetricKind::kHistogram);
    metrics.Increment(kOutliers, result.outliers.size());
    metrics.Observe(kWall, result.wall_seconds);
  }
  return result;
}

std::vector<PointId> DetectOutliersCentralized(const Dataset& data,
                                               AlgorithmKind algorithm,
                                               const DetectionParams& params) {
  const std::unique_ptr<Detector> detector = MakeDetector(algorithm);
  std::vector<uint32_t> local =
      detector->DetectOutliers(data, data.size(), params, nullptr);
  return std::vector<PointId>(local.begin(), local.end());
}

}  // namespace dod
