// Copyright 2026 The DOD Authors.
//
// The end-to-end DOD pipeline (Fig. 6):
//
//   Job 1 (preprocessing, on a sample): distribution estimation via mini
//   buckets, then plan generation — partition plan, algorithm plan,
//   allocation plan.
//
//   Job 2 (detection, on the full data): mappers route every point to its
//   core cell and to every cell whose supporting area contains it (Fig. 3);
//   the partitioner applies the allocation plan; each reduce task runs the
//   assigned centralized detector per cell and reports outliers among core
//   points.
//
//   Job 3 (verification, Domain baseline only): without supporting areas,
//   locally-detected outliers near cell borders are only candidates; a
//   second pass ships border points to the candidate cells and finalizes
//   the verdicts.
//
// Returns exact distance-threshold outliers plus the per-stage time
// breakdown the paper's Fig. 10 reports.

#ifndef DOD_CORE_PIPELINE_H_
#define DOD_CORE_PIPELINE_H_

#include <vector>

#include "core/config.h"
#include "core/plan.h"
#include "io/block_store.h"
#include "mapreduce/job_stats.h"

namespace dod {

struct StageBreakdown {
  // Sampling (parallel map) + plan generation (single reducer).
  double preprocess_seconds = 0.0;
  // Main detection job stages.
  StageTimes detect;
  // Verification job stages; all zero except for the Domain baseline.
  StageTimes verify;

  // Simulated end-to-end execution time.
  double total() const {
    return preprocess_seconds + detect.total() + verify.total();
  }
};

struct DodResult {
  // Global ids (into the input dataset) of all outliers, ascending.
  std::vector<PointId> outliers;
  StageBreakdown breakdown;
  JobStats detect_stats;
  JobStats verify_stats;
  MultiTacticPlan plan;
  // Real single-machine wall time of the whole run.
  double wall_seconds = 0.0;
};

// Out-parameter of Run() that survives failure. A run aborted by a
// deadline, cancellation, or an exhausted memory budget returns only a
// Status; the per-job stats accumulated up to the abort point land here so
// callers can report partial progress. On success it mirrors the stats in
// DodResult.
struct RunDiagnostics {
  JobStats detect_stats;
  JobStats verify_stats;
};

// Most points DodPipeline::Run accepts: a shuffle record carries its
// point id in 31 bits, and the 32nd holds the core/support tag.
inline constexpr size_t kMaxPipelinePoints = size_t{1} << 31;

// InvalidArgument for an empty dataset or one of more than
// kMaxPipelinePoints points; Ok otherwise.
Status CheckPipelinePointCount(size_t num_points);

class DodPipeline {
 public:
  explicit DodPipeline(DodConfig config) : config_(std::move(config)) {}

  const DodConfig& config() const { return config_; }

  // Runs the full pipeline on `data`. Returns InvalidArgument when
  // CheckPipelinePointCount refuses the dataset's size (before any job
  // starts), and propagates the structured error of any MapReduce task
  // that exhausted its retry budget (config().retry / config().faults);
  // the process never aborts on task failure.
  //
  // Durable execution (config().checkpoint_dir / resume / deadline_seconds
  // / memory_budget_mb / cancel_token, see config.h) applies to the
  // detection and verification jobs; a resumed run skips the tasks whose
  // checkpoints committed and produces byte-identical output. A run
  // stopped by deadline, cancellation, or memory budget returns
  // kDeadlineExceeded / kCancelled / kResourceExhausted; pass
  // `diagnostics` to receive the partial-progress stats of such a run.
  Result<DodResult> Run(const Dataset& data) const;
  Result<DodResult> Run(const Dataset& data, RunDiagnostics* diagnostics) const;

  // Convenience for callers that treat failure as fatal (tests, benches):
  // Run() with a CHECK on the status.
  DodResult RunOrDie(const Dataset& data) const {
    return Run(data).ValueOrDie();
  }

 private:
  DodConfig config_;
};

// Convenience for examples/tests: run one centralized detector over the
// whole dataset (no distribution).
std::vector<PointId> DetectOutliersCentralized(const Dataset& data,
                                               AlgorithmKind algorithm,
                                               const DetectionParams& params);

}  // namespace dod

#endif  // DOD_CORE_PIPELINE_H_
