// Copyright 2026 The DOD Authors.
//
// Top-level configuration of the DOD pipeline: outlier parameters, the
// partitioning strategy and detector choice, cluster shape, and planner
// knobs. DodConfig::Dmt() / Baseline() build the configurations evaluated
// in the paper.

#ifndef DOD_CORE_CONFIG_H_
#define DOD_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "alloc/bin_packing.h"
#include "detection/cost_model.h"
#include "dshc/dshc.h"
#include "durability/run_control.h"
#include "mapreduce/cluster.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/task_runner.h"
#include "partition/sampler.h"

namespace dod {

// Which map-side partitioning strategy drives the plan (Sec. VI-A).
enum class StrategyKind {
  kDomain,    // no supporting area; needs a verification job
  kUniSpace,  // equi-width cells + supporting areas
  kDDriven,   // cardinality-balanced cells
  kCDriven,   // cost-balanced cells (under the fixed detector's cost model)
  kDmt,       // density-aware multi-tactic (DSHC + per-partition algorithm)
};

const char* StrategyKindName(StrategyKind kind);

struct DodConfig {
  DetectionParams params;

  StrategyKind strategy = StrategyKind::kDmt;
  // Detector applied to every partition by the non-DMT strategies. DMT
  // selects per partition via Corollary 4.3 and ignores this field.
  AlgorithmKind fixed_algorithm = AlgorithmKind::kCellBased;

  // Requested number of partitions m (plans may produce a different count,
  // e.g. DMT emits one partition per DSHC cluster). 0 (the default) derives
  // m from the estimated cardinality: ~4000 points per partition, clamped
  // to [16, 512] — large enough for the detector classes to differ, small
  // enough to balance across reducers.
  size_t target_partitions = 0;
  // Number of reduce tasks R.
  int num_reduce_tasks = 32;
  // Number of input blocks / map tasks.
  size_t num_blocks = 32;
  // Worker threads that actually execute map/reduce tasks (the parallel
  // runtime, src/runtime/): <= 0 uses every hardware thread, 1 runs the
  // engine's sequential path. Output is byte-identical either way.
  int num_threads = 0;

  SamplerOptions sampler;
  DshcOptions dshc;
  // LPT by default: Karmarkar–Karp balances the *estimates* more tightly,
  // but with imperfect cost estimates LPT's greedy slack realizes better
  // makespans (see bench/abl_allocation).
  PackingPolicy packing = PackingPolicy::kLpt;
  ClusterSpec cluster;

  // Fault injection (off by default) and the task attempt policy, applied
  // to the detection and verification MapReduce jobs.
  FaultSpec faults;
  RetryPolicy retry;

  // Reduce-side grouping of the shuffled records. Both modes produce
  // byte-identical results; kSorted is the escape hatch for the columnar
  // counting-sort path (see mapreduce/shuffle.h).
  ShuffleMode shuffle = ShuffleMode::kColumnar;

  uint64_t seed = 42;

  // ---- Durable execution (src/durability/) ------------------------------
  //
  // When `checkpoint_dir` is set, the detection and verification jobs write
  // a per-task checkpoint after every commit under
  // `<checkpoint_dir>/detect` and `<checkpoint_dir>/verify`; with `resume`
  // a rerun of the same configuration skips the committed tasks and
  // produces byte-identical output. Empty = no checkpointing.
  std::string checkpoint_dir;
  bool resume = false;
  // Wall-clock budget for the whole run, measured from DodPipeline::Run
  // entry; <= 0 disables. Exceeding it aborts between tasks / cells with
  // kDeadlineExceeded and partial-progress stats.
  double deadline_seconds = 0.0;
  // Memory ceiling for arena and shuffle-scratch allocations; 0 = no
  // limit. The columnar shuffle degrades to the sorted path when its
  // scratch alone would not fit (result-identical, counter-visible), and
  // arena reservations that exceed the budget fail the run with
  // kResourceExhausted.
  uint64_t memory_budget_mb = 0;
  // Spill-to-disk shuffle (see mapreduce/spill.h). When `spill_dir` is
  // set, map tasks whose emitted bytes cross the threshold flush their
  // buckets as sorted runs there, and reduce grouping merges the runs back
  // — output stays byte-identical to the all-in-memory shuffle. Empty =
  // never spill. `spill_threshold_mb` 0 derives the threshold from the
  // memory budget (limit / 4) or 64 MiB without one.
  std::string spill_dir;
  uint64_t spill_threshold_mb = 0;
  // Cooperative cancellation; callers keep a copy and Cancel() from any
  // thread. A default-constructed token never fires.
  CancellationToken cancel_token;

  // The full multi-tactic configuration (DMT partitioning + per-partition
  // algorithm + cost-based allocation).
  static DodConfig Dmt(DetectionParams params);

  // A baseline: fixed `strategy` + one detector for all partitions.
  static DodConfig Baseline(DetectionParams params, StrategyKind strategy,
                            AlgorithmKind algorithm);

  // Human-readable configuration label, e.g. "CDriven + Nested-Loop".
  std::string Label() const;
};

}  // namespace dod

#endif  // DOD_CORE_CONFIG_H_
