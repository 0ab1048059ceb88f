// Copyright 2026 The DOD Authors.
//
// The per-layer ledger: folds the spans of one traced operation into a
// table of wall-clock seconds per library layer (the src/ modules) whose
// rows plus `unaccounted` sum to the operation's wall time.
//
// Inputs are the trace events the library already emits (pipeline, phase,
// task, detect, shuffle, durability and stream spans) plus the
// benchmark's own spans: one "bench"/"op" root per operation, and
// "bench"/"read" and "bench"/"write" around the I/O calls. No span inside
// src/ is needed.
//
// Attribution, per operation:
//   * Every span on the operation's thread (the calling thread) keeps its
//     self time — duration minus the part its children on the same thread
//     cover — and charges it to the span's layer.
//   * A "phase" span whose tasks ran on pool workers is the calling thread
//     waiting. Its self time is split by what the workers did meanwhile:
//     each layer gets (worker self seconds in that layer) / T, with T the
//     pool's worker count, and the remainder (idle or imbalanced workers)
//     goes to `runtime`.
//   * Map-task self time is routing (partition) plus emission (mapreduce);
//     the split uses a benchmark-side timing of PartitionRouter over every
//     point. Plan self time is split the same way into DSHC clustering
//     (dshc), bin packing (alloc) and the rest (core).
//   * The root's own self time — benchmark glue between the calls — is
//     `unaccounted`.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <map>
#include <string>
#include <vector>

#include "observability/trace.h"

namespace perfbench {

// The library's layers, in table order.
const std::vector<std::string>& LayerNames();

// Benchmark-side timings the span tree cannot separate by itself, in
// thread-seconds per operation.
struct LedgerSplits {
  double route_seconds = 0.0;    // PartitionRouter over every input point
  double cluster_seconds = 0.0;  // ClusterMiniBuckets on the run's sketch
  double pack_seconds = 0.0;     // PackBins on the plan's cost estimates
  int worker_threads = 1;        // pool workers (1 = tasks run inline)
};

struct LayerTable {
  double op_seconds = 0.0;  // the root span's duration
  std::map<std::string, double> layer_seconds;  // every LayerNames() entry
  double unaccounted_seconds = 0.0;
  // Self thread-seconds summed over every thread, keyed "category/name",
  // for spans inside the root's interval.
  std::map<std::string, double> span_self_seconds;

  double RowSum() const;  // layer rows + unaccounted
  // Adds `other` row by row (for averaging over operations).
  void Accumulate(const LayerTable& other);
  void Scale(double factor);
};

// Attributes the single "bench"/"op" root in `events` to layers. Returns
// false when `events` holds no root or more than one.
bool AttributeOperation(const std::vector<dod::trace::TraceEvent>& events,
                        const LedgerSplits& splits, LayerTable* table);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
