// Copyright 2026 The DOD Authors.

#include "workloads.h"

#include "ledger.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"op_p50_ms", "ms"},
      {"points_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = [] {
    std::vector<MetricSpec> metrics = {
        {"data.generate_s", "s"},
        {"io.read_s", "s"},
        {"io.write_s", "s"},
        {"partition.sample_s", "s"},
        {"partition.route_s", "s"},
        {"partition.route_records", "count"},
        {"partition.emit_s", "s"},
        {"core.plan_s", "s"},
        {"dshc.cluster_s", "s"},
        {"alloc.pack_s", "s"},
        {"core.partitions", "count"},
        {"core.cost_ratio_p50", "ratio"},
        {"alloc.reduce_imbalance", "ratio"},
        {"mapreduce.map_wall_s", "s"},
        {"mapreduce.shuffle_group_s", "s"},
        {"mapreduce.reduce_wall_s", "s"},
        {"mapreduce.records_shuffled", "count"},
        {"mapreduce.bytes_shuffled", "bytes"},
        {"mapreduce.task_attempts", "count"},
        {"mapreduce.task_failures", "count"},
        {"mapreduce.spill_bytes_written", "bytes"},
        {"mapreduce.spill_runs_merged", "count"},
        {"mapreduce.sim_makespan_s", "s"},
        {"runtime.threads_used", "count"},
        {"runtime.steal_local", "count"},
        {"runtime.steal_remote", "count"},
        {"runtime.reduce_task_max_over_mean", "ratio"},
        {"detection.arena_s", "s"},
        {"detection.cell_s", "s"},
        {"detection.pairs_nl", "count"},
        {"detection.pairs_cb", "count"},
        {"detection.soa_saved_builds", "count"},
        {"kernels.pairs_per_s", "1/s"},
        {"durability.checkpoint_bytes", "bytes"},
        {"durability.checkpoint_write_s", "s"},
        {"durability.tasks_written", "count"},
        {"streaming.feed_s", "s"},
        {"streaming.dirty_fraction", "ratio"},
        {"streaming.cells_redetected", "count"},
        {"streaming.insert_pairs", "count"},
        {"streaming.expiry_pairs", "count"},
        {"streaming.recount_points", "count"},
        {"streaming.arena_points", "count"},
        {"streaming.pairs_per_s", "1/s"},
        {"streaming.round_p99_ms", "ms"},
        {"loadgen.late_ms_max", "ms"},
        {"observability.trace_overhead", "ratio"},
        {"unaccounted_s", "s"},
        {"ledger.op_s", "s"},
    };
    for (const std::string& layer : LayerNames()) {
      metrics.push_back({"ledger." + layer + "_s", "s"});
    }
    return metrics;
  }();
  return kMetrics;
}

bool RunNamedWorkload(const std::string& name, const RunOptions& options,
                      Report* report) {
  if (name == "geo_batch") {
    *report = RunBatch(GeoBatchSpec(), options);
  } else if (name == "kernel_batch") {
    *report = RunBatch(KernelBatchSpec(), options);
  } else if (name == "stream_diffuse") {
    *report = RunStream(StreamDiffuseSpec(), options);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
