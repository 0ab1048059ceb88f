// Copyright 2026 The DOD Authors.
//
// The batch workloads, geo_batch and kernel_batch: DODBIN1 input files
// through ReadBinary -> DodPipeline::Run -> WriteBinary.

#include <algorithm>
#include <filesystem>

#include "alloc/bin_packing.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "data/geo_like.h"
#include "dshc/dshc.h"
#include "io/binary.h"
#include "io/block_store.h"
#include "ledger.h"
#include "measure.h"
#include "observability/trace.h"
#include "partition/minibucket.h"
#include "partition/partition_plan.h"
#include "partition/sampler.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Minimum timed operations per run, whatever --seconds says.
constexpr size_t kMinBatchOps = 3;
// Repetitions of the benchmark-side layer passes (median reported).
constexpr int kPassRepeats = 3;

// Work counters of one batch operation. They are deterministic for a seed
// and configuration — identical on every repeat, traced or not.
struct BatchCounters {
  uint64_t outliers = 0;
  uint64_t partitions = 0;
  uint64_t records_shuffled = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t pairs_nl = 0;
  uint64_t pairs_cb = 0;
  uint64_t soa_saved_builds = 0;
  uint64_t task_attempts = 0;
  uint64_t task_failures = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t checkpoint_tasks = 0;
  uint64_t spill_runs_written = 0;
  uint64_t spill_runs_merged = 0;
  uint64_t spill_bytes_written = 0;

  bool operator==(const BatchCounters&) const = default;

  std::string ToString() const {
    return Format(
        "outliers=%llu partitions=%llu records=%llu bytes=%llu "
        "pairs_nl=%llu pairs_cb=%llu soa_saved_builds=%llu attempts=%llu "
        "failures=%llu checkpoint_bytes=%llu checkpoint_tasks=%llu "
        "spill_runs=%llu spill_runs_merged=%llu spill_bytes=%llu",
        static_cast<unsigned long long>(outliers),
        static_cast<unsigned long long>(partitions),
        static_cast<unsigned long long>(records_shuffled),
        static_cast<unsigned long long>(bytes_shuffled),
        static_cast<unsigned long long>(pairs_nl),
        static_cast<unsigned long long>(pairs_cb),
        static_cast<unsigned long long>(soa_saved_builds),
        static_cast<unsigned long long>(task_attempts),
        static_cast<unsigned long long>(task_failures),
        static_cast<unsigned long long>(checkpoint_bytes),
        static_cast<unsigned long long>(checkpoint_tasks),
        static_cast<unsigned long long>(spill_runs_written),
        static_cast<unsigned long long>(spill_runs_merged),
        static_cast<unsigned long long>(spill_bytes_written));
  }
};

// One timed batch operation: its timings, its counters and whether the
// program reported success and wrote a complete outlier file. Only
// scalars are kept per operation, so memory does not grow with the
// number of operations.
struct BatchOp {
  size_t input = 0;  // index of the input file the operation read
  bool ok = false;
  std::string error;
  double run_seconds = 0.0;  // DodPipeline::Run alone
  double op_seconds = 0.0;
  BatchCounters counters;
  // Per-layer values measured by the program itself.
  double map_wall_seconds = 0.0;
  double reduce_wall_seconds = 0.0;
  double reduce_task_max_over_mean = 0.0;
  double sim_makespan_seconds = 0.0;
  double shuffle_group_seconds = 0.0;
  double checkpoint_write_seconds = 0.0;
  uint64_t steal_local = 0;
  uint64_t steal_remote = 0;
  int threads_used = 0;
};

dod::Dataset GenerateBatchData(const BatchSpec& spec, uint64_t seed) {
  if (spec.data == BatchSpec::Data::kGeoNewYork) {
    return dod::GenerateGeoRegion(dod::GeoRegion::kNewYork, spec.points, seed);
  }
  return dod::GenerateUniform(
      spec.points, dod::DomainForDensity(spec.points, spec.density), seed);
}

dod::DetectionParams BatchParams(const BatchSpec& spec) {
  dod::DetectionParams params;
  params.radius = spec.radius;
  params.min_neighbors = spec.k;
  return params;
}

// The configuration dod_cli builds by default for this many points,
// except for the spec's threads, blocks and durability settings.
void ApplyCliDefaults(const BatchSpec& spec, size_t n, uint64_t seed,
                      dod::DodConfig* config) {
  config->target_partitions = std::max<size_t>(32, n / 4000);
  config->num_reduce_tasks = 32;
  config->num_blocks = spec.num_blocks;
  config->num_threads = WorkerThreads(spec.threads);
  config->sampler.rate = 0.05;
  config->sampler.buckets_per_dim = 64;
  config->seed = seed;
}

dod::DodConfig MeasuredConfig(const BatchSpec& spec, size_t n, uint64_t seed,
                              const std::string& work_dir) {
  dod::DodConfig config = dod::DodConfig::Dmt(BatchParams(spec));
  ApplyCliDefaults(spec, n, seed, &config);
  config.shuffle = dod::ShuffleMode::kColumnar;
  if (spec.durable) {
    config.checkpoint_dir = work_dir + "/checkpoint";
    config.spill_dir = work_dir + "/spill";
    config.spill_threshold_mb = 1;
  }
  return config;
}

// The reference path: a different exact plan (uniSpace cells, Cell-Based
// everywhere) over the sorted shuffle, in memory.
dod::DodConfig ReferenceConfig(const BatchSpec& spec, size_t n,
                               uint64_t seed) {
  dod::DodConfig config = dod::DodConfig::Baseline(
      BatchParams(spec), dod::StrategyKind::kUniSpace,
      dod::AlgorithmKind::kCellBased);
  ApplyCliDefaults(spec, n, seed, &config);
  config.num_blocks = 32;  // dod_cli's default
  // Not measured, so it may use every thread a workload is allowed.
  config.num_threads = WorkerThreads(4);
  config.shuffle = dod::ShuffleMode::kSorted;
  return config;
}

// Runs one operation: ReadBinary, DodPipeline::Run, WriteBinary of the
// outliers. The run's result is moved into `*result` for the caller to
// check outside the timed region.
BatchOp RunBatchOp(const dod::DodConfig& config, const std::string& input_path,
                   const std::string& output_path, dod::DodResult* result) {
  BatchOp op;
  *result = dod::DodResult();
  if (!config.checkpoint_dir.empty()) {
    std::error_code ignored;
    fs::remove_all(config.checkpoint_dir, ignored);  // fresh store per op
  }
  const dod::DodPipeline pipeline(config);
  dod::MetricsRegistry::Global().Reset();

  dod::Status status;
  size_t dims = 0;
  const Clock::time_point start = Clock::now();
  {
    dod::trace::Span op_span("bench", "op");
    dod::Result<dod::Dataset> data = dod::Status::Ok();
    {
      dod::trace::Span span("bench", "read");
      data = dod::ReadBinary(input_path);
    }
    if (data.ok()) {
      dims = static_cast<size_t>(data.value().dims());
      const Clock::time_point run_start = Clock::now();
      dod::Result<dod::DodResult> run = pipeline.Run(data.value());
      op.run_seconds = Since(run_start);
      if (run.ok()) {
        *result = std::move(run.value());
        dod::trace::Span span("bench", "write");
        dod::Dataset outliers(data.value().dims());
        outliers.Reserve(result->outliers.size());
        for (dod::PointId id : result->outliers) {
          outliers.Append(data.value()[id]);
        }
        status = dod::WriteBinary(outliers, output_path);
      } else {
        status = run.status();
      }
    } else {
      status = data.status();
    }
  }
  op.op_seconds = Since(start);

  // Everything below is outside the timed region.
  const MetricView metrics;
  const dod::JobStats& stats = result->detect_stats;
  op.counters.outliers = result->outliers.size();
  op.counters.partitions = result->plan.partition_plan.num_cells();
  op.counters.records_shuffled = stats.records_shuffled;
  op.counters.bytes_shuffled = stats.bytes_shuffled;
  op.counters.pairs_nl = stats.counters.Get("nested_loop.distance_evals");
  op.counters.pairs_cb = stats.counters.Get("cell_based.distance_evals");
  op.counters.soa_saved_builds =
      metrics.Count("kernels.soa_reuse.saved_builds");
  op.counters.task_attempts = stats.task_attempts;
  op.counters.task_failures = stats.task_failures;
  op.counters.checkpoint_bytes =
      metrics.Count("durability.checkpoint.bytes_written");
  op.counters.checkpoint_tasks =
      metrics.Count("durability.checkpoint.tasks_written");
  op.counters.spill_runs_written = metrics.Count("mr.spill.runs_written");
  op.counters.spill_runs_merged = metrics.Count("mr.spill.runs_merged");
  op.counters.spill_bytes_written = metrics.Count("mr.spill.bytes_written");
  op.map_wall_seconds = stats.map_wall_seconds;
  op.reduce_wall_seconds = stats.reduce_wall_seconds;
  op.reduce_task_max_over_mean =
      dod::ImbalanceFactor(stats.reduce_task_seconds);
  op.sim_makespan_seconds = result->breakdown.total();
  op.threads_used = stats.threads_used;
  op.shuffle_group_seconds = metrics.Value("mr.shuffle.group_seconds");
  op.checkpoint_write_seconds =
      metrics.Value("durability.checkpoint.write_seconds");
  op.steal_local = metrics.Count("runtime.steal.local");
  op.steal_remote = metrics.Count("runtime.steal.remote");

  if (!status.ok()) {
    op.error = status.ToString();
    return op;
  }
  std::error_code size_error;
  const uintmax_t bytes = fs::file_size(output_path, size_error);
  const uintmax_t expected = 20 + result->outliers.size() * dims * 8;
  if (size_error || bytes != expected) {
    op.error = Format("outlier file holds %ju bytes, expected %ju",
                      static_cast<uintmax_t>(size_error ? 0 : bytes),
                      expected);
    return op;
  }
  op.ok = true;
  return op;
}

// Benchmark-side timings of the public calls the span tree cannot
// separate:
// PartitionRouter over every point, ClusterMiniBuckets on the run's
// sketch and PackBins on the plan's cost estimates.
struct LayerPasses {
  double route_seconds = 0.0;
  uint64_t route_records = 0;
  double cluster_seconds = 0.0;
  size_t clusters = 0;
  double pack_seconds = 0.0;
};

LayerPasses TimeLayerPasses(const dod::Dataset& data,
                            const dod::DodConfig& config,
                            const dod::MultiTacticPlan& plan) {
  LayerPasses passes;
  const dod::PartitionRouter router(plan.partition_plan);
  std::vector<double> route;
  for (int rep = 0; rep < kPassRepeats; ++rep) {
    std::vector<uint32_t> support;
    uint64_t records = 0;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < data.size(); ++i) {
      const double* p = data[static_cast<dod::PointId>(i)];
      router.RouteCore(p);
      support.clear();
      router.RouteSupport(p, &support);
      records += 1 + support.size();
    }
    route.push_back(Since(start));
    passes.route_records = records;
  }
  passes.route_seconds = Percentile(route, 0.5);

  // The sketch the pipeline's sampling stage builds (same blocks, rate,
  // resolution and RNG stream), then DSHC on it as BuildMultiTacticPlan
  // calls it.
  const dod::BlockStore store(data, config.num_blocks, config.seed ^ 0xB10C);
  const double rate = dod::EffectiveSamplingRate(config.sampler, data.size());
  dod::DistributionSketch sketch{
      dod::MiniBucketGrid(
          data.Bounds(),
          dod::EffectiveBucketsPerDim(config.sampler, data.size())),
      rate, 0};
  dod::Rng rng(config.sampler.seed ^ config.seed);
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    sketch.sample_size +=
        dod::SampleBlockInto(data, store.block(b), rate, rng, &sketch.grid);
  }
  dod::DshcOptions dshc = config.dshc;
  dshc.target_partitions = config.target_partitions;
  dshc.detection = config.params;
  std::vector<double> cluster;
  for (int rep = 0; rep < kPassRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    passes.clusters = dod::ClusterMiniBuckets(sketch, dshc).size();
    cluster.push_back(Since(start));
  }
  passes.cluster_seconds = Percentile(cluster, 0.5);

  constexpr int kPackCalls = 200;  // one call takes microseconds
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < kPackCalls; ++rep) {
    dod::PackBins(plan.estimated_cost, config.num_reduce_tasks,
                  config.packing);
  }
  passes.pack_seconds = Since(start) / kPackCalls;
  return passes;
}

// max/mean of the distance evaluations each reduce task performed.
double ReduceImbalance(const dod::DodResult& result, int num_reduce_tasks) {
  std::vector<double> evals(static_cast<size_t>(num_reduce_tasks), 0.0);
  for (const dod::PartitionProfile& profile :
       result.detect_stats.partition_profiles) {
    if (profile.cell >= result.plan.allocation.size()) continue;
    const int task = result.plan.allocation[profile.cell];
    if (task < 0 || task >= num_reduce_tasks) continue;
    evals[static_cast<size_t>(task)] +=
        static_cast<double>(profile.measured_distance_evals);
  }
  return dod::ImbalanceFactor(evals);
}

double CostRatioMedian(const dod::DodResult& result) {
  std::vector<double> ratios;
  for (const dod::PartitionProfile& profile :
       result.detect_stats.partition_profiles) {
    if (profile.measured_distance_evals == 0) continue;
    ratios.push_back(profile.predicted_cost /
                     static_cast<double>(profile.measured_distance_evals));
  }
  return Percentile(ratios, 0.5);
}

// One generated input file and what its first operation established.
struct BatchInput {
  uint64_t seed = 0;
  std::string path;
  size_t points = 0;
  dod::DodConfig config;
  dod::DodResult first;  // first successful operation's result
  BatchCounters counters;
  bool have_first = false;
};

// Seed of dataset `index` of a run with workload seed `seed`.
uint64_t DatasetSeed(uint64_t seed, size_t index) {
  return seed * 1000 + index;
}

}  // namespace

BatchSpec GeoBatchSpec() {
  BatchSpec spec;
  // Geo layouts differ a lot between seeds (city placement and skew), so
  // each run cycles over four of them.
  spec.datasets = 4;
  return spec;
}

BatchSpec KernelBatchSpec() {
  BatchSpec spec;
  spec.data = BatchSpec::Data::kUniform;
  spec.density = 0.6;
  spec.k = 32;
  spec.threads = 1;
  // 8 map tasks of 125k points each emit well over 1 MiB of shuffle pairs
  // (16 B per record), so every one of them spills at least one run.
  spec.num_blocks = 8;
  spec.durable = true;
  return spec;
}

Report RunBatch(const BatchSpec& spec, const RunOptions& options) {
  Report report;
  const std::string output_path = options.work_dir + "/outliers.bin";
  std::error_code ignored;
  fs::create_directories(options.work_dir, ignored);

  // ---- Set-up: generate each input and write it as a DODBIN1 file. -----
  std::vector<BatchInput> inputs(std::max<size_t>(1, spec.datasets));
  std::vector<double> setup_seconds;
  std::vector<double> generate_seconds;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    double generate = 0.0;
    for (size_t j = 0; j < inputs.size(); ++j) {
      BatchInput& input = inputs[j];
      input.seed = DatasetSeed(options.seed, j);
      input.path = options.work_dir + "/input" + std::to_string(j) + ".bin";
      const Clock::time_point generate_start = Clock::now();
      const dod::Dataset data = GenerateBatchData(spec, input.seed);
      generate += Since(generate_start);
      const dod::Status written = dod::WriteBinary(data, input.path);
      if (!written.ok()) {
        report.correct = false;
        report.attempted = report.failed = 1;
        report.lines.push_back("setup failed: " + written.ToString());
        return report;
      }
      input.points = data.size();
      input.config =
          MeasuredConfig(spec, data.size(), input.seed, options.work_dir);
    }
    generate_seconds.push_back(generate);
    setup_seconds.push_back(Since(start));
  }
  const dod::DodConfig& config = inputs.front().config;
  report.lines.push_back(Format(
      "workload: %zu dataset(s) of %zu points, r=%g k=%d, %s, %d thread(s), "
      "%zu blocks%s",
      inputs.size(), inputs.front().points, spec.radius, spec.k,
      config.Label().c_str(), config.num_threads, config.num_blocks,
      spec.durable ? ", checkpoint + spill on" : ", in-memory shuffle"));

  // ---- Operations, cycling over the inputs. ------------------------------
  // The first operation on each input warms caches and the allocator. It
  // fixes the outlier set and the counters that every later operation on
  // that input must repeat exactly; after the loop, its outlier set is
  // checked against the reference, so every operation is checked.
  std::vector<BatchOp> untraced;
  std::vector<BatchOp> traced;
  dod::DodResult current;
  const auto account = [&](BatchOp& op, BatchInput& input) {
    ++report.attempted;
    if (op.ok && !input.have_first) {
      input.first = std::move(current);
      input.counters = op.counters;
      input.have_first = true;
    } else if (op.ok && current.outliers != input.first.outliers) {
      op.ok = false;
      op.error = "outlier set differs from the first operation's";
    } else if (op.ok && !(op.counters == input.counters)) {
      op.ok = false;
      op.error = "work counters differ from the first operation: " +
                 op.counters.ToString();
    }
    if (!op.ok) {
      ++report.failed;
      if (report.failed <= 3) report.lines.push_back("op failed: " + op.error);
    }
  };
  size_t next_input = 0;
  const auto run_op = [&](std::vector<BatchOp>* ops) {
    BatchInput& input = inputs[next_input];
    ops->push_back(
        RunBatchOp(input.config, input.path, output_path, &current));
    ops->back().input = next_input;
    next_input = (next_input + 1) % inputs.size();
    account(ops->back(), input);
  };
  for (size_t j = 0; j < inputs.size(); ++j) run_op(&untraced);  // warm-up
  const size_t warmup_ops = untraced.size();

  // Trace mode: time the benchmark-side layer passes once on the first
  // input, then trace every other operation on that input, so traced and
  // untraced operations see the same input and machine state.
  LayerPasses passes;
  LedgerSplits splits;
  if (options.trace && inputs.front().have_first) {
    dod::Result<dod::Dataset> data = dod::ReadBinary(inputs.front().path);
    if (data.ok()) {
      passes = TimeLayerPasses(data.value(), config, inputs.front().first.plan);
    }
    splits.route_seconds = passes.route_seconds;
    splits.cluster_seconds = passes.cluster_seconds;
    splits.pack_seconds = passes.pack_seconds;
    splits.worker_threads = config.num_threads;
  }
  LayerTable ledger;
  size_t ledger_ops = 0;
  size_t first_input_ops = 0;
  const Clock::time_point loop_start = Clock::now();
  while (untraced.size() < warmup_ops + kMinBatchOps ||
         (options.trace && traced.size() < 2) ||
         Since(loop_start) < options.seconds) {
    const bool trace_op =
        options.trace && next_input == 0 && first_input_ops++ % 2 == 1;
    if (!trace_op) {
      run_op(&untraced);
      continue;
    }
    dod::trace::Start();
    run_op(&traced);
    dod::trace::Stop();
    const std::vector<dod::trace::TraceEvent> events =
        dod::trace::SnapshotEvents();
    dod::trace::Clear();
    LayerTable table;
    if (AttributeOperation(events, splits, &table)) {
      ledger.Accumulate(table);
      ++ledger_ops;
    }
  }
  // Peak memory of set-up plus the operations, before the reference runs.
  const double peak_rss_mb = PeakRssMb();

  // ---- Reference outliers, by a different exact path. -------------------
  const Clock::time_point reference_start = Clock::now();
  size_t reference_outliers = 0;
  size_t reference_points = 0;
  for (BatchInput& input : inputs) {
    dod::Result<dod::Dataset> data = dod::ReadBinary(input.path);
    dod::Result<dod::DodResult> reference_run =
        data.ok() ? dod::DodPipeline(
                        ReferenceConfig(spec, input.points, input.seed))
                        .Run(data.value())
                  : dod::Result<dod::DodResult>(data.status());
    std::vector<dod::PointId> reference;
    if (reference_run.ok()) {
      reference = std::move(reference_run.value().outliers);
    }
    if (spec.perturb_reference) {
      if (reference.empty()) {
        reference.push_back(0);
      } else {
        reference.erase(reference.begin());
      }
    }
    reference_outliers += reference.size();
    reference_points += input.points;
    if (!reference_run.ok() || !input.have_first ||
        input.first.outliers != reference) {
      // Every operation that passed matched the first one, so all fail.
      report.failed = report.attempted;
      report.lines.push_back(
          reference_run.ok()
              ? Format("dataset seed %llu: outlier set differs from the "
                       "reference (%zu vs %zu ids)",
                       static_cast<unsigned long long>(input.seed),
                       input.first.outliers.size(), reference.size())
              : "reference run failed: " + reference_run.status().ToString());
    }
  }
  report.correct = report.failed == 0;
  report.lines.push_back(Format(
      "reference: uniSpace + Cell-Based, sorted shuffle: %zu outliers "
      "(%.3f %%) in %.3f s",
      reference_outliers, 100.0 * reference_outliers / reference_points,
      Since(reference_start)));
  for (const BatchInput& input : inputs) {
    report.lines.push_back(Format(
        "counters (dataset seed %llu): ",
        static_cast<unsigned long long>(input.seed)) +
        input.counters.ToString());
  }

  // The warm-up is not timed.
  std::vector<double> op_seconds;
  std::vector<double> run_seconds;
  for (size_t i = warmup_ops; i < untraced.size(); ++i) {
    op_seconds.push_back(untraced[i].op_seconds);
    run_seconds.push_back(untraced[i].run_seconds);
  }
  const size_t points = inputs.front().points;

  if (!options.trace) {
    auto& m = report.metrics;
    const double total = dod::Sum(op_seconds);
    m["op_p50_ms"] = Percentile(op_seconds, 0.5) * 1e3;
    m["points_per_s"] =
        total > 0 ? static_cast<double>(points) * op_seconds.size() / total
                  : 0.0;
    m["setup_s"] = Percentile(setup_seconds, 0.5);
    m["peak_rss_mb"] = peak_rss_mb;
    report.lines.push_back("end-to-end (untraced):");
    PrintTimingLine("run_s (op)", op_seconds, 1.0, "s", &report);
    PrintTimingLine("pipeline Run only", run_seconds, 1.0, "s", &report);
    report.lines.push_back(Format("  %-22s %.0f 1/s  (n=%zu ops)",
                                  "points_per_s", m["points_per_s"],
                                  op_seconds.size()));
    PrintTimingLine("setup_s", setup_seconds, 1.0, "s", &report);
    report.lines.push_back(
        Format("  %-22s %.1f MB", "peak_rss_mb", m["peak_rss_mb"]));
    report.lines.push_back(Format(
        "  %-22s %.4f  (%llu failed of %llu attempted)", "failed_frac",
        static_cast<double>(report.failed) / report.attempted,
        static_cast<unsigned long long>(report.failed),
        static_cast<unsigned long long>(report.attempted)));
    return report;
  }

  const BatchInput& traced_input = inputs.front();
  const BatchCounters& counters = traced_input.counters;
  if (passes.clusters != counters.partitions) {
    report.lines.push_back(Format(
        "note: the benchmark-side DSHC pass made %zu clusters, the run %llu "
        "partitions",
        passes.clusters, static_cast<unsigned long long>(counters.partitions)));
  }
  if (ledger_ops == 0) {
    report.correct = false;
    report.lines.push_back("no traced operation produced a span tree");
    return report;
  }
  ledger.Scale(1.0 / static_cast<double>(ledger_ops));

  // Untraced operations on the traced input, for the tracing overhead.
  std::vector<double> same_input_seconds;
  for (size_t i = warmup_ops; i < untraced.size(); ++i) {
    if (untraced[i].input == 0) {
      same_input_seconds.push_back(untraced[i].op_seconds);
    }
  }
  const auto mean_over_traced = [&](auto field) {
    std::vector<double> values;
    for (const BatchOp& op : traced) values.push_back(field(op));
    return dod::Mean(values);
  };
  std::vector<double> traced_seconds;
  for (const BatchOp& op : traced) traced_seconds.push_back(op.op_seconds);
  const auto span_self = [&](const char* key) {
    const auto it = ledger.span_self_seconds.find(key);
    return it == ledger.span_self_seconds.end() ? 0.0 : it->second;
  };
  auto& m = report.metrics;
  m["data.generate_s"] =
      Percentile(generate_seconds, 0.5) / static_cast<double>(inputs.size());
  m["io.read_s"] = span_self("bench/read");
  m["io.write_s"] = span_self("bench/write");
  m["partition.sample_s"] = span_self("pipeline/sample");
  m["partition.route_s"] = passes.route_seconds;
  m["partition.route_records"] = static_cast<double>(passes.route_records);
  m["partition.emit_s"] = span_self("task/map_attempt") - passes.route_seconds;
  m["core.plan_s"] = span_self("pipeline/plan");
  m["dshc.cluster_s"] = passes.cluster_seconds;
  m["alloc.pack_s"] = passes.pack_seconds;
  m["core.partitions"] = static_cast<double>(counters.partitions);
  m["core.cost_ratio_p50"] = CostRatioMedian(traced_input.first);
  m["alloc.reduce_imbalance"] =
      ReduceImbalance(traced_input.first, config.num_reduce_tasks);
  m["mapreduce.map_wall_s"] =
      mean_over_traced([](const BatchOp& op) { return op.map_wall_seconds; });
  m["mapreduce.shuffle_group_s"] = mean_over_traced(
      [](const BatchOp& op) { return op.shuffle_group_seconds; });
  m["mapreduce.reduce_wall_s"] = mean_over_traced(
      [](const BatchOp& op) { return op.reduce_wall_seconds; });
  m["mapreduce.records_shuffled"] =
      static_cast<double>(counters.records_shuffled);
  m["mapreduce.bytes_shuffled"] = static_cast<double>(counters.bytes_shuffled);
  m["mapreduce.task_attempts"] = static_cast<double>(counters.task_attempts);
  m["mapreduce.task_failures"] = static_cast<double>(counters.task_failures);
  m["mapreduce.spill_bytes_written"] =
      static_cast<double>(counters.spill_bytes_written);
  m["mapreduce.spill_runs_merged"] =
      static_cast<double>(counters.spill_runs_merged);
  m["mapreduce.sim_makespan_s"] = mean_over_traced(
      [](const BatchOp& op) { return op.sim_makespan_seconds; });
  m["runtime.threads_used"] = untraced.front().threads_used;
  m["runtime.steal_local"] = mean_over_traced(
      [](const BatchOp& op) { return static_cast<double>(op.steal_local); });
  m["runtime.steal_remote"] = mean_over_traced(
      [](const BatchOp& op) { return static_cast<double>(op.steal_remote); });
  m["runtime.reduce_task_max_over_mean"] = mean_over_traced(
      [](const BatchOp& op) { return op.reduce_task_max_over_mean; });
  m["detection.arena_s"] = span_self("detect/arena");
  m["detection.cell_s"] = span_self("detect/cell");
  m["detection.pairs_nl"] = static_cast<double>(counters.pairs_nl);
  m["detection.pairs_cb"] = static_cast<double>(counters.pairs_cb);
  m["detection.soa_saved_builds"] =
      static_cast<double>(counters.soa_saved_builds);
  m["kernels.pairs_per_s"] =
      m["detection.cell_s"] > 0
          ? static_cast<double>(counters.pairs_nl + counters.pairs_cb) /
                m["detection.cell_s"]
          : 0.0;
  m["durability.checkpoint_bytes"] =
      static_cast<double>(counters.checkpoint_bytes);
  m["durability.checkpoint_write_s"] = mean_over_traced(
      [](const BatchOp& op) { return op.checkpoint_write_seconds; });
  m["durability.tasks_written"] =
      static_cast<double>(counters.checkpoint_tasks);
  m["observability.trace_overhead"] =
      Percentile(traced_seconds, 0.5) / Percentile(same_input_seconds, 0.5);
  AddLedgerMetrics(ledger, &report);

  report.lines.push_back(Format(
      "traced: %zu ops on dataset seed %llu (untraced %zu), trace overhead "
      "%.3fx; layer passes: route %.4f s (%llu records), DSHC %.4f s, "
      "pack %.6f s",
      traced.size(), static_cast<unsigned long long>(traced_input.seed),
      same_input_seconds.size(), m["observability.trace_overhead"],
      passes.route_seconds,
      static_cast<unsigned long long>(passes.route_records),
      passes.cluster_seconds, passes.pack_seconds));
  PrintLedger(ledger, "wall seconds per op", &report);
  return report;
}

}  // namespace perfbench
