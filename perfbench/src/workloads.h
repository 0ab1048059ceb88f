// Copyright 2026 The DOD Authors.
//
// The benchmark's workloads. Each one generates its inputs from a seed,
// hands only those inputs to the library (a DODBIN1 file for the batch
// pipeline, StreamBlocks for the streaming service), times every
// operation, checks every output outside the timed region, and returns a
// Report: end-to-end metrics from untraced operations, or — in trace
// mode — per-layer metrics from a separate traced pass.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// One reported metric: name and unit, as BENCHMARK.json lists them.
struct MetricSpec {
  std::string name;
  std::string unit;
};

// Metrics printed with --trace 0 (every workload prints all of them).
const std::vector<MetricSpec>& EndToEndMetrics();
// Metrics printed with --trace 1; a layer a workload never enters reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Reported metrics by name (see the two catalogues above).
  std::map<std::string, double> metrics;
  // Human-readable lines printed before the JSON result line.
  std::vector<std::string> lines;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  // Working directory for the input files, outputs, checkpoints and spill
  // runs; created if missing.
  std::string work_dir;
};

// Batch path: each operation reads the input file (ReadBinary), runs
// DodPipeline::Run and writes the outliers (WriteBinary).
struct BatchSpec {
  enum class Data { kGeoNewYork, kUniform };
  Data data = Data::kGeoNewYork;
  // Inputs generated per run (seeds derived from the workload seed);
  // operations cycle over them.
  size_t datasets = 1;
  size_t points = 1000000;
  double density = 0.6;  // kUniform only
  double radius = 5.0;
  int k = 4;
  int threads = 4;  // capped at the hardware thread count
  size_t num_blocks = 32;
  // Durable execution: a fresh checkpoint_dir per operation plus a spill
  // dir with a 1 MiB threshold, so map tasks past 64 k records spill.
  bool durable = false;
  // Test hook: drop one id from the reference outlier set, so every
  // operation's output must be counted as failed.
  bool perturb_reference = false;
};

// Streaming path: uniform blocks fed open-loop at a fixed block rate to a
// StreamingDetector with a count-based window and summaries on.
struct StreamSpec {
  size_t block_points = 500;
  size_t window_blocks = 64;
  double radius = 2.0;
  int k = 4;
  // The domain holds `density` points per unit area over a schedule of
  // `density_blocks` blocks; the window sees a fraction of that.
  double density = 13.5;
  size_t density_blocks = 1200;
  // About half the service's capacity on the 4-vCPU host the benchmark
  // was defined on (a Feed median of 11-20 ms, 50-90 rounds/s), so a slow
  // stretch of the host does not turn into a growing queue.
  double rounds_per_second = 34.0;
  size_t min_rounds = 1000;
  // Test hook: drop one id from the reference set of the final window.
  bool perturb_reference = false;
};

BatchSpec GeoBatchSpec();
BatchSpec KernelBatchSpec();
StreamSpec StreamDiffuseSpec();

Report RunBatch(const BatchSpec& spec, const RunOptions& options);
Report RunStream(const StreamSpec& spec, const RunOptions& options);

// Runs the named workload ("geo_batch", "kernel_batch", "stream_diffuse").
// Returns false for an unknown name.
bool RunNamedWorkload(const std::string& name, const RunOptions& options,
                      Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
