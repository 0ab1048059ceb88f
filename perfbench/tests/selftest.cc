// Copyright 2026 The DOD Authors.
//
// Small-scale self-test of the benchmark:
//   * the layer table of a synthetic span tree, and of real traced runs,
//     sums to the operation's wall time;
//   * a perturbed reference set makes every checked output count as failed;
//   * work counters repeat exactly across repeats of a seed.
//
//   perfbench_selftest WORK_DIR      (or: python3 perfbench/run.py --selftest)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void Check(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++g_failures;
}

dod::trace::TraceEvent Event(const char* category, const char* name,
                             double ts_us, double dur_us, uint32_t tid) {
  dod::trace::TraceEvent event;
  event.category = category;
  event.name = name;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.tid = tid;
  return event;
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

// Sum of the ledger rows a report carries, plus unaccounted_s.
double LedgerRowSum(const perfbench::Report& report) {
  double sum = report.metrics.at("unaccounted_s");
  for (const std::string& layer : perfbench::LayerNames()) {
    sum += report.metrics.at("ledger." + layer + "_s");
  }
  return sum;
}

// Every work-counter line of a report.
std::string CountersLines(const perfbench::Report& report) {
  std::string counters;
  for (const std::string& line : report.lines) {
    if (line.rfind("counters", 0) == 0) counters += line + "\n";
  }
  return counters;
}

void TestSyntheticLedger() {
  // Calling thread 1: op [0, 100) = read [0, 10) + run [10, 95); run holds
  // plan [10, 20) and a map phase [20, 80) whose two tasks ran on workers
  // 2 and 3 for 40 us and 20 us, the second holding a 10 us detect span.
  std::vector<dod::trace::TraceEvent> events = {
      Event("bench", "op", 0, 100, 1),
      Event("bench", "read", 0, 10, 1),
      Event("pipeline", "run", 10, 85, 1),
      Event("pipeline", "plan", 10, 10, 1),
      Event("phase", "map", 20, 60, 1),
      Event("task", "map_attempt", 25, 40, 2),
      Event("task", "reduce_attempt", 30, 20, 3),
      Event("detect", "cell", 35, 10, 3),
  };
  perfbench::LedgerSplits splits;
  splits.route_seconds = 10e-6;   // a quarter of the map task's 40 us
  splits.cluster_seconds = 4e-6;  // inside the 10 us plan
  splits.pack_seconds = 1e-6;
  splits.worker_threads = 2;
  perfbench::LayerTable table;
  Check(perfbench::AttributeOperation(events, splits, &table),
        "synthetic span tree has one root");
  Check(Near(table.RowSum(), 100e-6) && Near(table.op_seconds, 100e-6),
        "synthetic layer rows sum to the op's 100 us");
  Check(Near(table.layer_seconds["io"], 10e-6), "read charged to io");
  Check(Near(table.layer_seconds["dshc"], 4e-6) &&
            Near(table.layer_seconds["alloc"], 1e-6) &&
            Near(table.layer_seconds["core"], 5e-6 + 15e-6),
        "plan split into dshc / alloc / core (+ run self time)");
  // Workers: 40 + 20 us over 2 threads = 30 us of the 60 us phase.
  Check(Near(table.layer_seconds["partition"], 10e-6 / 2) &&
            Near(table.layer_seconds["detection"], 10e-6 / 2) &&
            Near(table.layer_seconds["mapreduce"], (30e-6 + 10e-6) / 2),
        "worker self time charged per layer, divided by the worker count");
  Check(Near(table.layer_seconds["runtime"], 30e-6),
        "idle worker time in the phase charged to runtime");
  Check(Near(table.unaccounted_seconds, 5e-6), "root self time unaccounted");

  events.push_back(Event("bench", "op", 200, 10, 1));
  Check(!perfbench::AttributeOperation(events, splits, &table),
        "two roots are refused");
}

perfbench::BatchSpec SmallGeo() {
  perfbench::BatchSpec spec = perfbench::GeoBatchSpec();
  spec.points = 20000;
  spec.threads = 2;
  spec.num_blocks = 8;
  return spec;
}

perfbench::BatchSpec SmallDurable() {
  perfbench::BatchSpec spec = perfbench::KernelBatchSpec();
  spec.points = 20000;
  spec.num_blocks = 2;
  return spec;
}

perfbench::StreamSpec SmallStream() {
  perfbench::StreamSpec spec = perfbench::StreamDiffuseSpec();
  spec.block_points = 50;
  spec.window_blocks = 8;
  spec.density_blocks = 150;
  spec.rounds_per_second = 2000;
  spec.min_rounds = 40;
  return spec;
}

void TestBatch(const std::string& work_dir) {
  perfbench::RunOptions options;
  options.seed = 7;
  options.seconds = 0.2;
  options.work_dir = work_dir + "/batch";

  const perfbench::Report plain = perfbench::RunBatch(SmallGeo(), options);
  Check(plain.correct && plain.failed == 0 && plain.attempted >= 4,
        "small geo batch passes its checks");
  for (const perfbench::MetricSpec& metric : perfbench::EndToEndMetrics()) {
    Check(plain.metrics.count(metric.name) == 1 &&
              plain.metrics.at(metric.name) > 0,
          "batch reports end-to-end metric " + metric.name);
  }
  const perfbench::Report again = perfbench::RunBatch(SmallGeo(), options);
  Check(!CountersLines(plain).empty() &&
            CountersLines(plain) == CountersLines(again),
        "batch work counters repeat across runs of one seed");

  perfbench::BatchSpec perturbed = SmallGeo();
  perturbed.perturb_reference = true;
  const perfbench::Report bad = perfbench::RunBatch(perturbed, options);
  Check(!bad.correct && bad.attempted >= 4 && bad.failed == bad.attempted,
        "perturbed reference: every batch op counted as failed");

  options.trace = true;
  const perfbench::Report traced = perfbench::RunBatch(SmallGeo(), options);
  Check(traced.correct && traced.failed == 0, "traced geo batch passes");
  Check(traced.metrics.at("ledger.op_s") > 0 &&
            Near(LedgerRowSum(traced), traced.metrics.at("ledger.op_s")),
        "geo batch layer table sums to op wall time");
  Check(CountersLines(traced) == CountersLines(plain),
        "traced and untraced batch runs share their counters");

  const perfbench::Report durable =
      perfbench::RunBatch(SmallDurable(), options);
  Check(durable.correct && durable.failed == 0 &&
            durable.metrics.at("durability.tasks_written") > 0,
        "traced durable batch passes and writes checkpoints");
  Check(Near(LedgerRowSum(durable), durable.metrics.at("ledger.op_s")),
        "durable batch layer table sums to op wall time");
}

void TestStream(const std::string& work_dir) {
  perfbench::RunOptions options;
  options.seed = 7;
  options.seconds = 0.01;
  options.work_dir = work_dir + "/stream";

  const perfbench::Report plain = perfbench::RunStream(SmallStream(), options);
  Check(plain.correct && plain.failed == 0 && plain.attempted == 41,
        "small stream passes its checks");
  for (const perfbench::MetricSpec& metric : perfbench::EndToEndMetrics()) {
    Check(plain.metrics.count(metric.name) == 1 &&
              plain.metrics.at(metric.name) > 0,
          "stream reports end-to-end metric " + metric.name);
  }
  const perfbench::Report again = perfbench::RunStream(SmallStream(), options);
  Check(!CountersLines(plain).empty() &&
            CountersLines(plain) == CountersLines(again),
        "stream work counters repeat across runs of one seed");

  perfbench::StreamSpec perturbed = SmallStream();
  perturbed.perturb_reference = true;
  const perfbench::Report bad = perfbench::RunStream(perturbed, options);
  Check(!bad.correct && bad.failed == 1,
        "perturbed reference: the final stream window counted as failed");

  options.trace = true;
  const perfbench::Report traced =
      perfbench::RunStream(SmallStream(), options);
  Check(traced.correct && traced.failed == 0, "traced stream passes");
  Check(traced.metrics.at("ledger.op_s") > 0 &&
            Near(LedgerRowSum(traced), traced.metrics.at("ledger.op_s")),
        "stream layer table sums to round wall time");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest WORK_DIR\n");
    return 2;
  }
  TestSyntheticLedger();
  TestBatch(argv[1]);
  TestStream(argv[1]);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
