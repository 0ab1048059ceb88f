// Copyright 2026 The DOD Authors.
//
// Measurement helpers shared by the benchmark's workloads: timing,
// percentiles, peak memory, a by-name view of the metrics registry, and
// the report lines of the layer table.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"
#include "observability/metrics.h"
#include "workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Set-up is repeated and its median reported, so one slow repetition
// (page faults, allocator growth) does not decide the metric.
inline constexpr int kSetupRepeats = 7;

double Since(Clock::time_point start);
std::string Format(const char* format, ...)
    __attribute__((format(printf, 1, 2)));
// Peak resident set size of this process so far, in MiB.
double PeakRssMb();
// Linear-interpolated percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
// `requested` capped at the hardware thread count (at least 1).
int WorkerThreads(int requested);

// A by-name view of the process metrics registry at one instant.
class MetricView {
 public:
  MetricView();
  // Counter total, gauge maximum or histogram sum; 0 when never recorded.
  double Value(const std::string& name) const;
  // Counter total or observation count; 0 when never recorded.
  uint64_t Count(const std::string& name) const;

 private:
  std::map<std::string, dod::MetricSnapshot> by_name_;
};

// Stores the table as the ledger.* and unaccounted_s metrics.
void AddLedgerMetrics(const LayerTable& table, Report* report);
// Appends the table, one row per layer, to the report.
void PrintLedger(const LayerTable& table, const char* unit_label,
                 Report* report);
// Appends "name p50 p99 min max (n=...)" of `values` times `scale`.
void PrintTimingLine(const char* name, const std::vector<double>& values,
                     double scale, const char* unit, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
