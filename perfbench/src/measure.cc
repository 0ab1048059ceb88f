// Copyright 2026 The DOD Authors.

#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <thread>

namespace perfbench {

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Format(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const size_t low = static_cast<size_t>(std::floor(rank));
  const size_t high = std::min(values.size() - 1, low + 1);
  return values[low] + (values[high] - values[low]) * (rank - low);
}

int WorkerThreads(int requested) {
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::max(1, std::min(requested, hardware));
}

MetricView::MetricView() {
  for (dod::MetricSnapshot& snapshot :
       dod::MetricsRegistry::Global().Snapshot()) {
    by_name_[snapshot.name] = std::move(snapshot);
  }
}

double MetricView::Value(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0.0;
  if (it->second.kind == dod::MetricKind::kCounter) {
    return static_cast<double>(it->second.count);
  }
  return it->second.value;
}

uint64_t MetricView::Count(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.count;
}

void AddLedgerMetrics(const LayerTable& table, Report* report) {
  report->metrics["ledger.op_s"] = table.op_seconds;
  for (const std::string& layer : LayerNames()) {
    report->metrics["ledger." + layer + "_s"] = table.layer_seconds.at(layer);
  }
  report->metrics["unaccounted_s"] = table.unaccounted_seconds;
}

void PrintLedger(const LayerTable& table, const char* unit_label,
                 Report* report) {
  const auto row = [&](const std::string& name, double seconds) {
    const double share =
        table.op_seconds > 0 ? 100.0 * seconds / table.op_seconds : 0.0;
    report->lines.push_back(
        Format("  %-14s %10.6f s  %5.1f %%", name.c_str(), seconds, share));
  };
  report->lines.push_back(
      Format("layer table (%s, mean over traced ops):", unit_label));
  for (const std::string& layer : LayerNames()) {
    row(layer, table.layer_seconds.at(layer));
  }
  row("unaccounted", table.unaccounted_seconds);
  report->lines.push_back(Format("  %-14s %10.6f s  (rows sum to %.6f s)",
                                 "op wall", table.op_seconds,
                                 table.RowSum()));
}

void PrintTimingLine(const char* name, const std::vector<double>& values,
                     double scale, const char* unit, Report* report) {
  report->lines.push_back(Format(
      "  %-22s p50 %.4f %s  p99 %.4f %s  min %.4f  max %.4f  (n=%zu)", name,
      Percentile(values, 0.5) * scale, unit, Percentile(values, 0.99) * scale,
      unit, Percentile(values, 0.0) * scale, Percentile(values, 1.0) * scale,
      values.size()));
}

}  // namespace perfbench
