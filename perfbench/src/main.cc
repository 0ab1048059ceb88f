// Copyright 2026 The DOD Authors.
//
// perfbench — the repository benchmark.
//
//   perfbench --workload geo_batch --seed 1 --seconds 20 --trace 0
//             [--work DIR]
//
// Prints a human-readable report, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (untraced
// operations); with --trace 1 they are the per-layer ones (a traced pass
// beside an untraced one). Exit code 0 when a report was produced, 2 on
// bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "geo_batch|kernel_batch|stream_diffuse --seed N --seconds S "
               "--trace 0|1 [--work DIR]\n",
               message);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  options.work_dir = ".bench_build/work";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--work") {
      options.work_dir = value;
    } else if (!ParseNumber(value, &number)) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed" && number >= 0) {
      options.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" && number > 0) {
      options.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
      have_trace = true;
    } else {
      return Usage(("unknown flag or bad value: " + flag).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  perfbench::Report report;
  if (!perfbench::RunNamedWorkload(workload, options, &report)) {
    return Usage(("unknown workload " + workload).c_str());
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  for (const std::string& line : report.lines) {
    std::printf("%s\n", line.c_str());
  }

  const auto& catalogue = options.trace ? perfbench::PerLayerMetrics()
                                        : perfbench::EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < catalogue.size(); ++i) {
    const auto it = report.metrics.find(catalogue[i].name);
    double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char rendered[64];
    std::snprintf(rendered, sizeof(rendered), "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + catalogue[i].name +
            "\": {\"value\": " + rendered + ", \"unit\": \"" +
            catalogue[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
