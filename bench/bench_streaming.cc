// Copyright 2026 The DOD Authors.
//
// Streaming benchmarks, three regimes:
//
// 1. Incremental vs from-scratch under localized traffic — the case for
//    carrying per-point neighbor counts across rounds. A sliding window of
//    spatially localized blocks (traffic concentrated in a small patch per
//    round, the small-delta regime streams are built for) is advanced one
//    block per round:
//
//      * incremental: one long-lived StreamingDetector Feed per round;
//      * from-scratch: a fresh StreamingDetector fed the whole window as
//        one block — the same kernels, arena staging and threading, but
//        every point counted, which is exactly what a batch re-run costs.
//
// 2. The same comparison under diffuse traffic: blocks uniform over the
//    whole domain, so every round touches cells everywhere and the dirty
//    set approaches every resident cell, while the per-round work stays
//    O(block × ring). A third service consumes the schedule through a
//    time-based window (timestamps = round index, window_seconds =
//    window_blocks — the same resident set every round) to pin the
//    time-window configuration to the same verdicts.
//
// 3. Reorder-buffer overhead — the price of out-of-order admission. The
//    diffuse schedule is jitter-shuffled within a lateness bound and
//    replayed through the watermark reorder stage (Ingest + Flush); the
//    rate ratio against in-order Feed is reported as reorder_overhead.
//
// Outlier sets are asserted identical across every paired round (speed
// must never buy a different answer). Emits BENCH_streaming.json with
// rounds/sec per mode, the speedups and the mean dirty-cell fraction; CI
// smoke-checks small_delta_speedup (regime 1) and diffuse_speedup
// (regime 2).

#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "streaming/streaming_detector.h"

namespace {

using dod::PointId;
using dod::StreamBlock;
using dod::StreamingConfig;
using dod::StreamingDetector;

constexpr double kDomain = 64.0;  // points in [0, kDomain)^2
constexpr double kPatch = 8.0;    // each block lands in one patch^2 region
constexpr double kRadius = 2.0;
constexpr int kMinNeighbors = 4;

StreamingDetector& Must(dod::Result<std::unique_ptr<StreamingDetector>>& r) {
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return *r.value();
}

void MustFeed(StreamingDetector& detector, const StreamBlock& block,
              double* seconds = nullptr) {
  dod::StopWatch watch;
  auto fed = detector.Feed(block);
  if (seconds != nullptr) *seconds += watch.ElapsedSeconds();
  if (!fed.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", fed.status().ToString().c_str());
    std::exit(1);
  }
}

// A sliding-window block schedule over [0, domain)^2. Each block lands in
// one random patch × patch square; patch == domain makes blocks diffuse.
struct Workload {
  size_t block_size = 0;
  size_t window_blocks = 0;
  double domain = 0.0;
  double patch = 0.0;
  std::deque<StreamBlock> window;  // current resident blocks, oldest first
  dod::Rng rng;
  uint64_t next_id = 0;
  uint64_t round = 0;

  Workload(size_t block_size, size_t window_points, double domain,
           double patch, uint64_t seed)
      : block_size(block_size),
        window_blocks(window_points / block_size),
        domain(domain),
        patch(patch),
        rng(seed) {}

  StreamBlock NextBlock() {
    StreamBlock block(2);
    const double px = patch < domain ? rng.NextDouble() * (domain - patch)
                                     : 0.0;
    const double py = patch < domain ? rng.NextDouble() * (domain - patch)
                                     : 0.0;
    for (size_t i = 0; i < block_size; ++i) {
      const double p[2] = {px + rng.NextDouble() * patch,
                           py + rng.NextDouble() * patch};
      block.Add(static_cast<PointId>(next_id++), p);
    }
    // Round index as timestamp: with window_seconds == window_blocks the
    // time-based window keeps exactly the count-based resident set.
    block.timestamp = static_cast<double>(round++);
    return block;
  }

  StreamBlock Advance() {
    StreamBlock block = NextBlock();
    window.push_back(block);
    if (window.size() > window_blocks) window.pop_front();
    return block;
  }

  // Every resident point as one block (the from-scratch round's input).
  StreamBlock WholeWindow() const {
    StreamBlock all(2);
    for (const StreamBlock& block : window) {
      for (size_t i = 0; i < block.ids.size(); ++i) {
        all.Add(block.ids[i], block.points[static_cast<PointId>(i)]);
      }
    }
    return all;
  }
};

// Localized traffic: each block fills one kPatch^2 square of the domain.
Workload LocalizedWorkload(size_t block_size, size_t window_points) {
  return Workload(block_size, window_points, kDomain, kPatch, 0x57AE);
}

// Diffuse traffic: blocks uniform over a density-1 domain.
Workload DiffuseWorkload(size_t block_size, size_t window_points) {
  const double domain = std::sqrt(static_cast<double>(window_points));
  return Workload(block_size, window_points, domain, domain, 0xD1FF);
}

StreamingConfig ServiceConfig(size_t window_blocks) {
  StreamingConfig config;
  config.params.radius = kRadius;
  config.params.min_neighbors = kMinNeighbors;
  config.params.seed = 11;
  config.window_blocks = window_blocks;
  config.num_threads = 1;  // isolate the algorithmic win from threading
  return config;
}

struct ConfigResult {
  size_t block_size = 0;
  size_t window_points = 0;
  double incremental_rounds_per_sec = 0.0;
  double scratch_rounds_per_sec = 0.0;
  double speedup = 0.0;
  double mean_dirty_fraction = 0.0;
  double mean_recounted = 0.0;
};

// Incremental Feed vs a fresh detector fed the whole window, on one
// workload. With `time_window` a third service consumes the schedule
// through the time-based window and must flag the same outliers.
ConfigResult MeasureIncremental(Workload workload, int rounds,
                                bool time_window) {
  auto created = StreamingDetector::Create(
      ServiceConfig(workload.window_blocks));
  StreamingDetector& incremental = Must(created);
  StreamingConfig timed_config = ServiceConfig(/*window_blocks=*/0);
  timed_config.window_seconds = static_cast<double>(workload.window_blocks);
  auto timed_created = StreamingDetector::Create(timed_config);
  StreamingDetector& timed = Must(timed_created);

  // Prefill the window (not measured).
  for (size_t b = 0; b < workload.window_blocks; ++b) {
    const StreamBlock block = workload.Advance();
    MustFeed(incremental, block);
    if (time_window) MustFeed(timed, block);
  }

  // Measured steady-state rounds: each Feed appends one block and expires
  // the oldest. From-scratch is sampled every 4th round (it is the slow
  // side; a few samples pin its rate fine).
  ConfigResult result;
  result.block_size = workload.block_size;
  result.window_points = workload.window_blocks * workload.block_size;
  double incremental_seconds = 0.0;
  double scratch_seconds = 0.0;
  int scratch_samples = 0;
  for (int round = 0; round < rounds; ++round) {
    const StreamBlock block = workload.Advance();
    dod::StopWatch watch;
    auto fed = incremental.Feed(block);
    incremental_seconds += watch.ElapsedSeconds();
    if (!fed.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", fed.status().ToString().c_str());
      std::exit(1);
    }
    result.mean_dirty_fraction += fed.value().stats.dirty_fraction;
    result.mean_recounted +=
        static_cast<double>(fed.value().stats.recounted_points);
    if (time_window) {
      MustFeed(timed, block);
      if (timed.outliers() != incremental.outliers()) {
        std::fprintf(stderr,
                     "FATAL: time-window outlier set disagrees at round %d "
                     "(block_size %zu)\n",
                     round, workload.block_size);
        std::exit(1);
      }
    }

    if (round % 4 == 0) {
      auto scratch = StreamingDetector::Create(
          ServiceConfig(workload.window_blocks));
      const StreamBlock whole = workload.WholeWindow();
      dod::StopWatch scratch_watch;
      auto refed = scratch.value()->Feed(whole);
      scratch_seconds += scratch_watch.ElapsedSeconds();
      ++scratch_samples;
      if (!refed.ok() ||
          scratch.value()->outliers() != incremental.outliers()) {
        std::fprintf(stderr,
                     "FATAL: from-scratch disagrees at round %d "
                     "(block_size %zu)\n",
                     round, workload.block_size);
        std::exit(1);
      }
    }
  }
  result.incremental_rounds_per_sec = rounds / incremental_seconds;
  result.scratch_rounds_per_sec = scratch_samples / scratch_seconds;
  result.speedup =
      result.incremental_rounds_per_sec / result.scratch_rounds_per_sec;
  result.mean_dirty_fraction /= rounds;
  result.mean_recounted /= rounds;
  return result;
}

// ---- Regime 3: reorder-buffer overhead under out-of-order arrival -------

// The same diffuse schedule consumed twice: in timestamp order through
// Feed, and shuffled within the lateness bound through the watermark
// reorder stage (Ingest + final Flush). Every shuffled arrival pays the
// canonical-position insert and the watermark/drain bookkeeping on top of
// the identical admitted rounds, so the rate ratio is the price of
// out-of-order admission itself.
struct ReorderResult {
  size_t block_size = 0;
  size_t window_points = 0;
  double inorder_rounds_per_sec = 0.0;
  double reorder_rounds_per_sec = 0.0;
  double overhead = 0.0;  // in-order rate / reorder rate (>= 1: slower)
  double mean_buffered = 0.0;
};

ReorderResult MeasureReorder(size_t block_size, size_t window_points,
                             int rounds) {
  const double lateness = 4.0;
  Workload workload = DiffuseWorkload(block_size, window_points);
  auto inorder_created =
      StreamingDetector::Create(ServiceConfig(workload.window_blocks));
  StreamingConfig reorder_config = ServiceConfig(workload.window_blocks);
  reorder_config.watermark.enabled = true;
  reorder_config.watermark.lateness = lateness;
  auto reorder_created = StreamingDetector::Create(reorder_config);
  StreamingDetector& inorder = Must(inorder_created);
  StreamingDetector& reorder = Must(reorder_created);

  auto must_ingest = [&](const StreamBlock& block, double* seconds,
                         double* buffered) {
    dod::StopWatch watch;
    auto ingested = reorder.Ingest(block);
    *seconds += watch.ElapsedSeconds();
    if (!ingested.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   ingested.status().ToString().c_str());
      std::exit(1);
    }
    if (buffered != nullptr) {
      *buffered += static_cast<double>(ingested.value().buffered);
    }
  };

  // Prefill both services in order (not measured).
  double sink = 0.0;
  for (size_t b = 0; b < workload.window_blocks; ++b) {
    const StreamBlock block = workload.NextBlock();
    MustFeed(inorder, block);
    must_ingest(block, &sink, nullptr);
  }

  // Pre-generate the measured schedule, then jitter-shuffle the arrival
  // order within the lateness bound (priority = ts + U[0,L)) — the same
  // permutation family the conformance suite fuzzes.
  std::vector<StreamBlock> schedule;
  schedule.reserve(rounds);
  for (int round = 0; round < rounds; ++round) {
    schedule.push_back(workload.NextBlock());
  }
  std::vector<std::pair<double, size_t>> order;
  order.reserve(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    order.emplace_back(schedule[i].timestamp +
                           workload.rng.NextDouble() * lateness,
                       i);
  }
  std::sort(order.begin(), order.end());

  ReorderResult result;
  result.block_size = block_size;
  result.window_points = workload.window_blocks * block_size;
  double inorder_seconds = 0.0;
  double reorder_seconds = 0.0;
  for (const StreamBlock& block : schedule) {
    MustFeed(inorder, block, &inorder_seconds);
  }
  for (const auto& [priority, i] : order) {
    must_ingest(schedule[i], &reorder_seconds, &result.mean_buffered);
  }
  {
    dod::StopWatch watch;
    auto flushed = reorder.Flush();
    reorder_seconds += watch.ElapsedSeconds();
    if (!flushed.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   flushed.status().ToString().c_str());
      std::exit(1);
    }
  }
  if (reorder.outliers() != inorder.outliers()) {
    std::fprintf(stderr,
                 "FATAL: shuffled replay disagrees with in-order "
                 "(block_size %zu)\n",
                 block_size);
    std::exit(1);
  }
  result.inorder_rounds_per_sec = rounds / inorder_seconds;
  result.reorder_rounds_per_sec = rounds / reorder_seconds;
  result.overhead =
      result.inorder_rounds_per_sec / result.reorder_rounds_per_sec;
  result.mean_buffered /= rounds;
  return result;
}

}  // namespace

int main() {
  const size_t window_points = dod::bench::ScaledN(16384);
  const int rounds = 20;

  dod::bench::PrintHeader(
      "Streaming: incremental neighbor-count summaries",
      "Regime 1 (localized blocks) and regime 2 (diffuse blocks): one Feed\n"
      "per round vs a fresh detector counting the whole window; regime 2\n"
      "adds a time-based-window service pinned to the same verdicts.\n"
      "Outlier sets asserted identical across paired rounds.");

  const auto print_results = [](const std::vector<ConfigResult>& results) {
    std::printf("%11s %9s %14s %14s %9s %8s %9s\n", "block_size", "window",
                "incr rnd/s", "scratch rnd/s", "speedup", "dirty%",
                "recounts");
    for (const ConfigResult& r : results) {
      std::printf("%11zu %9zu %14.1f %14.1f %8.2fx %7.1f%% %9.1f\n",
                  r.block_size, r.window_points, r.incremental_rounds_per_sec,
                  r.scratch_rounds_per_sec, r.speedup,
                  100.0 * r.mean_dirty_fraction, r.mean_recounted);
    }
  };

  std::vector<ConfigResult> results;
  for (size_t block_size : {128, 512, 2048}) {
    results.push_back(MeasureIncremental(
        LocalizedWorkload(block_size, window_points), rounds,
        /*time_window=*/false));
  }
  print_results(results);

  // Regime 2: diffuse traffic, smaller window (the dirty set covers the
  // domain either way; what differs is the per-round work).
  const size_t scatter_points = dod::bench::ScaledN(8192);
  std::vector<ConfigResult> diffuse_results;
  for (size_t block_size : {128, 512}) {
    diffuse_results.push_back(MeasureIncremental(
        DiffuseWorkload(block_size, scatter_points), rounds,
        /*time_window=*/true));
  }
  std::printf("\n");
  print_results(diffuse_results);

  // Regime 3: the same diffuse schedule shuffled within a lateness bound
  // and replayed through the watermark reorder stage. The overhead ratio
  // prices out-of-order admission against in-order Feed.
  const std::vector<size_t> reorder_block_sizes = {512};
  std::vector<ReorderResult> reorder_results;
  std::printf("\n%11s %9s %14s %14s %9s %9s\n", "block_size", "window",
              "inord rnd/s", "reord rnd/s", "overhead", "buffered");
  for (size_t block_size : reorder_block_sizes) {
    const ReorderResult r = MeasureReorder(block_size, scatter_points, rounds);
    reorder_results.push_back(r);
    std::printf("%11zu %9zu %14.1f %14.1f %8.2fx %9.1f\n", r.block_size,
                r.window_points, r.inorder_rounds_per_sec,
                r.reorder_rounds_per_sec, r.overhead, r.mean_buffered);
  }

  // The headline numbers CI guards: the smallest-block configurations,
  // where incrementality has the most to offer.
  const double small_delta_speedup = results.front().speedup;
  const double diffuse_speedup = diffuse_results.front().speedup;
  const double reorder_overhead = reorder_results.front().overhead;

  std::FILE* f = std::fopen("BENCH_streaming.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_streaming.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"streaming\",\n  \"rounds\": %d,\n",
               rounds);
  const auto write_configs = [f](const char* name,
                                 const std::vector<ConfigResult>& configs) {
    std::fprintf(f, "  \"%s\": [\n", name);
    for (size_t i = 0; i < configs.size(); ++i) {
      const ConfigResult& r = configs[i];
      std::fprintf(f,
                   "    {\"block_size\": %zu, \"window_points\": %zu, "
                   "\"incremental_rounds_per_sec\": %.1f, "
                   "\"scratch_rounds_per_sec\": %.1f, \"speedup\": %.3f, "
                   "\"mean_dirty_fraction\": %.4f, "
                   "\"mean_recounted_points\": %.1f}%s\n",
                   r.block_size, r.window_points,
                   r.incremental_rounds_per_sec, r.scratch_rounds_per_sec,
                   r.speedup, r.mean_dirty_fraction, r.mean_recounted,
                   i + 1 < configs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  };
  write_configs("configs", results);
  write_configs("diffuse_configs", diffuse_results);
  std::fprintf(f, "  \"reorder_configs\": [\n");
  for (size_t i = 0; i < reorder_results.size(); ++i) {
    const ReorderResult& r = reorder_results[i];
    std::fprintf(f,
                 "    {\"block_size\": %zu, \"window_points\": %zu, "
                 "\"inorder_rounds_per_sec\": %.1f, "
                 "\"reorder_rounds_per_sec\": %.1f, \"overhead\": %.3f, "
                 "\"mean_buffered_blocks\": %.1f}%s\n",
                 r.block_size, r.window_points, r.inorder_rounds_per_sec,
                 r.reorder_rounds_per_sec, r.overhead, r.mean_buffered,
                 i + 1 < reorder_results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"small_delta_speedup\": %.3f,\n", small_delta_speedup);
  std::fprintf(f, "  \"diffuse_speedup\": %.3f,\n", diffuse_speedup);
  std::fprintf(f, "  \"reorder_overhead\": %.3f\n}\n", reorder_overhead);
  std::fclose(f);
  std::printf(
      "\nwrote BENCH_streaming.json (small-delta speedup %.2fx, "
      "diffuse speedup %.2fx, reorder overhead %.2fx)\n",
      small_delta_speedup, diffuse_speedup, reorder_overhead);
  return 0;
}
