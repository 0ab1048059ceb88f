// Copyright 2026 The DOD Authors.
//
// The streaming workload, stream_diffuse: uniform StreamBlocks fed
// open-loop through StreamingDetector::Feed.

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "common/stats.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "ledger.h"
#include "measure.h"
#include "observability/trace.h"
#include "streaming/streaming_detector.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Deterministic per-round work of the streaming service.
struct RoundCounters {
  uint64_t appended = 0;
  uint64_t expired = 0;
  uint64_t dirty_cells = 0;
  uint64_t insert_pairs = 0;
  uint64_t expiry_pairs = 0;
  uint64_t recounted = 0;
  uint64_t full_counted = 0;
  uint64_t flagged = 0;
  uint64_t cleared = 0;

  bool operator==(const RoundCounters&) const = default;
};

RoundCounters CountersOf(const dod::OutlierDelta& delta) {
  RoundCounters c;
  c.appended = delta.stats.appended_points;
  c.expired = delta.stats.expired_points;
  c.dirty_cells = delta.stats.dirty_cells;
  c.insert_pairs = delta.stats.insert_pairs;
  c.expiry_pairs = delta.stats.expiry_pairs;
  c.recounted = delta.stats.recounted_points;
  c.full_counted = delta.stats.full_counted_points;
  c.flagged = delta.newly_flagged.size();
  c.cleared = delta.newly_cleared.size();
  return c;
}

// The outlier set a consumer holds after applying `delta`.
void ApplyDelta(const dod::OutlierDelta& delta,
                std::vector<dod::PointId>* applied) {
  std::vector<dod::PointId> kept;
  kept.reserve(applied->size());
  std::set_difference(applied->begin(), applied->end(),
                      delta.newly_cleared.begin(), delta.newly_cleared.end(),
                      std::back_inserter(kept));
  applied->clear();
  std::merge(kept.begin(), kept.end(), delta.newly_flagged.begin(),
             delta.newly_flagged.end(), std::back_inserter(*applied));
}

std::vector<dod::StreamBlock> MakeBlocks(const StreamSpec& spec,
                                         size_t num_blocks, uint64_t seed) {
  const dod::Rect domain = dod::DomainForDensity(
      spec.density_blocks * spec.block_points, spec.density);
  const dod::Dataset points =
      dod::GenerateUniform(num_blocks * spec.block_points, domain, seed);
  std::vector<dod::StreamBlock> blocks;
  blocks.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    dod::StreamBlock block(points.dims());
    for (size_t i = 0; i < spec.block_points; ++i) {
      const auto id = static_cast<dod::PointId>(b * spec.block_points + i);
      block.Add(id, points[id]);
    }
    block.timestamp = static_cast<double>(b);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

dod::StreamingConfig StreamConfig(const StreamSpec& spec) {
  dod::StreamingConfig config;
  config.params.radius = spec.radius;
  config.params.min_neighbors = spec.k;
  config.num_threads = 1;
  config.window_blocks = spec.window_blocks;
  config.summaries = true;
  return config;
}

// A detector whose window has been filled by the first window_blocks
// blocks (untimed warm-up rounds; their deltas go into `applied`).
struct WarmDetector {
  std::unique_ptr<dod::StreamingDetector> detector;
  std::vector<dod::PointId> applied;
  std::vector<RoundCounters> rounds;
  std::string error;
};

WarmDetector StartDetector(const StreamSpec& spec,
                           const std::vector<dod::StreamBlock>& blocks) {
  WarmDetector warm;
  auto created = dod::StreamingDetector::Create(StreamConfig(spec));
  if (!created.ok()) {
    warm.error = created.status().ToString();
    return warm;
  }
  warm.detector = std::move(created.value());
  for (size_t b = 0; b < spec.window_blocks && b < blocks.size(); ++b) {
    auto fed = warm.detector->Feed(blocks[b]);
    if (!fed.ok()) {
      warm.error = fed.status().ToString();
      return warm;
    }
    ApplyDelta(fed.value(), &warm.applied);
    warm.rounds.push_back(CountersOf(fed.value()));
  }
  return warm;
}

// One measured round of the open-loop (or, traced, closed-loop) replay.
struct Round {
  bool ok = false;
  double latency_seconds = 0.0;  // from the block's due time
  double feed_seconds = 0.0;     // inside Feed
  double late_seconds = 0.0;     // generator behind its own schedule
  double dirty_fraction = 0.0;
  RoundCounters counters;
};

}  // namespace

StreamSpec StreamDiffuseSpec() { return StreamSpec(); }

Report RunStream(const StreamSpec& spec, const RunOptions& options) {
  Report report;
  const size_t rounds = std::max<size_t>(
      spec.min_rounds, static_cast<size_t>(std::ceil(
                           options.seconds * spec.rounds_per_second)));
  const size_t total_blocks = spec.window_blocks + rounds;

  // ---- Set-up: generate every block, create the detector, fill the
  // window. Warm-up rounds repeat exactly across set-up repetitions.
  std::vector<double> setup_seconds;
  std::vector<double> generate_seconds;
  std::vector<dod::StreamBlock> blocks;
  WarmDetector warm;
  std::vector<RoundCounters> first_warmup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    blocks = MakeBlocks(spec, total_blocks, options.seed);
    generate_seconds.push_back(Since(start));
    warm = StartDetector(spec, blocks);
    setup_seconds.push_back(Since(start));
    if (!warm.error.empty()) {
      report.correct = false;
      report.attempted = report.failed = 1;
      report.lines.push_back("setup failed: " + warm.error);
      return report;
    }
    if (rep == 0) {
      first_warmup = warm.rounds;
    } else if (warm.rounds != first_warmup) {
      report.correct = false;
      report.lines.push_back("warm-up round counters differ across set-ups");
    }
  }
  report.lines.push_back(Format(
      "workload: %zu-point uniform blocks, window %zu blocks (%zu points), "
      "r=%g k=%d, summaries on, 1 thread, open loop at %.1f rounds/s, "
      "%zu measured rounds",
      spec.block_points, spec.window_blocks,
      spec.window_blocks * spec.block_points, spec.radius, spec.k,
      spec.rounds_per_second, rounds));

  // ---- Measured rounds, open loop: block r is due at start + r / rate.
  dod::MetricsRegistry::Global().Reset();
  std::vector<Round> measured(rounds);
  const double period = 1.0 / spec.rounds_per_second;
  const Clock::time_point schedule_start =
      Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point previous_end = schedule_start;
  for (size_t r = 0; r < rounds; ++r) {
    Round& round = measured[r];
    const Clock::time_point due =
        schedule_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(period * r));
    // Spin rather than sleep: a sleeping thread wakes up to milliseconds
    // late on a shared host, which would charge scheduler noise to the
    // service. The spin keeps the generator on its schedule.
    while (Clock::now() < due) {
    }
    const Clock::time_point start = Clock::now();
    auto fed = warm.detector->Feed(blocks[spec.window_blocks + r]);
    const Clock::time_point end = Clock::now();
    round.latency_seconds = std::chrono::duration<double>(end - due).count();
    round.feed_seconds = std::chrono::duration<double>(end - start).count();
    round.late_seconds =
        std::chrono::duration<double>(start - std::max(due, previous_end))
            .count();
    previous_end = end;
    ++report.attempted;
    if (!fed.ok()) {
      ++report.failed;
      if (report.failed <= 3) {
        report.lines.push_back("round failed: " + fed.status().ToString());
      }
      continue;
    }
    round.ok = true;
    round.dirty_fraction = fed.value().stats.dirty_fraction;
    round.counters = CountersOf(fed.value());
    ApplyDelta(fed.value(), &warm.applied);
  }
  const MetricView stream_metrics;
  const double peak_rss_mb = PeakRssMb();  // before the check's allocations

  // ---- Check: the applied deltas equal a fresh centralized run
  // over the final window.
  dod::Dataset window(2);
  std::vector<dod::PointId> window_ids;
  for (size_t b = total_blocks - spec.window_blocks; b < total_blocks; ++b) {
    for (size_t i = 0; i < blocks[b].ids.size(); ++i) {
      window.Append(blocks[b].points[static_cast<dod::PointId>(i)]);
      window_ids.push_back(blocks[b].ids[i]);
    }
  }
  dod::DetectionParams params = StreamConfig(spec).params;
  std::vector<dod::PointId> expected;
  for (dod::PointId local : dod::DetectOutliersCentralized(
           window, dod::AlgorithmKind::kCellBased, params)) {
    expected.push_back(window_ids[local]);
  }
  std::sort(expected.begin(), expected.end());
  if (spec.perturb_reference) {
    if (expected.empty()) {
      expected.push_back(0);
    } else {
      expected.erase(expected.begin());
    }
  }
  const bool verdicts_match = warm.applied == expected &&
                              warm.detector->outliers() == expected;
  if (!verdicts_match) {
    ++report.failed;
    ++report.attempted;
    report.lines.push_back(Format(
        "final window check failed: applied deltas hold %zu outliers, the "
        "centralized reference %zu",
        warm.applied.size(), expected.size()));
  } else {
    ++report.attempted;
  }
  report.lines.push_back(Format(
      "check: final window %zu points, %zu outliers (%.2f %%) match "
      "DetectOutliersCentralized: %s",
      window.size(), expected.size(), 100.0 * expected.size() / window.size(),
      verdicts_match ? "yes" : "NO"));

  std::vector<double> latency;
  std::vector<double> feed;
  double feed_total = 0.0;
  double late_max = 0.0;
  uint64_t admitted_points = 0;
  RoundCounters totals;
  double dirty_sum = 0.0;
  for (const Round& round : measured) {
    if (!round.ok) continue;
    latency.push_back(round.latency_seconds);
    feed.push_back(round.feed_seconds);
    feed_total += round.feed_seconds;
    late_max = std::max(late_max, round.late_seconds);
    admitted_points += round.counters.appended;
    dirty_sum += round.dirty_fraction;
    totals.dirty_cells += round.counters.dirty_cells;
    totals.insert_pairs += round.counters.insert_pairs;
    totals.expiry_pairs += round.counters.expiry_pairs;
    totals.recounted += round.counters.recounted;
    totals.full_counted += round.counters.full_counted;
    totals.flagged += round.counters.flagged;
    totals.cleared += round.counters.cleared;
  }
  report.lines.push_back(Format(
      "counters: rounds=%zu admitted=%llu cells_redetected=%llu "
      "insert_pairs=%llu expiry_pairs=%llu recount_points=%llu "
      "full_count_points=%llu flagged=%llu cleared=%llu arena_points=%llu",
      latency.size(), static_cast<unsigned long long>(admitted_points),
      static_cast<unsigned long long>(totals.dirty_cells),
      static_cast<unsigned long long>(totals.insert_pairs),
      static_cast<unsigned long long>(totals.expiry_pairs),
      static_cast<unsigned long long>(totals.recounted),
      static_cast<unsigned long long>(totals.full_counted),
      static_cast<unsigned long long>(totals.flagged),
      static_cast<unsigned long long>(totals.cleared),
      static_cast<unsigned long long>(
          stream_metrics.Count("kernels.soa_reuse.points"))));

  if (!options.trace) {
    auto& m = report.metrics;
    m["op_p50_ms"] = Percentile(latency, 0.5) * 1e3;
    m["points_per_s"] =
        feed_total > 0 ? static_cast<double>(admitted_points) / feed_total : 0;
    m["setup_s"] = Percentile(setup_seconds, 0.5);
    m["peak_rss_mb"] = peak_rss_mb;
    report.lines.push_back("end-to-end (untraced):");
    PrintTimingLine("round (from due time)", latency, 1e3, "ms", &report);
    PrintTimingLine("Feed call", feed, 1e3, "ms", &report);
    report.lines.push_back(Format("  %-22s %.0f 1/s  (n=%zu rounds)",
                                  "stream_points_per_s", m["points_per_s"],
                                  feed.size()));
    PrintTimingLine("setup_s", setup_seconds, 1.0, "s", &report);
    report.lines.push_back(
        Format("  %-22s %.1f MB", "peak_rss_mb", m["peak_rss_mb"]));
    report.lines.push_back(Format("  %-22s %.3f ms", "generator late max",
                                  late_max * 1e3));
    report.lines.push_back(Format(
        "  %-22s %.4f  (%llu failed of %llu attempted)", "failed_frac",
        static_cast<double>(report.failed) / report.attempted,
        static_cast<unsigned long long>(report.failed),
        static_cast<unsigned long long>(report.attempted)));
    report.correct = report.failed == 0 && report.correct;
    return report;
  }

  // ---- Trace mode: replay the same rounds closed-loop on a fresh
  // detector, tracing every other round, so traced and untraced rounds
  // see the same machine state. Every round must repeat its counters.
  WarmDetector replay = StartDetector(spec, blocks);
  if (!replay.error.empty()) {
    report.correct = false;
    report.lines.push_back("traced replay setup failed: " + replay.error);
    return report;
  }
  LayerTable ledger;
  size_t ledger_rounds = 0;
  std::vector<double> traced_feed;
  std::vector<double> untraced_feed;
  size_t counter_mismatches = 0;
  for (size_t r = 0; r < rounds; ++r) {
    const bool traced = r % 2 == 1;
    if (traced) dod::trace::Start();
    const Clock::time_point start = Clock::now();
    dod::Result<dod::OutlierDelta> fed = dod::Status::Ok();
    {
      dod::trace::Span op_span("bench", "op");
      fed = replay.detector->Feed(blocks[spec.window_blocks + r]);
    }
    (traced ? traced_feed : untraced_feed).push_back(Since(start));
    if (!fed.ok() || !measured[r].ok ||
        !(CountersOf(fed.value()) == measured[r].counters)) {
      ++counter_mismatches;
    }
    if (!traced) continue;
    dod::trace::Stop();
    const std::vector<dod::trace::TraceEvent> events =
        dod::trace::SnapshotEvents();
    dod::trace::Clear();
    LayerTable table;
    if (AttributeOperation(events, LedgerSplits(), &table)) {
      ledger.Accumulate(table);
      ++ledger_rounds;
    }
  }
  if (counter_mismatches > 0) {
    report.correct = false;
    report.failed += counter_mismatches;
    report.lines.push_back(Format(
        "%zu traced rounds did not repeat the untraced round's counters",
        counter_mismatches));
  }
  if (ledger_rounds == 0) {
    report.correct = false;
    report.lines.push_back("no traced round produced a span tree");
    return report;
  }
  ledger.Scale(1.0 / static_cast<double>(ledger_rounds));
  const auto span_self = [&](const char* key) {
    const auto it = ledger.span_self_seconds.find(key);
    return it == ledger.span_self_seconds.end() ? 0.0 : it->second;
  };

  auto& m = report.metrics;
  m["data.generate_s"] = Percentile(generate_seconds, 0.5);
  m["detection.arena_s"] = span_self("detect/arena");
  m["detection.cell_s"] = span_self("detect/cell");
  m["streaming.feed_s"] = dod::Mean(feed);
  m["streaming.dirty_fraction"] =
      latency.empty() ? 0.0 : dirty_sum / static_cast<double>(latency.size());
  m["streaming.cells_redetected"] = static_cast<double>(totals.dirty_cells);
  m["streaming.insert_pairs"] = static_cast<double>(totals.insert_pairs);
  m["streaming.expiry_pairs"] = static_cast<double>(totals.expiry_pairs);
  m["streaming.recount_points"] = static_cast<double>(totals.recounted);
  m["streaming.arena_points"] =
      static_cast<double>(stream_metrics.Count("kernels.soa_reuse.points"));
  m["streaming.pairs_per_s"] =
      feed_total > 0
          ? static_cast<double>(totals.insert_pairs + totals.expiry_pairs) /
                feed_total
          : 0.0;
  m["streaming.round_p99_ms"] = Percentile(latency, 0.99) * 1e3;
  m["loadgen.late_ms_max"] = late_max * 1e3;
  m["observability.trace_overhead"] =
      Percentile(traced_feed, 0.5) / Percentile(untraced_feed, 0.5);
  AddLedgerMetrics(ledger, &report);
  report.lines.push_back(Format(
      "replay: %zu closed-loop rounds (every other one traced) repeated the "
      "open-loop counters, trace overhead %.3fx",
      rounds - counter_mismatches, m["observability.trace_overhead"]));
  PrintLedger(ledger, "wall seconds per Feed round", &report);
  report.correct = report.failed == 0 && report.correct;
  return report;
}

}  // namespace perfbench
