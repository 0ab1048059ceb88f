// Copyright 2026 The DOD Authors.

#include "ledger.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>

namespace perfbench {

using dod::trace::TraceEvent;

namespace {

bool Is(const TraceEvent& event, const char* category, const char* name) {
  return std::strcmp(event.category, category) == 0 &&
         std::strcmp(event.name, name) == 0;
}

// Layer charged with a span's self time. Categories that already name a
// layer map to it; the rest follow the module that opens the span.
std::string LayerOf(const TraceEvent& event) {
  const std::string category = event.category;
  if (category == "bench") {
    if (Is(event, "bench", "read") || Is(event, "bench", "write")) return "io";
    return "";
  }
  if (category == "pipeline") {
    if (Is(event, "pipeline", "sample")) return "partition";
    if (Is(event, "pipeline", "detect_job") ||
        Is(event, "pipeline", "verify_job")) {
      return "mapreduce";
    }
    return "core";
  }
  if (category == "phase" || category == "task" || category == "shuffle") {
    return "mapreduce";
  }
  if (category == "detect") return "detection";
  if (category == "stream") return "streaming";
  for (const std::string& layer : LayerNames()) {
    if (category == layer) return layer;
  }
  return "";
}

double Micros(double us) { return us * 1e-6; }

// Self time of every event (same order as `events`): duration minus its
// direct children on the same thread. Spans on one thread are properly
// nested (RAII), so children never overlap each other.
std::vector<double> SelfSeconds(const std::vector<TraceEvent>& events) {
  std::vector<double> self(events.size());
  std::unordered_map<uint32_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < events.size(); ++i) {
    self[i] = Micros(events[i].dur_us);
    by_thread[events[i].tid].push_back(i);
  }
  for (auto& [tid, order] : by_thread) {
    // Parents first: earlier start, and the longer span on a tie.
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (events[a].ts_us != events[b].ts_us) {
        return events[a].ts_us < events[b].ts_us;
      }
      return events[a].dur_us > events[b].dur_us;
    });
    std::vector<size_t> open;
    for (size_t i : order) {
      while (!open.empty() && events[i].ts_us >=
                                  events[open.back()].ts_us +
                                      events[open.back()].dur_us) {
        open.pop_back();
      }
      if (!open.empty()) self[open.back()] -= Micros(events[i].dur_us);
      open.push_back(i);
    }
  }
  return self;
}

}  // namespace

const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> kLayers = {
      "data",      "io",        "partition",  "dshc",      "alloc",
      "core",      "mapreduce", "runtime",    "detection", "kernels",
      "durability", "streaming", "observability"};
  return kLayers;
}

double LayerTable::RowSum() const {
  double sum = unaccounted_seconds;
  for (const auto& [layer, seconds] : layer_seconds) sum += seconds;
  return sum;
}

void LayerTable::Accumulate(const LayerTable& other) {
  op_seconds += other.op_seconds;
  unaccounted_seconds += other.unaccounted_seconds;
  for (const auto& [layer, seconds] : other.layer_seconds) {
    layer_seconds[layer] += seconds;
  }
  for (const auto& [span, seconds] : other.span_self_seconds) {
    span_self_seconds[span] += seconds;
  }
}

void LayerTable::Scale(double factor) {
  op_seconds *= factor;
  unaccounted_seconds *= factor;
  for (auto& entry : layer_seconds) entry.second *= factor;
  for (auto& entry : span_self_seconds) entry.second *= factor;
}

bool AttributeOperation(const std::vector<TraceEvent>& events,
                        const LedgerSplits& splits, LayerTable* table) {
  size_t root = events.size();
  for (size_t i = 0; i < events.size(); ++i) {
    if (!Is(events[i], "bench", "op")) continue;
    if (root != events.size()) return false;
    root = i;
  }
  if (root == events.size()) return false;

  const uint32_t main_tid = events[root].tid;
  const double begin = events[root].ts_us;
  const double end = begin + events[root].dur_us;
  const auto inside = [&](const TraceEvent& event, double from, double to) {
    return event.ts_us >= from && event.ts_us < to;
  };
  const std::vector<double> self = SelfSeconds(events);

  *table = LayerTable();
  table->op_seconds = Micros(events[root].dur_us);
  for (const std::string& layer : LayerNames()) table->layer_seconds[layer] = 0;

  // Share of map-task self time that is routing; the rest is emission.
  double map_task_seconds = 0.0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (!inside(events[i], begin, end)) continue;
    table->span_self_seconds[std::string(events[i].category) + "/" +
                             events[i].name] += self[i];
    if (Is(events[i], "task", "map_attempt")) map_task_seconds += self[i];
  }
  const double route_share =
      map_task_seconds > 0.0
          ? std::min(1.0, splits.route_seconds / map_task_seconds)
          : 0.0;

  // Charges `seconds` of `event`'s self time, scaled to wall seconds.
  const auto charge = [&](const TraceEvent& event, double seconds) {
    if (Is(event, "task", "map_attempt")) {
      table->layer_seconds["partition"] += seconds * route_share;
      table->layer_seconds["mapreduce"] += seconds * (1.0 - route_share);
      return;
    }
    if (Is(event, "pipeline", "plan")) {
      const double cluster = std::min(splits.cluster_seconds, seconds);
      const double pack = std::min(splits.pack_seconds, seconds - cluster);
      table->layer_seconds["dshc"] += cluster;
      table->layer_seconds["alloc"] += pack;
      table->layer_seconds["core"] += seconds - cluster - pack;
      return;
    }
    const std::string layer = LayerOf(event);
    if (layer.empty()) {
      table->unaccounted_seconds += seconds;
    } else {
      table->layer_seconds[layer] += seconds;
    }
  };

  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    if (event.tid != main_tid || !inside(event, begin, end)) continue;
    if (i == root) {
      table->unaccounted_seconds += self[i];
      continue;
    }
    if (std::strcmp(event.category, "phase") != 0) {
      charge(event, self[i]);
      continue;
    }
    // A phase: the calling thread waits while pool workers run the tasks.
    const double phase_end = event.ts_us + event.dur_us;
    std::vector<size_t> work;
    std::set<uint32_t> workers;
    for (size_t j = 0; j < events.size(); ++j) {
      if (events[j].tid == main_tid ||
          !inside(events[j], event.ts_us, phase_end)) {
        continue;
      }
      work.push_back(j);
      workers.insert(events[j].tid);
    }
    if (work.empty()) {
      charge(event, self[i]);
      continue;
    }
    const double threads = static_cast<double>(std::max<size_t>(
        static_cast<size_t>(std::max(1, splits.worker_threads)),
        workers.size()));
    double busy = 0.0;
    for (size_t j : work) {
      charge(events[j], self[j] / threads);
      busy += self[j] / threads;
    }
    table->layer_seconds["runtime"] += self[i] - busy;
  }
  return true;
}

}  // namespace perfbench
