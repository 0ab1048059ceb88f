// Copyright 2026 The DOD Authors.
//
// The type-independent half of RunMapReduce (see job.h): job set-up, the
// checkpoint codec of task ledgers, crash injection, the failure and
// success folds, and the job's metrics.

#include "mapreduce/job.h"

#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <system_error>

#include "observability/metrics.h"

namespace dod {
namespace internal {
namespace {

// Ids of the durability.* metrics the engine feeds. Registered at every
// job start (Id() is idempotent), so the schema is always present in
// metrics dumps.
struct DurabilityMetrics {
  uint32_t tasks_written, tasks_resumed, bytes_written, write_seconds,
      load_failures, control_aborts, shuffle_budget_fallbacks, peak_bytes;
};

const DurabilityMetrics& Durability() {
  static const DurabilityMetrics ids = [] {
    MetricsRegistry& m = MetricsRegistry::Global();
    const MetricKind kCounter = MetricKind::kCounter;
    return DurabilityMetrics{
        .tasks_written = m.Id("durability.checkpoint.tasks_written", kCounter),
        .tasks_resumed = m.Id("durability.checkpoint.tasks_resumed", kCounter),
        .bytes_written = m.Id("durability.checkpoint.bytes_written", kCounter),
        .write_seconds = m.Id("durability.checkpoint.write_seconds",
                              MetricKind::kHistogram),
        .load_failures = m.Id("durability.checkpoint.load_failures", kCounter),
        .control_aborts = m.Id("durability.control.aborts", kCounter),
        .shuffle_budget_fallbacks =
            m.Id("durability.memory.shuffle_budget_fallbacks", kCounter),
        .peak_bytes = m.Id("durability.memory.peak_bytes", MetricKind::kGauge),
    };
  }();
  return ids;
}

// Folds the committed job's totals into the process-wide metrics registry.
// Every value is a sum (or max) of per-task deltas, so — like the JobStats
// merge — the recorded metrics are independent of scheduling order.
void RecordJobMetrics(const JobSpec& spec, const JobStats& stats,
                      const std::vector<MapLedger>& maps,
                      const std::vector<ReduceLedger>& reduces,
                      const ParallelExecutor& executor) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const auto counter = [&metrics](const char* name) {
    return metrics.Id(name, MetricKind::kCounter);
  };
  const auto histogram = [&metrics](const char* name) {
    return metrics.Id(name, MetricKind::kHistogram);
  };
  static const uint32_t kJobs = counter("mr.jobs");
  static const uint32_t kMapTasks = counter("mr.map_tasks");
  static const uint32_t kReduceTasks = counter("mr.reduce_tasks");
  static const uint32_t kAttempts = counter("mr.task_attempts");
  static const uint32_t kFailures = counter("mr.task_failures");
  static const uint32_t kRetries = counter("mr.task_retries");
  static const uint32_t kSpeculative = counter("mr.speculative_attempts");
  static const uint32_t kRecords = counter("mr.records_shuffled");
  static const uint32_t kBytes = counter("mr.bytes_shuffled");
  static const uint32_t kGroups = counter("mr.groups_reduced");
  // Tasks per grouping path, in GroupPath order.
  static const uint32_t kPathTasks[] = {
      counter("mr.shuffle.columnar_tasks"),
      counter("mr.shuffle.sorted_tasks"),
      counter("mr.shuffle.fallback_tasks"),
      counter("mr.shuffle.budget_fallback_tasks"),
      counter("mr.shuffle.columnar_spilled_tasks"),
      counter("mr.shuffle.sorted_spilled_tasks"),
  };
  static_assert(std::size(kPathTasks) ==
                static_cast<size_t>(GroupPath::kSortedSpilled) + 1);
  // Which guard pushed a columnar-requested task off the counting-sort
  // fast path, in FallbackReason order (kNone counts nothing).
  static const uint32_t kFallbacks[] = {
      0,
      counter("mr.shuffle.fallback.density"),
      counter("mr.shuffle.fallback.budget"),
      counter("mr.shuffle.fallback.spill"),
  };
  static_assert(std::size(kFallbacks) ==
                static_cast<size_t>(FallbackReason::kSpill) + 1);
  static const uint32_t kShuffleGroupSeconds =
      histogram("mr.shuffle.group_seconds");
  static const uint32_t kSpillMapTasks = counter("mr.spill.map_tasks");
  static const uint32_t kSpillReduceTasks = counter("mr.spill.reduce_tasks");
  static const uint32_t kSpillRunsWritten = counter("mr.spill.runs_written");
  static const uint32_t kSpillBytesWritten = counter("mr.spill.bytes_written");
  static const uint32_t kSpillRunsMerged = counter("mr.spill.runs_merged");
  static const uint32_t kSpillBytesRead = counter("mr.spill.bytes_read");
  static const uint32_t kSpillRunRecords = histogram("mr.spill.run_records");
  static const uint32_t kWorkerGroups =
      metrics.Id("runtime.worker_groups", MetricKind::kGauge);
  static const uint32_t kStealLocal = counter("runtime.steal.local");
  static const uint32_t kStealRemote = counter("runtime.steal.remote");
  static const uint32_t kThreads =
      metrics.Id("mr.threads_used", MetricKind::kGauge);
  static const uint32_t kMapSlot = histogram("mr.map_slot_seconds");
  static const uint32_t kReduceSlot = histogram("mr.reduce_slot_seconds");
  static const uint32_t kJobWall = histogram("mr.job_wall_seconds");
  metrics.Increment(kJobs);
  metrics.Increment(kMapTasks, static_cast<uint64_t>(maps.size()));
  metrics.Increment(kReduceTasks, static_cast<uint64_t>(reduces.size()));
  metrics.Increment(kAttempts, stats.task_attempts);
  metrics.Increment(kFailures, stats.task_failures);
  metrics.Increment(kRetries, stats.task_retries);
  metrics.Increment(kSpeculative, stats.speculative_attempts);
  metrics.Increment(kRecords, stats.records_shuffled);
  metrics.Increment(kBytes, stats.bytes_shuffled);
  metrics.Increment(kGroups, stats.groups_reduced);
  for (const ReduceLedger& task : reduces) {
    metrics.Increment(kPathTasks[static_cast<size_t>(task.group_path)]);
    if (task.group_path == GroupPath::kSortedBudget) {
      metrics.Increment(Durability().shuffle_budget_fallbacks);
    }
    if (task.fallback != FallbackReason::kNone) {
      metrics.Increment(kFallbacks[static_cast<size_t>(task.fallback)]);
    }
    metrics.Observe(kShuffleGroupSeconds, task.group_seconds);
  }
  // Spill accounting, from the committed run descriptors — failed
  // attempts' truncated files never show up here. Every run is written
  // once and merged back once: map runs by the reduce task of their
  // partition, reduce runs by the task that spilled them.
  const auto record_runs = [&](const std::vector<SpillRunInfo>& runs,
                               uint32_t task_counter) {
    if (runs.empty()) return;
    metrics.Increment(task_counter);
    for (const SpillRunInfo& run : runs) {
      metrics.Increment(kSpillRunsWritten);
      metrics.Increment(kSpillBytesWritten, run.bytes);
      metrics.Observe(kSpillRunRecords, static_cast<double>(run.records));
      metrics.Increment(kSpillRunsMerged);
      metrics.Increment(kSpillBytesRead, run.bytes);
    }
  };
  for (const MapLedger& task : maps) record_runs(task.runs, kSpillMapTasks);
  for (const ReduceLedger& task : reduces) {
    record_runs(task.spill_runs, kSpillReduceTasks);
  }
  metrics.SetMax(kWorkerGroups, static_cast<double>(executor.num_groups()));
  // Steal-locality scorecard of this job's pool. Scheduling-dependent,
  // hence exempt from the metric-determinism contract (observability
  // tests treat the runtime.steal.* prefix like timing metrics).
  metrics.Increment(kStealLocal, executor.local_steals());
  metrics.Increment(kStealRemote, executor.remote_steals());
  metrics.SetMax(kThreads, static_cast<double>(stats.threads_used));
  for (double seconds : stats.map_task_seconds) {
    metrics.Observe(kMapSlot, seconds);
  }
  for (double seconds : stats.reduce_task_seconds) {
    metrics.Observe(kReduceSlot, seconds);
  }
  metrics.Observe(kJobWall, stats.wall_seconds);
  if (spec.memory != nullptr) {
    metrics.SetMax(Durability().peak_bytes,
                   static_cast<double>(spec.memory->peak_bytes()));
  }
}

}  // namespace

Result<std::string> BeginJob(const JobSpec& spec, bool checkpointable,
                             bool spillable, SpillGc* gc) {
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument(
        "RunMapReduce: num_reduce_tasks must be >= 1");
  }
  if (!checkpointable && spec.checkpoint != nullptr) {
    return Status::Unimplemented(
        "RunMapReduce: checkpointing requires trivially copyable "
        "key/value/output types");
  }
  if (!spillable && spec.spill.enabled()) {
    return Status::Unimplemented(
        "RunMapReduce: shuffle spilling requires trivially copyable "
        "key/value types");
  }
  std::string spill_dir;
  if (spec.spill.enabled()) {
    // Run files live in a per-job subdirectory so jobs sharing a spill
    // dir cannot truncate each other's files. Keyed by the checkpoint
    // store's identity when checkpointing — a resumed run must land in
    // the same namespace its crashed predecessor spilled into.
    spill_dir = SpillJobDir(
        spec.spill.dir,
        spec.checkpoint != nullptr
            ? spec.checkpoint->dir() + "\n" + spec.checkpoint->job_key()
            : std::string());
    std::error_code ec;
    std::filesystem::create_directories(spill_dir, ec);
    if (ec) {
      return Status::IoError("RunMapReduce: cannot create spill directory " +
                             spill_dir + ": " + ec.message());
    }
    gc->TrackDir(spill_dir);
    // A checkpointing job's durable records reference the run files, so a
    // structured failure must leave them on disk for the resumed run —
    // matching what a real crash (no destructors) does. Disarmed at the
    // job's success exit.
    gc->set_keep_files(spec.checkpoint != nullptr);
  }
  Durability();  // registers the durability.* schema for this job's dump
  return spill_dir;
}

bool RestoreTask(const JobSpec& spec, TaskPhase phase, int index,
                 TaskLedger* ledger,
                 const std::function<Status(PayloadReader&)>& body) {
  const char* name = TaskPhaseName(phase);
  if (spec.checkpoint == nullptr || !spec.resume ||
      !spec.checkpoint->HasTask(name, index)) {
    return false;
  }
  trace::Span span("durability", "checkpoint_restore");
  span.Arg("phase", name).Arg("task", static_cast<uint64_t>(index));
  const Status restored = [&]() -> Status {
    DOD_ASSIGN_OR_RETURN(const std::string payload,
                         spec.checkpoint->LoadTask(name, index));
    PayloadReader reader(payload);
    DOD_RETURN_IF_ERROR(DeserializeJobStatsDelta(&reader, &ledger->stats));
    DOD_RETURN_IF_ERROR(reader.F64Vec(&ledger->slot_costs));
    DOD_RETURN_IF_ERROR(body(reader));
    if (spec.restore_extra) {
      DOD_RETURN_IF_ERROR(spec.restore_extra(phase, index, reader));
    }
    return reader.ExpectDone();
  }();
  MetricsRegistry& metrics = MetricsRegistry::Global();
  if (restored.ok()) {
    span.Arg("status", "ok");
    metrics.Increment(Durability().tasks_resumed);
    return true;
  }
  span.Arg("status", "failed");
  metrics.Increment(Durability().load_failures);
  DOD_LOG(Warning) << name << " task " << index << " checkpoint unusable ("
                   << restored.ToString() << "); re-running";
  return false;
}

void PersistTask(const JobSpec& spec, TaskPhase phase, int index,
                 const TaskLedger& ledger,
                 const std::function<void(PayloadWriter&)>& body) {
  if (spec.checkpoint == nullptr) return;
  PayloadWriter payload;
  SerializeJobStatsDelta(ledger.stats, &payload);
  payload.F64Vec(ledger.slot_costs);
  body(payload);
  if (spec.checkpoint_extra) spec.checkpoint_extra(phase, index, payload);

  const char* name = TaskPhaseName(phase);
  trace::Span span("durability", "checkpoint_commit");
  span.Arg("phase", name)
      .Arg("task", index)
      .Arg("bytes", static_cast<uint64_t>(payload.size()));
  StopWatch watch;
  const Status status = spec.checkpoint->CommitTask(name, index, payload.str());
  if (!status.ok()) {
    span.Arg("status", "failed");
    DOD_LOG(Warning) << "checkpoint write for " << name << " task " << index
                     << " failed: " << status.ToString();
    return;
  }
  span.Arg("status", "ok");
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Increment(Durability().tasks_written);
  metrics.Increment(Durability().bytes_written, payload.size());
  metrics.Observe(Durability().write_seconds, watch.ElapsedSeconds());
}

void WriteSpillRuns(const std::vector<SpillRunInfo>& runs,
                    PayloadWriter& out) {
  out.U64(runs.size());
  for (const SpillRunInfo& run : runs) {
    out.String(run.file);
    out.U32(run.partition);
    out.U64(run.records);
    out.U64(run.offset);
    out.U64(run.bytes);
    out.U64(run.checksum);
    out.U64(run.min_key);
    out.U64(run.max_key);
  }
}

Status ReadSpillRuns(PayloadReader& in, size_t num_reduce,
                     size_t record_bytes, std::vector<SpillRunInfo>* runs) {
  uint64_t num_runs = 0;
  DOD_RETURN_IF_ERROR(in.U64(&num_runs));
  runs->clear();
  for (uint64_t i = 0; i < num_runs; ++i) {
    SpillRunInfo run;
    DOD_RETURN_IF_ERROR(in.String(&run.file));
    DOD_RETURN_IF_ERROR(in.U32(&run.partition));
    DOD_RETURN_IF_ERROR(in.U64(&run.records));
    DOD_RETURN_IF_ERROR(in.U64(&run.offset));
    DOD_RETURN_IF_ERROR(in.U64(&run.bytes));
    DOD_RETURN_IF_ERROR(in.U64(&run.checksum));
    DOD_RETURN_IF_ERROR(in.U64(&run.min_key));
    DOD_RETURN_IF_ERROR(in.U64(&run.max_key));
    if (run.partition >= num_reduce) {
      return Status::IoError("map checkpoint spill run has bad partition");
    }
    // Division, not multiplication: records * record_bytes may wrap.
    if (run.bytes % record_bytes != 0 ||
        run.bytes / record_bytes != run.records) {
      return Status::IoError("map checkpoint spill run of " +
                             std::to_string(run.records) +
                             " records does not span " +
                             std::to_string(run.bytes) + " bytes");
    }
    // A crash leaves the run files on disk, but a vanished or shrunken
    // file must fail the restore. offset + bytes may wrap, so compare
    // each against what is left.
    std::error_code ec;
    const uint64_t size = std::filesystem::file_size(run.file, ec);
    if (ec || run.offset > size || run.bytes > size - run.offset) {
      return Status::IoError("map checkpoint spill run file " + run.file +
                             " missing or short");
    }
    runs->push_back(std::move(run));
  }
  return Status::Ok();
}

void WriteGroupSummary(const ReduceLedger& ledger, PayloadWriter& out) {
  out.U8(static_cast<uint8_t>(ledger.group_path));
  out.U8(static_cast<uint8_t>(ledger.fallback));
  out.F64(ledger.group_seconds);
}

Status ReadGroupSummary(PayloadReader& in, ReduceLedger* ledger) {
  uint8_t path = 0;
  DOD_RETURN_IF_ERROR(in.U8(&path));
  if (path > static_cast<uint8_t>(GroupPath::kSortedSpilled)) {
    return Status::IoError("reduce checkpoint has unknown group path");
  }
  ledger->group_path = static_cast<GroupPath>(path);
  uint8_t reason = 0;
  DOD_RETURN_IF_ERROR(in.U8(&reason));
  if (reason > static_cast<uint8_t>(FallbackReason::kSpill)) {
    return Status::IoError("reduce checkpoint has unknown fallback reason");
  }
  ledger->fallback = static_cast<FallbackReason>(reason);
  return in.F64(&ledger->group_seconds);
}

Status MaybeCrash(const FaultSpec& faults, TaskPhase phase, int index) {
  if (faults.crash_at_task != index || faults.crash_phase != phase) {
    return Status::Ok();
  }
  if (faults.crash_exit) {
    // Simulated kill -9: no destructors, no stream flushes. Only the
    // durably committed checkpoints survive — which is the point.
    std::_Exit(42);
  }
  return Status::Unavailable(std::string("injected crash after ") +
                             TaskPhaseName(phase) + " task " +
                             std::to_string(index) + " committed");
}

void FoldTask(TaskPhase phase, const TaskLedger& ledger, JobStats* stats) {
  stats->MergeFrom(ledger.stats);
  std::vector<double>& seconds = phase == TaskPhase::kMap
                                     ? stats->map_task_seconds
                                     : stats->reduce_task_seconds;
  seconds.insert(seconds.end(), ledger.slot_costs.begin(),
                 ledger.slot_costs.end());
}

Status FailJob(const JobSpec& spec, const StopWatch& wall,
               const JobStats& stats, Status failure) {
  if (IsTerminalTaskStatus(failure.code())) {
    MetricsRegistry::Global().Increment(Durability().control_aborts);
  }
  if (spec.partial_stats != nullptr) {
    *spec.partial_stats = stats;
    spec.partial_stats->wall_seconds = wall.ElapsedSeconds();
  }
  return failure;
}

std::vector<int> ReduceHints(
    const std::vector<std::vector<uint64_t>>& group_records) {
  // Ties go to the lowest group; -1 = no preference. Hints steer
  // scheduling only — results and error selection are placement-
  // independent — and because retries run inside one submitted pool
  // closure, a hint stays pinned through every attempt of its task,
  // including speculative re-execution.
  std::vector<int> hints(group_records.size(), -1);
  for (size_t r = 0; r < group_records.size(); ++r) {
    const std::vector<uint64_t>& per_group = group_records[r];
    if (per_group.size() < 2) continue;
    uint64_t best = 0;
    for (size_t g = 0; g < per_group.size(); ++g) {
      if (per_group[g] > best) {
        best = per_group[g];
        hints[r] = static_cast<int>(g);
      }
    }
  }
  return hints;
}

void FinishJob(const JobSpec& spec, int blacklisted_nodes,
               const StopWatch& wall, const std::vector<MapLedger>& maps,
               const std::vector<ReduceLedger>& reduces,
               const ParallelExecutor& executor, JobStats* stats) {
  // Blacklisted nodes' slots are gone; the surviving slots absorb all
  // charged attempt costs (including failures, backoff, and speculation).
  stats->nodes_blacklisted = static_cast<uint64_t>(blacklisted_nodes);
  stats->stage_times.map_seconds =
      Makespan(stats->map_task_seconds,
               spec.cluster.usable_map_slots(blacklisted_nodes));
  stats->stage_times.shuffle_seconds =
      static_cast<double>(stats->bytes_shuffled) /
      spec.cluster.ShuffleBytesPerSecond();
  stats->stage_times.reduce_seconds =
      Makespan(stats->reduce_task_seconds,
               spec.cluster.usable_reduce_slots(blacklisted_nodes));
  stats->wall_seconds = wall.ElapsedSeconds();
  RecordJobMetrics(spec, *stats, maps, reduces, executor);
}

}  // namespace internal
}  // namespace dod
