// Copyright 2026 The DOD Authors.
//
// A single-process MapReduce execution engine.
//
// The engine implements the data-flow contract of Fig. 2 in the paper:
// mappers consume input splits and emit (key, value) records; a partition
// callable routes each record to a reduce task, where records are grouped
// by key; each reduce task processes its groups independently with no
// communication to other reducers (shared-nothing, no synchronization).
// Each role has exactly one entry point: Mapper::Map runs once per split
// attempt, Reducer::Reduce once per reduce-task attempt with all of the
// task's key groups, and both return a Status.
//
// Every task is actually executed, and its duration measured. Stage times
// are then derived by scheduling the measured task costs onto the cluster's
// slots (see cluster.h). This yields the end-to-end execution time metric
// the paper reports while running deterministically on one machine. The
// real wall-clock time of each phase is measured alongside and reported in
// JobStats, so simulated makespan and actual speedup sit side by side.
//
// Tasks really run concurrently: the map and reduce phases fan out over a
// work-stealing thread pool (runtime/parallel_executor.h), with
// JobSpec::num_threads workers (<= 0 = all hardware threads; 1 reproduces
// the historical sequential loop exactly). Output is byte-identical for
// every thread count: each task stages its results privately and the
// engine commits the staged results after the phase barrier in
// task-index order, while counters and stats merge order-independently
// (see job_stats.h). Consequently Mapper/Reducer instances are invoked
// concurrently for *distinct* tasks — user code must be reentrant: keep
// per-call scratch on the stack, treat shared inputs as read-only.
//
// Execution is fault tolerant: every task runs as a sequence of attempts
// under a TaskRunner (retry with simulated backoff, speculative execution
// for stragglers, node blacklisting), optionally under a deterministic
// FaultInjector. Attempts stage their output and commit only on success, so
// committed job output is identical to a fault-free run; a task that
// exhausts its retry budget turns the job into a structured error instead
// of aborting the process.
//
// Only the typed data path lives in this header. Everything that does not
// depend on the key/value/output types — job set-up, the checkpoint codec
// of a task's accounting, crash injection, the stats folds and the job
// metrics — is compiled once, in job.cc.

#ifndef DOD_MAPREDUCE_JOB_H_
#define DOD_MAPREDUCE_JOB_H_

#include <functional>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/timer.h"
#include "durability/checkpoint.h"
#include "durability/memory_budget.h"
#include "durability/payload.h"
#include "durability/run_control.h"
#include "mapreduce/cluster.h"
#include "mapreduce/counters.h"
#include "mapreduce/fault_injection.h"
#include "mapreduce/job_stats.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"
#include "mapreduce/task_runner.h"
#include "observability/trace.h"
#include "runtime/parallel_executor.h"

namespace dod {

// Receives the records a mapper emits.
template <typename K, typename V>
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(const K& key, const V& value) = 0;
};

// User map function: consumes input split `split_index` (the mapper knows
// how to fetch its own input, e.g. from a BlockStore) and emits records. A
// non-OK status fails the attempt; the engine retries it, then propagates
// the error with the task's context. Map may be called several times for
// the same split (task re-execution) and concurrently for different splits
// (parallel execution), so it must be deterministic, free of external side
// effects, and must not share mutable scratch state between calls.
template <typename K, typename V>
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual Status Map(size_t split_index, Emitter<K, V>& out) = 0;
};

// User reduce function: one call per reduce-task attempt, receiving every
// key group of the task at once, in ascending key order. Values are read
// in place (zero-copy) through `groups`, which also lets a reducer build
// per-task shared state (e.g. one probe arena serving all groups). Results
// go to `out`; `counters` aggregates job counters. A failed attempt's
// output and counters are discarded and the whole task re-runs, so — like
// Map — Reduce must be deterministic; distinct tasks run concurrently.
template <typename K, typename V, typename Out>
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual Status Reduce(const GroupedView<K, V>& groups,
                        std::vector<Out>& out, Counters& counters) = 0;
};

struct JobSpec {
  // Number of reduce tasks (the partition function must return values in
  // [0, num_reduce_tasks)).
  int num_reduce_tasks = 1;
  // Worker threads executing map/reduce tasks: <= 0 uses every hardware
  // thread, 1 runs the sequential inline path (no pool).
  int num_threads = 0;
  ClusterSpec cluster;
  // Input bytes of each split; charged as HDFS scan time against the
  // owning map task at cluster.disk_read_mbps_per_slot. Empty = no charge.
  std::vector<uint64_t> split_input_bytes;
  // Reduce-side grouping strategy (see mapreduce/shuffle.h). Both modes
  // commit byte-identical job output; kSorted is the escape hatch.
  ShuffleMode shuffle = ShuffleMode::kColumnar;
  // Spill-to-disk shuffle (see mapreduce/spill.h). Orthogonal to the
  // grouping mode: a map task whose emitted bytes cross the (budget-wired)
  // threshold flushes its buckets as sorted runs, and reduce grouping
  // merges runs and memory segments back together — job output stays
  // byte-identical to the all-in-memory shuffle. It also lets a reduce
  // task under budget pressure spill its memory segments (the degrade in
  // mapreduce/spill.h). Disabled when dir is empty. Requires trivially
  // copyable K/V (enforced with a structured error, like checkpointing).
  SpillPolicy spill;
  // Worker locality groups of the task pool: <= 0 auto-detects (NUMA
  // nodes, else cache-domain buckets — see ThreadPool::DetectWorkerGroups).
  // Reduce tasks are hinted onto the group whose map tasks produced most
  // of their input; placement never affects results.
  int worker_groups = 0;
  // Fault injection (disabled by default) and the task attempt policy.
  FaultSpec faults;
  RetryPolicy retry;

  // ---- Durable execution (all optional; pointers are borrowed and must
  // outlive the job) -----------------------------------------------------

  // Committed-task checkpoint store. When set, every map/reduce task's
  // committed output (plus its stats delta and slot costs) is durably
  // recorded right after commit; with `resume` also set, tasks already
  // recorded are restored instead of re-executed, and the job's output and
  // stats come out byte-identical to an uninterrupted run. Requires
  // trivially copyable K/V/Out (enforced with a structured error); a
  // checkpoint that fails to load is logged, counted, and the task simply
  // re-runs.
  CheckpointStore* checkpoint = nullptr;
  bool resume = false;
  // Deadline/cancellation control, checked before every task attempt and
  // between phases; a fired condition aborts with kDeadlineExceeded /
  // kCancelled (see `partial_stats`).
  const RunControl* control = nullptr;
  // Memory budget. Deterministically degrades the columnar shuffle to the
  // sorted path when its scratch would not fit (result-identical, counted
  // in mr.shuffle.budget_fallback_tasks), or — with a spill directory —
  // spills a reduce task's memory segments when scratch fits but not next
  // to them, and turns allocation failures inside attempts into
  // kResourceExhausted.
  MemoryBudget* memory = nullptr;
  // When set, a failing job merges the stats of all work that did complete
  // into *partial_stats before returning its error — partial-progress
  // reporting for deadline, cancellation, and budget aborts.
  JobStats* partial_stats = nullptr;
  // Optional hooks appending / restoring caller-owned per-task durable
  // state on the checkpoint payloads (e.g. the detection pipeline's
  // partition-profile records, which otherwise live outside JobStats
  // deltas and would be lost across a resume).
  std::function<void(TaskPhase, int, PayloadWriter&)> checkpoint_extra;
  std::function<Status(TaskPhase, int, PayloadReader&)> restore_extra;
};

template <typename Out>
struct JobOutput {
  std::vector<Out> output;
  JobStats stats;
};

namespace internal {

// Shuffle volume produced by one attempt; merged into JobStats on commit
// so failed attempts leave no trace in the data-flow accounting.
struct ShuffleAccounting {
  uint64_t records = 0;
  uint64_t bytes = 0;
};

// A task's accounting, kept apart from its typed records so the
// type-independent code in job.cc can checkpoint, fold and report it.
struct TaskLedger {
  JobStats stats;
  std::vector<double> slot_costs;
};

struct MapLedger : TaskLedger {
  // Spilled shuffle: the winning attempt's run descriptors, in flush
  // order. A task spills everything or nothing (TaskSpiller::Finish), so
  // non-empty runs imply empty committed buckets.
  std::vector<SpillRunInfo> runs;
  // Worker group that executed the winning attempt (-1 when unknown,
  // e.g. sequential runs or checkpoint restores): the group that
  // first-touched this task's output, feeding the reduce placement hints.
  int worker_group = -1;
};

struct ReduceLedger : TaskLedger {
  GroupPath group_path = GroupPath::kSorted;
  FallbackReason fallback = FallbackReason::kNone;
  // Reduce-side spill degrade (see GroupSegments): the task's memory
  // segments, one sorted run each, written out so the columnar histogram
  // could run without them resident. Task-level so a retry regroups from
  // the existing runs instead of re-spilling already-freed segments.
  std::vector<SpillRunInfo> spill_runs;
  double group_seconds = 0.0;
};

// ---- Type-independent job code (job.cc) --------------------------------

// Validates `spec` against the job's types, registers the durability.*
// metrics and, when spilling, creates the job's private spill directory
// and arms `gc` on it. Returns that directory (empty = no spilling).
Result<std::string> BeginJob(const JobSpec& spec, bool checkpointable,
                             bool spillable, SpillGc* gc);

// Restores task (phase, index) from spec.checkpoint when resuming: the
// ledger's stats delta and slot costs, then `body` (the phase's records),
// then spec.restore_extra. Returns false when there is nothing to restore
// or the record is unusable — logged and counted; the caller resets the
// task and re-runs it (self-healing).
bool RestoreTask(const JobSpec& spec, TaskPhase phase, int index,
                 TaskLedger* ledger,
                 const std::function<Status(PayloadReader&)>& body);

// Durably records a committed task in the same layout RestoreTask reads.
// Best-effort: a failed write only costs resumability, never the job.
void PersistTask(const JobSpec& spec, TaskPhase phase, int index,
                 const TaskLedger& ledger,
                 const std::function<void(PayloadWriter&)>& body);

// Checkpoint codec of a spilled map task's run descriptors. The reader
// validates every descriptor against `num_reduce` and `record_bytes` and
// its backing file, so a bad record fails the restore instead of the job.
void WriteSpillRuns(const std::vector<SpillRunInfo>& runs,
                    PayloadWriter& out);
Status ReadSpillRuns(PayloadReader& in, size_t num_reduce,
                     size_t record_bytes, std::vector<SpillRunInfo>* runs);

// Checkpoint codec of a reduce task's grouping summary.
void WriteGroupSummary(const ReduceLedger& ledger, PayloadWriter& out);
Status ReadGroupSummary(PayloadReader& in, ReduceLedger* ledger);

// Fires the crash FaultSpec configures after task (phase, index)
// committed (and, when checkpointing, after its record is durable).
Status MaybeCrash(const FaultSpec& faults, TaskPhase phase, int index);

// Folds one task's stats delta and slot costs into the job's totals.
void FoldTask(TaskPhase phase, const TaskLedger& ledger, JobStats* stats);

// Returns `failure`, first copying the completed work's accounting into
// *spec.partial_stats when requested.
Status FailJob(const JobSpec& spec, const StopWatch& wall,
               const JobStats& stats, Status failure);

// Reduce task r's placement hint: the worker group whose map tasks
// produced the plurality of its input records (group_records[r][g]).
std::vector<int> ReduceHints(
    const std::vector<std::vector<uint64_t>>& group_records);

// Derives the cluster-stage times and wall time of a committed job and
// folds its totals into the process-wide metrics registry.
void FinishJob(const JobSpec& spec, int blacklisted_nodes,
               const StopWatch& wall, const std::vector<MapLedger>& maps,
               const std::vector<ReduceLedger>& reduces,
               const ParallelExecutor& executor, JobStats* stats);

// Count-prefixed raw records. Only for types whose bytes are their value
// (the checkpointable K/V/Out; see RunMapReduce).
template <typename T>
void WriteRecords(const std::vector<T>& records, PayloadWriter& out) {
  out.U64(records.size());
  out.Raw(records.data(), records.size() * sizeof(T));
}

template <typename T>
Status ReadRecords(PayloadReader& in, std::vector<T>* records) {
  uint64_t count = 0;
  DOD_RETURN_IF_ERROR(in.U64(&count));
  if (count > in.remaining() / sizeof(T)) {
    return Status::IoError("checkpoint record array overruns payload");
  }
  records->resize(static_cast<size_t>(count));
  return in.Raw(records->data(), static_cast<size_t>(count) * sizeof(T));
}

// Buffers emitted records into per-reduce-task buckets (attempt staging).
// `Partition` is the job's routing callable, invoked directly per record.
template <typename K, typename V, typename Partition>
class ShuffleEmitter : public Emitter<K, V> {
 public:
  using Buckets = std::vector<std::vector<std::pair<K, V>>>;

  ShuffleEmitter(Buckets& buckets, const Partition& part, size_t record_bytes,
                 const std::function<size_t(const K&, const V&)>& record_size,
                 ShuffleAccounting& accounting, ShuffleFaultFilter* filter,
                 TaskSpiller<K, V>* spiller, uint64_t spill_threshold)
      : buckets_(buckets),
        part_(part),
        record_bytes_(record_bytes),
        record_size_(record_size),
        accounting_(accounting),
        filter_(filter),
        spiller_(spiller),
        spill_threshold_(spill_threshold) {}

  void Emit(const K& key, const V& value) override {
    if (filter_ != nullptr) {
      const FaultKind fault = filter_->Next();
      // A dropped record never reaches its bucket; a corrupted one does but
      // poisons the attempt, whose whole staging is then discarded. Either
      // way the filter fails the attempt, so no faulty data ever commits.
      if (fault == FaultKind::kShuffleDrop) return;
    }
    const int task = part_(key);
    DOD_CHECK(task >= 0 && task < static_cast<int>(buckets_.size()));
    buckets_[static_cast<size_t>(task)].emplace_back(key, value);
    ++accounting_.records;
    accounting_.bytes += record_size_ ? record_size_(key, value)
                                      : record_bytes_;
    if (spiller_ != nullptr) {
      // The spill trigger runs on resident pair bytes, not the charged
      // wire size: what the threshold bounds is this task's memory.
      bytes_since_spill_ += sizeof(std::pair<K, V>);
      if (bytes_since_spill_ >= spill_threshold_) {
        spiller_->Spill(buckets_);
        bytes_since_spill_ = 0;
      }
    }
  }

 private:
  Buckets& buckets_;
  const Partition& part_;
  size_t record_bytes_;
  const std::function<size_t(const K&, const V&)>& record_size_;
  ShuffleAccounting& accounting_;
  ShuffleFaultFilter* filter_;
  TaskSpiller<K, V>* spiller_;
  uint64_t spill_threshold_;
  uint64_t bytes_since_spill_ = 0;
};

}  // namespace internal

// Runs a full MapReduce job: map over `num_splits` splits, shuffle, reduce.
//
// `partition` routes a key to its reduce task — the hook through which DOD
// injects its allocation plan (Fig. 6, Step 3). It is any callable taking
// `const K&` and returning the task index, invoked directly once per
// emitted record (a lambda inlines into the emit path); it is called
// concurrently from map tasks and must be pure. `record_bytes` is the wire
// size charged per shuffled record; pass `record_size` instead when record
// sizes vary (heap-allocated payloads), in which case it overrides
// `record_bytes` per record.
//
// Returns the job output, or the structured error of the first task (by
// task index) that exhausted its attempt budget (see
// mapreduce/task_runner.h). The process never aborts on task failure.
template <typename K, typename V, typename Out, typename Partition>
Result<JobOutput<Out>> RunMapReduce(
    size_t num_splits, Mapper<K, V>& mapper, Reducer<K, V, Out>& reducer,
    const Partition& partition, const JobSpec& spec,
    size_t record_bytes = sizeof(K) + sizeof(V),
    const std::function<size_t(const K&, const V&)>& record_size = {}) {
  // Checkpoint payloads store records and outputs as raw bytes; that is
  // only sound for trivially copyable types. Jobs with richer types can
  // still run — they just cannot checkpoint. The check is on K and V, not
  // on pair<K, V>: pair's user-provided assignment operator makes the pair
  // formally non-trivially-copyable even when its representation — all
  // that the byte copy touches — is two trivially copyable members. Spill
  // runs store the shuffled pairs the same way.
  constexpr bool kSpillable =
      std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>;
  constexpr bool kCheckpointable =
      kSpillable && std::is_trivially_copyable_v<Out>;
  internal::SpillGc spill_gc;
  DOD_ASSIGN_OR_RETURN(
      const std::string spill_dir,
      internal::BeginJob(spec, kCheckpointable, kSpillable, &spill_gc));
  const bool spilling = !spill_dir.empty();
  const uint64_t spill_threshold = spec.spill.EffectiveThreshold(spec.memory);
  JobOutput<Out> result;
  JobStats& stats = result.stats;
  StopWatch wall;

  const FaultInjector injector(spec.faults);
  TaskRunner runner(spec.retry, injector, spec.cluster, spec.control);
  ParallelExecutor executor(spec.num_threads, spec.worker_groups);
  stats.threads_used = executor.num_threads();

  const size_t num_reduce = static_cast<size_t>(spec.num_reduce_tasks);
  using Buckets = std::vector<std::vector<std::pair<K, V>>>;

  // ---- Map phase -------------------------------------------------------
  // Every map task stages into private buckets; the winning attempt's
  // staging is committed into the task's slot and handed to the reduce
  // tasks after the barrier, in split order — so every reduce task's input
  // is byte-identical no matter how tasks interleave.
  struct MapTask {
    Buckets staging;
    Buckets committed;
    internal::ShuffleAccounting accounting;
  };
  std::vector<MapTask> map_tasks(num_splits);
  std::vector<internal::MapLedger> map_ledgers(num_splits);
  StopWatch map_wall;
  Status map_status;
  {
    trace::Span phase_span("phase", "map");
    phase_span.Arg("tasks", static_cast<uint64_t>(num_splits));
    map_status = executor.RunTasks(
      num_splits, [&](size_t split) -> Status {
        const int index = static_cast<int>(split);
        MapTask& task = map_tasks[split];
        internal::MapLedger& ledger = map_ledgers[split];
        if constexpr (kCheckpointable) {
          const bool restored = internal::RestoreTask(
              spec, TaskPhase::kMap, index, &ledger,
              [&](PayloadReader& reader) -> Status {
                uint8_t spilled = 0;
                DOD_RETURN_IF_ERROR(reader.U8(&spilled));
                if (spilled > 1) {
                  return Status::IoError("map checkpoint has unknown layout");
                }
                task.committed.assign(num_reduce,
                                      typename Buckets::value_type());
                if (spilled == 1) {
                  // The task's shuffle output lives in spill runs, which a
                  // crash deliberately leaves on disk (SpillGc destructors
                  // never ran).
                  DOD_RETURN_IF_ERROR(internal::ReadSpillRuns(
                      reader, num_reduce, sizeof(std::pair<K, V>),
                      &ledger.runs));
                  for (const internal::SpillRunInfo& run : ledger.runs) {
                    spill_gc.Track(run.file);
                  }
                  return Status::Ok();
                }
                uint64_t num_buckets = 0;
                DOD_RETURN_IF_ERROR(reader.U64(&num_buckets));
                if (num_buckets != num_reduce) {
                  return Status::IoError(
                      "map checkpoint bucket count mismatch");
                }
                for (auto& bucket : task.committed) {
                  DOD_RETURN_IF_ERROR(internal::ReadRecords(reader, &bucket));
                }
                return Status::Ok();
              });
          if (restored) return Status::Ok();
          task = MapTask();
          ledger = internal::MapLedger();
        }
        task.staging.resize(num_reduce);
        const double scan_seconds =
            split < spec.split_input_bytes.size()
                ? static_cast<double>(spec.split_input_bytes[split]) /
                      (spec.cluster.disk_read_mbps_per_slot * 1e6)
                : 0.0;
        // One spiller (and run file) per task, reset at each attempt:
        // attempts are sequential and speculative duplicates are simulated
        // only (task_runner.h), so truncating the file cannot race and a
        // failed attempt leaves no orphan — its successor reuses the path.
        std::optional<internal::TaskSpiller<K, V>> spiller;
        if (spilling) {
          spiller.emplace(internal::SpillFilePath(spill_dir, "map", index),
                          &spill_gc);
        }
        const Status run_status = runner.RunTask(
            TaskPhase::kMap, index, scan_seconds,
            [&](int attempt) -> Status {
              for (auto& bucket : task.staging) bucket.clear();
              task.accounting = internal::ShuffleAccounting{};
              if (spiller.has_value()) spiller->Reset();
              ShuffleFaultFilter filter(injector, TaskPhase::kMap, index,
                                        attempt);
              internal::ShuffleEmitter<K, V, Partition> emitter(
                  task.staging, partition, record_bytes, record_size,
                  task.accounting, injector.enabled() ? &filter : nullptr,
                  spiller.has_value() ? &*spiller : nullptr, spill_threshold);
              const Status map_status = mapper.Map(split, emitter);
              ledger.stats.shuffle_records_dropped += filter.dropped();
              ledger.stats.shuffle_records_corrupted += filter.corrupted();
              if (!map_status.ok()) return map_status;
              if (spiller.has_value()) {
                // Tasks that spilled flush their remainder so the task's
                // records live entirely in runs; surface write errors as
                // attempt failures (retried like any task error).
                DOD_RETURN_IF_ERROR(spiller->Finish(task.staging));
              }
              ledger.worker_group = ThreadPool::CurrentWorkerGroup();
              return filter.AttemptStatus();
            },
            [&]() {
              task.committed = std::move(task.staging);
              if (spiller.has_value()) ledger.runs = spiller->TakeRuns();
              ledger.stats.records_shuffled += task.accounting.records;
              ledger.stats.bytes_shuffled += task.accounting.bytes;
            },
            ledger.stats, ledger.slot_costs);
        if (!run_status.ok()) return run_status;
        if constexpr (kCheckpointable) {
          internal::PersistTask(
              spec, TaskPhase::kMap, index, ledger,
              [&](PayloadWriter& payload) {
                if (!ledger.runs.empty()) {
                  // Spilled task: checkpoint the run descriptors, not the
                  // data — the runs are already on disk and survive a crash.
                  payload.U8(1);
                  internal::WriteSpillRuns(ledger.runs, payload);
                  return;
                }
                payload.U8(0);
                payload.U64(task.committed.size());
                for (const auto& bucket : task.committed) {
                  internal::WriteRecords(bucket, payload);
                }
              });
        }
        return internal::MaybeCrash(spec.faults, TaskPhase::kMap, index);
      });
  }
  // Fold the map tasks' accounting in before checking the phase status, so
  // a failing job still reports the work that completed.
  stats.map_wall_seconds = map_wall.ElapsedSeconds();
  for (const internal::MapLedger& ledger : map_ledgers) {
    internal::FoldTask(TaskPhase::kMap, ledger, &stats);
  }
  if (!map_status.ok()) {
    return internal::FailJob(spec, wall, stats, std::move(map_status));
  }

  // Deterministic shuffle hand-off: each reduce task gets an ordered
  // segment list — the in-memory buckets of non-spilled map tasks,
  // referenced in place (map_tasks outlives the reduce phase), and the
  // disk runs of spilled ones, in (split, flush) order — that the
  // grouping layer merges back together.
  std::vector<std::vector<internal::ShuffleSegment<K, V>>> segments(
      num_reduce);
  // group_records[r][g]: records of reduce task r produced by map tasks
  // that ran on worker group g — the placement-hint scorecard.
  const int exec_groups = executor.num_groups();
  std::vector<std::vector<uint64_t>> group_records(
      num_reduce, std::vector<uint64_t>(static_cast<size_t>(exec_groups), 0));
  {
    trace::Span shuffle_span("phase", "shuffle");
    try {
      for (size_t split = 0; split < num_splits; ++split) {
        MapTask& task = map_tasks[split];
        const internal::MapLedger& ledger = map_ledgers[split];
        if (ledger.worker_group >= 0 && ledger.worker_group < exec_groups) {
          const size_t g = static_cast<size_t>(ledger.worker_group);
          for (size_t r = 0; r < task.committed.size(); ++r) {
            group_records[r][g] += task.committed[r].size();
          }
          for (const internal::SpillRunInfo& run : ledger.runs) {
            group_records[run.partition][g] += run.records;
          }
        }
        for (size_t r = 0; r < task.committed.size(); ++r) {
          if (task.committed[r].empty()) continue;
          segments[r].push_back(internal::ShuffleSegment<K, V>{
              &task.committed[r], nullptr});
        }
        // Runs were flushed in time-slice order and each carries its
        // partition; appending in recorded order preserves emission order
        // per reduce task.
        for (const internal::SpillRunInfo& run : ledger.runs) {
          segments[run.partition].push_back(
              internal::ShuffleSegment<K, V>{nullptr, &run});
        }
        task.staging = Buckets();
      }
    } catch (const std::bad_alloc&) {
      return internal::FailJob(
          spec, wall, stats,
          Status::ResourceExhausted(
              "shuffle failed to allocate the reduce segment lists"));
    }
    stats.records_mapped = stats.records_shuffled;
    shuffle_span.Arg("records", stats.records_shuffled)
        .Arg("bytes", stats.bytes_shuffled);
  }
  const std::vector<int> reduce_hints = internal::ReduceHints(group_records);

  // Stop-condition check at the phase boundary: don't start reducing work
  // that a fired deadline or cancellation has already doomed.
  if (spec.control != nullptr) {
    Status control_status = spec.control->Check();
    if (!control_status.ok()) {
      return internal::FailJob(spec, wall, stats, std::move(control_status));
    }
  }

  // ---- Reduce phase (group + reduce, per task) --------------------------
  struct ReduceTask {
    std::vector<Out> staged;
    std::vector<Out> committed;
    Counters counters;
    uint64_t groups = 0;
  };
  std::vector<ReduceTask> reduce_tasks(num_reduce);
  std::vector<internal::ReduceLedger> reduce_ledgers(num_reduce);
  StopWatch reduce_wall;
  Status reduce_status;
  {
    trace::Span phase_span("phase", "reduce");
    phase_span.Arg("tasks", static_cast<uint64_t>(num_reduce))
        .Arg("shuffle", ShuffleModeName(spec.shuffle));
    reduce_status = executor.RunTasks(
      num_reduce, [&](size_t r) -> Status {
        const int index = static_cast<int>(r);
        ReduceTask& task = reduce_tasks[r];
        internal::ReduceLedger& ledger = reduce_ledgers[r];
        if constexpr (kCheckpointable) {
          const bool restored = internal::RestoreTask(
              spec, TaskPhase::kReduce, index, &ledger,
              [&](PayloadReader& reader) -> Status {
                DOD_RETURN_IF_ERROR(
                    internal::ReadGroupSummary(reader, &ledger));
                return internal::ReadRecords(reader, &task.committed);
              });
          if (restored) return Status::Ok();
          task = ReduceTask();
          ledger = internal::ReduceLedger();
        }
        const Status run_status = runner.RunTask(
            TaskPhase::kReduce, index, /*extra_seconds=*/0.0,
            [&](int /*attempt*/) -> Status {
              task.staged.clear();
              task.counters = Counters();
              task.groups = 0;
              // Grouping is part of the attempt's cost, like Hadoop's
              // reducer-side sort, and idempotent: the sorted path's
              // in-place concatenation and stable sort of memory
              // segments, the columnar path's scratch rebuild, the
              // re-read of immutable runs, and the degrade (which leaves
              // the segments pointing at its persisted runs) all re-run
              // safely after a failure. Every path yields identical
              // groups (see mapreduce/spill.h), so job output depends on
              // neither the mode nor the spilling.
              StopWatch group_watch;
              internal::GroupScratch<K, V> scratch;
              Result<GroupedView<K, V>> groups = internal::GroupSegments(
                  segments[r], spec.shuffle, &scratch, &ledger.group_path,
                  &ledger.fallback, spec.memory,
                  spilling ? internal::SpillFilePath(spill_dir, "reduce", index)
                           : std::string(),
                  &spill_gc, &ledger.spill_runs);
              if (!groups.ok()) return groups.status();
              ledger.group_seconds = group_watch.ElapsedSeconds();
              DOD_RETURN_IF_ERROR(
                  reducer.Reduce(groups.value(), task.staged, task.counters));
              task.groups = groups.value().num_groups();
              return Status::Ok();
            },
            [&]() {
              task.committed = std::move(task.staged);
              ledger.stats.counters.MergeFrom(task.counters);
              ledger.stats.groups_reduced += task.groups;
            },
            ledger.stats, ledger.slot_costs);
        if (!run_status.ok()) return run_status;
        if constexpr (kCheckpointable) {
          internal::PersistTask(spec, TaskPhase::kReduce, index, ledger,
                                [&](PayloadWriter& payload) {
                                  internal::WriteGroupSummary(ledger, payload);
                                  internal::WriteRecords(task.committed,
                                                         payload);
                                });
        }
        return internal::MaybeCrash(spec.faults, TaskPhase::kReduce, index);
      },
      [&](size_t r) { return reduce_hints[r]; });
  }
  stats.reduce_wall_seconds = reduce_wall.ElapsedSeconds();
  for (const internal::ReduceLedger& ledger : reduce_ledgers) {
    internal::FoldTask(TaskPhase::kReduce, ledger, &stats);
  }
  if (!reduce_status.ok()) {
    return internal::FailJob(spec, wall, stats, std::move(reduce_status));
  }

  // Deterministic output commit: reduce-task index order.
  for (ReduceTask& task : reduce_tasks) {
    for (Out& out : task.committed) result.output.push_back(std::move(out));
    task.committed = std::vector<Out>();
  }
  internal::FinishJob(spec, runner.blacklisted_nodes(), wall, map_ledgers,
                      reduce_ledgers, executor, &stats);
  // The job committed: its spill runs are garbage now even when a
  // checkpoint store references them (see BeginJob).
  spill_gc.set_keep_files(false);
  return result;
}

}  // namespace dod

#endif  // DOD_MAPREDUCE_JOB_H_
