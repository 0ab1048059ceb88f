// Copyright 2026 The DOD Authors.
//
// Spill-to-disk shuffle runs: the memory-locality layer that lets a job
// whose map output would not fit in memory keep it in bounded-residency
// disk runs instead of failing — with byte-identical output.
//
// Map side: when a map attempt's emitted bytes cross the spill threshold,
// every non-empty partition bucket is stable-sorted by key and appended to
// the task's run file as one framed run (header: magic, partition, record
// count, payload bytes, FNV-1a checksum, min/max key; then the raw
// trivially-copyable records — the durability PayloadWriter codec). The
// buckets are then cleared, so resident shuffle state stays bounded by the
// threshold. A task that spilled once flushes its remainder at attempt end,
// so a task's records live either entirely in memory or entirely in runs.
//
// Reduce side: every reduce task's input is an ordered list of segments —
// in-memory buckets of non-spilled map tasks, referenced in place, plus
// disk runs of spilled ones, in (split, flush) order. GroupSegments groups
// that list either by a two-pass counting-sort histogram streamed over the
// segments (columnar) or by sorting (sorted): memory-only input is
// concatenated in place and stably sorted, input with runs is loser-tree
// merged from its stably-sorted segments with ordinal tie-breaking. Every
// order equals a stable sort of the concatenated emission-order records,
// so where the records sit is invisible in the job output:
//
//  * runs are time-sliced (every record of flush i was emitted before any
//    record of flush i+1) and each flush is stably sorted, so scanning a
//    task's runs in flush order visits equal keys in emission order;
//  * the loser tree breaks key ties by segment ordinal, and merging
//    stably-sorted segments with ordinal tie-breaks reproduces the stable
//    sort of their concatenation;
//  * the columnar scatter visits segments in list order, so each group's
//    column comes out in emission order.
//
// Only map tasks spill. Map output resident in memory is bounded by the
// per-task spill threshold; a reduce task groups its segments where they
// sit, and the memory budget only decides, by a pure FitsAlone check on
// the histogram scratch, whether that grouping is columnar or sorted.
//
// Attempt retries are safe: the run file is truncated at the start of each
// spilling attempt (attempts are sequential and speculative duplicates
// never execute, see mapreduce/task_runner.h), and only the winning
// attempt's run descriptors commit. SpillGc removes every tracked file
// when the job ends; a crash (no destructors) leaves the files for the
// checkpoint-resumed rerun, which re-registers them.

#ifndef DOD_MAPREDUCE_SPILL_H_
#define DOD_MAPREDUCE_SPILL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "durability/memory_budget.h"
#include "durability/payload.h"
#include "mapreduce/shuffle.h"
#include "observability/trace.h"

namespace dod {

// Where (and when) the shuffle spills. Orthogonal to ShuffleMode: both
// grouping paths accept spilled input. Carried by JobSpec/DodConfig.
struct SpillPolicy {
  // Spill directory; empty disables spilling entirely.
  std::string dir;
  // Per-map-task emitted-bytes threshold that triggers a flush. 0 derives
  // a default from the memory budget (limit / 4) or 64 MiB without one.
  uint64_t threshold_bytes = 0;

  bool enabled() const { return !dir.empty(); }

  // The threshold actually applied, wiring the policy through the job's
  // MemoryBudget when no explicit threshold is set.
  uint64_t EffectiveThreshold(const MemoryBudget* budget) const;
};

namespace internal {

inline constexpr uint32_t kSpillRunMagic = 0x4E525344;  // "DSRN"
// Spill-run frame header bytes: magic + partition (u32 each), records,
// payload bytes, checksum, min key, max key (u64 each).
inline constexpr size_t kSpillRunHeaderBytes = 2 * 4 + 5 * 8;
// Read granularity of the run cursors (bytes per refill).
inline constexpr size_t kSpillReadChunkBytes = size_t{1} << 16;

// One sorted run on disk: `bytes` of raw records at `offset` in `file`.
// min/max key are the unsigned bit-casts of the run's smallest/largest
// key in the *signed* K domain (the run is sorted by signed <; integral
// keys only, 0 otherwise). Decode with
// static_cast<K>(static_cast<make_unsigned_t<K>>(value)) before
// comparing — for mixed-sign runs the raw u64 values do not order, and
// max_key can sit below min_key.
struct SpillRunInfo {
  std::string file;
  uint32_t partition = 0;
  uint64_t records = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
  uint64_t min_key = 0;
  uint64_t max_key = 0;
};

// <dir>/<phase>_<task>.runs — one file per task, truncated per attempt.
std::string SpillFilePath(const std::string& dir, const char* phase,
                          int task_index);

// Per-job namespace under the configured spill directory, so jobs that
// share a spill dir never truncate each other's live run files. A
// non-empty `job_scope` (the checkpoint store's dir + job key) hashes to
// a stable subdirectory — a resumed run lands where its crashed
// predecessor spilled, can re-register those files, and finally sweeps
// them; with an empty scope the name is unique per process and
// invocation (non-checkpointing jobs never resume).
std::string SpillJobDir(const std::string& dir, const std::string& job_scope);

// Job-scoped registry of spill files, removed best-effort on destruction
// along with the job's private spill subdirectory (the recursive sweep is
// what reclaims files a crashed predecessor with the same scope left that
// no checkpoint restore re-tracks). A hard crash skips destructors,
// deliberately leaving the files for the resumed run (which re-tracks
// map runs via the checkpoint restore path). A checkpointing job arms
// keep_files until it succeeds, so a structured failure preserves the
// runs its durable checkpoint records reference — the same contract as
// the real crash, just with destructors running.
class SpillGc {
 public:
  SpillGc() = default;
  ~SpillGc();
  SpillGc(const SpillGc&) = delete;
  SpillGc& operator=(const SpillGc&) = delete;

  // Thread-safe (map tasks spill concurrently); duplicates are fine.
  void Track(const std::string& file);

  // The job's private spill subdirectory, removed recursively at
  // destruction (unless keep_files is armed). Job-thread only.
  void TrackDir(const std::string& dir) { dir_ = dir; }

  // When true, destruction leaves the tracked files on disk. Job-thread
  // only: set before tasks run, cleared at the job's single success exit.
  void set_keep_files(bool keep) { keep_files_ = keep; }

 private:
  std::mutex mutex_;
  std::vector<std::string> files_;
  std::string dir_;
  bool keep_files_ = false;
};

template <typename K>
uint64_t SpillKeyCast(const K& key) {
  if constexpr (std::is_integral_v<K>) {
    using U = std::make_unsigned_t<K>;
    return static_cast<uint64_t>(static_cast<U>(key));
  } else {
    (void)key;
    return 0;
  }
}

// Writes one map task's spill runs, driven by the ShuffleEmitter: Spill()
// flushes all non-empty buckets as sorted runs, Finish() flushes the
// remainder iff the task spilled at all. Errors are sticky; the attempt
// surfaces them.
template <typename K, typename V>
class TaskSpiller {
 public:
  using Buckets = std::vector<std::vector<std::pair<K, V>>>;

  TaskSpiller(std::string file, SpillGc* gc)
      : file_(std::move(file)), gc_(gc) {}

  // New attempt: truncate any previous attempt's partial file lazily (the
  // next Spill reopens with trunc) and forget its descriptors.
  void Reset() {
    if (out_.is_open()) out_.close();
    opened_ = false;
    offset_ = 0;
    runs_.clear();
    status_ = Status::Ok();
  }

  bool spilled() const { return !runs_.empty(); }
  const Status& status() const { return status_; }
  std::vector<SpillRunInfo> TakeRuns() { return std::move(runs_); }

  // Flushes every non-empty bucket as one sorted run and clears it. On a
  // write error the buckets keep their (now sorted) records.
  void Spill(Buckets& buckets) {
    if (!status_.ok()) return;
    if (!opened_) {
      out_.open(file_, std::ios::binary | std::ios::trunc);
      if (!out_) {
        status_ = Status::IoError("spill: cannot open run file " + file_);
        return;
      }
      opened_ = true;
      if (gc_ != nullptr) gc_->Track(file_);
    }
    trace::Span span("shuffle", "shuffle_spill");
    uint64_t spilled_records = 0;
    uint64_t spilled_bytes = 0;
    for (size_t p = 0; p < buckets.size(); ++p) {
      auto& bucket = buckets[p];
      if (bucket.empty()) continue;
      std::stable_sort(bucket.begin(), bucket.end(),
                       [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
                         return a.first < b.first;
                       });
      const size_t payload_bytes = bucket.size() * sizeof(std::pair<K, V>);
      const std::string_view payload(
          reinterpret_cast<const char*>(bucket.data()), payload_bytes);
      SpillRunInfo run;
      run.file = file_;
      run.partition = static_cast<uint32_t>(p);
      run.records = bucket.size();
      run.bytes = payload_bytes;
      run.checksum = Fnv1a64(payload);
      run.min_key = SpillKeyCast(bucket.front().first);
      run.max_key = SpillKeyCast(bucket.back().first);
      PayloadWriter header;
      header.U32(kSpillRunMagic);
      header.U32(run.partition);
      header.U64(run.records);
      header.U64(run.bytes);
      header.U64(run.checksum);
      header.U64(run.min_key);
      header.U64(run.max_key);
      run.offset = offset_ + header.size();
      out_.write(header.str().data(),
                 static_cast<std::streamsize>(header.size()));
      out_.write(payload.data(), static_cast<std::streamsize>(payload_bytes));
      offset_ += header.size() + payload_bytes;
      runs_.push_back(std::move(run));
      spilled_records += bucket.size();
      spilled_bytes += payload_bytes;
    }
    out_.flush();
    if (!out_) {
      status_ = Status::IoError("spill: write to run file " + file_ +
                                " failed");
      return;
    }
    for (auto& bucket : buckets) bucket.clear();  // capacity retained
    span.Arg("records", spilled_records).Arg("bytes", spilled_bytes);
  }

  // Attempt end: a task that spilled flushes its remainder too, so its
  // records live either entirely in memory or entirely in runs.
  Status Finish(Buckets& buckets) {
    if (status_.ok() && spilled()) Spill(buckets);
    return status_;
  }

 private:
  std::string file_;
  SpillGc* gc_;
  std::ofstream out_;
  bool opened_ = false;
  uint64_t offset_ = 0;
  std::vector<SpillRunInfo> runs_;
  Status status_ = Status::Ok();
};

// Streams one run's records back in fixed-size chunks, folding the
// incremental checksum; the final refill verifies it against the header so
// a corrupted or truncated run degrades into a structured error the
// attempt can surface (and the engine can retry), never into bad groups.
template <typename K, typename V>
class SpillRunCursor {
 public:
  Status Open(const SpillRunInfo& run) {
    run_ = &run;
    in_.open(run.file, std::ios::binary);
    if (!in_) {
      return Status::IoError("spill: cannot open run file " + run.file);
    }
    in_.seekg(static_cast<std::streamoff>(run.offset));
    if (!in_) {
      return Status::IoError("spill: cannot seek run file " + run.file);
    }
    remaining_ = run.records;
    hash_ = Fnv1a64Seed();
    index_ = 0;
    chunk_.clear();
    return Refill();
  }

  bool AtEnd() const { return index_ >= chunk_.size(); }
  const std::pair<K, V>& Head() const { return chunk_[index_]; }

  Status Advance() {
    ++index_;
    if (index_ < chunk_.size()) return Status::Ok();
    return Refill();
  }

 private:
  Status Refill() {
    constexpr size_t kChunkRecords =
        kSpillReadChunkBytes / sizeof(std::pair<K, V>) > 0
            ? kSpillReadChunkBytes / sizeof(std::pair<K, V>)
            : 1;
    index_ = 0;
    const uint64_t take =
        remaining_ < kChunkRecords ? remaining_ : kChunkRecords;
    chunk_.resize(static_cast<size_t>(take));
    if (take == 0) {
      // Exhausted: the whole payload has been folded into the hash.
      if (hash_ != run_->checksum) {
        return Status::IoError("spill: run checksum mismatch in " +
                               run_->file + " (partition " +
                               std::to_string(run_->partition) + ")");
      }
      return Status::Ok();
    }
    const size_t bytes = static_cast<size_t>(take) * sizeof(std::pair<K, V>);
    in_.read(reinterpret_cast<char*>(chunk_.data()),
             static_cast<std::streamsize>(bytes));
    if (in_.gcount() != static_cast<std::streamsize>(bytes)) {
      return Status::IoError("spill: run truncated in " + run_->file);
    }
    hash_ = Fnv1a64Update(
        hash_, std::string_view(reinterpret_cast<const char*>(chunk_.data()),
                                bytes));
    remaining_ -= take;
    return Status::Ok();
  }

  const SpillRunInfo* run_ = nullptr;
  std::ifstream in_;
  std::vector<std::pair<K, V>> chunk_;
  size_t index_ = 0;
  uint64_t remaining_ = 0;
  uint64_t hash_ = 0;
};

// One piece of a reduce task's input, in (split, flush) order: either a
// non-spilled map task's in-memory bucket, referenced in place (emission
// order; the sorted path stable-sorts it in place, which is idempotent
// across attempt retries) or one disk run (already sorted).
template <typename K, typename V>
struct ShuffleSegment {
  std::vector<std::pair<K, V>>* memory = nullptr;
  const SpillRunInfo* run = nullptr;
};

// Uniform cursor over a (sorted) segment for the loser-tree merge.
template <typename K, typename V>
class SegmentCursor {
 public:
  Status Open(const ShuffleSegment<K, V>& segment) {
    segment_ = &segment;
    if (segment.run != nullptr) return run_.Open(*segment.run);
    return Status::Ok();
  }
  bool AtEnd() const {
    return segment_->run != nullptr ? run_.AtEnd()
                                    : index_ >= segment_->memory->size();
  }
  const std::pair<K, V>& Head() const {
    return segment_->run != nullptr ? run_.Head()
                                    : (*segment_->memory)[index_];
  }
  Status Advance() {
    if (segment_->run != nullptr) return run_.Advance();
    ++index_;
    return Status::Ok();
  }

 private:
  const ShuffleSegment<K, V>* segment_ = nullptr;
  SpillRunCursor<K, V> run_;
  size_t index_ = 0;
};

// Loser-tree k-way merge of stably-sorted segments into *out, breaking
// key ties by segment ordinal — which reproduces the stable sort of the
// segments' concatenation, byte for byte. A real loser tree (internal
// nodes remember match losers; re-seeding a leaf replays one root path),
// so each record costs O(log k) comparisons however skewed the runs are.
template <typename K, typename V>
Status MergeSegments(std::vector<SegmentCursor<K, V>>& cursors,
                     std::vector<std::pair<K, V>>* out) {
  const size_t s = cursors.size();
  if (s == 0) return Status::Ok();
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  // beats(a, b): segment a's head comes before segment b's. Exhausted
  // segments lose to everything; key ties go to the lower ordinal.
  const auto beats = [&cursors](size_t a, size_t b) {
    if (cursors[a].AtEnd()) return false;
    if (cursors[b].AtEnd()) return true;
    const K& ka = cursors[a].Head().first;
    const K& kb = cursors[b].Head().first;
    if (ka < kb) return true;
    if (kb < ka) return false;
    return a < b;
  };
  std::vector<size_t> losers(s, kNone);
  size_t winner = kNone;
  // Plays leaf j up the tree: deposits into the first empty slot (initial
  // seeding) or swaps with recorded losers it beats; the climber that
  // reaches the root is the overall winner.
  const auto adjust = [&](size_t j) {
    size_t w = j;
    for (size_t t = (j + s) / 2; t > 0; t /= 2) {
      if (losers[t] == kNone) {
        losers[t] = w;
        return;
      }
      if (beats(losers[t], w)) std::swap(losers[t], w);
    }
    winner = w;
  };
  for (size_t j = 0; j < s; ++j) adjust(j);
  while (winner != kNone && !cursors[winner].AtEnd()) {
    out->push_back(cursors[winner].Head());
    DOD_RETURN_IF_ERROR(cursors[winner].Advance());
    adjust(winner);
  }
  return Status::Ok();
}

// Groups one reduce task's segment list under `mode`. The columnar
// admission — signed-domain key range, density guard, and the budget's
// FitsAlone check on the histogram scratch — is computed once, from
// segment contents and run metadata, so the chosen path is identical
// across thread counts and fault schedules. Then exactly one of:
//
//  (a) columnar: histogram, then scatter — kColumnar, or kColumnarSpilled
//      when the input includes runs;
//  (b) sorted: memory-only input is folded into its first memory segment
//      and stable-sorted in place, with no second copy — kSorted /
//      kSortedFallback / kSortedBudget; input with runs stable-sorts its
//      memory segments in place and loser-tree merges everything into
//      scratch->merged — kSortedSpilled.
//
// Every path yields groups byte-identical to a stable sort of the
// segments' concatenation.
template <typename K, typename V>
Result<GroupedView<K, V>> GroupSegments(
    std::vector<ShuffleSegment<K, V>>& segments, ShuffleMode mode,
    GroupScratch<K, V>* scratch, GroupPath* path, FallbackReason* reason,
    const MemoryBudget* budget) {
  *reason = FallbackReason::kNone;
  uint64_t records = 0;
  bool any_runs = false;
  for (const ShuffleSegment<K, V>& segment : segments) {
    if (segment.run != nullptr) {
      any_runs = true;
      records += segment.run->records;
    } else {
      records += segment.memory->size();
    }
  }
  if (records == 0) {
    scratch->merged.clear();
    scratch->offsets.clear();
    *path = mode == ShuffleMode::kColumnar ? GroupPath::kColumnar
                                           : GroupPath::kSorted;
    return GroupedView<K, V>(scratch->merged, scratch->offsets);
  }

  if (mode == ShuffleMode::kColumnar) {
    if constexpr (std::is_integral_v<K>) {
      using U = std::make_unsigned_t<K>;
      // Min/max live in the signed K domain, so mixed-sign key spaces
      // order correctly. Run metadata holds the bit-casts of each run's
      // signed extremes; decode through U before comparing (the raw u64
      // values do not order across signs). Memory segments are scanned
      // for theirs.
      bool have_keys = false;
      K min_key{};
      K max_key{};
      for (const ShuffleSegment<K, V>& segment : segments) {
        K lo;
        K hi;
        if (segment.run != nullptr) {
          if (segment.run->records == 0) continue;
          lo = static_cast<K>(static_cast<U>(segment.run->min_key));
          hi = static_cast<K>(static_cast<U>(segment.run->max_key));
        } else {
          if (segment.memory->empty()) continue;
          lo = hi = segment.memory->front().first;
          for (const std::pair<K, V>& record : *segment.memory) {
            lo = std::min(lo, record.first);
            hi = std::max(hi, record.first);
          }
        }
        min_key = have_keys ? std::min(min_key, lo) : lo;
        max_key = have_keys ? std::max(max_key, hi) : hi;
        have_keys = true;
      }
      // Two's-complement subtraction in the unsigned domain handles
      // negative keys and cannot overflow.
      const uint64_t range =
          static_cast<uint64_t>(static_cast<U>(max_key) -
                                static_cast<U>(min_key)) + 1;
      const uint64_t scratch_bytes =
          ColumnarScratchBytes(records, range, sizeof(K), sizeof(V));
      if (range > kDenseRangeSlack + kDenseRangePerRecord * records) {
        *reason = FallbackReason::kDensity;
      } else if (budget != nullptr && !budget->FitsAlone(scratch_bytes)) {
        *reason = FallbackReason::kBudget;
      } else {
        // Pass 1: histogram the keys across every segment. Slots subtract
        // in the U domain (two's-complement wraparound), so negative keys
        // land in order.
        std::vector<size_t>& cursor = scratch->histogram;
        cursor.assign(static_cast<size_t>(range), 0);
        for (ShuffleSegment<K, V>& segment : segments) {
          if (segment.run == nullptr) {
            for (const std::pair<K, V>& record : *segment.memory) {
              ++cursor[static_cast<size_t>(static_cast<U>(record.first) -
                                           static_cast<U>(min_key))];
            }
          } else {
            SpillRunCursor<K, V> run;
            DOD_RETURN_IF_ERROR(run.Open(*segment.run));
            while (!run.AtEnd()) {
              ++cursor[static_cast<size_t>(static_cast<U>(run.Head().first) -
                                           static_cast<U>(min_key))];
              DOD_RETURN_IF_ERROR(run.Advance());
            }
          }
        }
        scratch->keys.clear();
        scratch->offsets.clear();
        size_t total = 0;
        for (size_t slot = 0; slot < cursor.size(); ++slot) {
          const size_t count = cursor[slot];
          if (count == 0) continue;  // absent keys produce no group
          scratch->keys.push_back(static_cast<K>(
              static_cast<U>(min_key) + static_cast<U>(slot)));
          scratch->offsets.push_back(total);
          cursor[slot] = total;  // becomes the group's write cursor
          total += count;
        }
        scratch->offsets.push_back(total);
        // Pass 2: scatter the values, segment by segment in the same
        // order. Within a key, records land in (segment, position) order
        // — the emission order (runs are time-sliced and stably sorted).
        scratch->values.resize(static_cast<size_t>(records));
        for (ShuffleSegment<K, V>& segment : segments) {
          if (segment.run == nullptr) {
            for (const std::pair<K, V>& record : *segment.memory) {
              const size_t slot = static_cast<size_t>(
                  static_cast<U>(record.first) - static_cast<U>(min_key));
              scratch->values[cursor[slot]++] = record.second;
            }
          } else {
            SpillRunCursor<K, V> run;
            DOD_RETURN_IF_ERROR(run.Open(*segment.run));
            while (!run.AtEnd()) {
              const size_t slot = static_cast<size_t>(
                  static_cast<U>(run.Head().first) - static_cast<U>(min_key));
              scratch->values[cursor[slot]++] = run.Head().second;
              DOD_RETURN_IF_ERROR(run.Advance());
            }
          }
        }
        *path = any_runs ? GroupPath::kColumnarSpilled : GroupPath::kColumnar;
        return GroupedView<K, V>(scratch->keys, scratch->values,
                                 scratch->offsets);
      }
    } else {
      *reason = FallbackReason::kDensity;  // non-integral keys cannot count
    }
  }

  const auto by_key = [](const std::pair<K, V>& a,
                         const std::pair<K, V>& b) { return a.first < b.first; };
  // Sorted path, memory-only input: fold the memory segments into the
  // first one (freeing each as it is appended) and stable-sort that in
  // place. No second copy of the task's records, and a retry finds the
  // same concatenation, already sorted.
  if (!any_runs) {
    std::vector<std::pair<K, V>>* all = nullptr;
    for (ShuffleSegment<K, V>& segment : segments) {
      if (segment.memory->empty()) continue;
      if (all == nullptr) {
        all = segment.memory;
        all->reserve(static_cast<size_t>(records));
        continue;
      }
      all->insert(all->end(), segment.memory->begin(),
                  segment.memory->end());
      *segment.memory = std::vector<std::pair<K, V>>();
    }
    std::stable_sort(all->begin(), all->end(), by_key);
    ComputeGroupOffsets(*all, &scratch->offsets);
    if (mode == ShuffleMode::kColumnar) {
      *path = *reason == FallbackReason::kBudget ? GroupPath::kSortedBudget
                                                 : GroupPath::kSortedFallback;
    } else {
      *path = GroupPath::kSorted;
    }
    return GroupedView<K, V>(*all, scratch->offsets);
  }

  // Sorted path with runs: stable-sort the memory segments in place
  // (idempotent across retries), then loser-tree merge everything.
  {
    trace::Span span("shuffle", "merge");
    span.Arg("segments", static_cast<uint64_t>(segments.size()))
        .Arg("records", records);
    for (ShuffleSegment<K, V>& segment : segments) {
      if (segment.memory != nullptr) {
        std::stable_sort(segment.memory->begin(), segment.memory->end(),
                         by_key);
      }
    }
    std::vector<SegmentCursor<K, V>> cursors(segments.size());
    for (size_t i = 0; i < segments.size(); ++i) {
      DOD_RETURN_IF_ERROR(cursors[i].Open(segments[i]));
    }
    scratch->merged.clear();
    scratch->merged.reserve(static_cast<size_t>(records));
    DOD_RETURN_IF_ERROR(MergeSegments(cursors, &scratch->merged));
  }
  ComputeGroupOffsets(scratch->merged, &scratch->offsets);
  *path = GroupPath::kSortedSpilled;
  return GroupedView<K, V>(scratch->merged, scratch->offsets);
}

}  // namespace internal
}  // namespace dod

#endif  // DOD_MAPREDUCE_SPILL_H_
