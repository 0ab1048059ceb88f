// Copyright 2026 The DOD Authors.
//
// Reduce-side shuffle grouping: turn one reduce task's bucket of
// (key, value) records into key groups.
//
// Two interchangeable paths produce byte-identical grouping:
//
//  - kSorted: Hadoop's classic merge — a stable sort of the record pairs by
//    key, groups read off as equal-key runs. Works for any ordered key type.
//
//  - kColumnar: a two-pass counting sort specialized for dense integral
//    keys (DOD's cell ids). Pass 1 histograms the keys and prefix-sums the
//    histogram into per-key column segments; pass 2 scatters the *values*
//    into one contiguous column, leaving the keys behind (each group knows
//    its key, so per-record keys never need to be materialized again).
//    Scattering in record order is stable by construction, so groups come
//    out in ascending key order with the exact within-group record order of
//    the sorted path — reducers cannot tell the difference, which is what
//    keeps job output byte-identical across the --shuffle escape hatch.
//
// The columnar path guards against adversarially sparse key spaces: when
// the key range is much larger than the record count (a counting histogram
// would waste memory), it falls back to the sorted path. The guard is a
// pure function of the bucket contents, so the chosen path — and therefore
// every downstream byte — is identical across thread counts and fault
// schedules.
//
// Reducers consume groups through GroupedView, a zero-copy cursor over
// either backing layout: Reducer::Reduce reads every group's values in
// place.

#ifndef DOD_MAPREDUCE_SHUFFLE_H_
#define DOD_MAPREDUCE_SHUFFLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "durability/memory_budget.h"

namespace dod {

// Reduce-side grouping strategy. kColumnar is the default; kSorted is the
// escape hatch (and the only path for non-integral keys).
enum class ShuffleMode {
  kSorted,    // stable sort over (key, value) pairs
  kColumnar,  // counting sort into per-key value-column segments
};

// "sorted" / "columnar".
const char* ShuffleModeName(ShuffleMode mode);

// Parses "sorted" / "columnar". Returns false on unknown names.
bool ParseShuffleMode(std::string_view name, ShuffleMode* mode);

namespace internal {

// Owning scratch behind a GroupedView; one instance per reduce-task
// attempt. Either `values` (columnar) or the caller's pair bucket (sorted)
// backs the group contents; `offsets` delimits groups in both layouts.
template <typename K, typename V>
struct GroupScratch {
  std::vector<K> keys;         // columnar only: ascending distinct keys
  std::vector<V> values;       // columnar only: value column, grouped
  std::vector<size_t> offsets; // group g spans [offsets[g], offsets[g+1])
  std::vector<size_t> histogram;  // columnar working space (reused)
  // Spilled input only: the loser-tree merge of memory segments and disk
  // runs materializes here, then backs a sorted-layout GroupedView.
  std::vector<std::pair<K, V>> merged;
};

}  // namespace internal

// Read-only view of one reduce task's key groups, in ascending key order
// with the map-commit record order inside each group. Group g's values sit
// at logical indices [0, size(g)); `column(g)` additionally exposes them as
// a contiguous span when the columnar path produced them.
template <typename K, typename V>
class GroupedView {
 public:
  // Columnar backing: distinct keys + grouped value column.
  GroupedView(const std::vector<K>& keys, const std::vector<V>& values,
              const std::vector<size_t>& offsets)
      : keys_(&keys), values_(&values), pairs_(nullptr), offsets_(&offsets) {}

  // Sorted backing: key-sorted pairs + group offsets.
  GroupedView(const std::vector<std::pair<K, V>>& pairs,
              const std::vector<size_t>& offsets)
      : keys_(nullptr), values_(nullptr), pairs_(&pairs), offsets_(&offsets) {}

  size_t num_groups() const {
    return offsets_->empty() ? 0 : offsets_->size() - 1;
  }
  size_t num_records() const {
    return offsets_->empty() ? 0 : offsets_->back();
  }

  const K& key(size_t g) const {
    return pairs_ != nullptr ? (*pairs_)[(*offsets_)[g]].first : (*keys_)[g];
  }

  size_t size(size_t g) const {
    return (*offsets_)[g + 1] - (*offsets_)[g];
  }

  const V& value(size_t g, size_t i) const {
    const size_t index = (*offsets_)[g] + i;
    return pairs_ != nullptr ? (*pairs_)[index].second : (*values_)[index];
  }

  // Contiguous value span of group g, or nullptr under the sorted backing
  // (values interleave with keys there). Zero-copy fast path for columnar
  // task reducers.
  const V* column(size_t g) const {
    return values_ != nullptr ? values_->data() + (*offsets_)[g] : nullptr;
  }

 private:
  const std::vector<K>* keys_;
  const std::vector<V>* values_;
  const std::vector<std::pair<K, V>>* pairs_;
  const std::vector<size_t>* offsets_;
};

namespace internal {

// Sparsity guard for the counting histogram: fall back to sorting when the
// key range exceeds this multiple of the record count (plus slack for tiny
// buckets). Cell-id key spaces are dense, so real jobs never trip it.
inline constexpr uint64_t kDenseRangeSlack = 1024;
inline constexpr uint64_t kDenseRangePerRecord = 4;

// Bytes of scratch the columnar path would allocate for `records` records
// over a key `range`: histogram + value column + worst-case keys/offsets.
// A pure function of the bucket contents, so budget decisions built on it
// are deterministic (see GroupBucket).
inline uint64_t ColumnarScratchBytes(uint64_t records, uint64_t range,
                                     size_t key_bytes, size_t value_bytes) {
  const uint64_t groups = std::min(records, range);
  return range * sizeof(size_t) + records * value_bytes +
         groups * key_bytes + (groups + 1) * sizeof(size_t);
}

// Groups `bucket` by key with a stable two-pass counting sort; the caller
// guarantees K is integral and the bucket is non-empty. Returns false —
// leaving `scratch` untouched — when the key range fails the density
// guard, or when `budget` (optional) cannot admit the scratch the sort
// would allocate (`*budget_denied` distinguishes the latter). The budget
// check uses MemoryBudget::FitsAlone, a pure function of (estimate,
// limit), so the chosen path never depends on concurrent allocations.
template <typename K, typename V>
bool CountingSortGroups(const std::vector<std::pair<K, V>>& bucket,
                        GroupScratch<K, V>* scratch,
                        const MemoryBudget* budget = nullptr,
                        bool* budget_denied = nullptr) {
  static_assert(std::is_integral_v<K>,
                "counting sort requires integral keys");
  using U = std::make_unsigned_t<K>;
  K min_key = bucket.front().first;
  K max_key = min_key;
  for (const std::pair<K, V>& record : bucket) {
    min_key = std::min(min_key, record.first);
    max_key = std::max(max_key, record.first);
  }
  // Two's-complement subtraction in the unsigned domain handles negative
  // keys and cannot overflow.
  const uint64_t range =
      static_cast<uint64_t>(static_cast<U>(max_key) -
                            static_cast<U>(min_key)) + 1;
  if (range > kDenseRangeSlack +
                  kDenseRangePerRecord * static_cast<uint64_t>(bucket.size())) {
    return false;
  }
  if (budget != nullptr &&
      !budget->FitsAlone(ColumnarScratchBytes(bucket.size(), range, sizeof(K),
                                              sizeof(V)))) {
    if (budget_denied != nullptr) *budget_denied = true;
    return false;
  }

  // Pass 1: histogram keys, then prefix-sum into per-key write cursors.
  std::vector<size_t>& cursor = scratch->histogram;
  cursor.assign(static_cast<size_t>(range), 0);
  for (const std::pair<K, V>& record : bucket) {
    ++cursor[static_cast<size_t>(static_cast<U>(record.first) -
                                 static_cast<U>(min_key))];
  }
  scratch->keys.clear();
  scratch->offsets.clear();
  size_t total = 0;
  for (size_t slot = 0; slot < cursor.size(); ++slot) {
    const size_t count = cursor[slot];
    if (count == 0) continue;  // absent keys produce no group
    scratch->keys.push_back(
        static_cast<K>(static_cast<U>(min_key) + static_cast<U>(slot)));
    scratch->offsets.push_back(total);
    cursor[slot] = total;  // becomes the group's write cursor
    total += count;
  }
  scratch->offsets.push_back(total);

  // Pass 2: scatter the values into the column in record order (stable).
  scratch->values.resize(bucket.size());
  for (const std::pair<K, V>& record : bucket) {
    const size_t slot = static_cast<size_t>(
        static_cast<U>(record.first) - static_cast<U>(min_key));
    scratch->values[cursor[slot]++] = record.second;
  }
  return true;
}

// Reads group offsets off a key-sorted pair sequence (equal-key runs).
template <typename K, typename V>
void ComputeGroupOffsets(const std::vector<std::pair<K, V>>& pairs,
                         std::vector<size_t>* offsets) {
  offsets->clear();
  size_t i = 0;
  while (i < pairs.size()) {
    offsets->push_back(i);
    size_t j = i;
    while (j < pairs.size() && !(pairs[i].first < pairs[j].first) &&
           !(pairs[j].first < pairs[i].first)) {
      ++j;
    }
    i = j;
  }
  offsets->push_back(pairs.size());
}

// Stable-sorts `bucket` by key in place and records group offsets. The
// generic path: only requires operator< on K.
template <typename K, typename V>
void SortGroups(std::vector<std::pair<K, V>>* bucket,
                GroupScratch<K, V>* scratch) {
  std::stable_sort(bucket->begin(), bucket->end(),
                   [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
                     return a.first < b.first;
                   });
  ComputeGroupOffsets(*bucket, &scratch->offsets);
}

// Grouping outcome, for the engine's shuffle accounting.
enum class GroupPath {
  kColumnar,         // counting sort
  kSorted,           // stable sort, as requested
  kSortedFallback,   // columnar requested but unavailable (key type/range)
  kSortedBudget,     // columnar requested but its scratch exceeds the
                     // memory budget — degraded to the sorted path
  kColumnarSpilled,  // counting-sort histogram computed over spilled runs
                     // (two streaming passes; see mapreduce/spill.h)
  kSortedSpilled,    // loser-tree k-way merge of spilled runs + memory
                     // segments into a sorted backing
};

// Which guard pushed a columnar-requested task off the counting-sort path.
// Orthogonal to GroupPath: a kColumnarSpilled task can carry kSpill (the
// budget guard fired and spilling — not plain sorting — absorbed it), and
// a kSortedSpilled task carries the guard that rejected the histogram over
// its runs. Feeds the reason-labeled mr.shuffle.fallback.* counters.
enum class FallbackReason : uint8_t {
  kNone = 0,
  kDensity,  // key range too sparse for a counting histogram
  kBudget,   // histogram scratch exceeds the memory budget
  kSpill,    // scratch + resident bucket exceed the budget; the bucket was
             // spilled so the histogram could run with only scratch
             // resident
};

inline FallbackReason ReasonFromPath(GroupPath path) {
  switch (path) {
    case GroupPath::kSortedFallback:
      return FallbackReason::kDensity;
    case GroupPath::kSortedBudget:
      return FallbackReason::kBudget;
    default:
      return FallbackReason::kNone;
  }
}

// Groups one reduce-task bucket under `mode`. The sorted path mutates the
// bucket (in-place stable sort — idempotent, so attempt retries are safe);
// the columnar path leaves it untouched and stages into `scratch`. Both
// yield identical groups. A `budget` may veto the columnar path's scratch
// allocation, degrading to the (in-place, allocation-light) sorted path;
// the veto is deterministic and both paths group identically, so results
// never change — only `*path` and the engine's fallback counters do.
template <typename K, typename V>
GroupedView<K, V> GroupBucket(std::vector<std::pair<K, V>>& bucket,
                              ShuffleMode mode,
                              GroupScratch<K, V>* scratch,
                              GroupPath* path,
                              const MemoryBudget* budget = nullptr) {
  if (mode == ShuffleMode::kColumnar && !bucket.empty()) {
    bool budget_denied = false;
    if constexpr (std::is_integral_v<K>) {
      if (CountingSortGroups(bucket, scratch, budget, &budget_denied)) {
        *path = GroupPath::kColumnar;
        return GroupedView<K, V>(scratch->keys, scratch->values,
                                 scratch->offsets);
      }
    }
    *path = budget_denied ? GroupPath::kSortedBudget
                          : GroupPath::kSortedFallback;
  } else {
    *path = mode == ShuffleMode::kColumnar ? GroupPath::kColumnar
                                           : GroupPath::kSorted;
    if (bucket.empty()) {
      scratch->offsets.clear();
      return GroupedView<K, V>(bucket, scratch->offsets);
    }
  }
  SortGroups(&bucket, scratch);
  return GroupedView<K, V>(bucket, scratch->offsets);
}

}  // namespace internal
}  // namespace dod

#endif  // DOD_MAPREDUCE_SHUFFLE_H_
