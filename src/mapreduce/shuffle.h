// Copyright 2026 The DOD Authors.
//
// Reduce-side shuffle grouping: the modes, the group layouts and the view
// reducers read them through. A reduce task's input is an ordered list of
// map-output segments (in-memory buckets and disk runs, see
// mapreduce/spill.h); GroupSegments turns that list into key groups.
//
// Two interchangeable modes produce byte-identical grouping:
//
//  - kSorted: Hadoop's classic merge — one key-sorted pair sequence,
//    groups read off as equal-key runs: memory-only input is concatenated
//    into its first segment and stably sorted in place; input with disk
//    runs is merged by a loser tree from stably sorted segments. Works for
//    any ordered key type.
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
// pure function of the task's input, so the chosen path — and therefore
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
#include <utility>
#include <vector>

namespace dod {

// Reduce-side grouping strategy. kColumnar is the default; kSorted is the
// escape hatch (and the only path for non-integral keys).
enum class ShuffleMode {
  kSorted,    // stable key sort / merge of (key, value) segments
  kColumnar,  // counting sort into per-key value-column segments
};

// "sorted" / "columnar".
const char* ShuffleModeName(ShuffleMode mode);

// Parses "sorted" / "columnar". Returns false on unknown names.
bool ParseShuffleMode(std::string_view name, ShuffleMode* mode);

namespace internal {

// Owning scratch behind a GroupedView; one instance per reduce-task
// attempt. `values` (columnar) or, for sorted input with disk runs,
// `merged` backs the group contents; `offsets` delimits groups in every
// layout.
template <typename K, typename V>
struct GroupScratch {
  std::vector<K> keys;         // columnar only: ascending distinct keys
  std::vector<V> values;       // columnar only: value column, grouped
  std::vector<size_t> offsets; // group g spans [offsets[g], offsets[g+1])
  std::vector<size_t> histogram;  // columnar working space (reused)
  // Sorted input with runs only: the loser-tree merge of the task's
  // segments materializes here, then backs a sorted-layout GroupedView.
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
// A pure function of the task's input, so budget decisions built on it
// are deterministic (see GroupSegments in mapreduce/spill.h).
inline uint64_t ColumnarScratchBytes(uint64_t records, uint64_t range,
                                     size_t key_bytes, size_t value_bytes) {
  const uint64_t groups = std::min(records, range);
  return range * sizeof(size_t) + records * value_bytes +
         groups * key_bytes + (groups + 1) * sizeof(size_t);
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

// Grouping outcome, for the engine's shuffle accounting. The numbering is
// stored in reduce checkpoints; append only.
enum class GroupPath {
  kColumnar,         // counting sort over memory segments
  kSorted,           // in-place stable sort of the memory segments'
                     // concatenation, as requested
  kSortedFallback,   // columnar requested but unavailable (key type/range)
  kSortedBudget,     // columnar requested but its scratch alone exceeds
                     // the memory budget — grouped by the sorted path
  kColumnarSpilled,  // counting-sort histogram computed over input that
                     // includes disk runs (two streaming passes)
  kSortedSpilled,    // loser-tree merge of input that includes disk runs
};

// Which guard pushed a columnar-requested task off the counting-sort path.
// Orthogonal to GroupPath: a kSortedSpilled task carries the guard that
// rejected the histogram over its runs. Feeds the reason-labeled
// mr.shuffle.fallback.* counters. Stored in reduce checkpoints.
enum class FallbackReason : uint8_t {
  kNone = 0,
  kDensity,  // key range too sparse for a counting histogram
  kBudget,   // histogram scratch exceeds the memory budget alone
};

}  // namespace internal
}  // namespace dod

#endif  // DOD_MAPREDUCE_SHUFFLE_H_
