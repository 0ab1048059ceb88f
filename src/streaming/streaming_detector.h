// Copyright 2026 The DOD Authors.
//
// Streaming outlier service: a long-running detector over a sliding window
// of ingested blocks, updating verdicts incrementally instead of from
// scratch.
//
// The batch pipeline (core/pipeline.h) answers "which points of this
// dataset are outliers" by recomputing everything. Production traffic is a
// stream: blocks of points arrive, old blocks expire, and between two
// rounds only a small neighborhood of the window actually changes. The
// StreamingDetector exploits that:
//
//   * Window state lives in a uniform grid keyed exactly like the batch
//     detectors' grids (detection/cell_key.h): one appendable/expirable
//     point segment per cell (slot indices into a slot-recycling window
//     dataset) plus a per-point verdict and neighbor-count summary.
//
//   * Feed(block) appends the block's points, expires blocks that fell out
//     of the window (count-based, time-based, or both), and computes the
//     dirty-cell set: every resident cell within the supporting ring of a
//     touched cell. With cell side s, a neighbor within distance r is at
//     most ceil(r/s) cells away in Chebyshev distance, so untouched cells
//     outside that ring cannot have gained or lost a neighbor.
//
//   * Every resident point carries its neighbor-count summary across
//     rounds: the exact |N_r(p)|, or a saturated lower bound once counting
//     stopped at k + summary_slack (the detector early-exit win,
//     preserved). A round costs O(new block × ring): batched block×segment
//     kernel calls count the appended points against each dirty cell's
//     residents (increments) and the evicted points likewise (decrements);
//     only appended points and saturated points whose bound dropped below
//     k re-count, staged core+ring into one TaskArena (the columnar
//     shuffle's shared-SoA layout, detection/partition_view.h) and fanned
//     out over a ParallelExecutor. Counts are exact integers, so verdicts
//     — and therefore deltas — are byte-identical to a from-scratch batch
//     run over the current window for every thread count and kernel mode.
//
//   * The emitted OutlierDelta is the verdict diff: ids newly flagged,
//     ids newly cleared (verdict flips and flagged points that expired),
//     and per-round stats. Applying deltas in order reconstructs the
//     current outlier set exactly.
//
// Out-of-order and multi-source input: real ingest is neither ordered
// nor single-tenant. With a WatermarkPolicy enabled, Ingest(block) parks
// arrivals in a reorder buffer instead of admitting them immediately.
// Every source (StreamBlock::source_id) keeps a clock at the maximum
// timestamp it has delivered; the global watermark is
//
//     min over non-idle sources of (max_seen_ts) − lateness
//
// and a buffered block is admitted — running the exact Feed round an
// in-order delivery would have run — once the watermark passes strictly
// beyond its timestamp, in canonical (timestamp, source, arrival) order.
// A block arriving with ts < watermark is later than the lateness bound:
// it is rejected with kOutOfRange and counted in stream.late_dropped,
// never silently applied. A source that stops sending pins the watermark
// at its last clock; idle_timeout > 0 excludes sources lagging the
// global maximum by more than the timeout until they send again. The
// window itself is per source (independent count budgets and time-based
// expiry clocks) over one merged grid/verdict space, so multi-tenant
// feeds share neighborhoods without sharing window schedules.
//
// The correctness contract: every arrival permutation within the
// lateness bound admits the same canonical block sequence, so the
// admitted-order delta stream — and the final flagged set — is
// byte-identical to in-order delivery (tests/streaming_order_test.cc
// fuzzes this against the batch oracle).
//
// Durability: with checkpoint_dir set, the full window state (per-source
// blocks, ids, coordinates, count summaries, flagged set, round counter —
// plus the reorder buffer and per-source clocks when a watermark policy is
// active) is committed to a CheckpointStore every checkpoint_every rounds
// (watermark mode: every checkpoint_every arrivals, so a kill mid-reorder
// restores the buffered blocks too); Create(resume=true) restores the
// latest committed round and the service replays the rest of the schedule
// to the same verdicts and deltas as an uninterrupted run. A snapshot without
// summaries (written by a build that could re-detect instead) rebuilds the
// counts deterministically from the restored window.
//
// Observability: every round emits "stream"/"round", "summary_update" and
// "summary_recount" trace spans, the stream.* metrics family (rounds,
// dirty-cell fraction, delta sizes, round latency histogram) and the
// stream.summary.* family (pair/point totals, saturated-point gauge,
// recount-queue histogram). tools/validate_trace checks the schema with
// --require_streaming.

#ifndef DOD_STREAMING_STREAMING_DETECTOR_H_
#define DOD_STREAMING_STREAMING_DETECTOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/dataset.h"
#include "common/point.h"
#include "common/status.h"
#include "detection/cell_key.h"
#include "detection/detector.h"
#include "durability/checkpoint.h"
#include "runtime/parallel_executor.h"

namespace dod {

class TaskArena;

// Bounded-lateness admission policy for out-of-order / multi-source
// streams. Disabled (the default), Ingest admits every block immediately
// in arrival order — the PR 7 in-order contract, byte for byte.
struct WatermarkPolicy {
  bool enabled = false;
  // Bounded lateness L, in timestamp units: a block is admissible while
  // its timestamp is >= the current watermark (min over live sources of
  // max-seen - L); anything older may already have admitted successors
  // and is rejected with kOutOfRange. Must be >= 0 and finite.
  double lateness = 0.0;
  // Idle-source timeout: a source whose clock lags the global maximum
  // timestamp by more than this stops holding the watermark back until
  // it delivers again. 0 disables (a silent source stalls the watermark
  // forever — choose deliberately for strictly-complete streams).
  double idle_timeout = 0.0;
};

struct StreamingConfig {
  // Outlier definition + kernel mode; params.seed drives the per-cell
  // probe-order seeds exactly like the batch reducers.
  DetectionParams params;
  // Threads fanning out over dirty cells; <= 0 uses all hardware threads,
  // 1 runs inline. Deltas are byte-identical for every thread count.
  int num_threads = 1;

  // Count-based window: keep at most this many resident blocks *per
  // source*; feeding past the limit expires that source's oldest blocks
  // in the same round. 0 = off.
  size_t window_blocks = 0;
  // Time-based window on caller-provided block timestamps: a block expires
  // once (newest timestamp its *source* has admitted) - (its timestamp)
  // >= window_seconds. 0 = off. Both windows may be active; either can
  // expire a block. Window clocks are per source so a fast tenant never
  // expires a slow tenant's blocks.
  double window_seconds = 0.0;

  // Out-of-order admission (see WatermarkPolicy above). Disabled keeps
  // the in-order Feed contract unchanged.
  WatermarkPolicy watermark;

  // Always true. Rounds run only on neighbor-count summaries; the field
  // stays declared because existing callers still assign it, and Create
  // rejects false with kInvalidArgument rather than silently serving the
  // summary path to a caller that asked for something else.
  bool summaries = true;
  // Saturation slack: counting a point stops at min_neighbors +
  // summary_slack neighbors and the summary is carried as a certified
  // lower bound from there. Slack absorbs expiry decrements — a saturated
  // point only re-counts once its bound drops below min_neighbors. Must
  // be >= 0. Affects cost only, never verdicts (0 saturates exactly at k,
  // maximizing re-counts; larger values trade count work per round for
  // fewer re-counts).
  int summary_slack = 32;

  // Grid cell side; <= 0 defaults to params.radius. Smaller sides mean
  // tighter dirty sets but a wider supporting ring (ceil(radius / side)).
  double cell_side = 0.0;
  // Grid origin. Unlike the batch detectors (which anchor at the partition
  // bounds), the streaming grid must be anchored independently of window
  // contents or cell identities would shift between rounds. A
  // default-constructed (dims-0) point means the all-zero origin.
  Point grid_origin;

  // Durability: empty = no checkpointing. With a dir set, the window state
  // commits every `checkpoint_every` rounds (0 = only on Checkpoint()).
  std::string checkpoint_dir;
  bool resume = false;
  uint64_t checkpoint_every = 1;
  // Extra caller identity folded into the checkpoint job key (e.g. the
  // replay schedule's parameters); resume refuses a store written under a
  // different key with kFailedPrecondition.
  std::string job_tag;
};

// One ingested block: caller-assigned stable ids (unique among resident
// points) plus their coordinates. source_id names the stream the block
// belongs to — each source gets its own window clock and, under a
// watermark policy, its own watermark contribution.
struct StreamBlock {
  explicit StreamBlock(int dims) : points(dims) {}

  void Add(PointId id, const double* p) {
    ids.push_back(id);
    points.Append(p);
  }

  std::vector<PointId> ids;
  Dataset points;
  double timestamp = 0.0;
  uint32_t source_id = 0;
};

struct StreamRoundStats {
  // 1-based round number (count of completed Feed calls).
  uint64_t round = 0;
  size_t appended_points = 0;
  size_t expired_points = 0;
  size_t resident_points = 0;
  size_t resident_cells = 0;
  // Cells whose summaries were updated this round (touched + supporting
  // ring).
  size_t dirty_cells = 0;
  // dirty_cells / resident_cells after the update (0 when no cells).
  double dirty_fraction = 0.0;
  // Points fully counted (appended) or re-counted (saturation bound
  // dropped below k), and the pair totals of the incremental insert/expiry
  // counting passes.
  size_t full_counted_points = 0;
  size_t recounted_points = 0;
  uint64_t insert_pairs = 0;
  uint64_t expiry_pairs = 0;
  // Wall time of the Feed call (timing; exempt from determinism).
  double round_seconds = 0.0;
};

// The verdict delta of one round. Outliers after the round =
// (outliers before) + newly_flagged - newly_cleared.
struct OutlierDelta {
  std::vector<PointId> newly_flagged;  // ascending
  std::vector<PointId> newly_cleared;  // ascending; flips and expired
  StreamRoundStats stats;
};

// The outcome of one Ingest call: zero or more rounds were admitted from
// the reorder stage (their deltas in admission order), the rest of the
// arrivals wait buffered behind the watermark. With watermarks disabled
// every Ingest admits exactly its own block.
struct IngestResult {
  std::vector<OutlierDelta> admitted;
  size_t buffered = 0;        // blocks still parked in the reorder buffer
  bool has_watermark = false;  // false until the first arrival
  double watermark = 0.0;      // min over live sources of clock - lateness
};

class StreamingDetector {
 public:
  // Validates the configuration, opens the checkpoint store when
  // configured, and (with resume) restores the latest committed round.
  static Result<std::unique_ptr<StreamingDetector>> Create(
      const StreamingConfig& config);

  // Ingests one block and returns the verdict delta. Rejects duplicate ids
  // (within the block or against resident points), dimension mismatches,
  // and non-finite coordinates with kInvalidArgument; on error the window
  // is unchanged. An empty block with no expiries is a no-op delta (the
  // round still counts). In-order admission only: with a watermark policy
  // enabled this is kFailedPrecondition — use Ingest.
  Result<OutlierDelta> Feed(const StreamBlock& block);

  // Accepts one arrival. With watermarks disabled this is Feed wrapped in
  // a single-delta IngestResult. With the policy enabled the block joins
  // the reorder buffer (kInvalidArgument on bad blocks, kOutOfRange +
  // stream.late_dropped when its timestamp is already more than
  // `lateness` behind its stream's clock; the window is unchanged on
  // error), the watermark advances, and every buffered block the
  // watermark passed is admitted in canonical (timestamp, source,
  // arrival) order — their deltas come back in admission order.
  Result<IngestResult> Ingest(const StreamBlock& block);

  // Drains the reorder buffer unconditionally (end of stream): every
  // buffered block is admitted in canonical order as if the watermark had
  // passed it. No-op with watermarks disabled or an empty buffer.
  Result<IngestResult> Flush();

  // Commits the window state to the checkpoint store now. kFailedPrecondition
  // when no checkpoint_dir was configured.
  Status Checkpoint();

  // The checkpoint job key this configuration maps to. Exposed for tests
  // and tooling that write or inspect a store out of band (e.g. the
  // snapshot version-compatibility matrix).
  static std::string JobKeyFor(const StreamingConfig& config);

  // Completed Feed rounds (restored rounds included).
  uint64_t rounds() const { return round_; }
  // Blocks accepted by Ingest (admitted + still buffered; restored
  // arrivals included, rejected blocks excluded). Equals rounds() with
  // watermarks disabled: a resuming replay driver continues at this
  // offset in its arrival schedule.
  uint64_t arrivals() const { return arrivals_; }
  // Blocks rejected with kOutOfRange for arriving beyond the lateness
  // bound (restored count included).
  uint64_t late_dropped() const { return late_dropped_; }
  // Blocks parked in the reorder buffer.
  size_t buffered_blocks() const { return reorder_.size(); }
  size_t resident_points() const { return id_to_slot_.size(); }
  size_t resident_cells() const { return cells_.size(); }
  // Current outlier ids, ascending. Byte-identical to a from-scratch batch
  // run over the window contents.
  const std::vector<PointId>& outliers() const { return outliers_; }
  // Resident points whose summary is a saturated lower bound rather than
  // an exact count. O(resident points).
  size_t saturated_points() const;

 private:
  struct CellState {
    // Appendable/expirable point segment: slot indices, append order.
    std::vector<uint32_t> slots;
  };
  struct SlotState {
    PointId stream_id = 0;
    // Verdict summary from the point's last evaluation (|N_r| < k).
    uint8_t flagged = 0;
    // Neighbor-count summary: exact |N_r| when saturated == 0; a certified
    // lower bound — never below min_neighbors at a round boundary — when
    // saturated != 0.
    uint32_t count = 0;
    uint8_t saturated = 0;
  };
  // One cell's re-count work: `locals` are positions in the cell's slot
  // segment (appended points needing a first count, saturated points whose
  // bound fell below k), ascending.
  struct TargetCell {
    CellCoord coord;
    std::vector<uint32_t> locals;
  };
  struct WindowBlock {
    uint64_t seq = 0;
    double timestamp = 0.0;
    std::vector<uint32_t> slots;
  };
  // One source's slice of the window: its resident blocks in admission
  // order plus its own expiry clock. Single-source streams live entirely
  // in source 0 and behave exactly like the pre-source-aware service.
  struct SourceWindow {
    std::deque<WindowBlock> blocks;
    double high_water = 0.0;
    bool saw_timestamp = false;
  };
  // One arrival parked in the reorder stage, waiting for the watermark.
  struct PendingBlock {
    uint64_t arrival = 0;  // global arrival sequence; canonical tiebreak
    StreamBlock block{1};
  };

  explicit StreamingDetector(const StreamingConfig& config);

  Status InitDims(int dims);
  Status ValidateBlock(const StreamBlock& block) const;
  uint32_t AllocSlot(PointId id, const double* p);
  CellCoord KeyOf(const double* p) const;
  // Whether p keys into a cell whose supporting ring stays inside the
  // int32 cell coordinates UniformCellKey produces; false for NaN and
  // infinities too.
  bool KeyInRange(const double* p, int dims) const;

  // Appends the block's points into slots/cells (no detection); the cell
  // of every appended point is added to `touched`, its slot to
  // `appended_slots`.
  void AppendBlock(const StreamBlock& block, std::vector<CellCoord>* touched,
                   std::vector<uint32_t>* appended_slots);
  // Pops expired blocks off every source window's front — sources scanned
  // in ascending id order — into `touched` / `expired_flagged` (flagged
  // ids leaving the window) / `evicted_slots` (freed slots — their window
  // coordinates stay readable until the next round's appends recycle
  // them) and returns the number of expired points.
  size_t ExpireBlocks(std::vector<CellCoord>* touched,
                      std::vector<PointId>* expired_flagged,
                      std::vector<uint32_t>* evicted_slots);

  // One admitted round: the Feed body without the per-round checkpoint
  // policy (Feed and the reorder drain wrap it with their own).
  Result<OutlierDelta> AdmitBlock(const StreamBlock& block);
  // Arrival-time validation for the reorder stage: everything
  // ValidateBlock checks, plus a finite timestamp and id uniqueness
  // against the buffered blocks.
  Status ValidateArrival(const StreamBlock& block) const;
  // min over live (non-idle) source clocks of clock - lateness; false
  // until a first arrival registered a source.
  bool CurrentWatermark(double* watermark) const;
  // Admits every buffered block with timestamp < `bound` (canonical
  // order) and appends the deltas to `result`.
  Status DrainReorderBuffer(double bound, IngestResult* result);

  // Resident cells within Chebyshev distance `ring_` of any touched cell,
  // deduplicated and in deterministic (lexicographic) order.
  std::vector<CellCoord> DirtyCells(std::vector<CellCoord>* touched) const;

  // Stages `center`'s segment (core) plus its supporting-ring cells
  // (support) into the arena — the exact layout the batch reducers stage.
  void StageCellWithRing(const CellCoord& center, TaskArena* arena) const;

  // The saturation cap: min_neighbors + summary_slack, clamped to int.
  int SaturationCap() const;

  // One round's summary update: increments/decrements every dirty
  // cell's resident counts against the appended/evicted point segments,
  // flips verdicts of exact counts, then re-counts appended points and
  // saturated points whose bound fell below k via CountTargets. Applies
  // verdict flips to `delta` and fills its summary stats.
  Status SummaryUpdate(const std::vector<CellCoord>& dirty,
                       const std::vector<uint32_t>& appended_slots,
                       const std::vector<uint32_t>& evicted_slots,
                       OutlierDelta* delta);

  // Exact-or-saturated counts for every target point (staged core+ring,
  // executor fan-out, sequential fold); writes summaries and applies
  // verdict flips to `delta`.
  Status CountTargets(const std::vector<TargetCell>& targets,
                      OutlierDelta* delta);

  // Full deterministic rebuild of every resident point's summary (resume
  // from a snapshot written without summaries). Fails with kIoError when the
  // recomputed verdicts disagree with the restored flagged set.
  Status RebuildSummaries();

  void ApplyDeltaToOutlierSet(const OutlierDelta& delta);
  void RecordRound(const OutlierDelta& delta);

  std::string JobKey() const;
  Status CommitCheckpoint();
  Status RestoreLatest();

  StreamingConfig config_;
  double side_ = 0.0;
  int ring_ = 1;
  int dims_ = 0;  // 0 until the first non-empty block (or restore)
  double origin_[kMaxDimensions] = {0.0};

  std::optional<Dataset> window_;  // slot-indexed storage, rows recycled
  std::vector<SlotState> slots_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<PointId, uint32_t> id_to_slot_;
  std::unordered_map<CellCoord, CellState, CellCoordHash> cells_;
  // Per-source window slices, ordered by source id so expiry scans (and
  // the checkpoint codec) iterate deterministically.
  std::map<uint32_t, SourceWindow> windows_;
  uint64_t next_seq_ = 0;
  uint64_t round_ = 0;
  std::vector<PointId> outliers_;

  // Reorder stage (watermark mode; all empty/zero when disabled).
  std::deque<PendingBlock> reorder_;  // canonical admission order
  std::unordered_set<PointId> pending_ids_;  // ids parked in reorder_
  std::map<uint32_t, double> wm_clocks_;  // per-source max timestamp seen
  double global_max_ts_ = 0.0;
  bool saw_arrival_ = false;
  uint64_t next_arrival_ = 0;
  uint64_t arrivals_ = 0;
  uint64_t late_dropped_ = 0;

  std::unique_ptr<ParallelExecutor> executor_;
  std::unique_ptr<CheckpointStore> store_;
};

}  // namespace dod

#endif  // DOD_STREAMING_STREAMING_DETECTOR_H_
