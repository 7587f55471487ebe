#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "exec/engine.h"
#include "net/transport.h"

namespace costdb {

/// One observed exchange execution, in the cost model's vocabulary. The
/// CalibrationUpdater folds these into the calibration's shuffle term
/// (bytes / shuffle_gibps + partitions * shuffle_dispatch_seconds), so
/// `bytes` counts what the measured wall time actually processed — every
/// payload byte the in-process movement copied (a broadcast materializes
/// one shared copy, not W wire copies) — while the logical cross-worker
/// charge lives in ExchangeStats::bytes_moved(). When the exchange ran
/// over a serializing transport, `wire_bytes`/`link_seconds` isolate the
/// serialization + link share of `seconds`; the calibration's link terms
/// learn from exactly these fields (and the shuffle copy term subtracts
/// them, so it never chases link time).
struct ExchangeTiming {
  ExchangeKind kind = ExchangeKind::kShuffle;
  double bytes = 0.0;      // payload bytes the movement copied
  size_t partitions = 0;   // receiver partitions dispatched
  double seconds = 0.0;    // wall time of the repartition/copy step
  TransportKind transport = TransportKind::kInProcess;
  double wire_bytes = 0.0;    // serialized frame bytes (0 for in-process)
  size_t transfers = 0;       // transport Send calls this exchange made
  double link_seconds = 0.0;  // serialize+transfer share of `seconds`
};

/// Data-movement counters of one exchange kind within one Execute call.
struct ExchangeKindStats {
  size_t count = 0;
  size_t rows_moved = 0;      // rows that left their producing worker
  double bytes_moved = 0.0;   // payload bytes of those rows
  double seconds = 0.0;       // wall time spent in this exchange kind
  double wire_bytes = 0.0;    // serialized frame bytes over the transport
  double link_seconds = 0.0;  // serialize+transfer share of `seconds`
};

/// Data-movement counters of one ShardedEngine::Execute call, broken down
/// by exchange kind (shuffle vs broadcast vs gather move very different
/// byte volumes; a single sum hid which one dominated).
struct ExchangeStats {
  TransportKind transport = TransportKind::kInProcess;
  ExchangeKindStats shuffle;
  ExchangeKindStats broadcast;
  ExchangeKindStats gather;
  std::vector<ExchangeTiming> timings;  // per executed exchange, plan order

  size_t exchanges() const {
    return shuffle.count + broadcast.count + gather.count;
  }
  size_t rows_moved() const {
    return shuffle.rows_moved + broadcast.rows_moved + gather.rows_moved;
  }
  double bytes_moved() const {
    return shuffle.bytes_moved + broadcast.bytes_moved + gather.bytes_moved;
  }
  double seconds() const {
    return shuffle.seconds + broadcast.seconds + gather.seconds;
  }
  double wire_bytes() const {
    return shuffle.wire_bytes + broadcast.wire_bytes + gather.wire_bytes;
  }
  double link_seconds() const {
    return shuffle.link_seconds + broadcast.link_seconds +
           gather.link_seconds;
  }

  ExchangeKindStats& ByKind(ExchangeKind kind) {
    switch (kind) {
      case ExchangeKind::kBroadcast:
        return broadcast;
      case ExchangeKind::kGather:
        return gather;
      default:
        return shuffle;  // kShuffle; kLocal never records stats
    }
  }
};

/// What an elastic width decision can observe at one fragment boundary —
/// the repartition point where an exchange is about to rebucket its input
/// anyway, so changing the consumer's worker count costs only the delta
/// (spin-up + extra receiver partitions), not an extra data movement.
struct FragmentBoundary {
  int index = 0;                 // 0-based ordinal of this boundary
  size_t current_workers = 0;    // width the producers ran at
  double elapsed_seconds = 0.0;  // wall time since Execute began
  /// Wall time spent producing this fragment's exchange inputs (the
  /// just-finished upstream fragments and their exchanges).
  double producer_seconds = 0.0;
  double pending_bytes = 0.0;    // exchange payload about to rebucket
  double pending_rows = 0.0;
  /// Cut exchanges not yet executed anywhere in the plan — a coarse
  /// how-much-is-left signal (0 at the final gather).
  size_t cuts_remaining = 0;
};

/// Width chosen for the fragment about to run; values are clamped to
/// [1, +inf) and missing workers are spun up on demand.
using WidthDecider = std::function<size_t(const FragmentBoundary&)>;

/// One fragment execution at one width (elastic runs interleave widths).
struct FragmentUsage {
  size_t workers = 0;    // width the fragment ran at (1 for post-gather)
  double seconds = 0.0;  // fragment wall time (workers run concurrently)
};

/// Machine-time ledger of one ShardedEngine::Execute call, billed the way
/// the paper says clouds bill: every wall-clock second is charged at the
/// worker count held during it — blocked or skipped workers included —
/// plus the spin-up time of workers added mid-query. This is what the
/// cloud billing layer converts to dollars for elastic runs.
struct WorkerUsage {
  double wall_seconds = 0.0;
  double worker_seconds = 0.0;   // sum of wall segments x active width
  size_t peak_workers = 0;
  size_t min_workers = 0;
  size_t resizes = 0;            // applied width changes
  size_t workers_spun_up = 0;    // engines created after Execute began
  double spinup_seconds = 0.0;   // wall time spent creating them
  std::vector<FragmentUsage> fragments;  // per executed fragment, run order
};

/// In-memory payload bytes of a chunk (fixed 8B numerics, observed string
/// lengths + a 4B offset word) — what the exchange stats and the shuffle
/// calibration account as "bytes on the wire".
double ChunkPayloadBytes(const DataChunk& chunk);

/// Construction knobs of a ShardedEngine — width, per-worker threading,
/// and how exchanged partitions travel between workers. Results are
/// bit-identical across transports for order-stable plans (tested in
/// sharded_test).
struct ShardedEngineOptions {
  size_t workers = 1;
  size_t threads_per_worker = 1;
  TransportKind transport = TransportKind::kInProcess;
};

/// Partitioned multi-worker execution: runs a physical plan across N
/// workers, each a LocalEngine over a horizontal slice of the data,
/// stitched together by real exchange operators.
///
/// The same distributed-shaped plans the optimizer already emits (two-phase
/// aggregates, join-side shuffles/broadcasts, root gather) drive execution:
/// the plan is split into *fragments* at exchange boundaries. Every worker
/// runs each fragment on its slice — base-table scans are restricted to the
/// worker's contiguous row-group range (whole partitions for a partitioned
/// table; see storage/partition.h), and exchange inputs arrive as temp
/// tables filled by the parent exchange:
///   - shuffle:   rows are re-bucketed by hash(partition_exprs) % width,
///   - broadcast: every worker receives the full input,
///   - gather:    worker 0 receives everything; downstream fragments of a
///                gathered input run single-worker,
///   - local:     co-partitioned pass-through — no row moves; the fragment
///                keeps both sides and joins/aggregates partition-wise.
///
/// Elasticity: the worker count may change at fragment boundaries. Before
/// a fragment's cut exchanges rebucket, an optional WidthDecider (see
/// SetResizer; runtime/elastic_controller.h supplies the policy-driven
/// one) picks the width the fragment runs at; shuffles then hash into that
/// many buckets and missing workers spin up lazily. Because exchanges
/// rebucket by hash % width regardless, a resize changes no data-movement
/// semantics — and because co-partitioned fragments assign whole
/// partitions to workers via WorkerGroupRange at whatever width is active,
/// partition-wise joins stay correctly aligned across resizes. Machine
/// time is metered per width segment in last_usage() so elastic runs are
/// billed the worker-seconds they actually held.
///
/// Determinism and LocalEngine parity: all cross-worker merges happen in
/// worker order, worker slices are contiguous shares of the source order,
/// and grouped-aggregate outputs are gathered by k-way merge on the same
/// encoded group key that orders LocalEngine's aggregate output — so
/// results are bit-identical to LocalEngine (and across worker counts AND
/// across arbitrary resize schedules) for order-stable plans:
/// scans/filters/projections, broadcast and co-partitioned joins, grouped
/// and global aggregates, and sorts. Repartition (shuffle) joins produce
/// the same multiset in an order that is deterministic per width schedule
/// but only canonical up to the next order-fixing operator (aggregate or
/// sort). Floating-point SUM/AVG over double columns re-associates across
/// worker partials (integer aggregates stay exact). Partial aggregates
/// emit nothing on an empty shard and NULL for value-less MIN/MAX states
/// (PhysicalPlan::agg_is_partial), so empty or all-NULL shards cannot
/// poison merged extrema.
class ShardedEngine {
 public:
  explicit ShardedEngine(const ShardedEngineOptions& options);
  explicit ShardedEngine(size_t num_workers, size_t threads_per_worker = 1)
      : ShardedEngine(ShardedEngineOptions{num_workers, threads_per_worker,
                                           TransportKind::kInProcess}) {}

  Result<QueryResult> Execute(const PhysicalPlan* root);

  /// Install (or clear, with nullptr-like default) the width decision hook
  /// consulted at each resizable fragment boundary. The decider runs on
  /// the coordinating thread between fragments; it must be fast and must
  /// not call back into the engine.
  void SetResizer(WidthDecider decider) { resizer_ = std::move(decider); }

  /// Exchange counters of the previous Execute call — the feedback signal
  /// of the shuffle-term calibration loop.
  const ExchangeStats& last_exchange_stats() const { return exchange_stats_; }

  /// Worker-second ledger of the previous Execute call — the feedback
  /// signal of the elastic billing loop.
  const WorkerUsage& last_usage() const { return usage_; }

  /// Zone-map pruning counters of the previous Execute call, summed over
  /// workers.
  const ScanStats& last_scan_stats() const { return scan_stats_; }

  /// Block-cache counters of the previous Execute call, summed over
  /// workers (each worker pins its own shard's cold blocks through the
  /// shared BlockCache).
  const BlockCacheStats& last_block_stats() const { return block_stats_; }

  /// Current execution width (the constructor's count until a resize).
  size_t num_workers() const { return active_; }

  /// How exchanged partitions travel between workers.
  TransportKind transport() const { return transport_->kind(); }

  /// Transport counters accumulated since the previous Execute call began
  /// (exchange-granular deltas live in last_exchange_stats().timings).
  const TransportStats& transport_stats() const {
    return transport_->stats();
  }

 private:
  /// Per-worker chunks flowing between fragments and exchanges.
  struct Shards {
    std::vector<DataChunk> chunks;  // one per worker
    /// All rows live on worker 0 (post-gather); downstream fragments run
    /// single-worker.
    bool single = false;
    /// Every worker holds the full input (post-broadcast); chunks[0] is
    /// the one materialized copy.
    bool shared = false;
    /// When > 0: each shard is sorted by the encoded key of its first
    /// `key_prefix` columns and key sets are disjoint across shards, so a
    /// gather k-way-merges instead of concatenating (grouped aggregates).
    size_t key_prefix = 0;
  };

  /// A fragment input produced by a cut exchange: the temp table each
  /// worker scans in place of the exchange subtree.
  struct FragmentInput {
    std::vector<std::shared_ptr<Table>> per_worker;  // size 1 when shared
    bool shared = false;
    bool single = false;
    std::shared_ptr<Table> SharedForWorker(size_t w) const {
      return (shared || single) ? per_worker[0] : per_worker[w];
    }
  };

  Result<Shards> RunNode(const PhysicalPlan* node);
  Result<Shards> RunFragment(const PhysicalPlan* frag_root);

  /// Apply one cut exchange to its producer's output, rebucketing for a
  /// consumer fragment that will run at `width` workers.
  Result<Shards> ApplyExchange(const PhysicalPlan* exchange, Shards in,
                               size_t width);
  Result<Shards> ShuffleShards(Shards in, const PhysicalPlan* exchange,
                               size_t width);
  Result<Shards> BroadcastShards(Shards in, const PhysicalPlan* exchange,
                                 size_t width);
  Result<Shards> GatherShards(Shards in, const PhysicalPlan* exchange);

  /// Close one exchange's books: compute this exchange's transport delta
  /// against `before`, record the timing, and fold it into the per-kind
  /// stats bucket.
  void RecordExchange(ExchangeTiming timing, const TransportStats& before,
                      size_t rows_moved, double bytes_moved);

  /// Consult the resizer at a fragment boundary and switch the active
  /// width (spinning up workers as needed). Returns the width to run at.
  size_t DecideWidth(double producer_seconds, double pending_bytes,
                     double pending_rows);

  /// Grow the worker vector (and the fragment fan-out pool) to `n`,
  /// metering the spin-up wall time into usage_.
  void EnsureWorkers(size_t n);

  /// Close the current constant-width billing segment at `now` and open
  /// the next one (called on width changes and at Execute end).
  void CloseUsageSegment(double now);

  /// Concatenate (or key-merge) shards into one chunk, in worker order.
  DataChunk MergeShards(Shards* shards,
                        const std::vector<LogicalType>& types) const;

  /// Clone `node` for one worker of `width`: cut exchanges become
  /// temp-table scans, base scans get the worker's row-group range.
  /// `input_rows` accumulates the rows this worker would read (empty
  /// workers are skipped).
  PhysicalPlanPtr CloneForWorker(
      const PhysicalPlan* node, size_t worker, size_t width, bool single,
      const std::map<const PhysicalPlan*, FragmentInput>& inputs,
      double* input_rows) const;

  size_t threads_per_worker_ = 1;
  size_t initial_workers_ = 1;  // width every Execute starts from
  std::vector<std::unique_ptr<LocalEngine>> workers_;  // one per worker
  size_t active_ = 1;  // current execution width (<= workers_.size())
  /// One slot per worker; fragments fan out across it. unique_ptr so a
  /// mid-query grow can rebuild it wider between fragments.
  std::unique_ptr<ThreadPool> pool_;
  /// How exchanged partitions travel; owned per engine (the socketpair is
  /// engine state). Never null.
  std::unique_ptr<ExchangeTransport> transport_;
  WidthDecider resizer_;

  ExchangeStats exchange_stats_;
  ScanStats scan_stats_;
  BlockCacheStats block_stats_;
  WorkerUsage usage_;
  double exec_start_ = 0.0;
  double segment_start_ = 0.0;  // start of the current constant-width span
  int boundary_index_ = 0;
  size_t cuts_remaining_ = 0;
};

}  // namespace costdb
