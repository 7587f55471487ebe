#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "plan/pipeline.h"
#include "storage/cache.h"

namespace costdb {

/// Materialized query output.
struct QueryResult {
  std::vector<std::string> names;
  std::vector<LogicalType> types;
  DataChunk chunk;

  std::string ToString(int64_t limit = 20) const;
};

/// Consumer side of the engine's pull-based result path. The final
/// pipeline hands result chunks to the sink in deterministic morsel order
/// as soon as every earlier morsel has been delivered — it never
/// concatenates the whole result first, so a client draining the sink
/// concurrently sees rows while later morsels are still executing.
/// Push calls are serialized by the engine (one at a time, but possibly
/// from different worker threads); a non-OK return aborts the query.
class ChunkSink {
 public:
  virtual ~ChunkSink() = default;
  virtual Status Push(DataChunk chunk) = 0;
};

/// Schema and row count of a sink-driven execution (the rows themselves
/// went to the ChunkSink).
struct StreamedResult {
  std::vector<std::string> names;
  std::vector<LogicalType> types;
  size_t rows_streamed = 0;
};

/// Serialized, type-tagged row-key encoding ('\x01'-separated; strings
/// length-prefixed; doubles bit-exact with -0.0 normalized to 0.0). Both
/// the engine's ordered aggregate-group table and the sharded engine's
/// key-merge gather order grouped results by exactly this byte string, so
/// grouped output order is identical across engines and worker counts.
void EncodeRowKeyInto(const std::vector<ColumnVector>& columns, size_t row,
                      std::string* key);
/// Same encoding over the first `num_columns` columns of a chunk.
void EncodeChunkKeyInto(const DataChunk& chunk, size_t num_columns, size_t row,
                        std::string* key);

/// Wall-clock measurement of one pipeline run, used to calibrate the cost
/// estimator's per-operator throughput parameters.
struct PipelineTiming {
  int pipeline_id = 0;
  double seconds = 0.0;
  double source_rows = 0.0;
  double output_rows = 0.0;
};

/// Zone-map pruning counters of one Execute call. A "morsel" here is a
/// scan morsel (one row group); pruned morsels are skipped before any row
/// is read, which is where selective predicates win most of their time.
struct ScanStats {
  size_t morsels_total = 0;   // scan morsels considered, pre-pruning
  size_t morsels_pruned = 0;  // skipped whole via zone maps
  size_t rows_scanned = 0;    // rows in surviving morsels
  size_t rows_pruned = 0;     // rows in pruned morsels

  double pruned_fraction() const {
    return morsels_total == 0
               ? 0.0
               : static_cast<double>(morsels_pruned) /
                     static_cast<double>(morsels_total);
  }
};

/// Morsel-driven, push-style local execution engine, vectorized end to
/// end: scans evaluate predicates on borrowed row-group columns and
/// materialize only surviving rows, filters exchange selection vectors
/// instead of copies, join probes hash column-at-a-time and gather matches
/// in bulk, and aggregation folds each morsel into a lock-free local
/// partial that is merged in morsel order.
///
/// Pipelines run in dependency order, each parallelized over morsels (zone-
/// map-surviving row groups for scans, fixed slices for materialized
/// inputs) on a worker pool. Morsel outputs and aggregate partials are
/// reassembled in morsel order, so results are deterministic for any
/// thread count.
///
/// Exchange operators are no-ops here: locally there is no network. Their
/// cost lives in the cost estimator and the distributed simulator, which
/// share this engine's pipeline decomposition.
class LocalEngine {
 public:
  explicit LocalEngine(size_t num_threads = 8);

  Result<QueryResult> Execute(const PhysicalPlan* root);

  /// Execute with the final pipeline streaming into `sink` instead of
  /// materializing a QueryResult (intermediate breakers still materialize
  /// — only the result pipeline is pull-based). Chunk order and content
  /// match Execute() exactly, including LIMIT truncation. last_timings()
  /// and last_scan_stats() are populated the same way.
  Result<StreamedResult> ExecuteToSink(const PhysicalPlan* root,
                                       ChunkSink* sink);

  /// Per-pipeline wall time of the previous Execute call (the feedback
  /// signal of the calibration loop; see CalibrationUpdater).
  const std::vector<PipelineTiming>& last_timings() const {
    return timings_;
  }

  /// Zone-map pruning counters of the previous Execute call.
  const ScanStats& last_scan_stats() const { return scan_stats_; }

  /// Block-cache counters of the previous Execute call: cold-block hits,
  /// misses (each one object-store GET), and the measured read+decode time
  /// Database::Calibrate folds back into the storage terms.
  /// All-zero for purely RAM-resident scans.
  const BlockCacheStats& last_block_stats() const { return block_stats_; }

  size_t num_threads() const { return pool_.num_threads(); }

  // Execution state shared across the pipelines of one query; public so the
  // morsel-processing helpers in engine.cc can see it.
  struct BreakerState;
  struct ExecContext;

 private:
  Status RunPipeline(const Pipeline& pipeline, ExecContext* ctx,
                     PipelineTiming* timing);

  /// Shared driver of Execute / ExecuteToSink: pipeline decomposition,
  /// dependency-ordered execution, timing capture.
  Status RunAll(const PhysicalPlan* root, ExecContext* ctx);

  ThreadPool pool_;
  std::vector<PipelineTiming> timings_;
  ScanStats scan_stats_;
  BlockCacheStats block_stats_;
};

}  // namespace costdb
