#pragma once

/// The benchmark's three workloads over in-repo SSB data, each driven by
/// one closed-loop client through Session:
///
///   ssb-local      12 SsbQueries() templates as prepared statements with
///                  seeded parameters, LocalEngine at 2 threads;
///   ssb-sharded    the same statements and sequence on the ShardedEngine
///                  (2 workers x 1 thread, in-process transport);
///   lookup-ingest  literal range lookups on lo_orderkey interleaved with
///                  Table::Append batches, lineorder persisted behind a
///                  block cache smaller than the table.
///
/// An Instance is one set-up database. Its operation sequence is a pure
/// function of the seed; a pass replays a prefix of it, either for a wall
/// time or for an exact operation count, and verifies every result.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"
#include "service/session.h"

namespace perfbench {

enum class WorkloadKind { kSsbLocal, kSsbSharded, kLookupIngest };

bool ParseWorkload(const std::string& name, WorkloadKind* out);
const char* WorkloadName(WorkloadKind kind);

struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kSsbLocal;
  uint64_t seed = 1;
  /// LoadSsb scale factor. The benchmark runs SF1 (600k lineorder and 400k
  /// shipments rows); the benchmark's tests run a small scale. Every size
  /// below follows from it.
  double scale = 1.0;
  /// Directory for the object store's spill files (lookup-ingest).
  std::string spill_dir;

  /// Query threads: LocalEngine threads, or sharded workers x 1 thread.
  /// A lookup touches one block, so lookup-ingest runs it inline.
  size_t query_threads() const {
    return kind == WorkloadKind::kLookupIngest ? 1 : 2;
  }
  /// Rows per row group (and per set-up append batch): 8192 at SF1.
  size_t row_group_size() const { return Scaled(8192, 512); }
  /// Warm-up before timing: SSB statement rounds, or lookups.
  size_t warmup_rounds() const { return scale >= 1.0 ? 2 : 1; }
  size_t warmup_lookups() const { return Scaled(300, 40); }
  /// lookup-ingest: a block cache smaller than lineorder (16 MiB at SF1)
  /// and the StorageOptions default memtable flush (64k rows at SF1).
  size_t block_cache_bytes() const { return Scaled(16u << 20, 64u << 10); }
  size_t memtable_flush_rows() const { return Scaled(64 * 1024, 2048); }
  /// Lookups are drawn from the newest third of the loaded keys (30%) or
  /// from the whole table (70%).
  int64_t hot_window() const {
    return static_cast<int64_t>(Scaled(200000, 1000));
  }

 private:
  /// `at_sf1` scaled to this scale factor, never below `floor`.
  size_t Scaled(size_t at_sf1, size_t floor) const {
    const double v = static_cast<double>(at_sf1) * scale;
    return std::max(floor, static_cast<size_t>(v + 0.5));
  }
};

/// How long a pass runs: for `seconds` of wall time and at least
/// `min_queries` queries, or — when `ops` > 0 — exactly `ops` operations.
struct PassLimits {
  double seconds = 0.0;
  size_t min_queries = 0;
  size_t ops = 0;
};

/// Exact per-layer counts of one pass: at a fixed seed and operation count
/// they repeat run to run.
struct PassCounts {
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_lookups = 0;
  int64_t plan_cache_entries = 0;  // at the end of the pass
  int64_t states_explored = 0;
  int64_t fused_morsels = 0;
  int64_t fallback_morsels = 0;
  int64_t source_rows = 0;
  int64_t rows_moved = 0;
  int64_t bytes_moved = 0;
  int64_t block_hits = 0;
  int64_t block_misses = 0;
  int64_t block_evictions = 0;
  int64_t queries_with_miss = 0;
  int64_t gets = 0;
  int64_t puts = 0;
  int64_t flushes = 0;
  int64_t compactions = 0;

  bool operator==(const PassCounts& o) const;
};

/// Everything one pass measured.
struct PassReport {
  size_t ops = 0;
  size_t queries = 0;
  size_t appends = 0;
  size_t appended_rows = 0;
  size_t failed = 0;  // operations that returned an error
  size_t wrong = 0;   // queries whose result did not match the reference
  double wall_seconds = 0.0;
  std::vector<double> query_ms;   // client-side latency per query
  std::vector<double> append_ms;  // per Table::Append batch
  /// Per query: the plan's estimated latency and the measured execute
  /// time (ExecutePlannedCached on traced passes, else the query latency).
  std::vector<double> estimated_s;
  std::vector<double> measured_s;
  /// Identity of each query in order (statement/parameter instance or key
  /// range), so two seeds' sequences can be compared.
  std::vector<uint64_t> sequence;
  PassCounts counts;
  // Non-count sums over the pass.
  double fused_seconds = 0.0;
  double exchange_seconds = 0.0;
  double worker_seconds = 0.0;
  double spinup_seconds = 0.0;
  double miss_seconds = 0.0;
  // The bill of the pass, each request and second counted once.
  double compute_usd = 0.0;
  double storage_usd = 0.0;
  double egress_usd = 0.0;
  // Table layout at the end of the pass (lookup-ingest).
  double stored_bytes = 0.0;
  double stored_rows = 0.0;
};

class Instance {
 public:
  /// Generate and load the data, persist it (lookup-ingest), prepare the
  /// statements and warm up. Everything a pass needs before timing.
  /// `speed` (optional) samples the host speed between set-up steps.
  static costdb::Result<std::unique_ptr<Instance>> Create(
      const WorkloadConfig& config, SpeedReference* speed = nullptr);
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Compute the verification reference outside any timed window: each
  /// SSB statement instance once, as literal SQL on the local engine.
  /// (lookup-ingest answers are known from the key layout.)
  costdb::Status BuildReference();

  /// Replay the next operations of the seeded sequence. With `tracer`,
  /// each query calls the layer functions itself and records spans;
  /// `speed` (optional) samples the host speed between operations, outside
  /// every operation's latency.
  costdb::Result<PassReport> Run(const PassLimits& limits,
                                 SpanRecorder* tracer,
                                 SpeedReference* speed = nullptr);

  /// Latency q-error after `rounds` feedback rounds of the workload's
  /// queries on a calibration-enabled Database over the same tables.
  costdb::Result<double> CalibratedQError(size_t rounds);

  /// Bytes per stored row right after the table was persisted.
  double initial_bytes_per_row() const { return initial_bytes_per_row_; }

 private:
  struct Impl;
  explicit Instance(const WorkloadConfig& config);

  WorkloadConfig config_;
  std::unique_ptr<costdb::Database> db_;
  std::unique_ptr<Impl> impl_;
  double initial_bytes_per_row_ = 0.0;
};

/// The 12 templates with their literals as '?' placeholders; rendering
/// a template with its default parameters gives SsbQueries()' text.
struct SsbTemplate {
  std::string id;
  std::string sql;
  std::vector<costdb::Value> defaults;
};
const std::vector<SsbTemplate>& SsbTemplates();

/// `sql` with each '?' replaced by the literal of the matching parameter.
std::string RenderSql(const std::string& sql,
                      const std::vector<costdb::Value>& params);

}  // namespace perfbench
