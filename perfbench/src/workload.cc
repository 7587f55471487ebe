#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "cloud/pricing.h"
#include "common/rng.h"
#include "sql/shape.h"
#include "workload/ssb.h"

namespace perfbench {

using costdb::BoundQuery;
using costdb::DataChunk;
using costdb::Database;
using costdb::DatabaseOptions;
using costdb::ExecutionResult;
using costdb::LogicalType;
using costdb::PlannedQuery;
using costdb::PreparedStatementPtr;
using costdb::Result;
using costdb::Rng;
using costdb::Session;
using costdb::SessionOptions;
using costdb::Status;
using costdb::Table;
using costdb::UserConstraint;
using costdb::Value;

namespace {

const char* const kRegions[] = {"AMERICA", "ASIA", "EUROPE", "AFRICA",
                                "MIDEAST"};
const char* const kCategories[] = {"MFGR#11", "MFGR#12", "MFGR#13",
                                   "MFGR#14", "MFGR#21", "MFGR#22",
                                   "MFGR#23", "MFGR#24"};
const char* const kColors[] = {"red",  "green", "blue", "ivory",
                               "black", "plum", "navy", "gold"};
const char* const kShipmodes[] = {"AIR", "RAIL", "SHIP", "TRUCK", "MAIL"};

// The lookup-ingest mix: kLookupsPerAppend range lookups of kLookupWidth
// keys (kHotShare of them among the newest keys) per Table::Append of
// kAppendRows rows. Set-up leaves the memtable kAppendsBeforeCompaction
// timed appends short of the flush that compacts level 0, so every pass
// flushes into a compaction early, at the same operation. With 30% hot
// lookups about 62% miss the cache, which puts the p50 inside the misses:
// a cache-hit p50 did not repeat between runs on a shared host (see
// perfbench/README.md).
constexpr size_t kLookupsPerAppend = 8;
constexpr size_t kAppendRows = 32;
constexpr int64_t kLookupWidth = 100;
constexpr double kHotShare = 0.3;
constexpr size_t kAppendsBeforeCompaction = 20;

// Parameter variants drawn per SSB template (templates without literals
// have one).
constexpr size_t kVariantsPerTemplate = 4;

// Salts separating the seeded streams of one run.
constexpr uint64_t kPoolSalt = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kWarmupSalt = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kRowSalt = 0x165667b19e3779f9ull;
constexpr uint64_t kCalibrationSalt = 0x27d4eb2f165667c5ull;

Value Int(int64_t v) { return Value(v); }
Value Str(const char* s) { return Value(std::string(s)); }

/// Stratified draws: variant `v` of `n` takes its value from the v-th of
/// n equal slices of the domain, so every seed's variants span the domain
/// alike and per-query cost varies little with the seed.
struct Stratum {
  Rng* rng;
  size_t v;
  size_t n;

  Value Int(int64_t lo, int64_t hi) const {
    const int64_t span = hi - lo + 1;
    const int64_t a = lo + span * static_cast<int64_t>(v) /
                               static_cast<int64_t>(n);
    const int64_t b = lo + span * static_cast<int64_t>(v + 1) /
                               static_cast<int64_t>(n) - 1;
    return Value(rng->UniformInt(a, std::max(a, b)));
  }

  template <size_t N>
  Value Pick(const char* const (&options)[N], size_t offset) const {
    return Str(options[(offset + v * N / n) % N]);
  }
};

/// Variant `v` of `n` of template `index`'s parameters (same order as
/// SsbTemplates()); empty for templates without literals. `offsets` are
/// per-seed rotations of the categorical domains.
std::vector<Value> DrawParams(size_t index, const Stratum& s,
                              const size_t (&offsets)[3]) {
  switch (index) {
    case 0: {  // Q1: discount band and quantity cap
      const int64_t lo = s.Int(0, 8).AsInt();
      return {Int(lo), Int(lo + 2), s.Int(15, 35)};
    }
    case 2:  // Q3
      return {s.Int(1992, 1998)};
    case 4:  // Q5
      return {s.Pick(kRegions, offsets[0])};
    case 5:  // Q6
      return {s.Pick(kRegions, offsets[0]), s.Pick(kRegions, offsets[1])};
    case 6:  // Q7
      return {s.Pick(kCategories, offsets[2]), s.Pick(kRegions, offsets[1])};
    case 7:  // Q8
      return {s.Pick(kColors, offsets[2])};
    case 8:  // Q9
      return {s.Int(500, 5000)};
    case 9:  // Q10
      return {s.Int(40, 48)};
    case 10:  // Q11
      return {s.Pick(kRegions, offsets[0]), s.Int(1992, 1997)};
    case 11:  // Q12
      return {s.Int(5, 15)};
    default:
      return {};
  }
}

uint64_t Fnv(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Seeded statement order: rounds of a shuffled template order. Round r
/// runs variant (r + offset) mod n of each template, with a seeded offset
/// per template, so every n rounds use each variant exactly once.
class SsbSequence {
 public:
  SsbSequence(uint64_t seed, std::vector<std::vector<size_t>> variants)
      : rng_(seed), variants_(std::move(variants)) {
    for (const auto& v : variants_) {
      offsets_.push_back(static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(v.size()) - 1)));
    }
  }

  /// Pool index of the next statement instance.
  size_t Next() {
    if (pos_ == order_.size()) {
      order_.resize(variants_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      rng_.Shuffle(&order_);
      pos_ = 0;
      ++round_;
    }
    const size_t t = order_[pos_++];
    const auto& choices = variants_[t];
    return choices[(round_ + offsets_[t]) % choices.size()];
  }

 private:
  Rng rng_;
  std::vector<std::vector<size_t>> variants_;  // template -> pool indexes
  std::vector<size_t> offsets_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
  size_t round_ = 0;
};

/// One lookup-ingest operation.
struct IngestOp {
  bool append = false;
  int64_t lo = 0;  // lookups: key range [lo, hi)
  int64_t hi = 0;
};

/// Seeded lookup/append interleaving over a table of `rows` contiguous
/// keys [0, rows); appends extend the key space.
class IngestSequence {
 public:
  IngestSequence(int64_t hot_window, uint64_t seed, int64_t rows,
                 bool with_appends)
      : hot_window_(hot_window), rng_(seed), rows_(rows),
        with_appends_(with_appends) {}

  IngestOp Next() {
    IngestOp op;
    if (with_appends_ && step_++ == kLookupsPerAppend) {
      step_ = 0;
      op.append = true;
      op.lo = rows_;
      op.hi = rows_ + static_cast<int64_t>(kAppendRows);
      rows_ = op.hi;
      return op;
    }
    const int64_t width = std::min(kLookupWidth, rows_);
    const int64_t window = std::min(hot_window_, rows_);
    if (rng_.NextDouble() < kHotShare) {
      op.lo = rows_ - window + rng_.UniformInt(0, window - width);
    } else {
      op.lo = rng_.UniformInt(0, rows_ - width);
    }
    op.hi = op.lo + width;
    return op;
  }

  int64_t rows() const { return rows_; }

 private:
  int64_t hot_window_;
  Rng rng_;
  int64_t rows_;
  bool with_appends_;
  size_t step_ = 0;
};

std::string LookupSql(int64_t lo, int64_t hi) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "SELECT count(*) AS n, sum(lo_orderkey) AS k FROM lineorder "
                "WHERE lo_orderkey >= %lld AND lo_orderkey < %lld",
                static_cast<long long>(lo), static_cast<long long>(hi));
  return buf;
}

/// `rows` generated lineorder rows with keys [first_key, first_key + rows);
/// contents are a function of the seed and the first key.
DataChunk MakeLineorderRows(uint64_t seed, int64_t first_key, size_t rows,
                            double scale) {
  Rng rng(seed ^ (kRowSalt * static_cast<uint64_t>(first_key + 1)));
  const int64_t customers = std::max<int64_t>(30, std::llround(30000 * scale));
  const int64_t suppliers = std::max<int64_t>(20, std::llround(2000 * scale));
  const int64_t parts = std::max<int64_t>(50, std::llround(20000 * scale));
  DataChunk c({LogicalType::kInt64, LogicalType::kInt64, LogicalType::kInt64,
               LogicalType::kInt64, LogicalType::kInt64, LogicalType::kInt64,
               LogicalType::kInt64, LogicalType::kDouble,
               LogicalType::kDouble, LogicalType::kVarchar});
  for (size_t i = 0; i < c.num_columns(); ++i) c.column(i).Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t discount = rng.UniformInt(0, 10);
    const double price = 100.0 + rng.NextDouble() * 9900.0;
    c.column(0).AppendInt(first_key + static_cast<int64_t>(i));
    c.column(1).AppendInt(rng.UniformInt(0, customers - 1));
    c.column(2).AppendInt(rng.UniformInt(0, suppliers - 1));
    c.column(3).AppendInt(rng.UniformInt(0, parts - 1));
    c.column(4).AppendInt(rng.UniformInt(0, 2555));
    c.column(5).AppendInt(rng.UniformInt(1, 50));
    c.column(6).AppendInt(discount);
    c.column(7).AppendDouble(price);
    c.column(8).AppendDouble(price * (100.0 - discount) / 100.0);
    c.column(9).AppendString(kShipmodes[rng.UniformInt(0, 4)]);
  }
  return c;
}

bool IsInt(const DataChunk& rows, size_t column) {
  return rows.column(column).physical_type() == costdb::PhysicalType::kInt64 &&
         !rows.column(column).IsNull(0);
}

const std::string& Tenant() {
  static const std::string tenant = SessionOptions().tenant_id;
  return tenant;
}

/// Execute + calibrate + settle, as Session::RunSync does, with a span
/// around each layer call. `execute_s` receives the execute time.
Result<ExecutionResult> ExecuteAndSettle(
    Database* db, std::shared_ptr<const PlannedQuery> plan, bool cache_hit,
    const std::string& result_key, SpanRecorder* tracer, uint64_t query_id,
    double* execute_s) {
  const costdb::Dollars reserved = plan->estimate.cost;
  const double start = NowSeconds();
  auto executed = [&] {
    ScopedSpan span(tracer, "ExecutePlannedCached", query_id);
    return db->ExecutePlannedCached(std::move(plan), cache_hit, result_key,
                                    /*sink=*/nullptr, /*engine=*/nullptr,
                                    Tenant());
  }();
  *execute_s = NowSeconds() - start;
  if (!executed.ok()) return executed.status();
  db->CalibrateExecution(&*executed);
  ScopedSpan span(tracer, "SettleTenantBill", query_id);
  db->SettleTenantBill(Tenant(), &*executed, reserved);
  return executed;
}

/// A prepared statement as Session::Execute runs it, one layer call at a
/// time: plan-cache lookup, parameter binding, execute, settle.
Result<ExecutionResult> RunPreparedLayered(
    Database* db, const BoundQuery& bound, const std::string& shape,
    const UserConstraint& constraint, const std::vector<Value>& params,
    SpanRecorder* tracer, uint64_t query_id, double* execute_s) {
  bool hit = false;
  std::shared_ptr<const PlannedQuery> plan;
  {
    ScopedSpan span(tracer, "PlanCachedBound", query_id);
    COSTDB_ASSIGN_OR_RETURN(
        plan, db->PlanCachedBound(bound, shape, constraint, &hit));
  }
  if (!params.empty()) {
    ScopedSpan span(tracer, "BindPreparedPlan", query_id);
    PlannedQuery bound_plan;
    COSTDB_ASSIGN_OR_RETURN(bound_plan,
                            db->BindPreparedPlan(*plan, bound, params));
    plan = std::make_shared<const PlannedQuery>(std::move(bound_plan));
  }
  return ExecuteAndSettle(db, std::move(plan), hit,
                          Database::ResultKey(shape, constraint, params),
                          tracer, query_id, execute_s);
}

/// One-shot SQL as Session::ExecuteSql runs it: bind + shape, plan-cache
/// lookup, execute, settle.
Result<ExecutionResult> RunLiteralLayered(Database* db, const std::string& sql,
                                          const UserConstraint& constraint,
                                          SpanRecorder* tracer,
                                          uint64_t query_id,
                                          double* execute_s) {
  BoundQuery bound;
  std::string shape;
  {
    ScopedSpan span(tracer, "BindSql", query_id);
    COSTDB_ASSIGN_OR_RETURN(bound, db->BindSql(sql));
    shape = costdb::NormalizeStatementShape(sql);
  }
  bool hit = false;
  std::shared_ptr<const PlannedQuery> plan;
  {
    ScopedSpan span(tracer, "PlanCachedBound", query_id);
    COSTDB_ASSIGN_OR_RETURN(
        plan, db->PlanCachedBound(bound, shape, constraint, &hit));
  }
  return ExecuteAndSettle(db, std::move(plan), hit,
                          Database::ResultKey(shape, constraint, {}), tracer,
                          query_id, execute_s);
}

/// Billing and counter positions at a pass boundary.
struct Snapshot {
  Database::CacheStats plan_cache;
  int64_t gets = 0;
  int64_t puts = 0;
  int64_t flushes = 0;
  int64_t compactions = 0;
  double tenant_dollars = 0.0;
  double tenant_get_dollars = 0.0;
  double storage_dollars = 0.0;
  double egress_dollars = 0.0;
};

Snapshot TakeSnapshot(Database* db, const Table* persisted) {
  Snapshot s;
  s.plan_cache = db->plan_cache_stats();
  if (db->storage_store() != nullptr) {
    s.gets = db->storage_store()->get_requests();
    s.puts = db->storage_store()->put_requests();
  }
  if (persisted != nullptr && persisted->persistent()) {
    const auto summary = persisted->storage()->Summary();
    s.flushes = static_cast<int64_t>(summary.flushes);
    s.compactions = static_cast<int64_t>(summary.compactions);
  }
  const auto bills = db->tenant_billing();
  auto it = bills.find(Tenant());
  if (it != bills.end()) {
    s.tenant_dollars = it->second.dollars;
    s.tenant_get_dollars = it->second.storage_get_dollars;
  }
  s.storage_dollars = db->SettleStorageRequests().dollars;
  s.egress_dollars = db->egress_billing().dollars;
  return s;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  for (WorkloadKind k : {WorkloadKind::kSsbLocal, WorkloadKind::kSsbSharded,
                         WorkloadKind::kLookupIngest}) {
    if (name == WorkloadName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSsbLocal:
      return "ssb-local";
    case WorkloadKind::kSsbSharded:
      return "ssb-sharded";
    case WorkloadKind::kLookupIngest:
      return "lookup-ingest";
  }
  return "?";
}

bool PassCounts::operator==(const PassCounts& o) const {
  return plan_cache_hits == o.plan_cache_hits &&
         plan_cache_lookups == o.plan_cache_lookups &&
         plan_cache_entries == o.plan_cache_entries &&
         states_explored == o.states_explored &&
         fused_morsels == o.fused_morsels &&
         fallback_morsels == o.fallback_morsels &&
         source_rows == o.source_rows && rows_moved == o.rows_moved &&
         bytes_moved == o.bytes_moved && block_hits == o.block_hits &&
         block_misses == o.block_misses &&
         block_evictions == o.block_evictions &&
         queries_with_miss == o.queries_with_miss && gets == o.gets &&
         puts == o.puts && flushes == o.flushes &&
         compactions == o.compactions;
}

const std::vector<SsbTemplate>& SsbTemplates() {
  static const std::vector<SsbTemplate> templates = {
      {"Q1",
       "SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder "
       "WHERE lo_discount BETWEEN ? AND ? AND lo_quantity < ?",
       {Int(1), Int(3), Int(25)}},
      {"Q2",
       "SELECT lo_shipmode, count(*) AS n, sum(lo_revenue) AS rev "
       "FROM lineorder GROUP BY lo_shipmode ORDER BY rev DESC",
       {}},
      {"Q3",
       "SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, dates "
       "WHERE lo_datekey = d_datekey AND d_year = ? GROUP BY d_year",
       {Int(1994)}},
      {"Q4",
       "SELECT p_category, sum(lo_revenue) AS rev FROM lineorder, part "
       "WHERE lo_partkey = p_partkey GROUP BY p_category ORDER BY rev DESC",
       {}},
      {"Q5",
       "SELECT s_nation, d_year, sum(lo_revenue) AS rev "
       "FROM lineorder, supplier, dates "
       "WHERE lo_suppkey = s_suppkey AND lo_datekey = d_datekey "
       "AND s_region = ? GROUP BY s_nation, d_year",
       {Str("ASIA")}},
      {"Q6",
       "SELECT c_nation, s_nation, sum(lo_revenue) AS rev "
       "FROM lineorder, customer, supplier "
       "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
       "AND c_region = ? AND s_region = ? "
       "GROUP BY c_nation, s_nation",
       {Str("AMERICA"), Str("ASIA")}},
      {"Q7",
       "SELECT d_year, p_brand, sum(lo_revenue) AS rev "
       "FROM lineorder, dates, part, supplier "
       "WHERE lo_datekey = d_datekey AND lo_partkey = p_partkey "
       "AND lo_suppkey = s_suppkey AND p_category = ? "
       "AND s_region = ? GROUP BY d_year, p_brand ORDER BY d_year",
       {Str("MFGR#12"), Str("AMERICA")}},
      {"Q8",
       "SELECT c_region, s_region, d_year, sum(lo_revenue) AS rev "
       "FROM lineorder, customer, supplier, dates, part "
       "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
       "AND lo_datekey = d_datekey AND lo_partkey = p_partkey "
       "AND p_color = ? GROUP BY c_region, s_region, d_year",
       {Str("red")}},
      {"Q9",
       "SELECT count(*) AS n, sum(lo_revenue) AS rev FROM lineorder "
       "WHERE lo_orderkey < ?",
       {Int(1000)}},
      {"Q10",
       "SELECT lo_orderkey, lo_revenue FROM lineorder "
       "WHERE lo_quantity > ? ORDER BY lo_revenue DESC LIMIT 10",
       {Int(45)}},
      {"Q11",
       "SELECT d_year, sum(lo_revenue) AS order_rev, sum(sh_revenue) AS "
       "ship_rev FROM lineorder, shipments, dates, supplier "
       "WHERE lo_orderkey = sh_orderkey AND lo_datekey = d_datekey "
       "AND sh_suppkey = s_suppkey AND s_region = ? "
       "AND d_year >= ? GROUP BY d_year",
       {Str("ASIA"), Int(1994)}},
      {"Q12",
       "SELECT s_region, count(*) AS n FROM shipments, supplier "
       "WHERE sh_suppkey = s_suppkey AND sh_quantity < ? "
       "GROUP BY s_region ORDER BY n DESC",
       {Int(10)}},
  };
  return templates;
}

std::string RenderSql(const std::string& sql,
                      const std::vector<Value>& params) {
  std::string out;
  size_t next = 0;
  for (char c : sql) {
    if (c != '?' || next >= params.size()) {
      out += c;
      continue;
    }
    const Value& v = params[next++];
    if (v.is_string()) {
      out += '\'';
      for (char s : v.AsString()) {
        out += s;
        if (s == '\'') out += '\'';
      }
      out += '\'';
    } else {
      out += v.ToString();
    }
  }
  return out;
}

// --------------------------------------------------------------- instance

struct Instance::Impl {
  struct Statement {
    PreparedStatementPtr prepared;
    BoundQuery bound;  // for the traced path, which calls the layers itself
    std::string shape;
  };
  /// One statement instance: a template with one parameter vector.
  struct PoolEntry {
    size_t statement = 0;
    std::vector<Value> params;
    std::string sql;  // literal form, for the reference
  };
  struct Reference {
    ResultDigest digest;
    DataChunk rows;
  };

  UserConstraint constraint;
  std::unique_ptr<Session> session;
  std::vector<Statement> statements;
  std::vector<PoolEntry> pool;
  std::vector<Reference> reference;
  std::unique_ptr<SsbSequence> sequence;
  std::vector<std::vector<size_t>> variants;

  std::shared_ptr<Table> lineorder;
  std::unique_ptr<IngestSequence> ingest;
  uint64_t next_query_id = 0;
};

Instance::Instance(const WorkloadConfig& config)
    : config_(config), impl_(std::make_unique<Impl>()) {}

Instance::~Instance() = default;

Result<std::unique_ptr<Instance>> Instance::Create(
    const WorkloadConfig& config, SpeedReference* speed) {
  auto sample = [speed] {
    if (speed != nullptr) speed->MaybeSample();
  };
  sample();
  std::unique_ptr<Instance> inst(new Instance(config));
  Impl& im = *inst->impl_;
  const bool sharded = config.kind == WorkloadKind::kSsbSharded;
  const bool ingest = config.kind == WorkloadKind::kLookupIngest;

  DatabaseOptions opts;
  // Plan choice depends only on the inputs: no feedback during timing.
  opts.enable_calibration = false;
  opts.exec_threads = config.query_threads();
  opts.sharded_threads_per_worker = 1;
  // Bill the machine-seconds each run held, local runs included.
  const double price =
      costdb::PricingCatalog::Default().default_node().price_per_second();
  opts.pricing.compute_second_tiers = {
      costdb::PriceTier{std::numeric_limits<double>::infinity(), price}};
  if (ingest) {
    opts.enable_persistent_storage = true;
    opts.block_cache_bytes = config.block_cache_bytes();
    opts.storage_spill_dir = config.spill_dir;
    opts.storage.memtable_flush_rows = config.memtable_flush_rows();
  }
  inst->db_ = std::make_unique<Database>(opts);
  Database* db = inst->db_.get();
  if (db->node_type().price_per_second() != price) {
    return Status::Internal("node price differs from the default catalog's");
  }

  costdb::SsbOptions ssb;
  ssb.scale = config.scale;
  ssb.seed = config.seed;
  ssb.row_group_size = config.row_group_size();
  costdb::LoadSsb(db->meta(), ssb);
  sample();

  im.constraint = UserConstraint().WithWorkers(
      sharded ? static_cast<int>(config.query_threads()) : 1);
  SessionOptions session_opts;
  session_opts.default_constraint = im.constraint;
  im.session = std::make_unique<Session>(db, session_opts);

  if (ingest) {
    COSTDB_ASSIGN_OR_RETURN(im.lineorder, db->meta()->GetTable("lineorder"));
    COSTDB_RETURN_NOT_OK(db->PersistTable("lineorder"));
    const auto persisted = im.lineorder->storage()->Summary();
    inst->initial_bytes_per_row_ =
        persisted.rows > 0 ? persisted.bytes / static_cast<double>(persisted.rows)
                           : 0.0;
    // The loaded rows become the base level; then level 0 is left one run
    // short of compaction and the memtable a few timed appends short of
    // the flush that triggers it.
    bool merged = false;
    COSTDB_ASSIGN_OR_RETURN(merged,
                            db->CompactTable("lineorder", /*force=*/true));
    const size_t level0_runs = merged ? 0 : persisted.runs;
    const size_t fanout = db->options().storage.level_fanout;
    const size_t flush = config.memtable_flush_rows();
    const size_t tail = kAppendsBeforeCompaction * kAppendRows;
    size_t fill = 0;
    if (level0_runs + 1 < fanout) fill += (fanout - 1 - level0_runs) * flush;
    if (tail < flush) fill += flush - tail;
    int64_t next_key = static_cast<int64_t>(im.lineorder->num_rows());
    size_t in_memtable = 0;
    while (fill > 0) {
      const size_t batch = std::min({fill, flush - in_memtable,
                                     config.row_group_size()});
      im.lineorder->Append(
          MakeLineorderRows(config.seed, next_key, batch, config.scale));
      next_key += static_cast<int64_t>(batch);
      fill -= batch;
      sample();
      in_memtable = (in_memtable + batch) % flush;
    }
    COSTDB_RETURN_NOT_OK(im.lineorder->last_storage_error());
    // Warm the block cache (and the engine) with lookups only.
    IngestSequence warmup(config.hot_window(), config.seed ^ kWarmupSalt,
                          next_key, /*with_appends=*/false);
    for (size_t i = 0; i < config.warmup_lookups(); ++i) {
      const IngestOp op = warmup.Next();
      COSTDB_RETURN_NOT_OK(
          im.session->ExecuteSql(LookupSql(op.lo, op.hi)).status());
      sample();
    }
    im.ingest = std::make_unique<IngestSequence>(
        config.hot_window(), config.seed, next_key, /*with_appends=*/true);
    return inst;
  }

  // SSB: prepare every template, draw the seeded parameter pool.
  const auto& templates = SsbTemplates();
  Rng pool_rng(config.seed ^ kPoolSalt);
  const size_t offsets[3] = {
      static_cast<size_t>(pool_rng.UniformInt(0, 4)),
      static_cast<size_t>(pool_rng.UniformInt(0, 4)),
      static_cast<size_t>(pool_rng.UniformInt(0, 7))};
  im.variants.resize(templates.size());
  for (size_t t = 0; t < templates.size(); ++t) {
    Impl::Statement st;
    COSTDB_ASSIGN_OR_RETURN(st.prepared, im.session->Prepare(templates[t].sql));
    COSTDB_ASSIGN_OR_RETURN(st.bound, db->BindSql(templates[t].sql));
    st.shape = costdb::NormalizeStatementShape(templates[t].sql);
    im.statements.push_back(std::move(st));
    const size_t n =
        templates[t].defaults.empty() ? 1 : kVariantsPerTemplate;
    for (size_t v = 0; v < n; ++v) {
      Impl::PoolEntry e;
      e.statement = t;
      e.params = DrawParams(t, Stratum{&pool_rng, v, n}, offsets);
      e.sql = RenderSql(templates[t].sql, e.params);
      im.variants[t].push_back(im.pool.size());
      im.pool.push_back(std::move(e));
    }
  }
  SsbSequence warmup(config.seed ^ kWarmupSalt, im.variants);
  for (size_t i = 0; i < config.warmup_rounds() * templates.size(); ++i) {
    const Impl::PoolEntry& e = im.pool[warmup.Next()];
    COSTDB_RETURN_NOT_OK(
        im.session->Execute(im.statements[e.statement].prepared, e.params)
            .status());
    sample();
  }
  im.sequence = std::make_unique<SsbSequence>(config.seed, im.variants);
  return inst;
}

Status Instance::BuildReference() {
  Impl& im = *impl_;
  im.reference.clear();
  if (im.pool.empty()) return Status::OK();
  // Literal SQL on the local engine: a different planning path from the
  // prepared statements, and for ssb-sharded a different engine.
  SessionOptions opts;
  opts.default_constraint = UserConstraint().WithWorkers(1);
  Session local(db_.get(), opts);
  for (const Impl::PoolEntry& e : im.pool) {
    auto executed = local.ExecuteSql(e.sql);
    if (!executed.ok()) return executed.status();
    Impl::Reference ref;
    ref.digest = DigestOf(executed->result.chunk);
    ref.rows = std::move(executed->result.chunk);
    im.reference.push_back(std::move(ref));
  }
  return Status::OK();
}

Result<PassReport> Instance::Run(const PassLimits& limits,
                                 SpanRecorder* tracer, SpeedReference* speed) {
  Impl& im = *impl_;
  Database* db = db_.get();
  const bool ingest = config_.kind == WorkloadKind::kLookupIngest;
  if (!ingest && im.reference.size() != im.pool.size()) {
    return Status::InvalidArgument("BuildReference must run before a pass");
  }
  PassReport r;
  const Snapshot before = TakeSnapshot(db, im.lineorder.get());

  // Fold one query's execution into the report.
  auto account = [&](const ExecutionResult& e) {
    r.counts.states_explored += e.plan->states_explored;
    r.counts.fused_morsels += static_cast<int64_t>(
        e.fused.fused_filter_morsels + e.fused.fused_probe_morsels +
        e.fused.fused_agg_morsels);
    r.counts.fallback_morsels += static_cast<int64_t>(e.fused.fallback_morsels);
    for (const auto& t : e.timings) {
      r.counts.source_rows += static_cast<int64_t>(t.source_rows);
    }
    r.counts.rows_moved += static_cast<int64_t>(e.exchange.rows_moved());
    r.counts.bytes_moved += static_cast<int64_t>(e.exchange.bytes_moved());
    r.counts.block_hits += e.storage.hits;
    r.counts.block_misses += e.storage.misses;
    r.counts.block_evictions += e.storage.evictions;
    if (e.storage.misses > 0) ++r.counts.queries_with_miss;
    r.fused_seconds += e.fused.fused_seconds;
    r.exchange_seconds += e.exchange.seconds();
    r.worker_seconds += e.usage.worker_seconds;
    r.spinup_seconds += e.usage.spinup_seconds;
    r.miss_seconds += e.storage.miss_seconds;
    r.estimated_s.push_back(e.plan->estimate.latency);
  };
  auto note_failure = [&](const Status& s) {
    if (r.failed++ < 3) {
      std::fprintf(stderr, "operation %zu failed: %s\n", r.ops,
                   s.ToString().c_str());
    }
  };

  // Timed SSB passes end on a whole round, so every template runs equally
  // often.
  const size_t granule = ingest ? 1 : im.variants.size();
  const double start = NowSeconds();
  while (limits.ops > 0 ? r.ops < limits.ops
                        : (NowSeconds() - start < limits.seconds ||
                           r.queries < limits.min_queries ||
                           r.ops % granule != 0)) {
    if (speed != nullptr) speed->MaybeSample();
    ++r.ops;
    const uint64_t qid = ++im.next_query_id;
    double execute_s = 0.0;

    if (ingest) {
      const IngestOp op = im.ingest->Next();
      if (op.append) {
        const DataChunk rows = MakeLineorderRows(
            config_.seed, op.lo, static_cast<size_t>(op.hi - op.lo),
            config_.scale);
        const double t0 = NowSeconds();
        {
          ScopedSpan root(tracer, "append", qid);
          ScopedSpan span(tracer, "Table::Append", qid);
          im.lineorder->Append(rows);
        }
        r.append_ms.push_back((NowSeconds() - t0) * 1e3);
        ++r.appends;
        r.appended_rows += rows.num_rows();
        if (!im.lineorder->last_storage_error().ok()) {
          note_failure(im.lineorder->last_storage_error());
        }
        continue;
      }
      const std::string sql = LookupSql(op.lo, op.hi);
      r.sequence.push_back(Fnv(sql));
      const double t0 = NowSeconds();
      auto executed = [&]() -> Result<ExecutionResult> {
        if (tracer == nullptr) return im.session->ExecuteSql(sql);
        ScopedSpan root(tracer, "query", qid);
        return RunLiteralLayered(db, sql, im.constraint, tracer, qid,
                                 &execute_s);
      }();
      const double latency = NowSeconds() - t0;
      ++r.queries;
      if (!executed.ok()) {
        note_failure(executed.status());
        continue;
      }
      r.query_ms.push_back(latency * 1e3);
      r.measured_s.push_back(tracer != nullptr ? execute_s : latency);
      account(*executed);
      // The keys are contiguous, so the answer is known: the range's size
      // and the sum of its keys.
      const DataChunk& rows = executed->result.chunk;
      const int64_t n = op.hi - op.lo;
      const bool right = rows.num_rows() == 1 && rows.num_columns() == 2 &&
                         IsInt(rows, 0) && IsInt(rows, 1) &&
                         rows.column(0).GetInt(0) == n &&
                         rows.column(1).GetInt(0) == (op.lo + op.hi - 1) * n / 2;
      if (!right) ++r.wrong;
      continue;
    }

    const size_t index = im.sequence->Next();
    const Impl::PoolEntry& e = im.pool[index];
    const Impl::Statement& st = im.statements[e.statement];
    r.sequence.push_back(Fnv(e.sql));
    const double t0 = NowSeconds();
    auto executed = [&]() -> Result<ExecutionResult> {
      if (tracer == nullptr) return im.session->Execute(st.prepared, e.params);
      ScopedSpan root(tracer, "query", qid);
      return RunPreparedLayered(db, st.bound, st.shape, im.constraint,
                                e.params, tracer, qid, &execute_s);
    }();
    const double latency = NowSeconds() - t0;
    ++r.queries;
    if (!executed.ok()) {
      note_failure(executed.status());
      continue;
    }
    r.query_ms.push_back(latency * 1e3);
    r.measured_s.push_back(tracer != nullptr ? execute_s : latency);
    account(*executed);
    const Impl::Reference& ref = im.reference[index];
    const DataChunk& rows = executed->result.chunk;
    if (DigestOf(rows) != ref.digest && !SameRows(rows, ref.rows)) ++r.wrong;
  }
  r.wall_seconds = NowSeconds() - start;

  const Snapshot after = TakeSnapshot(db, im.lineorder.get());
  r.counts.plan_cache_hits =
      static_cast<int64_t>(after.plan_cache.hits - before.plan_cache.hits);
  r.counts.plan_cache_lookups = static_cast<int64_t>(
      after.plan_cache.hits + after.plan_cache.misses -
      before.plan_cache.hits - before.plan_cache.misses);
  r.counts.plan_cache_entries = static_cast<int64_t>(after.plan_cache.entries);
  r.counts.gets = after.gets - before.gets;
  r.counts.puts = after.puts - before.puts;
  r.counts.flushes = after.flushes - before.flushes;
  r.counts.compactions = after.compactions - before.compactions;
  // The tenant bill carries compute plus the GET fees of its misses; the
  // store's request counters carry every GET and PUT exactly once.
  r.compute_usd = (after.tenant_dollars - before.tenant_dollars) -
                  (after.tenant_get_dollars - before.tenant_get_dollars);
  r.storage_usd = after.storage_dollars - before.storage_dollars;
  r.egress_usd = after.egress_dollars - before.egress_dollars;
  if (im.lineorder != nullptr && im.lineorder->persistent()) {
    r.stored_bytes = db->storage_store()->total_bytes();
    r.stored_rows =
        static_cast<double>(im.lineorder->storage()->Summary().rows);
  }
  return r;
}

Result<double> Instance::CalibratedQError(size_t rounds) {
  Impl& im = *impl_;
  DatabaseOptions opts = db_->options();
  opts.enable_calibration = true;
  opts.enable_persistent_storage = false;  // tables keep their own tier
  Database cal(opts);
  *cal.meta() = *db_->meta();  // same tables and statistics, shared rows
  const bool ingest = config_.kind == WorkloadKind::kLookupIngest;
  const size_t per_round =
      ingest ? config_.warmup_lookups() / 4 : SsbTemplates().size();

  std::vector<Impl::Statement> statements;
  for (const auto& t : SsbTemplates()) {
    if (ingest) break;
    Impl::Statement st;
    COSTDB_ASSIGN_OR_RETURN(st.bound, cal.BindSql(t.sql));
    st.shape = costdb::NormalizeStatementShape(t.sql);
    statements.push_back(std::move(st));
  }
  SsbSequence ssb(config_.seed ^ kCalibrationSalt, im.variants);
  const int64_t rows =
      im.ingest != nullptr ? im.ingest->rows() : int64_t{0};
  IngestSequence lookups(config_.hot_window(),
                         config_.seed ^ kCalibrationSalt, rows,
                         /*with_appends=*/false);

  std::vector<double> estimated, measured;
  for (size_t round = 0; round <= rounds; ++round) {
    for (size_t i = 0; i < per_round; ++i) {
      double execute_s = 0.0;
      Result<ExecutionResult> executed = Status::Internal("not run");
      if (ingest) {
        const IngestOp op = lookups.Next();
        executed = RunLiteralLayered(&cal, LookupSql(op.lo, op.hi),
                                     im.constraint, nullptr, 0, &execute_s);
      } else {
        const Impl::PoolEntry& e = im.pool[ssb.Next()];
        const Impl::Statement& st = statements[e.statement];
        executed = RunPreparedLayered(&cal, st.bound, st.shape, im.constraint,
                                      e.params, nullptr, 0, &execute_s);
      }
      if (!executed.ok()) return executed.status();
      if (round == rounds) {  // the rounds before only feed calibration
        estimated.push_back(executed->plan->estimate.latency);
        measured.push_back(execute_s);
      }
    }
  }
  return GeoMeanQError(estimated, measured);
}

}  // namespace perfbench
