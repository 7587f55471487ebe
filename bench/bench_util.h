#pragma once

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "runtime/policies.h"
#include "service/session.h"
#include "workload/ssb.h"

namespace costdb {
namespace bench {

/// Shared setup for the experiment binaries: a Database facade hosting a
/// small in-process SSB instance whose *fact* tables are virtually scaled
/// to warehouse size (DESIGN.md §2 and §5 explain the device). The
/// estimator, distributed simulator, and optimizer pass pipeline all live
/// inside (and are calibrated by) the facade; the members below are
/// non-owning views for experiment code that probes individual layers.
struct BenchContext {
  std::unique_ptr<Database> db;
  /// The client surface over `db` — experiment code that plans/executes
  /// whole queries enters here (ROADMAP.md "Rule"); the raw members below
  /// are for probing individual layers.
  std::unique_ptr<Session> session;
  MetadataService& meta;
  const HardwareCalibration& hw;
  const InstanceType& node;
  CostEstimator* estimator;
  DistributedSimulator* simulator;

  explicit BenchContext(std::unique_ptr<Database> database)
      : db(std::move(database)),
        session(std::make_unique<Session>(db.get())),
        meta(*db->meta()),
        hw(*db->hardware()),
        node(db->node_type()),
        estimator(db->estimator()),
        simulator(db->simulator()) {}

  static BenchContext Make(double scale = 0.01,
                           double fact_virtual_scale = 2e5,
                           size_t row_group_size = 512) {
    DatabaseOptions db_opts;
    // Experiments compare estimates against simulated truth under a fixed
    // calibration; the feedback loop is exercised by the service tests.
    db_opts.enable_calibration = false;
    BenchContext ctx(std::make_unique<Database>(db_opts));
    SsbOptions opts;
    opts.scale = scale;
    opts.row_group_size = row_group_size;
    LoadSsb(&ctx.meta, opts);
    ctx.meta.SetVirtualScale("lineorder", fact_virtual_scale);
    ctx.meta.SetVirtualScale("shipments", fact_virtual_scale);
    // Dimensions grow more slowly than facts (SSB keeps dates fixed and
    // scales customer/supplier/part sublinearly); a 10x smaller factor
    // preserves realistic star-schema proportions.
    ctx.meta.SetVirtualScale("customer", fact_virtual_scale / 10.0);
    ctx.meta.SetVirtualScale("supplier", fact_virtual_scale / 10.0);
    ctx.meta.SetVirtualScale("part", fact_virtual_scale / 10.0);
    return ctx;
  }

  /// Prepare + re-derive truth (used after changing stats error factors).
  Result<PreparedQuery> Prepare(const std::string& sql,
                                const UserConstraint& c) {
    return db->Prepare(sql, c);
  }
};

/// Machine-readable bench output: a flat JSON object written next to the
/// human table, so CI can persist a `BENCH_<name>.json` snapshot per run
/// and trend the numbers over time. Two kinds of keys by convention:
///   gate_*  deterministic for a fixed --smoke configuration (row counts,
///           pruning fractions, pass bits) — CI's regression gate compares
///           these against the committed snapshot within a tolerance;
///   others  trajectory data (wall times, throughputs, speedups) — they
///           are machine- and load-dependent, so they are recorded for
///           trend analysis but never gated against a snapshot.
/// Insertion order is preserved; values are emitted one per line so the
/// CI comparator can stay a line-oriented awk script.
class BenchJson {
 public:
  void SetStr(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + value + "\"");
  }
  void Set(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    entries_.emplace_back(key, buf);
  }
  void SetInt(const std::string& key, long long value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void SetBool(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }

  std::string ToString() const {
    std::string out = "{\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out += "  \"" + entries_[i].first + "\": " + entries_[i].second;
      if (i + 1 < entries_.size()) out += ",";
      out += "\n";
    }
    out += "}\n";
    return out;
  }

  /// Returns false (with a message on stdout) when the file can't be
  /// written, so benches can fail loudly instead of silently skipping the
  /// snapshot CI expects.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write bench json to %s\n", path.c_str());
      return false;
    }
    const std::string body = ToString();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("bench json written to %s\n", path.c_str());
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Pull `--json <path>` out of argv (empty string when absent). Kept here
/// so every bench_util-based binary advertises the flag the same way — the
/// CI smoke loop greps for "--json" to decide whether to request a
/// snapshot.
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return std::string();
}

inline void PrintHeader(const std::string& id, const std::string& claim) {
  std::printf("==========================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("%s\n", claim.c_str());
  std::printf("==========================================================\n");
}

}  // namespace bench
}  // namespace costdb
