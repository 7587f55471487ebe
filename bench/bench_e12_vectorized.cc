// E12 — vectorized execution microbench: the same selective SSB filter
// scan three ways over lineorder row groups, plus a mid-selectivity hot
// shape on the vectorized kernels.
//
//   scalar      row-at-a-time reference interpreter (boxed Values), every
//               row group touched — what the engine hot path looked like
//               before vectorization.
//   vectorized  selection-vector kernels over the flat column payloads,
//               every row group touched.
//   pruned      vectorized kernels behind zone-map morsel skipping — row
//               groups whose min/max cannot satisfy the predicate are
//               never read.
//
// All paths must select the same rows with bit-identical revenue sums
// (checked); the interesting outputs are the speedups and the fraction of
// morsels the zone maps skip. This bench probes the
// kernel layer directly (Expr + Evaluator + Table, the same surface the
// unit tests use); end-to-end SQL still enters through the Database facade
// as ROADMAP.md requires.
//
// --json <path> writes the numbers as a flat JSON snapshot (BenchJson);
// ci/build_and_test.sh persists one per run and gates the gate_* keys
// against the committed baseline.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "exec/evaluator.h"

using namespace costdb;
using namespace costdb::bench;

namespace {

double ElapsedSeconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct PhaseResult {
  double seconds = 0.0;
  int64_t rows_selected = 0;
  double revenue = 0.0;  // sum over selection, so the work can't be elided
  size_t morsels_touched = 0;
  size_t morsels_total = 0;
};

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.2;
  int iters = 5;
  bool smoke = false;  // smoke mode checks wiring + parity, not wall clock
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      scale = 0.02;
      // Enough repetitions for the per-iteration average to be a usable
      // timer at tiny scale (single-iteration times are ~tens of
      // microseconds on the pruned morsel set).
      iters = 20;
      smoke = true;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    }
  }
  const std::string json_path = JsonPathFromArgs(argc, argv);

  PrintHeader("E12: vectorized scan/filter kernels",
              "Selective SSB filter scan: scalar reference interpreter vs\n"
              "selection-vector kernels vs kernels + zone-map pruning.");

  MetadataService meta;
  SsbOptions opts;
  opts.scale = scale;
  opts.row_group_size = 4096;
  LoadSsb(&meta, opts);
  auto table = meta.GetTable("lineorder").value();
  const int64_t rows = static_cast<int64_t>(table->num_rows());

  // SSB Q1-flavored predicate. lo_orderkey is the insertion-ordered key,
  // so its zone maps are tight and the first conjunct prunes ~90% of the
  // row groups; the discount/quantity conjuncts do per-row work on the
  // survivors.
  const int64_t key_cutoff = rows / 10;
  auto col = [&](const char* name) {
    return Expr::MakeColumn(name, LogicalType::kInt64);
  };
  auto lit = [](int64_t v) {
    return Expr::MakeConstant(Value(v), LogicalType::kInt64);
  };
  ExprPtr predicate = Expr::MakeAnd({
      Expr::MakeCompare(CompareOp::kLt, col("lo_orderkey"), lit(key_cutoff)),
      Expr::MakeCompare(CompareOp::kGe, col("lo_discount"), lit(1)),
      Expr::MakeCompare(CompareOp::kLe, col("lo_discount"), lit(3)),
      Expr::MakeCompare(CompareOp::kLt, col("lo_quantity"), lit(25)),
  });
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(predicate, &conjuncts);

  std::vector<std::string> schema;
  for (const auto& c : table->columns()) schema.push_back(c.name);
  Evaluator ev(&schema);
  const size_t revenue_idx = *table->ColumnIndex("lo_revenue");

  // The hot shape, measured separately: the mid-selectivity residual
  // conjunction that survives after the zone maps have consumed the
  // clustering-key conjunct. Per-pass narrowing is at its worst here —
  // every vectorized pass keeps 30-90% of its input, so the survivor-append
  // branch mispredicts on a large fraction of rows and two intermediate
  // selection vectors materialize.
  ExprPtr hot_predicate = Expr::MakeAnd({
      Expr::MakeCompare(CompareOp::kGe, col("lo_discount"), lit(1)),
      Expr::MakeCompare(CompareOp::kLe, col("lo_discount"), lit(3)),
      Expr::MakeCompare(CompareOp::kLt, col("lo_quantity"), lit(25)),
  });

  auto sum_selected = [&](const ColumnVector& rev, const SelectionVector& sel,
                          PhaseResult* r) {
    for (uint32_t i : sel) r->revenue += rev.GetDouble(i);
    r->rows_selected += static_cast<int64_t>(sel.size());
  };

  // Modes: 0 scalar, 1 vectorized, 2 pruned vectorized.
  // Each phase is timed as the best of `reps` repetitions of the whole
  // iteration loop. The speedup is a kernel-vs-kernel *ratio* at
  // microsecond scale, where a scheduler hiccup during one phase skews the
  // ratio by 2-3x; the minimum is the run least disturbed by interference.
  const int reps = 3;
  auto run_phase = [&](int mode, const Expr& pred) {
    PhaseResult r;
    double best_seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) {
      r.rows_selected = 0;
      r.revenue = 0.0;
      r.morsels_touched = 0;
      r.morsels_total = 0;
      for (const auto& group : table->row_groups()) {
        ++r.morsels_total;
        if (mode == 2) {
          bool prunable = false;
          for (const auto& f : conjuncts) {
            std::string c;
            CompareOp op;
            Value constant;
            if (!MatchColumnCompareConstant(f, &c, &op, &constant)) continue;
            auto idx = table->ColumnIndex(c);
            if (!idx.ok()) continue;
            if (!group.zones[*idx].MayMatch(op, constant)) {
              prunable = true;
              break;
            }
          }
          if (prunable) continue;
        }
        ++r.morsels_touched;
        ChunkView view(group.data);
        auto sel = mode == 0 ? ev.EvaluateSelectionScalar(pred, view)
                             : ev.EvaluateSelection(pred, view);
        if (!sel.ok()) {
          std::printf("phase failed: %s\n", sel.status().ToString().c_str());
          std::exit(1);
        }
        sum_selected(group.data.column(revenue_idx), *sel, &r);
      }
    }
    const double s =
        ElapsedSeconds(t0, std::chrono::steady_clock::now()) / iters;
    if (rep == 0 || s < best_seconds) best_seconds = s;
    }
    r.seconds = best_seconds;
    return r;
  };

  PhaseResult scalar = run_phase(0, *predicate);
  PhaseResult vectorized = run_phase(1, *predicate);
  PhaseResult pruned = run_phase(2, *predicate);
  PhaseResult hot_vec = run_phase(1, *hot_predicate);

  if (scalar.rows_selected != vectorized.rows_selected ||
      scalar.rows_selected != pruned.rows_selected) {
    std::printf("FAIL: paths disagree (scalar %lld, vectorized %lld, "
                "pruned %lld)\n",
                static_cast<long long>(scalar.rows_selected),
                static_cast<long long>(vectorized.rows_selected),
                static_cast<long long>(pruned.rows_selected));
    return 1;
  }
  // Bit-identical, not approximately equal: every path visits survivors in
  // ascending row order within the same group order (pruned groups
  // contribute nothing), so the revenue folds add the same doubles in the
  // same sequence.
  if (scalar.revenue != vectorized.revenue ||
      scalar.revenue != pruned.revenue) {
    std::printf("FAIL: revenue sums are not bit-identical "
                "(scalar %.17g, vectorized %.17g, pruned %.17g)\n",
                scalar.revenue, vectorized.revenue, pruned.revenue);
    return 1;
  }

  const double pruned_frac =
      1.0 - static_cast<double>(pruned.morsels_touched) /
                static_cast<double>(pruned.morsels_total);
  std::printf("\nlineorder: %lld rows, %zu row groups of %zu; predicate "
              "selects %lld rows (%.2f%%)\n",
              static_cast<long long>(rows), pruned.morsels_total,
              table->row_group_size(),
              static_cast<long long>(scalar.rows_selected),
              100.0 * static_cast<double>(scalar.rows_selected) /
                  static_cast<double>(rows));

  TablePrinter t({"path", "time/iter", "Mrows/s", "speedup", "morsels"});
  auto row = [&](const char* name, const PhaseResult& r) {
    char time_s[32], rate_s[32], speed_s[32], morsels_s[32];
    std::snprintf(time_s, sizeof(time_s), "%.4fs", r.seconds);
    std::snprintf(rate_s, sizeof(rate_s), "%.1f",
                  static_cast<double>(rows) / r.seconds / 1e6);
    std::snprintf(speed_s, sizeof(speed_s), "%.1fx",
                  scalar.seconds / r.seconds);
    std::snprintf(morsels_s, sizeof(morsels_s), "%zu/%zu", r.morsels_touched,
                  r.morsels_total);
    t.AddRow({name, time_s, rate_s, speed_s, morsels_s});
  };
  row("scalar (row-at-a-time)", scalar);
  row("vectorized", vectorized);
  row("vectorized + zone maps", pruned);
  row("hot shape: vectorized", hot_vec);
  std::printf("%s", t.ToString().c_str());
  std::printf("zone maps pruned %.0f%% of morsels; hot shape selects %lld "
              "rows (%.1f%%) on every morsel\n",
              100.0 * pruned_frac,
              static_cast<long long>(hot_vec.rows_selected),
              100.0 * static_cast<double>(hot_vec.rows_selected) /
                  static_cast<double>(rows));

  const double speedup = scalar.seconds / pruned.seconds;
  // A single tiny-scale run on a loaded CI box is not a reliable absolute
  // timer, so smoke mode does not gate the scalar-path speedup — but
  // parity (above) and pruning always gate.
  const bool ok = (smoke || speedup >= 3.0) && pruned_frac >= 0.5;
  std::printf("%s: vectorized+pruned is %.1fx the scalar path "
              "(target >= 3x%s), pruning %.0f%% of morsels (target >= 50%%)\n",
              ok ? "PASS" : "FAIL", speedup,
              smoke ? ", not gated in smoke mode" : "", 100.0 * pruned_frac);

  if (!json_path.empty()) {
    BenchJson j;
    j.SetStr("bench", "bench_e12_vectorized");
    j.Set("scale", scale);
    j.SetInt("iters", iters);
    j.SetBool("smoke", smoke);
    j.SetInt("rows", static_cast<long long>(rows));
    j.SetInt("row_groups", static_cast<long long>(pruned.morsels_total));
    // gate_* keys are deterministic for a fixed --smoke configuration;
    // CI's regression gate compares them against the committed snapshot.
    j.SetInt("gate_rows_selected",
             static_cast<long long>(scalar.rows_selected));
    j.SetInt("gate_hot_rows_selected",
             static_cast<long long>(hot_vec.rows_selected));
    j.Set("gate_pruned_frac", pruned_frac);
    j.SetInt("gate_pass", ok ? 1 : 0);
    // Trajectory-only metrics: machine-dependent, persisted but ungated.
    j.Set("scalar_seconds", scalar.seconds);
    j.Set("vectorized_seconds", vectorized.seconds);
    j.Set("pruned_seconds", pruned.seconds);
    j.Set("hot_vectorized_seconds", hot_vec.seconds);
    j.Set("pruned_speedup_vs_scalar", speedup);
    if (!j.WriteFile(json_path)) return 1;
  }
  return ok ? 0 : 1;
}
