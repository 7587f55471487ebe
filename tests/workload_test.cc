#include <gtest/gtest.h>

#include "exec/engine.h"
#include "service/database.h"
#include "workload/ssb.h"
#include "workload/trace.h"

namespace costdb {
namespace {

TEST(SsbTest, TablesScaleWithFactor) {
  MetadataService small, big;
  SsbOptions s;
  s.scale = 0.01;
  LoadSsb(&small, s);
  s.scale = 0.02;
  LoadSsb(&big, s);
  auto rows = [](MetadataService& m, const char* t) {
    return m.GetTable(t).value()->num_rows();
  };
  EXPECT_NEAR(static_cast<double>(rows(big, "lineorder")) /
                  rows(small, "lineorder"),
              2.0, 0.05);
  EXPECT_EQ(rows(small, "dates"), 2556u);
  EXPECT_GT(rows(small, "customer"), 0u);
  // Stats exist for every table.
  for (const auto& name : small.TableNames()) {
    EXPECT_NE(small.GetStats(name), nullptr) << name;
  }
}

TEST(SsbTest, DeterministicAcrossRuns) {
  MetadataService a, b;
  SsbOptions opts;
  opts.scale = 0.005;
  LoadSsb(&a, opts);
  LoadSsb(&b, opts);
  auto ta = a.GetTable("lineorder").value();
  auto tb = b.GetTable("lineorder").value();
  ASSERT_EQ(ta->num_rows(), tb->num_rows());
  DataChunk ca = ta->Scan();
  DataChunk cb = tb->Scan();
  for (size_t i = 0; i < std::min<size_t>(100, ca.num_rows()); ++i) {
    EXPECT_EQ(ca.column(1).GetInt(i), cb.column(1).GetInt(i));
  }
}

TEST(SsbTest, SkewedForeignKeysConcentrate) {
  MetadataService meta;
  SsbOptions opts;
  opts.scale = 0.005;
  opts.fk_skew = 1.2;
  LoadSsb(&meta, opts);
  auto t = meta.GetTable("lineorder").value();
  DataChunk all = t->Scan();
  int64_t hits = 0;
  for (size_t i = 0; i < all.num_rows(); ++i) {
    if (all.column(1).GetInt(i) < 10) ++hits;  // custkey in top-10
  }
  // Zipf 1.2 concentrates far more than uniform (10/150 ~ 6.7%).
  EXPECT_GT(static_cast<double>(hits) / all.num_rows(), 0.2);
}

TEST(SsbTest, AllTwelveQueriesPlanAndExecute) {
  Database db;
  SsbOptions opts;
  opts.scale = 0.005;
  LoadSsb(db.meta(), opts);
  QueryService* planner = db.query_service();
  planner->RemovePass("bushy_rewrite");
  LocalEngine engine(4);
  for (const auto& q : SsbQueries()) {
    auto planned = planner->PlanSql(q.sql, UserConstraint());
    ASSERT_TRUE(planned.ok()) << q.id << ": " << planned.status().ToString();
    auto result = engine.Execute(planned->plan.get());
    ASSERT_TRUE(result.ok()) << q.id << ": " << result.status().ToString();
  }
}

TEST(SsbTest, Q1MatchesManualRecomputation) {
  Database db;
  SsbOptions opts;
  opts.scale = 0.005;
  LoadSsb(db.meta(), opts);
  // Manual scan of the base table.
  auto t = db.meta()->GetTable("lineorder").value();
  DataChunk all = t->Scan();
  size_t disc_idx = t->ColumnIndex("lo_discount").value();
  size_t qty_idx = t->ColumnIndex("lo_quantity").value();
  size_t price_idx = t->ColumnIndex("lo_extendedprice").value();
  double expected = 0.0;
  for (size_t i = 0; i < all.num_rows(); ++i) {
    int64_t d = all.column(disc_idx).GetInt(i);
    if (d >= 1 && d <= 3 && all.column(qty_idx).GetInt(i) < 25) {
      expected += all.column(price_idx).GetDouble(i) * d;
    }
  }
  QueryService* planner = db.query_service();
  planner->RemovePass("bushy_rewrite");
  LocalEngine engine(4);
  auto planned = planner->PlanSql(FindQuery("Q1").sql, UserConstraint());
  ASSERT_TRUE(planned.ok());
  auto result = engine.Execute(planned->plan.get());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->chunk.num_rows(), 1u);
  EXPECT_NEAR(result->chunk.column(0).GetDouble(0), expected,
              std::abs(expected) * 1e-9);
}

TEST(SsbTest, FindQueryLookup) {
  EXPECT_EQ(FindQuery("Q7").id, "Q7");
  EXPECT_TRUE(FindQuery("nope").sql.empty());
  EXPECT_EQ(SsbQueries().size(), 12u);
}

TEST(TraceTest, RateApproximatelyHonored) {
  TraceOptions opts;
  opts.duration = 2.0 * kSecondsPerDay;
  opts.queries_per_hour = 30.0;
  auto trace = GenerateTrace(opts);
  double expected = 30.0 * 48.0;
  EXPECT_NEAR(static_cast<double>(trace.size()), expected, expected * 0.2);
  // Sorted in time.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].at, trace[i - 1].at);
  }
}

TEST(TraceTest, WeightsShiftMixture) {
  TraceOptions opts;
  opts.duration = 5.0 * kSecondsPerDay;
  opts.queries_per_hour = 50.0;
  opts.template_weights = {{"Q1", 9.0}, {"Q2", 1.0}};
  auto counts = CountByTemplate(GenerateTrace(opts));
  EXPECT_GT(counts["Q1"], counts["Q2"] * 5);
  EXPECT_EQ(counts.count("Q3"), 0u);
}

TEST(TraceTest, AdhocFraction) {
  TraceOptions opts;
  opts.duration = 1.0 * kSecondsPerDay;
  opts.queries_per_hour = 100.0;
  opts.adhoc_fraction = 0.3;
  auto trace = GenerateTrace(opts);
  int64_t adhoc = 0;
  for (const auto& ev : trace) {
    if (ev.query_id.rfind("adhoc_", 0) == 0) ++adhoc;
  }
  EXPECT_NEAR(static_cast<double>(adhoc) / trace.size(), 0.3, 0.07);
}

TEST(TraceTest, Deterministic) {
  TraceOptions opts;
  opts.duration = kSecondsPerDay;
  auto a = GenerateTrace(opts);
  auto b = GenerateTrace(opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query_id, b[i].query_id);
    EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
  }
}

TEST(TraceTest, DiurnalPatternDetectable) {
  TraceOptions opts;
  opts.duration = 4.0 * kSecondsPerDay;
  opts.queries_per_hour = 200.0;
  opts.diurnal_amplitude = 0.9;
  auto trace = GenerateTrace(opts);
  // Bucket per 6h; peak vs trough must differ substantially.
  std::vector<double> buckets(16, 0.0);
  for (const auto& ev : trace) {
    buckets[static_cast<size_t>(ev.at / (6 * 3600.0))] += 1.0;
  }
  double mx = *std::max_element(buckets.begin(), buckets.end());
  double mn = *std::min_element(buckets.begin(), buckets.end());
  EXPECT_GT(mx, mn * 1.5);
}

}  // namespace
}  // namespace costdb
