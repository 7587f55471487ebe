// Property-style sweeps over randomized inputs: invariants that must hold
// for any data, not just the fixtures used elsewhere.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/engine.h"
#include "service/database.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

// ---------------------------------------------------------------------
// Zone maps never prune a row group that contains a matching row.
// ---------------------------------------------------------------------
class ZoneMapProperty : public ::testing::TestWithParam<int> {};

TEST_P(ZoneMapProperty, PruningIsSafe) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  ColumnVector col(LogicalType::kInt64);
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    col.AppendInt(rng.UniformInt(-50, 50));
  }
  ZoneMapEntry zone = ZoneMapEntry::Build(col);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (int64_t c = -60; c <= 60; c += 7) {
      bool any_match = false;
      for (size_t i = 0; i < col.size(); ++i) {
        int64_t v = col.GetInt(i);
        bool m = false;
        switch (op) {
          case CompareOp::kEq: m = v == c; break;
          case CompareOp::kNe: m = v != c; break;
          case CompareOp::kLt: m = v < c; break;
          case CompareOp::kLe: m = v <= c; break;
          case CompareOp::kGt: m = v > c; break;
          case CompareOp::kGe: m = v >= c; break;
        }
        if (m) {
          any_match = true;
          break;
        }
      }
      if (any_match) {
        EXPECT_TRUE(zone.MayMatch(op, Value(c)))
            << CompareOpName(op) << " " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneMapProperty, ::testing::Range(1, 8));

// ---------------------------------------------------------------------
// Histogram selectivity tracks the true fraction on random data.
// ---------------------------------------------------------------------
class HistogramProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistogramProperty, SelectivityWithinTolerance) {
  Rng rng(100 + static_cast<uint64_t>(GetParam()));
  std::vector<double> values;
  for (int i = 0; i < 8000; ++i) values.push_back(rng.Normal(0.0, 25.0));
  auto h = EquiDepthHistogram::Build(values, 64);
  for (double c : {-30.0, -10.0, 0.0, 10.0, 30.0}) {
    double truth = 0.0;
    for (double v : values) truth += (v <= c);
    truth /= values.size();
    EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kLe, c), truth, 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty, ::testing::Range(1, 6));

// ---------------------------------------------------------------------
// Engine determinism + SQL suite correctness invariants, parameterized
// over every benchmark query: 1-thread and 8-thread execution agree, and
// group-by outputs never exceed the grouping key's distinct count.
// ---------------------------------------------------------------------
class QuerySuiteProperty : public ::testing::TestWithParam<int> {
 protected:
  /// Shared SSB facade whose planner emits the DAG planner's left-deep
  /// plans.
  static Database* Db() {
    static Database* db = [] {
      auto* d = new Database();
      SsbOptions opts;
      opts.scale = 0.004;
      LoadSsb(d->meta(), opts);
      d->query_service()->RemovePass("bushy_rewrite");
      return d;
    }();
    return db;
  }
};

TEST_P(QuerySuiteProperty, ThreadCountInvariant) {
  const QueryTemplate q = SsbQueries()[static_cast<size_t>(GetParam())];
  auto planned = Db()->query_service()->PlanSql(q.sql, UserConstraint());
  ASSERT_TRUE(planned.ok()) << q.id << ": " << planned.status().ToString();
  LocalEngine serial(1);
  LocalEngine parallel(8);
  auto r1 = serial.Execute(planned->plan.get());
  auto r8 = parallel.Execute(planned->plan.get());
  ASSERT_TRUE(r1.ok()) << q.id;
  ASSERT_TRUE(r8.ok()) << q.id;
  EXPECT_EQ(r1->chunk.ToString(-1), r8->chunk.ToString(-1)) << q.id;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, QuerySuiteProperty,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// DOP-planner monotonicity: loosening the SLA never increases the bill;
// raising the budget never increases latency.
// ---------------------------------------------------------------------
class PlannerMonotonicity : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    SsbOptions opts;
    opts.scale = 0.004;
    LoadSsb(&meta_, opts);
    meta_.SetVirtualScale("lineorder", 1e5);
    meta_.SetVirtualScale("shipments", 1e5);
    node_ = PricingCatalog::Default().default_node();
    estimator_ = std::make_unique<CostEstimator>(&hw_, &node_);
  }

  MetadataService meta_;
  HardwareCalibration hw_;
  InstanceType node_;
  std::unique_ptr<CostEstimator> estimator_;
};

TEST_P(PlannerMonotonicity, LooserSlaNeverCostsMore) {
  QueryService opt(&meta_, estimator_.get());
  const std::string sql = FindQuery(GetParam()).sql;
  Dollars prev_cost = -1.0;
  for (Seconds sla : {2.0, 8.0, 32.0, 128.0}) {
    auto planned = opt.PlanSql(sql, UserConstraint::Sla(sla));
    ASSERT_TRUE(planned.ok());
    if (prev_cost >= 0.0 && planned->feasible) {
      EXPECT_LE(planned->estimate.cost, prev_cost * 1.01)
          << GetParam() << " sla=" << sla;
    }
    if (planned->feasible) prev_cost = planned->estimate.cost;
  }
}

TEST_P(PlannerMonotonicity, FrontierIsNonDominated) {
  QueryService shaper(&meta_, estimator_.get());
  shaper.RemovePass("bushy_rewrite");
  auto planned = shaper.PlanSql(FindQuery(GetParam()).sql, UserConstraint());
  ASSERT_TRUE(planned.ok());
  DopPlannerOptions opts;
  opts.max_dop = 8;  // keep the enumeration quick
  DopPlanner planner(estimator_.get(), opts);
  auto frontier =
      planner.EnumeratePareto(planned->pipelines, planned->volumes, nullptr);
  for (size_t i = 0; i < frontier.size(); ++i) {
    for (size_t j = 0; j < frontier.size(); ++j) {
      if (i == j) continue;
      bool dominates = frontier[j].latency <= frontier[i].latency &&
                       frontier[j].cost <= frontier[i].cost &&
                       (frontier[j].latency < frontier[i].latency ||
                        frontier[j].cost < frontier[i].cost);
      EXPECT_FALSE(dominates) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, PlannerMonotonicity,
                         ::testing::Values("Q1", "Q3", "Q5", "Q7"));

// ---------------------------------------------------------------------
// Billing conservation in the cloud layer: for any acquire/resize/release
// sequence, total dollars equal the integral of node-count over time.
// ---------------------------------------------------------------------
class BillingProperty : public ::testing::TestWithParam<int> {};

TEST_P(BillingProperty, BillEqualsNodeSecondsIntegral) {
  Rng rng(900 + static_cast<uint64_t>(GetParam()));
  CloudEnv env;
  auto cluster = env.clusters()->Acquire(4, 0.0, "q").value();
  double node_seconds = 0.0;
  Seconds t = cluster.acquired_at;
  int nodes = 4;
  for (int step = 0; step < 6; ++step) {
    Seconds dt = rng.Uniform(1.0, 20.0);
    int next = static_cast<int>(rng.UniformInt(1, 12));
    auto ev = env.clusters()->Resize(&cluster, next, t + dt);
    ASSERT_TRUE(ev.ok());
    node_seconds += nodes * (dt + ev->latency);
    t = cluster.acquired_at;
    nodes = next;
  }
  Seconds dt = rng.Uniform(1.0, 10.0);
  ASSERT_TRUE(env.clusters()->Release(&cluster, t + dt).ok());
  node_seconds += nodes * dt;
  double pps = env.pricing().default_node().price_per_second();
  EXPECT_NEAR(env.billing()->total(), node_seconds * pps,
              env.billing()->total() * 1e-9);
  EXPECT_NEAR(env.billing()->total_machine_seconds(), node_seconds, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BillingProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace costdb
