#include <gtest/gtest.h>

#include "exec/engine.h"
#include "service/query_service.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SsbOptions opts;
    opts.scale = 0.01;
    LoadSsb(&meta_, opts);
    node_ = PricingCatalog::Default().default_node();
    estimator_ = std::make_unique<CostEstimator>(&hw_, &node_);
  }

  BoundQuery Bind(const std::string& sql) {
    Binder binder(&meta_);
    auto q = binder.BindSql(sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? std::move(*q) : BoundQuery{};
  }

  /// The DAG planner's left-deep plan with its pipelines and
  /// believed volumes, for tests that drive the DOP planner by hand.
  PlannedQuery LeftDeep(const std::string& sql) {
    QueryService shaper(&meta_, estimator_.get());
    shaper.RemovePass("bushy_rewrite");
    auto planned = shaper.PlanSql(sql, UserConstraint());
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    return planned.ok() ? std::move(*planned) : PlannedQuery{};
  }

  MetadataService meta_;
  HardwareCalibration hw_;
  InstanceType node_;
  std::unique_ptr<CostEstimator> estimator_;
};

TEST_F(OptimizerTest, SlaModeMeetsFeasibleSla) {
  QueryService opt(&meta_, estimator_.get());
  auto loose = opt.PlanSql(FindQuery("Q5").sql, UserConstraint::Sla(1e6));
  ASSERT_TRUE(loose.ok()) << loose.status().ToString();
  EXPECT_TRUE(loose->feasible);
  EXPECT_LE(loose->estimate.latency, 1e6);
}

TEST_F(OptimizerTest, TighterSlaCostsMore) {
  QueryService opt(&meta_, estimator_.get());
  auto loose = opt.PlanSql(FindQuery("Q7").sql, UserConstraint::Sla(1e5));
  ASSERT_TRUE(loose.ok());
  Seconds relaxed_latency = loose->estimate.latency;
  auto tight = opt.PlanSql(FindQuery("Q7").sql,
                           UserConstraint::Sla(relaxed_latency / 8.0));
  ASSERT_TRUE(tight.ok());
  if (tight->feasible) {
    EXPECT_LT(tight->estimate.latency, relaxed_latency);
    EXPECT_GE(tight->estimate.cost, loose->estimate.cost * 0.99);
  }
}

TEST_F(OptimizerTest, ImpossibleSlaReportedInfeasible) {
  QueryService opt(&meta_, estimator_.get());
  auto r = opt.PlanSql(FindQuery("Q8").sql, UserConstraint::Sla(1e-9));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->feasible);
}

TEST_F(OptimizerTest, BudgetModeRespectsBudget) {
  QueryService opt(&meta_, estimator_.get());
  // Floor: the cheapest possible execution (every DOP at 1).
  auto floor = opt.PlanSql(FindQuery("Q7").sql, UserConstraint::Budget(0.0));
  ASSERT_TRUE(floor.ok());
  EXPECT_FALSE(floor->feasible);  // nothing fits a zero budget
  // Ceiling: unlimited budget buys the fastest plan.
  auto rich = opt.PlanSql(FindQuery("Q7").sql, UserConstraint::Budget(1e9));
  ASSERT_TRUE(rich.ok());
  ASSERT_GE(rich->estimate.cost, floor->estimate.cost);
  // A budget between floor and ceiling must be honored.
  Dollars budget = (floor->estimate.cost + rich->estimate.cost) / 2.0;
  auto mid = opt.PlanSql(FindQuery("Q7").sql, UserConstraint::Budget(budget));
  ASSERT_TRUE(mid.ok());
  EXPECT_TRUE(mid->feasible);
  EXPECT_LE(mid->estimate.cost, budget * 1.0001);
  EXPECT_GE(mid->estimate.latency, rich->estimate.latency * 0.999);
}

TEST_F(OptimizerTest, LargerBudgetNeverSlower) {
  QueryService opt(&meta_, estimator_.get());
  Seconds prev_latency = 1e18;
  for (Dollars budget : {1e-5, 1e-4, 1e-3, 1e-2}) {
    auto r = opt.PlanSql(FindQuery("Q5").sql, UserConstraint::Budget(budget));
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->estimate.latency, prev_latency * 1.01)
        << "budget=" << budget;
    prev_latency = r->estimate.latency;
  }
}

TEST_F(OptimizerTest, CoTerminationReducesBlockedTime) {
  // Q7 has several concurrent build pipelines -> blocking waste exists.
  PlannedQuery shaped = LeftDeep(FindQuery("Q7").sql);
  ASSERT_NE(shaped.plan, nullptr);
  const PipelineGraph& graph = shaped.pipelines;
  const VolumeMap& volumes = shaped.volumes;

  DopPlannerOptions with;
  with.use_cotermination = true;
  DopPlannerOptions without;
  without.use_cotermination = false;
  UserConstraint sla = UserConstraint::Sla(1.0);
  auto r_with = DopPlanner(estimator_.get(), with).Plan(graph, volumes, sla);
  auto r_without =
      DopPlanner(estimator_.get(), without).Plan(graph, volumes, sla);
  EXPECT_LE(r_with.estimate.blocked_machine_seconds,
            r_without.estimate.blocked_machine_seconds + 1e-9);
  EXPECT_LE(r_with.estimate.cost, r_without.estimate.cost * 1.05);
}

TEST_F(OptimizerTest, ConstrainedSearchNearParetoOracle) {
  // On a small plan, exhaustive Pareto enumeration is feasible; the
  // constrained greedy must land near the frontier point.
  PlannedQuery shaped = LeftDeep(FindQuery("Q3").sql);
  ASSERT_NE(shaped.plan, nullptr);
  const PipelineGraph& graph = shaped.pipelines;
  const VolumeMap& volumes = shaped.volumes;

  DopPlannerOptions opts;
  opts.max_dop = 16;  // keep the oracle tractable
  DopPlanner planner(estimator_.get(), opts);
  int oracle_states = 0;
  auto frontier = planner.EnumeratePareto(graph, volumes, &oracle_states);
  ASSERT_FALSE(frontier.empty());
  // Frontier is sorted by latency and non-dominated.
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GE(frontier[i].latency, frontier[i - 1].latency);
    EXPECT_LE(frontier[i].cost, frontier[i - 1].cost + 1e-12);
  }
  Seconds sla = frontier[frontier.size() / 2].latency * 1.01;
  auto greedy = planner.Plan(graph, volumes, UserConstraint::Sla(sla));
  ASSERT_TRUE(greedy.feasible);
  Dollars oracle_cost = 1e18;
  for (const auto& e : frontier) {
    if (e.latency <= sla) oracle_cost = std::min(oracle_cost, e.cost);
  }
  EXPECT_LE(greedy.estimate.cost, oracle_cost * 1.5);
  EXPECT_LT(greedy.states_explored, oracle_states / 4);
}

TEST_F(OptimizerTest, BushyVariantsProduced) {
  BushyRewriter rewriter(&meta_);
  auto variants = rewriter.MakeVariants(Bind(FindQuery("Q11").sql), 2);
  ASSERT_TRUE(variants.ok()) << variants.status().ToString();
  ASSERT_GE(variants->size(), 2u);
  EXPECT_EQ((*variants)[0].bushiness, 0);
  EXPECT_GT((*variants)[1].bushiness, 0);
}

TEST_F(OptimizerTest, BushyVariantsExecuteToSameResult) {
  BoundQuery q = Bind(FindQuery("Q11").sql);
  BushyRewriter rewriter(&meta_);
  auto variants = rewriter.MakeVariants(q, 2);
  ASSERT_TRUE(variants.ok());
  ASSERT_GE(variants->size(), 2u);
  PhysicalPlanner physical(&meta_, &q.relations);
  LocalEngine engine(4);
  std::string reference;
  for (const auto& v : *variants) {
    auto plan = physical.Plan(v.plan);
    ASSERT_TRUE(plan.ok());
    auto result = engine.Execute(plan->get());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Q11 groups by year and we sort rows textually for comparison.
    std::string repr = result->chunk.ToString(-1);
    if (reference.empty()) {
      reference = repr;
    } else {
      EXPECT_EQ(repr, reference) << "bushiness=" << v.bushiness;
    }
  }
}

TEST_F(OptimizerTest, BushyNotProducedForTwoRelations) {
  BushyRewriter rewriter(&meta_);
  auto variants = rewriter.MakeVariants(Bind(FindQuery("Q3").sql), 2);
  ASSERT_TRUE(variants.ok());
  EXPECT_EQ(variants->size(), 1u);
}

TEST_F(OptimizerTest, PlannedQueryExecutesCorrectly) {
  QueryService opt(&meta_, estimator_.get());
  auto planned = opt.PlanSql(FindQuery("Q6").sql, UserConstraint::Sla(60.0));
  ASSERT_TRUE(planned.ok());
  LocalEngine engine(4);
  auto result = engine.Execute(planned->plan.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->names.size(), 3u);
}

TEST_F(OptimizerTest, DopsCoverEveryPipeline) {
  QueryService opt(&meta_, estimator_.get());
  auto planned = opt.PlanSql(FindQuery("Q8").sql, UserConstraint::Sla(10.0));
  ASSERT_TRUE(planned.ok());
  for (const auto& p : planned->pipelines.pipelines) {
    auto it = planned->dops.find(p.id);
    ASSERT_NE(it, planned->dops.end());
    EXPECT_GE(it->second, 1);
  }
}

}  // namespace
}  // namespace costdb
