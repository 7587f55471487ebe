#include <gtest/gtest.h>

#include "runtime/policies.h"
#include "service/database.h"
#include "sim/harness.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

class SimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SsbOptions opts;
    opts.scale = 0.01;
    LoadSsb(&meta_, opts);
    // Make the *fact* volumes warehouse-sized so pipeline times are tens
    // of seconds, not microseconds (the in-process data is tiny);
    // dimensions stay small, as in a real star schema.
    meta_.SetVirtualScale("lineorder", 200000.0);
    meta_.SetVirtualScale("shipments", 200000.0);
  }

  /// Make the optimizer see stats `factor`x off from the truth for the
  /// fact table (the paper's misestimation scenario).
  void InjectError(double factor) {
    meta_.SetStatsErrorFactor("lineorder", factor);
  }

  Database db_;
  MetadataService& meta_ = *db_.meta();
  const CostEstimator* estimator_ = db_.estimator();
  const DistributedSimulator* simulator_ = db_.simulator();
};

TEST_F(SimTest, StaticPolicyRunsToCompletion) {
  UserConstraint sla = UserConstraint::Sla(120.0);
  auto prepared = db_.Prepare(FindQuery("Q5").sql, sla);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  StaticPolicy policy;
  SimResult r = SimulateQuery(*prepared, *simulator_, &policy, sla);
  EXPECT_GT(r.latency, 0.0);
  EXPECT_GT(r.cost, 0.0);
  EXPECT_GT(r.machine_seconds, 0.0);
  EXPECT_EQ(r.total_resizes, 0);
  EXPECT_EQ(r.pipelines.size(), prepared->planned.pipelines.pipelines.size());
}

TEST_F(SimTest, DeterministicAcrossRuns) {
  UserConstraint sla = UserConstraint::Sla(120.0);
  auto prepared = db_.Prepare(FindQuery("Q3").sql, sla);
  ASSERT_TRUE(prepared.ok());
  StaticPolicy p1, p2;
  SimResult a = SimulateQuery(*prepared, *simulator_, &p1, sla);
  SimResult b = SimulateQuery(*prepared, *simulator_, &p2, sla);
  EXPECT_DOUBLE_EQ(a.latency, b.latency);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST_F(SimTest, TrueDurationIncludesSkewAndQuantization) {
  UserConstraint sla = UserConstraint::Sla(120.0);
  auto prepared = db_.Prepare(FindQuery("Q1").sql, sla);
  ASSERT_TRUE(prepared.ok());
  const Pipeline& p = prepared->planned.pipelines.pipelines[0];
  Seconds model = estimator_->PipelineDuration(p, 8, prepared->truth);
  Seconds truth = simulator_->TrueDuration(p, 8, prepared->truth);
  EXPECT_GT(truth, model);          // skew/quantization only slow down
  EXPECT_LT(truth, model * 1.6);    // but boundedly so
}

TEST_F(SimTest, AccurateStatsMeetSla) {
  // With truthful statistics the static plan should satisfy a feasible SLA.
  UserConstraint sla = UserConstraint::Sla(60.0);
  auto prepared = db_.Prepare(FindQuery("Q5").sql, sla);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->planned.feasible);
  StaticPolicy policy;
  SimResult r = SimulateQuery(*prepared, *simulator_, &policy, sla);
  EXPECT_TRUE(r.sla_met) << "latency=" << r.latency;
}

TEST_F(SimTest, UnderestimationBreaksStaticButMonitorRecovers) {
  UserConstraint sla = UserConstraint::Sla(12.0);
  // The optimizer believes the fact table is 8x smaller than reality, so
  // the static plan just barely meets the SLA in its own belief.
  InjectError(1.0 / 8.0);
  auto prepared = db_.Prepare(FindQuery("Q5").sql, sla);
  InjectError(1.0);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->planned.feasible);
  // Recompute the truth with corrected stats (8x the believed volume).
  CardinalityEstimator truth_cards(&meta_, &prepared->query.relations, true);
  prepared->truth = ComputeVolumes(prepared->planned.plan.get(), truth_cards);

  StaticPolicy coast;
  SimResult static_r = SimulateQuery(*prepared, *simulator_, &coast, sla);
  EXPECT_FALSE(static_r.sla_met) << "latency=" << static_r.latency;
  PipelineDopMonitor monitor;
  SimResult monitor_r = SimulateQuery(*prepared, *simulator_, &monitor, sla);
  // The monitor must react (resize at least once) and recover latency.
  EXPECT_GT(monitor_r.total_resizes, 0);
  EXPECT_LT(monitor_r.latency, static_r.latency);
}

TEST_F(SimTest, OverestimationStaysWithinSlaAtBoundedCost) {
  UserConstraint sla = UserConstraint::Sla(30.0);
  // The optimizer believes the fact table is 4x bigger than reality and
  // over-provisions the exchange-heavy pipelines.
  InjectError(4.0);
  auto prepared = db_.Prepare(FindQuery("Q5").sql, sla);
  InjectError(1.0);
  ASSERT_TRUE(prepared.ok());
  CardinalityEstimator truth_cards(&meta_, &prepared->query.relations, true);
  prepared->truth = ComputeVolumes(prepared->planned.plan.get(), truth_cards);

  StaticPolicy coast;
  SimResult static_r = SimulateQuery(*prepared, *simulator_, &coast, sla);
  PipelineDopMonitor monitor;
  SimResult monitor_r = SimulateQuery(*prepared, *simulator_, &monitor, sla);
  // The monitor must keep the SLA and not pay materially more than the
  // static plan; with sublinear operators trimming usually saves money.
  EXPECT_TRUE(monitor_r.sla_met);
  EXPECT_LE(monitor_r.cost, static_r.cost * 1.1);
}

TEST_F(SimTest, StageBoundaryPaysMaterializationTax) {
  UserConstraint sla = UserConstraint::Sla(60.0);
  auto prepared = db_.Prepare(FindQuery("Q5").sql, sla);
  ASSERT_TRUE(prepared.ok());
  StageBoundaryPolicy stage(2.0);
  SimResult r = SimulateQuery(*prepared, *simulator_, &stage, sla);
  EXPECT_GT(r.materialization_seconds, 0.0);
  StaticPolicy streaming;
  SimResult s = SimulateQuery(*prepared, *simulator_, &streaming, sla);
  EXPECT_DOUBLE_EQ(s.materialization_seconds, 0.0);
}

TEST_F(SimTest, ResizeOverheadAccounted) {
  UserConstraint sla = UserConstraint::Sla(20.0);
  InjectError(1.0 / 8.0);
  auto prepared = db_.Prepare(FindQuery("Q3").sql, sla);
  InjectError(1.0);
  ASSERT_TRUE(prepared.ok());
  CardinalityEstimator truth_cards(&meta_, &prepared->query.relations, true);
  prepared->truth = ComputeVolumes(prepared->planned.plan.get(), truth_cards);
  PipelineDopMonitor monitor;
  SimResult r = SimulateQuery(*prepared, *simulator_, &monitor, sla);
  if (r.total_resizes > 0) {
    EXPECT_GT(r.resize_overhead_seconds, 0.0);
  }
}

TEST_F(SimTest, BilledCostMatchesMachineTimeOrder) {
  UserConstraint sla = UserConstraint::Sla(60.0);
  auto prepared = db_.Prepare(FindQuery("Q6").sql, sla);
  ASSERT_TRUE(prepared.ok());
  StaticPolicy policy;
  CloudEnv env;
  SimResult r = SimulateQuery(*prepared, *simulator_, &policy, sla, &env);
  double pps = env.pricing().default_node().price_per_second();
  EXPECT_NEAR(r.cost, r.machine_seconds * pps, r.cost * 0.01);
}

}  // namespace
}  // namespace costdb
