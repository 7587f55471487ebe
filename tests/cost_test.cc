#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "common/stats_math.h"
#include "cost/calibration_updater.h"
#include "exec/sharded_engine.h"
#include "cost/cost_model.h"
#include "service/query_service.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

class CostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SsbOptions opts;
    opts.scale = 0.01;
    LoadSsb(&meta_, opts);
    node_ = PricingCatalog::Default().default_node();
  }

  /// Plan a query left-deep and unfused; the result carries the plan,
  /// its pipelines and the believed volumes the estimator prices.
  PlannedQuery Prepare(const std::string& sql) {
    CostEstimator estimator(&hw_, &node_);
    QueryService planner(&meta_, &estimator);
    planner.RemovePass("bushy_rewrite");
    planner.RemovePass("fuse_kernels");
    auto planned = planner.PlanSql(sql, UserConstraint());
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    return planned.ok() ? std::move(*planned) : PlannedQuery{};
  }

  MetadataService meta_;
  HardwareCalibration hw_;
  InstanceType node_;
};

TEST_F(CostTest, EffectiveParallelismSublinear) {
  EXPECT_DOUBLE_EQ(EffectiveParallelism(1, 0.1), 1.0);
  EXPECT_GT(EffectiveParallelism(8, 0.1), 1.0);
  EXPECT_LT(EffectiveParallelism(8, 0.1), 8.0);
  EXPECT_GT(EffectiveParallelism(16, 0.1), EffectiveParallelism(8, 0.1));
}

TEST_F(CostTest, ScanModelScalesLinearly) {
  // Inflate the served stats so scan time dwarfs the fixed pipeline
  // startup (the in-process dataset is tiny; a warehouse table is not).
  meta_.SetStatsErrorFactor("lineorder", 1e5);
  auto planned = Prepare(FindQuery("Q1").sql);
  // Q1 is scan->agg: the feeder pipeline is scan-dominated.
  CostEstimator est(&hw_, &node_);
  const Pipeline& feeder = planned.pipelines.pipelines[0];
  Seconds t1 = est.PipelineDuration(feeder, 1, planned.volumes);
  Seconds t8 = est.PipelineDuration(feeder, 8, planned.volumes);
  EXPECT_GT(t1, t8);
  // Near-linear: 8x nodes gives >=4x speedup on a scan-bound stage.
  EXPECT_GT(t1 / t8, 4.0);
}

TEST_F(CostTest, ShuffleLatencyEventuallyRises) {
  // Over-scaling a shuffle makes latency worse (paper Section 2): the sync
  // term grows with DOP while bandwidth gains flatten.
  StageWorkload w;
  w.rows_in = 1e7;
  w.bytes_in = 400 * kMiB;
  PhysicalPlan shuffle;
  shuffle.kind = PhysicalPlan::Kind::kExchange;
  shuffle.exchange_kind = ExchangeKind::kShuffle;
  auto model = MakeAnalyticModel(shuffle, &hw_);
  Seconds best = 1e18;
  int best_dop = 1;
  for (int d = 1; d <= 1024; d *= 2) {
    Seconds t = model->StageTime(w, d);
    if (t < best) {
      best = t;
      best_dop = d;
    }
  }
  EXPECT_GT(best_dop, 1);
  EXPECT_LT(best_dop, 1024);  // interior optimum
  EXPECT_GT(model->StageTime(w, 1024), best);
}

TEST_F(CostTest, AggregateMergeTermCreatesInteriorOptimum) {
  StageWorkload w;
  w.rows_in = 1e8;
  w.groups = 1e6;
  PhysicalPlan agg;
  agg.kind = PhysicalPlan::Kind::kHashAggregate;
  auto model = MakeAnalyticModel(agg, &hw_);
  Seconds t1 = model->StageTime(w, 1);
  Seconds t16 = model->StageTime(w, 16);
  Seconds t1024 = model->StageTime(w, 1024);
  EXPECT_LT(t16, t1);
  EXPECT_GT(t1024, t16);
}

TEST_F(CostTest, GatherDoesNotSpeedUpWithDop) {
  StageWorkload w;
  w.bytes_in = 1.0 * kGiB;
  PhysicalPlan g;
  g.kind = PhysicalPlan::Kind::kExchange;
  g.exchange_kind = ExchangeKind::kGather;
  auto model = MakeAnalyticModel(g, &hw_);
  EXPECT_DOUBLE_EQ(model->StageTime(w, 1), model->StageTime(w, 64));
}

TEST_F(CostTest, RegressionModelLearnsShuffle) {
  PhysicalPlan shuffle;
  shuffle.kind = PhysicalPlan::Kind::kExchange;
  shuffle.exchange_kind = ExchangeKind::kShuffle;
  auto truth = MakeAnalyticModel(shuffle, &hw_);
  std::vector<RegressionOperatorModel::Sample> samples;
  for (double rows : {1e5, 1e6, 1e7, 3e7}) {
    for (int dop : {1, 2, 4, 8, 16, 32}) {
      RegressionOperatorModel::Sample s;
      s.workload.rows_in = rows;
      s.workload.bytes_in = rows * 40.0;
      s.dop = dop;
      s.observed_time = truth->StageTime(s.workload, dop);
      samples.push_back(s);
    }
  }
  RegressionOperatorModel model("shuffle_reg");
  ASSERT_TRUE(model.Fit(samples));
  // Interpolation accuracy within 2x q-error on unseen points.
  StageWorkload w;
  w.rows_in = 5e6;
  w.bytes_in = w.rows_in * 40.0;
  double predicted = model.StageTime(w, 8);
  double actual = truth->StageTime(w, 8);
  EXPECT_LT(QError(predicted, actual), 2.0);
}

TEST_F(CostTest, RegressionRejectsTinySampleSets) {
  RegressionOperatorModel model("x");
  EXPECT_FALSE(model.Fit({}));
  EXPECT_FALSE(model.fitted());
}

TEST_F(CostTest, ScheduleRespectsDependenciesAndBillsBlocking) {
  // Hand-built diamond: two feeders (ids 0, 1) into consumer (id 2).
  PipelineGraph graph;
  Pipeline a, b, c;
  a.id = 0;
  b.id = 1;
  c.id = 2;
  c.dependencies = {0, 1};
  graph.pipelines = {a, b, c};
  std::map<int, Seconds> durations{{0, 10.0}, {1, 4.0}, {2, 5.0}};
  DopMap dops{{0, 4}, {1, 2}, {2, 8}};
  PlanCostEstimate est;
  SchedulePipelines(graph, durations, dops, &est);
  EXPECT_DOUBLE_EQ(est.latency, 15.0);  // max(10,4) + 5
  // Pipeline 1 finishes at 4 but its nodes are held until the consumer
  // starts at 10: 6 blocked seconds x 2 nodes.
  EXPECT_DOUBLE_EQ(est.blocked_machine_seconds, 12.0);
  EXPECT_DOUBLE_EQ(est.machine_seconds, 4 * 10.0 + 2 * 10.0 + 8 * 5.0);
}

TEST_F(CostTest, EstimatePlanProducesPositiveCost) {
  auto planned = Prepare(FindQuery("Q5").sql);
  CostEstimator est(&hw_, &node_);
  DopMap dops;
  for (const auto& p : planned.pipelines.pipelines) dops[p.id] = 4;
  auto e = est.EstimatePlan(planned.pipelines, dops, planned.volumes);
  EXPECT_GT(e.latency, 0.0);
  EXPECT_GT(e.cost, 0.0);
  EXPECT_GE(e.machine_seconds, e.latency);  // >=1 node the whole time
  EXPECT_EQ(e.pipelines.size(), planned.pipelines.pipelines.size());
}

// Property sweep: for a scan-dominated pipeline, doubling DOP divides
// latency roughly in half while machine-time (~cost) stays flat — the
// paper's "100 machines for 1 minute" identity.
class ElasticityProperty : public CostTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(ElasticityProperty, ScanMachineTimeInvariant) {
  meta_.SetStatsErrorFactor("lineorder", 1e5);  // warehouse-sized volumes
  auto planned = Prepare("SELECT sum(lo_revenue) FROM lineorder");
  CostEstimator est(&hw_, &node_);
  const Pipeline& feeder = planned.pipelines.pipelines[0];
  int dop = GetParam();
  Seconds t1 = est.PipelineDuration(feeder, 1, planned.volumes);
  Seconds td = est.PipelineDuration(feeder, dop, planned.volumes);
  double machine1 = 1 * t1;
  double machined = dop * td;
  // Startup overhead breaks the identity slightly; stay within 2.5x for
  // the in-range DOPs of this tiny dataset.
  EXPECT_LT(machined / machine1, 2.5) << "dop=" << dop;
  EXPECT_LT(td, t1);
}

INSTANTIATE_TEST_SUITE_P(Dops, ElasticityProperty,
                         ::testing::Values(2, 4, 8, 16));

TEST_F(CostTest, VolumesEstimateVsTruthDivergeUnderInjectedError) {
  Binder binder(&meta_);
  auto query = binder.BindSql(FindQuery("Q3").sql);
  ASSERT_TRUE(query.ok());
  PlannedQuery planned = Prepare(FindQuery("Q3").sql);
  ASSERT_NE(planned.plan, nullptr);
  meta_.SetStatsErrorFactor("lineorder", 4.0);
  CardinalityEstimator served(&meta_, &query->relations);
  CardinalityEstimator truth(&meta_, &query->relations,
                             /*use_true_stats=*/true);
  auto v_served = ComputeVolumes(planned.plan.get(), served);
  auto v_truth = ComputeVolumes(planned.plan.get(), truth);
  // Scan volumes (not the 1-row aggregate output) must diverge ~4x.
  std::function<const PhysicalPlan*(const PhysicalPlan*)> find_scan =
      [&](const PhysicalPlan* p) -> const PhysicalPlan* {
    if (p->kind == PhysicalPlan::Kind::kTableScan && p->alias == "lineorder") {
      return p;
    }
    for (const auto& ch : p->children) {
      const PhysicalPlan* f = find_scan(ch.get());
      if (f != nullptr) return f;
    }
    return nullptr;
  };
  const PhysicalPlan* scan = find_scan(planned.plan.get());
  meta_.SetStatsErrorFactor("lineorder", 1.0);
  ASSERT_NE(scan, nullptr);
  double ratio = v_served.at(scan).source_rows / v_truth.at(scan).source_rows;
  EXPECT_NEAR(ratio, 4.0, 0.2);
}

TEST_F(CostTest, FilterChainChargesDispatchOnlyForSurvivingMorsels) {
  // Zone-map pruning drops whole morsels before any kernel runs, so the
  // batch-dispatch term must be charged per *surviving* morsel. With rows
  // and selectivity held fixed, shrinking `batches` from 200 to 20 must
  // cut exactly the dispatch fee of the 180 pruned morsels — per conjunct
  // on the interpreted chain, once for the whole fused chain.
  const double rows = 1e6;
  const int conjuncts = 3;
  const double sel = 0.2;
  Seconds full = InterpretedFilterChainTime(hw_, rows, conjuncts, sel,
                                            /*batches=*/200.0, 1);
  Seconds pruned = InterpretedFilterChainTime(hw_, rows, conjuncts, sel,
                                              /*batches=*/20.0, 1);
  EXPECT_LT(pruned, full);
  EXPECT_NEAR(full - pruned,
              conjuncts * 180.0 * hw_.batch_dispatch_seconds, 1e-12);

  Seconds fused_full = FusedFilterChainTime(hw_, rows, 200.0, 1);
  Seconds fused_pruned = FusedFilterChainTime(hw_, rows, 20.0, 1);
  EXPECT_NEAR(fused_full - fused_pruned, 180.0 * hw_.fused_dispatch_seconds,
              1e-12);

  // The fused chain's whole point: one dispatch per morsel instead of one
  // per conjunct per morsel, and one row pass instead of k narrowing
  // passes — cheaper on a multi-conjunct mid-selectivity chain.
  EXPECT_LT(FusedFilterChainTime(hw_, rows, 200.0, 1),
            InterpretedFilterChainTime(hw_, rows, 4, 0.3, 200.0, 1));
}

TEST_F(CostTest, SurvivingMorselsFollowPlannerPruneFraction) {
  PhysicalPlan scan;
  scan.kind = PhysicalPlan::Kind::kHashJoin;
  EXPECT_EQ(SurvivingScanMorsels(scan), -1.0);  // not a scan

  scan.kind = PhysicalPlan::Kind::kTableScan;
  EXPECT_EQ(SurvivingScanMorsels(scan), -1.0);  // no table handle

  auto lineorder = meta_.GetTable("lineorder");
  ASSERT_TRUE(lineorder.ok());
  scan.table = *lineorder;
  ASSERT_NE(scan.table, nullptr);
  const double total = static_cast<double>(scan.table->row_groups().size());
  EXPECT_EQ(SurvivingScanMorsels(scan), total);  // keep = 1.0 default
  scan.prune_keep_fraction = 0.25;
  EXPECT_EQ(SurvivingScanMorsels(scan), std::ceil(total * 0.25));
  scan.prune_keep_fraction = 0.0;
  EXPECT_EQ(SurvivingScanMorsels(scan), 0.0);
}

TEST_F(CostTest, ObserveFusedMovesOnlyTheFusedTerms) {
  HardwareCalibration hw;
  const HardwareCalibration before = hw;
  CalibrationUpdater updater(&hw);

  // The fused kernels run 4x slower here than the seeded calibration
  // claims: predictions must grow by ~scale, nothing else may move.
  std::vector<FusedObservation> obs(3);
  for (auto& o : obs) {
    o.rows = 1e6;
    o.batches = 120.0;
    o.seconds = 4.0 * (o.rows / hw.fused_filter_rows_per_sec +
                       o.batches * hw.fused_dispatch_seconds);
  }
  CalibrationReport report = updater.ObserveFused(obs);
  EXPECT_EQ(report.pipelines_observed, 3);
  EXPECT_GT(report.applied_scale, 1.0);
  EXPECT_LT(report.q_error_after, report.q_error_before);
  EXPECT_DOUBLE_EQ(updater.fused_total_scale(), report.applied_scale);

  // Fused rate slowed, fused dispatch grew...
  EXPECT_LT(hw.fused_filter_rows_per_sec, before.fused_filter_rows_per_sec);
  EXPECT_GT(hw.fused_dispatch_seconds, before.fused_dispatch_seconds);
  // ...and the interpreted rates fusion competes against stayed put.
  EXPECT_DOUBLE_EQ(hw.filter_rows_per_sec, before.filter_rows_per_sec);
  EXPECT_DOUBLE_EQ(hw.batch_dispatch_seconds, before.batch_dispatch_seconds);
  EXPECT_DOUBLE_EQ(hw.scan_gibps_per_node, before.scan_gibps_per_node);
  EXPECT_DOUBLE_EQ(hw.shuffle_gibps, before.shuffle_gibps);

  // Converges: repeated identical observations shrink the remaining gap.
  CalibrationReport second = updater.ObserveFused(obs);
  EXPECT_LT(second.q_error_before, report.q_error_before);
}

TEST_F(CostTest, ObserveTransportMovesOnlyTheLinkTerms) {
  HardwareCalibration hw;
  const HardwareCalibration before = hw;
  CalibrationUpdater updater(&hw);

  // The measured serialize+transfer share of each exchange runs 3x slower
  // than the seeded link terms predict: the three link terms must move by
  // ~scale, every other tier — including the shuffle copy term the link
  // share was subtracted from — must stay put.
  std::vector<ExchangeTiming> timings(3);
  for (auto& t : timings) {
    t.transport = TransportKind::kSocket;
    t.bytes = 4.0 * kMiB;
    t.partitions = 4;
    t.wire_bytes = 4.0 * kMiB;
    t.transfers = 12;
    t.link_seconds =
        3.0 * (t.wire_bytes / (hw.wire_serialize_gibps * kGiB) +
               t.wire_bytes / (hw.link_gibps * kGiB) +
               static_cast<double>(t.transfers) * hw.link_rtt_seconds);
    t.seconds = t.link_seconds + 0.002;
  }
  CalibrationReport report = updater.ObserveTransport(timings);
  EXPECT_EQ(report.pipelines_observed, 3);
  EXPECT_GT(report.applied_scale, 1.0);
  EXPECT_LT(report.q_error_after, report.q_error_before);
  EXPECT_DOUBLE_EQ(updater.link_total_scale(), report.applied_scale);

  // Serialize and link bandwidth slowed, per-transfer RTT grew...
  EXPECT_LT(hw.wire_serialize_gibps, before.wire_serialize_gibps);
  EXPECT_LT(hw.link_gibps, before.link_gibps);
  EXPECT_GT(hw.link_rtt_seconds, before.link_rtt_seconds);
  // ...and everything else stayed put, most importantly the shuffle copy
  // term that shares the same measured exchanges.
  EXPECT_DOUBLE_EQ(hw.shuffle_gibps, before.shuffle_gibps);
  EXPECT_DOUBLE_EQ(hw.shuffle_dispatch_seconds,
                   before.shuffle_dispatch_seconds);
  EXPECT_DOUBLE_EQ(hw.scan_gibps_per_node, before.scan_gibps_per_node);
  EXPECT_DOUBLE_EQ(hw.filter_rows_per_sec, before.filter_rows_per_sec);
  EXPECT_DOUBLE_EQ(hw.fused_filter_rows_per_sec,
                   before.fused_filter_rows_per_sec);
  EXPECT_DOUBLE_EQ(hw.storage_read_gibps, before.storage_read_gibps);
  // The configuration knob is not a calibrated term.
  EXPECT_EQ(hw.exchange_transport, before.exchange_transport);

  // In-process timings (no wire bytes) are not link observations: the
  // round is a no-op instead of dragging the link terms toward zero.
  std::vector<ExchangeTiming> inproc(2);
  for (auto& t : inproc) {
    t.bytes = kMiB;
    t.seconds = 0.01;
  }
  const double serialize_now = hw.wire_serialize_gibps;
  CalibrationReport empty = updater.ObserveTransport(inproc);
  EXPECT_EQ(empty.pipelines_observed, 0);
  EXPECT_DOUBLE_EQ(hw.wire_serialize_gibps, serialize_now);

  // ObserveShuffles on transported timings calibrates the copy term
  // against seconds *minus* the link share — with the link share exactly
  // excluded, a link slowdown alone cannot move shuffle_gibps upward into
  // pretending the copy path got slower.
  CalibrationReport second = updater.ObserveTransport(timings);
  EXPECT_LT(second.q_error_before, report.q_error_before);
}

TEST_F(CostTest, ObserveStorageMovesOnlyTheStorageTerms) {
  HardwareCalibration hw;
  const HardwareCalibration before = hw;
  CalibrationUpdater updater(&hw);

  // Cold-block reads run 3x slower than the seeded calibration claims:
  // the storage tier must move by ~scale, nothing else may.
  std::vector<StorageObservation> obs(4);
  for (auto& o : obs) {
    o.bytes = 8.0 * kMiB;
    o.blocks = 16.0;
    o.seconds = 3.0 * (o.bytes / (hw.storage_read_gibps * kGiB) +
                       o.blocks * hw.storage_get_seconds);
  }
  CalibrationReport report = updater.ObserveStorage(obs);
  EXPECT_EQ(report.pipelines_observed, 4);
  EXPECT_GT(report.applied_scale, 1.0);
  EXPECT_LT(report.q_error_after, report.q_error_before);
  EXPECT_DOUBLE_EQ(updater.storage_total_scale(), report.applied_scale);

  // Cold-read bandwidth slowed, per-GET latency grew...
  EXPECT_LT(hw.storage_read_gibps, before.storage_read_gibps);
  EXPECT_GT(hw.storage_get_seconds, before.storage_get_seconds);
  // ...and every other tier stayed put, including the object-store scan
  // bandwidth the storage terms deliberately sit below.
  EXPECT_DOUBLE_EQ(hw.scan_gibps_per_node, before.scan_gibps_per_node);
  EXPECT_DOUBLE_EQ(hw.filter_rows_per_sec, before.filter_rows_per_sec);
  EXPECT_DOUBLE_EQ(hw.shuffle_gibps, before.shuffle_gibps);
  EXPECT_DOUBLE_EQ(hw.fused_filter_rows_per_sec,
                   before.fused_filter_rows_per_sec);

  // The uniform pipeline loop moves the storage terms too, and the drift
  // tracker records that movement.
  std::vector<CalibrationObservation> pairs(2);
  for (auto& p : pairs) {
    p.predicted = 1.0;
    p.actual = 2.0;
  }
  const double tracked = updater.storage_total_scale();
  CalibrationReport uniform = updater.ObservePairs(pairs);
  EXPECT_GT(uniform.applied_scale, 1.0);
  EXPECT_DOUBLE_EQ(updater.storage_total_scale(),
                   tracked * uniform.applied_scale);
}

}  // namespace
}  // namespace costdb
