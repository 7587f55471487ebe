#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "common/stats_math.h"
#include "cost/calibration_updater.h"
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

  /// Plan a query left-deep; the result carries the plan,
  /// its pipelines and the believed volumes the estimator prices.
  PlannedQuery Prepare(const std::string& sql) {
    CostEstimator estimator(&hw_, &node_);
    QueryService planner(&meta_, &estimator);
    planner.RemovePass("bushy_rewrite");
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
  // cut exactly the dispatch fee of the 180 pruned morsels, once per
  // conjunct.
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

using HwField = double HardwareCalibration::*;

/// The time fields of one calibration term group: rates divide by a
/// round's scale, fixed latencies multiply.
struct TermFields {
  std::vector<HwField> rates;
  std::vector<HwField> latencies;
};

/// Every group, in CalibrationTerm order — the spec the updater's own
/// table must match.
std::vector<std::pair<CalibrationTerm, TermFields>> CalibrationGroups() {
  using HW = HardwareCalibration;
  return {
      {CalibrationTerm::kPipeline,
       {{&HW::scan_gibps_per_node, &HW::network_gibps_per_node,
         &HW::filter_rows_per_sec, &HW::project_rows_per_sec,
         &HW::hash_build_rows_per_sec, &HW::hash_probe_rows_per_sec,
         &HW::agg_rows_per_sec, &HW::agg_merge_groups_per_sec,
         &HW::sort_rows_per_sec, &HW::exchange_rows_per_sec},
        {&HW::shuffle_sync_per_node, &HW::pipeline_startup,
         &HW::worker_spinup_seconds, &HW::batch_dispatch_seconds}}},
      {CalibrationTerm::kShuffle,
       {{&HW::shuffle_gibps}, {&HW::shuffle_dispatch_seconds}}},
      {CalibrationTerm::kLink,
       {{&HW::wire_serialize_gibps, &HW::link_gibps},
        {&HW::link_rtt_seconds}}},
      {CalibrationTerm::kStorage,
       {{&HW::storage_read_gibps}, {&HW::storage_get_seconds}}},
  };
}

TEST_F(CostTest, EachCalibrationTermMovesExactlyItsOwnGroup) {
  const PlannedQuery planned = Prepare(FindQuery("Q1").sql);
  ASSERT_FALSE(planned.pipelines.pipelines.empty());
  // A fixed workload priced by each term's own model at `hw`.
  auto predict = [&](CalibrationTerm term, const HardwareCalibration& hw) {
    std::vector<Seconds> out;
    switch (term) {
      case CalibrationTerm::kPipeline: {
        CostEstimator estimator(&hw, &node_);
        for (const auto& p : planned.pipelines.pipelines) {
          out.push_back(estimator.PipelineDuration(p, 1, planned.volumes));
        }
        break;
      }
      case CalibrationTerm::kShuffle:
        for (int i = 1; i <= 3; ++i) {
          out.push_back(ShuffleCopyTime(hw, i * 4.0 * kMiB) +
                        ShuffleDispatch(hw, 4.0));
        }
        break;
      case CalibrationTerm::kLink:
        for (int i = 1; i <= 3; ++i) {
          out.push_back(LinkTermTime(hw, i * 4.0 * kMiB, 12.0));
        }
        break;
      case CalibrationTerm::kStorage:
        for (int i = 1; i <= 4; ++i) {
          out.push_back(ColdReadTime(hw, i * 8.0 * kMiB, 16.0));
        }
        break;
    }
    return out;
  };
  auto observe = [&](CalibrationUpdater* updater, CalibrationTerm term,
                     const HardwareCalibration& hw,
                     const std::vector<Seconds>& truth) {
    const std::vector<Seconds> predicted = predict(term, hw);
    std::vector<CalibrationObservation> pairs;
    for (size_t i = 0; i < truth.size(); ++i) {
      pairs.push_back({static_cast<int>(i), predicted[i], truth[i]});
    }
    return updater->Observe(term, pairs);
  };

  for (const auto& entry : CalibrationGroups()) {
    const CalibrationTerm term = entry.first;
    SCOPED_TRACE(static_cast<int>(term));
    HardwareCalibration hw;
    const HardwareCalibration before = hw;
    CalibrationUpdater updater(&hw);

    // The hardware runs 3x slower than the seeded calibration claims:
    // the term's group must move by ~scale and nothing else may — a
    // pipeline round, which every duration includes, moves every group.
    std::vector<Seconds> truth = predict(term, hw);
    for (auto& t : truth) t *= 3.0;
    CalibrationReport report = observe(&updater, term, hw, truth);
    EXPECT_EQ(report.pipelines_observed, static_cast<int>(truth.size()));
    EXPECT_GT(report.applied_scale, 1.0);
    EXPECT_LT(report.q_error_after, report.q_error_before);
    EXPECT_EQ(updater.rounds(), 1);
    for (const auto& [group, fields] : CalibrationGroups()) {
      const bool moves = term == CalibrationTerm::kPipeline || group == term;
      for (HwField f : fields.rates) {
        if (moves) {
          EXPECT_LT(hw.*f, before.*f);
        } else {
          EXPECT_EQ(hw.*f, before.*f);
        }
      }
      for (HwField f : fields.latencies) {
        if (moves) {
          EXPECT_GT(hw.*f, before.*f);
        } else {
          EXPECT_EQ(hw.*f, before.*f);
        }
      }
      EXPECT_DOUBLE_EQ(updater.total_scale(group),
                       moves ? report.applied_scale : 1.0);
    }
    // Configuration, sizes and the parallel decay are not time terms.
    EXPECT_EQ(hw.exchange_transport, before.exchange_transport);
    EXPECT_EQ(hw.vector_batch_rows, before.vector_batch_rows);
    EXPECT_EQ(hw.parallel_alpha, before.parallel_alpha);

    // Converges: repeated identical observations shrink the remaining gap.
    CalibrationReport second = observe(&updater, term, hw, truth);
    EXPECT_LT(second.q_error_before, report.q_error_before);

    // The pipeline loop moves every group, and each group's drift tracker
    // records that movement, so the cumulative clamp sees it.
    const double tracked = updater.total_scale(term);
    CalibrationReport uniform = updater.Observe(
        CalibrationTerm::kPipeline, {{0, 1.0, 2.0}, {1, 1.0, 2.0}});
    EXPECT_GT(uniform.applied_scale, 1.0);
    EXPECT_DOUBLE_EQ(updater.total_scale(term),
                     tracked * uniform.applied_scale);
  }

  // In-process exchanges carry no link share (no wire bytes, no link
  // seconds): their pairs have no ratio, so the round is a no-op instead
  // of dragging the link terms toward zero.
  HardwareCalibration hw;
  const HardwareCalibration before = hw;
  CalibrationUpdater updater(&hw);
  CalibrationReport empty = updater.Observe(
      CalibrationTerm::kLink, {{0, LinkTermTime(hw, 0.0, 0.0), 0.0},
                               {1, LinkTermTime(hw, 0.0, 0.0), 0.0}});
  EXPECT_EQ(empty.pipelines_observed, 0);
  EXPECT_EQ(empty.applied_scale, 1.0);
  EXPECT_EQ(updater.rounds(), 0);
  EXPECT_EQ(hw.wire_serialize_gibps, before.wire_serialize_gibps);
  EXPECT_EQ(updater.total_scale(CalibrationTerm::kLink), 1.0);
}

TEST_F(CostTest, CalibrationGoldenSequenceIsBitStable) {
  // An interleaved sequence over every term group that drives the storage
  // tracker into the 1024x cumulative clamp. The expected values were
  // recorded from the per-term observers this updater replaced; a
  // calibration refactor must reproduce every bit of them.
  HardwareCalibration hw;
  CalibrationUpdater updater(&hw);
  // Pairs predicted from each term's model at the current calibration,
  // from the measurements Database::Calibrate reads.
  auto shuffle = [&](double bytes, double partitions, double seconds,
                     double link_seconds) {
    return CalibrationObservation{
        0, ShuffleCopyTime(hw, bytes) + ShuffleDispatch(hw, partitions),
        seconds - link_seconds};
  };
  auto link = [&](double wire_bytes, double transfers, double link_seconds) {
    return CalibrationObservation{0, LinkTermTime(hw, wire_bytes, transfers),
                                  link_seconds};
  };
  auto storage = [&](double bytes, double blocks, double seconds) {
    return CalibrationObservation{0, ColdReadTime(hw, bytes, blocks),
                                  seconds};
  };
  using T = CalibrationTerm;
  std::vector<CalibrationReport> reports;
  reports.push_back(
      updater.Observe(T::kPipeline, {{0, 1.0, 3.0}, {1, 2.0, 5.0}}));
  reports.push_back(updater.Observe(
      T::kShuffle, {shuffle(4.0 * kMiB, 4, 0.01, 0.0),
                    shuffle(1.0 * kMiB, 2, 0.004, 0.001)}));
  reports.push_back(updater.Observe(
      T::kLink, {link(0.0, 0, 0.0), link(1.0 * kMiB, 3, 0.001)}));
  for (int i = 0; i < 5; ++i) {
    reports.push_back(
        updater.Observe(T::kStorage, {storage(8.0 * kMiB, 16.0, 100.0)}));
  }
  reports.push_back(updater.Observe(T::kPipeline, {{0, 4.0, 1.0}}));
  reports.push_back(updater.Observe(T::kLink, {link(0.0, 0, 0.0)}));
  reports.push_back(updater.Observe(
      T::kShuffle, {shuffle(4.0 * kMiB, 4, 0.01, 0.0),
                    shuffle(1.0 * kMiB, 1, 0.001, 0.002)}));

  struct Expected {
    int observed;
    double q_before, q_after, applied;
  };
  const std::vector<Expected> expected = {
      {2, 2.738612787525831, 1.6548754598234363, 1.6548754598234368},
      {2, 4.0357612830217837, 2.0089204272498655, 2.008920427249866},
      {1, 1.4602983061488846, 1.2084280310175219, 0.82752135363657464},
      {1, 1268.8190645067789, 158.60238306334745, 8},
      {1, 158.60238306334745, 19.825297882918427, 8},
      {1, 19.825297882918427, 4.4525608230453644, 4.4525608230453662},
      {1, 4.4525608230453644, 2.1101091969481969, 2.1101091969481969},
      {1, 2.1101091969481969, 2.0505249343832017, 1.0290580531676969},
      {1, 4, 2, 0.5},
      {0, 1, 1, 1},
      {1, 4.669724497655606, 2.160954533916807, 2.1609545339168075},
  };
  ASSERT_EQ(reports.size(), expected.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(reports[i].pipelines_observed, expected[i].observed);
    EXPECT_EQ(reports[i].q_error_before, expected[i].q_before);
    EXPECT_EQ(reports[i].q_error_after, expected[i].q_after);
    EXPECT_EQ(reports[i].applied_scale, expected[i].applied);
  }
  // Storage hit the clamp: its fifth round only closed the gap to 1024x,
  // and the later 0.5 pipeline round left it at exactly half of that.
  EXPECT_EQ(updater.total_scale(T::kStorage), 512.0);
  EXPECT_EQ(updater.total_scale(T::kPipeline), 0.82743772991171838);
  EXPECT_EQ(updater.total_scale(T::kShuffle), 3.5920608453202703);
  EXPECT_EQ(updater.total_scale(T::kLink), 0.6847223903065196);
  EXPECT_EQ(updater.rounds(), 10);

  EXPECT_EQ(hw.scan_gibps_per_node, 1.208550158942707);
  EXPECT_EQ(hw.network_gibps_per_node, 1.5106876986783839);
  EXPECT_EQ(hw.filter_rows_per_sec, 483420063.57708281);
  EXPECT_EQ(hw.project_rows_per_sec, 604275079.47135353);
  EXPECT_EQ(hw.hash_build_rows_per_sec, 60427507.947135352);
  EXPECT_EQ(hw.hash_probe_rows_per_sec, 96684012.715416566);
  EXPECT_EQ(hw.agg_rows_per_sec, 72513009.536562428);
  EXPECT_EQ(hw.agg_merge_groups_per_sec, 24171003.178854141);
  EXPECT_EQ(hw.sort_rows_per_sec, 18128252.384140607);
  EXPECT_EQ(hw.exchange_rows_per_sec, 120855015.8942707);
  EXPECT_EQ(hw.shuffle_sync_per_node, 0.0082743772991171836);
  EXPECT_EQ(hw.pipeline_startup, 0.45509075145144512);
  EXPECT_EQ(hw.worker_spinup_seconds, 0.066195018392937469);
  EXPECT_EQ(hw.batch_dispatch_seconds, 4.1371886495585919e-07);
  EXPECT_EQ(hw.shuffle_gibps, 2.2271337665180093);
  EXPECT_EQ(hw.shuffle_dispatch_seconds, 0.00071841216906405418);
  EXPECT_EQ(hw.wire_serialize_gibps, 5.8417835558281928);
  EXPECT_EQ(hw.link_gibps, 2.9208917779140964);
  EXPECT_EQ(hw.link_rtt_seconds, 3.423611951532599e-05);
  EXPECT_EQ(hw.storage_read_gibps, 0.00097656249999999978);
  EXPECT_EQ(hw.storage_get_seconds, 1.0240000000000002);
  EXPECT_EQ(hw.parallel_alpha, 0.12);
  EXPECT_EQ(hw.vector_batch_rows, 4096);
}

}  // namespace
}  // namespace costdb
