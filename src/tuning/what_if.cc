#include "tuning/what_if.h"

#include <cmath>

#include "common/table_printer.h"
#include "optimizer/passes.h"
#include "service/query_service.h"

namespace costdb {

namespace {

/// Custom optimizer stage spliced between dag_plan and physical_plan:
/// rewrites each logical variant to read from a hypothetical materialized
/// view. QueryService::InsertPassAfter is what makes this kind of what-if
/// surgery possible without re-wiring the planner by hand.
class MvRewritePass : public OptimizerPass {
 public:
  MvRewritePass(const TuningAction* action, std::shared_ptr<Table> mv_table)
      : action_(action), mv_table_(std::move(mv_table)) {}

  const char* name() const override { return "mv_rewrite"; }

  Status Run(QueryPlanContext* ctx) const override {
    for (auto& variant : ctx->variants) {
      LogicalPlanPtr rewritten =
          SubstituteMvInPlan(variant.plan, *action_, mv_table_);
      if (rewritten != nullptr) variant.plan = rewritten;
    }
    return Status::OK();
  }

 private:
  const TuningAction* action_;
  std::shared_ptr<Table> mv_table_;
};

}  // namespace

std::string WhatIfReport::ToString() const {
  std::string out = "What-If Report: " + action.Describe() + "\n";
  TablePrinter t({"query", "runs/day", "$/run before", "$/run after",
                  "savings $/day"});
  for (const auto& q : per_query) {
    t.AddRow({q.query_id, StrFormat("%.1f", q.runs_per_day),
              FormatDollars(q.cost_before), FormatDollars(q.cost_after),
              FormatDollars(q.savings_per_day())});
  }
  out += t.ToString();
  out += "  benefit x = " + FormatDollars(benefit_per_day) + "/day\n";
  out += "  cost    y = " + FormatDollars(cost_per_day) +
         "/day (storage + maintenance)\n";
  out += "  build (one-time, background) = " + FormatDollars(build_cost) +
         "\n";
  out += "  net = " + FormatDollars(net_per_day()) + "/day -> " +
         (accepted ? "ACCEPT" : "REJECT");
  if (accepted && payback_days > 0.0) {
    out += StrFormat(" (payback in %.1f days)", payback_days);
  }
  out += "\n";
  return out;
}

Result<Dollars> WhatIfService::EstimateQueryCost(
    const MetadataService& meta, const std::string& sql,
    const TuningAction* mv_rewrite, std::shared_ptr<Table> mv_table) const {
  // The facade's pipeline, left-deep, with an MV-substitution stage
  // spliced in after DAG planning when a rewrite is hypothesized.
  QueryService planner(&meta, estimator_);
  planner.RemovePass("bushy_rewrite");
  if (mv_rewrite != nullptr && mv_table != nullptr) {
    planner.InsertPassAfter(
        "dag_plan", std::make_unique<MvRewritePass>(mv_rewrite, mv_table));
  }
  PlannedQuery planned;
  COSTDB_ASSIGN_OR_RETURN(planned, planner.PlanSql(sql, options_.constraint));
  return planned.estimate.cost;
}

Result<Dollars> WhatIfService::BuildCost(const MetadataService& meta,
                                         const TuningAction& action,
                                         double* bytes_out) const {
  if (action.kind == TuningAction::Kind::kMaterializedView) {
    Dollars compute;
    COSTDB_ASSIGN_OR_RETURN(
        compute, EstimateQueryCost(meta, MvDefiningSql(action), nullptr,
                                   nullptr));
    // Output size ~ widest base table's bytes scaled by join selectivity
    // ~1 for FK joins; approximate with the largest base table.
    double bytes = 0.0;
    for (const auto& t : action.mv_tables) {
      auto table = meta.GetTable(t);
      if (!table.ok()) continue;
      double scaled =
          (*table)->EstimateBytes() * meta.virtual_scale(t);
      bytes = std::max(bytes, scaled);
    }
    if (bytes_out != nullptr) *bytes_out = bytes;
    return compute * options_.write_amplification;
  }
  // Recluster: read + rewrite the whole table on background compute.
  auto table = meta.GetTable(action.table);
  if (!table.ok()) return table.status();
  double bytes =
      (*table)->EstimateBytes() * meta.virtual_scale(action.table);
  if (bytes_out != nullptr) *bytes_out = bytes;
  const InstanceType& node = estimator_->node_type();
  // Read at scan bandwidth, sort+write at half of it, on a 16-node
  // background cluster (machine time is what matters for cost).
  double gib = bytes / kGiB;
  Seconds machine_seconds =
      gib / estimator_->hardware().scan_gibps_per_node * 3.0;
  Dollars compute = machine_seconds * node.price_per_second();
  Dollars puts = bytes / (8.0 * kMiB) / 1000.0 * 0.005;
  return compute + puts;
}

Result<WhatIfReport> WhatIfService::Evaluate(
    const TuningAction& action, const std::vector<WorkloadItem>& workload) {
  WhatIfReport report;
  report.action = action;

  // Hypothetical catalog with the action applied.
  MetadataService hypothetical = *meta_;
  std::shared_ptr<Table> mv_table;
  if (action.kind == TuningAction::Kind::kMaterializedView) {
    LocalEngine engine(4);
    COSTDB_ASSIGN_OR_RETURN(mv_table,
                            BuildMaterializedView(*meta_, action, &engine));
    hypothetical.RegisterTable(mv_table);
    COSTDB_RETURN_NOT_OK(hypothetical.Analyze(action.mv_name));
    double scale = 1.0;
    for (const auto& t : action.mv_tables) {
      scale = std::max(scale, meta_->virtual_scale(t));
    }
    hypothetical.SetVirtualScale(action.mv_name, scale);
  } else {
    auto base = meta_->GetTable(action.table);
    if (!base.ok()) return base.status();
    // Clone and recluster the copy.
    auto clone = std::make_shared<Table>(**base);
    COSTDB_RETURN_NOT_OK(clone->ClusterBy(action.column));
    hypothetical.RegisterTable(clone);
    COSTDB_RETURN_NOT_OK(hypothetical.Analyze(action.table));
    hypothetical.SetVirtualScale(action.table,
                                 meta_->virtual_scale(action.table));
  }

  for (const auto& item : workload) {
    WhatIfQueryDelta delta;
    delta.query_id = item.query_id;
    delta.runs_per_day = item.runs_per_day;
    COSTDB_ASSIGN_OR_RETURN(
        delta.cost_before,
        EstimateQueryCost(*meta_, item.sql, nullptr, nullptr));
    const TuningAction* rewrite =
        action.kind == TuningAction::Kind::kMaterializedView ? &action
                                                             : nullptr;
    COSTDB_ASSIGN_OR_RETURN(
        delta.cost_after,
        EstimateQueryCost(hypothetical, item.sql, rewrite, mv_table));
    report.per_query.push_back(delta);
    report.benefit_per_day +=
        std::max(0.0, delta.cost_before - delta.cost_after) *
        item.runs_per_day;
  }

  double bytes = 0.0;
  COSTDB_ASSIGN_OR_RETURN(report.build_cost,
                          BuildCost(*meta_, action, &bytes));
  if (action.kind == TuningAction::Kind::kMaterializedView) {
    Dollars storage_per_day = bytes / kGiB * 0.023 / 30.0;
    Dollars maintenance_per_day =
        report.build_cost * options_.mv_update_fraction_per_day;
    report.cost_per_day = storage_per_day + maintenance_per_day;
  } else {
    // Reclustering keeps bytes constant; ongoing cost is the incremental
    // re-sorting of newly ingested data.
    report.cost_per_day =
        report.build_cost * options_.mv_update_fraction_per_day * 0.5;
  }

  report.accepted = report.net_per_day() > 0.0;
  report.payback_days = report.accepted
                            ? report.build_cost / report.net_per_day()
                            : std::numeric_limits<double>::infinity();
  return report;
}

Status WhatIfService::Apply(const WhatIfReport& report, MetadataService* meta,
                            CloudEnv* env, LocalEngine* engine, Seconds now) {
  const TuningAction& action = report.action;
  if (action.kind == TuningAction::Kind::kMaterializedView) {
    std::shared_ptr<Table> mv;
    COSTDB_ASSIGN_OR_RETURN(mv, BuildMaterializedView(*meta, action, engine));
    meta->RegisterTable(mv);
    COSTDB_RETURN_NOT_OK(meta->Analyze(action.mv_name));
    double scale = 1.0;
    for (const auto& t : action.mv_tables) {
      scale = std::max(scale, meta->virtual_scale(t));
    }
    meta->SetVirtualScale(action.mv_name, scale);
    MaterializedViewInfo info;
    info.name = action.mv_name;
    info.join_edges = action.mv_join_edges;
    info.base_tables = action.mv_tables;
    meta->RegisterMaterializedView(info);
  } else {
    std::shared_ptr<Table> table;
    COSTDB_ASSIGN_OR_RETURN(table, meta->GetTable(action.table));
    COSTDB_RETURN_NOT_OK(table->ClusterBy(action.column));
    COSTDB_RETURN_NOT_OK(meta->Analyze(action.table));
  }
  // Charge the background compute for the build.
  env->billing()->ChargeFlat("tuning:" + action.Describe(),
                             report.build_cost);
  (void)now;
  return Status::OK();
}

}  // namespace costdb
