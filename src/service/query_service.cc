#include "service/query_service.h"

namespace costdb {

QueryService::QueryService(const MetadataService* meta,
                           const CostEstimator* estimator,
                           BiObjectiveOptions options)
    : meta_(meta),
      estimator_(estimator),
      options_(options),
      passes_(MakeDefaultPassPipeline(options.explore_bushy)) {}

Status QueryService::RunOn(QueryPlanContext* ctx, size_t first_pass) const {
  ctx->meta = meta_;
  ctx->estimator = estimator_;
  ctx->options = options_;
  return RunPassPipeline(passes_, ctx, first_pass);
}

Result<PlannedQuery> QueryService::PlanSql(
    const std::string& sql, const UserConstraint& constraint) const {
  QueryPlanContext ctx;
  ctx.sql = sql;
  ctx.constraint = constraint;
  COSTDB_RETURN_NOT_OK(RunOn(&ctx));
  return std::move(ctx.best);
}

Result<PlannedQuery> QueryService::Plan(const BoundQuery& query,
                                        const UserConstraint& constraint) const {
  QueryPlanContext ctx;
  ctx.query = query;
  ctx.bound = true;
  ctx.constraint = constraint;
  COSTDB_RETURN_NOT_OK(RunOn(&ctx));
  return std::move(ctx.best);
}

Result<PlannedQuery> QueryService::PlanShaped(
    const BoundQuery& query, const LogicalPlanPtr& logical,
    const UserConstraint& constraint) const {
  size_t first = 0;
  while (first < passes_.size() &&
         std::string(passes_[first]->name()) != "physical_plan") {
    ++first;
  }
  if (first == passes_.size()) {
    return Status::NotFound("PlanShaped: no physical_plan stage");
  }
  QueryPlanContext ctx;
  ctx.query = query;
  ctx.bound = true;
  ctx.constraint = constraint;
  ctx.variants.push_back(BushyVariant{logical, 0});
  COSTDB_RETURN_NOT_OK(RunOn(&ctx, first));
  return std::move(ctx.best);
}

Result<BoundQuery> QueryService::Bind(const std::string& sql) const {
  return BindSql(meta_, sql);
}

bool QueryService::InsertPassAfter(const std::string& after_name,
                                   std::unique_ptr<OptimizerPass> pass) {
  for (auto it = passes_.begin(); it != passes_.end(); ++it) {
    if (after_name == (*it)->name()) {
      passes_.insert(it + 1, std::move(pass));
      return true;
    }
  }
  // Unknown anchor: refuse to mutate — a silent append would run the
  // pass in a position the caller did not ask for.
  return false;
}

bool QueryService::RemovePass(const std::string& name) {
  for (auto it = passes_.begin(); it != passes_.end(); ++it) {
    if (name == (*it)->name()) {
      passes_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<std::string> QueryService::PassNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& pass : passes_) names.emplace_back(pass->name());
  return names;
}

}  // namespace costdb
