#pragma once

#include <memory>
#include <string>
#include <vector>

#include "optimizer/passes.h"

namespace costdb {

/// Owns the optimizer pass pipeline and turns SQL (or a pre-bound query)
/// into a PlannedQuery against a shared cost estimator. This is the single
/// planning entry: the Database facade, the What-If Service (which splices
/// its mv_rewrite pass in), benches and tests plan through a QueryService
/// instead of hand-wiring binder/planner objects.
class QueryService {
 public:
  QueryService(const MetadataService* meta, const CostEstimator* estimator,
               BiObjectiveOptions options = BiObjectiveOptions());

  /// Run the full pass pipeline on raw SQL: bind -> dag_plan ->
  /// bushy_rewrite -> physical_plan -> dop_plan (plus any spliced custom
  /// passes, in pipeline order). The returned PlannedQuery carries the
  /// physical plan, its pipeline decomposition, and the bi-objective
  /// estimate chosen under `constraint`. Stateless and side-effect-free:
  /// no cache, no calibration write — the Database facade layers those
  /// on top. Pass failures surface the failing stage's status with its
  /// original code preserved.
  Result<PlannedQuery> PlanSql(const std::string& sql,
                               const UserConstraint& constraint) const;

  /// Plan an already-bound query (the bind pass no-ops). Same contract
  /// as PlanSql; used when the caller binds once and plans under several
  /// constraints.
  Result<PlannedQuery> Plan(const BoundQuery& query,
                            const UserConstraint& constraint) const;

  /// Plan one already-shaped logical plan: the stages before
  /// physical_plan (binding and join-shape exploration) are skipped, and
  /// the rest of the pipeline runs on `logical` alone — used by
  /// experiments that pin the shape. NotFound when the pipeline has no
  /// physical_plan stage.
  Result<PlannedQuery> PlanShaped(const BoundQuery& query,
                                  const LogicalPlanPtr& logical,
                                  const UserConstraint& constraint) const;

  /// Bind only (no planning): name/type resolution against the catalog.
  Result<BoundQuery> Bind(const std::string& sql) const;

  // -- Pass pipeline management ------------------------------------------
  const PassPipeline& passes() const { return passes_; }
  void SetPasses(PassPipeline passes) { passes_ = std::move(passes); }

  /// Splice a custom pass after the named stage. Returns false (and
  /// leaves the pipeline untouched) when the anchor is not found.
  bool InsertPassAfter(const std::string& after_name,
                       std::unique_ptr<OptimizerPass> pass);

  /// Drop a stage by name (e.g. "bushy_rewrite" to pin left-deep shapes).
  bool RemovePass(const std::string& name);

  std::vector<std::string> PassNames() const;

  const MetadataService* meta() const { return meta_; }
  const CostEstimator* estimator() const { return estimator_; }
  const BiObjectiveOptions& options() const { return options_; }

 private:
  Status RunOn(QueryPlanContext* ctx, size_t first_pass = 0) const;

  const MetadataService* meta_;
  const CostEstimator* estimator_;
  BiObjectiveOptions options_;
  PassPipeline passes_;
};

}  // namespace costdb
