#pragma once

#include "optimizer/bushy_rewriter.h"
#include "optimizer/dop_planner.h"
#include "optimizer/physical_planner.h"

namespace costdb {

/// Everything the bi-objective optimizer decides for one query: the plan
/// shape, the pipeline decomposition, the DOP per pipeline, and the
/// predicted time/cost. PhysicalPlanPtr keeps the tree alive for the
/// pipeline/volume pointers.
struct PlannedQuery {
  PhysicalPlanPtr plan;
  PipelineGraph pipelines;
  DopMap dops;
  PlanCostEstimate estimate;
  VolumeMap volumes;        // the optimizer's believed volumes
  int bushiness = 0;
  bool feasible = true;
  int states_explored = 0;
  /// Execution workers the facade should run this plan on (resolved from
  /// UserConstraint::workers; 0-auto becomes the DOP plan's parallelism).
  /// > 1 routes real execution to the ShardedEngine.
  int workers = 1;
};

/// Resolve the constraint's worker knob against a finished DOP plan:
/// explicit counts are honored up to max_workers; 0 (auto) becomes the
/// largest pipeline DOP the planner chose, clamped the same way — the
/// optimizer's own latency-vs-dollars answer to "how wide should this
/// query run". The result is always in [1, max_workers], so downstream
/// code reads PlannedQuery::workers without re-clamping.
int ResolveWorkerCount(const UserConstraint& constraint, const DopMap& dops,
                       int max_workers = 8);

struct BiObjectiveOptions {
  DopPlannerOptions dop;
  PhysicalPlannerOptions physical;
  int max_bushy_depth = 2;
  bool explore_bushy = true;
  /// Cap on UserConstraint::workers == 0 auto-resolution (the facade
  /// syncs this from DatabaseOptions::max_workers).
  int max_workers = 8;
};

}  // namespace costdb
