#include "optimizer/bi_objective.h"

#include <algorithm>

namespace costdb {

int ResolveWorkerCount(const UserConstraint& constraint, const DopMap& dops,
                       int max_workers) {
  max_workers = std::max(1, max_workers);
  // Explicit requests are honored up to the cap, so PlannedQuery::workers
  // is always an executable width — every execution-path decision
  // (backend routing, engine construction) reads it without re-clamping.
  if (constraint.workers > 0) return std::min(constraint.workers, max_workers);
  int widest = 1;
  for (const auto& [id, dop] : dops) widest = std::max(widest, dop);
  return std::min(widest, max_workers);
}

}  // namespace costdb
