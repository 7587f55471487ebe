// Microbenchmarks (google-benchmark) for the hot planning-path pieces the
// paper requires to be lightweight: cost-estimator invocations, DOP
// planning, and full bi-objective optimization.
// bench-baseline: none — this bench emits no JSON snapshot; its
// acceptance gates are its PASS/FAIL exit code, not a committed
// ci/bench_baselines/ entry (see the drift guard in ci/build_and_test.sh).
#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace costdb;
using namespace costdb::bench;

namespace {

BenchContext* Ctx() {
  static BenchContext* ctx = [] {
    auto* c = new BenchContext(BenchContext::Make());
    return c;
  }();
  return ctx;
}

PreparedQuery* PreparedQ7() {
  static PreparedQuery* prepared = [] {
    auto p = Ctx()->Prepare(FindQuery("Q7").sql, UserConstraint::Sla(1e9));
    return new PreparedQuery(std::move(*p));
  }();
  return prepared;
}

void BM_EstimatePlan(benchmark::State& state) {
  auto* p = PreparedQ7();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ctx()->estimator->EstimatePlan(
        p->planned.pipelines, p->planned.dops, p->planned.volumes));
  }
}
BENCHMARK(BM_EstimatePlan);

void BM_PipelineDuration(benchmark::State& state) {
  auto* p = PreparedQ7();
  const Pipeline& pipeline = p->planned.pipelines.pipelines.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Ctx()->estimator->PipelineDuration(pipeline, 8, p->planned.volumes));
  }
}
BENCHMARK(BM_PipelineDuration);

void BM_DopPlanning(benchmark::State& state) {
  auto* p = PreparedQ7();
  DopPlanner planner(Ctx()->estimator);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(p->planned.pipelines,
                                          p->planned.volumes,
                                          UserConstraint::Sla(10.0)));
  }
}
BENCHMARK(BM_DopPlanning);

void BM_FullBiObjectiveOptimize(benchmark::State& state) {
  for (auto _ : state) {
    // The facade's planner directly: no plan cache in the loop.
    auto planned = Ctx()->db->query_service()->PlanSql(
        FindQuery("Q7").sql, UserConstraint::Sla(10.0));
    benchmark::DoNotOptimize(planned);
  }
}
BENCHMARK(BM_FullBiObjectiveOptimize);

void BM_SqlParseBind(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ctx()->db->BindSql(FindQuery("Q8").sql));
  }
}
BENCHMARK(BM_SqlParseBind);

}  // namespace

BENCHMARK_MAIN();
