// E4 — paper Section 3.2: exploring bounded bushy variants of the chosen
// left-deep join order at DOP-planning time trades a little extra machine
// time for materially lower latency in an elastic cloud.
// bench-baseline: none — this bench emits no JSON snapshot; its
// acceptance gates are its PASS/FAIL exit code, not a committed
// ci/bench_baselines/ entry (see the drift guard in ci/build_and_test.sh).
#include "bench_util.h"

using namespace costdb;
using namespace costdb::bench;

int main() {
  PrintHeader("E4: bushy join variants at DOP-planning time",
              "Claim (S3.2): bushier (non-expanding) join trees expose\n"
              "concurrent pipelines -> lower latency for bounded extra\n"
              "cost; the bi-objective controller picks per constraint.");
  BenchContext ctx = BenchContext::Make();

  auto query = ctx.db->BindSql(FindQuery("Q11").sql);
  if (!query.ok()) return 1;
  BushyRewriter rewriter(&ctx.meta);
  auto variants = rewriter.MakeVariants(*query, 3);
  if (!variants.ok()) return 1;
  const QueryService& planner = *ctx.db->query_service();

  TablePrinter t({"variant", "pipelines", "latency", "machine-time", "bill",
                  "latency vs left-deep"});
  Seconds base_latency = 0.0;
  for (const auto& v : *variants) {
    auto planned =
        planner.PlanShaped(*query, v.plan, UserConstraint::Sla(1e9));
    if (!planned.ok()) continue;
    // Fixed node budget per pipeline keeps the comparison about shape.
    DopMap dops;
    for (const auto& p : planned->pipelines.pipelines) dops[p.id] = 8;
    auto est = ctx.estimator->EstimatePlan(planned->pipelines, dops,
                                           planned->volumes);
    if (v.bushiness == 0) base_latency = est.latency;
    t.AddRow({v.bushiness == 0 ? "left-deep"
                               : StrFormat("bushy depth %d", v.bushiness),
              std::to_string(planned->pipelines.pipelines.size()),
              FormatSeconds(est.latency), FormatSeconds(est.machine_seconds),
              FormatDollars(est.cost),
              StrFormat("%.2fx", base_latency / est.latency)});
  }
  std::printf("two-fact query Q11 (lineorder x shipments x dims):\n%s",
              t.ToString().c_str());

  std::printf(
      "\nThe bi-objective controller prices every rung of the ladder and\n"
      "keeps whichever shape wins under the user's constraint:\n");
  TablePrinter pick({"constraint", "chosen shape", "latency", "bill"});
  for (const auto& [label, constraint] :
       std::vector<std::pair<std::string, UserConstraint>>{
           {"tight SLA", UserConstraint::Sla(15.0)},
           {"tight budget", UserConstraint::Budget(0.02)}}) {
    auto planned = planner.Plan(*query, constraint);
    if (!planned.ok()) continue;
    pick.AddRow({label,
                 planned->bushiness == 0
                     ? "left-deep"
                     : StrFormat("bushy depth %d", planned->bushiness),
                 FormatSeconds(planned->estimate.latency),
                 FormatDollars(planned->estimate.cost)});
  }
  std::printf("%s", pick.ToString().c_str());
  return 0;
}
