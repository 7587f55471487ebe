/// perfbench — the repository's end-to-end benchmark.
///
///   perfbench --workload <ssb-local|ssb-sharded|lookup-ingest> --seed <n>
///             --seconds <s> --trace <0|1> [--spill-dir <dir>]
///             [--trace-out <file>]
///
/// Untraced (--trace 0): sets up the workload kSetupReps times at SF1, replays
/// the seeded sequence for --seconds, verifies every result and prints the
/// end-to-end metrics. Traced (--trace 1): an untraced pass, then the same
/// operations with spans around every layer call on a fresh set-up, and
/// prints the per-layer metrics. Either way the last stdout line is one
/// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "measure.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

struct Args {
  WorkloadConfig config;  // SF1: the default scale
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->config.kind)) {
        std::fprintf(stderr, "unknown workload '%s'\n", value.c_str());
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args->config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spill-dir") {
      args->config.spill_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload) std::fprintf(stderr, "--workload is required\n");
  return have_workload && args->seconds > 0.0;
}

/// Ordered name -> (value, unit) list, printed as text and as JSON.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  void Print() const {
    for (const auto& e : entries_) {
      std::printf("  %-34s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Tail percentile the workload reports: the highest with at least ten
/// samples beyond it at this benchmark's run length.
double TailPercentile(WorkloadKind kind) {
  return kind == WorkloadKind::kLookupIngest ? 0.99 : 0.95;
}

std::string TailName(double p) {
  return p >= 0.99 ? "latency_p99_ms" : "latency_p95_ms";
}

void EchoConfig(const Args& args) {
  const WorkloadConfig& c = args.config;
  const bool sharded = c.kind == WorkloadKind::kSsbSharded;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(c.kind), static_cast<unsigned long long>(c.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc=%u compiler=\"%s\" build_type=%s optimized=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE,
#ifdef __OPTIMIZE__
              "yes"
#else
              "no"
#endif
  );
#ifndef __OPTIMIZE__
  std::printf("WARNING: unoptimized build; timings are not representative\n");
  std::fprintf(stderr,
               "WARNING: unoptimized build; timings are not representative\n");
#endif
  std::printf(
      "config: sf=%g clients=1 exec_threads=%zu workers=%zu "
      "threads_per_worker=1 block_cache_bytes=%zu memtable_flush_rows=%zu "
      "setup_reps=%d\n",
      c.scale, sharded ? size_t{1} : c.query_threads(),
      sharded ? c.query_threads() : size_t{1},
      c.kind == WorkloadKind::kLookupIngest ? c.block_cache_bytes() : size_t{0},
      c.memtable_flush_rows(), args.trace ? 1 : kSetupReps);
}

double PerQuery(double total, const PassReport& r) {
  return r.queries == 0 ? 0.0 : total / static_cast<double>(r.queries);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Percentile for printing; falls back to the maximum (and says so) when
/// the sample cannot support it.
double ReportPercentile(const std::vector<double>& samples, double p,
                        const char* what) {
  double v = 0.0;
  if (Percentile(samples, p, &v)) return v;
  if (samples.empty()) return 0.0;
  std::printf("note: %s has %zu samples, too few for p%g; reporting max\n",
              what, samples.size(), p * 100);
  double m = samples[0];
  for (double s : samples) m = std::max(m, s);
  return m;
}

struct Bill {
  double compute = 0.0;
  double storage = 0.0;
  double egress = 0.0;
  double total = 0.0;  // the sum of the three lines, per 1000 queries
};

Bill BillPerKQuery(const PassReport& r) {
  Bill b;
  const double k = Ratio(1000.0, static_cast<double>(r.queries));
  b.compute = r.compute_usd * k;
  b.storage = r.storage_usd * k;
  b.egress = r.egress_usd * k;
  b.total = b.compute + b.storage + b.egress;
  return b;
}

/// Lines every run prints about a pass: sample counts, the miss share the
/// tail percentile must stay clear of, and the error rate.
void PrintPassSummary(const PassReport& r) {
  const size_t attempted = r.ops;
  std::printf(
      "pass: ops=%zu queries=%zu appends=%zu wall_s=%.3f latency_samples=%zu "
      "append_samples=%zu\n",
      r.ops, r.queries, r.appends, r.wall_seconds, r.query_ms.size(),
      r.append_ms.size());
  std::printf("storage.miss_share %.6f (queries with a block-cache miss)\n",
              Ratio(static_cast<double>(r.counts.queries_with_miss),
                    static_cast<double>(r.queries)));
  std::printf("error_rate %.6f (failed %zu + wrong %zu of %zu attempted)\n",
              Ratio(static_cast<double>(r.failed + r.wrong),
                    static_cast<double>(attempted)),
              r.failed, r.wrong, attempted);
}

void PrintResult(const PassReport& r, const Metrics& m) {
  const bool correct = r.failed == 0 && r.wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", r.ops, r.failed + r.wrong,
              m.Json().c_str());
  std::fflush(stdout);
}

/// Set up `reps` times, keeping the last instance. Each set-up's time,
/// excluding the speed slices run during it, in reference-host seconds:
/// all set-ups share the factor of every slice run among them.
costdb::Result<std::unique_ptr<Instance>> TimedSetup(
    const Args& args, int reps, SpeedReference* speed,
    std::vector<double>* times, int* spill_index) {
  std::unique_ptr<Instance> inst;
  std::vector<double> raw;
  speed->RunSlice();
  const SpeedReference::Window all = speed->Mark();
  for (int i = 0; i < reps; ++i) {
    inst.reset();  // one instance alive at a time
    WorkloadConfig config = args.config;
    if (!config.spill_dir.empty()) {
      config.spill_dir += "/setup" + std::to_string((*spill_index)++);
    }
    const SpeedReference::Window window = speed->Mark();
    const double t0 = NowSeconds();
    COSTDB_ASSIGN_OR_RETURN(inst, Instance::Create(config, speed));
    raw.push_back(NowSeconds() - t0 - speed->SecondsSince(window));
    speed->RunSlice();
  }
  const double factor = speed->FactorSince(all);
  for (double seconds : raw) times->push_back(seconds / factor);
  COSTDB_RETURN_NOT_OK(inst->BuildReference());
  return inst;
}

/// A pass with the host speed sampled between operations: the report,
/// its wall time without the slices, and the slowdown factor.
struct TimedPass {
  PassReport report;
  double active_seconds = 0.0;
  double factor = 1.0;
};

costdb::Result<TimedPass> RunTimed(Instance* inst, const PassLimits& limits,
                                   SpanRecorder* tracer,
                                   SpeedReference* speed) {
  const SpeedReference::Window window = speed->Mark();
  TimedPass out;
  COSTDB_ASSIGN_OR_RETURN(out.report, inst->Run(limits, tracer, speed));
  out.active_seconds =
      out.report.wall_seconds - speed->SecondsSince(window);
  speed->RunSlice();  // one more sample, outside the pass's wall time
  out.factor = speed->FactorSince(window);
  return out;
}

int RunUntraced(const Args& args) {
  const WorkloadKind kind = args.config.kind;
  const double tail_p = TailPercentile(kind);
  SpeedReference speed(args.config.query_threads());
  std::vector<double> setup_times;
  int spill_index = 0;
  auto inst = TimedSetup(args, kSetupReps, &speed, &setup_times, &spill_index);
  if (!inst.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 inst.status().ToString().c_str());
    return 1;
  }
  PassLimits limits;
  limits.seconds = args.seconds;
  limits.min_queries = MinSamplesFor(tail_p);
  auto timed = RunTimed(inst->get(), limits, nullptr, &speed);
  if (!timed.ok()) {
    std::fprintf(stderr, "pass failed: %s\n",
                 timed.status().ToString().c_str());
    return 1;
  }
  const PassReport& r = timed->report;
  const double f = timed->factor;
  PrintPassSummary(r);

  const double p50 = Median(r.query_ms);
  const double tail = ReportPercentile(r.query_ms, tail_p, "latency");
  const double qps =
      Ratio(static_cast<double>(r.queries), timed->active_seconds);
  Bill bill = BillPerKQuery(r);
  const double raw_dollars = bill.total;
  bill.compute /= f;  // machine-seconds, like every other time
  bill.total = bill.compute + bill.storage + bill.egress;

  Metrics m;
  m.Add("setup_s", Median(setup_times), "s");
  m.Add("latency_p50_ms", p50 / f, "ms");
  // latency_tail_ms: p95 on the SSB workloads, p99 on lookup-ingest.
  m.Add("latency_tail_ms", tail / f, "ms");
  m.Add("throughput_qps", qps * f, "1/s");
  m.Add("dollars_per_kquery", bill.total, "usd");
  // The program's peak: the process's, less the speed slices' buffers.
  const double peak_mb = PeakRssMb();
  const double slice_mb =
      static_cast<double>(speed.BufferBytes()) / (1024.0 * 1024.0);
  m.Add("peak_rss_mb", peak_mb - slice_mb, "MiB");

  std::printf(
      "host speed: %zu reference slices, slowdown factor %.4f against the "
      "reference host; times below are in reference-host units\n",
      speed.Mark().slices, f);
  std::printf("raw: latency_p50_ms %.6f %s %.6f throughput_qps %.6f "
              "dollars_per_kquery %.9g peak_rss_mb %.3f (slice buffers "
              "%.3f)\n",
              p50, TailName(tail_p).c_str(), tail, qps, raw_dollars,
              peak_mb, slice_mb);
  std::printf("end-to-end (latency_tail_ms is %s; %zu latency samples):\n",
              TailName(tail_p).c_str(), r.query_ms.size());
  m.Print();
  if (kind == WorkloadKind::kLookupIngest) {
    std::printf("  %-34s %16.6f ms\n", "append_p50_ms",
                Median(r.append_ms) / f);
    std::printf("  %-34s %16.6f ms\n", "append_p95_ms",
                ReportPercentile(r.append_ms, 0.95, "append latency") / f);
  }
  std::printf("  dollars_per_kquery = compute %.9g + storage %.9g + egress "
              "%.9g usd\n",
              bill.compute, bill.storage, bill.egress);
  PrintResult(r, m);
  return r.failed == 0 && r.wrong == 0 ? 0 : 1;
}

int RunTraced(const Args& args) {
  const WorkloadKind kind = args.config.kind;
  SpeedReference speed(args.config.query_threads());
  std::vector<double> setup_times;
  int spill_index = 0;

  // Untraced pass on one set-up: the baseline for the tracing overhead.
  TimedPass untraced_pass;
  {
    auto inst = TimedSetup(args, 1, &speed, &setup_times, &spill_index);
    if (!inst.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   inst.status().ToString().c_str());
      return 1;
    }
    PassLimits limits;
    limits.seconds = args.seconds;
    limits.min_queries = MinSamplesFor(TailPercentile(kind));
    auto pass = RunTimed(inst->get(), limits, nullptr, &speed);
    if (!pass.ok()) {
      std::fprintf(stderr, "pass failed: %s\n",
                   pass.status().ToString().c_str());
      return 1;
    }
    untraced_pass = std::move(*pass);
  }
  const PassReport& untraced = untraced_pass.report;

  // The same operations, traced, on a fresh set-up of the same seed.
  auto inst = TimedSetup(args, 1, &speed, &setup_times, &spill_index);
  if (!inst.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 inst.status().ToString().c_str());
    return 1;
  }
  SpanRecorder spans;
  PassLimits same_ops;
  same_ops.ops = untraced.ops;
  auto traced_pass = RunTimed(inst->get(), same_ops, &spans, &speed);
  if (!traced_pass.ok()) {
    std::fprintf(stderr, "pass failed: %s\n",
                 traced_pass.status().ToString().c_str());
    return 1;
  }
  const PassReport& r = traced_pass->report;
  auto calibrated = (*inst)->CalibratedQError(/*rounds=*/4);
  if (!calibrated.ok()) {
    std::fprintf(stderr, "calibration rounds failed: %s\n",
                 calibrated.status().ToString().c_str());
    return 1;
  }
  PrintPassSummary(r);

  // Per-query layer time: the optimizer's spans summed per query, and
  // every layer span summed per query (for the unattributed remainder).
  std::map<uint64_t, double> plan_s, layer_s;
  double execute_total = 0.0;
  std::vector<double> execute_ms;
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    if (s.parent < 0 || spans.spans()[s.parent].name != "query") continue;
    const double self = spans.SelfSeconds(static_cast<int>(i));
    layer_s[s.query_id] += self;
    if (s.name == "PlanCachedBound" || s.name == "BindPreparedPlan") {
      plan_s[s.query_id] += self;
    }
    if (s.name == "ExecutePlannedCached") {
      execute_total += self;
      execute_ms.push_back(self * 1e3);
    }
  }
  auto values_us = [](const std::map<uint64_t, double>& m) {
    std::vector<double> v;
    for (const auto& kv : m) v.push_back(kv.second * 1e6);
    return v;
  };
  auto self_us = [&](const char* name) {
    std::vector<double> v = spans.SelfSecondsOf(name);
    for (double& x : v) x *= 1e6;
    return v;
  };

  const PassCounts& c = r.counts;
  const double q = static_cast<double>(r.queries);
  const Bill bill = BillPerKQuery(r);
  Metrics m;
  m.Add("sql.bind_us", Median(self_us("BindSql")), "us");
  m.Add("optimizer.plan_us", Median(values_us(plan_s)), "us");
  m.Add("optimizer.plan_cache_hit_ratio",
        Ratio(static_cast<double>(c.plan_cache_hits),
              static_cast<double>(c.plan_cache_lookups)),
        "ratio");
  m.Add("optimizer.plan_cache_entries",
        static_cast<double>(c.plan_cache_entries), "count");
  m.Add("optimizer.states_explored",
        PerQuery(static_cast<double>(c.states_explored), r), "count");
  m.Add("cost.latency_qerror", GeoMeanQError(r.estimated_s, r.measured_s),
        "ratio");
  m.Add("cost.calibrated_qerror", *calibrated, "ratio");
  m.Add("exec.execute_ms", Median(execute_ms), "ms");
  m.Add("exec.execute_p95_ms",
        ReportPercentile(execute_ms, 0.95, "execute time"), "ms");
  m.Add("exec.source_rows_per_query",
        PerQuery(static_cast<double>(c.source_rows), r), "count");
  m.Add("exec.fused_morsels", PerQuery(static_cast<double>(c.fused_morsels), r),
        "count");
  m.Add("exec.fallback_morsels",
        PerQuery(static_cast<double>(c.fallback_morsels), r), "count");
  m.Add("exec.fused_time_share", Ratio(r.fused_seconds, execute_total),
        "ratio");
  m.Add("exec.exchange_ms", PerQuery(r.exchange_seconds, r) * 1e3, "ms");
  m.Add("exec.exchange_time_share", Ratio(r.exchange_seconds, execute_total),
        "ratio");
  m.Add("exec.rows_moved", PerQuery(static_cast<double>(c.rows_moved), r),
        "count");
  m.Add("exec.bytes_moved", PerQuery(static_cast<double>(c.bytes_moved), r),
        "bytes");
  m.Add("exec.worker_seconds_per_query", PerQuery(r.worker_seconds, r), "s");
  m.Add("exec.spinup_ms", PerQuery(r.spinup_seconds, r) * 1e3, "ms");
  const double lookups = static_cast<double>(c.block_hits + c.block_misses);
  m.Add("storage.block_hit_ratio",
        Ratio(static_cast<double>(c.block_hits), lookups), "ratio");
  m.Add("storage.miss_share",
        Ratio(static_cast<double>(c.queries_with_miss), q), "ratio");
  m.Add("storage.gets_per_lookup", Ratio(static_cast<double>(c.gets), q),
        "count");
  m.Add("storage.evictions", static_cast<double>(c.block_evictions), "count");
  m.Add("storage.miss_ms",
        Ratio(r.miss_seconds, static_cast<double>(c.block_misses)) * 1e3,
        "ms");
  m.Add("storage.append_us", Median(self_us("Table::Append")), "us");
  m.Add("storage.flushes", static_cast<double>(c.flushes), "count");
  m.Add("storage.compactions", static_cast<double>(c.compactions), "count");
  m.Add("storage.puts_per_krow",
        Ratio(static_cast<double>(c.puts) * 1000.0,
              static_cast<double>(r.appended_rows)),
        "count");
  m.Add("storage.space_amplification",
        Ratio(Ratio(r.stored_bytes, r.stored_rows),
              (*inst)->initial_bytes_per_row()),
        "ratio");
  m.Add("service.settle_us", Median(self_us("SettleTenantBill")), "us");
  // Both passes replay the same queries in the same order: pair each
  // untraced latency with the traced layer spans of the same query, both
  // in reference-host time, and take the median remainder.
  const std::vector<double> layer_us = values_us(layer_s);
  std::vector<double> unattributed_us;
  for (size_t i = 0; i < layer_us.size() && i < untraced.query_ms.size();
       ++i) {
    unattributed_us.push_back(untraced.query_ms[i] * 1e3 /
                                  untraced_pass.factor -
                              layer_us[i] / traced_pass->factor);
  }
  m.Add("service.unattributed_us", Median(unattributed_us), "us");
  m.Add("cloud.compute_usd_per_kquery", bill.compute, "usd");
  m.Add("cloud.storage_usd_per_kquery", bill.storage, "usd");
  m.Add("cloud.egress_usd_per_kquery", bill.egress, "usd");
  // Both passes in reference-host seconds, so host drift between them
  // does not read as tracing cost.
  const double traced_s = traced_pass->active_seconds / traced_pass->factor;
  const double untraced_s =
      untraced_pass.active_seconds / untraced_pass.factor;
  m.Add("trace.overhead_ratio", Ratio(traced_s, untraced_s) - 1.0, "ratio");
  m.Add("append_p50_ms", Median(untraced.append_ms), "ms");
  m.Add("append_p95_ms",
        untraced.append_ms.empty()
            ? 0.0
            : ReportPercentile(untraced.append_ms, 0.95, "append latency"),
        "ms");

  std::printf("per-layer (traced pass of %zu operations; untraced %.3f s, "
              "traced %.3f s in reference-host seconds):\n",
              r.ops, untraced_s, traced_s);
  m.Print();
  std::printf("cloud lines sum: %.17g + %.17g + %.17g = %.17g usd/kquery "
              "(dollars_per_kquery of the traced pass)\n",
              bill.compute, bill.storage, bill.egress, bill.total);
  if (!args.trace_out.empty()) {
    if (spans.WriteJsonLines(args.trace_out)) {
      std::printf("spans: %zu written to %s\n", spans.spans().size(),
                  args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.trace_out.c_str());
    }
  }
  // Both passes verify every result; either failing fails the run.
  PassReport verdict = r;
  verdict.failed += untraced.failed;
  verdict.wrong += untraced.wrong;
  verdict.ops += untraced.ops;
  PrintResult(verdict, m);
  return verdict.failed == 0 && verdict.wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ssb-local|ssb-sharded|"
                 "lookup-ingest> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spill-dir <dir>] [--trace-out <file>]\n");
    return 2;
  }
  perfbench::EchoConfig(args);
  return args.trace ? perfbench::RunTraced(args)
                    : perfbench::RunUntraced(args);
}
