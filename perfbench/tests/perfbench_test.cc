// The benchmark's own tests: the percentile rule, the result digest, the
// SSB templates, and that every exact per-layer count repeats at a fixed
// seed while a different seed replays a different sequence.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "measure.h"
#include "workload.h"
#include "workload/ssb.h"

namespace perfbench {
namespace {

using costdb::DataChunk;
using costdb::LogicalType;
using costdb::Value;

TEST(PercentileTest, KeepsTenSamplesBeyond) {
  EXPECT_EQ(MinSamplesFor(0.95), 200u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  std::vector<double> v;
  for (int i = 1; i <= 199; ++i) v.push_back(i);
  double p = 0.0;
  EXPECT_FALSE(Percentile(v, 0.95, &p));  // rank 190: only 9 beyond
  v.push_back(200);
  ASSERT_TRUE(Percentile(v, 0.95, &p));
  EXPECT_EQ(p, 190.0);  // nearest rank: ceil(0.95 * 200)
  ASSERT_TRUE(Percentile(v, 0.5, &p));
  EXPECT_EQ(p, 100.0);
  EXPECT_FALSE(Percentile({}, 0.5, &p));
}

DataChunk Rows(const std::vector<std::vector<Value>>& rows) {
  DataChunk c({LogicalType::kInt64, LogicalType::kDouble,
               LogicalType::kVarchar});
  for (const auto& r : rows) c.AppendRow(r);
  return c;
}

TEST(DigestTest, IgnoresOrderButNotValues) {
  const DataChunk a = Rows({{Value(int64_t{1}), Value(2.5), Value("x")},
                            {Value(int64_t{2}), Value(0.1), Value("y")}});
  const DataChunk b = Rows({{Value(int64_t{2}), Value(0.1), Value("y")},
                            {Value(int64_t{1}), Value(2.5), Value("x")}});
  const DataChunk c = Rows({{Value(int64_t{2}), Value(0.1), Value("y")},
                            {Value(int64_t{1}), Value(2.5), Value("z")}});
  EXPECT_EQ(DigestOf(a), DigestOf(b));
  EXPECT_NE(DigestOf(a), DigestOf(c));
  EXPECT_EQ(DigestOf(a).rows, 2u);
  EXPECT_TRUE(SameRows(a, b));
  EXPECT_FALSE(SameRows(a, c));
  // A re-associated floating-point sum differs in the last bits only.
  const DataChunk d = Rows({{Value(int64_t{2}), Value(0.1 * (1 + 1e-15)),
                             Value("y")},
                            {Value(int64_t{1}), Value(2.5), Value("x")}});
  EXPECT_TRUE(SameRows(a, d));
  EXPECT_FALSE(SameRows(a, Rows({{Value(int64_t{1}), Value(2.5), Value("x")}})));
}

TEST(SsbTemplateTest, DefaultsRenderTheSuite) {
  const auto& templates = SsbTemplates();
  ASSERT_EQ(templates.size(), costdb::SsbQueries().size());
  for (const auto& t : templates) {
    EXPECT_EQ(RenderSql(t.sql, t.defaults), costdb::FindQuery(t.id).sql)
        << t.id;
  }
  EXPECT_EQ(RenderSql("a = ? AND b = ?", {Value("it's"), Value(int64_t{3})}),
            "a = 'it''s' AND b = 3");
}

/// Each workload at a small scale that still exercises every layer: a
/// block cache far smaller than the table, and a memtable that flushes
/// (and compacts) within the pass.
WorkloadConfig SmallConfig(WorkloadKind kind, uint64_t seed) {
  WorkloadConfig c;
  c.kind = kind;
  c.seed = seed;
  c.scale = 0.01;
  c.spill_dir = "perfbench_test_spill/" + std::string(WorkloadName(kind)) +
                "-" + std::to_string(seed);
  return c;
}

PassReport RunOnce(const WorkloadConfig& config, size_t ops) {
  auto inst = Instance::Create(config);
  EXPECT_TRUE(inst.ok()) << inst.status().ToString();
  if (!inst.ok()) return PassReport();
  EXPECT_TRUE((*inst)->BuildReference().ok());
  PassLimits limits;
  limits.ops = ops;
  auto report = (*inst)->Run(limits, nullptr);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : PassReport();
}

void ExpectSameCounts(const PassCounts& a, const PassCounts& b) {
  EXPECT_EQ(a.plan_cache_hits, b.plan_cache_hits);
  EXPECT_EQ(a.plan_cache_lookups, b.plan_cache_lookups);
  EXPECT_EQ(a.plan_cache_entries, b.plan_cache_entries);
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.fused_morsels, b.fused_morsels);
  EXPECT_EQ(a.fallback_morsels, b.fallback_morsels);
  EXPECT_EQ(a.source_rows, b.source_rows);
  EXPECT_EQ(a.rows_moved, b.rows_moved);
  EXPECT_EQ(a.bytes_moved, b.bytes_moved);
  EXPECT_EQ(a.block_hits, b.block_hits);
  EXPECT_EQ(a.block_misses, b.block_misses);
  EXPECT_EQ(a.block_evictions, b.block_evictions);
  EXPECT_EQ(a.queries_with_miss, b.queries_with_miss);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(a.compactions, b.compactions);
  EXPECT_TRUE(a == b);
}

class DeterminismTest : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(DeterminismTest, CountsRepeatAndSeedsDiffer) {
  const WorkloadKind kind = GetParam();
  const size_t ops = kind == WorkloadKind::kLookupIngest ? 600 : 48;
  const PassReport first = RunOnce(SmallConfig(kind, 7), ops);
  const PassReport second = RunOnce(SmallConfig(kind, 7), ops);
  EXPECT_EQ(first.ops, ops);
  EXPECT_EQ(first.failed, 0u);
  EXPECT_EQ(first.wrong, 0u);
  EXPECT_EQ(second.wrong, 0u);
  ExpectSameCounts(first.counts, second.counts);
  EXPECT_EQ(first.sequence, second.sequence);

  const PassReport other = RunOnce(SmallConfig(kind, 8), ops);
  EXPECT_EQ(other.wrong, 0u);
  EXPECT_NE(first.sequence, other.sequence);

  if (kind == WorkloadKind::kLookupIngest) {
    // The pass reaches the storage layer's write and cold-read paths.
    EXPECT_GT(first.counts.block_misses, 0);
    EXPECT_GT(first.counts.block_evictions, 0);
    EXPECT_GE(first.counts.flushes, 1);
    EXPECT_EQ(first.counts.compactions, 1);
    EXPECT_GT(first.counts.puts, 0);
  } else {
    EXPECT_EQ(first.counts.plan_cache_hits, first.counts.plan_cache_lookups);
  }
  if (kind == WorkloadKind::kSsbSharded) {
    EXPECT_GT(first.counts.rows_moved, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DeterminismTest,
    ::testing::Values(WorkloadKind::kSsbLocal, WorkloadKind::kSsbSharded,
                      WorkloadKind::kLookupIngest),
    [](const ::testing::TestParamInfo<WorkloadKind>& info) {
      std::string name = WorkloadName(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace perfbench
