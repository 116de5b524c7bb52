#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_support/args.h"
#include "bench_support/calibrate.h"
#include "bench_support/harness.h"
#include "bench_support/report.h"
#include "bench_support/serve_runner.h"
#include "bench_support/table.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"

namespace hbtree::bench {
namespace {

TEST(Args, ParsesTypesAndDefaults) {
  const char* argv[] = {"prog", "--n_log2=22", "--platform=m2",
                        "--ratio=0.25", "--flag"};
  Args args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("n_log2", 10), 22);
  EXPECT_EQ(args.GetString("platform", "m1"), "m2");
  EXPECT_DOUBLE_EQ(args.GetDouble("ratio", 0.5), 0.25);
  EXPECT_EQ(args.GetString("flag", ""), "true");
  EXPECT_TRUE(args.Has("flag"));
  EXPECT_FALSE(args.Has("missing"));
  EXPECT_EQ(args.GetInt("missing", 7), 7);
}

TEST(Harness, SizeSweepRespectsBoundsAndStep) {
  const char* argv[] = {"prog", "--min_log2=10", "--max_log2=14"};
  Args args(3, const_cast<char**>(argv));
  auto sizes = SizeSweepFromArgs(args, 0, 0, 2);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 1024u);
  EXPECT_EQ(sizes[1], 4096u);
  EXPECT_EQ(sizes[2], 16384u);
}

TEST(TableFormat, NumbersAndSizes) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(10, 0), "10");
  EXPECT_EQ(Table::Log2Size(1 << 20), "1M (2^20)");
  EXPECT_EQ(Table::Log2Size(8 << 20), "8M (2^23)");
  EXPECT_EQ(Table::Log2Size(1 << 12), "4K (2^12)");
  EXPECT_EQ(Table::Log2Size(std::size_t{1} << 30), "1G (2^30)");
}

TEST(Calibrate, BiggerTreesAreSlower) {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  double previous = 1e18;
  for (std::size_t n : {std::size_t{1} << 16, std::size_t{1} << 20,
                        std::size_t{1} << 23}) {
    PageRegistry registry;
    ImplicitBTree<Key64>::Config config;
    ImplicitBTree<Key64> tree(config, &registry);
    auto data = GenerateDataset<Key64>(n, 1);
    tree.Build(data);
    auto queries = MakeLookupQueries(data, 2);
    auto m = MeasureCpuSearch(tree, queries, platform, registry,
                              config.search_algo);
    EXPECT_GT(m.estimate.mqps, 0);
    EXPECT_LE(m.estimate.mqps, previous + 1e-9) << n;
    previous = m.estimate.mqps;
  }
}

TEST(Calibrate, LeafRateExceedsFullSearchRate) {
  // The CPU's HB+-tree share (one leaf line) must be far cheaper than a
  // whole traversal — the premise of the hybrid split.
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  config.hybrid_layout = true;
  ImplicitBTree<Key64> tree(config, &registry);
  auto data = GenerateDataset<Key64>(1 << 21, 3);
  tree.Build(data);
  auto queries = MakeLookupQueries(data, 4);
  auto full = MeasureCpuSearch(tree, queries, platform, registry,
                               config.search_algo);
  auto rates = CalibrateHbCpuRates(tree, queries, platform, registry);
  EXPECT_GT(rates.leaf_queries_per_us, 1.5 * full.estimate.mqps);
  // Per-depth descent costs are monotone in depth.
  for (std::size_t d = 1; d < rates.descend_us_by_depth.size(); ++d) {
    EXPECT_GT(rates.descend_us_by_depth[d],
              rates.descend_us_by_depth[d - 1]);
  }
}

// Forwards to a tree and counts the traced searches calibration runs.
struct CountingTree {
  const RegularBTree<Key64>& tree;
  mutable std::size_t searches = 0;

  const RegularBTree<Key64>::Config& config() const { return tree.config(); }
  template <typename Tracer>
  LookupResult<Key64> Search(Key64 key, Tracer* tracer) const {
    ++searches;
    return tree.Search(key, tracer);
  }
};

TEST(Calibrate, SingleThreadCostsShareOneTracedPass) {
  const sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  RegularBTree<Key64>::Config config;
  config.leaf_fill = 0.7;
  RegularBTree<Key64> tree(config, &registry);
  const auto data = GenerateDataset<Key64>(1 << 16, 5);
  tree.Build(data);
  const auto queries = MakeLookupQueries(data, 6);
  ModelOptions options;
  options.warmup = 4096;
  options.measured = 8192;

  CountingTree counting{tree};
  const SingleThreadCosts costs = EstimateSingleThreadCosts(
      counting, queries, platform, registry, 16, options);
  // One warmed, measured pass — the pipelined cost is re-estimated from
  // the same profile, not traced again.
  EXPECT_EQ(counting.searches, options.warmup + options.measured);

  // The update cost is bit-identical to the single-trace depth-1 formula
  // it has always been.
  ModelOptions single = options;
  single.threads = 1;
  single.pipeline_depth = 1;
  const SearchMeasurement m = MeasureCpuSearch(
      tree, queries, platform, registry, config.search_algo, single);
  EXPECT_EQ(costs.update_us, 1.3 / m.estimate.mqps);
  EXPECT_EQ(costs.search_latency_us, 1.0 / m.estimate.mqps);
  EXPECT_EQ(EstimateUpdateCostUs(tree, queries, platform, registry, options),
            costs.update_us);
  // Software pipelining hides miss latency: cheaper per key than a lone
  // search.
  EXPECT_GT(costs.search_us_per_key, 0);
  EXPECT_LT(costs.search_us_per_key, costs.search_latency_us);
}

TEST(Calibrate, ServerOptionsCarryTheSingleThreadCosts) {
  const sim::PlatformSpec platform = sim::PlatformSpec::M1();
  const auto data = GenerateDataset<Key64>(1 << 16, 7);
  const serve::ServerOptions options =
      CalibratedServerOptions(platform, data, 8);
  PageRegistry registry;
  RegularBTree<Key64>::Config config;
  config.leaf_fill = options.leaf_fill;
  RegularBTree<Key64> tree(config, &registry);
  tree.Build(data);
  const auto queries = MakeLookupQueries(data, 8);
  EXPECT_EQ(options.update.cpu_update_us,
            EstimateUpdateCostUs(tree, queries, platform, registry));
  const SingleThreadCosts costs = EstimateSingleThreadCosts(
      tree, queries, platform, registry, options.cpu_fallback_depth);
  EXPECT_EQ(options.cpu_search_us_per_key, costs.search_us_per_key);
  EXPECT_EQ(options.cpu_search_latency_us, costs.search_latency_us);
}

TEST(BenchReport, RowsKeepInsertionOrderInJson) {
  BenchReport report("unit");
  report.Meta("platform", "m1");
  report.MetaNum("n", 1024);
  report.AddRow().Num("mqps", 12.5, 1).Text("mode", "sync");
  report.AddRow().Num("mqps", 31.25, 2);
  const std::string json = report.ToJson();
  EXPECT_EQ(json.rfind("{\"schema\":\"hbtree.bench.v1\"", 0), 0u);
  EXPECT_NE(json.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"platform\":\"m1\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":1024"), std::string::npos);
  // JSON keeps full precision regardless of the console precision.
  EXPECT_NE(json.find("\"mqps\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"mqps\":31.25"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"sync\""), std::string::npos);
  // No metrics argument, no metrics key.
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
}

TEST(BenchReport, AddServeStatsRowUsesCanonicalColumns) {
  serve::ServeStats stats;
  stats.num_shards = 4;
  stats.num_read_workers = 2;
  stats.reads_per_second = 1000;
  stats.transfer_retries = 2;
  stats.kernel_retries = 1;
  stats.sync_retries = 4;
  stats.shed_reads = 3;
  stats.shed_updates = 2;
  BenchReport report("unit");
  BenchReport::Row& row = report.AddRow();
  row.Num("fault_rate", 0.1, 2);
  report.AddServeStatsRow(row, stats);
  const std::string json = report.ToJson();
  // The canonical serving column set — every serve bench emits exactly
  // these names, so downstream tooling never chases renamed columns.
  for (const char* column :
       {"fault_rate", "shards", "read_workers", "reads_per_s",
        "updates_per_s", "read_p50_us", "read_p99_us", "queue_wait_p99_us",
        "modelled_ops_per_s", "retries", "device_faults", "breaker_opens",
        "breaker_closes", "cpu_fallback_buckets", "shed", "slo_max_burn"}) {
    EXPECT_NE(json.find(std::string("\"") + column + "\":"),
              std::string::npos)
        << column;
  }
  EXPECT_NE(json.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(json.find("\"read_workers\":2"), std::string::npos);
  EXPECT_NE(json.find("\"retries\":7"), std::string::npos);  // 2 + 1 + 4
  EXPECT_NE(json.find("\"shed\":5"), std::string::npos);     // 3 + 2
}

TEST(BenchReport, SloMaxBurnReportsTheWorstObjective) {
  serve::ServeStats stats;
  obs::SloStatus mild;
  mild.name = "a";
  mild.burn_short = 0.5;
  obs::SloStatus hot;
  hot.name = "b";
  hot.burn_short = 3.25;
  stats.slos = {mild, hot};
  BenchReport report("unit");
  report.AddServeStatsRow(report.AddRow(), stats);
  EXPECT_NE(report.ToJson().find("\"slo_max_burn\":3.25"),
            std::string::npos);
}

TEST(BenchReport, SetStagesEmitsTheWaterfallSection) {
  obs::StageWaterfall waterfall;
  obs::StageStats kernel;
  kernel.count = 10;
  kernel.total_us = 300;
  kernel.max_us = 50;
  kernel.share = 0.75;
  obs::StageStats h2d;
  h2d.count = 10;
  h2d.total_us = 100;
  h2d.max_us = 20;
  h2d.share = 0.25;
  waterfall.total_us = 400;
  waterfall.stages = {{"kernel", kernel}, {"h2d", h2d}};
  obs::StageGroup group;
  group.name = "shard0/slot1";
  group.stages = {{"kernel", kernel}};
  waterfall.groups = {group};

  BenchReport report("unit");
  report.AddRow().Num("x", 1, 0);
  report.SetStages(waterfall);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"stages\":{\"total_us\":400"), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\":{\"kernel\":{\"count\":10,"
                      "\"total_us\":300,\"mean_us\":30,\"max_us\":50,"
                      "\"share\":0.75}"),
            std::string::npos);
  EXPECT_NE(json.find("\"groups\":{\"shard0/slot1\":{\"kernel\":"),
            std::string::npos);

  // An empty waterfall (e.g. tracing compiled out) emits no section at
  // all rather than a zero-filled one.
  BenchReport bare("unit");
  bare.AddRow().Num("x", 1, 0);
  bare.SetStages(obs::StageWaterfall{});
  EXPECT_EQ(bare.ToJson().find("\"stages\""), std::string::npos);
}

TEST(BenchReport, EmbedsMetricsSnapshot) {
  obs::MetricsRegistry registry;
  registry.counter("unit.ops").Add(9);
  BenchReport report("unit");
  report.AddRow().Num("x", 1, 0);
  const obs::MetricsSnapshot snapshot = registry.Collect();
  const std::string json = report.ToJson(&snapshot);
  EXPECT_NE(json.find("\"metrics\":{\"schema\":\"hbtree.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"unit.ops\":9"), std::string::npos);
}

TEST(BenchReport, AddRowReferencesSurviveGrowth) {
  BenchReport report("unit");
  BenchReport::Row& first = report.AddRow();
  for (int i = 0; i < 100; ++i) report.AddRow().Num("i", i, 0);
  first.Num("late", 7, 0);  // must not be a dangling reference
  EXPECT_NE(report.ToJson().find("\"late\":7"), std::string::npos);
}

TEST(Calibrate, RebuildModelScalesLinearly) {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  RebuildModel small = ModelImplicitRebuild(1 << 20, 1 << 17, platform);
  RebuildModel large = ModelImplicitRebuild(1 << 24, 1 << 21, platform);
  EXPECT_NEAR(large.l_build_us / small.l_build_us, 16.0, 0.1);
  EXPECT_GT(large.transfer_us, small.transfer_us);
  // Transfer stays a small share of the total (Figure 15).
  const double share =
      large.transfer_us /
      (large.l_build_us + large.i_build_us + large.transfer_us);
  EXPECT_LT(share, 0.12);
}

}  // namespace
}  // namespace hbtree::bench
