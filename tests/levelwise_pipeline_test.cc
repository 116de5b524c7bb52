#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/workload.h"
#include "gpusim/device.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/gpu_kernels.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/hb_regular.h"
#include "obs/heat.h"
#include "sim/platform.h"

namespace hbtree {
namespace {

/// Level-wise dispatch reconciliation (DESIGN.md §14): per launch of a
/// sorted batch, the kernel's modelled node loads at each tree level must
/// equal the number of *distinct* start nodes the batch visits at that
/// level — computed here by an independent host traversal — and never
/// queries x levels. Plus sorted-vs-unsorted result equivalence through
/// the full pipeline.

struct KernelFixture {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
};

/// Runs of equal values in an already-ordered sequence.
std::uint64_t CountRuns(const std::vector<std::uint64_t>& seq) {
  if (seq.empty()) return 0;
  std::uint64_t runs = 1;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (seq[i] != seq[i - 1]) ++runs;
  }
  return runs;
}

/// Copies back a level-wise launch's `count` IndexedResult records.
std::vector<IndexedResult> ReadIndexed(KernelFixture& fx,
                                       gpu::DevicePtr results,
                                       std::uint32_t count) {
  std::vector<IndexedResult> records(count);
  fx.transfer.CopyToHost(records.data(), results,
                         count * sizeof(IndexedResult));
  return records;
}

/// Device bytes of a launch's result scatter: each warp writes its
/// teams' `record`-byte results contiguously, in aligned 64 B segments.
std::uint64_t ResultWriteBytes(std::uint32_t count, std::uint32_t teams,
                               std::uint64_t record) {
  constexpr std::uint64_t kSegment = gpu::WarpScope::kTransactionBytes;
  std::uint64_t bytes = 0;
  for (std::uint32_t w = 0; w < count; w += teams) {
    const std::uint64_t lo = w * record;
    const std::uint64_t hi = std::min(count, w + teams) * record;
    bytes += ((hi - 1) / kSegment - lo / kSegment + 1) * kSegment;
  }
  return bytes;
}

/// Device bytes a launch moved apart from its result scatter — the
/// search's memory side. Level-wise mode writes 12 B IndexedResult
/// records where per-query mode writes 8 B values; that wire-format cost
/// belongs to the D2H stage, not to the node dedup.
std::uint64_t SearchBytes(const gpu::KernelStats& stats, std::uint32_t count,
                          std::uint32_t teams, bool level_wise) {
  return stats.dram_bytes + stats.l2_bytes -
         ResultWriteBytes(count, teams,
                          level_wise ? sizeof(IndexedResult)
                                     : sizeof(std::uint64_t));
}

template <typename K>
std::vector<K> SortedMixedQueries(const std::vector<KeyValue<K>>& data,
                                  std::uint32_t count, std::uint64_t seed) {
  auto queries =
      MakeDistributedQueries<K>(count, Distribution::kUniform, seed);
  for (std::size_t i = 0; i < count; i += 2) {
    queries[i] = data[(i * 131) % data.size()].key;  // guaranteed hits
  }
  std::sort(queries.begin(), queries.end());
  return queries;
}

TEST(ImplicitLevelWise, NodeLoadsEqualDistinctStartNodesPerLevel) {
  KernelFixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(500000, /*seed=*/1);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();
  const int height = host.height();
  ASSERT_GE(height, 2);

  constexpr std::uint32_t kCount = 4096;
  auto queries = SortedMixedQueries<Key64>(data, kCount, /*seed=*/2);

  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(Key64));
  gpu::DevicePtr r_dev = fx.device.Malloc(kCount * sizeof(std::uint64_t));
  gpu::DevicePtr x_dev = fx.device.Malloc(kCount * sizeof(IndexedResult));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(Key64));
  auto params = tree.MakeKernelParams(q_dev, r_dev, kCount);

  gpu::KernelStats base = RunImplicitInnerSearch<Key64>(fx.device, params);
  params.results = x_dev;
  params.level_wise = true;
  gpu::KernelStats lw = RunImplicitInnerSearch<Key64>(fx.device, params);

  // Functional identity: both modes land every query on the same leaf
  // line the host traversal computes.
  std::vector<std::uint64_t> results(kCount);
  fx.transfer.CopyToHost(results.data(), r_dev,
                         kCount * sizeof(std::uint64_t));
  const auto records = ReadIndexed(fx, x_dev, kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(results[i], host.FindLeafLine(queries[i])) << "query " << i;
    const std::uint32_t index = records[i].index;
    ASSERT_EQ(std::uint64_t{records[i].intermediate},
              host.FindLeafLine(queries[index]))
        << "record " << i;
  }

  // Exact reconciliation: at level l the batch's node sequence is the
  // host descent truncated to that level; its run count is the distinct
  // start nodes level-wise dispatch promises to load once each.
  ASSERT_EQ(lw.node_loads_by_level.size(),
            static_cast<std::size_t>(height) + 1);
  for (int level = 1; level <= height; ++level) {
    std::vector<std::uint64_t> nodes(kCount);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      nodes[i] = host.DescendLevels(queries[i], height - level);
    }
    EXPECT_EQ(lw.node_loads_by_level[level], CountRuns(nodes))
        << "level " << level;
    EXPECT_EQ(lw.node_queries_by_level[level], kCount) << "level " << level;
    EXPECT_LE(lw.node_loads_by_level[level],
              lw.node_queries_by_level[level]);
  }

  // Per-query mode loads one node per query at every level; level-wise
  // mode must win on the memory side of the cost model and nothing else.
  EXPECT_EQ(base.node_loads_by_level, base.node_queries_by_level);
  EXPECT_EQ(lw.warps_executed, base.warps_executed);
  EXPECT_LT(lw.memory_gathers, base.memory_gathers);
  EXPECT_LT(SearchBytes(lw, kCount, 4, true),
            SearchBytes(base, kCount, 4, false));
}

TEST(ImplicitLevelWise, ReconcilesFromPreDescendedStartNodes) {
  // Composition with the CPU pre-descent split (Section 5.5): the launch
  // starts below the root, and reconciliation holds per remaining level.
  KernelFixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(500000, /*seed=*/3);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();
  const int height = host.height();
  const int cpu_depth = 2;
  ASSERT_GT(height, cpu_depth);
  const int start_level = height - cpu_depth;

  constexpr std::uint32_t kCount = 2048;
  auto queries = SortedMixedQueries<Key64>(data, kCount, /*seed=*/4);

  std::vector<std::uint32_t> starts(kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    starts[i] =
        static_cast<std::uint32_t>(host.DescendLevels(queries[i], cpu_depth));
  }
  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(Key64));
  gpu::DevicePtr x_dev = fx.device.Malloc(kCount * sizeof(IndexedResult));
  gpu::DevicePtr s_dev = fx.device.Malloc(kCount * sizeof(std::uint32_t));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(Key64));
  fx.transfer.CopyToDevice(s_dev, starts.data(),
                           kCount * sizeof(std::uint32_t));

  auto params = tree.MakeKernelParams(q_dev, x_dev, kCount, start_level,
                                      s_dev);
  params.level_wise = true;
  gpu::KernelStats lw = RunImplicitInnerSearch<Key64>(fx.device, params);

  const auto records = ReadIndexed(fx, x_dev, kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const std::uint32_t index = records[i].index;
    ASSERT_EQ(std::uint64_t{records[i].intermediate},
              host.FindLeafLine(queries[index]))
        << i;
  }

  ASSERT_EQ(lw.node_loads_by_level.size(),
            static_cast<std::size_t>(start_level) + 1);
  for (int level = 1; level <= start_level; ++level) {
    std::vector<std::uint64_t> nodes(kCount);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      nodes[i] = host.DescendLevels(queries[i], height - level);
    }
    EXPECT_EQ(lw.node_loads_by_level[level], CountRuns(nodes))
        << "level " << level;
  }
}

TEST(RegularLevelWise, NodeLoadsEqualDistinctStartNodesPerLevel) {
  KernelFixture fx;
  HBRegularTree<Key64>::Config config;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(300000, /*seed=*/5);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();
  const int height = host.height();
  ASSERT_GE(height, 2);

  constexpr std::uint32_t kCount = 2048;
  auto queries = SortedMixedQueries<Key64>(data, kCount, /*seed=*/6);

  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(Key64));
  gpu::DevicePtr r_dev = fx.device.Malloc(kCount * sizeof(std::uint64_t));
  gpu::DevicePtr x_dev = fx.device.Malloc(kCount * sizeof(IndexedResult));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(Key64));
  auto params = tree.MakeKernelParams(q_dev, r_dev, kCount);

  gpu::KernelStats base = RunRegularInnerSearch<Key64>(fx.device, params);
  params.results = x_dev;
  params.level_wise = true;
  gpu::KernelStats lw = RunRegularInnerSearch<Key64>(fx.device, params);

  std::vector<std::uint64_t> results(kCount);
  fx.transfer.CopyToHost(results.data(), r_dev,
                         kCount * sizeof(std::uint64_t));
  const auto records = ReadIndexed(fx, x_dev, kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    auto expect = host.FindLeafPosition(queries[i]);
    ASSERT_EQ(UnpackLeafNode(results[i]), expect.last_inner) << i;
    ASSERT_EQ(UnpackLeafLine(results[i]), expect.line) << i;
    const std::uint32_t index = records[i].index;
    const std::uint64_t packed = records[i].intermediate;
    expect = host.FindLeafPosition(queries[index]);
    ASSERT_EQ(UnpackLeafNode(packed), expect.last_inner) << "record " << i;
    ASSERT_EQ(UnpackLeafLine(packed), expect.line) << "record " << i;
  }

  ASSERT_EQ(lw.node_loads_by_level.size(),
            static_cast<std::size_t>(height) + 1);
  for (int level = 1; level <= height; ++level) {
    std::vector<std::uint64_t> nodes(kCount);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      nodes[i] = static_cast<std::uint64_t>(
          host.DescendLevels(queries[i], height - level));
    }
    EXPECT_EQ(lw.node_loads_by_level[level], CountRuns(nodes))
        << "level " << level;
    EXPECT_EQ(lw.node_queries_by_level[level], kCount) << "level " << level;
  }
  EXPECT_EQ(lw.warps_executed, base.warps_executed);
  EXPECT_LT(lw.memory_gathers, base.memory_gathers);
  EXPECT_LT(SearchBytes(lw, kCount, 4, true),
            SearchBytes(base, kCount, 4, false));
}

template <typename Tree, typename K>
void ExpectSameResults(Tree& tree, const std::vector<K>& queries,
                       PipelineConfig config) {
  std::vector<LookupResult<K>> level_wise_results;
  std::vector<LookupResult<K>> per_query_results;
  config.level_wise = true;
  PipelineStats lw = RunSearchPipeline(tree, queries.data(), queries.size(),
                                       config, &level_wise_results);
  config.level_wise = false;
  PipelineStats base = RunSearchPipeline(tree, queries.data(), queries.size(),
                                         config, &per_query_results);
  ASSERT_EQ(level_wise_results.size(), queries.size());
  // Write-back through the sort permutation restores the caller's order:
  // result i always answers query i.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(level_wise_results[i].found, per_query_results[i].found) << i;
    if (level_wise_results[i].found) {
      ASSERT_EQ(level_wise_results[i].value, per_query_results[i].value) << i;
    }
  }
  // Accounting invariant across all buckets: strictly fewer node loads
  // than query-level touches, and a cheaper modelled memory side.
  std::uint64_t loads = 0, queries_by_level = 0;
  for (std::uint64_t v : lw.kernel.node_loads_by_level) loads += v;
  for (std::uint64_t v : lw.kernel.node_queries_by_level) queries_by_level += v;
  EXPECT_GT(loads, 0u);
  EXPECT_LT(loads, queries_by_level);
  EXPECT_LT(lw.kernel.memory_gathers, base.kernel.memory_gathers);
  EXPECT_LT(lw.kernel.dram_bytes + lw.kernel.l2_bytes,
            base.kernel.dram_bytes + base.kernel.l2_bytes);
}

TEST(LevelWisePipeline, UnsortedQueriesGetIdenticalAnswers) {
  KernelFixture fx;
  HBImplicitTree<Key64>::Config tree_config;
  HBImplicitTree<Key64> tree(tree_config, &fx.registry, &fx.device,
                             &fx.transfer);
  auto data = GenerateDataset<Key64>(200000, /*seed=*/7);
  ASSERT_TRUE(tree.Build(data));

  auto queries = MakeDistributedQueries<Key64>(20000, Distribution::kZipf,
                                               /*seed=*/8);
  for (std::size_t i = 0; i < queries.size(); i += 3) {
    queries[i] = data[(i * 53) % data.size()].key;
  }
  PipelineConfig config;
  config.bucket_size = 4096;
  ExpectSameResults<HBImplicitTree<Key64>, Key64>(tree, queries, config);
}

TEST(LevelWisePipeline, ComposesWithLoadBalancerSplit) {
  KernelFixture fx;
  HBImplicitTree<Key64>::Config tree_config;
  HBImplicitTree<Key64> tree(tree_config, &fx.registry, &fx.device,
                             &fx.transfer);
  auto data = GenerateDataset<Key64>(200000, /*seed=*/9);
  ASSERT_TRUE(tree.Build(data));

  auto queries = MakeDistributedQueries<Key64>(16384, Distribution::kUniform,
                                               /*seed=*/10);
  for (std::size_t i = 0; i < queries.size(); i += 2) {
    queries[i] = data[(i * 17) % data.size()].key;
  }
  // D=1, R=0.5: every bucket splits into two balanced launches starting
  // at different levels; both are contiguous slices of the sorted bucket.
  PipelineConfig config;
  config.bucket_size = 4096;
  config.cpu_descend_levels = 1;
  config.cpu_split_ratio = 0.5;
  config.cpu_descend_us_per_level = 0.01;
  config.buckets_in_flight = 3;
  ExpectSameResults<HBImplicitTree<Key64>, Key64>(tree, queries, config);
}

TEST(LevelWisePipeline, RegularTreeGetsIdenticalAnswers) {
  KernelFixture fx;
  HBRegularTree<Key64>::Config tree_config;
  HBRegularTree<Key64> tree(tree_config, &fx.registry, &fx.device,
                            &fx.transfer);
  auto data = GenerateDataset<Key64>(200000, /*seed=*/11);
  ASSERT_TRUE(tree.Build(data));

  auto queries = MakeDistributedQueries<Key64>(16384, Distribution::kNormal,
                                               /*seed=*/12);
  for (std::size_t i = 0; i < queries.size(); i += 2) {
    queries[i] = data[(i * 29) % data.size()].key;
  }
  PipelineConfig config;
  config.bucket_size = 4096;
  ExpectSameResults<HBRegularTree<Key64>, Key64>(tree, queries, config);
}

TEST(LevelWisePipeline, HeatSinkCarriesKernelTrafficAndCollapsedTouches) {
  // The regular tree's leaf search is the stage with node-touch heat
  // instrumentation (cpu_leaf big_leaf cells) — use it so the collapsed
  // per-batch touch convention is observable.
  KernelFixture fx;
  HBRegularTree<Key64>::Config tree_config;
  HBRegularTree<Key64> tree(tree_config, &fx.registry, &fx.device,
                            &fx.transfer);
  auto data = GenerateDataset<Key64>(200000, /*seed=*/13);
  ASSERT_TRUE(tree.Build(data));

  auto queries = MakeDistributedQueries<Key64>(8192, Distribution::kZipf,
                                               /*seed=*/14);
  obs::PipelineHeat heat(fx.platform.cpu.cache_levels);
  PipelineConfig config;
  config.bucket_size = 4096;
  config.heat = &heat;
  std::vector<LookupResult<Key64>> results;
  RunSearchPipeline(tree, queries.data(), queries.size(), config, &results);

  std::lock_guard<std::mutex> lock(heat.mu);
  ASSERT_FALSE(heat.kernel_node_loads.empty());
  EXPECT_EQ(heat.kernel_launches, 2u);  // 8192 queries / 4096 bucket
  std::uint64_t loads = 0, queries_by_level = 0;
  for (std::uint64_t v : heat.kernel_node_loads) loads += v;
  for (std::uint64_t v : heat.kernel_node_queries) queries_by_level += v;
  EXPECT_GT(loads, 0u);
  EXPECT_LT(loads, queries_by_level);
  EXPECT_GT(heat.kernel_dram_bytes + heat.kernel_l2_bytes, 0u);

  // Collapse-repeats heat semantics: with sorted dispatch the CPU leaf
  // tracer counts distinct leaf visits per batch, so a skewed stream
  // cannot report more touches than queries — and must report fewer
  // (Zipf repeats the hot keys back to back after the sort).
  std::vector<obs::LevelTraffic> cells;
  heat.cpu_leaf.Collect(&cells);
  std::uint64_t touches = 0;
  for (const auto& cell : cells) touches += cell.touches;
  EXPECT_GT(touches, 0u);
  EXPECT_LT(touches, queries.size());
}

// ---------------------------------------------------------------------
// Device-side bucket sort: the level-wise launch sorts its own (key,
// caller index) records, so the pipeline stages buckets in caller order,
// the CPU stage carries only the leaf search, and every result comes back
// with its caller index.

/// Hits with distinct values, misses, and a small pool of repeated keys
/// (ties), interleaved in caller order.
template <typename K>
std::vector<K> TiedMixedQueries(const std::vector<KeyValue<K>>& data,
                                std::size_t count, std::uint64_t seed) {
  auto queries = MakeDistributedQueries<K>(count, Distribution::kUniform,
                                           seed);  // ~all misses
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 3 == 0) queries[i] = data[(i * 7919) % data.size()].key;
    if (i % 3 == 1) queries[i] = data[(i % 5) * 101].key;  // ties
  }
  return queries;
}

template <typename Tree, typename K>
void ExpectEveryResultAnswersItsQuery(Tree& tree,
                                      const std::vector<KeyValue<K>>& data,
                                      const std::vector<K>& queries,
                                      const PipelineConfig& config) {
  std::unordered_map<K, K> oracle;
  for (const auto& kv : data) oracle.emplace(kv.key, kv.value);
  std::vector<LookupResult<K>> results;
  RunSearchPipeline(tree, queries.data(), queries.size(), config, &results);
  ASSERT_EQ(results.size(), queries.size());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto it = oracle.find(queries[i]);
    ASSERT_EQ(results[i].found, it != oracle.end()) << "query " << i;
    if (it != oracle.end()) {
      ASSERT_EQ(results[i].value, it->second) << "query " << i;
      ++hits;
    }
  }
  EXPECT_GT(hits, 0u);
  if (queries.size() > 2) {
    EXPECT_LT(hits, queries.size());
  }
}

/// Bucket sizes at warp, tile and bucket edges: one full bucket of m plus
/// a partial last bucket of s queries, with and without the Section 5.5
/// split (D=1, R=0.5 — each launch sorts its own slice).
template <typename Tree, typename K>
void CheckPermutationAcrossBucketSizes(Tree& tree,
                                       const std::vector<KeyValue<K>>& data) {
  constexpr std::uint32_t kM = 512;  // above one sort tile: partition path
  for (bool split : {false, true}) {
    PipelineConfig config;
    config.bucket_size = kM;
    if (split) {
      config.cpu_descend_levels = 1;
      config.cpu_split_ratio = 0.5;
      config.cpu_descend_us_per_level = 0.01;
      config.buckets_in_flight = 3;
    }
    for (std::uint32_t s : {1u, 2u, 3u, 4u, 5u, 31u, 32u, 33u, kM - 1, kM}) {
      SCOPED_TRACE(testing::Message() << "split=" << split << " s=" << s);
      ExpectEveryResultAnswersItsQuery<Tree, K>(
          tree, data, TiedMixedQueries<K>(data, s, /*seed=*/s), config);
      ExpectEveryResultAnswersItsQuery<Tree, K>(
          tree, data, TiedMixedQueries<K>(data, kM + s, /*seed=*/kM + s),
          config);
    }
  }
}

TEST(LevelWisePermutation, ImplicitResultIAnswersQueryI) {
  KernelFixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(100000, /*seed=*/21);
  ASSERT_TRUE(tree.Build(data));
  CheckPermutationAcrossBucketSizes<HBImplicitTree<Key64>, Key64>(tree, data);
}

TEST(LevelWisePermutation, Implicit32ResultIAnswersQueryI) {
  KernelFixture fx;
  HBImplicitTree<Key32>::Config config;
  HBImplicitTree<Key32> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key32>(100000, /*seed=*/22);
  ASSERT_TRUE(tree.Build(data));
  CheckPermutationAcrossBucketSizes<HBImplicitTree<Key32>, Key32>(tree, data);
}

TEST(LevelWisePermutation, RegularResultIAnswersQueryI) {
  KernelFixture fx;
  HBRegularTree<Key64>::Config config;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(100000, /*seed=*/23);
  ASSERT_TRUE(tree.Build(data));
  CheckPermutationAcrossBucketSizes<HBRegularTree<Key64>, Key64>(tree, data);
}

TEST(LevelWisePermutation, SkewedBucketsAboveOneTile) {
  // Zipf buckets: one key fills most of each launch, so the partition
  // passes see equality buckets far above a tile.
  KernelFixture fx;
  HBRegularTree<Key64>::Config config;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(100000, /*seed=*/24);
  ASSERT_TRUE(tree.Build(data));
  auto queries = MakeDistributedQueries<Key64>(10000, Distribution::kZipf,
                                               /*seed=*/25);
  for (std::size_t i = 0; i < queries.size(); i += 4) {
    queries[i] = data[(i * 31) % data.size()].key;
  }
  PipelineConfig pipeline;
  pipeline.bucket_size = 4096;
  ExpectEveryResultAnswersItsQuery<HBRegularTree<Key64>, Key64>(
      tree, data, queries, pipeline);
}

TEST(LevelWiseSortPhase, IndexedRecordsAnswerUnsortedInput) {
  // The kernel alone answers unsorted input: every record carries the
  // caller index of the query it resolved, and each caller index comes
  // back exactly once.
  KernelFixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(200000, /*seed=*/26);
  ASSERT_TRUE(tree.Build(data));
  constexpr std::uint32_t kCount = 3000;
  auto queries = TiedMixedQueries<Key64>(data, kCount, /*seed=*/27);

  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(Key64));
  gpu::DevicePtr x_dev = fx.device.Malloc(kCount * sizeof(IndexedResult));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(Key64));
  auto params = tree.MakeKernelParams(q_dev, x_dev, kCount);
  params.level_wise = true;
  RunImplicitInnerSearch<Key64>(fx.device, params);
  const auto records = ReadIndexed(fx, x_dev, kCount);
  std::vector<bool> seen(kCount, false);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const std::uint32_t index = records[i].index;
    ASSERT_LT(index, kCount) << i;
    ASSERT_FALSE(seen[index]) << i;
    seen[index] = true;
    ASSERT_EQ(std::uint64_t{records[i].intermediate},
              tree.host_tree().FindLeafLine(queries[index]))
        << i;
  }
}

/// Small-bucket guard: serving buckets hold a handful of keys, so a
/// one-warp launch must not pay device-memory traffic for the sort. For
/// one warp, level-wise mode without a sort phase issues exactly the
/// per-query mode's gathers — each level's first team leads, and its
/// followers share the leader's segments — so per-query mode on the same
/// pre-sorted input is the reference for memory gathers, transactions and
/// warps. The sort may add only ALU and shared memory.
template <typename Tree, typename K, typename Kernel>
void ExpectOneWarpSortIsFree(Tree& tree, KernelFixture& fx,
                             const std::vector<KeyValue<K>>& data,
                             Kernel kernel) {
  for (std::uint32_t n = 1; n <= 4; ++n) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    std::vector<K> queries(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      queries[i] = data[(i * 977 + 13) % data.size()].key;
    }
    if (n == 4) queries[1] = queries[2];  // a tie
    std::sort(queries.begin(), queries.end());

    gpu::DevicePtr q_dev = fx.device.Malloc(n * sizeof(K));
    gpu::DevicePtr r_dev = fx.device.Malloc(n * sizeof(std::uint64_t));
    gpu::DevicePtr x_dev = fx.device.Malloc(n * sizeof(IndexedResult));
    fx.transfer.CopyToDevice(q_dev, queries.data(), n * sizeof(K));
    auto params = tree.MakeKernelParams(q_dev, r_dev, n);
    const gpu::KernelStats base = kernel(fx.device, params);
    params.results = x_dev;
    params.level_wise = true;
    const gpu::KernelStats lw = kernel(fx.device, params);

    EXPECT_EQ(lw.warps_executed, 1u);
    EXPECT_EQ(lw.warps_executed, base.warps_executed);
    EXPECT_EQ(lw.memory_gathers, base.memory_gathers);
    EXPECT_EQ(lw.memory_transactions, base.memory_transactions);
    EXPECT_EQ(lw.dram_bytes + lw.l2_bytes, base.dram_bytes + base.l2_bytes);
    EXPECT_GE(lw.warp_instructions, base.warp_instructions);
    EXPECT_GE(lw.shared_accesses, base.shared_accesses);

    std::vector<std::uint64_t> expect(n);
    std::vector<IndexedResult> got(n);
    fx.transfer.CopyToHost(expect.data(), r_dev, n * sizeof(std::uint64_t));
    fx.transfer.CopyToHost(got.data(), x_dev, n * sizeof(IndexedResult));
    for (std::uint32_t i = 0; i < n; ++i) {
      // Copies: the wire record is packed, so its fields cannot bind to
      // the references EXPECT_EQ takes.
      const std::uint32_t index = got[i].index;
      const std::uint64_t intermediate = got[i].intermediate;
      EXPECT_EQ(index, i);
      EXPECT_EQ(intermediate, expect[i]);
    }
    fx.device.Free(q_dev);
    fx.device.Free(r_dev);
    fx.device.Free(x_dev);
  }
}

TEST(LevelWiseSortPhase, OneWarpLaunchAddsOnlyAluAndSharedImplicit) {
  KernelFixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(200000, /*seed=*/28);
  ASSERT_TRUE(tree.Build(data));
  ExpectOneWarpSortIsFree<HBImplicitTree<Key64>, Key64>(
      tree, fx, data,
      [](gpu::Device& d, const ImplicitKernelParams<Key64>& p) {
        return RunImplicitInnerSearch<Key64>(d, p);
      });
}

TEST(LevelWiseSortPhase, OneWarpLaunchAddsOnlyAluAndSharedRegular) {
  KernelFixture fx;
  HBRegularTree<Key64>::Config config;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(200000, /*seed=*/29);
  ASSERT_TRUE(tree.Build(data));
  ExpectOneWarpSortIsFree<HBRegularTree<Key64>, Key64>(
      tree, fx, data,
      [](gpu::Device& d, const RegularKernelParams<Key64>& p) {
        return RunRegularInnerSearch<Key64>(d, p);
      });
}

/// Regression guard for CPU-stage billing: without load balancing the
/// CPU stage is the calibrated leaf search and nothing else (any per-key
/// host charge lands on the pipeline's bottleneck stage: 0.004 us/key
/// halves 16K-bucket throughput), and the kernel's node loads for a
/// bucket staged in caller order equal the runs of the host-sorted
/// bucket, level by level.
template <typename Tree, typename DescendFn>
void ExpectCpuStageIsLeafSearchOnly(Tree& tree,
                                    const std::vector<KeyValue<Key64>>& data,
                                    int height, DescendFn descend) {
  auto queries = TiedMixedQueries<Key64>(data, 20000, /*seed=*/30);
  PipelineConfig config;
  config.bucket_size = 4096;       // 4 full buckets + one of 3616
  config.cpu_queries_per_us = 0.5;  // exact in binary floating point
  PipelineStats stats =
      RunSearchPipeline(tree, queries.data(), queries.size(), config);
  const double buckets = 5;
  EXPECT_EQ(stats.t4_us * buckets, queries.size() / config.cpu_queries_per_us);
  EXPECT_EQ(stats.sample_cpu_us * buckets,
            queries.size() / config.cpu_queries_per_us);

  // One unsorted bucket through the pipeline vs. the host-sorted runs.
  std::vector<Key64> bucket(queries.begin(), queries.begin() + 4096);
  PipelineStats one = RunSearchPipeline(tree, bucket.data(), bucket.size(),
                                        config);
  std::vector<Key64> sorted = bucket;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(one.kernel.node_loads_by_level.size(),
            static_cast<std::size_t>(height) + 1);
  for (int level = 1; level <= height; ++level) {
    std::vector<std::uint64_t> nodes(sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      nodes[i] = static_cast<std::uint64_t>(descend(sorted[i], height - level));
    }
    EXPECT_EQ(one.kernel.node_loads_by_level[level], CountRuns(nodes))
        << "level " << level;
  }
}

TEST(PipelineBilling, CpuStageIsLeafSearchOnlyImplicit) {
  KernelFixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(300000, /*seed=*/31);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();
  ExpectCpuStageIsLeafSearchOnly(tree, data, host.height(),
                                 [&host](Key64 key, int depth) {
                                   return host.DescendLevels(key, depth);
                                 });
}

TEST(PipelineBilling, CpuStageIsLeafSearchOnlyRegular) {
  KernelFixture fx;
  HBRegularTree<Key64>::Config config;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(300000, /*seed=*/32);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();
  ExpectCpuStageIsLeafSearchOnly(tree, data, host.height(),
                                 [&host](Key64 key, int depth) {
                                   return host.DescendLevels(key, depth);
                                 });
}

}  // namespace
}  // namespace hbtree
