#include "hybrid/range_pipeline.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/workload.h"
#include "fault/fault_injector.h"
#include "sim/platform.h"

namespace hbtree {
namespace {

struct Fixture {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
};

template <typename K>
class RangePipelineTypedTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(RangePipelineTypedTest, KeyTypes);

TYPED_TEST(RangePipelineTypedTest, ImplicitMatchesHostRangeScan) {
  using K = TypeParam;
  Fixture fx;
  typename HBImplicitTree<K>::Config config;
  HBImplicitTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<K>(60000, /*seed=*/1);
  ASSERT_TRUE(tree.Build(data));

  constexpr int kMatches = 16;
  auto rq = MakeRangeQueries(data, 5000, kMatches, /*seed=*/2);
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10;
  std::vector<KeyValue<K>> pairs;
  std::vector<int> counts;
  PipelineStats stats = RunRangePipeline(tree, rq.data(), rq.size(),
                                         kMatches, pconfig, &pairs, &counts);
  EXPECT_EQ(stats.queries, rq.size());
  KeyValue<K> expect[kMatches];
  for (std::size_t i = 0; i < rq.size(); ++i) {
    int expect_count = tree.host_tree().RangeScan(rq[i].first_key, kMatches,
                                                  expect);
    ASSERT_EQ(counts[i], expect_count) << i;
    for (int j = 0; j < expect_count; ++j) {
      ASSERT_EQ(pairs[i * kMatches + j], expect[j]) << i << "," << j;
    }
  }
}

TYPED_TEST(RangePipelineTypedTest, RegularMatchesHostRangeScan) {
  using K = TypeParam;
  Fixture fx;
  typename HBRegularTree<K>::Config config;
  config.tree.leaf_fill = 0.8;
  HBRegularTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<K>(60000, /*seed=*/3);
  ASSERT_TRUE(tree.Build(data));

  constexpr int kMatches = 8;
  auto rq = MakeRangeQueries(data, 4000, kMatches, /*seed=*/4);
  PipelineConfig pconfig;
  pconfig.bucket_size = 512;
  pconfig.cpu_queries_per_us = 10;
  std::vector<KeyValue<K>> pairs;
  std::vector<int> counts;
  RunRangePipeline(tree, rq.data(), rq.size(), kMatches, pconfig, &pairs,
                   &counts);
  KeyValue<K> expect[kMatches];
  for (std::size_t i = 0; i < rq.size(); ++i) {
    int expect_count = tree.host_tree().RangeScan(rq[i].first_key, kMatches,
                                                  expect);
    ASSERT_EQ(counts[i], expect_count) << i;
    for (int j = 0; j < expect_count; ++j) {
      ASSERT_EQ(pairs[i * kMatches + j], expect[j]);
    }
  }
}

TEST(RangePipeline, StartKeysAboveMaximumYieldZeroMatches) {
  Fixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(10000, /*seed=*/5);
  ASSERT_TRUE(tree.Build(data));
  std::vector<RangeQuery<Key64>> rq(256,
                                    {KeyTraits<Key64>::kMax - 1, 4});
  PipelineConfig pconfig;
  pconfig.bucket_size = 128;
  pconfig.cpu_queries_per_us = 10;
  std::vector<KeyValue<Key64>> pairs;
  std::vector<int> counts;
  RunRangePipeline(tree, rq.data(), rq.size(), 4, pconfig, &pairs, &counts);
  for (int count : counts) EXPECT_EQ(count, 0);
}

/// Runs `rq` through TryRunRangePipeline and checks every query's scan
/// against the host tree's own RangeScan.
template <typename Tree, typename K>
PipelineStats ExpectHostIdenticalScans(Tree& tree,
                                       const std::vector<RangeQuery<K>>& rq,
                                       const PipelineConfig& config) {
  constexpr int kMatches = 8;
  std::vector<KeyValue<K>> pairs;
  std::vector<int> counts;
  PipelineStats stats;
  const Status status = TryRunRangePipeline(tree, rq.data(), rq.size(),
                                            kMatches, config, &pairs, &counts,
                                            &stats);
  EXPECT_TRUE(status.ok()) << status.message();
  if (!status.ok()) return stats;
  EXPECT_EQ(stats.queries, rq.size());
  KeyValue<K> expect[kMatches];
  for (std::size_t i = 0; i < rq.size(); ++i) {
    const int expect_count =
        tree.host_tree().RangeScan(rq[i].first_key, kMatches, expect);
    EXPECT_EQ(counts[i], expect_count) << i;
    if (counts[i] != expect_count) return stats;
    for (int j = 0; j < expect_count; ++j) {
      EXPECT_EQ(pairs[i * kMatches + j], expect[j]) << i << "," << j;
    }
  }
  return stats;
}

/// Both dispatch modes, with and without the D=1/R=0.5 load-balancer
/// split: ranges run the lookup pipeline's bucket loop, so every one of
/// its launch shapes must hand the scan the right start position.
template <typename Tree>
void ExpectScansAcrossLaunchShapes(Tree& tree,
                                   const std::vector<RangeQuery<Key64>>& rq) {
  for (bool level_wise : {false, true}) {
    for (bool split : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "level_wise=" << level_wise << " split=" << split);
      PipelineConfig config;
      config.bucket_size = 1024;  // 3 full buckets + a partial one
      config.cpu_queries_per_us = 10;
      config.level_wise = level_wise;
      if (split) {
        config.cpu_descend_levels = 1;
        config.cpu_split_ratio = 0.5;
        config.cpu_descend_us_per_level = 0.01;
        config.buckets_in_flight = 3;
      }
      const PipelineStats stats = ExpectHostIdenticalScans(tree, rq, config);
      // The pre-descent is charged to the CPU stage only with the split.
      const double buckets = static_cast<double>((rq.size() + 1023) / 1024);
      EXPECT_EQ(stats.t4_us * buckets > rq.size() / config.cpu_queries_per_us +
                                            1.0,
                split);
    }
  }
}

TEST(RangePipeline, ImplicitScansMatchHostAcrossLaunchShapes) {
  Fixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(100000, /*seed=*/6);
  ASSERT_TRUE(tree.Build(data));
  ASSERT_GE(tree.host_tree().height(), 2);
  ExpectScansAcrossLaunchShapes(tree,
                                MakeRangeQueries(data, 3500, 8, /*seed=*/7));
}

TEST(RangePipeline, RegularScansMatchHostAcrossLaunchShapes) {
  Fixture fx;
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.8;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(300000, /*seed=*/8);
  ASSERT_TRUE(tree.Build(data));
  ASSERT_GE(tree.host_tree().height(), 2);
  ExpectScansAcrossLaunchShapes(tree,
                                MakeRangeQueries(data, 3500, 8, /*seed=*/9));
}

TEST(RangePipeline, TransientTransferFaultsRetryToIdenticalScans) {
  Fixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(60000, /*seed=*/10);
  ASSERT_TRUE(tree.Build(data));
  auto rq = MakeRangeQueries(data, 3000, 8, /*seed=*/11);

  // Armed after the build, whose mirror upload must not fault.
  fault::FaultConfig faults;
  faults.site(fault::Site::kTransferH2D).fail_ordinals = {1, 3};
  faults.site(fault::Site::kTransferD2H).fail_ordinals = {2};
  fault::FaultInjector injector(faults);
  fx.device.set_fault_injector(&injector);
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10;
  const PipelineStats stats = ExpectHostIdenticalScans(tree, rq, pconfig);
  EXPECT_EQ(stats.transfer_retries, 3u);
  EXPECT_EQ(injector.total_injected(), 3u);
  fx.device.set_fault_injector(nullptr);
}

TEST(RangePipeline, TerminalFaultsReturnTypedStatus) {
  Fixture fx;
  HBRegularTree<Key64>::Config config;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(60000, /*seed=*/12);
  ASSERT_TRUE(tree.Build(data));
  auto rq = MakeRangeQueries(data, 2000, 4, /*seed=*/13);
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10;
  std::vector<KeyValue<Key64>> pairs;
  std::vector<int> counts;
  PipelineStats stats;

  // Every H2D transfer faults: the bounded retries run out.
  fault::FaultInjector transfers(fault::FaultConfig::Transfers(1.0, 1));
  fx.device.set_fault_injector(&transfers);
  Status status = TryRunRangePipeline(tree, rq.data(), rq.size(), 4, pconfig,
                                      &pairs, &counts, &stats);
  EXPECT_EQ(status.code(), StatusCode::kTransferFailure);
  EXPECT_EQ(stats.transfer_retries,
            static_cast<std::uint64_t>(pconfig.max_device_retries));

  // The bucket buffers cannot be allocated.
  fault::FaultConfig alloc;
  alloc.site(fault::Site::kDeviceAlloc).probability = 1.0;
  fault::FaultInjector allocs(alloc);
  fx.device.set_fault_injector(&allocs);
  status = TryRunRangePipeline(tree, rq.data(), rq.size(), 4, pconfig, &pairs,
                               &counts, &stats);
  EXPECT_EQ(status.code(), StatusCode::kDeviceOom);
  fx.device.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace hbtree
