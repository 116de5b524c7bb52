// Cost-based bucket routing (DESIGN.md §9): the modelled GPU lower bound
// never exceeds what the pipeline actually charges, calibrated servers
// route small buckets to the CPU and large ones to the GPU, uncalibrated
// servers always take the GPU, both routes answer identically, and every
// bucket's charge — CPU-routed and degraded-mode fallback included —
// lands on the modelled pipeline clock (and paces the bucket).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <vector>

#include "bench_support/serve_runner.h"
#include "core/workload.h"
#include "fault/fault_injector.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_regular.h"
#include "serve/route.h"
#include "serve/server.h"

namespace hbtree {
namespace {

constexpr std::size_t kKeys = std::size_t{1} << 16;

const std::vector<KeyValue<Key64>>& Dataset() {
  static const std::vector<KeyValue<Key64>> data =
      GenerateDataset<Key64>(kKeys, /*seed=*/3);
  return data;
}

// Calibrated once: the costs are deterministic in (data, platform, seed).
const serve::ServerOptions& Calibrated() {
  static const serve::ServerOptions options =
      bench::CalibratedServerOptions(sim::PlatformSpec::M1(), Dataset(),
                                     /*seed=*/4);
  return options;
}

// Lookup keys mixing hits and misses.
std::vector<Key64> ProbeKeys(std::size_t count) {
  const auto& data = Dataset();
  std::vector<Key64> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back(i % 3 == 2 ? data[(i * 7919) % data.size()].key + 1
                              : data[(i * 7919) % data.size()].key);
  }
  return keys;
}

std::unique_ptr<serve::Server<Key64>> MakeServer(
    const serve::ServerOptions& options) {
  Status status;
  auto server = serve::Server<Key64>::Create(options, Dataset(), &status);
  EXPECT_NE(server, nullptr) << status.message();
  return server;
}

TEST(RouteBound, GpuLowerBoundNeverExceedsPipelineCharge) {
  const sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device(platform.gpu);
  gpu::TransferEngine transfer(&device, platform.pcie);
  HBRegularTree<Key64>::Config tree_config;
  HBRegularTree<Key64> tree(tree_config, &registry, &device, &transfer);
  ASSERT_TRUE(tree.Build(Dataset()));

  constexpr int kM = 16 * 1024;
  for (double rate : {1.0, Calibrated().pipeline.cpu_queries_per_us}) {
    for (int depth : {1, 4}) {
      for (int min_sub : {1024, 1}) {
        for (std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{31}, std::size_t{32},
                              std::size_t{33}, std::size_t{265},
                              std::size_t{1024}, std::size_t{kM}}) {
          PipelineConfig config;
          config.cpu_queries_per_us = rate;
          const int sub = serve::GpuSubBucketSize(kM, depth, min_sub, n);
          config.bucket_size = sub;
          const std::vector<Key64> keys = ProbeKeys(n);
          std::vector<LookupResult<Key64>> results;
          PipelineStats stats;
          ASSERT_TRUE(TryRunSearchPipeline(tree, keys.data(), n, config,
                                           &results, &stats)
                          .ok());
          const double bound = serve::GpuBucketLowerBoundUs<Key64>(
              transfer, platform.gpu, config, n,
              static_cast<std::size_t>(sub));
          EXPECT_GT(bound, 0);
          EXPECT_LE(bound, stats.total_us)
              << "n=" << n << " depth=" << depth << " min_sub=" << min_sub
              << " sub=" << sub << " rate=" << rate;
        }
      }
    }
  }
}

TEST(RouteBound, SingleBucketBoundIsTheRoundTripFormula) {
  const sim::PlatformSpec platform = sim::PlatformSpec::M1();
  gpu::Device device(platform.gpu);
  gpu::TransferEngine transfer(&device, platform.pcie);
  PipelineConfig config;
  config.cpu_queries_per_us = 40.0;
  const std::size_t n = 100;
  const double expected = transfer.HostToDeviceUs(n * sizeof(Key64)) +
                          platform.gpu.kernel_launch_us +
                          transfer.DeviceToHostUs(n * 12) + n / 40.0;
  EXPECT_NEAR(serve::GpuBucketLowerBoundUs<Key64>(transfer, platform.gpu,
                                                  config, n, n),
              expected, 1e-9);
}

TEST(RoutePolicy, CalibratedRouteIsCpuBelowCrossoverAndGpuAbove) {
  const serve::ServerOptions& options = Calibrated();
  ASSERT_GT(options.cpu_search_us_per_key, 0);
  // A lone search cannot beat a pipelined one per key.
  ASSERT_GE(options.cpu_search_latency_us, options.cpu_search_us_per_key);
  gpu::Device device(options.platform.gpu);
  gpu::TransferEngine transfer(&device, options.platform.pcie);
  const int m = options.pipeline.bucket_size;
  auto cpu = [&](std::size_t n) {
    return serve::RouteToCpu(
        serve::CpuBucketUs(options.cpu_search_us_per_key,
                           options.cpu_search_latency_us, n),
        serve::GpuBucketLowerBoundUs<Key64>(
            transfer, options.platform.gpu, options.pipeline, n,
            static_cast<std::size_t>(serve::GpuSubBucketSize(
                m, options.pipeline_depth, options.min_sub_bucket, n))));
  };
  std::size_t crossover = 0;
  while (crossover < static_cast<std::size_t>(m) && cpu(crossover + 1)) {
    ++crossover;
  }
  // Single-key buckets belong on the CPU, a full bucket on the GPU.
  EXPECT_GE(crossover, 1u);
  EXPECT_LT(crossover, static_cast<std::size_t>(m));
  for (std::size_t n = 1; n <= static_cast<std::size_t>(m); ++n) {
    ASSERT_EQ(cpu(n), n <= crossover) << "n=" << n;
  }
}

TEST(RoutePolicy, UncalibratedServerRoutesEveryBucketToGpu) {
  serve::ServerOptions options;
  options.pipeline.cpu_queries_per_us = 20.0;
  auto server = MakeServer(options);
  ASSERT_NE(server, nullptr);
  for (Key64 key : ProbeKeys(32)) server->Lookup(key);
  const serve::ServeStats stats = server->Stats();
  EXPECT_GT(stats.read_buckets, 0u);
  EXPECT_EQ(stats.route_gpu_buckets, stats.read_buckets);
  EXPECT_EQ(stats.route_cpu_buckets, 0u);
  EXPECT_EQ(stats.cpu_fallback_buckets, 0u);
  EXPECT_EQ(server->metrics().counter("serve.route.gpu_buckets").value(),
            stats.read_buckets);
  EXPECT_EQ(
      server->metrics().counter("serve.shard0.route.gpu_buckets").value(),
      stats.read_buckets);
}

TEST(RoutePolicy, CalibratedServerRoutesSmallBucketsToCpuAndFullToGpu) {
  // Blocking lookups: one key per bucket, far below the crossover.
  auto small = MakeServer(Calibrated());
  ASSERT_NE(small, nullptr);
  for (Key64 key : ProbeKeys(16)) small->Lookup(key);
  serve::ServeStats stats = small->Stats();
  EXPECT_EQ(stats.route_cpu_buckets, stats.read_buckets);
  EXPECT_EQ(stats.route_gpu_buckets, 0u);
  EXPECT_EQ(
      small->metrics().counter("serve.shard0.route.cpu_buckets").value(),
      stats.read_buckets);

  // Bursts of exactly one full bucket, far above the crossover: a fill
  // window long enough that every bucket fills.
  serve::ServerOptions options = Calibrated();
  options.pipeline.bucket_size = 2048;
  options.adaptive_bucket = false;
  options.max_batch_delay = std::chrono::seconds(2);
  auto full = MakeServer(options);
  ASSERT_NE(full, nullptr);
  std::vector<std::future<serve::ReadResult<Key64>>> futures;
  for (Key64 key : ProbeKeys(2 * 2048)) {
    futures.push_back(full->SubmitLookup(key));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());
  stats = full->Stats();
  EXPECT_EQ(stats.read_buckets, 2u);
  EXPECT_EQ(stats.route_gpu_buckets, 2u);
  EXPECT_EQ(stats.route_cpu_buckets, 0u);
  EXPECT_EQ(stats.cpu_fallback_buckets, 0u);
}

TEST(RoutePolicy, GpuAndCpuRoutesAnswerIdentically) {
  serve::ServerOptions gpu_options;
  gpu_options.pipeline.cpu_queries_per_us = 20.0;
  auto gpu_server = MakeServer(gpu_options);
  auto cpu_server = MakeServer(Calibrated());
  ASSERT_NE(gpu_server, nullptr);
  ASSERT_NE(cpu_server, nullptr);
  for (Key64 key : ProbeKeys(96)) {
    const LookupResult<Key64> gpu = gpu_server->Lookup(key);
    const LookupResult<Key64> cpu = cpu_server->Lookup(key);
    EXPECT_EQ(gpu.found, cpu.found) << key;
    if (gpu.found) {
      EXPECT_EQ(gpu.value, cpu.value) << key;
    }
  }
  EXPECT_EQ(gpu_server->Stats().route_cpu_buckets, 0u);
  EXPECT_EQ(cpu_server->Stats().route_gpu_buckets, 0u);
}

TEST(RouteCharge, CpuRoutedBucketsSumToPipelineClock) {
  const serve::ServerOptions& options = Calibrated();
  auto server = MakeServer(options);
  ASSERT_NE(server, nullptr);
  for (Key64 key : ProbeKeys(40)) server->Lookup(key);
  const serve::ServeStats stats = server->Stats();
  ASSERT_EQ(stats.route_cpu_buckets, stats.read_buckets);
  const double per_bucket = serve::CpuBucketUs(
      options.cpu_search_us_per_key, options.cpu_search_latency_us, 1);
  EXPECT_NEAR(stats.sim_pipeline_us, stats.read_buckets * per_bucket,
              1e-9 * stats.sim_pipeline_us);
  EXPECT_EQ(stats.modelled_makespan_us, stats.sim_pipeline_us);
}

// Every GPU attempt fails (kernel fault probability 1), so each bucket
// is served by the degraded-mode fallback: before the breaker opens as a
// failed GPU-routed bucket, afterwards as an open-breaker bucket or a
// failed probe. All of them must be charged the CPU price.
serve::ServerOptions AlwaysFailingGpu(double cpu_latency_us) {
  serve::ServerOptions options;
  options.pipeline.cpu_queries_per_us = 20.0;
  options.pipeline.max_device_retries = 0;
  // Priced above the single-key GPU lower bound (~22 µs on M1), so the
  // healthy slot routes its buckets to the (failing) GPU.
  options.cpu_search_us_per_key = 1.0;
  options.cpu_search_latency_us = cpu_latency_us;
  options.fault.seed = 9;
  options.fault.site(fault::Site::kKernel).probability = 1.0;
  return options;
}

TEST(RouteCharge, FallbackBucketsAreChargedTheCpuPrice) {
  auto server = MakeServer(AlwaysFailingGpu(50.0));
  ASSERT_NE(server, nullptr);
  const std::vector<Key64> keys = ProbeKeys(24);
  for (Key64 key : keys) {
    const serve::ReadResult<Key64> r = server->SubmitLookup(key).get();
    ASSERT_TRUE(r.status.ok()) << r.status.message();
  }
  const serve::ServeStats stats = server->Stats();
  EXPECT_EQ(stats.read_buckets, keys.size());
  EXPECT_EQ(stats.cpu_fallback_buckets, stats.read_buckets);
  EXPECT_GT(stats.breaker_opens, 0u);
  EXPECT_GT(stats.route_gpu_buckets, 0u);
  EXPECT_LT(stats.route_gpu_buckets, stats.read_buckets);
  EXPECT_EQ(stats.route_cpu_buckets, 0u);
  EXPECT_NEAR(stats.sim_pipeline_us, stats.read_buckets * 50.0, 1e-6);
  EXPECT_GT(stats.modelled_ops_per_second, 0);
}

TEST(RouteCharge, FallbackBucketsAreModelPaced) {
  // 4 ms modelled per bucket at pacing 1: a blocking lookup cannot
  // complete sooner. Without a charge the fallback bucket was unpaced.
  serve::ServerOptions options = AlwaysFailingGpu(4000.0);
  options.model_pacing = 1.0;
  auto server = MakeServer(options);
  ASSERT_NE(server, nullptr);
  const auto start = std::chrono::steady_clock::now();
  for (Key64 key : ProbeKeys(5)) server->Lookup(key);
  const double elapsed_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_EQ(server->Stats().cpu_fallback_buckets, 5u);
  EXPECT_GE(elapsed_us, 5 * 4000.0);
}

}  // namespace
}  // namespace hbtree
