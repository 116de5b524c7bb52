#ifndef HBTREE_BENCH_SUPPORT_SERVE_RUNNER_H_
#define HBTREE_BENCH_SUPPORT_SERVE_RUNNER_H_

#include <vector>

#include "bench_support/calibrate.h"
#include "bench_support/harness.h"
#include "core/workload.h"
#include "serve/server.h"

namespace hbtree::bench {

/// Builds ServerOptions with the pipeline's CPU rates and the CPU-route
/// search costs calibrated for `data` on `platform` — the serve-layer
/// analogue of HbBench's setup.
/// A throwaway host tree is built once for calibration; the server then
/// builds its own snapshot pair from the same data.
template <typename K>
serve::ServerOptions CalibratedServerOptions(
    const sim::PlatformSpec& platform, const std::vector<KeyValue<K>>& data,
    std::uint64_t seed, int bucket_size = 16 * 1024) {
  serve::ServerOptions options;
  options.platform = platform;
  options.pipeline.bucket_size = bucket_size;

  PageRegistry registry;
  typename RegularBTree<K>::Config config;
  config.leaf_fill = options.leaf_fill;
  RegularBTree<K> tree(config, &registry);
  tree.Build(data);
  const std::vector<K> queries = MakeLookupQueries(data, seed);
  const HbCpuRates rates =
      CalibrateHbCpuRates(tree, queries, platform, registry);
  options.pipeline.cpu_queries_per_us = rates.leaf_queries_per_us;
  options.pipeline.cpu_descend_us_per_level = rates.descend_us_per_level;
  options.pipeline.cpu_descend_us_by_depth = rates.descend_us_by_depth;
  const SingleThreadCosts costs = EstimateSingleThreadCosts(
      tree, queries, platform, registry, options.cpu_fallback_depth);
  options.update.cpu_update_us = costs.update_us;
  options.cpu_search_us_per_key = costs.search_us_per_key;
  options.cpu_search_latency_us = costs.search_latency_us;
  return options;
}

}  // namespace hbtree::bench

#endif  // HBTREE_BENCH_SUPPORT_SERVE_RUNNER_H_
