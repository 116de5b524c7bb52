#ifndef HBTREE_BENCH_SUPPORT_CALIBRATE_H_
#define HBTREE_BENCH_SUPPORT_CALIBRATE_H_

#include <cstdint>
#include <vector>

#include "core/simd.h"
#include "core/types.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"
#include "mem/page_allocator.h"
#include "sim/cpu_cost_model.h"
#include "sim/platform.h"

namespace hbtree::bench {

/// Calibration helpers: run *traced* searches through the platform
/// simulator and turn the measured memory profile into the modelled rates
/// the figure harnesses and the bucket pipeline consume.
///
/// Every helper warms the cache/TLB simulators first and measures steady
/// state, mirroring how the paper measures sustained throughput.

struct ModelOptions {
  int threads = 0;          // 0 = the platform's hardware thread count
  int pipeline_depth = 16;  // software pipeline depth (Section 4.2)
  std::size_t warmup = std::size_t{1} << 16;
  std::size_t measured = std::size_t{1} << 17;
};

struct SearchMeasurement {
  sim::CpuTracer::Profile profile;
  sim::CpuEstimate estimate;
};

namespace calibrate_internal {

inline sim::CpuExecutionParams MakeParams(const sim::PlatformSpec& platform,
                                          NodeSearchAlgo algo,
                                          const ModelOptions& options) {
  sim::CpuExecutionParams params;
  params.threads =
      options.threads > 0 ? options.threads : platform.cpu.threads;
  params.pipeline_depth = options.pipeline_depth;
  params.compute_ns_per_access = sim::ComputeNsPerAccess(platform.cpu, algo);
  return params;
}

}  // namespace calibrate_internal

/// Generic traced measurement: `op(tracer, i)` performs the i-th query
/// (bracketing it with OnQueryStart/End itself or relying on the callee).
template <typename Fn>
SearchMeasurement MeasureCpuOp(const sim::PlatformSpec& platform,
                               const PageRegistry& registry,
                               NodeSearchAlgo algo,
                               const ModelOptions& options, Fn&& op) {
  sim::CpuTracer tracer(platform.cpu, &registry);
  for (std::size_t i = 0; i < options.warmup; ++i) op(tracer, i);
  tracer.ResetStats();
  for (std::size_t i = 0; i < options.measured; ++i) {
    op(tracer, options.warmup + i);
  }
  SearchMeasurement m;
  m.profile = tracer.profile();
  m.estimate = sim::EstimateCpuThroughput(
      platform.cpu, m.profile,
      calibrate_internal::MakeParams(platform, algo, options));
  return m;
}

/// Full-search measurement for any tree exposing
/// `Search(key, Tracer*)` — the CPU-optimized trees and FAST.
template <typename Tree, typename K>
SearchMeasurement MeasureCpuSearch(const Tree& tree,
                                   const std::vector<K>& queries,
                                   const sim::PlatformSpec& platform,
                                   const PageRegistry& registry,
                                   NodeSearchAlgo algo,
                                   const ModelOptions& options = {}) {
  HBTREE_CHECK(!queries.empty());
  sim::CpuTracer tracer(platform.cpu, &registry);
  const std::size_t total = queries.size();
  for (std::size_t i = 0; i < options.warmup; ++i) {
    tree.Search(queries[i % total], &tracer);
  }
  tracer.ResetStats();
  for (std::size_t i = 0; i < options.measured; ++i) {
    tree.Search(queries[(options.warmup + i) % total], &tracer);
  }
  SearchMeasurement m;
  m.profile = tracer.profile();
  m.estimate = sim::EstimateCpuThroughput(
      platform.cpu, m.profile,
      calibrate_internal::MakeParams(platform, algo, options));
  return m;
}

/// CPU rates needed by the heterogeneous pipeline (Section 5.4/5.5):
/// the leaf-search rate (queries per µs — numerically equal to MQPS) and
/// the per-level cost of a partial inner descent.
struct HbCpuRates {
  double leaf_queries_per_us = 1.0;
  double descend_us_per_level = 0.0;
  /// Modelled CPU cost (µs per query) of descending exactly `d` levels
  /// from the root; index 0 is 0. The top levels live in cache, so
  /// cost[d] grows much slower than d * (average level cost) — this is
  /// what makes the load-balancing scheme profitable (Section 5.5).
  std::vector<double> descend_us_by_depth = {0.0};
};

/// Implicit HB+-tree: leaf step = one L-segment line search per query.
template <typename K>
HbCpuRates CalibrateHbCpuRates(const ImplicitBTree<K>& tree,
                               const std::vector<K>& queries,
                               const sim::PlatformSpec& platform,
                               const PageRegistry& registry,
                               const ModelOptions& options = {}) {
  HBTREE_CHECK(!queries.empty());
  const NodeSearchAlgo algo = tree.config().search_algo;
  const std::size_t total = queries.size();
  HbCpuRates rates;
  {
    sim::CpuTracer tracer(platform.cpu, &registry);
    auto run = [&](std::size_t begin, std::size_t count, bool traced) {
      for (std::size_t i = 0; i < count; ++i) {
        const K q = queries[(begin + i) % total];
        const std::uint64_t line = tree.FindLeafLine(q);
        if (traced) {
          tracer.OnQueryStart();
          tree.SearchLeafLine(line, q, &tracer);
          tracer.OnQueryEnd();
        }
      }
    };
    run(0, options.warmup, true);
    tracer.ResetStats();
    run(options.warmup, options.measured, true);
    rates.leaf_queries_per_us =
        sim::EstimateCpuThroughput(
            platform.cpu, tracer.profile(),
            calibrate_internal::MakeParams(platform, algo, options))
            .mqps;
  }
  if (tree.height() > 0) {
    // Inner-descent cost: trace partial descents of every depth. Using a
    // smaller sample per depth keeps calibration cheap.
    ModelOptions depth_options = options;
    depth_options.warmup = options.warmup / 4;
    depth_options.measured = options.measured / 4;
    for (int depth = 1; depth <= tree.height(); ++depth) {
      sim::CpuTracer tracer(platform.cpu, &registry);
      auto run = [&](std::size_t begin, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
          tracer.OnQueryStart();
          tree.DescendLevels(queries[(begin + i) % total], depth, &tracer);
          tracer.OnQueryEnd();
        }
      };
      run(0, depth_options.warmup);
      tracer.ResetStats();
      run(depth_options.warmup, depth_options.measured);
      const double mqps =
          sim::EstimateCpuThroughput(
              platform.cpu, tracer.profile(),
              calibrate_internal::MakeParams(platform, algo, depth_options))
              .mqps;
      rates.descend_us_by_depth.push_back(1.0 / mqps);
    }
    rates.descend_us_per_level =
        rates.descend_us_by_depth.back() / tree.height();
  }
  return rates;
}

/// Regular HB+-tree: leaf step = one big-leaf line search per query.
template <typename K>
HbCpuRates CalibrateHbCpuRates(const RegularBTree<K>& tree,
                               const std::vector<K>& queries,
                               const sim::PlatformSpec& platform,
                               const PageRegistry& registry,
                               const ModelOptions& options = {}) {
  HBTREE_CHECK(!queries.empty());
  const NodeSearchAlgo algo = tree.config().search_algo;
  const std::size_t total = queries.size();
  HbCpuRates rates;
  {
    sim::CpuTracer tracer(platform.cpu, &registry);
    auto run = [&](std::size_t begin, std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        const K q = queries[(begin + i) % total];
        auto pos = tree.FindLeafPosition(q);
        tracer.OnQueryStart();
        tree.SearchLeafLine(pos, q, &tracer);
        tracer.OnQueryEnd();
      }
    };
    run(0, options.warmup);
    tracer.ResetStats();
    run(options.warmup, options.measured);
    rates.leaf_queries_per_us =
        sim::EstimateCpuThroughput(
            platform.cpu, tracer.profile(),
            calibrate_internal::MakeParams(platform, algo, options))
            .mqps;
  }
  if (tree.height() > 1) {
    ModelOptions depth_options = options;
    depth_options.warmup = options.warmup / 4;
    depth_options.measured = options.measured / 4;
    for (int depth = 1; depth <= tree.height() - 1; ++depth) {
      sim::CpuTracer tracer(platform.cpu, &registry);
      auto run = [&](std::size_t begin, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
          tracer.OnQueryStart();
          tree.DescendLevels(queries[(begin + i) % total], depth, &tracer);
          tracer.OnQueryEnd();
        }
      };
      run(0, depth_options.warmup);
      tracer.ResetStats();
      run(depth_options.warmup, depth_options.measured);
      const double mqps =
          sim::EstimateCpuThroughput(
              platform.cpu, tracer.profile(),
              calibrate_internal::MakeParams(platform, algo, depth_options))
              .mqps;
      rates.descend_us_by_depth.push_back(1.0 / mqps);
    }
    rates.descend_us_per_level =
        rates.descend_us_by_depth.back() / (tree.height() - 1);
  }
  return rates;
}

/// Modelled single-thread costs of a full search, all from ONE traced
/// pass at depth 1 (re-estimated, not re-traced, at the pipelined
/// depth): what the serving layer charges a bucket served on the CPU
/// and an update query.
struct SingleThreadCosts {
  double search_us_per_key = 0;  // software-pipelined at pipeline_depth
  double search_latency_us = 0;  // one lone search (depth 1)
  double update_us = 0;          // see EstimateUpdateCostUs
};

/// `tree` is any tree exposing `Search(key, Tracer*)` and
/// `config().search_algo`; `pipeline_depth` is the software-pipelining
/// depth the per-key cost is estimated at.
template <typename Tree, typename K>
SingleThreadCosts EstimateSingleThreadCosts(const Tree& tree,
                                            const std::vector<K>& probe_keys,
                                            const sim::PlatformSpec& platform,
                                            const PageRegistry& registry,
                                            int pipeline_depth,
                                            const ModelOptions& options = {}) {
  const NodeSearchAlgo algo = tree.config().search_algo;
  ModelOptions single = options;
  single.threads = 1;
  single.pipeline_depth = 1;  // updates are dependent, not pipelined
  const SearchMeasurement m =
      MeasureCpuSearch(tree, probe_keys, platform, registry, algo, single);
  single.pipeline_depth = pipeline_depth;
  const sim::CpuEstimate pipelined = sim::EstimateCpuThroughput(
      platform.cpu, m.profile,
      calibrate_internal::MakeParams(platform, algo, single));
  SingleThreadCosts costs;
  costs.search_us_per_key = 1.0 / pipelined.mqps;
  costs.search_latency_us = 1.0 / m.estimate.mqps;
  // An update pays the search plus roughly half a leaf-line rewrite; the
  // factor matches the paper's observation that updates run close to
  // (but below) search speed.
  costs.update_us = 1.3 / m.estimate.mqps;
  return costs;
}

/// Modelled single-thread cost of one update query (inner descent + leaf
/// edit), µs — feeds the Section 5.6 update experiments.
template <typename K>
double EstimateUpdateCostUs(const RegularBTree<K>& tree,
                            const std::vector<K>& probe_keys,
                            const sim::PlatformSpec& platform,
                            const PageRegistry& registry,
                            const ModelOptions& options = {}) {
  return EstimateSingleThreadCosts(tree, probe_keys, platform, registry, 1,
                                   options)
      .update_us;
}

/// Streaming-bandwidth model of the implicit tree's rebuild phases
/// (Figure 15): merging the update batch into the sorted array and
/// rewriting both segments are bandwidth-bound passes over the data.
struct RebuildModel {
  double l_build_us = 0;    // merge + L-segment rewrite
  double i_build_us = 0;    // I-segment rewrite
  double transfer_us = 0;   // I-segment PCIe upload
};

inline RebuildModel ModelImplicitRebuild(std::size_t l_bytes,
                                         std::size_t i_bytes,
                                         const sim::PlatformSpec& platform) {
  RebuildModel model;
  const double bytes_per_us = platform.cpu.dram_bandwidth_gbps * 1e3;
  // Rebuilding is several bandwidth-bound passes over the data: merging
  // the sorted update batch into the pair array (read old + batch, write
  // new), re-permuting values, and writing the leaf lines — about ten
  // L-segment-sized passes end to end.
  model.l_build_us = 10.0 * l_bytes / bytes_per_us;
  // I-segment: read children maxima per level, write nodes — plus one
  // pass over the leaf level for the bottom separators.
  model.i_build_us = (3.0 * i_bytes + 1.0 * l_bytes / 4) / bytes_per_us;
  model.transfer_us = platform.pcie.transfer_init_us +
                      i_bytes / (platform.pcie.bandwidth_h2d_gbps * 1e3);
  return model;
}

}  // namespace hbtree::bench

#endif  // HBTREE_BENCH_SUPPORT_CALIBRATE_H_
