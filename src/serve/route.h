#ifndef HBTREE_SERVE_ROUTE_H_
#define HBTREE_SERVE_ROUTE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "gpusim/device.h"
#include "hybrid/bucket_pipeline.h"
#include "sim/platform.h"

namespace hbtree::serve {

/// Bucket routing policy (DESIGN.md §9): pure functions of the modelled
/// platform and the bucket size, so they are testable without threads.
///
/// A read bucket on a healthy slot goes to the CPU when one read
/// worker's PipelinedSearch over it costs less on the modelled clock
/// than a lower bound on the GPU pipeline's cost for it. The GPU side
/// pays two PCIe initializations and a kernel launch per (sub-)bucket
/// (the paper's T_init and K_init, Section 5.4), which a few keys never
/// amortise — the paper's own load-balancing argument (Section 5.5,
/// Fig 11) applied per bucket.

/// Pipeline bucket size for one GPU dispatch of `n` keys. Partial
/// admission buckets run with a reduced effective depth so each
/// sub-bucket keeps at least `min_sub_bucket` keys (per-launch setup
/// does not amortize below that); full buckets still split
/// `pipeline_depth` ways. Splits the batch actually dispatched, not the
/// configured bucket size: a partial bucket shipped by the fill window
/// would otherwise fit in one sub-bucket and lose the overlap.
inline int GpuSubBucketSize(int bucket_size, int pipeline_depth,
                            int min_sub_bucket, std::size_t n) {
  const int depth = std::clamp(
      static_cast<int>(n / static_cast<std::size_t>(
                               std::max(1, min_sub_bucket))),
      1, std::max(1, pipeline_depth));
  const std::size_t target =
      (n + static_cast<std::size_t>(depth) - 1) /
      static_cast<std::size_t>(depth);
  return std::max(1, static_cast<int>(std::min<std::size_t>(
                         static_cast<std::size_t>(bucket_size), target)));
}

/// Lower bound on the PipelineStats::total_us of one search-pipeline run
/// of `n` keys of type K over an implicit or regular HB+-tree, split
/// into pipeline buckets of `sub_bucket` keys. A bucket's stages cost at
/// least: H2D of its keys, the kernel launch alone, D2H of its results
/// (12 B records when level-wise), and the CPU finish at
/// config.cpu_queries_per_us. Every bucket strategy runs each stage of
/// successive buckets one at a time and a bucket's stages in order, so
/// for any stage the run lasts at least the first bucket's earlier
/// stages, every bucket's share of that stage, and the last bucket's
/// later stages. With one bucket all four chains equal
/// H2D(n) + launch + D2H(n) + finish(n). Retry backoff, load-balancing
/// pre-descent and the kernel body only add to the actual cost.
template <typename K>
double GpuBucketLowerBoundUs(const gpu::TransferEngine& transfer,
                             const sim::GpuSpec& gpu,
                             const PipelineConfig& config, std::size_t n,
                             std::size_t sub_bucket) {
  if (n == 0) return 0;
  const std::size_t result_bytes =
      config.level_wise ? sizeof(IndexedResult) : sizeof(std::uint64_t);
  // Minimum H2D, kernel, D2H and CPU-finish cost of one bucket.
  auto stages = [&](std::size_t keys) {
    return std::array<double, 4>{
        transfer.HostToDeviceUs(keys * sizeof(K)), gpu.kernel_launch_us,
        transfer.DeviceToHostUs(keys * result_bytes),
        keys / config.cpu_queries_per_us};
  };
  const std::size_t sub = std::clamp<std::size_t>(sub_bucket, 1, n);
  // Every bucket but the last has `sub` keys.
  const std::size_t full = (n - 1) / sub;
  const std::array<double, 4> first = stages(sub);
  const std::array<double, 4> last = stages(n - full * sub);
  double bound = 0;
  for (std::size_t serial = 0; serial < 4; ++serial) {
    double chain = full * first[serial] + last[serial];
    for (std::size_t s = 0; s < serial; ++s) chain += first[s];
    for (std::size_t s = serial + 1; s < 4; ++s) chain += last[s];
    bound = std::max(bound, chain);
  }
  return bound;
}

/// Modelled cost of serving `n` keys with one read worker's
/// PipelinedSearch: `us_per_key` is the single-thread full-search cost
/// at the worker's software-pipelining depth, `latency_us` the cost of a
/// lone search (depth 1), which a bucket too small to fill the pipeline
/// still pays.
inline double CpuBucketUs(double us_per_key, double latency_us,
                          std::size_t n) {
  return std::max(n * us_per_key, latency_us);
}

/// The route rule: CPU when its price is known (calibrated, > 0) and
/// below the GPU lower bound. An uncalibrated server always routes GPU.
inline bool RouteToCpu(double cpu_us, double gpu_lower_bound_us) {
  return cpu_us > 0 && cpu_us < gpu_lower_bound_us;
}

}  // namespace hbtree::serve

#endif  // HBTREE_SERVE_ROUTE_H_
