#ifndef HBTREE_HYBRID_RANGE_PIPELINE_H_
#define HBTREE_HYBRID_RANGE_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/workload.h"
#include "hybrid/bucket_pipeline.h"

namespace hbtree {

/// Heterogeneous range queries (Section 6.4, Figure 17).
///
/// Same division of labour as point lookups, through the same bucket
/// loop (level-wise dispatch, load balancing, fault retries): the GPU
/// resolves every range query's *start position* through the mirrored
/// I-segment; the CPU then scans the leaf chain sequentially — which is
/// where range queries spend their time, and why the HB+-tree's advantage
/// shrinks as ranges grow.
///
/// Results land in a flat pair buffer: query i's matches are
/// `pairs[i * max_matches .. i * max_matches + counts[i])`.

namespace range_internal {

/// Range queries through the lookup pipeline's bucket loop: the start
/// keys go through the GPU, and the CPU finish scans the leaf chain.
template <typename K, typename Adapter>
Status RunRangeChecked(typename Adapter::Tree& tree,
                       const RangeQuery<K>* queries, std::size_t count,
                       int max_matches, const PipelineConfig& config,
                       std::vector<KeyValue<K>>* pairs,
                       std::vector<int>* counts, PipelineStats* stats) {
  if (max_matches <= 0) {
    return Status::InvalidArgument("max_matches must be positive");
  }
  std::vector<K> first_keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    first_keys[i] = queries[i].first_key;
  }
  if (pairs != nullptr) {
    pairs->resize(count * static_cast<std::size_t>(max_matches));
  }
  if (counts != nullptr) counts->assign(count, 0);
  return pipeline_internal::RunPipelineChecked<K, Adapter>(
      tree, first_keys.data(), count, config,
      [&](std::size_t q, std::uint64_t inter, obs::PipelineHeat* heat) {
        const int want = std::min(max_matches, queries[q].match_count);
        // Without a pair buffer the scan still runs, for one pair.
        KeyValue<K> scratch[1];
        KeyValue<K>* out = pairs != nullptr
                               ? pairs->data() + q * max_matches
                               : scratch;
        const int limit = pairs != nullptr ? want : std::min(want, 1);
        const K first = queries[q].first_key;
        const int got =
            heat != nullptr
                ? Adapter::Scan(tree, inter, first, limit, out, &heat->scan)
                : Adapter::Scan(tree, inter, first, limit, out);
        if (counts != nullptr) (*counts)[q] = got;
      },
      stats);
}

template <typename K, typename Adapter>
PipelineStats RunRange(typename Adapter::Tree& tree,
                       const RangeQuery<K>* queries, std::size_t count,
                       int max_matches, const PipelineConfig& config,
                       std::vector<KeyValue<K>>* pairs,
                       std::vector<int>* counts) {
  PipelineStats stats;
  const Status status = RunRangeChecked<K, Adapter>(
      tree, queries, count, max_matches, config, pairs, counts, &stats);
  // Unreachable without an armed fault injector (see RunPipeline).
  HBTREE_CHECK_MSG(status.ok(), "range pipeline failed: %s",
                   status.message().c_str());
  return stats;
}

}  // namespace range_internal

/// Runs heterogeneous range queries on an implicit HB+-tree. Each query
/// returns up to `max_matches` pairs (and no more than its own
/// match_count); `config.cpu_queries_per_us` should be calibrated for the
/// scan length (see bench/fig17_range_queries).
template <typename K>
PipelineStats RunRangePipeline(HBImplicitTree<K>& tree,
                               const RangeQuery<K>* queries,
                               std::size_t count, int max_matches,
                               const PipelineConfig& config,
                               std::vector<KeyValue<K>>* pairs = nullptr,
                               std::vector<int>* counts = nullptr) {
  return range_internal::RunRange<K, pipeline_internal::ImplicitAdapter<K>>(
      tree, queries, count, max_matches, config, pairs, counts);
}

/// Regular-tree variant.
template <typename K>
PipelineStats RunRangePipeline(HBRegularTree<K>& tree,
                               const RangeQuery<K>* queries,
                               std::size_t count, int max_matches,
                               const PipelineConfig& config,
                               std::vector<KeyValue<K>>* pairs = nullptr,
                               std::vector<int>* counts = nullptr) {
  return range_internal::RunRange<K, pipeline_internal::RegularAdapter<K>>(
      tree, queries, count, max_matches, config, pairs, counts);
}

/// Fault-tolerant range entry points: device failures surface as a typed
/// Status after bounded retries instead of aborting (see
/// TryRunSearchPipeline for the contract).
template <typename K>
Status TryRunRangePipeline(HBImplicitTree<K>& tree,
                           const RangeQuery<K>* queries, std::size_t count,
                           int max_matches, const PipelineConfig& config,
                           std::vector<KeyValue<K>>* pairs,
                           std::vector<int>* counts, PipelineStats* stats) {
  return range_internal::RunRangeChecked<
      K, pipeline_internal::ImplicitAdapter<K>>(
      tree, queries, count, max_matches, config, pairs, counts, stats);
}

template <typename K>
Status TryRunRangePipeline(HBRegularTree<K>& tree,
                           const RangeQuery<K>* queries, std::size_t count,
                           int max_matches, const PipelineConfig& config,
                           std::vector<KeyValue<K>>* pairs,
                           std::vector<int>* counts, PipelineStats* stats) {
  return range_internal::RunRangeChecked<
      K, pipeline_internal::RegularAdapter<K>>(
      tree, queries, count, max_matches, config, pairs, counts, stats);
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_RANGE_PIPELINE_H_
