#ifndef HBTREE_OBS_SPAN_AGGREGATOR_H_
#define HBTREE_OBS_SPAN_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace hbtree::obs {

/// Accumulated time of one pipeline stage across every span mapped to it.
struct StageStats {
  std::uint64_t count = 0;
  double total_us = 0;
  double max_us = 0;
  /// Fraction of its waterfall's total stage time (filled by Waterfall()).
  double share = 0;

  double mean_us() const { return count != 0 ? total_us / count : 0.0; }
};

/// Stage breakdown of one resource group: a shard's serving threads
/// ("shard0") or a tree slot's model tracks ("shard0/slotB").
struct StageGroup {
  std::string name;
  std::vector<std::pair<std::string, StageStats>> stages;  // pipeline order
};

/// Per-stage latency waterfall: where an op's time goes on the way
/// through the serving pipeline, aggregated and split per shard/slot.
struct StageWaterfall {
  /// Aggregate breakdown in pipeline order (admission_wait → fill_window
  /// → pre_descend → h2d → kernel → d2h → merge → route_cpu → commit);
  /// stages with no samples are omitted.
  std::vector<std::pair<std::string, StageStats>> stages;
  std::vector<StageGroup> groups;
  double total_us = 0;  // sum over aggregate stages

  bool empty() const { return stages.empty(); }
};

/// Folds trace spans into StageWaterfalls. The span → stage mapping is
/// by span name: queue.wait → admission_wait, bucket.fill/update.fill →
/// fill_window, the model resource spans → their stage (bucket.cpu_leaf
/// is the merge stage: leaf search + result merge on the CPU),
/// bucket.route_cpu → route_cpu (a bucket the cost-based route served
/// with the CPU search instead), and update.commit → commit. Spans that are not stages (dispatch envelopes,
/// breaker instants, snapshot publishes) are ignored.
///
/// Feed it manually with Add() (tests), or fold a whole stopped
/// TraceSession with FromSession(), which groups wall spans by the
/// "serve.shard<N>" component of their recording thread's name and model
/// spans by their track block's registered prefix.
class SpanAggregator {
 public:
  /// Stage name for a span name; nullptr when the span is not a stage.
  static const char* StageForSpan(const char* span_name);

  /// Accumulates one span into the aggregate and, when `group` is
  /// non-empty, into that group's breakdown. Non-stage spans are ignored.
  void Add(const TraceEvent& event, const std::string& group = std::string());

  /// Snapshot of everything added so far, shares computed. Group shares
  /// are within the group's own stage total.
  StageWaterfall Waterfall() const;

  /// Aggregates the current (stopped) TraceSession's recorded spans.
  static StageWaterfall FromSession();

 private:
  using StageMap = std::map<std::string, StageStats>;
  StageMap aggregate_;
  std::map<std::string, StageMap> groups_;
};

}  // namespace hbtree::obs

#endif  // HBTREE_OBS_SPAN_AGGREGATOR_H_
