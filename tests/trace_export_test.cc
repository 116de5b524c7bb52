// Trace recorder/export tests. This test binary is compiled with
// HBTREE_OBS_TRACING=1 (see tests/CMakeLists.txt), so the HBTREE_TRACE_*
// macros are live here while staying compiled out of the library targets.

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/span_aggregator.h"
#include "obs/trace.h"

namespace hbtree::obs {
namespace {

std::vector<TraceEvent> EventsNamed(const std::vector<TraceEvent>& events,
                                    const std::string& name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (name == e.name) out.push_back(e);
  }
  return out;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { TraceSession::Start(); }
  void TearDown() override {
    TraceSession::Stop();
    TraceSession::Clear();
  }
};

TEST_F(TraceTest, ScopedSpansNestWithinParent) {
  {
    HBTREE_TRACE_SPAN("parent", "test");
    {
      HBTREE_TRACE_SPAN("child", "test");
    }
  }
  TraceSession::Stop();
  const auto events = TraceSession::Snapshot();
  const auto parents = EventsNamed(events, "parent");
  const auto children = EventsNamed(events, "child");
  ASSERT_EQ(parents.size(), 1u);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(parents[0].ph, 'X');
  EXPECT_EQ(parents[0].pid, TraceSession::kWallPid);
  EXPECT_EQ(parents[0].tid, children[0].tid);
  // The child interval lies within the parent interval.
  EXPECT_GE(children[0].ts_us, parents[0].ts_us);
  EXPECT_LE(children[0].ts_us + children[0].dur_us,
            parents[0].ts_us + parents[0].dur_us);
}

TEST_F(TraceTest, SiblingSpansOnOneThreadDoNotOverlap) {
  for (int i = 0; i < 8; ++i) {
    HBTREE_TRACE_SPAN("sibling", "test");
  }
  TraceSession::Stop();
  auto siblings = EventsNamed(TraceSession::Snapshot(), "sibling");
  ASSERT_EQ(siblings.size(), 8u);
  std::sort(siblings.begin(), siblings.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  for (std::size_t i = 1; i < siblings.size(); ++i) {
    EXPECT_GE(siblings[i].ts_us,
              siblings[i - 1].ts_us + siblings[i - 1].dur_us);
  }
}

TEST_F(TraceTest, ThreadsGetDistinctTracks) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      HBTREE_TRACE_THREAD_NAME("trace_test.worker");
      HBTREE_TRACE_SPAN("worker_span", "test");
    });
  }
  for (auto& t : threads) t.join();
  TraceSession::Stop();
  const auto spans = EventsNamed(TraceSession::Snapshot(), "worker_span");
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads));
  std::vector<int> tids;
  for (const TraceEvent& e : spans) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

TEST_F(TraceTest, SpanArgAndInstantAreRecorded) {
  {
    HBTREE_TRACE_SPAN_ARG("sized", "test", "keys", 4096);
  }
  HBTREE_TRACE_INSTANT("tick", "test");
  TraceSession::Stop();
  const auto events = TraceSession::Snapshot();
  const auto sized = EventsNamed(events, "sized");
  ASSERT_EQ(sized.size(), 1u);
  ASSERT_NE(sized[0].arg_name, nullptr);
  EXPECT_STREQ(sized[0].arg_name, "keys");
  EXPECT_EQ(sized[0].arg_value, 4096.0);
  const auto ticks = EventsNamed(events, "tick");
  ASSERT_EQ(ticks.size(), 1u);
  EXPECT_EQ(ticks[0].ph, 'i');
}

TEST_F(TraceTest, ModelSpansLandOnFixedResourceTracks) {
  HBTREE_TRACE_MODEL_SPAN(0, kTrackH2D, "bucket.h2d", 10.0, 5.0, "bucket",
                          0);
  HBTREE_TRACE_MODEL_SPAN(0, kTrackKernel, "bucket.kernel", 15.0, 7.0,
                          "bucket", 0);
  TraceSession::Stop();
  const auto events = TraceSession::Snapshot();
  const auto h2d = EventsNamed(events, "bucket.h2d");
  const auto kernel = EventsNamed(events, "bucket.kernel");
  ASSERT_EQ(h2d.size(), 1u);
  ASSERT_EQ(kernel.size(), 1u);
  EXPECT_EQ(h2d[0].pid, TraceSession::kModelPid);
  EXPECT_EQ(h2d[0].tid, TraceSession::kTrackH2D);
  EXPECT_EQ(h2d[0].ts_us, 10.0);
  EXPECT_EQ(h2d[0].dur_us, 5.0);
  EXPECT_EQ(kernel[0].tid, TraceSession::kTrackKernel);
}

TEST_F(TraceTest, SlotTrackBasesSeparateAndLabelModelTracks) {
  const int base = 2 * TraceSession::kModelTrackStride;
  TraceSession::RegisterModelTrackPrefix(base, "shard0/slot1");
  HBTREE_TRACE_MODEL_SPAN(base, kTrackKernel, "bucket.kernel", 1.0, 2.0,
                          "bucket", 0);
  HBTREE_TRACE_MODEL_SPAN(3 * TraceSession::kModelTrackStride, kTrackH2D,
                          "bucket.h2d", 1.0, 2.0, "bucket", 0);
  TraceSession::Stop();
  const auto kernel =
      EventsNamed(TraceSession::Snapshot(), "bucket.kernel");
  ASSERT_EQ(kernel.size(), 1u);
  EXPECT_EQ(kernel[0].tid, base + TraceSession::kTrackKernel);
  const std::string json = TraceSession::ToChromeJson();
  // Registered prefix names the block's tracks; an unregistered base
  // still gets a distinguishable fallback label.
  EXPECT_NE(json.find("shard0/slot1/sim.kernel"), std::string::npos);
  EXPECT_NE(json.find("slot3/sim.h2d"), std::string::npos);
  // The slot-0 block keeps its bare names.
  EXPECT_NE(json.find("\"name\":\"sim.kernel\""), std::string::npos);
}

TEST_F(TraceTest, SpanIdsReachTheExportAndTraceIdIsStable) {
  const std::uint64_t trace_id = TraceSession::trace_id();
  ASSERT_NE(trace_id, 0u);
  // Below 2^53: survives a round trip through a JSON double.
  EXPECT_LT(trace_id, 1ull << 53);
  std::uint64_t span_id = 0;
  {
    ScopedSpan span("bucket.dispatch", "serve", "keys", 512.0);
    span_id = span.EnsureSpanId();
    EXPECT_EQ(span.EnsureSpanId(), span_id);  // idempotent
  }
  ASSERT_NE(span_id, 0u);
  EXPECT_EQ(TraceSession::trace_id(), trace_id);  // stable until restart
  TraceSession::Stop();
  const auto spans =
      EventsNamed(TraceSession::Snapshot(), "bucket.dispatch");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span_id, span_id);
  const std::string json = TraceSession::ToChromeJson();
  EXPECT_NE(json.find("\"traceId\":" + std::to_string(trace_id)),
            std::string::npos);
  EXPECT_NE(json.find("\"span_id\":" + std::to_string(span_id)),
            std::string::npos);
  // A fresh session gets a fresh identity.
  TraceSession::Start();
  EXPECT_NE(TraceSession::trace_id(), trace_id);
}

TEST_F(TraceTest, UnarmedSpansDoNotAllocateIds) {
  TraceSession::Stop();
  ScopedSpan span("ghost", "test");
  EXPECT_EQ(span.EnsureSpanId(), 0u);
}

TEST_F(TraceTest, SpanAggregatorBuildsStageWaterfalls) {
  const int slot_base = TraceSession::kModelTrackStride;
  TraceSession::RegisterModelTrackPrefix(slot_base, "shard0/slot0");
  HBTREE_TRACE_THREAD_NAME("serve.shard0.read0");
  HBTREE_TRACE_COMPLETE("queue.wait", "serve", 0.0, 40.0, "ops", 3);
  HBTREE_TRACE_MODEL_SPAN(slot_base, kTrackH2D, "bucket.h2d", 0.0, 10.0,
                          "bucket", 0);
  HBTREE_TRACE_MODEL_SPAN(slot_base, kTrackKernel, "bucket.kernel", 10.0,
                          30.0, "bucket", 0);
  HBTREE_TRACE_MODEL_SPAN(slot_base, kTrackD2H, "bucket.d2h", 40.0, 10.0,
                          "bucket", 0);
  HBTREE_TRACE_MODEL_SPAN(slot_base, kTrackCpuLeaf, "bucket.cpu_leaf", 50.0,
                          10.0, "bucket", 0);
  HBTREE_TRACE_INSTANT("breaker.open", "serve");  // not a stage: ignored
  TraceSession::Stop();

  const StageWaterfall w = SpanAggregator::FromSession();
  ASSERT_FALSE(w.empty());
  EXPECT_DOUBLE_EQ(w.total_us, 100.0);
  // Pipeline order, and shares sum to 1 over the aggregate.
  std::vector<std::string> order;
  double share_sum = 0;
  for (const auto& [stage, stats] : w.stages) {
    order.push_back(stage);
    share_sum += stats.share;
  }
  const std::vector<std::string> expected = {"admission_wait", "h2d",
                                             "kernel", "d2h", "merge"};
  EXPECT_EQ(order, expected);
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  for (const auto& [stage, stats] : w.stages) {
    if (stage == "kernel") {
      EXPECT_EQ(stats.count, 1u);
      EXPECT_DOUBLE_EQ(stats.total_us, 30.0);
      EXPECT_DOUBLE_EQ(stats.share, 0.30);
    }
  }

  // Groups: the wall span folds under its shard, the model spans under
  // their slot's registered prefix.
  ASSERT_EQ(w.groups.size(), 2u);
  bool saw_shard = false;
  bool saw_slot = false;
  for (const StageGroup& g : w.groups) {
    if (g.name == "shard0") {
      saw_shard = true;
      ASSERT_EQ(g.stages.size(), 1u);
      EXPECT_EQ(g.stages[0].first, "admission_wait");
      EXPECT_DOUBLE_EQ(g.stages[0].second.share, 1.0);
    }
    if (g.name == "shard0/slot0") {
      saw_slot = true;
      EXPECT_EQ(g.stages.size(), 4u);
    }
  }
  EXPECT_TRUE(saw_shard);
  EXPECT_TRUE(saw_slot);
}

TEST_F(TraceTest, CpuRoutedBucketsFoldIntoTheRouteCpuStage) {
  HBTREE_TRACE_THREAD_NAME("serve.shard1.read0");
  HBTREE_TRACE_COMPLETE("bucket.route_cpu", "serve", 5.0, 2.0, "keys", 1);
  HBTREE_TRACE_COMPLETE("update.commit", "serve", 7.0, 6.0, "ops", 1);
  HBTREE_TRACE_MODEL_SPAN(0, kTrackCpuLeaf, "bucket.cpu_leaf", 0.0, 2.0,
                          "bucket", 0);
  TraceSession::Stop();

  const StageWaterfall w = SpanAggregator::FromSession();
  std::vector<std::string> order;
  for (const auto& [stage, stats] : w.stages) order.push_back(stage);
  const std::vector<std::string> expected = {"merge", "route_cpu",
                                             "commit"};
  EXPECT_EQ(order, expected);
  EXPECT_DOUBLE_EQ(w.stages[1].second.total_us, 2.0);
  ASSERT_FALSE(w.groups.empty());
  EXPECT_EQ(w.groups[0].name, "shard1");
}

TEST_F(TraceTest, NothingRecordsWhileStopped) {
  TraceSession::Stop();
  {
    HBTREE_TRACE_SPAN("ghost", "test");
  }
  HBTREE_TRACE_INSTANT("ghost_instant", "test");
  EXPECT_EQ(TraceSession::event_count(), 0u);
  // Restarting clears any previous events and records again.
  TraceSession::Start();
  {
    HBTREE_TRACE_SPAN("real", "test");
  }
  TraceSession::Stop();
  EXPECT_EQ(TraceSession::Snapshot().size(), 1u);
}

TEST_F(TraceTest, ChromeJsonIsWellFormed) {
  HBTREE_TRACE_THREAD_NAME("trace_test.main");
  {
    HBTREE_TRACE_SPAN_ARG("outer", "test", "n", 3);
    HBTREE_TRACE_INSTANT("mark", "test");
  }
  HBTREE_TRACE_MODEL_SPAN(0, kTrackD2H, "bucket.d2h", 1.0, 2.0, "bucket", 1);
  TraceSession::Stop();
  const std::string json = TraceSession::ToChromeJson();

  // Structural validity: balanced nesting (no string in this document
  // contains braces or brackets, so counting is exact).
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  // Chrome trace-event schema markers.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // instant scope
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("trace_test.main"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST_F(TraceTest, WriteRefusesWhileActive) {
  EXPECT_TRUE(TraceSession::active());
  EXPECT_FALSE(TraceSession::WriteChromeJson("/tmp/hbtree_trace_test.json"));
}

}  // namespace
}  // namespace hbtree::obs
