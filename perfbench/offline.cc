// Offline workloads: the paper's batch pipeline called directly.
//
// lookup_uniform — implicit HB+-tree over 2^23 uniform keys, repeated
//   RunSearchPipeline calls of 2^22 shuffled hit lookups.
// mixed_zipf — regular HB+-tree (leaf_fill 0.7) over 2^22 keys, rounds of
//   one 16K zipfian lookup bucket then one 4K kAsyncParallel write batch.
//
// Host-clock metrics time the library calls only (generation and oracle
// checks run between them). Modelled metrics come from the PipelineStats
// and BatchUpdateStats those calls return.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_support/calibrate.h"
#include "bench_support/harness.h"
#include "core/random.h"
#include "core/workload.h"
#include "hybrid/batch_update.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/hb_regular.h"
#include "perfbench.h"
#include "sim/platform.h"
#include "workload/key_chooser.h"

namespace perfbench {
namespace {

using hbtree::Key64;
using hbtree::KeyValue;
using hbtree::LookupResult;
using hbtree::PipelineConfig;
using hbtree::PipelineStats;

using Platform = hbtree::bench::SimPlatform;

/// The pipeline configuration HB+-tree figure benches use: default
/// PipelineConfig with the calibrated CPU rates, the leaf rate including
/// the per-query hybrid overhead on each thread.
PipelineConfig CalibratedConfig(const hbtree::sim::PlatformSpec& spec,
                                const hbtree::bench::HbCpuRates& rates) {
  const double threads = spec.cpu.threads;
  const double thread_ns =
      threads * 1e3 / rates.leaf_queries_per_us + spec.cpu.hybrid_overhead_ns;
  PipelineConfig config;
  config.cpu_queries_per_us = threads * 1e3 / thread_ns;
  config.cpu_descend_us_per_level = rates.descend_us_per_level;
  config.cpu_descend_us_by_depth = rates.descend_us_by_depth;
  return config;
}

/// Sums PipelineStats over calls; the per-bucket step times are averaged
/// over calls weighted by their bucket counts.
struct PipelineTotals {
  std::uint64_t buckets = 0;
  std::uint64_t queries = 0;
  double total_us = 0;
  double latency_us_x_queries = 0;
  double t_us_x_buckets[4] = {0, 0, 0, 0};
  double gpu_busy_us = 0, cpu_busy_us = 0, pcie_busy_us = 0;
  hbtree::gpu::KernelStats kernel;

  void Add(const PipelineStats& s, int bucket_size) {
    const std::uint64_t b = (s.queries + bucket_size - 1) / bucket_size;
    buckets += b;
    queries += s.queries;
    total_us += s.total_us;
    latency_us_x_queries += s.avg_latency_us * s.queries;
    t_us_x_buckets[0] += s.t1_us * b;
    t_us_x_buckets[1] += s.t2_us * b;
    t_us_x_buckets[2] += s.t3_us * b;
    t_us_x_buckets[3] += s.t4_us * b;
    gpu_busy_us += s.gpu_busy_us;
    cpu_busy_us += s.cpu_busy_us;
    pcie_busy_us += s.pcie_busy_us;
    kernel += s.kernel;
  }

  double avg_latency_us() const {
    return queries ? latency_us_x_queries / queries : 0;
  }

  void Fill(Sheet* sheet, double host_s) const {
    const double q = queries ? static_cast<double>(queries) : 1;
    const double b = buckets ? static_cast<double>(buckets) : 1;
    const double total = total_us > 0 ? total_us : 1;
    sheet->Set("hybrid.pipeline.buckets", buckets);
    sheet->Set("hybrid.pipeline.h2d_us", t_us_x_buckets[0] / b);
    sheet->Set("hybrid.pipeline.kernel_us", t_us_x_buckets[1] / b);
    sheet->Set("hybrid.pipeline.d2h_us", t_us_x_buckets[2] / b);
    sheet->Set("hybrid.pipeline.cpu_us", t_us_x_buckets[3] / b);
    sheet->Set("hybrid.pipeline.host_us_per_query", host_s * 1e6 / q);
    sheet->Set("hybrid.pipeline.gpu_busy_frac", gpu_busy_us / total);
    sheet->Set("hybrid.pipeline.cpu_busy_frac", cpu_busy_us / total);
    sheet->Set("hybrid.pipeline.pcie_busy_frac", pcie_busy_us / total);
    sheet->Set("gpusim.kernel.transactions_per_query",
               kernel.memory_transactions / q);
    sheet->Set("gpusim.kernel.dram_bytes_per_query", kernel.dram_bytes / q);
    std::uint64_t loads = 0, node_queries = 0;
    for (std::uint64_t v : kernel.node_loads_by_level) loads += v;
    for (std::uint64_t v : kernel.node_queries_by_level) node_queries += v;
    sheet->Set("gpusim.kernel.node_loads_per_query", loads / q);
    const double segment_bytes =
        static_cast<double>(kernel.l2_bytes + kernel.dram_bytes);
    sheet->Set("gpusim.kernel.l2_hit_frac",
               segment_bytes > 0 ? kernel.l2_bytes / segment_bytes : 0);
    sheet->Set("gpusim.kernel.dedup_frac",
               node_queries ? 1.0 - static_cast<double>(loads) / node_queries
                            : 0);
  }

  /// Which modelled resource was busiest, for the human report.
  std::string Busiest() const {
    if (cpu_busy_us >= gpu_busy_us && cpu_busy_us >= pcie_busy_us) {
      return "cpu";
    }
    return gpu_busy_us >= pcie_busy_us ? "gpu" : "pcie";
  }

  std::vector<Metric> Modelled() const {
    return {{"pipeline.total_us", total_us, "us"},
            {"pipeline.avg_latency_us", avg_latency_us(), "us"},
            {"pipeline.gpu_busy_us", gpu_busy_us, "us"},
            {"pipeline.cpu_busy_us", cpu_busy_us, "us"},
            {"pipeline.pcie_busy_us", pcie_busy_us, "us"},
            {"kernel.memory_transactions",
             static_cast<double>(kernel.memory_transactions), "count"},
            {"kernel.dram_bytes", static_cast<double>(kernel.dram_bytes),
             "B"}};
  }
};

/// Counts lookups of dataset keys whose result is missing or wrong.
void CheckHits(const std::vector<LookupResult<Key64>>& got,
               const std::vector<Key64>& want, Outcome* outcome) {
  outcome->attempted += want.size();
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!got[i].found || got[i].value != want[i]) {
      ++outcome->wrong;
      ++outcome->failed;
    }
  }
}

void AppendRates(const hbtree::bench::HbCpuRates& rates, double update_us,
                 std::vector<Metric>* out) {
  out->push_back({"calibrated.leaf_queries_per_us", rates.leaf_queries_per_us,
                  "1/us"});
  out->push_back({"calibrated.descend_us_per_level",
                  rates.descend_us_per_level, "us"});
  if (update_us > 0) {
    out->push_back({"calibrated.update_us", update_us, "us"});
  }
}

// ---------------------------------------------------------------------------
// lookup_uniform

class LookupUniform : public Workload {
 public:
  static constexpr int kKeysLog2 = 23;
  static constexpr int kQueriesLog2 = 22;

  explicit LookupUniform(std::uint64_t seed) : seed_(seed) {}

  void Setup(SpanLog* log) override {
    tree_.reset();
    registry_.reset();
    platform_.reset();
    calls_ = 0;
    Clock::time_point start = Clock::now();
    {
      Span span(log, "setup.dataset");
      data_ = hbtree::GenerateDataset<Key64>(std::size_t{1} << kKeysLog2,
                                             seed_);
      // Knuth-shuffled dataset indices; the first 2^22 are the queries.
      std::vector<std::uint32_t> order(data_.size());
      for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
      hbtree::Rng rng(seed_ ^ 0x9e3779b97f4a7c15ull);
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextBounded(i + 1)]);
      }
      const std::size_t q = std::size_t{1} << kQueriesLog2;
      queries_.resize(q);
      expected_.resize(q);
      for (std::size_t i = 0; i < q; ++i) {
        queries_[i] = data_[order[i]].key;
        expected_[i] = data_[order[i]].value;
      }
    }
    phases_.Add("dataset", SecondsSince(start));

    start = Clock::now();
    {
      Span span(log, "setup.build");
      platform_ = std::make_unique<Platform>(
          hbtree::sim::PlatformSpec::Parse("m1"));
      registry_ = std::make_unique<hbtree::PageRegistry>();
      tree_ = std::make_unique<hbtree::HBImplicitTree<Key64>>(
          hbtree::HBImplicitTree<Key64>::Config{}, registry_.get(),
          &platform_->device, &platform_->transfer);
      if (!tree_->Build(data_)) {
        std::fprintf(stderr, "perfbench: I-segment does not fit the device\n");
        std::exit(1);
      }
    }
    phases_.Add("build", SecondsSince(start));

    start = Clock::now();
    {
      Span span(log, "setup.calibrate");
      rates_ = hbtree::bench::CalibrateHbCpuRates(
          tree_->host_tree(), queries_, platform_->spec, *registry_);
      config_ = CalibratedConfig(platform_->spec, rates_);
    }
    phases_.Add("calibrate", SecondsSince(start));
  }

  double Measure(double seconds, SpanLog* log) override {
    Span root(log, "bench.measure");
    double slice_s = 0;
    int slice_calls = 0;
    const Clock::time_point start = Clock::now();
    do {
      double call_s = 0;
      const PipelineStats stats = RunOnce(log, &call_s);
      slice_s += call_s;
      ++slice_calls;
      call_ms_[log != nullptr].Add(call_s * 1e3);
      calls_s_[log != nullptr] += call_s;
      // The first call on a fresh tree starts with a cold simulated
      // device L2; it alone defines the modelled metrics, so they do not
      // depend on how many calls the host managed. Warm calls must
      // repeat each other exactly.
      if (calls_ == 0) {
        modelled_ = PipelineTotals{};
        modelled_.Add(stats, config_.bucket_size);
        mops_.push_back(modelled_.queries / modelled_.total_us);
        latency_us_.push_back(modelled_.avg_latency_us());
      } else if (calls_ >= 2) {
        ++warm_repeats_;
        if (ModelledOf(stats) != ModelledOf(previous_)) ++warm_mismatches_;
      }
      previous_ = stats;
      ++calls_;
    } while (SecondsSince(start) < seconds);
    return slice_calls * queries_.size() / slice_s;
  }

  std::vector<Metric> Modelled() override {
    std::vector<Metric> out = modelled_.Modelled();
    AppendRates(rates_, 0, &out);
    return out;
  }

  void Verify() override {}

  void FillEndToEnd(Sheet* sheet) override {
    Samples& calls = call_ms_[0];
    sheet->Set("modelled_mops", Median(mops_));
    sheet->Set("modelled_latency_us", Median(latency_us_));
    sheet->Set("ops_per_s", calls.size() * queries_.size() / calls_s_[0]);
    sheet->Set("read_p50_ms", calls.At(50).value);
  }

  void FillPerLayer(Sheet* sheet) override {
    phases_.Fill(sheet);
    sheet->Set("cpubtree.leaf_queries_per_us", rates_.leaf_queries_per_us);
    sheet->Set("cpubtree.descend_us_per_level", rates_.descend_us_per_level);
    modelled_.Fill(sheet, call_ms_[1].At(50).value / 1e3);
  }

  std::vector<std::string> Notes() override {
    char line[256];
    std::vector<std::string> notes;
    notes.push_back(call_ms_[0].Describe(
        "read (one 2^22-lookup RunSearchPipeline call) host latency"));
    std::snprintf(line, sizeof(line),
                  "modelled: %.4f MQPS, busiest modelled resource: %s "
                  "(cpu %.1f us, gpu %.1f us, pcie %.1f us of %.1f us); "
                  "%llu of %llu warm repeat calls differed from the one "
                  "before",
                  modelled_.queries / modelled_.total_us,
                  modelled_.Busiest().c_str(), modelled_.cpu_busy_us,
                  modelled_.gpu_busy_us, modelled_.pcie_busy_us,
                  modelled_.total_us,
                  static_cast<unsigned long long>(warm_mismatches_),
                  static_cast<unsigned long long>(warm_repeats_));
    notes.push_back(line);
    return notes;
  }

  Outcome outcome() const override { return outcome_; }

 private:
  std::vector<double> ModelledOf(const PipelineStats& stats) const {
    PipelineTotals totals;
    totals.Add(stats, config_.bucket_size);
    std::vector<double> values;
    for (const Metric& m : totals.Modelled()) values.push_back(m.value);
    return values;
  }

  PipelineStats RunOnce(SpanLog* log, double* call_s) {
    PipelineStats stats;
    {
      Span span(log, "hybrid.pipeline");
      const Clock::time_point start = Clock::now();
      stats = hbtree::RunSearchPipeline(*tree_, queries_.data(),
                                        queries_.size(), config_, &results_);
      *call_s = SecondsSince(start);
    }
    Span span(log, "bench.oracle");
    CheckHits(results_, expected_, &outcome_);
    return stats;
  }

  std::uint64_t seed_;
  SetupPhases phases_;
  std::vector<KeyValue<Key64>> data_;
  std::vector<Key64> queries_;
  std::vector<Key64> expected_;
  std::vector<LookupResult<Key64>> results_;
  // Destroyed tree first, then the registry and device it points to.
  std::unique_ptr<Platform> platform_;
  std::unique_ptr<hbtree::PageRegistry> registry_;
  std::unique_ptr<hbtree::HBImplicitTree<Key64>> tree_;
  hbtree::bench::HbCpuRates rates_;
  PipelineConfig config_;

  std::uint64_t calls_ = 0;  // on the current instance
  PipelineTotals modelled_;  // the current instance's first call
  PipelineStats previous_;
  std::vector<double> mops_, latency_us_;  // per instance
  Samples call_ms_[2];                     // untraced, traced
  double calls_s_[2] = {0, 0};             // their total
  std::uint64_t warm_repeats_ = 0;
  std::uint64_t warm_mismatches_ = 0;
  Outcome outcome_;
};

// ---------------------------------------------------------------------------
// mixed_zipf

class MixedZipf : public Workload {
 public:
  static constexpr int kKeysLog2 = 22;
  static constexpr std::size_t kLookups = 16 * 1024;
  static constexpr std::size_t kWrites = 4 * 1024;
  // Live own inserts kept before writes switch to deleting the oldest:
  // past it, writes alternate insert / delete and the tree size holds.
  static constexpr std::size_t kLiveTarget = 8 * 1024;
  // Modelled metrics cover this many rounds from the start of an
  // instance, so they are a function of the seed and not of host speed.
  static constexpr int kModelRounds = 48;
  // read_p50_ms is the mean of the read medians of blocks of this many
  // consecutive rounds (about 0.3 s).
  static constexpr std::size_t kBlockRounds = 32;

  explicit MixedZipf(std::uint64_t seed) : seed_(seed) {}

  void Setup(SpanLog* log) override {
    tree_.reset();
    registry_.reset();
    platform_.reset();
    Clock::time_point start = Clock::now();
    {
      Span span(log, "setup.dataset");
      data_ = hbtree::GenerateDataset<Key64>(std::size_t{1} << kKeysLog2,
                                             seed_);
      zipf_ = std::make_unique<hbtree::workload::ZipfGenerator>(data_.size());
      calibration_.clear();
      hbtree::Rng rng(seed_ ^ 0xca11b4a7e5ull);
      for (int i = 0; i < (1 << 18); ++i) {
        calibration_.push_back(data_[rng.NextBounded(data_.size())].key);
      }
    }
    phases_.Add("dataset", SecondsSince(start));

    start = Clock::now();
    {
      Span span(log, "setup.build");
      platform_ = std::make_unique<Platform>(
          hbtree::sim::PlatformSpec::Parse("m1"));
      registry_ = std::make_unique<hbtree::PageRegistry>();
      hbtree::HBRegularTree<Key64>::Config config;
      config.tree.leaf_fill = 0.7;  // the serving variant's build fill
      tree_ = std::make_unique<hbtree::HBRegularTree<Key64>>(
          config, registry_.get(), &platform_->device, &platform_->transfer);
      if (!tree_->Build(data_)) {
        std::fprintf(stderr, "perfbench: I-segment does not fit the device\n");
        std::exit(1);
      }
    }
    phases_.Add("build", SecondsSince(start));

    start = Clock::now();
    {
      Span span(log, "setup.calibrate");
      rates_ = hbtree::bench::CalibrateHbCpuRates(
          tree_->host_tree(), calibration_, platform_->spec, *registry_);
      config_ = CalibratedConfig(platform_->spec, rates_);
      update_config_ = hbtree::BatchUpdateConfig{};
      update_config_.cpu_update_us = hbtree::bench::EstimateUpdateCostUs(
          tree_->host_tree(), calibration_, platform_->spec, *registry_);
    }
    phases_.Add("calibrate", SecondsSince(start));

    rng_ = hbtree::Rng(seed_ ^ 0x5eedf00dull);
    live_.clear();
    pending_.clear();
    written_.clear();
    deleted_.clear();
    instance_ = ModelTotals{};
  }

  double Measure(double seconds, SpanLog* log) override {
    Span root(log, "bench.measure");
    HostPool& pool = pools_[log != nullptr];
    double calls_ms = 0;
    int rounds = 0;
    const Clock::time_point start = Clock::now();
    do {
      calls_ms += Round(log, &pool);
      ++rounds;
      if (instance_.rounds == kModelRounds) {
        modelled_ = instance_;
        mops_.push_back(modelled_.ops() / modelled_.modelled_us());
        latency_us_.push_back(modelled_.pipeline.avg_latency_us());
      }
    } while (instance_.rounds < kModelRounds ||
             SecondsSince(start) < seconds);
    return rounds * (kLookups + kWrites) / (calls_ms / 1e3);
  }

  std::vector<Metric> Modelled() override {
    std::vector<Metric> out = modelled_.pipeline.Modelled();
    out.push_back({"update.update_us", modelled_.update_us, "us"});
    out.push_back({"update.sync_us", modelled_.sync_us, "us"});
    out.push_back({"update.total_us", modelled_.update_total_us, "us"});
    out.push_back({"update.delta_nodes",
                   static_cast<double>(modelled_.delta_nodes), "count"});
    out.push_back({"update.structural",
                   static_cast<double>(modelled_.structural), "count"});
    AppendRates(rates_, update_config_.cpu_update_us, &out);
    return out;
  }

  void Verify() override {
    // Every live own insert must be found with its value and every own
    // delete must be gone — through the same pipeline the reads use.
    std::vector<Key64> keys;
    std::vector<LookupResult<Key64>> want;
    for (const KeyValue<Key64>& kv : live_) {
      keys.push_back(kv.key);
      want.push_back({true, kv.value});
    }
    for (Key64 key : deleted_) {
      keys.push_back(key);
      want.push_back({false, 0});
    }
    std::vector<LookupResult<Key64>> got;
    hbtree::RunSearchPipeline(*tree_, keys.data(), keys.size(), config_,
                              &got);
    outcome_.attempted += keys.size();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (got[i].found != want[i].found ||
          (want[i].found && got[i].value != want[i].value)) {
        ++outcome_.wrong;
        ++outcome_.failed;
      }
    }
  }

  void FillEndToEnd(Sheet* sheet) override {
    HostPool& pool = pools_[0];
    sheet->Set("modelled_mops", Median(mops_));
    sheet->Set("modelled_latency_us", Median(latency_us_));
    // A mean rate over the timed calls: the host's speed shifts within a
    // run, and a mean moves in proportion to the time spent at each speed
    // where a median of rounds jumps between them.
    sheet->Set("ops_per_s", (pool.lookups + pool.updates) /
                                (pool.pipeline_host_s + pool.update_host_s));
    sheet->Set("read_p50_ms", pool.read_blocks.Mean());
  }

  void FillPerLayer(Sheet* sheet) override {
    const HostPool& pool = pools_[1];
    phases_.Fill(sheet);
    sheet->Set("cpubtree.leaf_queries_per_us", rates_.leaf_queries_per_us);
    sheet->Set("cpubtree.descend_us_per_level", rates_.descend_us_per_level);
    sheet->Set("cpubtree.update_us", update_config_.cpu_update_us);
    // Fill divides by the modelled rounds' queries: scale the host time
    // of the traced calls to that many lookups.
    modelled_.pipeline.Fill(sheet, pool.pipeline_host_s *
                                       modelled_.pipeline.queries /
                                       pool.lookups);
    const double updates = static_cast<double>(modelled_.updates);
    const double batches = static_cast<double>(modelled_.rounds);
    sheet->Set("hybrid.update.apply_us_per_update",
               modelled_.update_us / updates);
    sheet->Set("hybrid.update.sync_us_per_batch", modelled_.sync_us / batches);
    sheet->Set("hybrid.update.delta_nodes_per_batch",
               modelled_.delta_nodes / batches);
    sheet->Set("hybrid.update.host_us_per_update",
               pool.update_host_s * 1e6 / pool.updates);
    const double syncs =
        static_cast<double>(modelled_.delta_syncs + modelled_.full_syncs);
    sheet->Set("hybrid.update.delta_sync_frac",
               syncs > 0 ? modelled_.delta_syncs / syncs : 0);
    sheet->Set("hybrid.update.structural_frac",
               modelled_.structural / updates);
    sheet->Set("hybrid.update.applied_frac", modelled_.applied / updates);
  }

  std::vector<std::string> Notes() override {
    char line[256];
    std::vector<std::string> notes;
    notes.push_back(pools_[0].read_ms.Describe(
        "read (one 16K-lookup RunSearchPipeline call) host latency"));
    notes.push_back(pools_[0].write_ms.Describe(
        "write (one 4K TryRunBatchUpdate call) host latency"));
    std::snprintf(line, sizeof(line),
                  "modelled over %d rounds: pipeline %.1f us, updates %.1f "
                  "us (%.1f%% of modelled time for %.1f%% of ops); busiest "
                  "pipeline resource: %s",
                  kModelRounds, modelled_.pipeline.total_us,
                  modelled_.update_total_us,
                  100.0 * modelled_.update_total_us / modelled_.modelled_us(),
                  100.0 * modelled_.updates / modelled_.ops(),
                  modelled_.pipeline.Busiest().c_str());
    notes.push_back(line);
    return notes;
  }

  Outcome outcome() const override { return outcome_; }

 private:
  // Modelled totals over the rounds of one instance.
  struct ModelTotals {
    PipelineTotals pipeline;
    int rounds = 0;
    std::uint64_t updates = 0;
    std::uint64_t applied = 0;
    std::uint64_t structural = 0;
    std::uint64_t delta_syncs = 0, full_syncs = 0, delta_nodes = 0;
    double update_us = 0, sync_us = 0, update_total_us = 0;

    double ops() const {
      return static_cast<double>(pipeline.queries + updates);
    }
    double modelled_us() const { return pipeline.total_us + update_total_us; }
  };

  // Host-clock samples pooled over the slices of one kind.
  struct HostPool {
    Samples read_ms, write_ms;
    BlockMedian read_blocks{kBlockRounds};
    double pipeline_host_s = 0, update_host_s = 0;
    std::uint64_t lookups = 0, updates = 0;
  };

  Key64 FreshKey() {
    for (;;) {
      const Key64 key = rng_.Next();
      if (key == ~Key64{0}) continue;  // the empty-slot sentinel
      if (written_.count(key)) continue;
      auto it = std::lower_bound(
          data_.begin(), data_.end(), key,
          [](const KeyValue<Key64>& kv, Key64 k) { return kv.key < k; });
      if (it != data_.end() && it->key == key) continue;
      return key;
    }
  }

  // Runs one round; returns its host ms (the two library calls).
  double Round(SpanLog* log, HostPool* pool) {
    std::vector<Key64>& keys = round_keys_;
    std::vector<Key64>& want = round_want_;
    std::vector<hbtree::UpdateQuery<Key64>>& batch = round_batch_;
    {
      Span span(log, "bench.gen");
      keys.resize(kLookups);
      want.resize(kLookups);
      for (std::size_t i = 0; i < kLookups; ++i) {
        // Rank r is the r-th smallest key: the hot set is one contiguous
        // key range, so queries share inner nodes down to the leaves.
        const KeyValue<Key64>& kv = data_[zipf_->Next(rng_)];
        keys[i] = kv.key;
        want[i] = kv.value;
      }
      batch.clear();
      for (std::size_t i = 0; i < kWrites; ++i) {
        hbtree::UpdateQuery<Key64> update;
        if (live_.size() > kLiveTarget) {
          update.kind = hbtree::UpdateQuery<Key64>::Kind::kDelete;
          update.pair = live_.front();
          live_.pop_front();
          deleted_.push_back(update.pair.key);
        } else {
          update.kind = hbtree::UpdateQuery<Key64>::Kind::kInsert;
          update.pair = {FreshKey(), rng_.Next() >> 1};
          written_.insert(update.pair.key);
          pending_.push_back(update.pair);
        }
        batch.push_back(update);
      }
    }

    PipelineStats stats;
    double read_s = 0;
    {
      Span span(log, "hybrid.pipeline");
      const Clock::time_point start = Clock::now();
      stats = hbtree::RunSearchPipeline(*tree_, keys.data(), keys.size(),
                                        config_, &results_);
      read_s = SecondsSince(start);
    }
    {
      Span span(log, "bench.oracle");
      CheckHits(results_, want, &outcome_);
    }

    hbtree::BatchUpdateStats ustats;
    hbtree::Status status;
    double write_s = 0;
    {
      Span span(log, "hybrid.update");
      const Clock::time_point start = Clock::now();
      status = hbtree::TryRunBatchUpdate(*tree_, batch,
                                         hbtree::UpdateMethod::kAsyncParallel,
                                         update_config_, &ustats);
      write_s = SecondsSince(start);
    }
    outcome_.attempted += batch.size();
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: batch update failed: %s\n",
                   status.message().c_str());
      outcome_.failed += batch.size();
    } else if (ustats.applied < batch.size()) {
      outcome_.failed += batch.size() - ustats.applied;
    }
    // Inserts become delete candidates once their batch has committed.
    for (const KeyValue<Key64>& kv : pending_) live_.push_back(kv);
    pending_.clear();

    pool->read_ms.Add(read_s * 1e3);
    pool->read_blocks.Add(read_s * 1e3);
    pool->write_ms.Add(write_s * 1e3);
    pool->pipeline_host_s += read_s;
    pool->update_host_s += write_s;
    pool->lookups += keys.size();
    pool->updates += batch.size();

    ModelTotals& m = instance_;
    m.pipeline.Add(stats, config_.bucket_size);
    ++m.rounds;
    m.updates += batch.size();
    m.applied += ustats.applied;
    m.structural += ustats.structural;
    m.delta_syncs += ustats.delta_syncs;
    m.full_syncs += ustats.full_syncs;
    m.delta_nodes += ustats.delta_nodes;
    m.update_us += ustats.update_us;
    m.sync_us += ustats.sync_us;
    m.update_total_us += ustats.total_us;
    return (read_s + write_s) * 1e3;
  }

  std::uint64_t seed_;
  SetupPhases phases_;
  std::vector<KeyValue<Key64>> data_;
  std::unique_ptr<hbtree::workload::ZipfGenerator> zipf_;
  std::vector<Key64> calibration_;
  std::unique_ptr<Platform> platform_;
  std::unique_ptr<hbtree::PageRegistry> registry_;
  std::unique_ptr<hbtree::HBRegularTree<Key64>> tree_;
  hbtree::bench::HbCpuRates rates_;
  PipelineConfig config_;
  hbtree::BatchUpdateConfig update_config_;

  // Op stream state and the oracle of the benchmark's own writes.
  hbtree::Rng rng_;
  std::deque<KeyValue<Key64>> live_;   // committed own inserts, oldest first
  std::vector<KeyValue<Key64>> pending_;
  std::vector<Key64> deleted_;
  std::unordered_set<Key64> written_;  // every key ever inserted
  std::vector<Key64> round_keys_, round_want_;
  std::vector<hbtree::UpdateQuery<Key64>> round_batch_;
  std::vector<LookupResult<Key64>> results_;

  ModelTotals instance_;  // all rounds on the current instance
  ModelTotals modelled_;  // its first kModelRounds
  std::vector<double> mops_, latency_us_;  // per instance
  HostPool pools_[2];                      // untraced, traced
  Outcome outcome_;
};

}  // namespace

std::unique_ptr<Workload> MakeLookupUniform(std::uint64_t seed) {
  return std::make_unique<LookupUniform>(seed);
}

std::unique_ptr<Workload> MakeMixedZipf(std::uint64_t seed) {
  return std::make_unique<MixedZipf>(seed);
}

}  // namespace perfbench
