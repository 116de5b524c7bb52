// Serving workloads: closed-loop clients against serve::Server<Key64>
// with 2 key-range shards x 1 read worker over 2^18 bootstrap keys.
//
// serve_read_mostly — 2 clients, each keeping an asynchronous window of
//   512 operations: 95% scrambled-zipfian lookups, 5% writes.
// serve_blocking_rw — 2 clients, each looping one blocking uniform lookup
//   then one blocking write.
//
// Reads target bootstrap keys only and no write touches them, so every
// read (even one in flight across a commit) has one exact expected value.
// A write is an insert of a fresh key (low bit = client id, so clients
// never collide) or a delete of an older insert of the same client whose
// future already resolved ok. Each op's latency is stamped when its
// future is seen ready: blocking clients wait on it; asynchronous clients
// poll the whole window between submissions and block at most 100 us on
// one future when nothing is ready.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_support/serve_runner.h"
#include "core/random.h"
#include "core/workload.h"
#include "perfbench.h"
#include "serve/server.h"
#include "workload/key_chooser.h"

namespace perfbench {
namespace {

using hbtree::Key64;
using hbtree::KeyValue;
using hbtree::UpdateQuery;
using Server = hbtree::serve::Server<Key64>;

constexpr int kBootstrapLog2 = 18;
constexpr int kClients = 2;
constexpr int kShards = 2;
constexpr int kReadWorkers = 1;
// Own inserts a client keeps live before its writes switch to deletes.
constexpr std::size_t kLiveTarget = 64;
constexpr std::chrono::microseconds kPollWait{100};

enum class Mode { kAsyncWindow, kBlocking };

struct ModeSpec {
  Mode mode;
  std::size_t window;       // outstanding ops per client (async mode)
  int write_pct;            // share of writes, percent (async mode)
  hbtree::workload::KeyChooserKind reads;
};

/// One client's op stream, oracle of its own writes, and the samples of
/// the current timed region.
struct Client {
  int id = 0;
  hbtree::Rng rng;
  std::deque<KeyValue<Key64>> live;  // own inserts whose future was ok
  std::unordered_set<Key64> written;
  std::vector<Key64> deleted;

  Samples read_ms, write_ms;
  double submit_s = 0;
  std::uint64_t submits = 0;
  // Ops completed before `deadline`, the end of the timed region (async
  // clients drain their window after it).
  Clock::time_point deadline;
  std::uint64_t completed = 0;
  Outcome outcome;

  void Completed(Clock::time_point now) {
    if (now < deadline) ++completed;
  }
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, const ModeSpec& spec)
      : seed_(seed), spec_(spec) {}

  void Setup(SpanLog* log) override {
    server_.reset();
    Clock::time_point start = Clock::now();
    {
      Span span(log, "setup.dataset");
      data_ = hbtree::GenerateDataset<Key64>(std::size_t{1} << kBootstrapLog2,
                                             seed_);
      hbtree::workload::KeyChooser::Params params;
      params.kind = spec_.reads;
      chooser_ = std::make_unique<hbtree::workload::KeyChooser>(params,
                                                               data_.size());
    }
    phases_.Add("dataset", SecondsSince(start));

    start = Clock::now();
    {
      Span span(log, "setup.calibrate");
      options_used_ = hbtree::bench::CalibratedServerOptions(
          hbtree::sim::PlatformSpec::Parse("m1"), data_, seed_);
      options_used_.num_shards = kShards;
      options_used_.num_read_workers = kReadWorkers;
    }
    phases_.Add("calibrate", SecondsSince(start));

    start = Clock::now();
    {
      Span span(log, "setup.build");
      hbtree::Status status;
      server_ = Server::Create(options_used_, data_, &status);
      if (server_ == nullptr) {
        std::fprintf(stderr, "perfbench: Server::Create failed: %s\n",
                     status.message().c_str());
        std::exit(1);
      }
    }
    phases_.Add("build", SecondsSince(start));

    clients_.clear();
    for (int c = 0; c < kClients; ++c) {
      auto client = std::make_unique<Client>();
      client->id = c;
      client->rng = hbtree::Rng(seed_ * 1000003 + c);
      clients_.push_back(std::move(client));
    }
    slices_ = 0;
  }

  double Measure(double seconds, SpanLog* log) override {
    Pool& pool = pools_[log != nullptr];
    const Clock::time_point start = Clock::now();
    const Clock::duration length =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
    const Clock::time_point deadline = start + length;
    for (auto& client : clients_) {
      client->read_ms = Samples{};
      client->write_ms = Samples{};
      client->submit_s = 0;
      client->submits = 0;
      client->deadline = deadline;
      client->completed = 0;
    }
    const hbtree::serve::ServeStats before = server_->Stats();
    std::vector<std::thread> threads;
    for (auto& client : clients_) {
      Client* c = client.get();
      threads.emplace_back([this, c, deadline, log] {
        Span root(log, "bench.measure");
        RunClient(*c, deadline, log);
      });
    }
    for (std::thread& t : threads) t.join();
    const hbtree::serve::ServeStats after = server_->Stats();

    std::uint64_t completed = 0;
    for (const auto& client : clients_) {
      pool.read_ms.Append(client->read_ms);
      pool.write_ms.Append(client->write_ms);
      pool.submit_s += client->submit_s;
      pool.submits += client->submits;
      completed += client->completed;
    }
    pool.completed += completed;
    pool.timed_s += seconds;
    const Counters slice = Counters::Between(before, after);
    pool.counters += slice;
    pool.queue_wait_p50_ms.push_back(after.queue_wait.p50_us / 1e3);
    if (slices_++ == 0) {
      // The server is fresh, so its lifetime figures are this slice's.
      modelled_ = {
          {"serve.modelled_ops_per_second", after.modelled_ops_per_second,
           "1/s"},
          {"serve.sim_pipeline_us", after.sim_pipeline_us, "us"},
          {"serve.sim_update_us", after.sim_update_us, "us"},
          {"serve.read_buckets", static_cast<double>(after.read_buckets),
           "count"},
          {"serve.update_batches", static_cast<double>(after.update_batches),
           "count"}};
      mops_.push_back(after.modelled_ops_per_second / 1e6);
      latency_us_.push_back(Ratio(slice.pipeline_us, slice.buckets));
    }
    return completed / seconds;
  }

  std::vector<Metric> Modelled() override { return modelled_; }

  void Verify() override {
    for (auto& client : clients_) {
      Outcome& out = client->outcome;
      for (const KeyValue<Key64>& kv : client->live) {
        const hbtree::serve::ReadResult<Key64> r =
            server_->SubmitLookup(kv.key).get();
        ++out.attempted;
        if (!r.status.ok() || !r.lookup.found || r.lookup.value != kv.value) {
          ++out.failed;
          ++out.wrong;
        }
      }
      const std::size_t n = client->deleted.size();
      for (std::size_t i = n > 256 ? n - 256 : 0; i < n; ++i) {
        const hbtree::serve::ReadResult<Key64> r =
            server_->SubmitLookup(client->deleted[i]).get();
        ++out.attempted;
        if (!r.status.ok() || r.lookup.found) {
          ++out.failed;
          ++out.wrong;
        }
      }
      outcome_.attempted += out.attempted;
      outcome_.failed += out.failed;
      outcome_.wrong += out.wrong;
      out = Outcome{};
    }
  }

  void FillEndToEnd(Sheet* sheet) override {
    Pool& pool = pools_[0];
    sheet->Set("modelled_mops", Median(mops_));
    sheet->Set("modelled_latency_us", Median(latency_us_));
    sheet->Set("ops_per_s", pool.completed / pool.timed_s);
    sheet->Set("read_p50_ms", pool.read_ms.At(50).value);
  }

  void FillPerLayer(Sheet* sheet) override {
    Pool& pool = pools_[1];
    const Counters& c = pool.counters;
    phases_.Fill(sheet);
    sheet->Set("cpubtree.leaf_queries_per_us",
               options_used_.pipeline.cpu_queries_per_us);
    sheet->Set("cpubtree.descend_us_per_level",
               options_used_.pipeline.cpu_descend_us_per_level);
    sheet->Set("cpubtree.update_us", options_used_.update.cpu_update_us);
    sheet->Set("hybrid.update.apply_us_per_update",
               Ratio(c.update_us - c.sync_us, c.updates));
    sheet->Set("hybrid.update.sync_us_per_batch", Ratio(c.sync_us, c.batches));
    sheet->Set("hybrid.update.delta_nodes_per_batch",
               Ratio(c.delta_nodes, c.batches));
    sheet->Set("hybrid.update.delta_sync_frac",
               Ratio(c.delta_syncs, c.delta_syncs + c.full_syncs));
    sheet->Set("hybrid.update.structural_frac",
               Ratio(c.structural, c.updates));
    sheet->Set("hybrid.update.applied_frac", Ratio(c.applied, c.updates));
    sheet->Set("serve.keys_per_bucket", Ratio(c.lookups, c.buckets));
    sheet->Set("serve.updates_per_commit", Ratio(c.updates, c.batches));
    sheet->Set("serve.queue_wait_p50_ms", Median(pool.queue_wait_p50_ms));
    sheet->Set("serve.cpu_fallback_buckets", c.cpu_fallback_buckets);
    sheet->Set("serve.shed", c.shed);
    sheet->Set("serve.submit_us", Ratio(pool.submit_s * 1e6, pool.submits));
    sheet->Set("serve.modelled_pipeline_us_per_read",
               Ratio(c.pipeline_us, c.lookups));
    sheet->Set("serve.modelled_update_us_per_write",
               Ratio(c.update_us, c.updates));
    sheet->Set("serve.read_p99_ms", pool.read_ms.At(99).value);
    sheet->Set("serve.write_p50_ms", pool.write_ms.At(50).value);
    sheet->Set("serve.write_p99_ms", pool.write_ms.At(99).value);
  }

  std::vector<std::string> Notes() override {
    Pool& pool = pools_[0];
    const Counters& c = pool.counters;
    char line[256];
    std::vector<std::string> notes;
    notes.push_back(pool.read_ms.Describe("read (client-observed wall)"));
    notes.push_back(pool.write_ms.Describe("write (client-observed wall)"));
    std::snprintf(line, sizeof(line),
                  "server: %.1f keys/bucket, %.1f updates/commit, modelled "
                  "%.4f Mop/s (median of instances), %.0f shed, %.0f "
                  "cpu-fallback buckets",
                  Ratio(c.lookups, c.buckets), Ratio(c.updates, c.batches),
                  Median(mops_), c.shed, c.cpu_fallback_buckets);
    notes.push_back(line);
    return notes;
  }

  Outcome outcome() const override { return outcome_; }

 private:
  static double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

  // Server counters accumulated over slices (ServeStats deltas).
  struct Counters {
    double lookups = 0, buckets = 0, updates = 0, batches = 0;
    double pipeline_us = 0, update_us = 0, sync_us = 0;
    double delta_syncs = 0, full_syncs = 0, delta_nodes = 0;
    double structural = 0, applied = 0, cpu_fallback_buckets = 0, shed = 0;

    static Counters Between(const hbtree::serve::ServeStats& a,
                            const hbtree::serve::ServeStats& b) {
      auto d = [](std::uint64_t x, std::uint64_t y) {
        return static_cast<double>(y - x);
      };
      Counters c;
      c.lookups = d(a.lookups, b.lookups);
      c.buckets = d(a.read_buckets, b.read_buckets);
      c.updates = d(a.updates, b.updates);
      c.batches = d(a.update_batches, b.update_batches);
      c.pipeline_us = b.sim_pipeline_us - a.sim_pipeline_us;
      c.update_us = b.sim_update_us - a.sim_update_us;
      c.sync_us = b.sim_sync_us - a.sim_sync_us;
      c.delta_syncs = d(a.delta_syncs, b.delta_syncs);
      c.full_syncs = d(a.full_syncs, b.full_syncs);
      c.delta_nodes = d(a.delta_sync_nodes, b.delta_sync_nodes);
      c.structural = d(a.structural, b.structural);
      c.applied = d(a.applied, b.applied);
      c.cpu_fallback_buckets =
          d(a.cpu_fallback_buckets, b.cpu_fallback_buckets);
      c.shed = d(a.shed_reads + a.shed_updates, b.shed_reads + b.shed_updates);
      return c;
    }

    Counters& operator+=(const Counters& o) {
      lookups += o.lookups;
      buckets += o.buckets;
      updates += o.updates;
      batches += o.batches;
      pipeline_us += o.pipeline_us;
      update_us += o.update_us;
      sync_us += o.sync_us;
      delta_syncs += o.delta_syncs;
      full_syncs += o.full_syncs;
      delta_nodes += o.delta_nodes;
      structural += o.structural;
      applied += o.applied;
      cpu_fallback_buckets += o.cpu_fallback_buckets;
      shed += o.shed;
      return *this;
    }
  };

  // Client and server figures pooled over the slices of one kind.
  struct Pool {
    Samples read_ms, write_ms;
    std::uint64_t completed = 0;  // ops completed inside the timed regions
    double timed_s = 0;
    std::vector<double> queue_wait_p50_ms;  // server histogram, per slice
    double submit_s = 0;
    std::uint64_t submits = 0;
    Counters counters;
  };

  struct PendingRead {
    std::future<hbtree::serve::ReadResult<Key64>> future;
    Clock::time_point submitted;
    Key64 expected;
  };
  struct PendingWrite {
    std::future<hbtree::serve::UpdateResult> future;
    Clock::time_point submitted;
    UpdateQuery<Key64> query;
  };

  Key64 FreshKey(Client& c) {
    for (;;) {
      const Key64 key = (c.rng.Next() & ~Key64{1}) | static_cast<Key64>(c.id);
      if (key == ~Key64{0} || c.written.count(key)) continue;
      auto it = std::lower_bound(
          data_.begin(), data_.end(), key,
          [](const KeyValue<Key64>& kv, Key64 k) { return kv.key < k; });
      if (it != data_.end() && it->key == key) continue;
      return key;
    }
  }

  UpdateQuery<Key64> NextWrite(Client& c) {
    UpdateQuery<Key64> q;
    if (c.live.size() > kLiveTarget) {
      q.kind = UpdateQuery<Key64>::Kind::kDelete;
      q.pair = c.live.front();
      c.live.pop_front();
    } else {
      q.kind = UpdateQuery<Key64>::Kind::kInsert;
      q.pair = {FreshKey(c), c.rng.Next() >> 1};
      c.written.insert(q.pair.key);
    }
    return q;
  }

  static double MsBetween(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  }

  void CheckRead(Client& c, const hbtree::serve::ReadResult<Key64>& r,
                 Key64 expected, Clock::time_point submitted,
                 Clock::time_point done) {
    const double ms = MsBetween(submitted, done);
    c.Completed(done);
    ++c.outcome.attempted;
    if (!r.status.ok()) {
      ++c.outcome.failed;
      return;
    }
    c.read_ms.Add(ms);
    if (!r.lookup.found || r.lookup.value != expected) {
      ++c.outcome.failed;
      ++c.outcome.wrong;
    }
  }

  void FinishWrite(Client& c, const hbtree::serve::UpdateResult& r,
                   const UpdateQuery<Key64>& q, Clock::time_point submitted,
                   Clock::time_point done) {
    const double ms = MsBetween(submitted, done);
    c.Completed(done);
    ++c.outcome.attempted;
    if (!r.status.ok()) {
      ++c.outcome.failed;
      return;
    }
    c.write_ms.Add(ms);
    if (q.kind == UpdateQuery<Key64>::Kind::kInsert) {
      c.live.push_back(q.pair);
    } else {
      c.deleted.push_back(q.pair.key);
    }
  }

  template <typename Fn>
  auto TimedSubmit(Client& c, SpanLog* log, Fn&& submit) {
    Span span(log, "serve.submit");
    const Clock::time_point start = Clock::now();
    auto future = submit();
    c.submit_s += SecondsSince(start);
    ++c.submits;
    return future;
  }

  void RunClient(Client& c, Clock::time_point deadline, SpanLog* log) {
    if (spec_.mode == Mode::kBlocking) {
      RunBlocking(c, deadline, log);
    } else {
      RunWindow(c, deadline, log);
    }
  }

  void RunBlocking(Client& c, Clock::time_point deadline, SpanLog* log) {
    while (Clock::now() < deadline) {
      const KeyValue<Key64>& kv = data_[chooser_->Next(c.rng)];
      Clock::time_point t0 = Clock::now();
      auto read = TimedSubmit(c, log, [&] { return server_->SubmitLookup(kv.key); });
      hbtree::serve::ReadResult<Key64> r;
      {
        Span span(log, "serve.wait");
        r = read.get();
      }
      CheckRead(c, r, kv.value, t0, Clock::now());

      const UpdateQuery<Key64> q = NextWrite(c);
      t0 = Clock::now();
      auto write = TimedSubmit(c, log, [&] { return server_->SubmitUpdate(q); });
      hbtree::serve::UpdateResult w;
      {
        Span span(log, "serve.wait");
        w = write.get();
      }
      FinishWrite(c, w, q, t0, Clock::now());
    }
  }

  void RunWindow(Client& c, Clock::time_point deadline, SpanLog* log) {
    std::vector<PendingRead> reads;
    std::vector<PendingWrite> writes;
    reads.reserve(spec_.window);
    writes.reserve(spec_.window);
    auto ready = [](const auto& future) {
      return future.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    };
    // Stamps and retires every completed op; returns how many.
    auto harvest = [&]() {
      std::size_t done = 0;
      for (std::size_t i = 0; i < reads.size();) {
        if (!ready(reads[i].future)) {
          ++i;
          continue;
        }
        CheckRead(c, reads[i].future.get(), reads[i].expected,
                  reads[i].submitted, Clock::now());
        reads[i] = std::move(reads.back());
        reads.pop_back();
        ++done;
      }
      for (std::size_t i = 0; i < writes.size();) {
        if (!ready(writes[i].future)) {
          ++i;
          continue;
        }
        FinishWrite(c, writes[i].future.get(), writes[i].query,
                    writes[i].submitted, Clock::now());
        writes[i] = std::move(writes.back());
        writes.pop_back();
        ++done;
      }
      return done;
    };
    auto wait_some = [&]() {
      Span span(log, "serve.wait");
      if (!reads.empty()) {
        reads.front().future.wait_for(kPollWait);
      } else if (!writes.empty()) {
        writes.front().future.wait_for(kPollWait);
      }
    };

    while (Clock::now() < deadline) {
      while (reads.size() + writes.size() < spec_.window) {
        if (static_cast<int>(c.rng.NextBounded(100)) < spec_.write_pct) {
          PendingWrite w;
          w.query = NextWrite(c);
          w.submitted = Clock::now();
          w.future = TimedSubmit(
              c, log, [&] { return server_->SubmitUpdate(w.query); });
          writes.push_back(std::move(w));
        } else {
          const KeyValue<Key64>& kv = data_[chooser_->Next(c.rng)];
          PendingRead r;
          r.expected = kv.value;
          r.submitted = Clock::now();
          r.future = TimedSubmit(
              c, log, [&] { return server_->SubmitLookup(kv.key); });
          reads.push_back(std::move(r));
        }
      }
      if (harvest() == 0) wait_some();
    }
    while (!reads.empty() || !writes.empty()) {
      if (harvest() == 0) wait_some();
    }
  }

  std::uint64_t seed_;
  ModeSpec spec_;
  SetupPhases phases_;
  std::vector<KeyValue<Key64>> data_;
  std::unique_ptr<hbtree::workload::KeyChooser> chooser_;
  hbtree::serve::ServerOptions options_used_;
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;

  int slices_ = 0;                         // on the current instance
  std::vector<Metric> modelled_;           // its first slice
  std::vector<double> mops_, latency_us_;  // per instance
  Pool pools_[2];                          // untraced, traced
  Outcome outcome_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeReadMostly(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(
      seed,
      ModeSpec{Mode::kAsyncWindow, 512, 5,
               hbtree::workload::KeyChooserKind::kScrambledZipfian});
}

std::unique_ptr<Workload> MakeServeBlockingRw(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(
      seed, ModeSpec{Mode::kBlocking, 1, 50,
                        hbtree::workload::KeyChooserKind::kUniform});
}

}  // namespace perfbench
