// Repository benchmark: the HB+-tree read pipeline, the batch write path
// and the serving front-end, each checked against an oracle, reported on
// the modelled M1 clock and on the host clock.
//
//   perfbench --workload <lookup_uniform|mixed_zipf|serve_read_mostly|
//                         serve_blocking_rw|all>
//             --seed <n> --seconds <s> --trace <0|1> [--trace_out <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs each slice
// twice, untraced and then with spans recorded around every call into
// the library, and prints the per-layer metrics (plus the determinism
// report and the tracing overhead). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits 1 if any result disagreed with the oracle.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Samples / percentiles

Percentile Samples::At(double pct) {
  Percentile p;
  p.pct = pct;
  if (values_.empty()) return p;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const std::size_t n = values_.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  p.value = values_[rank - 1];
  p.beyond = n - rank;
  return p;
}

Percentile Samples::Tail() {
  Percentile best = At(50);
  for (double pct : {90.0, 99.0, 99.9, 99.99}) {
    const Percentile p = At(pct);
    if (p.beyond < 10) break;
    best = p;
  }
  return best;
}

std::string Samples::Describe(const std::string& label) {
  char line[256];
  if (values_.empty()) {
    std::snprintf(line, sizeof(line), "%s: no samples", label.c_str());
    return line;
  }
  const Percentile p50 = At(50);
  const Percentile p99 = At(99);
  const Percentile tail = Tail();
  std::snprintf(line, sizeof(line),
                "%s: n=%zu  p50 %.4f ms  p99 %.4f ms (%zu beyond)  "
                "highest resolved p%g = %.4f ms (%zu beyond)",
                label.c_str(), values_.size(), p50.value, p99.value,
                p99.beyond, tail.pct, tail.value, tail.beyond);
  return line;
}

void BlockMedian::Add(double value) {
  current_.push_back(value);
  if (current_.size() == block_) {
    medians_.push_back(Median(current_));
    current_.clear();
  }
}

double BlockMedian::Mean() const {
  if (medians_.empty()) return Median(current_);
  double sum = 0;
  for (double m : medians_) sum += m;
  return sum / medians_.size();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void SetupPhases::Add(const std::string& phase, double seconds) {
  phases_[phase].push_back(seconds);
}

double SetupPhases::MedianOf(const std::string& phase) const {
  auto it = phases_.find(phase);
  return it == phases_.end() ? 0 : Median(it->second);
}

void SetupPhases::Fill(Sheet* sheet) const {
  for (const char* phase : {"dataset", "build", "calibrate"}) {
    sheet->Set(std::string("setup.") + phase + "_s", MedianOf(phase));
  }
}

// ---------------------------------------------------------------------------
// Metric sheets

void Sheet::Set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: metric %s is not on the sheet\n",
               name.c_str());
  std::abort();
}

Sheet EndToEndSheet() {
  return Sheet({
      {"modelled_mops", 0, "Mop/s"},
      {"modelled_latency_us", 0, "us"},
      {"ops_per_s", 0, "1/s"},
      {"read_p50_ms", 0, "ms"},
  });
}

Sheet PerLayerSheet() {
  return Sheet({
      {"setup.dataset_s", 0, "s"},
      {"setup.build_s", 0, "s"},
      {"setup.calibrate_s", 0, "s"},
      {"cpubtree.leaf_queries_per_us", 0, "1/us"},
      {"cpubtree.descend_us_per_level", 0, "us"},
      {"cpubtree.update_us", 0, "us"},
      {"hybrid.pipeline.buckets", 0, "count"},
      {"hybrid.pipeline.h2d_us", 0, "us"},
      {"hybrid.pipeline.kernel_us", 0, "us"},
      {"hybrid.pipeline.d2h_us", 0, "us"},
      {"hybrid.pipeline.cpu_us", 0, "us"},
      {"hybrid.pipeline.host_us_per_query", 0, "us"},
      {"hybrid.pipeline.gpu_busy_frac", 0, "fraction"},
      {"hybrid.pipeline.cpu_busy_frac", 0, "fraction"},
      {"hybrid.pipeline.pcie_busy_frac", 0, "fraction"},
      {"gpusim.kernel.transactions_per_query", 0, "count"},
      {"gpusim.kernel.dram_bytes_per_query", 0, "B"},
      {"gpusim.kernel.node_loads_per_query", 0, "count"},
      {"gpusim.kernel.l2_hit_frac", 0, "fraction"},
      {"gpusim.kernel.dedup_frac", 0, "fraction"},
      {"hybrid.update.apply_us_per_update", 0, "us"},
      {"hybrid.update.sync_us_per_batch", 0, "us"},
      {"hybrid.update.delta_nodes_per_batch", 0, "count"},
      {"hybrid.update.host_us_per_update", 0, "us"},
      {"hybrid.update.delta_sync_frac", 0, "fraction"},
      {"hybrid.update.structural_frac", 0, "fraction"},
      {"hybrid.update.applied_frac", 0, "fraction"},
      {"serve.keys_per_bucket", 0, "count"},
      {"serve.updates_per_commit", 0, "count"},
      {"serve.queue_wait_p50_ms", 0, "ms"},
      {"serve.cpu_fallback_buckets", 0, "count"},
      {"serve.shed", 0, "count"},
      {"serve.submit_us", 0, "us"},
      {"serve.modelled_pipeline_us_per_read", 0, "us"},
      {"serve.modelled_update_us_per_write", 0, "us"},
      {"serve.read_p99_ms", 0, "ms"},
      {"serve.write_p50_ms", 0, "ms"},
      {"serve.write_p99_ms", 0, "ms"},
  });
}

// ---------------------------------------------------------------------------
// Span log

struct SpanLog::ThreadLog {
  SpanLog* owner = nullptr;
  std::uint32_t index = 0;
  Span* top = nullptr;
  std::vector<Record> records;
  std::map<const char*, Layer> layers;  // keyed by literal address
};

namespace {
std::atomic<std::uint64_t> next_log_id{1};
thread_local std::uint64_t tls_log_id = 0;
thread_local SpanLog::ThreadLog* tls_thread = nullptr;
}  // namespace

SpanLog::SpanLog() : id_(next_log_id.fetch_add(1)), origin_(Clock::now()) {}

SpanLog::ThreadLog* SpanLog::ThisThread() {
  if (tls_log_id != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::make_unique<ThreadLog>());
    ThreadLog* t = threads_.back().get();
    t->owner = this;
    t->index = static_cast<std::uint32_t>(threads_.size() - 1);
    t->records.reserve(1 << 16);
    tls_log_id = id_;
    tls_thread = t;
  }
  return tls_thread;
}

std::map<std::string, SpanLog::Layer> SpanLog::Layers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, Layer> out;
  for (const auto& t : threads_) {
    for (const auto& [name, layer] : t->layers) {
      Layer& sum = out[name];
      sum.self_s += layer.self_s;
      sum.spans += layer.spans;
    }
  }
  return out;
}

std::uint64_t SpanLog::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->records.size();
  return n;
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               std::size_t max_spans) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  std::size_t written = 0;
  bool first = true;
  for (const auto& t : threads_) {
    for (const Record& r : t->records) {
      if (written++ >= max_spans) break;
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << r.thread << ",\"ts\":" << r.start_ns / 1e3
          << ",\"dur\":" << (r.end_ns - r.start_ns) / 1e3 << "}";
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(SpanLog* log, const char* name) {
  if (log == nullptr) return;
  thread_ = log->ThisThread();
  name_ = name;
  parent_ = thread_->top;
  thread_->top = this;
  start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - log->origin_)
                  .count();
}

Span::~Span() {
  if (thread_ == nullptr) return;
  const std::int64_t end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - thread_->owner->origin_)
          .count();
  const std::int64_t duration = end_ns - start_ns_;
  SpanLog::Layer& layer = thread_->layers[name_];
  layer.self_s += (duration - child_ns_) * 1e-9;
  ++layer.spans;
  if (parent_ != nullptr) parent_->child_ns_ += duration;
  thread_->top = parent_;
  thread_->records.push_back({name_, thread_->index, start_ns_, end_ns});
}

// ---------------------------------------------------------------------------
// Driver

namespace {

// Fresh instances per run: set-up time is their median, and the timed
// region is split evenly across them.
constexpr int kInstances = 3;
constexpr std::size_t kMaxTraceSpans = 200000;

// The layers whose self time the traced run reports, as a share of all
// span self time recorded in the timed region.
constexpr const char* kMeasuredLayers[] = {
    "bench.measure", "bench.gen",    "bench.oracle", "hybrid.pipeline",
    "hybrid.update", "serve.submit", "serve.wait"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace_out <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(("missing value for " + flag).c_str());
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        Usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace_out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t seed);

const std::vector<std::pair<std::string, Factory>>& Registry() {
  static const std::vector<std::pair<std::string, Factory>> registry = {
      {"lookup_uniform", MakeLookupUniform},
      {"mixed_zipf", MakeMixedZipf},
      {"serve_read_mostly", MakeServeReadMostly},
      {"serve_blocking_rw", MakeServeBlockingRw},
  };
  return registry;
}

struct WorkloadRun {
  std::vector<Metric> metrics;
  Outcome outcome;
};

// Compares the modelled metrics of every instance with the first one's;
// prints the comparison and returns the share that was bit-identical on
// all instances.
double DeterminismReport(const std::vector<std::vector<Metric>>& instances) {
  std::printf("determinism (same seed, %zu fresh instances):\n",
              instances.size());
  const std::vector<Metric>& first = instances.front();
  std::size_t identical = 0;
  for (std::size_t m = 0; m < first.size(); ++m) {
    bool same = true;
    double other = first[m].value;
    for (const std::vector<Metric>& instance : instances) {
      if (std::memcmp(&instance[m].value, &first[m].value,
                      sizeof(double)) != 0) {
        same = false;
        other = instance[m].value;
      }
    }
    identical += same;
    std::printf("  %-36s %.17g  %s%.17g\n", first[m].name.c_str(),
                first[m].value, same ? "bit-identical on all  " : "DIFFERS, e.g. ",
                other);
  }
  return first.empty() ? 1.0 : static_cast<double>(identical) / first.size();
}

WorkloadRun RunWorkload(const std::string& name, Factory factory,
                        const Args& args) {
  std::unique_ptr<Workload> workload = factory(args.seed);
  SpanLog log;
  SpanLog* trace_log = args.trace ? &log : nullptr;

  std::printf("== workload %s  seed %llu  %.0f s  trace %d\n", name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  // The traced run splits each slice: untraced first, then traced.
  const double slice_s = args.seconds / kInstances / (args.trace ? 2 : 1);
  std::vector<double> setup_s, untraced, traced;
  std::vector<std::vector<Metric>> modelled;
  for (int i = 0; i < kInstances; ++i) {
    const Clock::time_point start = Clock::now();
    {
      Span span(trace_log, "bench.setup");
      workload->Setup(trace_log);
    }
    setup_s.push_back(SecondsSince(start));
    untraced.push_back(workload->Measure(slice_s, nullptr));
    if (args.trace) traced.push_back(workload->Measure(slice_s, &log));
    modelled.push_back(workload->Modelled());
    workload->Verify();
  }

  WorkloadRun run;
  if (!args.trace) {
    Sheet sheet = EndToEndSheet();
    workload->FillEndToEnd(&sheet);
    run.metrics.push_back({"setup_s", Median(setup_s), "s"});
    for (const Metric& m : sheet.metrics()) run.metrics.push_back(m);
  } else {
    Sheet sheet = PerLayerSheet();
    workload->FillPerLayer(&sheet);
    run.metrics = sheet.metrics();
    double measured_self = 0;
    const auto layers = log.Layers();
    for (const char* layer : kMeasuredLayers) {
      auto it = layers.find(layer);
      if (it != layers.end()) measured_self += it->second.self_s;
    }
    for (const char* layer : kMeasuredLayers) {
      auto it = layers.find(layer);
      const double self = it == layers.end() ? 0 : it->second.self_s;
      run.metrics.push_back({std::string("trace.self_frac.") + layer,
                             measured_self > 0 ? self / measured_self : 0,
                             "fraction"});
    }
    const double untraced_rate = Median(untraced);
    const double traced_rate = Median(traced);
    run.metrics.push_back(
        {"bench.trace_overhead_frac",
         untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0,
         "fraction"});
    std::printf("traced spans: %llu; self time per layer:\n",
                static_cast<unsigned long long>(log.span_count()));
    for (const auto& [layer, stats] : layers) {
      std::printf("  %-20s %10.4f s  %10llu spans\n", layer.c_str(),
                  stats.self_s, static_cast<unsigned long long>(stats.spans));
    }
    std::printf("ops/s per slice, median: untraced %.1f, traced %.1f\n",
                untraced_rate, traced_rate);
    run.metrics.push_back({"bench.modelled_identical_frac",
                           DeterminismReport(modelled), "fraction"});
    if (!args.trace_out.empty()) {
      const std::string path = args.trace_out + "/" + name + "-seed" +
                               std::to_string(args.seed) + ".trace.json";
      if (log.WriteChromeTrace(path, kMaxTraceSpans)) {
        std::printf("trace written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
      }
    }
  }
  run.outcome = workload->outcome();
  const double failed_frac =
      run.outcome.attempted > 0
          ? static_cast<double>(run.outcome.failed) / run.outcome.attempted
          : 0;
  // The untraced result carries it as attempted/failed.
  if (args.trace) {
    run.metrics.push_back({"bench.failed_frac", failed_frac, "fraction"});
  }

  for (const std::string& note : workload->Notes()) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("set-up runs (s):");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\nattempted %llu  failed %llu  wrong %llu  failed_frac %g\n",
              static_cast<unsigned long long>(run.outcome.attempted),
              static_cast<unsigned long long>(run.outcome.failed),
              static_cast<unsigned long long>(run.outcome.wrong),
              failed_frac);
  for (const Metric& m : run.metrics) {
    std::printf("  %-44s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  return run;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  std::vector<std::pair<std::string, Factory>> selected;
  for (const auto& entry : Registry()) {
    if (args.workload == "all" || args.workload == entry.first) {
      selected.push_back(entry);
    }
  }
  if (selected.empty()) Usage(("unknown workload " + args.workload).c_str());

  Outcome total;
  std::vector<Metric> metrics;
  for (const auto& [name, factory] : selected) {
    WorkloadRun run = RunWorkload(name, factory, args);
    total.attempted += run.outcome.attempted;
    total.failed += run.outcome.failed;
    total.wrong += run.outcome.wrong;
    for (Metric& m : run.metrics) {
      // Several workloads in one process: prefix each metric name.
      if (selected.size() > 1) m.name = name + "." + m.name;
      metrics.push_back(m);
    }
  }

  const bool correct = total.wrong == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(total.attempted);
  line += ", \"failed\": " + std::to_string(total.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
