// Shared pieces of the repository benchmark: the metric report every
// workload fills, exact sample percentiles, and the in-memory span log
// of the traced run.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Ordered name -> (value, unit) list; the JSON result line and the
/// human-readable table both print it in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // non-ok, refused, or wrong
  std::uint64_t wrong = 0;   // results that disagree with the oracle
};

/// Exact percentiles over wall-clock samples (ms).
struct Percentile {
  double value = 0;
  double pct = 0;
  std::size_t beyond = 0;  // samples strictly above the rank
};

class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, pct in (0, 100]. Sorts on first use.
  Percentile At(double pct);
  /// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
  /// beyond it (p50 when there are too few samples for any).
  Percentile Tail();
  /// "p50 1.234 ms (n=..., ...)" style summary line.
  std::string Describe(const std::string& label);

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

/// A median that follows a shift in host speed during a run: the median
/// of each block of `block` consecutive samples, averaged over the
/// blocks. A pooled median jumps to whichever speed held for most of the
/// run; this moves in proportion to the time spent at each.
class BlockMedian {
 public:
  explicit BlockMedian(std::size_t block) : block_(block) {}
  void Add(double value);
  /// Mean of the full blocks' medians (the partial block's median when no
  /// block is full; 0 without samples).
  double Mean() const;

 private:
  std::size_t block_;
  std::vector<double> current_;
  std::vector<double> medians_;
};

/// In-memory span log of the traced run. Spans nest per thread through a
/// thread-local stack; each span's self time (its duration minus the time
/// its direct children cover) is folded into a per-name total when it
/// ends, and the raw spans are kept for the trace file written at exit.
class SpanLog {
 public:
  struct Record {
    const char* name;
    std::uint32_t thread;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  SpanLog();
  struct ThreadLog;  // one per recording thread, defined in main.cc

  /// Self-time seconds and span count per span name.
  struct Layer {
    double self_s = 0;
    std::uint64_t spans = 0;
  };
  std::map<std::string, Layer> Layers() const;
  std::uint64_t span_count() const;

  /// Writes up to `max_spans` spans as Chrome trace-event JSON; false on
  /// an I/O error.
  bool WriteChromeTrace(const std::string& path, std::size_t max_spans) const;

 private:
  friend class Span;
  ThreadLog* ThisThread();

  const std::uint64_t id_;  // tells a thread's cached log from a reused address
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> threads_;
};

/// RAII span; a null log records nothing (the untraced run).
class Span {
 public:
  Span(SpanLog* log, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog::ThreadLog* thread_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::int64_t child_ns_ = 0;
  Span* parent_ = nullptr;
};

/// A fixed, ordered list of metric names and units that workloads fill by
/// name: every workload reports every metric of a sheet (0 where its
/// layer does no work), so the result line always has the same keys.
class Sheet {
 public:
  explicit Sheet(std::vector<Metric> metrics) : metrics_(std::move(metrics)) {}
  /// Sets a metric the sheet declares; aborts on an unknown name.
  void Set(const std::string& name, double value);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// End-to-end metrics of the untraced run (setup_s is added by the driver).
Sheet EndToEndSheet();
/// Per-layer metrics of the traced run.
Sheet PerLayerSheet();

/// Per-phase set-up timings collected across repeated Setup() calls.
class SetupPhases {
 public:
  void Add(const std::string& phase, double seconds);
  double MedianOf(const std::string& phase) const;
  /// Sets setup.<phase>_s for the dataset, build and calibrate phases.
  void Fill(Sheet* sheet) const;

 private:
  std::map<std::string, std::vector<double>> phases_;
};

/// One benchmark workload. A run builds several fresh instances from
/// the same seed and measures a slice of the timed region on each: a
/// host-clock figure then pools several memory placements instead of
/// resting on one, and the modelled figures of the instances must agree
/// (the determinism report). Per instance the driver calls Setup(), then
/// Measure() once (untraced) or twice (untraced, then traced), then
/// Modelled() and Verify().
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds a fresh instance from the seed; `log` spans set-up phases.
  virtual void Setup(SpanLog* log) = 0;
  /// Runs the workload on the current instance for `seconds` of host
  /// time and pools the host samples with earlier slices of the same kind
  /// (traced when `log` is set). Returns the slice's ops per host second.
  virtual double Measure(double seconds, SpanLog* log) = 0;
  /// Modelled metrics of the current instance's first slice.
  virtual std::vector<Metric> Modelled() = 0;
  /// Checks what only the end of a slice can confirm (the writes).
  virtual void Verify() = 0;
  /// End-to-end metrics over the untraced slices; per-layer metrics over
  /// the traced ones.
  virtual void FillEndToEnd(Sheet* sheet) = 0;
  virtual void FillPerLayer(Sheet* sheet) = 0;
  /// Human-readable lines (percentiles with sample counts, busiest
  /// modelled resource, ...).
  virtual std::vector<std::string> Notes() = 0;
  virtual Outcome outcome() const = 0;
};

std::unique_ptr<Workload> MakeLookupUniform(std::uint64_t seed);
std::unique_ptr<Workload> MakeMixedZipf(std::uint64_t seed);
std::unique_ptr<Workload> MakeServeReadMostly(std::uint64_t seed);
std::unique_ptr<Workload> MakeServeBlockingRw(std::uint64_t seed);

/// Median of a list (0 when empty).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
