// Measurement helpers shared by every perfbench workload: host timers,
// sample sets with medians and percentiles, an FNV-1a digest for simulated
// outputs, an in-memory span recorder for the traced run, and the metric
// sink that prints each value by name with its unit.
#ifndef SALAMANDER_PERFBENCH_MEASURE_H_
#define SALAMANDER_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

class Timer {
 public:
  Timer() : start_(NowNs()) {}
  uint64_t Ns() const { return NowNs() - start_; }
  double Seconds() const { return static_cast<double>(Ns()) / 1e9; }

 private:
  uint64_t start_;
};

// Host-time samples (any unit); quantiles interpolate between closest ranks.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;
  double Min() const { return Quantile(0.0); }
  double Median() const { return Quantile(0.5); }
  double Max() const { return Quantile(1.0); }
  double Sum() const;
  double Mean() const { return empty() ? 0.0 : Sum() / size(); }

 private:
  std::vector<double> values_;
};

// FNV-1a over 64-bit words: the fingerprint of a workload's simulated
// outputs, compared against the recorded golden value.
class Digest {
 public:
  void Add(uint64_t value);
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Spans of the traced run: one per public call the benchmark makes. `group`
// is shared by the spans of one op or one device-day; `parent` indexes the
// enclosing span (or -1). Kept in memory; written once when the run ends.
class SpanRecorder {
 public:
  struct Span {
    uint32_t name = 0;
    int64_t parent = -1;
    uint64_t group = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  // Opens a span and returns its index; close it with End().
  int64_t Begin(const char* name, uint64_t group);
  void End(int64_t span);
  // Host-ns durations of every closed span with this name.
  Samples DurationsNs(const char* name) const;
  size_t size() const { return spans_.size(); }
  bool WriteCsv(const std::string& path) const;

 private:
  uint32_t NameId(const char* name);

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// RAII span around one call; a null recorder makes it free of side effects.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t group)
      : recorder_(recorder),
        span_(recorder == nullptr ? -1 : recorder->Begin(name, group)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t span_;
};

// Ordered (name, value, unit) list; printed as readable lines and as the
// `metrics` object of the result line.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Prints one "name value unit" line per metric to stdout.
  void PrintLines() const;
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Ledger, guard and digest checks of one run. A failed check is reported on
// stderr and makes the result line say `"correct": false`.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }

 private:
  uint64_t failures_ = 0;
};

// Prints "name: n=.. min=.. p25=.. median=.. p75=.. max=.." for one sample set.
void PrintSpread(const char* name, const Samples& samples);

inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

// Simulated-time percentile in microseconds from a LogHistogram of ns.
inline double HistUs(const salamander::LogHistogram& hist, double q) {
  return static_cast<double>(hist.Quantile(q)) / 1000.0;
}

// Median host cost of one steady_clock read pair, subtracted from per-call
// timings when a rung without per-call timers is compared against one with.
double TimerOverheadNs();

// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // SALAMANDER_PERFBENCH_MEASURE_H_
