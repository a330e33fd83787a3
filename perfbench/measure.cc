#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstring>

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between closest ranks.
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) {
    sum += v;
  }
  return sum;
}

void Digest::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
  return buf;
}

uint32_t SpanRecorder::NameId(const char* name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return i;
    }
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

int64_t SpanRecorder::Begin(const char* name, uint64_t group) {
  Span span;
  span.name = NameId(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.group = group;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int64_t index = static_cast<int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int64_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  open_.pop_back();
}

Samples SpanRecorder::DurationsNs(const char* name) const {
  Samples out;
  for (uint32_t id = 0; id < names_.size(); ++id) {
    if (names_[id] != name) {
      continue;
    }
    for (const Span& span : spans_) {
      if (span.name == id) {
        out.Add(static_cast<double>(span.end_ns - span.start_ns));
      }
    }
  }
  return out;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "index,name,parent,group,start_ns,end_ns\n");
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu,%s,%" PRId64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                      "\n",
                 i, names_[s.name].c_str(), s.parent, s.group,
                 s.start_ns - origin, s.end_ns - origin);
  }
  return std::fclose(out) == 0;
}

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit) {
  entries_.push_back({name, value, unit});
}

void MetricSink::PrintLines() const {
  for (const Entry& e : entries_) {
    std::printf("  %-36s %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

std::string MetricSink::Json() const {
  std::string out = "{";
  char buf[512];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double value = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", e.name.c_str(), value, e.unit.c_str());
    out += buf;
  }
  return out + "}";
}

void Checks::Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures_;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

void PrintSpread(const char* name, const Samples& samples) {
  std::printf("  %s: n=%zu min=%.6g p25=%.6g median=%.6g p75=%.6g max=%.6g\n",
              name, samples.size(), samples.Quantile(0), samples.Quantile(0.25),
              samples.Median(), samples.Quantile(0.75), samples.Max());
}

double TimerOverheadNs() {
  Samples samples;
  for (int i = 0; i < 4096; ++i) {
    const uint64_t a = NowNs();
    const uint64_t b = NowNs();
    samples.Add(static_cast<double>(b - a));
  }
  return samples.Median();
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
