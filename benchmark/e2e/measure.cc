#include "e2e/measure.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace dualsim::e2e {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"query_p50_ms", "ms"},
      {"pages_per_query", "pages"},
      {"peak_rss_mb", "MiB"},
      {"ok_frac", "frac"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"graph.generate_s", "s"},
      {"graph.reorder_s", "s"},
      {"storage.build_s", "s"},
      {"storage.open_s", "s"},
      {"storage.physical_reads", "pages"},
      {"storage.hit_rate", "frac"},
      {"storage.evictions", "count"},
      {"storage.read_us_p50", "us"},
      {"storage.pin_batch_ms", "ms"},
      {"plan.prepare_ms", "ms"},
      {"plan.cache_hit_rate", "frac"},
      {"runtime.start_ms", "ms"},
      {"runtime.admit_ms", "ms"},
      {"core.execute_ms", "ms"},
      {"core.cpu_ms", "ms"},
      {"core.busy_frac", "frac"},
      {"core.windows", "count"},
      {"core.degraded_windows", "count"},
      {"core.internal_frac", "frac"},
      {"core.intersect_calls", "count"},
      {"core.intersect_per_embedding", "count"},
      {"service.queue_wait_ms", "ms"},
      {"service.overhead_ms", "ms"},
      {"incr.update_ack_p50_ms", "ms"},
      {"incr.update_ack_p90_ms", "ms"},
      {"incr.windows_rerun", "count"},
      {"incr.rerun_frac", "frac"},
      {"incr.pages_reread", "pages"},
      {"incr.dirty_pages", "pages"},
      {"incr.diff_size", "count"},
      {"client.query_p90_ms", "ms"},
      {"host.steal_frac", "frac"},
      {"trace.overhead_frac", "frac"},
      {"trace.accounted_frac", "frac"},
  };
  return specs;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

HostCpu HostCpu::Read() {
  HostCpu out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest time is already
  // folded into user/nice).
  std::uint64_t fields[8] = {};
  for (std::uint64_t& f : fields) {
    if (!(in >> f)) return HostCpu{};
  }
  for (std::uint64_t f : fields) out.total += f;
  out.steal = fields[7];
  return out;
}

double StealFrac(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after,
                           std::string_view name) {
  const std::uint64_t a = after.counter(name);
  const std::uint64_t b = before.counter(name);
  return a > b ? a - b : 0;
}

obs::MetricsSnapshot::HistogramValue HistogramDelta(
    const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after,
    std::string_view name) {
  obs::MetricsSnapshot::HistogramValue out = after.histogram(name);
  const obs::MetricsSnapshot::HistogramValue b = before.histogram(name);
  out.count -= std::min(out.count, b.count);
  out.sum -= std::min(out.sum, b.sum);
  std::map<int, std::uint64_t> buckets(out.buckets.begin(),
                                       out.buckets.end());
  for (const auto& [bucket, count] : b.buckets) {
    auto& slot = buckets[bucket];
    slot -= std::min(slot, count);
  }
  out.buckets.clear();
  for (const auto& [bucket, count] : buckets) {
    if (count > 0) out.buckets.emplace_back(bucket, count);
  }
  return out;
}

double HistogramQuantile(const obs::MetricsSnapshot::HistogramValue& h,
                         double q) {
  std::uint64_t total = 0;
  for (const auto& [bucket, count] : h.buckets) total += count;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (const auto& [bucket, count] : h.buckets) {
    if (seen + static_cast<double>(count) >= target) {
      if (bucket == 0) return 0.0;
      const double lo = std::ldexp(1.0, bucket - 1);
      return lo + lo * (target - seen) / static_cast<double>(count);
    }
    seen += static_cast<double>(count);
  }
  return std::ldexp(1.0, h.buckets.back().first);
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

std::uint64_t SpanRecorder::NowUs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch_)
          .count());
}

std::int64_t SpanRecorder::Begin(const char* name, std::uint64_t request,
                                 std::int64_t parent) {
  const std::uint64_t now = NowUs();
  spans_.push_back({name, now, now, parent, request, 0});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::End(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_us = NowUs();
}

void SpanRecorder::Import(const obs::TraceContext& ctx,
                          std::uint64_t ctx_epoch_us, std::uint64_t request) {
  std::vector<obs::TraceContext::Span> imported = ctx.spans();
  // Outer spans first, so a child always finds its enclosing parent.
  std::sort(imported.begin(), imported.end(), [](const auto& a, const auto& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us
                                    : a.duration_us > b.duration_us;
  });
  std::vector<std::int64_t> candidates;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].request == request) {
      candidates.push_back(static_cast<std::int64_t>(i));
    }
  }
  for (const auto& s : imported) {
    const std::uint64_t start = ctx_epoch_us + s.start_us;
    const std::uint64_t end = start + s.duration_us;
    std::int64_t parent = -1;
    for (std::int64_t c : candidates) {
      const Span& p = spans_[static_cast<std::size_t>(c)];
      if (p.start_us <= start && end <= p.end_us &&
          (parent < 0 || p.end_us - p.start_us <=
                             spans_[static_cast<std::size_t>(parent)].end_us -
                                 spans_[static_cast<std::size_t>(parent)]
                                     .start_us)) {
        parent = c;
      }
    }
    spans_.push_back({s.name, start, end, parent, request, s.thread + 1});
    candidates.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  }
}

double SpanRecorder::SelfMs(std::int64_t index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  std::uint64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent == index) covered += s.end_us - s.start_us;
  }
  const std::uint64_t total = span.end_us - span.start_us;
  return static_cast<double>(total - std::min(total, covered)) / 1e3;
}

std::string SpanRecorder::ToChromeTraceJson() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << JsonEscape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << s.start_us << ", \"dur\": " << s.end_us - s.start_us
        << ", \"args\": {\"request\": " << s.request
        << ", \"span\": " << i << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<MetricSpec>& specs,
                       const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    DS_CHECK(it != values.end()) << "metric not measured: " << spec.name;
    DS_CHECK(std::isfinite(it->second)) << "metric not finite: " << spec.name;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", it->second);
    out << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
        << number << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace dualsim::e2e
