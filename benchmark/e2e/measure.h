#ifndef DUALSIM_BENCHMARK_E2E_MEASURE_H_
#define DUALSIM_BENCHMARK_E2E_MEASURE_H_

/// Measurement plumbing of the end-to-end benchmark, all of it outside
/// the program under test: the metric catalogue, quantiles, process and
/// host counters, deltas of the obs registry, and an in-memory span
/// recorder that writes a Chrome trace-event file when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dualsim::e2e {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by an untraced run (--trace 0), in this order.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Printed by a traced run (--trace 1), in this order.
const std::vector<MetricSpec>& PerLayerMetrics();

/// True for a name of 1..64 characters from [A-Za-z0-9_.-] that starts
/// with a letter or digit.
bool ValidMetricName(std::string_view name);

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

using Clock = std::chrono::steady_clock;
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time consumed by every thread of this process, in milliseconds.
double ProcessCpuMs();
/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Aggregate CPU jiffies from /proc/stat (zeros when unreadable).
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static HostCpu Read();
};
/// Share of host CPU time stolen by the hypervisor between two readings.
double StealFrac(const HostCpu& before, const HostCpu& after);

/// Differences of the process-wide obs registry between two snapshots.
std::uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after,
                           std::string_view name);
obs::MetricsSnapshot::HistogramValue HistogramDelta(
    const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after,
    std::string_view name);
/// Quantile of a log2-bucketed histogram, interpolated linearly inside
/// the bucket that holds it (bucket b spans [2^(b-1), 2^b)).
double HistogramQuantile(const obs::MetricsSnapshot::HistogramValue& h,
                         double q);

/// Spans of the benchmark's own calls into each layer, plus the spans
/// the program records into an obs::TraceContext, kept in memory and
/// written once at the end. Span names must be string literals.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_us;
    std::uint64_t end_us;
    std::int64_t parent;     // index into spans(), -1 for a root
    std::uint64_t request;   // operation the span belongs to
    std::uint32_t thread;    // 0 = benchmark thread, 1+ = program threads
  };

  SpanRecorder();

  /// Microseconds since the recorder was created.
  std::uint64_t NowUs() const;

  /// Opens a span and returns its index.
  std::int64_t Begin(const char* name, std::uint64_t request,
                     std::int64_t parent);
  void End(std::int64_t index);

  /// Copies the spans of `ctx`, which was created at recorder time
  /// `ctx_epoch_us`, into operation `request`. Each becomes a child of
  /// the tightest span of that operation enclosing it.
  void Import(const obs::TraceContext& ctx, std::uint64_t ctx_epoch_us,
              std::uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Milliseconds of span `index` not covered by its direct children.
  double SelfMs(std::int64_t index) const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}, complete "X"
  /// events), which chrome://tracing and Perfetto open as is.
  std::string ToChromeTraceJson() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op (untraced operations).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t request,
             std::int64_t parent = -1)
      : recorder_(recorder),
        index_(recorder ? recorder->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t index_;
};

/// Final line of a run: {"correct", "attempted", "failed", "metrics"}
/// with every metric of `specs` taken from `values` (a missing or
/// non-finite value is a programming error and aborts).
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<MetricSpec>& specs,
                       const std::map<std::string, double>& values);

/// Minimal JSON string escaping for the benchmark's own outputs.
std::string JsonEscape(std::string_view s);

}  // namespace dualsim::e2e

#endif  // DUALSIM_BENCHMARK_E2E_MEASURE_H_
