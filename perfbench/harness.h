#ifndef HTA_PERFBENCH_HARNESS_H_
#define HTA_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline constexpr double kMiB = 1024.0 * 1024.0;

/// num / den, or 0 when den is not positive (an empty sample).
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Exact sample quantile: linear interpolation between the order
/// statistics of `values` (no histogram buckets). 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The q-quantile of each consecutive block of `block` values (the last
/// block takes the remainder), and the median over blocks. A host stall
/// that covers part of a run then moves one block's tail, not the figure.
double MedianBlockQuantile(const std::vector<double>& values, size_t block,
                           double q);

/// setup_s of a run: the lowest of its set-up samples, which are spread
/// over the run. The shared 4-vCPU guest this was tuned on alternates
/// between two speeds about 1.5x apart every 0.1-1 s, so a median over
/// the samples jumps between the two from run to run; the lowest sample
/// is the set-up cost while the host is not slowed down.
double SetupSeconds(const std::vector<double>& samples);

/// One timed call into libhta, recorded around a public function by the
/// benchmark itself. Spans of one worker (serving) or one instance
/// (offline) share `request`.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  uint64_t request = 0;
  uint32_t thread = 0;
  /// Optional annotation: the iteration time inside a refresh, or the
  /// matching time inside a solve (seconds).
  double inner_seconds = 0.0;
};

/// In-memory span buffer, one per driving thread. Disabled logs drop
/// every span, so untraced runs pay only the `enabled()` branch.
class SpanLog {
 public:
  SpanLog(bool enabled, uint32_t thread) : enabled_(enabled), thread_(thread) {}

  bool enabled() const { return enabled_; }
  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           uint64_t request, double inner_seconds = 0.0) {
    if (!enabled_) return;
    spans_.push_back(Span{name, start, end, request, thread_, inner_seconds});
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

 private:
  bool enabled_;
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// Writes the spans as Chrome trace-event JSON (timestamps in µs from
/// `origin`). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path, const SpanLog& log,
                      Clock::time_point origin);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run measured and checked.
struct RunReport {
  /// Bounded metrics, printed by untraced runs.
  std::vector<Metric> end_to_end;
  /// Per-layer metrics, printed by traced runs.
  std::vector<Metric> per_layer;
  /// The workload's own figures under their descriptive names (e.g.
  /// refresh_p50_ms), printed on the report line only.
  std::vector<Metric> detail;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Records a failed correctness check.
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  bool correct() const { return errors.empty() && failed == 0; }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Mixes a run seed with a stream index into an independent 64-bit seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Run one workload; traced runs record their spans into `spans`.
RunReport RunServe(const RunConfig& config, SpanLog* spans);
RunReport RunOffline(const RunConfig& config, SpanLog* spans);

}  // namespace perfbench

#endif  // HTA_PERFBENCH_HARNESS_H_
