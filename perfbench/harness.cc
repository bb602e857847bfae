#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

#include "util/json.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double MedianBlockQuantile(const std::vector<double>& values, size_t block,
                           double q) {
  const size_t blocks = std::max<size_t>(1, values.size() / block);
  std::vector<double> quantiles;
  for (size_t b = 0; b < blocks; ++b) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks ? values.end() : first + block;
    quantiles.push_back(Quantile(std::vector<double>(first, last), q));
  }
  return Median(quantiles);
}

double SetupSeconds(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return *std::min_element(samples.begin(), samples.end());
}

bool WriteChromeTrace(const std::string& path, const SpanLog& log,
                      Clock::time_point origin) {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Span& span : log.spans()) {
    const double ts =
        std::chrono::duration<double, std::micro>(span.start - origin).count();
    const double dur =
        std::chrono::duration<double, std::micro>(span.end - span.start)
            .count();
    out << (first ? "\n" : ",\n") << "{\"name\": " << hta::JsonQuote(span.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
        << ", \"ts\": " << hta::JsonNumber(ts)
        << ", \"dur\": " << hta::JsonNumber(dur)
        << ", \"args\": {\"request\": " << span.request
        << ", \"inner_us\": " << hta::JsonNumber(span.inner_seconds * 1e6)
        << "}}";
    first = false;
  }
  out << "\n]}\n";
  return out.good();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (stream + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
