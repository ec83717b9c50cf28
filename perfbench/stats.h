// Summary statistics and load schedules shared by the benchmark workloads.
// Header-only so stats_test.cc can test them without the library.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The calm end of per-segment figures of one run: the fastest tenth.
/// Co-tenant CPU steal on a shared virtual machine arrives in bursts of
/// about a second and only ever adds time (a stolen vCPU stalls every
/// fork-join loop of the program), so the calmest segments read the
/// program and the others the neighbours.
inline double CalmTime(const std::vector<double>& per_segment) {
  return Quantile(per_segment, 0.1);
}
inline double CalmRate(const std::vector<double>& per_segment) {
  return Quantile(per_segment, 0.9);
}

/// A tail percentile that the sample count can support.
struct Tail {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;
};

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
/// least ten samples beyond it, so a tail is never read off one or two
/// outliers. Empty when there are fewer than 20 samples.
inline std::optional<Tail> TailPercentile(const std::vector<double>& values) {
  static constexpr int64_t kPermille[] = {999, 990, 950, 900, 750, 500};
  const int64_t n = static_cast<int64_t>(values.size());
  for (int64_t permille : kPermille) {
    // n * (1 - p) >= 10, in integers so 1000 samples qualify for p99.
    if (n * (1000 - permille) >= 10 * 1000) {
      return Tail{static_cast<double>(permille) / 10.0,
                  Quantile(values, static_cast<double>(permille) / 1000.0)};
    }
  }
  return std::nullopt;
}

/// Due times (ns after the phase start, ascending, all < duration) of an
/// open-loop Poisson arrival process at `rate_per_s`. A pure function of
/// `seed`: the gaps come from the raw mt19937_64 stream, not from a
/// library distribution whose algorithm may differ between standard
/// libraries.
inline std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                            double duration_s) {
  std::vector<int64_t> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  std::mt19937_64 engine(seed);
  const double end_ns = duration_s * 1e9;
  double t_ns = 0.0;
  for (;;) {
    const double u = static_cast<double>(engine() >> 11) * 0x1.0p-53;  // [0,1)
    t_ns += -std::log1p(-u) / rate_per_s * 1e9;
    if (t_ns >= end_ns) break;
    due.push_back(static_cast<int64_t>(t_ns));
  }
  return due;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
