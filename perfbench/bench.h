// Shared types of the benchmark program: run options, the result every
// workload fills, and the measurement helpers the workloads share.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated inputs (CSV, checkpoints).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value: steps, requests or set-ups.
  int64_t samples = 0;
  /// What the value is on this workload, for the human-readable lines.
  std::string meaning;
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Extra human-readable lines: per-phase counts, tails, check outcomes.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit, int64_t samples,
           std::string meaning) {
    metrics.push_back({std::move(name), value, std::move(unit), samples,
                       std::move(meaning)});
  }
  /// Records a failed correctness check; the run will exit non-zero.
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

Result RunPretrainLong(const Options& options);
Result RunPretrainCi(const Options& options);
Result RunServeOpenLoop(const Options& options);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

/// Peak resident set of this process so far, MiB.
double PeakRssMb();

/// Registry counters the per-layer metrics are built from, as deltas over
/// a measured phase.
struct CounterSnapshot {
  uint64_t parallel_fors = 0;
  uint64_t chunks = 0;
  uint64_t inline_runs = 0;
  uint64_t pool_misses = 0;

  static CounterSnapshot Take();
  CounterSnapshot operator-(const CounterSnapshot& base) const;
};

/// Adds threadpool.* and pool.* metrics for a phase of `ops` steps or
/// requests.
void AddThreadAndPoolMetrics(const CounterSnapshot& delta, int64_t ops,
                             Result* result);

/// Summed span time (ms, over all threads) and call counts of the kernel
/// spans the library emits under tracing, folded into the kernels.*
/// layers.
struct KernelFold {
  double gemm_nn_ms = 0.0;
  double gemm_nt_ms = 0.0;
  double gemm_tn_ms = 0.0;
  int64_t gemm_calls = 0;
  double layout_copy_ms = 0.0;
  double fused_ms = 0.0;
  int64_t spans = 0;
  int64_t dropped = 0;
};

/// Starts a traced phase: clears recorded spans and enables tracing. No
/// other thread may be recording when this runs.
void BeginTracedPhase();
/// Ends a traced phase and folds its spans. Call after every thread that
/// recorded has stopped (or quiesced).
KernelFold EndTracedPhase();

/// Adds the kernels.* metrics, normalized per step or request.
void AddKernelMetrics(const KernelFold& fold, int64_t ops, Result* result);

/// Times one call into a library layer: accumulates milliseconds into
/// `total_ms` and, while tracing, records a "bench" span so the layer
/// boundary also shows in an exported trace.
class LayerTimer {
 public:
  LayerTimer(const char* name, double* total_ms);
  ~LayerTimer();
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  const char* name_;
  double* total_ms_;
  Clock::time_point start_;
  int64_t trace_start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
