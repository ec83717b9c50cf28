// Benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload <pretrain_long|pretrain_ci|serve_open_loop>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Output: a "tags" JSON line (threads, nproc, ISA, CPU features, seed),
// one line per metric with its unit and sample count, free-form check and
// phase lines, and as the last line the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// the per-layer metrics of a separate run with tracing on. The exit code
// is non-zero when a correctness check failed.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels/dispatch.h"
#include "util/thread_pool.h"

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kB
}

CounterSnapshot CounterSnapshot::Take() {
  const timedrl::obs::MetricsSnapshot snap =
      timedrl::obs::Registry::Global().Snapshot();
  CounterSnapshot s;
  s.parallel_fors = snap.CounterValue("threadpool.parallel_fors");
  s.chunks = snap.CounterValue("threadpool.chunks");
  s.inline_runs = snap.CounterValue("threadpool.inline_runs");
  s.pool_misses = snap.CounterValue("pool.misses");
  return s;
}

CounterSnapshot CounterSnapshot::operator-(const CounterSnapshot& base) const {
  CounterSnapshot d;
  d.parallel_fors = parallel_fors - base.parallel_fors;
  d.chunks = chunks - base.chunks;
  d.inline_runs = inline_runs - base.inline_runs;
  d.pool_misses = pool_misses - base.pool_misses;
  return d;
}

void AddThreadAndPoolMetrics(const CounterSnapshot& delta, int64_t ops,
                             Result* result) {
  const double n = static_cast<double>(ops > 0 ? ops : 1);
  const double fors = static_cast<double>(delta.parallel_fors);
  result->Add("threadpool.parallel_fors", fors / n, "count", ops,
              "fork-joins per op");
  result->Add("threadpool.chunks_per_call",
              fors > 0 ? static_cast<double>(delta.chunks) / fors : 0.0,
              "count", ops, "chunks per fork-join");
  const double loops = fors + static_cast<double>(delta.inline_runs);
  result->Add("threadpool.inline_share",
              loops > 0 ? static_cast<double>(delta.inline_runs) / loops : 0.0,
              "ratio", ops, "ParallelFor calls run inline");
  result->Add("pool.misses", static_cast<double>(delta.pool_misses), "count",
              ops, "buffer-pool misses after warm-up");
  result->Add("pool.high_water_mb",
              timedrl::obs::Registry::Global()
                      .GetGauge("pool.high_water_bytes")
                      .value() /
                  (1024.0 * 1024.0),
              "MiB", 1, "pool.high_water_bytes");
}

void BeginTracedPhase() {
  timedrl::obs::ClearTraceEvents();
  timedrl::obs::SetTraceEnabled(true);
}

KernelFold EndTracedPhase() {
  timedrl::obs::SetTraceEnabled(false);
  KernelFold fold;
  const std::vector<timedrl::obs::TraceEvent> events =
      timedrl::obs::CollectTraceEvents();
  fold.spans = static_cast<int64_t>(events.size());
  fold.dropped = timedrl::obs::TraceDroppedCount();
  for (const timedrl::obs::TraceEvent& event : events) {
    if (std::string_view(event.category) != "kernel") continue;
    const std::string_view name(event.name);
    const double ms = static_cast<double>(event.duration_ns) / 1e6;
    if (name == "gemm_nn") {
      fold.gemm_nn_ms += ms;
      ++fold.gemm_calls;
    } else if (name == "gemm_nt") {
      fold.gemm_nt_ms += ms;
      ++fold.gemm_calls;
    } else if (name == "gemm_tn") {
      fold.gemm_tn_ms += ms;
      ++fold.gemm_calls;
    } else if (name == "copy_strided" || name == "gather_strided" ||
               name == "accumulate_strided") {
      // Layout copies: Permute's gather, Slice/Concat block copies, and
      // their backward scatter.
      fold.layout_copy_ms += ms;
    } else if (name.rfind("fused_", 0) == 0) {
      fold.fused_ms += ms;
    }
  }
  timedrl::obs::ClearTraceEvents();
  return fold;
}

void AddKernelMetrics(const KernelFold& fold, int64_t ops, Result* result) {
  const double n = static_cast<double>(ops > 0 ? ops : 1);
  const std::string per = "thread-time per op";
  result->Add("kernels.gemm_nn_ms", fold.gemm_nn_ms / n, "ms", ops, per);
  result->Add("kernels.gemm_nt_ms", fold.gemm_nt_ms / n, "ms", ops, per);
  result->Add("kernels.gemm_tn_ms", fold.gemm_tn_ms / n, "ms", ops, per);
  result->Add("kernels.gemm_calls", static_cast<double>(fold.gemm_calls) / n,
              "count", ops, "per op");
  result->Add("kernels.layout_copy_ms", fold.layout_copy_ms / n, "ms", ops,
              per);
  result->Add("kernels.fused_ms", fold.fused_ms / n, "ms", ops, per);
  std::ostringstream line;
  line << "trace: " << fold.spans << " spans folded, " << fold.dropped
       << " dropped";
  result->notes.push_back(line.str());
}

LayerTimer::LayerTimer(const char* name, double* total_ms)
    : name_(name),
      total_ms_(total_ms),
      start_(Clock::now()),
      trace_start_ns_(timedrl::obs::TraceEnabled() ? timedrl::obs::TraceNowNs()
                                                   : -1) {}

LayerTimer::~LayerTimer() {
  *total_ms_ += MsSince(start_);
  if (trace_start_ns_ >= 0) {
    timedrl::obs::RecordSpan(name_, "bench", trace_start_ns_,
                             timedrl::obs::TraceNowNs() - trace_start_ns_);
  }
}

namespace {

// Every metric a run may print, with its unit. Each end-to-end metric is
// defined on every workload (its meaning per workload is in RATIONALE.md);
// a per-layer metric of a layer the workload does not drive reads 0.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
    {"ok_ratio", "ratio"},
};
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"data.wait_ms", "ms"},
    {"data.assemble_ms", "ms"},
    {"core.fwd_ms", "ms"},
    {"tensor.bwd_ms", "ms"},
    {"optim.ms", "ms"},
    {"kernels.gemm_nn_ms", "ms"},
    {"kernels.gemm_nt_ms", "ms"},
    {"kernels.gemm_tn_ms", "ms"},
    {"kernels.gemm_calls", "count"},
    {"kernels.layout_copy_ms", "ms"},
    {"kernels.fused_ms", "ms"},
    {"threadpool.parallel_fors", "count"},
    {"threadpool.chunks_per_call", "count"},
    {"threadpool.inline_share", "ratio"},
    {"pool.misses", "count"},
    {"pool.high_water_mb", "MiB"},
    {"serve.queue_us_p50", "us"},
    {"serve.batch_mean", "count"},
    {"serve.shed", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.encode_us.b1", "us"},
    {"serve.encode_us.b8", "us"},
    {"serve.encode_us.b32", "us"},
    {"serve.p50_us.high", "us"},
    {"serve.p99_us.low", "us"},
    {"serve.p99_us.high", "us"},
    {"loadgen.late_us_p99", "us"},
    {"loadgen.late_us_max", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_ms", "ms"},
};

std::string JsonNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pretrain_long|pretrain_ci|serve_open_loop> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return Usage("arguments come in --flag value pairs");
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--work-dir"}) {
    if (!args.count(required)) return Usage("missing argument");
  }
  options.workload = args["--workload"];
  options.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  options.seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  options.trace = args["--trace"] == "1";
  options.work_dir = args["--work-dir"];
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "pretrain_long") run = RunPretrainLong;
  if (options.workload == "pretrain_ci") run = RunPretrainCi;
  if (options.workload == "serve_open_loop") run = RunServeOpenLoop;
  if (run == nullptr) return Usage("unknown workload");

  namespace simd = timedrl::kernels::simd;
  std::printf(
      "{\"tags\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"threads\": %d, \"nproc\": %u, \"isa\": %s, "
      "\"cpu_features\": %s}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? 1 : 0,
      timedrl::NumThreads(), std::thread::hardware_concurrency(),
      JsonString(simd::IsaName(simd::ActiveIsa())).c_str(),
      JsonString(simd::CpuFeatureString()).c_str());
  std::fflush(stdout);

  Result result = run(options);

  // Emit exactly the declared metric set, in declaration order.
  const auto& declared = options.trace ? kPerLayer : kEndToEnd;
  std::map<std::string, Metric> by_name;
  for (const Metric& metric : result.metrics) {
    by_name[metric.name] = metric;
  }
  std::set<std::string> known;
  for (const auto& [name, unit] : declared) known.insert(name);
  for (const auto& [name, metric] : by_name) {
    if (!known.count(name)) result.Fail("undeclared metric " + name);
  }
  std::string metrics_json;
  for (const auto& [name, unit] : declared) {
    auto it = by_name.find(name);
    Metric metric{name, 0.0, unit, 0, "layer not driven by this workload"};
    if (it != by_name.end()) {
      metric = it->second;
    } else if (!options.trace) {
      result.Fail("missing end-to-end metric " + name);
    }
    if (metric.unit != unit) result.Fail("unit mismatch for " + name);
    if (!std::isfinite(metric.value)) {
      result.Fail("non-finite value for " + name);
      metric.value = 0.0;
    }
    std::printf("metric %-28s %14.6g %-6s n=%-7lld %s\n", name.c_str(),
                metric.value, unit.c_str(),
                static_cast<long long>(metric.samples), metric.meaning.c_str());
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += JsonString(name) + ": {\"value\": " +
                    JsonNumber(metric.value) + ", \"unit\": " +
                    JsonString(unit) + "}";
  }
  if (result.attempted < 1) result.Fail("no operation attempted");
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics_json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
