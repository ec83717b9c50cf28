// The serving workload: a checkpoint opened by serve::InferenceSession
// behind a serve::MicroBatcher, driven by one generator thread (the main
// thread) and one completion thread.
//
// Phases:
//   low      open-loop Poisson at kLowRate: batches of about one request,
//            so latency is the batch-1 encode plus queue and fan-out.
//   high     open-loop Poisson at kHighRate: requests coalesce.
//   capacity closed loop with kWindow requests outstanding.
// The untraced run interleaves kRounds rounds of a fresh set-up and the
// three phases, and reports the median set-up and the calm end (stats.h)
// of the per-round low-rate medians and capacities.
// Open-loop latency is timed from each request's due time, so a stall
// also charges the requests queued behind it. Rates sit far below the
// batcher's capacity, and the admission queue is sized so no burst can
// fill it: a request fails only if the program fails it.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/config.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "stats.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status_or.h"

namespace perfbench {
namespace {

using timedrl::Rng;
using timedrl::Tensor;
namespace core = timedrl::core;
namespace serve = timedrl::serve;
namespace obs = timedrl::obs;

constexpr double kLowRate = 300.0;    // requests/s
constexpr double kHighRate = 1000.0;  // requests/s
constexpr int kRounds = 20;
// Closed-loop requests per second of run time: about 30% of a run at the
// capacity measured when the benchmark was defined (~10k windows/s, 4
// cores).
constexpr double kCapacityRequestsPerSecond = 3000.0;
constexpr int64_t kWindow = 64;       // closed-loop requests in flight
constexpr int64_t kWindowLength = 128;
constexpr int64_t kNumWindows = 512;  // distinct request payloads, cycled
// Every kSampleEvery-th request's embedding is checked against a direct
// encode of the same window.
constexpr int64_t kSampleEvery = 16;
constexpr double kTolerance = 1e-5;

core::TimeDrlConfig ServeConfig() {
  core::TimeDrlConfig config;
  config.input_channels = 1;
  config.input_length = kWindowLength;
  config.patch_length = 8;
  config.patch_stride = 8;
  config.d_model = 64;
  config.num_heads = 4;
  config.ff_dim = 128;
  config.num_layers = 2;
  return config;
}

serve::InferenceSessionConfig SessionConfig() {
  serve::InferenceSessionConfig config;
  config.model = ServeConfig();
  return config;
}

serve::MicroBatcherOptions BatcherOptions() {
  serve::MicroBatcherOptions options;  // defaults, except:
  // Admission bound far above any backlog these rates can build, so a
  // machine stall delays requests instead of shedding them.
  options.max_queue = int64_t{1} << 22;
  return options;
}

using Window = std::vector<float>;

/// Seeded request payloads: univariate windows cut from an ETT-like series.
std::vector<Window> MakeWindows(uint64_t seed) {
  Rng rng(seed);
  const timedrl::data::TimeSeries series =
      timedrl::data::MakeEttLike(4096, /*period=*/24, /*variant=*/2, rng);
  std::vector<Window> windows;
  for (int64_t i = 0; i < kNumWindows; ++i) {
    const int64_t channel = rng.UniformInt(0, series.channels - 1);
    const int64_t offset = rng.UniformInt(0, series.length() - kWindowLength);
    Window window(kWindowLength);
    for (int64_t t = 0; t < kWindowLength; ++t) {
      window[t] = series.at(offset + t, channel);
    }
    windows.push_back(std::move(window));
  }
  return windows;
}

struct Served {
  int64_t window = 0;
  serve::Embedding embedding;
};

struct PhaseStats {
  std::string name;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  std::vector<double> latency_us;  // from due time (open loop)
  std::vector<double> late_us;     // generator lateness (open loop)
  double elapsed_s = 0.0;
  std::vector<Served> samples;
};

/// The completion thread: resolves futures in submission order, timing
/// each request and keeping every kSampleEvery-th embedding. `max_in_flight`
/// bounds outstanding requests (the closed loop); Push blocks at the bound.
class Completer {
 public:
  Completer(PhaseStats* stats, int64_t max_in_flight)
      : stats_(stats), max_in_flight_(max_in_flight),
        thread_([this] { Loop(); }) {}
  ~Completer() { Finish(); }
  Completer(const Completer&) = delete;
  Completer& operator=(const Completer&) = delete;

  void Push(int64_t id, int64_t window, Clock::time_point due,
            std::future<timedrl::util::StatusOr<serve::Embedding>> result) {
    std::unique_lock<std::mutex> lock(mutex_);
    space_.wait(lock, [&] { return in_flight_ < max_in_flight_; });
    ++in_flight_;
    pending_.push_back({id, window, due, std::move(result)});
    ready_.notify_one();
  }

  /// Waits for every pushed request, then stops the thread.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
      ready_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }

  Clock::time_point last_completion() const { return last_; }

 private:
  struct Pending {
    int64_t id;
    int64_t window;
    Clock::time_point due;
    std::future<timedrl::util::StatusOr<serve::Embedding>> result;
  };

  void Loop() {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return done_ || !pending_.empty(); });
        if (pending_.empty()) return;
        pending = std::move(pending_.front());
        pending_.pop_front();
      }
      timedrl::util::StatusOr<serve::Embedding> result = pending.result.get();
      const Clock::time_point now = Clock::now();
      last_ = now;
      stats_->latency_us.push_back(
          std::chrono::duration<double, std::micro>(now - pending.due).count());
      if (result.ok()) {
        ++stats_->ok;
        if (pending.id % kSampleEvery == 0) {
          stats_->samples.push_back(
              {pending.window, std::move(result).value()});
        }
      } else {
        ++stats_->failed;
      }
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      space_.notify_one();
    }
  }

  PhaseStats* stats_;
  const int64_t max_in_flight_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable space_;
  std::deque<Pending> pending_;
  int64_t in_flight_ = 0;
  bool done_ = false;
  Clock::time_point last_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Open loop: submits window i at its Poisson due time.
PhaseStats RunOpenLoop(const std::string& name, serve::MicroBatcher& batcher,
                       const std::vector<Window>& windows, uint64_t seed,
                       double rate, double seconds) {
  PhaseStats stats;
  stats.name = name;
  const std::vector<int64_t> due_ns = PoissonSchedule(seed, rate, seconds);
  {
    Completer completer(&stats, int64_t{1} << 40);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
    for (size_t i = 0; i < due_ns.size(); ++i) {
      const Clock::time_point due = start + std::chrono::nanoseconds(due_ns[i]);
      std::this_thread::sleep_until(due);
      stats.late_us.push_back(MsSince(due) * 1e3);
      const int64_t window = static_cast<int64_t>(i) % kNumWindows;
      completer.Push(static_cast<int64_t>(i), window, due,
                     batcher.Submit(windows[window]));
      ++stats.sent;
    }
    completer.Finish();
    stats.elapsed_s = SecondsSince(start);
  }
  return stats;
}

/// Closed loop: serves `count` requests keeping kWindow outstanding. A
/// fixed count, not a fixed time, so memory that grows with requests served
/// reads the same on a slow and a fast run.
PhaseStats RunClosedLoop(serve::MicroBatcher& batcher,
                         const std::vector<Window>& windows, int64_t count) {
  PhaseStats stats;
  stats.name = "capacity";
  Completer completer(&stats, kWindow);
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < count; ++i) {
    const int64_t window = i % kNumWindows;
    const Clock::time_point now = Clock::now();
    completer.Push(i, window, now, batcher.Submit(windows[window]));
    ++stats.sent;
  }
  completer.Finish();
  stats.elapsed_s = std::chrono::duration<double>(
                        completer.last_completion() - start)
                        .count();
  return stats;
}

std::string PhaseLine(const PhaseStats& phase) {
  std::ostringstream line;
  line << "phase " << phase.name << ": sent=" << phase.sent
       << " ok=" << phase.ok << " failed=" << phase.failed
       << " rate=" << phase.sent / phase.elapsed_s << "/s";
  if (!phase.latency_us.empty() && phase.name != "capacity") {
    line << " p50_us=" << Median(phase.latency_us);
    if (auto tail = TailPercentile(phase.latency_us)) {
      line << " p" << tail->percentile << "_us=" << tail->value;
    }
  }
  if (!phase.late_us.empty()) {
    if (auto tail = TailPercentile(phase.late_us)) {
      line << " late_p" << tail->percentile << "_us=" << tail->value;
    }
    line << " late_max_us="
         << *std::max_element(phase.late_us.begin(), phase.late_us.end());
  }
  return line.str();
}

/// The rounds of phase `name` pooled into one.
PhaseStats Merge(const std::vector<PhaseStats>& rounds,
                 const std::string& name) {
  PhaseStats merged;
  merged.name = name;
  for (const PhaseStats& round : rounds) {
    if (round.name != name) continue;
    merged.sent += round.sent;
    merged.ok += round.ok;
    merged.failed += round.failed;
    merged.elapsed_s += round.elapsed_s;
    merged.latency_us.insert(merged.latency_us.end(), round.latency_us.begin(),
                             round.latency_us.end());
    merged.late_us.insert(merged.late_us.end(), round.late_us.begin(),
                          round.late_us.end());
  }
  return merged;
}

/// The p99 of `values`, or their highest supported percentile when fewer
/// than 1000 samples leave less than ten beyond p99 (noted in the output).
double TailUs(const std::vector<double>& values, Result* result,
              const std::string& what) {
  const auto tail = TailPercentile(values);
  if (!tail) return 0.0;
  if (tail->percentile > 99.0) return Quantile(values, 0.99);
  if (tail->percentile < 99.0) {
    std::ostringstream line;
    line << what << ": " << values.size() << " samples support p"
         << tail->percentile << ", reported in place of p99";
    result->notes.push_back(line.str());
  }
  return tail->value;
}

/// Counts the phases' requests into `result` and compares the sampled
/// served embeddings with a direct encode of the same window on a
/// reference session; a mismatch fails that request.
void CountAndCheck(serve::InferenceSession& reference,
                  const std::vector<Window>& windows,
                  const std::vector<PhaseStats>& phases, Result* result) {
  for (const PhaseStats& phase : phases) {
    result->attempted += phase.sent;
    result->failed += phase.sent - phase.ok;
  }
  int64_t checked = 0;
  int64_t mismatched = 0;
  double worst = 0.0;
  for (const PhaseStats& phase : phases) {
    for (const Served& served : phase.samples) {
      const std::vector<float> expected =
          reference.EncodeWindow(windows[served.window]);
      double max_abs = 0.0;
      double max_diff = 0.0;
      bool same_size = expected.size() == served.embedding.size();
      for (size_t i = 0; same_size && i < expected.size(); ++i) {
        const double e = expected[i];
        max_abs = std::max(max_abs, std::fabs(e));
        max_diff = std::max(max_diff, std::fabs(e - served.embedding[i]));
      }
      const double rel = max_abs > 0 ? max_diff / max_abs : max_diff;
      worst = std::max(worst, rel);
      ++checked;
      if (!same_size || !(rel <= kTolerance)) ++mismatched;
    }
  }
  std::ostringstream line;
  line << "check served_vs_direct: " << checked << " sampled embeddings, "
       << mismatched << " beyond " << kTolerance << " relative (worst "
       << worst << ")";
  result->failed += mismatched;
  if (result->failed > 0) {
    result->Fail(std::to_string(result->failed) + " of " +
                 std::to_string(result->attempted) + " requests failed");
  }
  if (mismatched > 0 || checked == 0) {
    result->Fail(line.str());
  } else {
    result->notes.push_back(line.str());
  }
}

/// Set-up: checkpoint load, session open with its warm-up, batcher start
/// (through its first served request, which waits for the dispatcher's
/// own warm-up).
struct ServeState {
  std::unique_ptr<serve::InferenceSession> session;
  std::unique_ptr<serve::MicroBatcher> batcher;  // destroyed first
};

ServeState SetUp(const std::string& checkpoint, const Window& first,
                 Result* result) {
  ServeState state;
  const timedrl::Status status = serve::InferenceSession::Open(
      checkpoint, SessionConfig(), &state.session);
  if (!status.ok()) {
    result->Fail("InferenceSession::Open: " + status.ToString());
    return state;
  }
  state.batcher = std::make_unique<serve::MicroBatcher>(state.session.get(),
                                                        BatcherOptions());
  if (!state.batcher->Encode(first).ok()) result->Fail("first request failed");
  return state;
}

void Release(ServeState* state) {
  state->batcher.reset();
  state->session.reset();
}

/// Median direct Encode time at batch size `batch`, microseconds.
double EncodeUs(serve::InferenceSession& session,
                const std::vector<Window>& windows, int64_t batch) {
  std::vector<float> values;
  for (int64_t b = 0; b < batch; ++b) {
    values.insert(values.end(), windows[b].begin(), windows[b].end());
  }
  const Tensor x = Tensor::FromVector({batch, kWindowLength, 1}, values);
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point start = Clock::now();
    session.Encode(x);
    us.push_back(MsSince(start) * 1e3);
  }
  return Median(us);
}

/// Inputs of one serving run.
struct ServeInputs {
  std::string checkpoint;
  std::vector<Window> windows;
  uint64_t low_seed = 0;
  uint64_t high_seed = 0;
};

/// Opens the reference session on the calling thread, then counts and
/// checks every phase's requests against it.
std::unique_ptr<serve::InferenceSession> CheckAgainstReference(
    const ServeInputs& in, const std::vector<PhaseStats>& phases,
    Result* result) {
  std::unique_ptr<serve::InferenceSession> reference;
  const timedrl::Status status =
      serve::InferenceSession::Open(in.checkpoint, SessionConfig(), &reference);
  if (!status.ok()) {
    result->Fail("reference session: " + status.ToString());
    return nullptr;
  }
  CountAndCheck(*reference, in.windows, phases, result);
  return reference;
}

/// End-to-end run: kRounds interleaved rounds of set-up and phases.
std::vector<PhaseStats> TimedServe(const Options& options,
                                   const ServeInputs& in, Result* result) {
  const double round_s = options.seconds / kRounds;
  const int64_t capacity_requests =
      static_cast<int64_t>(kCapacityRequestsPerSecond * round_s);
  std::vector<PhaseStats> phases;
  std::vector<double> low_p50_ms;
  std::vector<double> capacity_rps;
  std::vector<double> setup_s;
  ServeState state;
  for (int r = 0; r < kRounds; ++r) {
    Release(&state);
    const Clock::time_point start = Clock::now();
    state = SetUp(in.checkpoint, in.windows[0], result);
    setup_s.push_back(SecondsSince(start));
    if (!result->correct) return phases;
    phases.push_back(RunOpenLoop("low", *state.batcher, in.windows,
                                 in.low_seed + r, kLowRate, round_s * 0.4));
    low_p50_ms.push_back(Median(phases.back().latency_us) / 1e3);
    phases.push_back(RunOpenLoop("high", *state.batcher, in.windows,
                                 in.high_seed + r, kHighRate, round_s * 0.3));
    phases.push_back(
        RunClosedLoop(*state.batcher, in.windows, capacity_requests));
    capacity_rps.push_back(phases.back().ok / phases.back().elapsed_s);
  }
  const double peak_rss = PeakRssMb();
  Release(&state);
  if (!CheckAgainstReference(in, phases, result)) return phases;

  const int64_t attempted = result->attempted;
  phases = {Merge(phases, "low"), Merge(phases, "high"),
            Merge(phases, "capacity")};
  result->Add("throughput_per_s", CalmRate(capacity_rps), "1/s",
              phases[2].ok,
              "serve_capacity_rps: closed-loop windows/s, calm rounds");
  result->Add("latency_p50_ms", CalmTime(low_p50_ms), "ms",
              static_cast<int64_t>(phases[0].latency_us.size()),
              "serve_low_p50: low-rate p50 from due time, calm rounds");
  result->Add("setup_s", Median(setup_s), "s", kRounds,
              "median of the rounds' set-ups");
  result->Add("peak_rss_mb", peak_rss, "MiB", 1, "peak RSS after timing");
  result->Add("ok_ratio",
              static_cast<double>(attempted - result->failed) / attempted,
              "ratio", attempted, "OK and checked requests / requests");
  std::ostringstream line;
  line << "serve_high_p50_us = " << Median(phases[1].latency_us)
       << " (n=" << phases[1].latency_us.size() << ")";
  result->notes.push_back(line.str());
  return phases;
}

/// Per-layer run: untraced low and high phases, then the same traced.
std::vector<PhaseStats> TracedServe(const Options& options,
                                    const ServeInputs& in, Result* result) {
  ServeState state = SetUp(in.checkpoint, in.windows[0], result);
  if (!result->correct) return {};
  obs::Registry& registry = obs::Registry::Global();
  registry.Reset();
  const CounterSnapshot before = CounterSnapshot::Take();
  std::vector<PhaseStats> phases;
  phases.push_back(RunOpenLoop("low", *state.batcher, in.windows, in.low_seed,
                               kLowRate, options.seconds * 0.35));
  phases.push_back(RunOpenLoop("high", *state.batcher, in.windows,
                               in.high_seed, kHighRate, options.seconds * 0.2));
  const CounterSnapshot counters = CounterSnapshot::Take() - before;
  const int64_t untraced_requests = phases[0].sent + phases[1].sent;
  const uint64_t shed = registry.GetCounter("serve.shed").value();
  const uint64_t expired =
      registry.GetCounter("serve.deadline_exceeded").value();

  // Spans may only be cleared while no thread records: restart the batcher
  // so its dispatcher is joined.
  state.batcher.reset();
  BeginTracedPhase();
  state.batcher = std::make_unique<serve::MicroBatcher>(state.session.get(),
                                                        BatcherOptions());
  registry.Reset();
  const int64_t low_traced_start_ns = obs::TraceNowNs();
  phases.push_back(RunOpenLoop("low_traced", *state.batcher, in.windows,
                               in.low_seed + 100, kLowRate,
                               options.seconds * 0.25));
  const obs::HistogramStats queue =
      registry.GetHistogram("serve.queue_ns").Snapshot();
  // Encode span durations of the traced low phase, for attribution.
  double encode_ms_sum = 0.0;
  int64_t encodes = 0;
  for (const obs::TraceEvent& event : obs::CollectTraceEvents()) {
    if (std::string_view(event.name) == "serve/encode" &&
        event.start_ns >= low_traced_start_ns) {
      encode_ms_sum += event.duration_ns / 1e6;
      ++encodes;
    }
  }
  registry.Reset();
  phases.push_back(RunOpenLoop("high_traced", *state.batcher, in.windows,
                               in.high_seed + 100, kHighRate,
                               options.seconds * 0.2));
  const obs::HistogramStats batch_size =
      registry.GetHistogram("serve.batch_size").Snapshot();
  state.batcher.reset();
  const KernelFold fold = EndTracedPhase();
  Release(&state);

  result->Add("serve.queue_us_p50", queue.ApproxQuantile(0.5) / 1e3, "us",
              static_cast<int64_t>(queue.count),
              "serve.queue_ns bucket p50, low phase");
  result->Add("serve.batch_mean", batch_size.mean(), "count",
              static_cast<int64_t>(batch_size.count),
              "serve.batch_size mean, high phase");
  result->Add("serve.shed", static_cast<double>(shed), "count",
              untraced_requests, "rejected without encoding");
  result->Add("serve.deadline_exceeded", static_cast<double>(expired),
              "count", untraced_requests, "expired in queue");
  const std::vector<double>& low = phases[0].latency_us;
  const std::vector<double>& high = phases[1].latency_us;
  result->Add("serve.p50_us.high", Median(high), "us",
              static_cast<int64_t>(high.size()), "high-rate p50 from due time");
  result->Add("serve.p99_us.low", TailUs(low, result, "low"), "us",
              static_cast<int64_t>(low.size()), "low-rate tail from due time");
  result->Add("serve.p99_us.high", TailUs(high, result, "high"), "us",
              static_cast<int64_t>(high.size()),
              "high-rate tail from due time");
  std::vector<double> late = phases[0].late_us;
  late.insert(late.end(), phases[1].late_us.begin(), phases[1].late_us.end());
  const int64_t late_n = static_cast<int64_t>(late.size());
  result->Add("loadgen.late_us_p99", TailUs(late, result, "lateness"), "us",
              late_n, "generator lateness tail");
  result->Add("loadgen.late_us_max",
              *std::max_element(late.begin(), late.end()), "us", late_n,
              "generator lateness max");
  AddKernelMetrics(fold, phases[2].sent + phases[3].sent, result);
  AddThreadAndPoolMetrics(counters, untraced_requests, result);
  const std::vector<double>& low_traced = phases[2].latency_us;
  const int64_t low_traced_n = static_cast<int64_t>(low_traced.size());
  result->Add("trace.overhead_pct",
              (Median(low_traced) / Median(low) - 1) * 100, "%", low_traced_n,
              "traced vs untraced low-rate p50");
  // A low-rate request = generator lateness + queue + its batch's encode +
  // fan-out and completion wake-up (the unattributed rest).
  const double encode_mean_ms =
      encodes > 0 ? encode_ms_sum / static_cast<double>(encodes) : 0.0;
  result->Add("trace.unattributed_ms",
              Mean(low_traced) / 1e3 - queue.mean() / 1e6 - encode_mean_ms -
                  Mean(phases[2].late_us) / 1e3,
              "ms", low_traced_n, "low-rate request mean minus its layers");

  std::unique_ptr<serve::InferenceSession> reference =
      CheckAgainstReference(in, phases, result);
  if (reference == nullptr) return phases;
  for (int64_t batch : {1, 8, 32}) {
    result->Add("serve.encode_us.b" + std::to_string(batch),
                EncodeUs(*reference, in.windows, batch), "us", 200,
                "direct InferenceSession::Encode median");
  }
  return phases;
}

}  // namespace

Result RunServeOpenLoop(const Options& options) {
  Result result;
  // Input generation (not timed): a seeded model frozen into a checkpoint,
  // and the request payloads.
  ServeInputs in;
  in.checkpoint =
      options.work_dir + "/serve_" + std::to_string(options.seed) + ".ckpt";
  {
    Rng rng(options.seed * 1000 + 4);
    core::TimeDrlModel model(ServeConfig(), rng);
    const timedrl::Status status =
        timedrl::nn::SaveParameters(model, in.checkpoint);
    if (!status.ok()) {
      result.Fail("SaveParameters: " + status.ToString());
      return result;
    }
  }
  in.windows = MakeWindows(options.seed + 1);
  in.low_seed = options.seed * 1000 + 5;
  in.high_seed = options.seed * 1000 + 6;
  const std::vector<PhaseStats> phases = options.trace
                                             ? TracedServe(options, in, &result)
                                             : TimedServe(options, in, &result);
  for (const PhaseStats& phase : phases) {
    result.notes.push_back(PhaseLine(phase));
  }
  return result;
}

}  // namespace perfbench
