// The two pretraining workloads.
//
// pretrain_long: a hand loop over the public step (PretextStep -> Backward
// -> ClipGradNorm -> AdamW::Step) on pre-generated [8, 1024, 8] windows.
// 129 tokens per sequence make it compute-bound (GEMMs, 129x129 attention
// maps, large pool buckets); it bypasses the data layer.
//
// pretrain_ci: core::Pretrain over a CSV-loaded 7-channel series split into
// channel-independent windows of 128 (17 tokens), batch 32, through the
// shuffling, prefetching data::DataLoader. Thousands of tiny ops per step
// make fork-join, per-slice GEMM calls and the loader visible.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/config.h"
#include "core/model.h"
#include "core/pretrainer.h"
#include "core/sources.h"
#include "data/csv.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "data/windows.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "optim/optimizer.h"
#include "stats.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using timedrl::Rng;
using timedrl::Tensor;
namespace core = timedrl::core;
namespace data = timedrl::data;
namespace optim = timedrl::optim;

constexpr float kLearningRate = 1e-3f;
constexpr float kWeightDecay = 1e-4f;
constexpr float kClipNorm = 5.0f;
constexpr int kWarmupSteps = 2;
constexpr int kTrainSetups = 3;  // set-ups per run; setup_s is their median
// Timed work per second of --seconds, fixed so every run does the same
// work: about one second of steps each at the speed measured when the
// benchmark was defined (4 cores, avx512).
constexpr double kLongStepsPerSecond = 8.0;
constexpr double kCiStepsPerSecond = 2.0;
// The timed steps are cut into this many segments of consecutive steps;
// see SegmentStats.
constexpr size_t kSegments = 10;
// Traced steps are capped so the in-memory span buffers stay under 100 MB
// (pretrain_ci records ~50K spans of 40 bytes per step).
constexpr int64_t kMaxTracedSteps = 30;

core::TimeDrlConfig LongConfig() {
  core::TimeDrlConfig config;
  config.input_channels = 8;
  config.input_length = 1024;
  config.patch_length = 8;
  config.patch_stride = 8;
  config.d_model = 32;
  config.num_heads = 4;
  config.ff_dim = 64;
  config.num_layers = 2;
  return config;
}

constexpr int64_t kLongBatch = 8;
constexpr int64_t kLongInputs = 16;  // pre-generated batches, cycled

// pretrain_ci geometry: a 7-channel ETT-like series of kSeriesLength rows,
// windows of 128 every kWindowStride rows. 199 windows make 7 steps of
// batch 32 per epoch, so the epoch boundary (loader reset, first batch not
// prefetched) is part of the load; each step splits its 32 windows into
// 224 single-channel model rows.
constexpr int64_t kSeriesLength = 4096;
constexpr int64_t kWindowLength = 128;
constexpr int64_t kWindowStride = 20;
constexpr int64_t kCiBatch = 32;

core::TimeDrlConfig CiConfig() {
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

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Time spent in each layer during one or more steps.
struct StepLayers {
  double data_ms = 0.0;
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
  double optim_ms = 0.0;

  double Sum() const { return data_ms + fwd_ms + bwd_ms + optim_ms; }
};

/// One optimizer step in core::Pretrain's order (the anomaly guard aside).
float HandStep(core::TimeDrlModel& model, optim::AdamW& optimizer,
               const Tensor& x, StepLayers* layers) {
  core::TimeDrlModel::PretextOutput output;
  {
    LayerTimer timer("bench/core.fwd", &layers->fwd_ms);
    output = model.PretextStep(x);
  }
  {
    LayerTimer timer("bench/optim", &layers->optim_ms);
    optimizer.ZeroGrad();
  }
  {
    LayerTimer timer("bench/tensor.bwd", &layers->bwd_ms);
    output.total.Backward();
  }
  {
    LayerTimer timer("bench/optim", &layers->optim_ms);
    optim::ClipGradNorm(optimizer.parameters(), kClipNorm);
    optimizer.Step();
  }
  return output.total.item();
}

/// Compares a replayed loss sequence bitwise against the timed one.
void CheckReplay(const std::vector<float>& timed,
                 const std::vector<float>& replay, Result* result) {
  bool same = !timed.empty() && timed.size() == replay.size();
  for (size_t i = 0; same && i < timed.size(); ++i) {
    same = SameBits(timed[i], replay[i]);
  }
  std::ostringstream line;
  line << "check thread_replay: " << timed.size() << " losses at "
       << timedrl::NumThreads() << " threads vs " << replay.size()
       << " at 1 thread: " << (same ? "bitwise equal" : "MISMATCH");
  if (same) {
    result->notes.push_back(line.str());
  } else {
    result->Fail(line.str());
  }
}

/// End-to-end figures from kSegments segments of consecutive steps: the
/// calm end (stats.h) of segment throughput and of segment median step
/// time.
struct SegmentStats {
  double rows_per_s = 0.0;
  double step_p50_ms = 0.0;
};

SegmentStats CalmSegments(const std::vector<double>& step_ms,
                          const std::vector<int64_t>& step_rows) {
  const size_t n = step_ms.size();
  std::vector<double> rows_per_s;
  std::vector<double> p50_ms;
  for (size_t k = 0; k < kSegments; ++k) {
    const size_t begin = k * n / kSegments;
    const size_t end = (k + 1) * n / kSegments;
    if (begin == end) continue;
    double ms = 0.0;
    int64_t rows = 0;
    for (size_t i = begin; i < end; ++i) {
      ms += step_ms[i];
      rows += step_rows[i];
    }
    rows_per_s.push_back(rows / ms * 1e3);
    p50_ms.push_back(Median(std::vector<double>(step_ms.begin() + begin,
                                                step_ms.begin() + end)));
  }
  return {CalmRate(rows_per_s), CalmTime(p50_ms)};
}

/// Shared end-to-end metrics of a pretraining run.
void AddTrainMetrics(const std::vector<double>& step_ms,
                     const std::vector<int64_t>& step_rows, double elapsed_s,
                     const std::vector<double>& setup_s, double peak_rss_mb,
                     int64_t ok, int64_t attempted, Result* result) {
  const int64_t steps = static_cast<int64_t>(step_ms.size());
  int64_t rows = 0;
  for (int64_t r : step_rows) rows += r;
  const SegmentStats calm = CalmSegments(step_ms, step_rows);
  result->Add("throughput_per_s", calm.rows_per_s, "1/s", steps,
              "train_samples_per_s: model-input rows/s, calm segments");
  {
    std::ostringstream line;
    line << "rows/s over the whole timed run = " << rows / elapsed_s << " ("
         << rows << " rows in " << elapsed_s << " s)";
    result->notes.push_back(line.str());
  }
  result->Add("latency_p50_ms", calm.step_p50_ms, "ms", steps,
              "step_ms_p50: median step incl. data wait, calm segments");
  result->Add("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()),
              "median of repeated set-ups");
  result->Add("peak_rss_mb", peak_rss_mb, "MiB", 1, "peak RSS after timing");
  result->Add("ok_ratio",
              attempted > 0 ? static_cast<double>(ok) / attempted : 0.0,
              "ratio", attempted, "finite, unskipped steps / steps");
  result->attempted = attempted;
  result->failed = attempted - ok;
  if (ok != attempted) {
    result->Fail(std::to_string(attempted - ok) +
                 " steps skipped or with a non-finite loss");
  }
  {
    std::ostringstream line;
    line << "step_ms p10/p25/p50/p75 = " << Quantile(step_ms, 0.1) << " / "
         << Quantile(step_ms, 0.25) << " / " << Median(step_ms) << " / "
         << Quantile(step_ms, 0.75);
    if (auto tail = TailPercentile(step_ms)) {
      line << ", p" << tail->percentile << " = " << tail->value;
    }
    line << " (n=" << steps << ")";
    result->notes.push_back(line.str());
  }
}

/// Per-layer metrics of a traced training phase.
void AddTrainLayerMetrics(const StepLayers& traced, double assemble_ms,
                          const std::vector<double>& untraced_step_ms,
                          const std::vector<double>& traced_step_ms,
                          const CounterSnapshot& untraced_counters,
                          const KernelFold& fold, Result* result) {
  const int64_t steps = static_cast<int64_t>(traced_step_ms.size());
  const double n = static_cast<double>(std::max<int64_t>(steps, 1));
  result->Add("data.wait_ms", traced.data_ms / n, "ms", steps,
              "blocked in DataLoader::Next");
  result->Add("data.assemble_ms", assemble_ms, "ms", steps,
              "prefetch.assemble_ns mean per batch");
  result->Add("core.fwd_ms", traced.fwd_ms / n, "ms", steps, "PretextStep");
  result->Add("tensor.bwd_ms", traced.bwd_ms / n, "ms", steps, "Backward");
  result->Add("optim.ms", traced.optim_ms / n, "ms", steps,
              "ZeroGrad + ClipGradNorm + Step");
  AddKernelMetrics(fold, steps, result);
  AddThreadAndPoolMetrics(untraced_counters,
                          static_cast<int64_t>(untraced_step_ms.size()),
                          result);
  result->Add("trace.overhead_pct",
              (Median(traced_step_ms) / Median(untraced_step_ms) - 1) * 100,
              "%", steps, "traced vs untraced step p50");
  result->Add("trace.unattributed_ms", Mean(traced_step_ms) - traced.Sum() / n,
              "ms", steps, "step mean minus its layers");
}

// ---------------------------------------------------------------------------
// pretrain_long

struct LongState {
  std::unique_ptr<core::TimeDrlModel> model;
  std::unique_ptr<optim::AdamW> optimizer;
  std::vector<float> losses;  // warm-up steps first
};

/// Set-up: model init, optimizer, warm-up steps.
LongState SetUpLong(uint64_t seed, const std::vector<Tensor>& inputs) {
  LongState state;
  Rng rng(seed * 1000 + 1);
  state.model = std::make_unique<core::TimeDrlModel>(LongConfig(), rng);
  state.model->Train();
  state.optimizer = std::make_unique<optim::AdamW>(
      state.model->Parameters(), kLearningRate, kWeightDecay);
  StepLayers ignored;
  for (int i = 0; i < kWarmupSteps; ++i) {
    state.losses.push_back(HandStep(*state.model, *state.optimizer,
                                    inputs[i % inputs.size()], &ignored));
  }
  return state;
}

std::vector<Tensor> LongInputs(uint64_t seed) {
  const core::TimeDrlConfig config = LongConfig();
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (int64_t i = 0; i < kLongInputs; ++i) {
    inputs.push_back(Tensor::Randn(
        {kLongBatch, config.input_length, config.input_channels}, rng));
  }
  return inputs;
}

/// Runs `steps` hand steps; returns their wall times.
std::vector<double> RunLongSteps(LongState& state,
                                 const std::vector<Tensor>& inputs,
                                 int64_t steps, StepLayers* layers,
                                 int64_t* ok) {
  std::vector<double> step_ms;
  for (int64_t n = 0; n < steps; ++n) {
    const size_t i = state.losses.size() % inputs.size();
    const Clock::time_point step_start = Clock::now();
    const float loss =
        HandStep(*state.model, *state.optimizer, inputs[i], layers);
    step_ms.push_back(MsSince(step_start));
    state.losses.push_back(loss);
    if (std::isfinite(loss)) ++*ok;
  }
  return step_ms;
}

// ---------------------------------------------------------------------------
// pretrain_ci

/// Records the wall time between consecutive Pretrain steps (so a step
/// includes its wait for data) and each step's loss and batch size.
class StepRecorder : public timedrl::obs::TrainObserver {
 public:
  void Start() { last_ = Clock::now(); }
  void OnStep(const timedrl::obs::StepStats& stats) override {
    const Clock::time_point now = Clock::now();
    step_ms.push_back(
        std::chrono::duration<double, std::milli>(now - last_).count());
    last_ = now;
    losses.push_back(static_cast<float>(stats.loss));
    step_windows.push_back(stats.batch_size);
    if (std::isfinite(stats.loss)) ++ok;
  }

  std::vector<double> step_ms;
  std::vector<float> losses;
  std::vector<int64_t> step_windows;  // before the channel split
  int64_t ok = 0;

 private:
  Clock::time_point last_;
};

struct CiState {
  std::unique_ptr<data::ForecastingWindows> windows;  // owns its series copy
  std::unique_ptr<core::ForecastingSource> source;
  std::unique_ptr<core::TimeDrlModel> model;
  std::vector<float> warmup_losses;
};

/// Set-up: CSV load, windowing, model init, warm-up steps.
CiState SetUpCi(const std::string& csv_path, uint64_t seed, Result* result) {
  CiState state;
  data::TimeSeries series;
  const timedrl::Status status = data::LoadCsv(csv_path, &series);
  if (!status.ok()) {
    result->Fail("LoadCsv: " + status.ToString());
    return state;
  }
  state.windows = std::make_unique<data::ForecastingWindows>(
      series, kWindowLength, /*horizon=*/0, kWindowStride);
  state.source = std::make_unique<core::ForecastingSource>(
      state.windows.get(), /*channel_independent=*/true);
  Rng rng(seed * 1000 + 2);
  state.model = std::make_unique<core::TimeDrlModel>(CiConfig(), rng);
  state.model->Train();
  optim::AdamW warmup_optimizer(state.model->Parameters(), kLearningRate,
                                kWeightDecay);
  StepLayers ignored;
  for (int i = 0; i < kWarmupSteps; ++i) {
    std::vector<int64_t> indices;
    for (int64_t j = 0; j < kCiBatch; ++j) {
      indices.push_back((i * kCiBatch + j) % state.source->size());
    }
    state.warmup_losses.push_back(HandStep(
        *state.model, warmup_optimizer, state.source->GetWindows(indices),
        &ignored));
  }
  return state;
}

core::PretrainConfig CiPretrainConfig(int64_t epochs,
                                      timedrl::obs::TrainObserver* observer) {
  core::PretrainConfig config;
  config.train.epochs = epochs;
  config.train.batch_size = kCiBatch;
  config.train.learning_rate = kLearningRate;
  config.train.weight_decay = kWeightDecay;
  config.train.clip_norm = kClipNorm;
  config.train.observer = observer;
  return config;
}

/// Timed steps for a run of `seconds` (at least kSegments).
int64_t StepsFor(double seconds, double steps_per_second) {
  return std::max<int64_t>(kSegments, std::llround(seconds * steps_per_second));
}

/// Steps per epoch that Pretrain trains on (it drops batches of < 2).
int64_t CiStepsPerEpoch(int64_t windows) {
  return windows / kCiBatch + (windows % kCiBatch >= 2 ? 1 : 0);
}

}  // namespace

Result RunPretrainLong(const Options& options) {
  Result result;
  const std::vector<Tensor> inputs = LongInputs(options.seed);
  const int64_t steps = StepsFor(options.seconds, kLongStepsPerSecond);

  if (options.trace) {
    LongState state = SetUpLong(options.seed, inputs);
    int64_t ok = 0;
    StepLayers untraced_layers;
    const CounterSnapshot before = CounterSnapshot::Take();
    const std::vector<double> untraced =
        RunLongSteps(state, inputs, steps / 2, &untraced_layers, &ok);
    const CounterSnapshot counters = CounterSnapshot::Take() - before;
    StepLayers traced_layers;
    BeginTracedPhase();
    const std::vector<double> traced =
        RunLongSteps(state, inputs, std::min(steps / 2, kMaxTracedSteps),
                     &traced_layers, &ok);
    const KernelFold fold = EndTracedPhase();
    AddTrainLayerMetrics(traced_layers, 0.0, untraced, traced, counters, fold,
                         &result);
    result.attempted = static_cast<int64_t>(untraced.size() + traced.size());
    result.failed = result.attempted - ok;
    return result;
  }

  std::vector<double> setup_s;
  LongState state;
  for (int i = 0; i < kTrainSetups; ++i) {
    state = LongState();  // the previous set-up's model is freed untimed
    const Clock::time_point start = Clock::now();
    state = SetUpLong(options.seed, inputs);
    setup_s.push_back(SecondsSince(start));
  }

  int64_t ok = 0;
  StepLayers ignored;
  const Clock::time_point start = Clock::now();
  const std::vector<double> step_ms =
      RunLongSteps(state, inputs, steps, &ignored, &ok);
  const double elapsed = SecondsSince(start);
  const double peak_rss = PeakRssMb();
  AddTrainMetrics(step_ms, std::vector<int64_t>(step_ms.size(), kLongBatch),
                  elapsed, setup_s, peak_rss, ok, steps, &result);

  // Replay the warm-up and the first timed steps on one thread.
  const std::vector<float> timed(state.losses.begin(),
                                 state.losses.begin() + kWarmupSteps + 3);
  state = LongState();
  const int threads = timedrl::NumThreads();
  timedrl::SetNumThreads(1);
  LongState replay = SetUpLong(options.seed, inputs);
  int64_t replay_ok = 0;
  RunLongSteps(replay, inputs, 3, &ignored, &replay_ok);
  timedrl::SetNumThreads(threads);
  CheckReplay(timed, replay.losses, &result);
  return result;
}

Result RunPretrainCi(const Options& options) {
  Result result;
  // Input generation (not timed): a seeded ETT-like series written as CSV.
  const std::string csv_path =
      options.work_dir + "/ett_" + std::to_string(options.seed) + ".csv";
  {
    Rng rng(options.seed);
    const data::TimeSeries series =
        data::MakeEttLike(kSeriesLength, /*period=*/24, /*variant=*/1, rng);
    const timedrl::Status status = data::SaveCsv(series, csv_path);
    if (!status.ok()) {
      result.Fail("SaveCsv: " + status.ToString());
      return result;
    }
  }
  const uint64_t train_seed = options.seed * 1000 + 3;

  if (options.trace) {
    CiState state = SetUpCi(csv_path, options.seed, &result);
    if (!result.correct) return result;
    optim::AdamW optimizer(state.model->Parameters(), kLearningRate,
                           kWeightDecay);
    Rng rng(train_seed);
    data::DataLoaderOptions loader_options;
    loader_options.batch_size = kCiBatch;
    loader_options.shuffle = true;
    int64_t ok = 0;
    int64_t attempted = 0;
    // A hand loop mirroring Pretrain's step, so data wait, forward,
    // backward and optimizer can be timed apart.
    auto run = [&](int64_t steps, StepLayers* layers) {
      data::DataLoader loader(*state.source, loader_options, rng);
      data::Batch batch;
      std::vector<double> step_ms;
      Clock::time_point step_start = Clock::now();
      while (static_cast<int64_t>(step_ms.size()) < steps) {
        bool more;
        {
          LayerTimer timer("bench/data.wait", &layers->data_ms);
          more = loader.Next(&batch);
          if (!more) {
            loader.Reset();
            more = loader.Next(&batch);
          }
        }
        if (!more) break;
        if (batch.size() < 2) continue;  // as Pretrain: BatchNorm needs 2
        const float loss = HandStep(*state.model, optimizer, batch.x, layers);
        ++attempted;
        if (std::isfinite(loss)) ++ok;
        step_ms.push_back(MsSince(step_start));
        step_start = Clock::now();
      }
      return step_ms;
    };
    StepLayers untraced_layers;
    const CounterSnapshot before = CounterSnapshot::Take();
    const int64_t steps = StepsFor(options.seconds, kCiStepsPerSecond);
    const std::vector<double> untraced = run(steps / 2, &untraced_layers);
    const CounterSnapshot counters = CounterSnapshot::Take() - before;
    timedrl::obs::Histogram& assemble =
        timedrl::obs::Registry::Global().GetHistogram("prefetch.assemble_ns");
    const timedrl::obs::HistogramStats assemble_before = assemble.Snapshot();
    StepLayers traced_layers;
    BeginTracedPhase();
    const std::vector<double> traced =
        run(std::min(steps / 2, kMaxTracedSteps), &traced_layers);
    const KernelFold fold = EndTracedPhase();
    const timedrl::obs::HistogramStats assemble_after = assemble.Snapshot();
    const uint64_t batches = assemble_after.count - assemble_before.count;
    const double assemble_ms =
        batches > 0 ? (assemble_after.sum - assemble_before.sum) / batches / 1e6
                    : 0.0;
    AddTrainLayerMetrics(traced_layers, assemble_ms, untraced, traced,
                         counters, fold, &result);
    result.attempted = attempted;
    result.failed = attempted - ok;
    return result;
  }

  std::vector<double> setup_s;
  CiState state;
  for (int i = 0; i < kTrainSetups && result.correct; ++i) {
    state = CiState();
    const Clock::time_point start = Clock::now();
    state = SetUpCi(csv_path, options.seed, &result);
    setup_s.push_back(SecondsSince(start));
  }
  if (!result.correct) return result;

  // One Pretrain call of whole epochs.
  const int64_t steps_per_epoch = CiStepsPerEpoch(state.source->size());
  const int64_t epochs = std::max<int64_t>(
      1, StepsFor(options.seconds, kCiStepsPerSecond) / steps_per_epoch);
  StepRecorder recorder;
  Rng rng(train_seed);
  recorder.Start();
  const Clock::time_point start = Clock::now();
  const core::PretrainHistory history = core::Pretrain(
      state.model.get(), *state.source, CiPretrainConfig(epochs, &recorder),
      rng);
  const double elapsed = SecondsSince(start);
  const double peak_rss = PeakRssMb();
  if (history.aborted) result.Fail("Pretrain aborted: " + history.abort_reason);
  std::vector<int64_t> step_rows;
  for (int64_t windows : recorder.step_windows) {
    step_rows.push_back(windows * state.windows->channels());
  }
  AddTrainMetrics(recorder.step_ms, step_rows, elapsed, setup_s, peak_rss,
                  recorder.ok, epochs * steps_per_epoch, &result);
  {
    std::ostringstream line;
    line << "pretrain_ci: " << epochs << " epochs x " << steps_per_epoch
         << " steps, " << state.source->size() << " windows of "
         << state.windows->channels()
         << " channels";
    result.notes.push_back(line.str());
  }

  // Replay set-up and the first epoch on one thread.
  std::vector<float> timed = state.warmup_losses;
  timed.insert(timed.end(), recorder.losses.begin(),
               recorder.losses.begin() +
                   std::min<int64_t>(steps_per_epoch, recorder.losses.size()));
  state = CiState();
  const int threads = timedrl::NumThreads();
  timedrl::SetNumThreads(1);
  CiState replay = SetUpCi(csv_path, options.seed, &result);
  StepRecorder replay_recorder;
  Rng replay_rng(train_seed);
  if (result.correct) {
    core::Pretrain(replay.model.get(), *replay.source,
                   CiPretrainConfig(1, &replay_recorder), replay_rng);
  }
  timedrl::SetNumThreads(threads);
  std::vector<float> replayed = replay.warmup_losses;
  replayed.insert(replayed.end(), replay_recorder.losses.begin(),
                  replay_recorder.losses.end());
  CheckReplay(timed, replayed, &result);
  return result;
}

}  // namespace perfbench
