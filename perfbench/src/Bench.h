//===- Bench.h - Repository benchmark: shared infrastructure ----*- C++ -*-===//
///
/// \file
/// What the three workloads (table2-sim, kernelgen-compile, serve-zipf)
/// share: sample statistics, the in-memory span recorder every layer is
/// timed with, the metric vocabulary BENCHMARK.json declares, and the
/// compile path written out stage by stage so each stage can carry a span.
///
/// Every span wraps a call into a public library function from the
/// outside; no library code is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "transform/PassStage.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace simtsr {
class Module;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// A bag of measurements and its order statistics.
class Samples {
public:
  void add(double X) { V.push_back(X); }
  size_t size() const { return V.size(); }
  double sum() const;
  double mean() const;
  /// Linear-interpolated quantile \p Q in [0, 1]; 0 when empty.
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }
  /// The highest percentile, at most the 99th, that leaves at least ten
  /// samples beyond it (the median when there are too few samples).
  double tailPercent() const;
  double tail() const { return quantile(tailPercent() / 100.0); }

private:
  std::vector<double> V;
};

/// Timed operations bucketed by completion time into one-second windows.
/// Rates and medians are reported as the median over whole windows, so a
/// burst of interference from other work on the host moves a few windows
/// rather than the result.
class Windows {
public:
  Windows(Clock::time_point Start, double Seconds)
      : Start(Start), Slots(static_cast<size_t>(Seconds)) {}

  void add(Clock::time_point Done, double Ms, double Work);
  /// All samples, for the tail percentile.
  const Samples &all() const { return All; }
  /// Median over windows of work per second of operation time (Busy) or
  /// of wall-clock time.
  double medianRate(bool Busy) const;
  /// Median over windows of the window's median operation time.
  double medianMs() const;
  /// Median over windows of the window's 99th percentile when every
  /// window has at least 1000 samples (ten beyond it); else the whole
  /// run's highest percentile, at most the 99th, with ten beyond it.
  double tailMs() const;

private:
  struct Slot {
    Samples Ms;
    double Work = 0;
  };
  Clock::time_point Start;
  std::vector<Slot> Slots;
  Samples All;
};

/// Set-ups per run; the reported setup_s is their median.
constexpr int SetupRuns = 11;

/// Median of \p Times calls of \p F(I), each timed, in seconds.
template <typename Fn> double medianSeconds(int Times, Fn &&F) {
  Samples S;
  for (int I = 0; I < Times; ++I) {
    const Clock::time_point Start = Clock::now();
    F(I);
    S.add(msBetween(Start, Clock::now()) / 1000.0);
  }
  return S.median();
}

/// One recorded interval. Parent indexes the span list (-1 for roots); Op
/// groups the spans of one operation (a grid, a compile, a request).
struct Span {
  uint32_t Name = 0;
  int32_t Parent = -1;
  uint64_t Op = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// Aggregate of every span sharing one name.
struct SpanAgg {
  uint64_t Count = 0;
  double TotalUs = 0;
  double meanUs() const { return Count ? TotalUs / Count : 0.0; }
};

/// Spans kept in memory and written out when the run ends, recorded on the
/// benchmark's main thread. A span's layer is its name up to the first
/// '.'; the timed operations are root spans named "op", whose own self
/// time is the harness's ("bench").
class Tracer {
public:
  /// The name id of "op", interned first.
  static constexpr uint32_t OpName = 0;

  Tracer() { intern("op"); }

  bool On = false;

  uint32_t intern(const std::string &Name);
  int64_t nowNs() const;
  int32_t begin(uint32_t Name, uint64_t Op);
  void end(int32_t Index);

  /// Count and total duration per span name.
  std::map<std::string, SpanAgg> byName() const;
  /// Self time (duration minus direct children) per layer, in
  /// microseconds, over the trees rooted at "op" spans.
  std::map<std::string, double> opSelfUsByLayer() const;
  /// Number and summed duration (microseconds) of "op" root spans.
  SpanAgg ops() const;
  /// Chrome trace-event JSON ("X" events, microsecond timestamps): the
  /// document shape observe::renderChromeTrace emits, so it opens in
  /// Perfetto. \returns false when \p Path cannot be written.
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::vector<std::string> Names;
  std::unordered_map<std::string, uint32_t> NameIds;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
  Clock::time_point Epoch = Clock::now();
};

/// RAII span; no-op when the tracer is off.
class SpanScope {
public:
  SpanScope(Tracer &T, uint32_t Name, uint64_t Op = 0)
      : T(T), Index(T.On ? T.begin(Name, Op) : -1) {}
  ~SpanScope() {
    if (Index >= 0)
      T.end(Index);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int32_t Index;
};

/// Interned span names for the layer entry points the workloads time.
class SpanNames {
public:
  explicit SpanNames(Tracer &T);
  const uint32_t Setup, Build, Parse, Print, Verify, Clone, VerifyLaunch,
      Lint, Dom, PostDom, Loops, Divergence;
  /// "transform.<stage>" for a registered stage name.
  uint32_t stage(const std::string &Stage);

private:
  Tracer &T;
  std::map<std::string, uint32_t> Stages;
};

/// A metric as BENCHMARK.json declares it.
struct MetricDef {
  std::string Name;
  std::string Unit;
};

/// The end-to-end metrics every workload prints with --trace 0.
const std::vector<MetricDef> &endToEndMetrics();
/// The per-layer metrics every workload prints with --trace 1; a layer the
/// workload does not exercise reads 0.
const std::vector<MetricDef> &perLayerMetrics();

/// Workload inputs and settings from the command line.
struct BenchOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Private directory for files the run creates (disk cache, socket).
  std::string ScratchDir;
  /// Test hook: corrupt one reference value so the oracle must fail.
  bool InjectWrongAnswer = false;
};

/// What a workload run reports.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FailureNotes; ///< The first few, for stderr.
  std::map<std::string, double> Metrics;
  /// Deterministic results (cycles, checksums, digests): they depend only
  /// on the seed, never on timing or thread count.
  std::map<std::string, std::string> Deterministic;

  void fail(const std::string &Why);
  /// Counts one checked operation, failed unless \p Ok.
  void check(bool Ok, const std::string &Why) {
    ++Attempted;
    if (!Ok)
      fail(Why);
  }
};

/// Runs Body(I) for every I in [0, N): in order on the calling thread when
/// \p Sequential (a traced run: spans are recorded on one thread), else
/// on every pool thread, so interference from other work on the host
/// averages over the cores.
void forEach(bool Sequential, size_t N,
             const std::function<void(size_t)> &Body);

/// Runs \p Spec's stages over \p M one by one through each registered
/// stage's Run, the loop runSyncPipeline runs, with a span around each.
simtsr::PipelineReport runStages(simtsr::Module &M,
                                 const simtsr::PipelineSpec &Spec, Tracer &T,
                                 SpanNames &N);

/// runSyncPipeline untraced, runStages when tracing.
inline simtsr::PipelineReport runPipeline(simtsr::Module &M,
                                          const simtsr::PipelineSpec &Spec,
                                          Tracer &T, SpanNames &N) {
  return T.On ? runStages(M, Spec, T, N) : simtsr::runSyncPipeline(M, Spec);
}

/// Whether \p M, compiled under every catalog pipeline, finishes every
/// \p Warps-warp launch at seeds [1, \p Seeds] (kernel "kernel"). Seeded
/// program generation draws until this holds: some generated programs
/// deadlock under some pipelines and launch seeds, and a workload's
/// operations must not fail.
bool runsCleanly(const simtsr::Module &M, uint64_t FirstSeed, uint64_t Seeds,
                 unsigned Warps);

/// Instructions in \p M.
uint64_t countInstructions(const simtsr::Module &M);

/// Times the ir and analysis layers standalone on \p Inputs (print, parse,
/// verify; dominators, post-dominators, loops and divergence over every
/// function) and the lint on \p PostPipeline. Traced runs only.
/// \returns the lint's findings over \p PostPipeline.
uint64_t probeLayers(const std::vector<const simtsr::Module *> &Inputs,
                 const std::vector<const simtsr::Module *> &PostPipeline,
                 Tracer &T, SpanNames &N);

/// Adds the metrics every traced run derives from its spans: per-call
/// means of the layer entry points, each layer's share of op self time,
/// the tracing overhead (traced vs untraced mean op time) and the share of
/// untraced op time the named layers' self times account for.
void addTraceMetrics(const Tracer &T, double UntracedOpMs, Outcome &Out);

void runTable2Sim(const BenchOptions &O, Tracer &T, Outcome &Out);
void runKernelgenCompile(const BenchOptions &O, Tracer &T, Outcome &Out);
void runServeZipf(const BenchOptions &O, Tracer &T, Outcome &Out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
