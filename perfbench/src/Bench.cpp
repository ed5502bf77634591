//===- Bench.cpp - Repository benchmark: shared infrastructure ----------===//

#include "Bench.h"

#include "analysis/Divergence.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "lint/ConvergenceLint.h"
#include "sim/Grid.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <fstream>

using namespace simtsr;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// Samples
//===----------------------------------------------------------------------===//

double Samples::sum() const {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

double Samples::mean() const { return V.empty() ? 0.0 : sum() / V.size(); }

double Samples::quantile(double Q) const {
  if (V.empty())
    return 0.0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  const double Pos = Q * static_cast<double>(S.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, S.size() - 1);
  return S[Lo] + (S[Hi] - S[Lo]) * (Pos - static_cast<double>(Lo));
}

double Samples::tailPercent() const {
  const double N = static_cast<double>(V.size());
  if (N <= 20)
    return 50.0;
  return std::min(99.0, std::floor(100.0 * (1.0 - 10.0 / N)));
}

void Windows::add(Clock::time_point Done, double Ms, double Work) {
  All.add(Ms);
  const size_t I = static_cast<size_t>(msBetween(Start, Done) / 1000.0);
  if (I < Slots.size()) {
    Slots[I].Ms.add(Ms);
    Slots[I].Work += Work;
  }
}

double Windows::medianRate(bool Busy) const {
  Samples Rates;
  for (const Slot &S : Slots)
    if (S.Ms.size())
      Rates.add(S.Work / (Busy ? S.Ms.sum() / 1000.0 : 1.0));
  return Rates.median();
}

double Windows::tailMs() const {
  Samples Tails;
  for (const Slot &S : Slots) {
    if (S.Ms.size() < 1000)
      return All.tail();
    Tails.add(S.Ms.quantile(0.99));
  }
  return Tails.median();
}

double Windows::medianMs() const {
  Samples Medians;
  for (const Slot &S : Slots)
    if (S.Ms.size())
      Medians.add(S.Ms.median());
  return Medians.median();
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

uint32_t Tracer::intern(const std::string &Name) {
  auto [It, Inserted] =
      NameIds.emplace(Name, static_cast<uint32_t>(Names.size()));
  if (Inserted)
    Names.push_back(Name);
  return It->second;
}

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

int32_t Tracer::begin(uint32_t Name, uint64_t Op) {
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Op = Op == 0 && S.Parent >= 0 ? Spans[S.Parent].Op : Op;
  S.StartNs = nowNs();
  Spans.push_back(S);
  Stack.push_back(static_cast<int32_t>(Spans.size() - 1));
  return Stack.back();
}

void Tracer::end(int32_t Index) {
  Spans[Index].EndNs = nowNs();
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

namespace {

double durUs(const Span &S) { return (S.EndNs - S.StartNs) / 1000.0; }

std::string layerOf(const std::string &Name) {
  const size_t Dot = Name.find('.');
  return Dot == std::string::npos ? "bench" : Name.substr(0, Dot);
}

} // namespace

std::map<std::string, SpanAgg> Tracer::byName() const {
  std::map<std::string, SpanAgg> Out;
  for (const Span &S : Spans) {
    SpanAgg &A = Out[Names[S.Name]];
    ++A.Count;
    A.TotalUs += durUs(S);
  }
  return Out;
}

std::map<std::string, double> Tracer::opSelfUsByLayer() const {
  // Parents precede children in the span list, so one forward pass finds
  // each span's root.
  std::vector<int32_t> Root(Spans.size());
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Root[I] = S.Parent < 0 ? static_cast<int32_t>(I) : Root[S.Parent];
    Self[I] += durUs(S);
    if (S.Parent >= 0)
      Self[S.Parent] -= durUs(S);
  }
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[Root[I]].Name == OpName)
      Out[layerOf(Names[Spans[I].Name])] += Self[I];
  return Out;
}

SpanAgg Tracer::ops() const {
  SpanAgg A;
  for (const Span &S : Spans)
    if (S.Parent < 0 && S.Name == OpName) {
      ++A.Count;
      A.TotalUs += durUs(S);
    }
  return A;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.key("pid");
    W.numberUnsigned(1);
    W.key("tid");
    W.numberUnsigned(0);
    W.key("ts");
    W.number(S.StartNs / 1000.0);
    W.key("ph");
    W.string("X");
    W.key("dur");
    W.number(durUs(S));
    W.key("name");
    W.string(Names[S.Name]);
    W.key("args");
    W.beginObject();
    W.key("span");
    W.numberUnsigned(I);
    W.key("parent");
    W.number(static_cast<int64_t>(S.Parent));
    W.key("op");
    W.numberUnsigned(S.Op);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.key("displayTimeUnit");
  W.string("ns");
  W.endObject();
  std::ofstream Out(Path, std::ios::binary);
  Out << W.str() << '\n';
  return static_cast<bool>(Out);
}

SpanNames::SpanNames(Tracer &T)
    : Setup(T.intern("setup")), Build(T.intern("kernels.build")),
      Parse(T.intern("ir.parse")), Print(T.intern("ir.print")),
      Verify(T.intern("ir.verify")), Clone(T.intern("ir.clone")),
      VerifyLaunch(T.intern("sim.verify_launch")), Lint(T.intern("lint.run")),
      Dom(T.intern("analysis.dom")), PostDom(T.intern("analysis.pdom")),
      Loops(T.intern("analysis.loops")),
      Divergence(T.intern("analysis.divergence")), T(T) {}

uint32_t SpanNames::stage(const std::string &Stage) {
  auto It = Stages.find(Stage);
  if (It == Stages.end())
    It = Stages.emplace(Stage, T.intern("transform." + Stage)).first;
  return It->second;
}

//===----------------------------------------------------------------------===//
// Metric vocabulary
//===----------------------------------------------------------------------===//

namespace {

/// The Table 2 suite, in makeAllWorkloads order.
const char *const Table2Names[] = {
    "rsbench",    "xsbench",  "mcb",      "pathtracer", "mc-gpu",
    "mummer",     "meiyamd5", "optix",    "gpu-mcml",   "micro-commoncall"};

/// The layers an operation's spans fall in, each reported as a share of
/// traced operation time.
const char *const OpLayers[] = {"bench", "ir", "transform", "sim"};

/// Every stage in the registry, in registry order.
std::vector<std::string> stageNames() {
  std::vector<std::string> Out;
  for (const PassStageDef &S : passStageRegistry())
    Out.push_back(S.Name);
  return Out;
}

} // namespace

const std::vector<MetricDef> &perfbench::endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
      {"throughput_per_s", "1/s"}, {"op_ms_p50", "ms"},
      {"op_ms_p99", "ms"},
  };
  return Defs;
}

const std::vector<MetricDef> &perfbench::perLayerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {
        {"kernels.build_ms", "ms"},
        {"ir.parse_us", "us"},
        {"ir.print_us", "us"},
        {"ir.verify_us", "us"},
        {"ir.module_insts", "count"},
        {"analysis.dom_us", "us"},
        {"analysis.pdom_us", "us"},
        {"analysis.loops_us", "us"},
        {"analysis.divergence_us", "us"},
    };
    for (const std::string &S : stageNames())
      D.push_back({"transform." + S + "_us", "us"});
    for (const char *Name : {"transform.sr_regions", "transform.meld_pairs",
                             "transform.barrier_downgrades",
                             "transform.insts_added"})
      D.push_back({Name, "count"});
    D.push_back({"sim.verify_launch_us", "us"});
    for (const char *W : Table2Names)
      D.push_back({std::string("sim.grid_ms.") + W, "ms"});
    for (const char *W : Table2Names)
      D.push_back({std::string("sim.islots_per_s.") + W, "1/s"});
    D.insert(D.end(), {
                          {"sim.cycles", "count"},
                          {"sim.issue_slots", "count"},
                          {"sim.sr_speedup_geomean", "ratio"},
                          {"sim.sr_simt_efficiency", "fraction"},
                          {"observe.digest_overhead_pct", "%"},
                          {"lint.us", "us"},
                          {"lint.findings", "count"},
                          {"serve.compile_hit_ratio", "fraction"},
                          {"serve.sim_hit_ratio", "fraction"},
                          {"serve.dup_misses", "count"},
                          {"serve.disk_writes", "count"},
                          {"serve.disk_hits", "count"},
                          {"serve.evictions", "count"},
                          {"serve.rejected", "count"},
                          {"serve.hit_ms_p50", "ms"},
                          {"serve.miss_ms_p50", "ms"},
                          {"serve.compile_ms_p50", "ms"},
                          {"serve.simulate_ms_p50", "ms"},
                          {"serve.lint_ms_p50", "ms"},
                      });
    for (const char *L : OpLayers)
      D.push_back({std::string(L) + ".self_pct", "%"});
    D.push_back({"trace.overhead_pct", "%"});
    D.push_back({"trace.attributed_pct", "%"});
    return D;
  }();
  return Defs;
}

void Outcome::fail(const std::string &Why) {
  ++Failed;
  if (FailureNotes.size() < 10)
    FailureNotes.push_back(Why);
}

//===----------------------------------------------------------------------===//
// Layer entry points
//===----------------------------------------------------------------------===//

void perfbench::forEach(bool Sequential, size_t N,
                        const std::function<void(size_t)> &Body) {
  if (!Sequential) {
    ThreadPool::global().parallelFor(N, Body);
    return;
  }
  for (size_t I = 0; I < N; ++I)
    Body(I);
}

PipelineReport perfbench::runStages(Module &M, const PipelineSpec &Spec,
                                    Tracer &T, SpanNames &N) {
  PipelineReport Report;
  for (const std::string &Name : Spec.Stages) {
    const PassStageDef *Def = findPassStage(Name);
    if (!Def) {
      Report.VerifierDiagnostics.push_back("unknown pipeline stage '" + Name +
                                           "'");
      continue;
    }
    SpanScope S(T, N.stage(Name));
    Def->Run(M, Report, Spec.Params);
  }
  return Report;
}

bool perfbench::runsCleanly(const Module &M, uint64_t FirstSeed,
                            uint64_t Seeds, unsigned Warps) {
  for (const PipelineDef &D : pipelineCatalog()) {
    std::unique_ptr<Module> C = M.clone();
    runSyncPipeline(*C, *standardPipelineSpec(D.Name));
    const LaunchVerification V = verifyLaunchModule(*C);
    const Function *K = C->functionByName("kernel");
    if (!K || !V.Errors.empty())
      return false;
    for (uint64_t S = FirstSeed; S < FirstSeed + Seeds; ++S) {
      LaunchConfig LC;
      LC.Seed = S;
      LC.Verified = &V;
      if (!runGrid(*C, K, LC, Warps).Ok)
        return false;
    }
  }
  return true;
}

uint64_t perfbench::countInstructions(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M)
    for (const BasicBlock *BB : *F)
      N += BB->size();
  return N;
}

uint64_t perfbench::probeLayers(const std::vector<const Module *> &Inputs,
                            const std::vector<const Module *> &PostPipeline,
                            Tracer &T, SpanNames &N) {
  for (const Module *In : Inputs) {
    std::string Text;
    {
      SpanScope S(T, N.Print);
      Text = printModule(*In);
    }
    ParseResult P;
    {
      SpanScope S(T, N.Parse);
      P = parseModule(Text);
    }
    if (!P.ok())
      continue;
    Module &M = *P.M;
    {
      SpanScope S(T, N.Verify);
      verifyModule(M);
    }
    // One span per analysis over the whole module: the standalone cost of
    // running it on every function.
    std::vector<std::unique_ptr<DominatorTree>> DTs;
    std::vector<std::unique_ptr<PostDominatorTree>> PDTs;
    {
      SpanScope S(T, N.Dom);
      for (const auto &F : M)
        DTs.push_back(std::make_unique<DominatorTree>(*F));
    }
    {
      SpanScope S(T, N.PostDom);
      for (const auto &F : M)
        PDTs.push_back(std::make_unique<PostDominatorTree>(*F));
    }
    {
      SpanScope S(T, N.Loops);
      size_t I = 0;
      for (const auto &F : M)
        LoopInfo LI(*F, *DTs[I++]);
    }
    {
      SpanScope S(T, N.Divergence);
      size_t I = 0;
      for (const auto &F : M)
        DivergenceAnalysis DA(*F, *PDTs[I++]);
    }
  }
  uint64_t Findings = 0;
  for (const Module *Post : PostPipeline) {
    std::unique_ptr<Module> M = Post->clone();
    lint::LintOptions LO;
    LO.Remarks = false;
    SpanScope S(T, N.Lint);
    Findings += lint::runConvergenceLint(*M, LO).Diagnostics.size();
  }
  return Findings;
}

void perfbench::addTraceMetrics(const Tracer &T, double UntracedOpMs,
                                Outcome &Out) {
  const std::map<std::string, SpanAgg> ByName = T.byName();
  const auto Mean = [&ByName](const std::string &Name) {
    auto It = ByName.find(Name);
    return It == ByName.end() ? 0.0 : It->second.meanUs();
  };
  Out.Metrics["ir.parse_us"] = Mean("ir.parse");
  Out.Metrics["ir.print_us"] = Mean("ir.print");
  Out.Metrics["ir.verify_us"] = Mean("ir.verify");
  Out.Metrics["analysis.dom_us"] = Mean("analysis.dom");
  Out.Metrics["analysis.pdom_us"] = Mean("analysis.pdom");
  Out.Metrics["analysis.loops_us"] = Mean("analysis.loops");
  Out.Metrics["analysis.divergence_us"] = Mean("analysis.divergence");
  for (const std::string &S : stageNames())
    Out.Metrics["transform." + S + "_us"] = Mean("transform." + S);
  Out.Metrics["sim.verify_launch_us"] = Mean("sim.verify_launch");
  Out.Metrics["lint.us"] = Mean("lint.run");
  Out.Metrics["kernels.build_ms"] = Mean("kernels.build") / 1000.0;

  const SpanAgg Ops = T.ops();
  const std::map<std::string, double> Self = T.opSelfUsByLayer();
  double Attributed = 0;
  for (const char *L : OpLayers) {
    auto It = Self.find(L);
    const double Us = It == Self.end() ? 0.0 : It->second;
    Out.Metrics[std::string(L) + ".self_pct"] =
        Ops.TotalUs > 0 ? 100.0 * Us / Ops.TotalUs : 0.0;
  }
  for (const auto &[Layer, Us] : Self)
    if (Layer != "bench")
      Attributed += Us;
  const double TracedOpMs = Ops.Count ? Ops.TotalUs / 1000.0 / Ops.Count : 0;
  Out.Metrics["trace.overhead_pct"] =
      UntracedOpMs > 0 ? 100.0 * (TracedOpMs - UntracedOpMs) / UntracedOpMs
                       : 0.0;
  Out.Metrics["trace.attributed_pct"] =
      UntracedOpMs > 0 && Ops.Count
          ? 100.0 * Attributed / 1000.0 / (UntracedOpMs * Ops.Count)
          : 0.0;
}
