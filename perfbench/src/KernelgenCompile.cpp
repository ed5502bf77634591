//===- KernelgenCompile.cpp - Workload kernelgen-compile ------------------===//
///
/// \file
/// The compiler and lint path on seeded random programs: a corpus of
/// generateKernelModule texts (fixed GenOptions shapes, seeds drawn from
/// --seed) compiled under every pipelineCatalog() entry, on every pool
/// thread. One operation is one compile: parse -> pipeline stages ->
/// launch verify -> print. The lint then reaches a verdict on each
/// post-pipeline module, timed apart.
/// Nothing is simulated inside the timed loop, so a simulator-only change
/// leaves this workload unchanged.
///
/// Oracle: every compile repeats the first pass's printed module and lint
/// verdict exactly; running the stages one by one (as the traced run
/// does) prints byte-identical to runSyncPipeline; and after every
/// pipeline a 1-warp run computes the noop pipeline's checksum. The
/// oracle runs untimed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fuzz/KernelGen.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "lint/ConvergenceLint.h"
#include "sim/Grid.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <cstdio>

using namespace simtsr;
using namespace perfbench;

namespace {

constexpr unsigned CorpusSize = 100;

/// Generator shapes, cycled over the corpus: shallow and wide, deep and
/// narrow, helper-heavy with reconverge_entry callees, predict-dense.
GenOptions shape(unsigned I) {
  GenOptions G;
  switch (I % 4) {
  case 0:
    G.MaxDepth = 2;
    G.MaxItemsPerLevel = 5;
    break;
  case 1:
    G.MaxDepth = 4;
    G.MaxItemsPerLevel = 3;
    break;
  case 2:
    G.MaxHelpers = 3;
    G.ReconvergeEntryProbability = 0.9;
    break;
  default:
    G.PredictProbability = 0.9;
    G.MaxTripCount = 12;
    break;
  }
  return G;
}

/// Instruction-count bands, cycled over the corpus independently of the
/// shapes. Every seed draws the same number of modules per (shape, band),
/// so the corpus's compile cost varies little from seed to seed.
constexpr unsigned Bands[][2] = {
    {20, 40}, {40, 70}, {70, 100}, {100, 140}, {140, 200}};
constexpr unsigned NumBands = sizeof(Bands) / sizeof(Bands[0]);

/// Generator options of corpus module \p I: the first generator seed,
/// drawn from \p Seed, whose module falls in the slot's band and runs
/// cleanly in the oracle's 1-warp launch at seed \p Seed.
GenOptions corpusOptions(uint64_t Seed, unsigned I) {
  const unsigned *Band = Bands[(I / 4) % NumBands];
  GenOptions G = shape(I);
  for (uint64_t Try = 0;; ++Try) {
    G.Seed = mix64(Seed * 1000003 + I * 7919 + Try);
    const std::unique_ptr<Module> M = generateKernelModule(G);
    const uint64_t N = countInstructions(*M);
    if ((N >= Band[0] && N < Band[1] && runsCleanly(*M, Seed, 1, 1)) ||
        Try == 1000)
      return G;
  }
}

struct Pipeline {
  std::string Name;
  PipelineSpec Spec;
};

/// One compile's deterministic result.
struct Compiled {
  std::unique_ptr<Module> M;
  std::string Text;
  PipelineReport Report;
  bool LaunchOk = false;
};

Compiled compile(const std::string &Source, const PipelineSpec &Spec,
                 Tracer &T, SpanNames &N) {
  Compiled C;
  ParseResult P;
  {
    SpanScope S(T, N.Parse);
    P = parseModule(Source);
  }
  if (!P.ok())
    return C;
  C.M = std::move(P.M);
  C.Report = runPipeline(*C.M, Spec, T, N);
  {
    SpanScope S(T, N.VerifyLaunch);
    C.LaunchOk = verifyLaunchModule(*C.M).Errors.empty();
  }
  SpanScope S(T, N.Print);
  C.Text = printModule(*C.M);
  return C;
}

/// Checksum of a 1-warp run of \p M's "kernel"; nullopt when it fails.
std::optional<GridResult> runOneWarp(const Module &M, uint64_t Seed) {
  const LaunchVerification V = verifyLaunchModule(M);
  const Function *K = M.functionByName("kernel");
  if (!K || !V.Errors.empty())
    return std::nullopt;
  LaunchConfig LC;
  LC.Seed = Seed;
  LC.Verified = &V;
  GridResult R = runGrid(M, K, LC, 1);
  if (!R.Ok)
    return std::nullopt;
  return R;
}

} // namespace

void perfbench::runKernelgenCompile(const BenchOptions &O, Tracer &T,
                                    Outcome &Out) {
  SpanNames N(T);
  T.On = O.Trace;

  // The corpus's generator seeds are the workload's inputs, chosen once
  // and untimed: choosing one compiles and runs its candidates.
  // Generating the chosen modules is the set-up.
  std::vector<GenOptions> Chosen(CorpusSize);
  forEach(false, CorpusSize,
          [&](size_t I) { Chosen[I] = corpusOptions(O.Seed, I); });
  std::vector<std::string> Corpus;
  std::vector<Pipeline> Pipes;
  Out.Metrics["setup_s"] = medianSeconds(SetupRuns, [&](int) {
    SpanScope S(T, N.Setup);
    SpanScope B(T, N.Build);
    Corpus.assign(CorpusSize, "");
    forEach(false, CorpusSize, [&](size_t I) {
      Corpus[I] = printModule(*generateKernelModule(Chosen[I]));
    });
    Pipes.clear();
    for (const PipelineDef &D : pipelineCatalog())
      Pipes.push_back({D.Name, *standardPipelineSpec(D.Name)});
  });

  // Timed loop. An untraced run compiles each pass on every pool thread,
  // as a parallel build would, so interference from other work on the
  // host averages over the cores; a traced run compiles on the main
  // thread, where spans are recorded, and traces every other pass.
  const size_t NumOps = Corpus.size() * Pipes.size();
  struct Result {
    Compiled C;
    lint::LintResult Lint;
    Clock::time_point Done;
    double Ms = 0, LintMs = 0;
  };
  std::vector<Result> Results(NumOps);
  std::vector<uint64_t> FirstText(NumOps), FirstLint(NumOps);
  lint::LintOptions LO;
  LO.Remarks = false;
  Samples UntracedMs, LintMs, PassRates;
  uint64_t Findings = 0;
  const Clock::time_point Start = Clock::now();
  Windows Timed(Start, O.Seconds);
  for (unsigned Pass = 0;; ++Pass) {
    if (msBetween(Start, Clock::now()) >= O.Seconds * 1000 && Pass >= 2)
      break;
    const bool FirstPass = Pass == 0;
    T.On = O.Trace && Pass % 2 == 1;
    const Clock::time_point P0 = Clock::now();
    forEach(O.Trace, NumOps, [&](size_t Id) {
      Result &R = Results[Id];
      const Clock::time_point T0 = Clock::now();
      {
        SpanScope Op(T, Tracer::OpName, uint64_t(Pass) * NumOps + Id + 1);
        R.C = compile(Corpus[Id / Pipes.size()], Pipes[Id % Pipes.size()].Spec,
                      T, N);
      }
      R.Done = Clock::now();
      R.Ms = msBetween(T0, R.Done);
    });
    PassRates.add(NumOps * 1000.0 / msBetween(P0, Clock::now()));
    forEach(O.Trace, NumOps, [&](size_t Id) {
      Result &R = Results[Id];
      if (!R.C.M)
        return;
      const Clock::time_point L0 = Clock::now();
      SpanScope L(T, N.Lint, uint64_t(Pass) * NumOps + Id + 1);
      R.Lint = lint::runConvergenceLint(*R.C.M, LO);
      R.LintMs = msBetween(L0, Clock::now());
    });

    for (size_t Id = 0; Id < NumOps; ++Id) {
      const Result &R = Results[Id];
      const std::string Name = "module " + std::to_string(Id / Pipes.size()) +
                               " under " + Pipes[Id % Pipes.size()].Name;
      Timed.add(R.Done, R.Ms, 1);
      if (!T.On)
        UntracedMs.add(R.Ms);
      if (!R.C.M) {
        Out.check(false, Name + " did not parse");
        continue;
      }
      LintMs.add(R.LintMs);
      uint64_t Verdict = R.Lint.Diagnostics.size();
      for (const lint::LintDiagnostic &D : R.Lint.Diagnostics)
        Verdict = fnv1a(D.format(), Verdict);
      const uint64_t TextHash = fnv1a(R.C.Text);
      if (FirstPass) {
        FirstText[Id] = TextHash;
        FirstLint[Id] = Verdict;
        Findings += R.Lint.Diagnostics.size();
      }
      Out.check(R.C.LaunchOk && R.C.Report.clean() &&
                    TextHash == FirstText[Id] && Verdict == FirstLint[Id],
                Name + ": compile or lint result changed");
    }
  }
  T.On = false;

  // Untimed oracle: stage-by-stage equals runSyncPipeline, and every
  // pipeline preserves the noop pipeline's 1-warp checksum.
  uint64_t Cycles = 0, Slots = 0, Insts = 0;
  unsigned Regions = 0, Pairs = 0, Downgrades = 0;
  int64_t Added = 0;
  std::vector<std::unique_ptr<Module>> Inputs;
  for (size_t Src = 0; Src < Corpus.size(); ++Src) {
    Inputs.push_back(std::move(parseModule(Corpus[Src]).M));
    const uint64_t Before = countInstructions(*Inputs.back());
    std::optional<uint64_t> Ref;
    uint64_t Fold = FnvBasis;
    for (size_t P = 0; P < Pipes.size(); ++P) {
      std::unique_ptr<Module> Sync = parseModule(Corpus[Src]).M;
      const PipelineReport R = runSyncPipeline(*Sync, Pipes[P].Spec);
      std::unique_ptr<Module> ByStage = parseModule(Corpus[Src]).M;
      runStages(*ByStage, Pipes[P].Spec, T, N);
      const std::string SyncText = printModule(*Sync);
      Out.check(SyncText == printModule(*ByStage) &&
                    fnv1a(SyncText) == FirstText[Src * Pipes.size() + P],
                "module " + std::to_string(Src) + " under " + Pipes[P].Name +
                    ": stage-by-stage module differs from runSyncPipeline");

      const std::optional<GridResult> G = runOneWarp(*Sync, O.Seed);
      uint64_t Sum = G ? G->CombinedChecksum : 0;
      if (!Ref)
        Ref = O.InjectWrongAnswer ? Sum ^ 1 : Sum;
      Out.check(G && Sum == *Ref, "module " + std::to_string(Src) +
                                      " under " + Pipes[P].Name +
                                      ": checksum differs from noop's");
      if (G) {
        Cycles += G->TotalCycles;
        Slots += G->TotalIssueSlots;
      }
      Regions += R.SR.Applied.size();
      Pairs += R.Meld.PairsMelded;
      Downgrades += R.barrierDowngrades();
      const uint64_t After = countInstructions(*Sync);
      Insts += After;
      Added += static_cast<int64_t>(After) - static_cast<int64_t>(Before);
      Fold = fnv1aMix(fnv1aMix(Fold, fnv1a(SyncText)), Sum);
    }
    Out.Deterministic["kernelgen." + std::to_string(Src)] =
        jsonHex64(Fold) + " checksum " + jsonHex64(Ref.value_or(0));
  }

  const Samples &All = Timed.all();
  Out.Metrics["throughput_per_s"] = PassRates.median();
  Out.Metrics["op_ms_p50"] = Timed.medianMs();
  Out.Metrics["op_ms_p99"] = Timed.tailMs();
  std::printf("kernelgen-compile: %zu compiles (%zu modules x %zu "
              "pipelines per pass, %u threads), compile ms p50 %.4f p%.0f "
              "%.4f, lint ms p50 %.4f\n",
              All.size(), Corpus.size(), Pipes.size(),
              O.Trace ? 1u : ThreadPool::global().concurrency(),
              Out.Metrics["op_ms_p50"], All.tailPercent(), All.tail(),
              LintMs.median());
  if (!O.Trace)
    return;

  Out.Metrics["sim.cycles"] = static_cast<double>(Cycles);
  Out.Metrics["sim.issue_slots"] = static_cast<double>(Slots);
  Out.Metrics["transform.sr_regions"] = Regions;
  Out.Metrics["transform.meld_pairs"] = Pairs;
  Out.Metrics["transform.barrier_downgrades"] = Downgrades;
  Out.Metrics["transform.insts_added"] = static_cast<double>(Added);
  Out.Metrics["ir.module_insts"] = static_cast<double>(Insts) / NumOps;
  Out.Metrics["lint.findings"] = static_cast<double>(Findings);
  std::vector<const Module *> Probe;
  for (const std::unique_ptr<Module> &M : Inputs)
    Probe.push_back(M.get());
  T.On = true;
  probeLayers(Probe, {}, T, N);
  T.On = false;
  addTraceMetrics(T, UntracedMs.mean(), Out);
}
