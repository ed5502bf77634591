//===- Table2Sim.cpp - Workload table2-sim --------------------------------===//
///
/// \file
/// The paper's modelled result, timed on the host: the 10 Table 2
/// workloads at scale 1, compiled under pdom, the paper's annotated config
/// (soft at the workload's RecommendedSoftThreshold, else sr+ip) and
/// meld+sr, each run as an 8-warp grid at the launch seed --seed. One
/// operation is one grid. Simulation is nearly all of the host time, so
/// this workload moves with the sim layer and not with the compiler.
///
/// Oracle: every grid repeats the first pass's cycles, issue slots,
/// efficiency and checksum exactly; every config's checksum equals the
/// noop pipeline's (the uncompiled reference interpreter); and at seed
/// 2020 all four configs match perfbench/expected/table2-seed2020.txt,
/// whose pdom rows are BENCH_baseline.json's.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "kernels/Runner.h"
#include "sim/Grid.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace simtsr;
using namespace perfbench;

namespace {

constexpr unsigned Warps = 8;
constexpr uint64_t ExpectedSeed = 2020;
const char *const ExpectedFile = "perfbench/expected/table2-seed2020.txt";

/// Config 0 is the reference; the timed configs follow.
enum ConfigIndex { Noop, Pdom, Paper, MeldSr, NumConfigs };
const char *const ConfigNames[] = {"noop", "pdom", "paper", "meld+sr"};

PipelineSpec configSpec(const Workload &W, unsigned C) {
  switch (C) {
  case Noop:
    return *standardPipelineSpec("noop");
  case Pdom:
    return *standardPipelineSpec("pdom");
  case Paper:
    return W.RecommendedSoftThreshold >= 0
               ? *standardPipelineSpec("soft", W.RecommendedSoftThreshold)
               : *standardPipelineSpec("sr+ip");
  default:
    return *standardPipelineSpec("meld+sr");
  }
}

struct Compiled {
  Workload W; ///< Post-pipeline copy.
  LaunchVerification Launch;
  const Function *Kernel = nullptr;
  PipelineReport Report;
  uint64_t InstsBefore = 0;
};

/// The deterministic result of one grid.
struct GridFacts {
  uint64_t Cycles = 0;
  uint64_t IssueSlots = 0;
  double Efficiency = 0;
  uint64_t Checksum = 0;
  bool Ok = false;

  std::string str() const {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "%llu %llu %.6f 0x%016llx",
                  static_cast<unsigned long long>(Cycles),
                  static_cast<unsigned long long>(IssueSlots), Efficiency,
                  static_cast<unsigned long long>(Checksum));
    return Buf;
  }
};

GridFacts runOne(const Compiled &C, uint64_t Seed, bool Digest = false) {
  LaunchConfig LC;
  LC.Seed = Seed;
  LC.Latency = C.W.Latency;
  LC.KernelArgs = C.W.Args;
  LC.Verified = &C.Launch;
  LC.CollectTraceDigest = Digest;
  const GridResult R = runGrid(*C.W.M, C.Kernel, LC, Warps, C.W.InitMemory);
  return {R.TotalCycles, R.TotalIssueSlots, R.SimtEfficiency,
          R.CombinedChecksum, R.Ok};
}

/// "workload config" -> "cycles issue_slots efficiency checksum".
std::map<std::string, std::string> readExpected(const std::string &Path) {
  std::map<std::string, std::string> Rows;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream S(Line);
    std::string W, C, Cy, Is, Eff, Sum;
    if (S >> W >> C >> Cy >> Is >> Eff >> Sum)
      Rows[W + " " + C] = Cy + " " + Is + " " + Eff + " " + Sum;
  }
  return Rows;
}

} // namespace

void perfbench::runTable2Sim(const BenchOptions &O, Tracer &T, Outcome &Out) {
  SpanNames N(T);
  T.On = O.Trace;

  // Set-up: build the suite and compile every workload under every config.
  std::vector<std::vector<Compiled>> Suite;
  const double SetupS = medianSeconds(SetupRuns, [&](int) {
    SpanScope S(T, N.Setup);
    std::vector<Workload> Built;
    {
      SpanScope B(T, N.Build);
      Built = makeAllWorkloads(1.0);
    }
    Suite.clear();
    Suite.resize(Built.size());
    for (std::vector<Compiled> &Row : Suite)
      Row.resize(NumConfigs);
    forEach(O.Trace, Built.size() * NumConfigs, [&](size_t I) {
      const Workload &W = Built[I / NumConfigs];
      const unsigned C = I % NumConfigs;
      Compiled &X = Suite[I / NumConfigs][C];
      {
        SpanScope Cl(T, N.Clone);
        X.W = cloneWorkload(W);
      }
      X.InstsBefore = countInstructions(*X.W.M);
      X.Report = runPipeline(*X.W.M, configSpec(W, C), T, N);
      {
        SpanScope V(T, N.VerifyLaunch);
        X.Launch = verifyLaunchModule(*X.W.M);
      }
      X.Kernel = X.W.M->functionByName(X.W.KernelName);
    });
  });
  Out.Metrics["setup_s"] = SetupS;
  for (const std::vector<Compiled> &Row : Suite)
    for (const Compiled &X : Row)
      Out.check(X.Kernel && X.Launch.Errors.empty() && X.Report.clean(),
                X.W.Name + ": compile failed");

  // Timed loop: passes over workloads x timed configs until time is up.
  // A traced run traces every other pass; the untraced ones are the
  // comparison base for the tracing overhead.
  std::vector<uint32_t> GridNames;
  for (const std::vector<Compiled> &Row : Suite)
    GridNames.push_back(T.intern("sim.grid." + Row[0].W.Name));
  std::vector<std::vector<GridFacts>> First(
      Suite.size(), std::vector<GridFacts>(NumConfigs));
  Samples UntracedMs;
  uint64_t OpId = 0;
  std::vector<double> TracedMsByWorkload(Suite.size());
  std::vector<uint64_t> TracedGridsByWorkload(Suite.size()),
      TracedSlotsByWorkload(Suite.size());
  const Clock::time_point Start = Clock::now();
  Windows Timed(Start, O.Seconds);
  for (unsigned Pass = 0;; ++Pass) {
    if (msBetween(Start, Clock::now()) >= O.Seconds * 1000 && Pass >= 2)
      break;
    const bool FirstPass = Pass == 0;
    T.On = O.Trace && Pass % 2 == 1;
    for (size_t W = 0; W < Suite.size(); ++W)
      for (unsigned C = Pdom; C < NumConfigs; ++C) {
        const Compiled &X = Suite[W][C];
        GridFacts F;
        const Clock::time_point T0 = Clock::now();
        {
          SpanScope Op(T, Tracer::OpName, ++OpId);
          SpanScope G(T, GridNames[W]);
          F = runOne(X, O.Seed);
        }
        const Clock::time_point T1 = Clock::now();
        const double Ms = msBetween(T0, T1);
        Timed.add(T1, Ms, static_cast<double>(F.IssueSlots));
        if (!T.On)
          UntracedMs.add(Ms);
        else {
          TracedMsByWorkload[W] += Ms;
          ++TracedGridsByWorkload[W];
          TracedSlotsByWorkload[W] += F.IssueSlots;
        }
        if (FirstPass)
          First[W][C] = F;
        Out.check(F.Ok && F.str() == First[W][C].str(),
                  X.W.Name + "/" + ConfigNames[C] + ": grid result " +
                      F.str() + " differs from the first pass " +
                      First[W][C].str());
      }
  }
  T.On = false;

  // Untimed oracle 1: every config computes the reference's checksum.
  for (size_t W = 0; W < Suite.size(); ++W) {
    First[W][Noop] = runOne(Suite[W][Noop], O.Seed);
    uint64_t Ref = First[W][Noop].Checksum;
    if (O.InjectWrongAnswer && W == 0)
      Ref ^= 1;
    for (unsigned C = Pdom; C < NumConfigs; ++C)
      Out.check(First[W][Noop].Ok && First[W][C].Checksum == Ref,
                Suite[W][C].W.Name + "/" + ConfigNames[C] +
                    ": checksum differs from the noop reference");
    for (unsigned C = 0; C < NumConfigs; ++C)
      Out.Deterministic["table2." + Suite[W][C].W.Name + "." +
                        ConfigNames[C]] = First[W][C].str();
  }

  // Untimed oracle 2: seed 2020 against the checked-in expected values.
  const std::map<std::string, std::string> Expected = readExpected(ExpectedFile);
  Out.check(!Expected.empty(), std::string("cannot read ") + ExpectedFile);
  for (const std::vector<Compiled> &Row : Suite)
    for (unsigned C = 0; C < NumConfigs; ++C) {
      const std::string Key = Row[C].W.Name + " " + ConfigNames[C];
      const std::string Got = runOne(Row[C], ExpectedSeed).str();
      Out.Deterministic["table2.seed2020." + Row[C].W.Name + "." +
                        ConfigNames[C]] = Got;
      auto It = Expected.find(Key);
      Out.check(It != Expected.end() && It->second == Got,
                Key + " at seed 2020: got " + Got + ", expected " +
                    (It == Expected.end() ? "no row" : It->second));
    }

  // The modelled result over the annotated set: pdom cycles over the
  // paper config's, and the paper config's cycle-weighted efficiency.
  double LogSum = 0, EffCycles = 0, Cycles = 0;
  unsigned Annotated = 0;
  for (const Workload &A : makeAnnotatedWorkloads(1.0))
    for (size_t W = 0; W < Suite.size(); ++W)
      if (Suite[W][0].W.Name == A.Name) {
        const GridFacts &P = First[W][Paper];
        LogSum += std::log(static_cast<double>(First[W][Pdom].Cycles) /
                           static_cast<double>(P.Cycles));
        EffCycles += P.Efficiency * static_cast<double>(P.Cycles);
        Cycles += static_cast<double>(P.Cycles);
        ++Annotated;
      }
  const double Speedup = Annotated ? std::exp(LogSum / Annotated) : 0.0;
  const double Efficiency = Cycles > 0 ? EffCycles / Cycles : 0.0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9f", Speedup);
  Out.Deterministic["table2.sr_speedup_geomean"] = Buf;
  std::snprintf(Buf, sizeof(Buf), "%.9f", Efficiency);
  Out.Deterministic["table2.sr_simt_efficiency"] = Buf;

  const Samples &All = Timed.all();
  Out.Metrics["throughput_per_s"] = Timed.medianRate(true);
  Out.Metrics["op_ms_p50"] = Timed.medianMs();
  Out.Metrics["op_ms_p99"] = Timed.tailMs();
  std::printf("table2-sim: %zu grids of %u warps, %.1f M issue slots/s, "
              "grid ms p50 %.3f p%.0f %.3f; sr speedup geomean %.4f, "
              "simt efficiency %.4f\n",
              All.size(), Warps, Out.Metrics["throughput_per_s"] / 1e6,
              Out.Metrics["op_ms_p50"], All.tailPercent(), All.tail(), Speedup,
              Efficiency);

  if (!O.Trace)
    return;

  // Per-layer metrics from the traced passes.
  uint64_t PassCycles = 0, PassSlots = 0, Insts = 0, Modules = 0;
  unsigned Regions = 0, Pairs = 0, Downgrades = 0;
  int64_t Added = 0;
  std::vector<const Module *> Inputs, Post;
  for (size_t W = 0; W < Suite.size(); ++W) {
    const std::string &Name = Suite[W][0].W.Name;
    Out.Metrics["sim.grid_ms." + Name] =
        TracedGridsByWorkload[W]
            ? TracedMsByWorkload[W] / TracedGridsByWorkload[W]
            : 0.0;
    Out.Metrics["sim.islots_per_s." + Name] =
        TracedMsByWorkload[W] > 0 ? TracedSlotsByWorkload[W] * 1000.0 /
                                        TracedMsByWorkload[W]
                                  : 0.0;
    Inputs.push_back(Suite[W][Noop].W.M.get());
    for (unsigned C = Pdom; C < NumConfigs; ++C) {
      const Compiled &X = Suite[W][C];
      PassCycles += First[W][C].Cycles;
      PassSlots += First[W][C].IssueSlots;
      Regions += X.Report.SR.Applied.size();
      Pairs += X.Report.Meld.PairsMelded;
      Downgrades += X.Report.barrierDowngrades();
      const uint64_t After = countInstructions(*X.W.M);
      Added += static_cast<int64_t>(After) -
               static_cast<int64_t>(X.InstsBefore);
      Insts += After;
      ++Modules;
      Post.push_back(X.W.M.get());
    }
  }
  Out.Metrics["sim.cycles"] = static_cast<double>(PassCycles);
  Out.Metrics["sim.issue_slots"] = static_cast<double>(PassSlots);
  Out.Metrics["sim.sr_speedup_geomean"] = Speedup;
  Out.Metrics["sim.sr_simt_efficiency"] = Efficiency;
  Out.Metrics["transform.sr_regions"] = Regions;
  Out.Metrics["transform.meld_pairs"] = Pairs;
  Out.Metrics["transform.barrier_downgrades"] = Downgrades;
  Out.Metrics["transform.insts_added"] = static_cast<double>(Added);
  Out.Metrics["ir.module_insts"] = Modules ? double(Insts) / Modules : 0.0;

  // observe: pdom grids with and without the launch trace digest,
  // alternating so drift hits both sides alike.
  double WithMs = 0, WithoutMs = 0;
  for (int Rep = 0; Rep < 3; ++Rep)
    for (const std::vector<Compiled> &Row : Suite)
      for (bool Digest : {false, true}) {
        const Clock::time_point T0 = Clock::now();
        runOne(Row[Pdom], O.Seed, Digest);
        (Digest ? WithMs : WithoutMs) += msBetween(T0, Clock::now());
      }
  Out.Metrics["observe.digest_overhead_pct"] =
      WithoutMs > 0 ? 100.0 * (WithMs - WithoutMs) / WithoutMs : 0.0;

  T.On = true;
  Out.Metrics["lint.findings"] = static_cast<double>(probeLayers(Inputs, Post, T, N));
  T.On = false;
  addTraceMetrics(T, UntracedMs.mean(), Out);
}
