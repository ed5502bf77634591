//===- main.cpp - Repository benchmark driver ----------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           --scratch DIR [--spans-out FILE] [--inject-wrong-answer]
///
/// Runs one workload (table2-sim, kernelgen-compile, serve-zipf), checks
/// every output against its reference, and prints as its last line one
/// JSON object: {"correct", "attempted", "failed", "metrics"}. With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
/// records spans around every layer call and reports the per-layer ones,
/// writing the spans as a Chrome trace to --spans-out.
///
/// Lines before the last are for people: a summary per workload and
/// "deterministic KEY VALUE" lines holding results that depend only on
/// the seed (the benchmark's own tests diff them across runs and thread
/// counts).
///
/// Exit codes: 0 when every check passed, 1 when any output was wrong
/// (the JSON line still prints, with "correct": false), 2 on usage
/// errors.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <sys/resource.h>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table2-sim|kernelgen-compile|serve-zipf --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--spans-out FILE] "
               "[--inject-wrong-answer]\n",
               Why);
  return 2;
}

double peakRssMb() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

std::string renderResult(const Outcome &Out,
                         const std::vector<MetricDef> &Defs) {
  simtsr::JsonWriter W;
  W.beginObject();
  W.key("correct");
  W.boolean(Out.Failed == 0 && Out.Attempted > 0);
  W.key("attempted");
  W.numberUnsigned(Out.Attempted);
  W.key("failed");
  W.numberUnsigned(Out.Failed);
  W.key("metrics");
  W.beginObject();
  for (const MetricDef &D : Defs) {
    auto It = Out.Metrics.find(D.Name);
    W.key(D.Name);
    W.beginObject();
    W.key("value");
    W.number(It == Out.Metrics.end() ? 0.0 : It->second);
    W.key("unit");
    W.string(D.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.take();
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions O;
  std::string SpansOut;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const bool HasValue = I + 1 < Argc;
    if (A == "--inject-wrong-answer") {
      O.InjectWrongAnswer = true;
    } else if (!HasValue) {
      return usage(("missing value for '" + A + "'").c_str());
    } else if (A == "--workload") {
      O.Workload = Argv[++I];
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(Argv[++I], nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(Argv[++I], nullptr);
      HaveSeconds = O.Seconds > 0;
    } else if (A == "--trace") {
      const std::string V = Argv[++I];
      if (V != "0" && V != "1")
        return usage("--trace takes 0 or 1");
      O.Trace = V == "1";
      HaveTrace = true;
    } else if (A == "--scratch") {
      O.ScratchDir = Argv[++I];
    } else if (A == "--spans-out") {
      SpansOut = Argv[++I];
    } else {
      return usage(("unknown argument '" + A + "'").c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace ||
      O.ScratchDir.empty())
    return usage(
        "--workload, --seed, --seconds, --trace and --scratch are required");
  std::error_code EC;
  std::filesystem::create_directories(O.ScratchDir, EC);
  if (EC)
    return usage(("cannot create scratch directory '" + O.ScratchDir +
                  "'")
                     .c_str());

  Tracer T;
  Outcome Out;
  if (O.Workload == "table2-sim")
    runTable2Sim(O, T, Out);
  else if (O.Workload == "kernelgen-compile")
    runKernelgenCompile(O, T, Out);
  else if (O.Workload == "serve-zipf")
    runServeZipf(O, T, Out);
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());
  Out.Metrics["peak_rss_mb"] = peakRssMb();

  if (O.Trace && !SpansOut.empty() && !T.writeChromeTrace(SpansOut))
    std::fprintf(stderr, "perfbench: cannot write spans to '%s'\n",
                 SpansOut.c_str());
  for (const auto &[Key, Value] : Out.Deterministic)
    std::printf("deterministic %s %s\n", Key.c_str(), Value.c_str());
  for (const std::string &Note : Out.FailureNotes)
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", Note.c_str());
  std::printf("%s\n",
              renderResult(Out, O.Trace ? perLayerMetrics() : endToEndMetrics())
                  .c_str());
  std::fflush(stdout);
  return Out.Failed == 0 && Out.Attempted > 0 ? 0 : 1;
}
