//===- ServeZipf.cpp - Workload serve-zipf --------------------------------===//
///
/// \file
/// The daemon as its clients see it: one in-process serve::Server on a
/// Unix socket with the disk tier on, driven by a single client thread
/// over two closed-loop connections (each sends its next request when the
/// previous answer arrives; four oversubscribe the cores alongside the
/// daemon's threads). Requests are compile, simulate and lint, drawn
/// Zipf-wise over (Table 2 + kernelgen sources) x catalog pipelines x
/// launch seeds, plus a fixed share of never-seen launch seeds, so most
/// are memory hits and a steady minority miss, compute and write the disk
/// tier; simulate results overflow the memory cache and come back as disk
/// hits. One operation is one request, timed at the client from first
/// byte sent to the response.
///
/// The mix is assumed, not taken from recorded traffic: the Zipf
/// exponent, the share of fresh keys, the launch seeds per source and the
/// verb proportions (which follow from the key counts) are choices, not
/// measurements. The hit ratio, disk traffic and latency tail follow from
/// them.
///
/// Oracle: every response is ok; every response to one request key
/// carries the same content; and that content (post_digest; checksum,
/// trace_digest, cycles and issue slots; lint verdicts) equals a direct
/// in-process compile, simulate or lint of the key, computed untimed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fuzz/KernelGen.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "kernels/Workload.h"
#include "lint/ConvergenceLint.h"
#include "serve/Cache.h"
#include "serve/Server.h"
#include "sim/Grid.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace simtsr;
using namespace perfbench;

namespace {

constexpr unsigned Connections = 2;
/// With the 10 Table 2 programs, 28 sources x 9 catalog pipelines = 252
/// compile keys: the compiled modules fit the daemon's default compile
/// cache (256), and simulate results overflow the simulate cache (1024)
/// into the disk tier.
constexpr unsigned KernelgenSources = 18;
constexpr unsigned KernelgenLaunchSeeds = 8;
constexpr unsigned Table2LaunchSeeds = 2;
/// A fixed share of requests simulate a kernelgen program at a launch
/// seed never requested before (drawn without repetition from the next
/// FreshLaunchSeeds seeds): the steady minority of misses, independent of
/// how far the Zipf keys have warmed the caches.
constexpr double FreshShare = 0.02;
constexpr unsigned FreshLaunchSeeds = 128;
constexpr unsigned SimWarps = 2;
/// Issue-slot band of a tail program's 1-warp run.
constexpr uint64_t MinTailSlots = 300, MaxTailSlots = 3000;
constexpr double ZipfExponent = 1.0;
/// Requests before this point warm the caches and are not recorded.
constexpr double WarmupSeconds = 2.0;
/// The first requests drawn, whose answers every run of a seed must
/// repeat; a run always completes them (well within the warm-up).
constexpr size_t PinnedRequests = 200;

enum Verb : uint8_t { Compile, Simulate, Lint, NumVerbs };
const char *const VerbNames[] = {"compile", "simulate", "lint"};

struct Source {
  std::string Text;
  std::string Escaped; ///< Text as a JSON string literal.
  std::string Kernel;
  std::vector<int64_t> Args;
  int Soft = 8; ///< soft_threshold sent with every request.
};

/// One request key: verb x source x pipeline (x launch seed).
struct Key {
  Verb V;
  uint32_t Src;
  uint32_t Pipe;
  uint32_t Seed;
};

/// Everything the client draws requests from.
struct Universe {
  std::vector<Source> Sources;
  std::vector<std::string> Pipes;
  /// The Zipf keys in rank order, then the fresh keys (seeded order).
  std::vector<Key> Keys;
  std::vector<double> Cdf; ///< Cumulative Zipf weight by rank.
  size_t NextFresh = 0;

  uint32_t draw(Rng &R) {
    if (R.nextDouble() < FreshShare) {
      const size_t Fresh = Keys.size() - Cdf.size();
      return static_cast<uint32_t>(Cdf.size() + NextFresh++ % Fresh);
    }
    const double U = R.nextDouble() * Cdf.back();
    return static_cast<uint32_t>(std::upper_bound(Cdf.begin(), Cdf.end(), U) -
                                 Cdf.begin());
  }

  std::string render(uint32_t K, uint64_t Id) const {
    const Key &Ky = Keys[K];
    const Source &S = Sources[Ky.Src];
    std::string L = "{\"id\":" + std::to_string(Id) + ",\"op\":\"" +
                    VerbNames[Ky.V] + "\",\"pipeline\":\"" + Pipes[Ky.Pipe] +
                    "\",\"soft_threshold\":" + std::to_string(S.Soft);
    if (Ky.V == Simulate) {
      L += ",\"kernel\":\"" + S.Kernel + "\",\"warps\":" +
           std::to_string(SimWarps) + ",\"seed\":" + std::to_string(Ky.Seed) +
           ",\"args\":[";
      for (size_t I = 0; I < S.Args.size(); ++I)
        L += (I ? "," : "") + std::to_string(S.Args[I]);
      L += "]";
    }
    L += ",\"source\":" + S.Escaped + "}\n";
    return L;
  }
};

/// Kernelgen program \p I of the tail: the first generator seed, drawn
/// from \p Seed, whose program a 1-warp run finishes in a bounded number
/// of issue slots, so no single program's misses dominate the latency
/// tail of one seed, and which runs cleanly at every launch the daemon
/// may be asked for.
std::string tailSource(uint64_t Seed, unsigned I) {
  const PipelineSpec Noop = *standardPipelineSpec("noop");
  for (uint64_t Try = 0;; ++Try) {
    GenOptions G;
    G.Seed = mix64(Seed * 7919 + I * 131 + Try);
    std::unique_ptr<Module> M = generateKernelModule(G);
    std::string Text = printModule(*M);
    runSyncPipeline(*M, Noop);
    const LaunchVerification V = verifyLaunchModule(*M);
    LaunchConfig LC;
    LC.Verified = &V;
    const GridResult R = runGrid(*M, M->functionByName("kernel"), LC, 1);
    if ((R.Ok && R.TotalIssueSlots >= MinTailSlots &&
         R.TotalIssueSlots < MaxTailSlots &&
         runsCleanly(*parseModule(Text).M, 1,
                     KernelgenLaunchSeeds + FreshLaunchSeeds, SimWarps)) ||
        Try == 1000)
      return Text;
  }
}

/// The tail's programs for \p Seed, drawn once per run: they are the
/// workload's inputs, not part of the daemon's set-up.
std::vector<std::string> tailSources(uint64_t Seed) {
  std::vector<std::string> Texts(KernelgenSources);
  forEach(false, Texts.size(),
          [&](size_t I) { Texts[I] = tailSource(Seed, I); });
  return Texts;
}

Universe buildUniverse(uint64_t Seed,
                       const std::vector<std::string> &TailTexts) {
  Universe U;
  const std::vector<Workload> Suite = makeAllWorkloads(1.0);
  const size_t Table2Count = Suite.size();
  for (const Workload &W : Suite) {
    Source S;
    S.Text = printModule(*W.M);
    S.Kernel = W.KernelName;
    S.Args = W.Args;
    if (W.RecommendedSoftThreshold >= 0)
      S.Soft = W.RecommendedSoftThreshold;
    U.Sources.push_back(std::move(S));
  }
  for (const std::string &Text : TailTexts) {
    Source S;
    S.Text = Text;
    S.Kernel = "kernel";
    U.Sources.push_back(std::move(S));
  }
  for (Source &S : U.Sources) {
    JsonWriter W;
    W.string(S.Text);
    S.Escaped = W.take();
  }
  for (const PipelineDef &D : pipelineCatalog())
    U.Pipes.push_back(D.Name);
  // The Table 2 programs are the popular ones: their keys take the top
  // ranks, so they are computed during the warm-up and answered from the
  // caches afterwards. The kernelgen keys form the long tail whose misses
  // keep arriving; they interleave compile, lint and simulate in a fixed
  // proportional pattern, shuffled only within a verb, so every seed puts
  // equally costly work at every popularity rank.
  std::vector<Key> Popular, Tail[NumVerbs];
  for (uint32_t Src = 0; Src < U.Sources.size(); ++Src)
    for (uint32_t P = 0; P < U.Pipes.size(); ++P) {
      std::vector<Key> &Compiles = Src < Table2Count ? Popular : Tail[Compile];
      std::vector<Key> &Lints = Src < Table2Count ? Popular : Tail[Lint];
      std::vector<Key> &Sims = Src < Table2Count ? Popular : Tail[Simulate];
      Compiles.push_back({Compile, Src, P, 0});
      Lints.push_back({Lint, Src, P, 0});
      const uint32_t Seeds =
          Src < Table2Count ? Table2LaunchSeeds : KernelgenLaunchSeeds;
      for (uint32_t L = 1; L <= Seeds; ++L)
        Sims.push_back({Simulate, Src, P, L});
    }
  Rng R(Seed);
  const auto Shuffle = [&R](std::vector<Key> &C) {
    for (size_t I = C.size(); I > 1; --I)
      std::swap(C[I - 1], C[R.nextBelow(I)]);
  };
  Shuffle(Popular);
  U.Keys = Popular;
  size_t Total = 0, Taken[NumVerbs] = {};
  for (std::vector<Key> &C : Tail) {
    Shuffle(C);
    Total += C.size();
  }
  for (size_t Rank = 1; Rank <= Total; ++Rank) {
    double BestDeficit = -1e300;
    unsigned Best = 0;
    for (unsigned V = 0; V < NumVerbs; ++V) {
      const double Deficit =
          double(Tail[V].size()) * Rank / Total - double(Taken[V]);
      if (Taken[V] < Tail[V].size() && Deficit > BestDeficit) {
        BestDeficit = Deficit;
        Best = V;
      }
    }
    U.Keys.push_back(Tail[Best][Taken[Best]++]);
  }
  double Acc = 0;
  for (size_t Rank = 1; Rank <= U.Keys.size(); ++Rank) {
    Acc += 1.0 / std::pow(static_cast<double>(Rank), ZipfExponent);
    U.Cdf.push_back(Acc);
  }
  std::vector<Key> Fresh;
  for (uint32_t Src = Table2Count; Src < U.Sources.size(); ++Src)
    for (uint32_t P = 0; P < U.Pipes.size(); ++P)
      for (uint32_t L = 1; L <= FreshLaunchSeeds; ++L)
        Fresh.push_back({Simulate, Src, P, KernelgenLaunchSeeds + L});
  Shuffle(Fresh);
  U.Keys.insert(U.Keys.end(), Fresh.begin(), Fresh.end());
  return U;
}

int connectUnix(const std::string &Path) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  const int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// The daemon under test and the thread running its socket loop.
class Daemon {
public:
  Daemon(const std::string &Dir)
      : Sock(Dir + "/serve.sock"), Server([&Dir] {
          serve::ServerOptions SO;
          SO.DiskCacheDir = Dir + "/disk";
          return SO;
        }()),
        Loop([this] { Server.serveUnixSocket(Sock); }) {}
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Waits until the listener accepts; false after about five seconds.
  bool ready() const {
    for (int I = 0; I < 500; ++I) {
      const int Fd = connectUnix(Sock);
      if (Fd >= 0) {
        ::close(Fd);
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  /// Sends "shutdown" and joins the loop once it has drained.
  void stop() {
    if (!Loop.joinable())
      return;
    const int Fd = connectUnix(Sock);
    if (Fd >= 0) {
      const std::string Req = "{\"id\":0,\"op\":\"shutdown\"}\n";
      [[maybe_unused]] ssize_t W = ::write(Fd, Req.data(), Req.size());
      char Buf[256];
      while (::read(Fd, Buf, sizeof(Buf)) > 0) {
      }
      ::close(Fd);
    }
    Loop.join();
  }

  const std::string Sock;
  serve::Server Server;

private:
  std::thread Loop; ///< Last: starts once the server exists.
};

/// One closed-loop client connection.
struct Conn {
  int Fd = -1;
  std::string Out;
  size_t OutPos = 0;
  std::string In;
  uint32_t Key = 0;
  uint64_t Id = 0;
  Clock::time_point Sent;
  bool Busy = false;
};

/// Client-side record of one request key: the content of its first
/// response (everything from "module" on, which excludes the id and the
/// cache markers).
struct Seen {
  std::string Content;
  uint64_t Count = 0;
};

std::string contentOf(const std::string &Line) {
  const size_t At = Line.find("\"module\":");
  return At == std::string::npos ? "" : "{" + Line.substr(At);
}

bool isHit(Verb V, const std::string &Line) {
  return Line.find(V == Lint ? "\"compile_cached\":true" : "\"cached\":true") !=
         std::string::npos;
}

/// Reference compile of one (source, pipeline) pair.
struct RefCompile {
  std::unique_ptr<Module> M;
  PipelineReport Report;
  uint64_t InstsBefore = 0;
  uint64_t Key = 0;
  uint64_t PostDigest = 0;
  LaunchVerification Launch;
};

uint64_t fieldUnsigned(const JsonValue &J, const char *Name) {
  const JsonValue *F = J.field(Name);
  return F && F->isIntegral() ? static_cast<uint64_t>(F->asInt()) : ~0ull;
}

std::string fieldString(const JsonValue &J, const char *Name) {
  const JsonValue *F = J.field(Name);
  return F && F->isString() ? F->asString() : "";
}

} // namespace

void perfbench::runServeZipf(const BenchOptions &O, Tracer &T, Outcome &Out) {
  SpanNames N(T);
  T.On = O.Trace;

  // Set-up: sources, request keys and a started daemon on a fresh disk
  // tier. Repeated for the median; only the last daemon serves.
  const std::vector<std::string> Tail = tailSources(O.Seed);
  Universe U;
  std::unique_ptr<Daemon> D;
  bool Up = false;
  Out.Metrics["setup_s"] = medianSeconds(SetupRuns, [&](int I) {
    SpanScope S(T, N.Setup);
    D.reset();
    {
      SpanScope B(T, N.Build);
      U = buildUniverse(O.Seed, Tail);
    }
    const std::string Dir = O.ScratchDir + "/serve" + std::to_string(I);
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    std::filesystem::create_directories(Dir, EC);
    D = std::make_unique<Daemon>(Dir);
    Up = D->ready();
  });
  Out.check(Up, "daemon did not start on " + D->Sock);
  if (!Up)
    return;

  std::vector<Conn> Conns(Connections);
  for (Conn &C : Conns) {
    C.Fd = connectUnix(D->Sock);
    Out.check(C.Fd >= 0, "cannot connect to " + D->Sock);
    if (C.Fd < 0)
      return;
    ::fcntl(C.Fd, F_SETFL, ::fcntl(C.Fd, F_GETFL) | O_NONBLOCK);
  }

  // The closed loop. Each connection keeps one request outstanding until
  // the window closes, then drains.
  Rng Draw(mix64(O.Seed ^ 0x5eed));
  std::unordered_map<uint32_t, Seen> ByKey;
  Samples HitMs, MissMs, VerbMs[NumVerbs];
  uint64_t NextId = 0;
  const Clock::time_point Start = Clock::now();
  const Clock::time_point Measure =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(WarmupSeconds));
  const Clock::time_point End =
      Measure + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(O.Seconds));
  Windows Timed(Measure, O.Seconds);
  const auto Flush = [&Out](Conn &C) {
    while (C.OutPos < C.Out.size()) {
      const ssize_t W = ::write(C.Fd, C.Out.data() + C.OutPos,
                                C.Out.size() - C.OutPos);
      if (W > 0) {
        C.OutPos += static_cast<size_t>(W);
        continue;
      }
      if (W < 0 && (errno == EAGAIN || errno == EINTR))
        return;
      Out.check(false, "write to the daemon failed");
      C.Busy = false;
      return;
    }
  };
  std::vector<uint32_t> Pinned;
  const auto Issue = [&](Conn &C) {
    C.Key = U.draw(Draw);
    if (Pinned.size() < PinnedRequests)
      Pinned.push_back(C.Key);
    C.Id = ++NextId;
    C.Out = U.render(C.Key, C.Id);
    C.OutPos = 0;
    C.In.clear();
    C.Sent = Clock::now();
    C.Busy = true;
    Flush(C);
  };
  const auto Receive = [&](Conn &C, const std::string &Line) {
    const Clock::time_point Now = Clock::now();
    const double Ms = msBetween(C.Sent, Now);
    const Verb V = U.Keys[C.Key].V;
    const bool Ok = Line.find("\"ok\":true") != std::string::npos;
    Seen &S = ByKey[C.Key];
    std::string Content = contentOf(Line);
    if (S.Count++ == 0)
      S.Content = Content;
    Out.check(Ok && S.Content == Content,
              Ok ? "responses to one key differ: " + Line
                 : "request failed: " + Line.substr(0, 200));
    if (C.Sent < Measure || Now > End)
      return;
    Timed.add(Now, Ms, 1);
    (isHit(V, Line) ? HitMs : MissMs).add(Ms);
    VerbMs[V].add(Ms);
  };

  for (Conn &C : Conns)
    Issue(C);
  std::vector<pollfd> Fds(Connections);
  while (true) {
    const bool Open = Clock::now() < End;
    bool AnyBusy = false;
    for (unsigned I = 0; I < Connections; ++I) {
      Conn &C = Conns[I];
      AnyBusy |= C.Busy;
      Fds[I] = {C.Fd,
                static_cast<short>(C.Busy ? POLLIN | (C.OutPos < C.Out.size()
                                                          ? POLLOUT
                                                          : 0)
                                          : 0),
                0};
    }
    if (!AnyBusy)
      break;
    if (::poll(Fds.data(), Fds.size(), 1000) < 0 && errno != EINTR)
      break;
    for (unsigned I = 0; I < Connections; ++I) {
      Conn &C = Conns[I];
      if (!C.Busy)
        continue;
      if (Fds[I].revents & POLLOUT)
        Flush(C);
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      char Buf[65536];
      const ssize_t R = ::read(C.Fd, Buf, sizeof(Buf));
      if (R <= 0) {
        if (R < 0 && (errno == EAGAIN || errno == EINTR))
          continue;
        Out.check(false, "daemon closed the connection");
        C.Busy = false;
        continue;
      }
      C.In.append(Buf, static_cast<size_t>(R));
      const size_t Nl = C.In.find('\n');
      if (Nl == std::string::npos)
        continue;
      Receive(C, C.In.substr(0, Nl));
      C.Busy = false;
      if (Open)
        Issue(C);
    }
  }
  for (Conn &C : Conns)
    ::close(C.Fd);
  D->stop();
  const serve::StatsSnapshot Stats = D->Server.statsSnapshot();

  // Untimed oracle: every key's content against a direct in-process run.
  T.On = O.Trace;
  std::map<std::pair<uint32_t, uint32_t>, RefCompile> Compiles;
  const auto Ref = [&](uint32_t Src, uint32_t Pipe) -> const RefCompile & {
    auto [It, New] = Compiles.try_emplace({Src, Pipe});
    RefCompile &R = It->second;
    if (!New)
      return R;
    const Source &S = U.Sources[Src];
    R.Key = serve::compileKeyNamed(S.Text, U.Pipes[Pipe], S.Soft);
    ParseResult P;
    {
      SpanScope Sp(T, N.Parse);
      P = parseModule(S.Text);
    }
    R.M = std::move(P.M);
    if (!R.M)
      return R;
    R.InstsBefore = countInstructions(*R.M);
    R.Report =
        runPipeline(*R.M, *standardPipelineSpec(U.Pipes[Pipe], S.Soft), T, N);
    {
      SpanScope Sp(T, N.VerifyLaunch);
      R.Launch = verifyLaunchModule(*R.M);
    }
    SpanScope Sp(T, N.Print);
    R.PostDigest = fnv1a(printModule(*R.M));
    return R;
  };
  std::vector<uint32_t> Order;
  for (const auto &[K, S] : ByKey)
    Order.push_back(K);
  std::sort(Order.begin(), Order.end());
  // References compile first, on this thread (their spans are the
  // transform layer's on this workload); the keys are then checked
  // against them in parallel.
  for (uint32_t K : Order)
    Ref(U.Keys[K].Src, U.Keys[K].Pipe);
  struct Verdict {
    bool Ok = false;
    uint64_t Cycles = 0, Slots = 0, Findings = 0;
  };
  std::vector<Verdict> Verdicts(Order.size());
  const auto FirstSim = std::find_if(Order.begin(), Order.end(), [&](uint32_t K) {
    return U.Keys[K].V == Simulate;
  });
  forEach(O.Trace, Order.size(), [&](size_t I) {
    const Key &Ky = U.Keys[Order[I]];
    const Source &S = U.Sources[Ky.Src];
    const RefCompile &R = Compiles.at({Ky.Src, Ky.Pipe});
    const JsonParseResult J = parseJson(ByKey.at(Order[I]).Content);
    Verdict &V = Verdicts[I];
    if (!J.ok() || !R.M)
      return;
    V.Ok = fieldString(J.Value, "module") == jsonHex64(R.Key);
    if (Ky.V != Lint)
      V.Ok = V.Ok &&
             fieldString(J.Value, "post_digest") == jsonHex64(R.PostDigest);
    if (Ky.V == Simulate) {
      LaunchConfig LC;
      LC.Seed = Ky.Seed;
      LC.KernelArgs = S.Args;
      LC.CollectTraceDigest = true;
      LC.Verified = &R.Launch;
      const GridResult G =
          runGrid(*R.M, R.M->functionByName(S.Kernel), LC, SimWarps);
      const bool Inject =
          O.InjectWrongAnswer && Order.begin() + I == FirstSim;
      V.Ok = V.Ok && G.Ok && fieldString(J.Value, "status") == "finished" &&
             fieldString(J.Value, "checksum") ==
                 jsonHex64(G.CombinedChecksum ^ Inject) &&
             fieldString(J.Value, "trace_digest") == jsonHex64(G.TraceDigest) &&
             fieldUnsigned(J.Value, "cycles") == G.TotalCycles &&
             fieldUnsigned(J.Value, "issue_slots") == G.TotalIssueSlots;
      V.Cycles = G.TotalCycles;
      V.Slots = G.TotalIssueSlots;
    } else if (Ky.V == Lint) {
      std::unique_ptr<Module> M = R.M->clone();
      lint::LintOptions LO;
      LO.Remarks = false;
      lint::LintResult LR;
      {
        SpanScope Sp(T, N.Lint);
        LR = lint::runConvergenceLint(*M, LO);
      }
      V.Findings = LR.Diagnostics.size();
      const JsonValue *Listed = J.Value.field("findings");
      size_t Shown = 0;
      for (const lint::LintDiagnostic &Dg : LR.Diagnostics)
        Shown += Dg.Severity != lint::LintSeverity::Note;
      V.Ok = V.Ok &&
             fieldUnsigned(J.Value, "errors") ==
                 LR.count(lint::LintSeverity::Error) &&
             fieldUnsigned(J.Value, "warnings") ==
                 LR.count(lint::LintSeverity::Warning) &&
             fieldUnsigned(J.Value, "notes") ==
                 LR.count(lint::LintSeverity::Note) &&
             Listed && Listed->isArray() && Listed->items().size() == Shown;
    }
  });
  std::unordered_set<uint64_t> SimKeys;
  uint64_t Cycles = 0, Slots = 0, Findings = 0;
  for (size_t I = 0; I < Order.size(); ++I) {
    const Key &Ky = U.Keys[Order[I]];
    const Verdict &V = Verdicts[I];
    Out.check(V.Ok, std::string(VerbNames[Ky.V]) + " of source " +
                        std::to_string(Ky.Src) + " under " + U.Pipes[Ky.Pipe] +
                        ": response " +
                        ByKey[Order[I]].Content.substr(0, 200) +
                        " differs from the in-process reference");
    Cycles += V.Cycles;
    Slots += V.Slots;
    Findings += V.Findings;
    if (Ky.V == Simulate)
      SimKeys.insert(fnv1aMix(Compiles.at({Ky.Src, Ky.Pipe}).PostDigest,
                              Ky.Seed));
  }
  T.On = false;
  uint64_t Fold = FnvBasis;
  for (uint32_t K : Pinned)
    Fold = fnv1a(ByKey[K].Content, Fold);
  Out.Deterministic["serve.first_answers"] = jsonHex64(Fold);

  const Samples &Lat = Timed.all();
  Out.Metrics["throughput_per_s"] = Timed.medianRate(false);
  Out.Metrics["op_ms_p50"] = Timed.medianMs();
  Out.Metrics["op_ms_p99"] = Timed.tailMs();
  const auto Ratio = [](const serve::CacheStats &C) {
    return C.Hits + C.Misses ? double(C.Hits) / double(C.Hits + C.Misses)
                             : 0.0;
  };
  std::printf("serve-zipf: %llu requests in %.1f s over %u connections "
              "(%zu keys seen), ms p50 %.3f p%.0f %.3f; hits %zu (p50 %.3f "
              "ms), misses %zu (p50 %.3f ms); compile hit ratio %.3f, sim "
              "hit ratio %.3f, disk writes %llu, disk hits %llu\n",
              static_cast<unsigned long long>(Lat.size()), O.Seconds,
              Connections, ByKey.size(), Out.Metrics["op_ms_p50"],
              Lat.tailPercent(),
              Lat.tail(), HitMs.size(), HitMs.median(), MissMs.size(),
              MissMs.median(), Ratio(Stats.Compile), Ratio(Stats.Sim),
              static_cast<unsigned long long>(Stats.Disk.Writes),
              static_cast<unsigned long long>(Stats.Disk.Hits));
  if (!O.Trace)
    return;

  Out.Metrics["serve.compile_hit_ratio"] = Ratio(Stats.Compile);
  Out.Metrics["serve.sim_hit_ratio"] = Ratio(Stats.Sim);
  const double Computed = static_cast<double>(
      Stats.Compile.Misses + Stats.Sim.Misses - Stats.Disk.Hits);
  Out.Metrics["serve.dup_misses"] =
      Computed - static_cast<double>(Compiles.size() + SimKeys.size());
  Out.Metrics["serve.disk_writes"] = static_cast<double>(Stats.Disk.Writes);
  Out.Metrics["serve.disk_hits"] = static_cast<double>(Stats.Disk.Hits);
  Out.Metrics["serve.evictions"] =
      static_cast<double>(Stats.Compile.Evictions + Stats.Sim.Evictions);
  Out.Metrics["serve.rejected"] = static_cast<double>(Stats.Rejected);
  Out.Metrics["serve.hit_ms_p50"] = HitMs.median();
  Out.Metrics["serve.miss_ms_p50"] = MissMs.median();
  for (unsigned V = 0; V < NumVerbs; ++V)
    Out.Metrics[std::string("serve.") + VerbNames[V] + "_ms_p50"] =
        VerbMs[V].median();
  Out.Metrics["sim.cycles"] = static_cast<double>(Cycles);
  Out.Metrics["sim.issue_slots"] = static_cast<double>(Slots);
  Out.Metrics["lint.findings"] = static_cast<double>(Findings);
  uint64_t Insts = 0;
  int64_t Added = 0;
  unsigned Regions = 0, Pairs = 0, Downgrades = 0;
  for (const auto &[P, R] : Compiles) {
    if (!R.M)
      continue;
    const uint64_t After = countInstructions(*R.M);
    Insts += After;
    Added += static_cast<int64_t>(After) - static_cast<int64_t>(R.InstsBefore);
    Regions += R.Report.SR.Applied.size();
    Pairs += R.Report.Meld.PairsMelded;
    Downgrades += R.Report.barrierDowngrades();
  }
  Out.Metrics["transform.sr_regions"] = Regions;
  Out.Metrics["transform.meld_pairs"] = Pairs;
  Out.Metrics["transform.barrier_downgrades"] = Downgrades;
  Out.Metrics["transform.insts_added"] = static_cast<double>(Added);
  Out.Metrics["ir.module_insts"] =
      Compiles.empty() ? 0.0 : double(Insts) / Compiles.size();

  std::vector<std::unique_ptr<Module>> Parsed;
  std::vector<const Module *> Inputs;
  for (const Source &S : U.Sources)
    if ((Parsed.push_back(parseModule(S.Text).M), Parsed.back()))
      Inputs.push_back(Parsed.back().get());
  T.On = true;
  probeLayers(Inputs, {}, T, N);
  T.On = false;
  // A request's phases run inside the daemon, out of the client's sight,
  // so requests carry no spans: the op shares and trace.* read 0 here.
  addTraceMetrics(T, 0.0, Out);
}
