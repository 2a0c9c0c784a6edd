//===- perfbench/src/main.cpp - The compile-service benchmark client -----===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// Starts real unit_serve daemons, drives them from this one client process
// through CompileClient, checks every returned kernel report against
// references computed apart from the service, and prints one JSON result
// line. perfbench/README.md describes the workloads and metrics.
//
//   perfbench_client --workload cold-zoo|warm-stream|conn-churn|fleet-fetch
//                    --seed N --seconds S --trace 0|1 --bin-dir DIR
//
// Exit codes: 0 with a result line; 1 when an output check failed (the
// result line says correct=false); 2 when the run could not complete.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "core/Inspector.h"
#include "core/Isomorphism.h"
#include "core/Pipeline.h"
#include "core/Rewriter.h"
#include "fabric/Endpoint.h"
#include "fabric/Handshake.h"
#include "graph/Layout.h"
#include "models/ModelZoo.h"
#include "perf/CostModel.h"
#include "runtime/CompileRequest.h"
#include "runtime/CompilerSession.h"
#include "server/CompileClient.h"
#include "support/Random.h"
#include "tuner/Tuner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include <sys/stat.h>
#include <unistd.h>

using namespace unit;
using namespace pb;

namespace {

/// Set before anything else runs. setup_s counts from this process's start
/// until the inputs, check (a)'s references and the daemons in the
/// workload's starting state are ready.
const double ProcessStart = now();

[[noreturn]] void cannotComplete(const std::string &Why) {
  std::fprintf(stderr, "perfbench: run cannot complete: %s\n", Why.c_str());
  killAllDaemons();
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// A small seeded network that joins the nine paper models, so each seed
/// compiles a slightly different zoo: eight 3x3 convolutions of a fixed
/// residual-stage shape whose channel counts the seed perturbs, keeping
/// the zoo's total work within a few percent across seeds.
Model seededModel(uint64_t Seed) {
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 17);
  Model M;
  M.Name = "seeded-net";
  int64_t C = 64 + 16 * Rng.uniform(0, 4);
  for (int I = 0; I < 8; ++I) {
    ConvLayer L;
    L.Name = "seeded-net.conv" + std::to_string(I);
    L.InC = C;
    L.OutC = C = 64 + 16 * Rng.uniform(0, 4);
    L.InH = L.InW = I < 4 ? 28 : 14;
    L.KH = L.KW = 3;
    L.PadH = L.PadW = 1;
    L.Stride = I == 4 ? 2 : 1;
    if (I == 4)
      L.InH = L.InW = 28;
    M.addConv(L);
  }
  return M;
}

struct Pair {
  size_t Model;
  std::string Target;
};

/// One distinct kernel of the inputs and its in-process reference report.
struct Kernel {
  std::string Target;
  ConvLayer Layer;
  std::string Key;
  KernelReport Ref;
};

struct Inputs {
  std::vector<Model> Models;
  std::vector<Pair> Pairs;
  std::vector<Kernel> Kernels; ///< First-occurrence order over Pairs.
  /// Per pair, per conv layer: index into Kernels.
  std::vector<std::vector<uint32_t>> LayerKernel;
  std::map<std::string, double> Peak; ///< Peak MACs/s per target.
};

std::vector<std::string> builtinTargets() {
  std::vector<std::string> Ids;
  for (const TargetBackendRef &B : TargetRegistry::instance().all())
    Ids.push_back(B->id());
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

Inputs makeInputs(uint64_t Seed, const std::vector<std::string> &Targets) {
  Inputs In;
  In.Models = paperModels();
  In.Models.push_back(seededModel(Seed));
  for (const std::string &T : Targets) {
    In.Peak[T] = peakMacsPerSecond(T);
    for (size_t M = 0; M < In.Models.size(); ++M)
      In.Pairs.push_back(Pair{M, T});
  }
  std::unordered_map<std::string, uint32_t> Index;
  for (const Pair &P : In.Pairs) {
    TargetBackendRef B = TargetRegistry::instance().get(P.Target);
    std::vector<uint32_t> Row;
    for (const ConvLayer &L : In.Models[P.Model].Convs) {
      std::string Key = CompileRequest(Workload::conv2d(L), B).cacheKey();
      auto [It, Fresh] =
          Index.emplace(Key, static_cast<uint32_t>(In.Kernels.size()));
      if (Fresh)
        In.Kernels.push_back(Kernel{P.Target, L, Key, {}});
      Row.push_back(It->second);
    }
    In.LayerKernel.push_back(std::move(Row));
  }
  return In;
}

/// Client-side concurrency, each within nproc (4 on the reference host).
/// cold-zoo uses one connection: the daemon's pool is the bottleneck
/// either way (a round takes the same time with one to four), and with
/// one the models compile in the same order every round, so which model
/// pays for a kernel two models share does not vary with thread timing.
constexpr size_t ColdClients = 1;
/// warm-stream: a few long-lived connections.
constexpr size_t WarmClients = 2;
/// conn-churn threads, connections that populate a cache, and threads
/// that build check (a)'s references.
constexpr size_t ClientThreads = 4;

/// Check (a)'s reference: every distinct kernel compiled in-process by its
/// backend, with no session, cache, transfer seeding, server or fabric.
/// Spread over \p Threads threads; each compile is single-threaded.
void buildReferences(Inputs &In, Tracer &T, size_t Threads) {
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < In.Kernels.size();) {
      Kernel &K = In.Kernels[I];
      TargetBackendRef B = TargetRegistry::instance().get(K.Target);
      Span S(T, "tuner.backend_compile");
      K.Ref = B->compileConv(K.Layer, nullptr);
    }
  };
  std::vector<std::thread> Pool;
  for (size_t I = 0; I < Threads; ++I)
    Pool.emplace_back(Worker);
  for (std::thread &Th : Pool)
    Th.join();
}

std::vector<size_t> identityOrder(size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  return Order;
}

/// A seeded permutation of 0..N-1.
std::vector<size_t> seededOrder(size_t N, SplitMix64 &Rng) {
  std::vector<size_t> Order = identityOrder(N);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1],
              Order[static_cast<size_t>(Rng.uniform(0, int64_t(I) - 1))]);
  return Order;
}

//===----------------------------------------------------------------------===//
// Run state
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string BinDir;
};

struct Run {
  Args A;
  Env E;
  Tracer T{false};
  std::vector<std::string> Failures;
  uint64_t Attempted = 0, Failed = 0;

  double SetupSeconds = 0;
  std::vector<double> RoundRates; ///< Tickets/s of each timed phase.
  uint64_t Answered = 0;     ///< Layer requests answered in timed phases.
  double DaemonCpu = 0;      ///< Daemon CPU seconds in timed phases.
  std::vector<double> ModelMs;
  std::vector<double> ModelLayerUs; ///< Per model compile: ms/layer in µs.
  std::vector<double> PeakRssMb;    ///< One per daemon lifetime.
  double LogModeledSum = 0;         ///< Sum of log(model modeled µs).
  size_t ModeledCount = 0;
  int PeakThreads = 0;
  std::vector<double> RssKbPerConnection;
  double FetchUs = 0;
  /// Per-layer metrics: name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> Layer;
  void layer(const std::string &Name, double Value, const char *Unit) {
    Layer[Name] = {Value, Unit};
  }

  /// Records one timed phase: its wall time and the tickets answered in
  /// it (Answered grew by that much since \p AnsweredBefore).
  void round(double Wall, uint64_t AnsweredBefore) {
    RoundRates.push_back(double(Answered - AnsweredBefore) / Wall);
  }

  void fail(const std::string &What) {
    if (Failures.size() < 20)
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", What.c_str());
    Failures.push_back(What);
  }
};

/// The traced run builds the references on one thread, so that
/// tuner.backend_compile_ms is comparable with the single-thread
/// runtime.session_cold_ms it is subtracted from.
size_t referenceThreads(const Run &R) { return R.A.Trace ? 1 : ClientThreads; }

/// Samples the daemon's thread count while a timed phase runs (traced
/// runs only: it is one more client-side thread).
class ThreadSampler {
public:
  ThreadSampler(Run &R, const std::vector<pid_t> &Pids) : R(R) {
    if (!R.A.Trace)
      return;
    Worker = std::thread([this, Pids] {
      while (!Done.load()) {
        for (pid_t P : Pids)
          Peak = std::max(Peak, sampleProc(P).Threads);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  ~ThreadSampler() {
    Done = true;
    if (Worker.joinable())
      Worker.join();
    R.PeakThreads = std::max(R.PeakThreads, Peak);
  }
  ThreadSampler(const ThreadSampler &) = delete;
  ThreadSampler &operator=(const ThreadSampler &) = delete;

private:
  Run &R;
  std::atomic<bool> Done{false};
  int Peak = 0;
  std::thread Worker;
};

//===----------------------------------------------------------------------===//
// Client work
//===----------------------------------------------------------------------===//

struct PairResult {
  std::vector<KernelReport> Reports;
  bool AllCached = true;
  bool Ok = false;
  double Ms = 0;
};

std::unique_ptr<CompileClient> openClient(Run &R, const std::string &Socket,
                                          const std::string &Name) {
  auto C = std::make_unique<CompileClient>();
  std::string Err;
  Span S(R.T, "server.connect");
  if (!C->connect(Socket, &Err) || !C->hello(Name, 0, &Err))
    cannotComplete("connect to " + Socket + ": " + Err);
  return C;
}

void closeClient(Run &R, std::unique_ptr<CompileClient> &C) {
  Span S(R.T, "server.close");
  C->close();
  C.reset();
}

/// Compiles Pairs[Order[k]] for every k, spread over \p Clients (one
/// thread each, pulling the next pair when the last one completed): every
/// conv layer of the model submitted back to back with compile_async,
/// then joined. Returns the phase's wall seconds; Out is indexed by pair.
double compilePairs(Run &R, const Inputs &In,
                    std::vector<std::unique_ptr<CompileClient>> &Clients,
                    const std::vector<size_t> &Order,
                    std::vector<PairResult> &Out) {
  Out.assign(In.Pairs.size(), PairResult{});
  std::atomic<size_t> Next{0};
  auto Worker = [&](CompileClient &C) {
    for (size_t K; (K = Next.fetch_add(1)) < Order.size();) {
      size_t P = Order[K];
      const Model &M = In.Models[In.Pairs[P].Model];
      PairResult &Res = Out[P];
      Span Root(R.T, "client.model_compile");
      double T0 = now();
      std::optional<std::vector<CompileClient::AsyncHandle>> Handles;
      {
        Span S(R.T, "server.submit_layers");
        Handles = C.submitModelLayers(In.Pairs[P].Target, M);
      }
      if (!Handles)
        continue;
      Res.Ok = true;
      Span S(R.T, "server.await_results");
      for (const CompileClient::AsyncHandle &H : *Handles) {
        std::optional<CompileClient::CompileResult> Got = C.wait(H);
        if (!Got) {
          Res.Ok = false;
          Res.Reports.push_back(KernelReport{});
          continue;
        }
        Res.AllCached = Res.AllCached && Got->Cached;
        Res.Reports.push_back(Got->Report);
      }
      Res.Ms = (now() - T0) * 1e3;
      // wait() leaves every handle on the client's waitAll() list; drain
      // it (all are resolved) so a long-lived connection stays bounded.
      C.waitAll();
    }
  };
  double T0 = now();
  std::vector<std::thread> Threads;
  for (auto &C : Clients)
    Threads.emplace_back(Worker, std::ref(*C));
  for (std::thread &Th : Threads)
    Th.join();
  return now() - T0;
}

/// Modeled conv latency of one compiled model: the sum of its layers'
/// modeled seconds, in µs.
double modeledUs(const std::vector<KernelReport> &Reports) {
  double Sum = 0;
  for (const KernelReport &Rep : Reports)
    Sum += Rep.Seconds;
  return Sum * 1e6;
}

/// Checks (a) and (d) on every report, counts outcomes, and folds the
/// model latencies and modeled quality into the run.
void takePairs(Run &R, const Inputs &In, const std::vector<size_t> &Order,
               const std::vector<PairResult> &Res, bool ExpectCached,
               const char *Phase) {
  for (size_t P : Order) {
    const PairResult &PR = Res[P];
    const Model &M = In.Models[In.Pairs[P].Model];
    R.Attempted += M.Convs.size();
    if (!PR.Ok || PR.Reports.size() != M.Convs.size()) {
      R.Failed += M.Convs.size();
      continue;
    }
    R.Answered += M.Convs.size();
    R.ModelMs.push_back(PR.Ms);
    R.ModelLayerUs.push_back(PR.Ms * 1e3 / static_cast<double>(M.Convs.size()));
    R.LogModeledSum += std::log(modeledUs(PR.Reports));
    ++R.ModeledCount;
    if (ExpectCached && !PR.AllCached)
      R.fail(std::string(Phase) + ": " + M.Name + " on " +
             In.Pairs[P].Target + " had a ticket not served from cache");
    for (size_t I = 0; I < PR.Reports.size(); ++I) {
      const Kernel &K = In.Kernels[In.LayerKernel[P][I]];
      std::string Why;
      if (!sameReport(PR.Reports[I], K.Ref, &Why))
        R.fail(std::string(Phase) + ": (a) " + M.Convs[I].Name + " on " +
               K.Target + ": " + Why);
      if (!peakBound(In.Peak.at(K.Target), M.Convs[I], PR.Reports[I], &Why))
        R.fail(std::string(Phase) + ": (d) on " + K.Target + ": " + Why);
    }
  }
}

//===----------------------------------------------------------------------===//
// Checks (b), (c), (e) and the self-test
//===----------------------------------------------------------------------===//

/// (b) and (c) on a seeded sample of the inputs' CPU kernels, checked
/// against the reports the service returned (equal to the references
/// once (a) passed, so the references stand in for them here).
void sampledChecks(Run &R, const Inputs &In, SplitMix64 &Rng) {
  std::vector<size_t> Cpu;
  for (size_t I = 0; I < In.Kernels.size(); ++I)
    if (In.Kernels[I].Ref.Tensorized &&
        dynamic_cast<const CpuBackend *>(
            TargetRegistry::instance().get(In.Kernels[I].Target).get()))
      Cpu.push_back(I);
  if (Cpu.empty())
    cannotComplete("no tensorized CPU kernel to sample");
  size_t MinChecked = 0, NumChecked = 0;
  for (int S = 0; S < 12; ++S) {
    const Kernel &K = In.Kernels[Cpu[static_cast<size_t>(
        Rng.uniform(0, int64_t(Cpu.size()) - 1))]];
    TargetBackendRef B = TargetRegistry::instance().get(K.Target);
    bool Applied = false;
    std::string Why;
    if (!cpuMinimum(*B, K.Layer, K.Ref, Applied, &Why))
      R.fail("(b) " + K.Layer.Name + " on " + K.Target + ": " + Why);
    MinChecked += Applied;
    if (S < 4) {
      if (!numerics(*B, K.Layer, K.Ref, Rng.next(), false, Applied, &Why))
        R.fail("(c) " + K.Layer.Name + " on " + K.Target + ": " + Why);
      NumChecked += Applied;
    }
  }
  if (MinChecked == 0 || NumChecked == 0)
    R.fail("(b)/(c) applied to no sampled kernel");
}

/// What one sequential in-process session does with the inputs: every
/// distinct kernel compiled fresh, every later layer a hit. Returns the
/// in-process tuner invocations it took.
uint64_t sequentialSession(Run &R, const Inputs &In) {
  SessionConfig Cfg;
  Cfg.Threads = 1;
  Cfg.ParallelShapes = false;
  Cfg.ParallelCandidates = false;
  CompilerSession S(Cfg);
  uint64_t Tuner0 = tunerInvocations();
  size_t Fresh = 0;
  for (const Kernel &K : In.Kernels) {
    bool Here = false;
    CompileRequest Req(Workload::conv2d(K.Layer), K.Target);
    {
      Span Sp(R.T, "runtime.session_cold");
      S.compile(Req, &Here);
    }
    Fresh += Here;
  }
  uint64_t Invocations = tunerInvocations() - Tuner0;
  for (size_t P = 0; P < In.Pairs.size(); ++P)
    for (const ConvLayer &L : In.Models[In.Pairs[P].Model].Convs) {
      bool Here = false;
      CompileRequest Req(Workload::conv2d(L), In.Pairs[P].Target);
      {
        Span Sp(R.T, "runtime.session_warm");
        S.compile(Req, &Here);
      }
      Fresh += Here;
    }
  if (Fresh != In.Kernels.size())
    R.fail("(e) the sequential session compiled " + std::to_string(Fresh) +
           " kernels fresh, the inputs hold " +
           std::to_string(In.Kernels.size()) + " distinct ones");
  return Invocations;
}

/// (e): two totals reached by independent paths agree.
bool countsAgree(double Got, double Want) { return Got == Want; }

bool expectEqual(Run &R, const std::string &What, double Got, double Want) {
  if (countsAgree(Got, Want))
    return true;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), ": %.17g, expected %.17g", Got, Want);
  R.fail("(e) " + What + Buf);
  return false;
}

/// Feeds each check a corrupted report or kernel output and requires it
/// to fail; a check that cannot fail proves nothing.
void selfTest(Run &R, const Inputs &In) {
  const Kernel *K = nullptr;
  for (const Kernel &C : In.Kernels)
    if (C.Ref.Tensorized && C.Target == "x86") {
      K = &C;
      break;
    }
  if (!K)
    cannotComplete("no tensorized x86 kernel for the self-test");
  TargetBackendRef B = TargetRegistry::instance().get(K->Target);
  std::string Why;
  bool Applied = false;
  auto Expect = [&](bool CheckPassed, const char *What) {
    if (CheckPassed)
      R.fail(std::string("self-test: check ") + What +
             " accepted a corrupted input");
  };
  KernelReport Bad = K->Ref;
  Bad.Seconds = std::nextafter(Bad.Seconds, 1.0);
  Expect(sameReport(Bad, K->Ref, &Why), "(a) seconds");
  Bad = K->Ref;
  Bad.BestCandidateIndex += 1;
  Expect(sameReport(Bad, K->Ref, &Why), "(a) candidate index");
  Bad = K->Ref;
  Bad.Tensorized = !Bad.Tensorized;
  Expect(sameReport(Bad, K->Ref, &Why), "(a) tensorized");
  Bad = K->Ref;
  Bad.IntrinsicName += "x";
  Expect(sameReport(Bad, K->Ref, &Why), "(a) instruction");
  Bad = K->Ref;
  Bad.Seconds *= 1.001;
  Expect(cpuMinimum(*B, K->Layer, Bad, Applied, &Why), "(b)");
  Expect(numerics(*B, K->Layer, K->Ref, 7, true, Applied, &Why), "(c)");
  Bad = K->Ref;
  Bad.Seconds = K->Layer.macs() / In.Peak.at(K->Target) / 2;
  Expect(peakBound(In.Peak.at(K->Target), K->Layer, Bad, &Why), "(d)");
  Expect(countsAgree(double(In.Kernels.size()),
                     double(In.Kernels.size() + 1)),
         "(e)");
  // The uncorrupted inputs must pass, or the checks prove nothing either.
  if (!sameReport(K->Ref, K->Ref, &Why) ||
      !cpuMinimum(*B, K->Layer, K->Ref, Applied, &Why) ||
      !numerics(*B, K->Layer, K->Ref, 7, false, Applied, &Why))
    R.fail("self-test: a check rejected an uncorrupted input: " + Why);
}

//===----------------------------------------------------------------------===//
// Per-layer probes (traced run)
//===----------------------------------------------------------------------===//

/// Times the core, tir, perf and server-codec calls on the workload's own
/// kernels, in-process, as spans.
void layerProbes(Run &R, const Inputs &In, SplitMix64 &Rng) {
  for (const Kernel &K : In.Kernels) {
    if (K.Layer.Depthwise)
      continue;
    TargetBackendRef B = TargetRegistry::instance().get(K.Target);
    const QuantScheme &S = B->scheme();
    bool Cpu = dynamic_cast<const CpuBackend *>(B.get()) != nullptr;
    LaidOutOp Laid =
        Cpu ? buildDirectConvOp(K.Layer, S.Activation, S.Weight,
                                S.Accumulator, S.LaneMultiple,
                                S.ReduceMultiple)
            : buildConvAsGemmOp(K.Layer, S.Activation, S.Accumulator,
                                S.LaneMultiple, /*FuseSpatial=*/true);
    std::optional<MatchResult> Match;
    {
      Span Sp(R.T, "core.inspect");
      for (const TensorIntrinsicRef &I : B->intrinsics())
        if ((Match = inspect(Laid.Op, I)))
          break;
    }
    if (!Match)
      continue;
    {
      Span Sp(R.T, "core.rewrite");
      TensorizePlan Plan = reorganizeLoops(Laid.Op, *Match);
    }
    if (!Cpu || K.Ref.BestCandidateIndex < 0)
      continue;
    const auto *CpuB = static_cast<const CpuBackend *>(B.get());
    TensorizePlan Plan = buildCpuPlan(
        Laid.Op, *Match,
        defaultCpuTuningPairs()[static_cast<size_t>(K.Ref.BestCandidateIndex)]);
    {
      Span Sp(R.T, "tir.lower");
      StmtRef TIR = lowerPlan(Plan);
    }
    {
      Span Sp(R.T, "perf.cost_eval");
      volatile double L =
          cpuLatencySeconds(analyzeTensorized(Plan), CpuB->machine());
      (void)L;
    }
  }

  for (size_t P = 0; P < In.Pairs.size(); ++P) {
    TargetBackendRef B = TargetRegistry::instance().get(In.Pairs[P].Target);
    for (const ConvLayer &L : In.Models[In.Pairs[P].Model].Convs) {
      Span Sp(R.T, "core.cache_key");
      std::string Key = CompileRequest(Workload::conv2d(L), B).cacheKey();
    }
  }

  // structuralDistance over same-group key pairs (the group is the key
  // prefix the session's transfer index partitions by), seeded sample.
  std::map<std::string, std::vector<std::string>> Groups;
  for (const Kernel &K : In.Kernels) {
    size_t Pos = 0;
    for (int Sep = 0; Sep < 3 && Pos != std::string::npos; ++Sep)
      Pos = K.Key.find('|', Pos) + 1;
    if (Pos == 0 || Pos > K.Key.size())
      continue;
    Groups[K.Key.substr(0, Pos)].push_back(K.Key.substr(Pos));
  }
  std::vector<const std::vector<std::string> *> Multi;
  for (const auto &G : Groups)
    if (G.second.size() > 1)
      Multi.push_back(&G.second);
  for (int I = 0; I < 2000 && !Multi.empty(); ++I) {
    const std::vector<std::string> &G =
        *Multi[static_cast<size_t>(Rng.uniform(0, int64_t(Multi.size()) - 1))];
    const std::string &X =
        G[static_cast<size_t>(Rng.uniform(0, int64_t(G.size()) - 1))];
    const std::string &Y =
        G[static_cast<size_t>(Rng.uniform(0, int64_t(G.size()) - 1))];
    Span Sp(R.T, "core.structural_distance");
    volatile size_t D =
        structuralDistance(X, Y, std::max<size_t>(8, X.size() / 10));
    (void)D;
  }

  // Protocol encode + parse of one compile_async frame and one result
  // notification per kernel.
  uint64_t Ticket = 1;
  for (const Kernel &K : In.Kernels) {
    Span Sp(R.T, "server.frame_codec");
    Json Msg = Json::object();
    Msg.set("type", "compile_async");
    Msg.set("id", Ticket);
    Msg.set("target", K.Target);
    Msg.set("workload", toJson(K.Layer));
    Msg.set("options", toJson(CompileOptions{}));
    std::optional<Json> Back = Json::parse(Msg.dump());
    ConvLayer L;
    std::string Err;
    if (!Back || !Back->get("workload") ||
        !convLayerFromJson(*Back->get("workload"), L, Err))
      R.fail("frame codec: compile_async frame did not round-trip");
    std::optional<Json> Note =
        Json::parse(makeResultNotification(Ticket++, true, K.Ref).dump());
    KernelReport Rep;
    if (!Note || !Note->get("report") ||
        !kernelReportFromJson(*Note->get("report"), Rep, Err))
      R.fail("frame codec: result notification did not round-trip");
  }
}

/// Stats round trips and fabric handshakes against a live daemon.
void daemonProbes(Run &R, Daemon &D) {
  {
    CompileClient C;
    if (!C.connect(D.socket()) || !C.hello("perfbench-stats"))
      cannotComplete("stats probe connect failed");
    for (int I = 0; I < 50; ++I) {
      Span Sp(R.T, "server.stats");
      if (!C.stats())
        cannotComplete("stats probe failed");
    }
  }
  std::optional<Endpoint> Ep = parseEndpoint(D.tcpEndpoint());
  if (!Ep)
    cannotComplete("daemon has no TCP endpoint for the handshake probe");
  for (int I = 0; I < 20; ++I) {
    int Fd;
    {
      Span Sp(R.T, "fabric.handshake");
      Fd = dialTcp(*Ep);
      if (Fd < 0 || !answerAuthChallenge(Fd, R.E.Secret))
        cannotComplete("fabric handshake probe failed");
    }
    ::close(Fd);
  }
}

/// Per-layer counts from a daemon's stats reply.
void layerCounts(Run &R, const Json &S) {
  const char *Names[][3] = {
      {"tuner.invocations", "tuner.invocations", "count"},
      {"tuner.candidates_scored", "tuner.candidates_scored", "count"},
      {"tuner.pruned_candidates", "tuner.pruned_candidates", "count"},
      {"tuner.transfer_seeds", "tuner.transfer_seeds", "count"},
      {"runtime.fresh_dispatches", "session.fresh_dispatches", "count"},
      {"runtime.continuation_joins", "session.continuation_joins", "count"},
      {"runtime.inline_ready_hits", "session.inline_ready_hits", "count"},
      {"runtime.cache_entries", "cache.entries", "count"},
      {"runtime.cache_bytes", "cache.bytes", "bytes"},
  };
  for (auto &N : Names)
    R.layer(N[0], statNumber(S, N[1]), N[2]);
}

void finishLayerMetrics(Run &R) {
  auto MedianUs = [&](const char *Span) {
    return median(R.T.selfTimes(Span)) * 1e6;
  };
  auto SumMs = [&](const char *Span) {
    double Sum = 0;
    for (double V : R.T.selfTimes(Span))
      Sum += V;
    return Sum * 1e3;
  };
  R.layer("core.inspect_us", MedianUs("core.inspect"), "us");
  R.layer("core.rewrite_us", MedianUs("core.rewrite"), "us");
  R.layer("core.structural_distance_us", MedianUs("core.structural_distance"),
          "us");
  R.layer("core.cache_key_us", MedianUs("core.cache_key"), "us");
  R.layer("tir.lower_us", MedianUs("tir.lower"), "us");
  R.layer("perf.cost_eval_us", MedianUs("perf.cost_eval"), "us");
  double Backend = SumMs("tuner.backend_compile");
  double Cold = SumMs("runtime.session_cold");
  double Warm = MedianUs("runtime.session_warm");
  R.layer("tuner.backend_compile_ms", Backend, "ms");
  R.layer("runtime.session_cold_ms", Cold, "ms");
  R.layer("runtime.session_overhead_ms", Cold - Backend, "ms");
  R.layer("runtime.warm_hit_us", Warm, "us");
  R.layer("server.frame_codec_us", MedianUs("server.frame_codec"), "us");
  R.layer("server.stats_rtt_us", MedianUs("server.stats"), "us");
  R.layer("server.warm_layer_overhead_us", median(R.ModelLayerUs) - Warm,
          "us");
  R.layer("server.connect_us", MedianUs("server.connect"), "us");
  R.layer("server.close_us", MedianUs("server.close"), "us");
  R.layer("server.daemon_threads", R.PeakThreads, "threads");
  R.layer("server.rss_kb_per_connection", median(R.RssKbPerConnection), "kB");
  R.layer("fabric.handshake_us", MedianUs("fabric.handshake"), "us");
  R.layer("fabric.peer_fetch_us", R.FetchUs, "us");
  // Only fleet-fetch has a peer; elsewhere the fabric counts read zero.
  for (const char *N : {"fabric.fetch_hits", "fabric.entries_served"})
    R.Layer.emplace(N, std::make_pair(0.0, std::string("count")));
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

constexpr size_t MinModelCompiles = 100; ///< >= 10 samples beyond p90.

bool keepGoing(const Run &R, double LoopStart) {
  return now() - LoopStart < R.A.Seconds || R.ModelMs.size() < MinModelCompiles;
}

void stopOrDie(Daemon &D) {
  std::string Err;
  if (!D.stop(&Err))
    cannotComplete(Err);
}

void startOrDie(Daemon &D, const Env &E, const DaemonConfig &C) {
  std::string Err;
  if (!D.start(E, C, &Err))
    cannotComplete(Err);
}

Json statsOrDie(Daemon &D) {
  std::string Err;
  std::optional<Json> S = D.stats(&Err);
  if (!S)
    cannotComplete("stats: " + Err);
  return *S;
}

std::vector<std::unique_ptr<CompileClient>>
openClients(Run &R, const std::string &Socket, size_t N) {
  std::vector<std::unique_ptr<CompileClient>> Cs;
  for (size_t I = 0; I < N; ++I)
    Cs.push_back(openClient(R, Socket, "perfbench-" + std::to_string(I)));
  return Cs;
}

void closeClients(Run &R, std::vector<std::unique_ptr<CompileClient>> &Cs) {
  for (auto &C : Cs)
    closeClient(R, C);
  Cs.clear();
}

/// One timed phase of pipelined model compiles against \p D, with the
/// daemon CPU, thread and memory probes around it.
void timedPairs(Run &R, const Inputs &In, Daemon &D,
                std::vector<std::unique_ptr<CompileClient>> &Clients,
                const std::vector<size_t> &Order, bool ExpectCached,
                const char *Phase) {
  std::vector<PairResult> Res;
  ProcSample Before = sampleProc(D.pid());
  double Wall;
  {
    ThreadSampler TS(R, {D.pid()});
    Wall = compilePairs(R, In, Clients, Order, Res);
  }
  ProcSample After = sampleProc(D.pid());
  R.DaemonCpu += After.CpuSeconds - Before.CpuSeconds;
  uint64_t Answered = R.Answered;
  takePairs(R, In, Order, Res, ExpectCached, Phase);
  R.round(Wall, Answered);
}

/// cold-zoo: every round a fresh, cache-less daemon compiles the whole
/// zoo on every builtin target.
void runColdZoo(Run &R, Inputs &In, SplitMix64 &) {
  auto D = std::make_unique<Daemon>();
  startOrDie(*D, R.E, DaemonConfig{});
  buildReferences(In, R.T, referenceThreads(R));
  R.SetupSeconds = now() - ProcessStart;
  uint64_t WantInvocations = sequentialSession(R, In);
  // A fixed order: which model pays for a kernel two models share is the
  // same in every round.
  std::vector<size_t> Order = identityOrder(In.Pairs.size());
  double LoopStart = now();
  Json Last;
  bool Probed = false; ///< Traced runs probe the first round's daemon.
  while (keepGoing(R, LoopStart)) {
    if (!D) {
      D = std::make_unique<Daemon>();
      startOrDie(*D, R.E, DaemonConfig{});
    }
    auto Clients = openClients(R, D->socket(), ColdClients);
    timedPairs(R, In, *D, Clients, Order, false, "cold-zoo");
    closeClients(R, Clients);
    Last = statsOrDie(*D);
    expectEqual(R, "cold-zoo daemon tuner invocations",
                statNumber(Last, "tuner.invocations"), double(WantInvocations));
    R.PeakRssMb.push_back(sampleProc(D->pid()).VmHwmKb / 1024);
    if (R.A.Trace && !Probed) {
      daemonProbes(R, *D);
      Probed = true;
    }
    stopOrDie(*D);
    D.reset();
  }
  layerCounts(R, Last);
}

/// Compiles the inputs once on a daemon persisting to \p CacheFile and
/// shuts it down, which writes the cache file.
void populateCache(Run &R, const Inputs &In, const std::string &CacheFile) {
  Daemon D;
  DaemonConfig C;
  C.CacheFile = CacheFile;
  C.ListenTcp = false;
  startOrDie(D, R.E, C);
  std::vector<std::unique_ptr<CompileClient>> Clients;
  for (size_t I = 0; I < ClientThreads; ++I) {
    auto Cl = std::make_unique<CompileClient>();
    if (!Cl->connect(D.socket()) || !Cl->hello("perfbench-populate"))
      cannotComplete("populate connect failed");
    Clients.push_back(std::move(Cl));
  }
  std::vector<size_t> Order = identityOrder(In.Pairs.size());
  std::vector<PairResult> Res;
  bool Was = R.T.setOn(false);
  compilePairs(R, In, Clients, Order, Res);
  R.T.setOn(Was);
  for (const PairResult &P : Res)
    if (!P.Ok)
      cannotComplete("populating the cache failed");
  Clients.clear();
  stopOrDie(D);
}

/// warm-stream: one daemon restarted from a persisted cache of the zoo;
/// four long-lived connections pipeline every zoo layer, round after round.
void runWarmStream(Run &R, Inputs &In, SplitMix64 &Rng) {
  std::string Cache = R.E.WorkDir + "/zoo.kc";
  populateCache(R, In, Cache);
  Daemon D;
  DaemonConfig C;
  C.CacheFile = Cache;
  startOrDie(D, R.E, C);
  buildReferences(In, R.T, referenceThreads(R));
  R.SetupSeconds = now() - ProcessStart;
  Json S0 = statsOrDie(D);
  expectEqual(R, "warm-stream entries loaded", statNumber(S0, "cache.entries"),
              double(In.Kernels.size()));

  if (R.A.Trace)
    sequentialSession(R, In);
  auto Clients = openClients(R, D.socket(), WarmClients);
  ProcSample Rss0 = sampleProc(D.pid());
  double LoopStart = now();
  while (keepGoing(R, LoopStart))
    timedPairs(R, In, D, Clients, seededOrder(In.Pairs.size(), Rng), true,
               "warm-stream");
  closeClients(R, Clients);
  ProcSample End = sampleProc(D.pid());
  R.PeakRssMb.push_back(End.VmHwmKb / 1024);
  R.RssKbPerConnection.push_back((End.VmRssKb - Rss0.VmRssKb) /
                                 double(WarmClients));
  Json Last = statsOrDie(D);
  expectEqual(R, "warm-stream tuner invocations",
              statNumber(Last, "tuner.invocations"), 0);
  layerCounts(R, Last);
  if (R.A.Trace)
    daemonProbes(R, D);
  stopOrDie(D);
}

/// conn-churn: a warm daemon on the x86 zoo; four threads each loop
/// connect, hello, blocking compile_model of a seeded-random model,
/// close. The daemon restarts from its cache every round so its memory
/// stays bounded whatever a connection costs it.
void runConnChurn(Run &R, Inputs &In, SplitMix64 &Rng) {
  constexpr size_t ConnectionsPerThread = 100;
  std::string Cache = R.E.WorkDir + "/x86.kc";
  populateCache(R, In, Cache);
  DaemonConfig C;
  C.CacheFile = Cache;
  auto D = std::make_unique<Daemon>();
  startOrDie(*D, R.E, C);
  buildReferences(In, R.T, referenceThreads(R));
  R.SetupSeconds = now() - ProcessStart;
  if (R.A.Trace)
    sequentialSession(R, In);

  double LoopStart = now();
  Json Last;
  bool Probed = false; ///< Traced runs probe the first round's daemon.
  while (keepGoing(R, LoopStart)) {
    if (!D) {
      D = std::make_unique<Daemon>();
      startOrDie(*D, R.E, C);
    }
    // Each thread's seeded model sequence, drawn before the phase.
    std::vector<std::vector<size_t>> Picks(ClientThreads);
    for (auto &P : Picks)
      for (size_t I = 0; I < ConnectionsPerThread; ++I)
        P.push_back(static_cast<size_t>(
            Rng.uniform(0, int64_t(In.Pairs.size()) - 1)));
    std::vector<std::vector<PairResult>> Res(ClientThreads);
    std::atomic<uint64_t> Conns{0};
    auto Worker = [&](size_t T) {
      for (size_t P : Picks[T]) {
        PairResult PR;
        const Model &M = In.Models[In.Pairs[P].Model];
        Span Root(R.T, "client.connection");
        double T0 = now();
        CompileClient Cl;
        {
          Span Sp(R.T, "server.connect");
          if (!Cl.connect(D->socket()) || !Cl.hello("perfbench-churn")) {
            Res[T].push_back(PR);
            continue;
          }
        }
        Conns.fetch_add(1);
        std::optional<CompileClient::ModelResult> MR;
        {
          Span Sp(R.T, "server.compile_model");
          MR = Cl.compileModel(In.Pairs[P].Target, M);
        }
        PR.Ms = (now() - T0) * 1e3;
        if (MR) {
          PR.Ok = true;
          PR.Reports = MR->Layers;
          PR.AllCached = MR->CacheHitLayers == M.Convs.size();
        }
        {
          Span Sp(R.T, "server.close");
          Cl.close();
        }
        Res[T].push_back(std::move(PR));
      }
    };
    ProcSample Before = sampleProc(D->pid());
    double Wall;
    {
      ThreadSampler TS(R, {D->pid()});
      double T0 = now();
      std::vector<std::thread> Threads;
      for (size_t T = 0; T < ClientThreads; ++T)
        Threads.emplace_back(Worker, T);
      for (std::thread &Th : Threads)
        Th.join();
      Wall = now() - T0;
    }
    ProcSample After = sampleProc(D->pid());
    R.DaemonCpu += After.CpuSeconds - Before.CpuSeconds;
    uint64_t Answered = R.Answered;
    R.PeakRssMb.push_back(After.VmHwmKb / 1024);
    R.RssKbPerConnection.push_back((After.VmRssKb - Before.VmRssKb) /
                                   double(std::max<uint64_t>(1, Conns)));
    // Fold the per-connection results through the shared checks: one
    // "pair result" per connection.
    for (size_t T = 0; T < ClientThreads; ++T)
      for (size_t I = 0; I < Picks[T].size(); ++I) {
        std::vector<PairResult> One(In.Pairs.size());
        One[Picks[T][I]] = std::move(Res[T][I]);
        takePairs(R, In, {Picks[T][I]}, One, true, "conn-churn");
      }
    R.round(Wall, Answered);
    Last = statsOrDie(*D);
    expectEqual(R, "conn-churn tuner invocations",
                statNumber(Last, "tuner.invocations"), 0);
    if (R.A.Trace && !Probed) {
      daemonProbes(R, *D);
      Probed = true;
    }
    stopOrDie(*D);
    D.reset();
  }
  layerCounts(R, Last);
}

/// fleet-fetch: daemon A and FleetPeers daemons B peer over loopback TCP;
/// every B is linked to A while A is empty. A compiles the zoo cold
/// (untimed); then each B in turn compiles the same through one
/// connection, so every miss on a B is a targeted peer fetch from A.
constexpr size_t FleetPeers = 8;

void runFleetFetch(Run &R, Inputs &In, SplitMix64 &Rng) {
  uint64_t WantInvocations = 0;
  bool First = true;
  double LoopStart = 0;
  Json LastA, LastB;
  bool Probed = false; ///< Traced runs probe the first round's daemon A.
  while (First || keepGoing(R, LoopStart)) {
    Daemon A;
    std::vector<std::unique_ptr<Daemon>> Bs;
    startOrDie(A, R.E, DaemonConfig{});
    DaemonConfig BC;
    BC.Peers.push_back(A.tcpEndpoint());
    for (size_t I = 0; I < FleetPeers; ++I) {
      Bs.push_back(std::make_unique<Daemon>());
      startOrDie(*Bs.back(), R.E, BC);
    }
    // Linked = every B dialed A and A served each B's first-contact bulk
    // sync (while A was still empty).
    double Deadline = now() + 30;
    auto Linked = [&] {
      for (auto &B : Bs)
        if (statNumber(statsOrDie(*B), "fabric.peers_connected") < 1)
          return false;
      return statNumber(statsOrDie(A), "fabric.fetches_served") >=
             double(FleetPeers);
    };
    while (!Linked()) {
      if (now() > Deadline)
        cannotComplete("the B daemons never linked to daemon A");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (First) {
      buildReferences(In, R.T, referenceThreads(R));
      R.SetupSeconds = now() - ProcessStart;
      WantInvocations = sequentialSession(R, In);
      LoopStart = now();
      First = false;
    }
    std::vector<size_t> Order = seededOrder(In.Pairs.size(), Rng);

    // A, cold and untimed.
    std::vector<PairResult> ResA;
    {
      std::vector<std::unique_ptr<CompileClient>> Cs;
      for (size_t I = 0; I < ClientThreads; ++I) {
        auto Cl = std::make_unique<CompileClient>();
        if (!Cl->connect(A.socket()) || !Cl->hello("perfbench-fleet-a"))
          cannotComplete("connect to daemon A failed");
        Cs.push_back(std::move(Cl));
      }
      bool Was = R.T.setOn(false);
      compilePairs(R, In, Cs, Order, ResA);
      R.T.setOn(Was);
    }
    LastA = statsOrDie(A);
    expectEqual(R, "fleet-fetch daemon A tuner invocations",
                statNumber(LastA, "tuner.invocations"), double(WantInvocations));

    double PeakKb = 0;
    for (auto &B : Bs) {
      Json B0 = statsOrDie(*B);
      std::vector<PairResult> ResB;
      ProcSample A0 = sampleProc(A.pid()), Bs0 = sampleProc(B->pid());
      double Wall;
      {
        auto Clients = openClients(R, B->socket(), 1);
        ThreadSampler TS(R, {A.pid(), B->pid()});
        Wall = compilePairs(R, In, Clients, Order, ResB);
        closeClients(R, Clients);
      }
      ProcSample A1 = sampleProc(A.pid()), Bs1 = sampleProc(B->pid());
      R.DaemonCpu += (A1.CpuSeconds - A0.CpuSeconds) +
                     (Bs1.CpuSeconds - Bs0.CpuSeconds);
      PeakKb = std::max({PeakKb, A1.VmHwmKb, Bs1.VmHwmKb});
      uint64_t Answered = R.Answered;
      takePairs(R, In, Order, ResB, false, "fleet-fetch");
      R.round(Wall, Answered);
      for (size_t P = 0; P < In.Pairs.size(); ++P)
        for (size_t I = 0; I < ResB[P].Reports.size() &&
                           I < ResA[P].Reports.size();
             ++I) {
          std::string Why;
          if (!sameReport(ResB[P].Reports[I], ResA[P].Reports[I], &Why))
            R.fail("(e) fleet-fetch: B's report differs from A's: " + Why);
        }
      LastB = statsOrDie(*B);
      expectEqual(R, "fleet-fetch daemon B tuner invocations",
                  statNumber(LastB, "tuner.invocations"), 0);
      double Hits = statNumber(LastB, "fabric.fetch_hits") -
                    statNumber(B0, "fabric.fetch_hits");
      expectEqual(R, "fleet-fetch B fetch hits", Hits,
                  double(In.Kernels.size()));
      R.FetchUs = Wall * 1e6 / std::max(1.0, Hits);
    }
    R.PeakRssMb.push_back(PeakKb / 1024);
    LastA = statsOrDie(A);
    if (R.A.Trace && !Probed) {
      daemonProbes(R, A);
      Probed = true;
    }
    for (auto &B : Bs)
      stopOrDie(*B);
    stopOrDie(A);
  }
  layerCounts(R, LastA);
  R.layer("fabric.fetch_hits", statNumber(LastB, "fabric.fetch_hits"), "count");
  R.layer("fabric.entries_served",
          statNumber(LastA, "fabric.entries_served"), "count");
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void printResult(const Run &R, bool Correct) {
  struct Metric {
    std::string Name, Unit;
    double Value;
  };
  std::vector<Metric> Ms;
  double Geo = R.ModeledCount ? std::exp(R.LogModeledSum / R.ModeledCount) : 0;
  std::vector<Metric> E2E = {
      {"setup_s", "s", R.SetupSeconds},
      {"kernels_per_s", "kernel/s", median(R.RoundRates)},
      {"model_p50_ms", "ms", quantile(R.ModelMs, 0.5)},
      {"model_p90_ms", "ms", quantile(R.ModelMs, 0.9)},
      {"daemon_cpu_us_per_kernel", "us", R.DaemonCpu * 1e6 / R.Answered},
      {"daemon_peak_rss_mb", "MB", median(R.PeakRssMb)},
      {"modeled_conv_us", "us", Geo},
  };
  if (!R.A.Trace) {
    Ms = E2E;
  } else {
    for (const auto &[Name, VU] : R.Layer)
      Ms.push_back({Name, VU.second, VU.first});
    // The traced run's end-to-end figures, for the tracing overhead.
    std::fprintf(stderr, "perfbench: traced end-to-end:");
    for (const Metric &M : E2E)
      std::fprintf(stderr, " %s=%.6g", M.Name.c_str(), M.Value);
    std::fprintf(stderr, "\n");
  }
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                  Ms[I].Unit.c_str());
    Out += Buf;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      cannotComplete("flag " + K + " needs a value");
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--bin-dir")
      A.BinDir = V;
    else
      cannotComplete("unknown flag " + K);
  }
  if (A.BinDir.empty())
    cannotComplete("--bin-dir is required");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  Run R;
  R.A = parseArgs(Argc, Argv);
  R.T.setOn(R.A.Trace);
  std::signal(SIGPIPE, SIG_IGN);

  void (*Workload)(Run &, Inputs &, SplitMix64 &) = nullptr;
  std::vector<std::string> Targets = builtinTargets();
  if (R.A.Workload == "cold-zoo")
    Workload = runColdZoo;
  else if (R.A.Workload == "warm-stream")
    Workload = runWarmStream;
  else if (R.A.Workload == "conn-churn") {
    Workload = runConnChurn;
    Targets = {"x86"};
  } else if (R.A.Workload == "fleet-fetch")
    Workload = runFleetFetch;
  else
    cannotComplete("unknown workload '" + R.A.Workload + "'");

  // Per-run files live under the checkout's build directory.
  R.E.BinDir = R.A.BinDir;
  R.E.WorkDir = "./.bench_build/runs/" + std::to_string(::getpid());
  ::mkdir("./.bench_build", 0755);
  ::mkdir("./.bench_build/runs", 0755);
  if (::mkdir(R.E.WorkDir.c_str(), 0755) != 0)
    cannotComplete("cannot create " + R.E.WorkDir);
  R.E.SecretFile = R.E.WorkDir + "/secret";
  R.E.Secret = "perfbench-" + std::to_string(R.A.Seed);
  if (std::FILE *F = std::fopen(R.E.SecretFile.c_str(), "w")) {
    std::fprintf(F, "%s\n", R.E.Secret.c_str());
    std::fclose(F);
  } else {
    cannotComplete("cannot write " + R.E.SecretFile);
  }

  SplitMix64 Rng(R.A.Seed);
  Inputs In = makeInputs(R.A.Seed, Targets);
  Workload(R, In, Rng);
  sampledChecks(R, In, Rng);
  selfTest(R, In);
  if (R.A.Trace) {
    layerProbes(R, In, Rng);
    finishLayerMetrics(R);
    std::string Path = "./.bench_build/spans-" + R.A.Workload + "-seed" +
                       std::to_string(R.A.Seed) + ".json",
                Err;
    if (!R.T.write(Path, &Err))
      cannotComplete(Err);
    std::fprintf(stderr, "perfbench: spans written to %s\n", Path.c_str());
  }
  bool Correct = R.Failures.empty();
  // Sockets, logs and cache files go; a failed run keeps them to look at.
  std::error_code Ec;
  if (Correct)
    std::filesystem::remove_all(R.E.WorkDir, Ec);
  printResult(R, Correct);
  return Correct ? 0 : 1;
}
