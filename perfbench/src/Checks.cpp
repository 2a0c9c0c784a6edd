//===- perfbench/src/Checks.cpp - Output checks against references -------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "core/Inspector.h"
#include "core/Pipeline.h"
#include "graph/Layout.h"
#include "interp/Interp.h"
#include "perf/CostModel.h"
#include "support/Random.h"
#include "tuner/Tuner.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace unit;

namespace pb {

namespace {

void setWhy(std::string *Why, const std::string &Msg) {
  if (Why)
    *Why = Msg;
}

std::string describe(const KernelReport &R) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "{seconds %.17g, index %d, %s, '%s'}",
                R.Seconds, R.BestCandidateIndex,
                R.Tensorized ? "tensorized" : "fallback",
                R.IntrinsicName.c_str());
  return Buf;
}

std::optional<MatchResult> firstMatch(const TargetBackend &B,
                                      const ComputeOpRef &Op) {
  for (const TensorIntrinsicRef &Intr : B.intrinsics())
    if (std::optional<MatchResult> M = inspect(Op, Intr))
      return M;
  return std::nullopt;
}

LaidOutOp laidOut(const TargetBackend &B, const ConvLayer &L) {
  const QuantScheme &S = B.scheme();
  return buildDirectConvOp(L, S.Activation, S.Weight, S.Accumulator,
                           S.LaneMultiple, S.ReduceMultiple);
}

/// A copy of \p L with at most one instruction tile (plus a ragged edge)
/// of channels and a 3x3 output image; kernel size, stride and padding
/// are kept, so the schedule exercises the same loop structure.
ConvLayer reduced(const ConvLayer &L, const QuantScheme &S) {
  ConvLayer R = L;
  R.Name = L.Name + ".reduced";
  R.InC = std::min<int64_t>(L.InC, S.ReduceMultiple + 3);
  R.OutC = std::min<int64_t>(L.OutC, S.LaneMultiple + 3);
  R.InH = std::max<int64_t>(1, 2 * L.Stride + L.KH - 2 * L.PadH);
  R.InW = std::max<int64_t>(1, 2 * L.Stride + L.KW - 2 * L.PadW);
  return R;
}

int64_t drawInt(SplitMix64 &Rng, DataType DT) {
  return DT.isUInt() ? Rng.uniform(0, 255) : Rng.uniform(-128, 127);
}

} // namespace

bool sameReport(const KernelReport &Got, const KernelReport &Ref,
                std::string *Why) {
  if (Got.Seconds == Ref.Seconds &&
      Got.BestCandidateIndex == Ref.BestCandidateIndex &&
      Got.Tensorized == Ref.Tensorized &&
      Got.IntrinsicName == Ref.IntrinsicName)
    return true;
  setWhy(Why, "report " + describe(Got) + " != reference " + describe(Ref));
  return false;
}

bool cpuMinimum(const TargetBackend &B, const ConvLayer &L,
                const KernelReport &Got, bool &Applied, std::string *Why) {
  Applied = false;
  const auto *Cpu = dynamic_cast<const CpuBackend *>(&B);
  if (!Cpu || L.Depthwise || !Got.Tensorized)
    return true;
  LaidOutOp Laid = laidOut(B, L);
  std::optional<MatchResult> Match = firstMatch(B, Laid.Op);
  if (!Match) {
    setWhy(Why, "tensorized report for a layer no instruction matches");
    return false;
  }
  Applied = true;
  double Best = 1e300;
  for (const CpuTuningPair &Pair : defaultCpuTuningPairs()) {
    TensorizePlan Plan = buildCpuPlan(Laid.Op, *Match, Pair);
    Best = std::min(Best, cpuLatencySeconds(analyzeTensorized(Plan),
                                            Cpu->machine()));
  }
  if (Got.Seconds == Best)
    return true;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "reported %.17g s, minimum over the candidates %.17g s",
                Got.Seconds, Best);
  setWhy(Why, Buf);
  return false;
}

bool numerics(const TargetBackend &B, const ConvLayer &L,
              const KernelReport &Got, uint64_t Seed, bool CorruptOutput,
              bool &Applied, std::string *Why) {
  Applied = false;
  if (!dynamic_cast<const CpuBackend *>(&B) || L.Depthwise ||
      !Got.Tensorized)
    return true;
  std::vector<CpuTuningPair> Pairs = defaultCpuTuningPairs();
  if (Got.BestCandidateIndex < 0 ||
      static_cast<size_t>(Got.BestCandidateIndex) >= Pairs.size()) {
    setWhy(Why, "winning candidate index out of the tuning space");
    return false;
  }
  const QuantScheme &S = B.scheme();
  ConvLayer R = reduced(L, S);
  LaidOutOp Laid = laidOut(B, R);
  std::optional<MatchResult> Match = firstMatch(B, Laid.Op);
  if (!Match) {
    setWhy(Why, "no instruction matches the reduced layer");
    return false;
  }
  Applied = true;
  TensorizePlan Plan = buildCpuPlan(
      Laid.Op, *Match, Pairs[static_cast<size_t>(Got.BestCandidateIndex)]);
  StmtRef TIR = lowerPlan(Plan);

  // Logical NCHW activations and KCRS weights.
  int64_t OH = R.outH(), OW = R.outW();
  SplitMix64 Rng(Seed);
  std::vector<int64_t> Act(static_cast<size_t>(R.InC * R.InH * R.InW));
  std::vector<int64_t> Wt(static_cast<size_t>(R.OutC * R.InC * R.KH * R.KW));
  for (int64_t &V : Act)
    V = drawInt(Rng, S.Activation);
  for (int64_t &V : Wt)
    V = drawInt(Rng, S.Weight);
  auto ActAt = [&](int64_t C, int64_t H, int64_t W) -> int64_t {
    if (C >= R.InC || H < 0 || H >= R.InH || W < 0 || W >= R.InW)
      return 0;
    return Act[static_cast<size_t>((C * R.InH + H) * R.InW + W)];
  };
  auto WtAt = [&](int64_t K, int64_t C, int64_t Y, int64_t X) -> int64_t {
    if (K >= R.OutC || C >= R.InC)
      return 0;
    return Wt[static_cast<size_t>(((K * R.InC + C) * R.KH + Y) * R.KW + X)];
  };

  // Pack into the blocked layouts of graph/Layout.h: a[h][w][co][ci]
  // with spatial padding materialized, b[r][s][ko][co][ki][ci].
  const ComputeOp &Op = *Laid.Op;
  TensorRef A, Bt;
  for (const TensorRef &T : Op.inputs())
    (T->name() == "a" ? A : Bt) = T;
  if (!A || !Bt) {
    setWhy(Why, "unexpected operand tensors in the laid-out conv");
    return false;
  }
  int64_t RM = S.ReduceMultiple, LM = S.LaneMultiple;
  Buffer ABuf(A), BBuf(Bt), CBuf(Op.output());
  const std::vector<int64_t> &AS = A->shape(), &BS = Bt->shape();
  for (int64_t H = 0; H < AS[0]; ++H)
    for (int64_t W = 0; W < AS[1]; ++W)
      for (int64_t Co = 0; Co < AS[2]; ++Co)
        for (int64_t Ci = 0; Ci < AS[3]; ++Ci)
          ABuf.setInt(((H * AS[1] + W) * AS[2] + Co) * AS[3] + Ci,
                      ActAt(Co * RM + Ci, H - R.PadH, W - R.PadW));
  for (int64_t Y = 0; Y < BS[0]; ++Y)
    for (int64_t X = 0; X < BS[1]; ++X)
      for (int64_t Ko = 0; Ko < BS[2]; ++Ko)
        for (int64_t Co = 0; Co < BS[3]; ++Co)
          for (int64_t Ki = 0; Ki < BS[4]; ++Ki)
            for (int64_t Ci = 0; Ci < BS[5]; ++Ci)
              BBuf.setInt(
                  ((((Y * BS[1] + X) * BS[2] + Ko) * BS[3] + Co) * BS[4] +
                   Ki) * BS[5] + Ci,
                  WtAt(Ko * LM + Ki, Co * RM + Ci, Y, X));
  Interp In;
  In.bind(A, &ABuf);
  In.bind(Bt, &BBuf);
  In.bind(Op.output(), &CBuf);
  In.run(TIR);
  if (CorruptOutput)
    CBuf.setInt(0, CBuf.getInt(0) + 1);

  // The reference: a plain nested-loop convolution in int32.
  for (int64_t K = 0; K < R.OutC; ++K)
    for (int64_t Y = 0; Y < OH; ++Y)
      for (int64_t X = 0; X < OW; ++X) {
        int32_t Acc = 0;
        for (int64_t C = 0; C < R.InC; ++C)
          for (int64_t Ky = 0; Ky < R.KH; ++Ky)
            for (int64_t Kx = 0; Kx < R.KW; ++Kx)
              Acc += static_cast<int32_t>(
                  ActAt(C, Y * R.Stride + Ky - R.PadH,
                        X * R.Stride + Kx - R.PadW) *
                  WtAt(K, C, Ky, Kx));
        int64_t Got32 =
            CBuf.getInt(((K / LM * OH + Y) * OW + X) * LM + K % LM);
        if (Got32 != Acc) {
          char Buf[200];
          std::snprintf(Buf, sizeof(Buf),
                        "interpreted kernel gives %lld at (k %lld, y %lld, "
                        "x %lld), reference convolution %d",
                        static_cast<long long>(Got32),
                        static_cast<long long>(K), static_cast<long long>(Y),
                        static_cast<long long>(X), Acc);
          setWhy(Why, Buf);
          return false;
        }
      }
  return true;
}

double peakMacsPerSecond(const std::string &TargetId) {
  TargetSpec Spec = TargetRegistry::instance().specFor(TargetId);
  double Best = 0;
  if (Spec.Engine == TargetSpec::EngineKind::CpuDot) {
    const CpuMachine &M = Spec.Cpu;
    for (const TensorIntrinsicRef &I : Spec.Intrinsics)
      Best = std::max(Best, I->cost().IssuePerCycle * I->cost().MacsPerInstr);
    Best = std::max(Best, M.SimdPipes * M.SimdVectorBytes);
    return M.FreqGHz * 1e9 * M.Cores * Best;
  }
  const GpuMachine &M = Spec.Gpu;
  for (const TensorIntrinsicRef &I : Spec.Intrinsics)
    Best = std::max(Best, std::max(I->cost().IssuePerCycle,
                                   M.WmmaPerCyclePerSM) *
                              I->cost().MacsPerInstr);
  Best = std::max(Best, M.FmaPerCyclePerSM);
  return M.FreqGHz * 1e9 * M.SMs * Best;
}

bool peakBound(double PeakMacs, const ConvLayer &L, const KernelReport &Got,
               std::string *Why) {
  double Floor = L.macs() / PeakMacs;
  if (Got.Seconds >= Floor)
    return true;
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "%s: %.6g s beats the peak-rate floor %.6g s",
                L.Name.c_str(), Got.Seconds, Floor);
  setWhy(Why, Buf);
  return false;
}

} // namespace pb
