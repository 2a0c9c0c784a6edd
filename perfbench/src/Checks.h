//===- perfbench/src/Checks.h - Output checks against references ---------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// Every check compares what the compile service returned with a value
// computed apart from the path under test:
//   (a) sameReport    - an in-process TargetBackend::compileConv(L, nullptr),
//                       which bypasses session, cache, transfer seeding,
//                       server and fabric;
//   (b) cpuMinimum    - the benchmark scores every CPU tuning candidate
//                       itself and takes the minimum;
//   (c) numerics      - the winning schedule, lowered and interpreted on a
//                       reduced-size layer, against a nested-loop int32
//                       convolution written here;
//   (d) peakBound     - no kernel faster than the target's peak MAC rate;
//   (e) totals        - counts reached by independent paths (main.cpp).
// Each check takes a corruption switch so the self-test can prove the
// check fails on bad input.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "graph/Graph.h"
#include "runtime/KernelCache.h"
#include "target/TargetRegistry.h"

#include <cstdint>
#include <string>

namespace pb {

/// (a) Equal in Seconds (exactly), BestCandidateIndex, Tensorized and
/// IntrinsicName.
bool sameReport(const unit::KernelReport &Got, const unit::KernelReport &Ref,
                std::string *Why);

/// (b) For a tensorized CPU kernel: \p Got.Seconds equals the minimum
/// modeled latency over every defaultCpuTuningPairs() candidate, each
/// scored here (buildCpuPlan -> analyzeTensorized -> cpuLatencySeconds).
/// Returns true without checking for targets or kernels it does not
/// apply to; \p Applied says whether it did.
bool cpuMinimum(const unit::TargetBackend &B, const unit::ConvLayer &L,
                const unit::KernelReport &Got, bool &Applied,
                std::string *Why);

/// (c) Builds a reduced-size copy of \p L, schedules it with the tuning
/// pair \p Got won with, lowers it, runs it in Interp on seeded
/// int8/uint8 data, and compares every output bit-exactly with a
/// nested-loop int32 convolution. \p CorruptOutput flips one interpreted
/// output element first (self-test).
bool numerics(const unit::TargetBackend &B, const unit::ConvLayer &L,
              const unit::KernelReport &Got, uint64_t Seed,
              bool CorruptOutput, bool &Applied, std::string *Why);

/// The target's peak MAC rate per second: FreqGHz x Cores x
/// issue_per_cycle x macs_per_instr over its instructions (and the SIMD
/// or CUDA-core rate, whichever is higher).
double peakMacsPerSecond(const std::string &TargetId);

/// (d) \p Got.Seconds >= L.macs() / \p PeakMacs (peakMacsPerSecond).
bool peakBound(double PeakMacs, const unit::ConvLayer &L,
               const unit::KernelReport &Got, std::string *Why);

} // namespace pb

#endif // PERFBENCH_CHECKS_H
