//===- analysis/Rewards.h - Reward signal providers -------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three optimization targets of the LLVM environment (§V-A):
///   * code size      — IR instruction count (deterministic, platform-free);
///   * binary size    — .text bytes from the lowering model (deterministic,
///                      platform-dependent via TargetDescriptor);
///   * runtime        — interpreter cycle model plus multiplicative
///                      measurement noise (platform-dependent and
///                      nondeterministic, like wall time).
/// Rewards are deltas of these metrics between consecutive states,
/// optionally scaled against the compiler's default pipelines (-Oz for
/// size, -O3 for runtime), exactly as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_ANALYSIS_REWARDS_H
#define COMPILER_GYM_ANALYSIS_REWARDS_H

#include "ir/Interpreter.h"
#include "ir/Lowering.h"
#include "ir/Module.h"
#include "util/Rng.h"
#include "util/Status.h"

namespace compiler_gym {
namespace analysis {

/// IR instruction count ("IrInstructionCount").
int64_t codeSize(const ir::Module &M);

/// .text size in bytes ("ObjectTextSizeBytes").
int64_t binarySize(const ir::Module &M,
                   const ir::TargetDescriptor &Target = {});

/// Options for runtime measurement.
struct RuntimeOptions {
  ir::InterpreterOptions Interp;
  double NoiseStddev = 0.02; ///< Multiplicative gaussian noise (~2%, like
                             ///< real wall-time measurements).
  int Repetitions = 1;       ///< Median-of-N, as the paper's protocol.
};

/// Simulated wall seconds for running \p M's entry point. Noise is drawn
/// from \p Gen; a trapped execution yields a large penalty time so agents
/// and autotuners steer away from broken binaries.
StatusOr<double> measureRuntime(const ir::Module &M, Rng &Gen,
                                const RuntimeOptions &Opts = {});

/// Result of a semantics validation run (differential testing, §III-B4).
struct ValidationResult {
  bool Ok = false;
  /// Neither passed nor failed: the reference ran out of interpreter fuel
  /// while the optimized program completed, so there is no reference
  /// output to compare against. Ok is false.
  bool Undecided = false;
  std::string Error; ///< Populated on mismatch/trap divergence.
};

/// Differential test: runs \p Reference and \p Optimized on the same inputs
/// and compares observable behaviour (return value + global memory).
ValidationResult validateSemantics(const ir::Module &Reference,
                                   const ir::Module &Optimized,
                                   const ir::InterpreterOptions &Opts = {});

} // namespace analysis
} // namespace compiler_gym

#endif // COMPILER_GYM_ANALYSIS_REWARDS_H
