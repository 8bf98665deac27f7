//===- analysis/Rewards.cpp -----------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Rewards.h"

#include <algorithm>

using namespace compiler_gym;
using namespace compiler_gym::analysis;
using namespace compiler_gym::ir;

int64_t analysis::codeSize(const Module &M) {
  return static_cast<int64_t>(M.instructionCount());
}

int64_t analysis::binarySize(const Module &M, const TargetDescriptor &Target) {
  return static_cast<int64_t>(
      lowerModule(M, Target, /*EmitText=*/false).TextSizeBytes);
}

StatusOr<double> analysis::measureRuntime(const Module &M, Rng &Gen,
                                          const RuntimeOptions &Opts) {
  std::vector<double> Samples;
  Samples.reserve(static_cast<size_t>(std::max(1, Opts.Repetitions)));
  for (int Rep = 0; Rep < std::max(1, Opts.Repetitions); ++Rep) {
    CG_ASSIGN_OR_RETURN(ExecutionResult R, interpret(M, Opts.Interp));
    double Seconds = R.simulatedSeconds();
    if (!R.Completed) {
      // A trapped/diverging binary: heavily penalized, still measurable.
      Seconds = static_cast<double>(Opts.Interp.MaxInstructions) / 2.5e9 * 10;
    }
    double Noise = 1.0 + Gen.gaussian(0.0, Opts.NoiseStddev);
    Samples.push_back(Seconds * std::max(0.5, Noise));
  }
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

ValidationResult
analysis::validateSemantics(const Module &Reference, const Module &Optimized,
                            const InterpreterOptions &Opts) {
  ValidationResult Out;
  StatusOr<ExecutionResult> Ref = interpret(Reference, Opts);
  StatusOr<ExecutionResult> Opt = interpret(Optimized, Opts);
  if (!Ref.isOk() || !Opt.isOk()) {
    Out.Error = "execution setup failed: " +
                (Ref.isOk() ? Opt.status() : Ref.status()).toString();
    return Out;
  }
  if (Ref->FuelExhausted && Opt->Completed) {
    Out.Undecided = true;
    Out.Error = "undecided: reference exhausted interpreter fuel";
    return Out;
  }
  if (Ref->Completed != Opt->Completed) {
    Out.Error = std::string("completion divergence: reference ") +
                (Ref->Completed ? "completed" : ("trapped: " +
                                                 Ref->TrapReason)) +
                ", optimized " +
                (Opt->Completed ? "completed" : ("trapped: " +
                                                 Opt->TrapReason));
    return Out;
  }
  if (Ref->Completed && Ref->OutputHash != Opt->OutputHash) {
    Out.Error = "output divergence: observable state hashes differ";
    return Out;
  }
  Out.Ok = true;
  return Out;
}
