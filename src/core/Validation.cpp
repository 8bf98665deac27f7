//===- core/Validation.cpp ------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Validation.h"

#include "analysis/Rewards.h"
#include "datasets/DatasetRegistry.h"
#include "ir/Parser.h"

#include <cmath>

using namespace compiler_gym;
using namespace compiler_gym::core;

namespace {

struct ReplayOutcome {
  double CumulativeReward = 0.0;
  std::string FinalIrHash; ///< Empty for non-IR environments.
  std::string FinalIr;
};

StatusOr<ReplayOutcome> replay(const EnvState &State) {
  MakeOptions Opts;
  Opts.Benchmark = State.BenchmarkUri;
  Opts.ObservationSpace = "none";
  Opts.RewardSpace =
      State.RewardSpace.empty() ? "none" : State.RewardSpace;
  CG_ASSIGN_OR_RETURN(std::unique_ptr<CompilerEnv> Env,
                      make(State.EnvId, Opts));
  CG_ASSIGN_OR_RETURN(service::Observation Init, Env->reset());
  (void)Init;
  ReplayOutcome Out;
  for (int A : State.Actions) {
    CG_ASSIGN_OR_RETURN(StepResult R, Env->step(A));
    Out.CumulativeReward += R.Reward;
    if (R.Done)
      break;
  }
  // IR-based envs expose a state hash; others have no hashable state. One
  // prefetch RPC covers both spaces.
  if (Env->observation().prefetch({"IrHash", "Ir"}).isOk()) {
    CG_ASSIGN_OR_RETURN(ObservationValue Hash,
                        Env->observation().get("IrHash"));
    CG_ASSIGN_OR_RETURN(Out.FinalIrHash, Hash.asString());
    CG_ASSIGN_OR_RETURN(ObservationValue Ir, Env->observation().get("Ir"));
    CG_ASSIGN_OR_RETURN(Out.FinalIr, Ir.asString());
  }
  return Out;
}

} // namespace

StatusOr<StateValidationResult>
core::validateState(const EnvState &State, double RewardTolerance) {
  StateValidationResult Result;

  CG_ASSIGN_OR_RETURN(ReplayOutcome First, replay(State));
  CG_ASSIGN_OR_RETURN(ReplayOutcome Second, replay(State));

  // Reward reproducibility vs the recorded value (nondeterministic reward
  // spaces like Runtime cannot be validated exactly; use the two replays'
  // agreement to set the bar).
  double ReplayGap =
      std::abs(First.CumulativeReward - Second.CumulativeReward);
  double RecordGap = std::abs(First.CumulativeReward - State.CumulativeReward);
  Result.RewardValidated =
      RecordGap <= std::max(RewardTolerance, ReplayGap * 4 + RewardTolerance);
  if (!Result.RewardValidated)
    Result.Error += "cumulative reward mismatch: recorded " +
                    std::to_string(State.CumulativeReward) + ", replayed " +
                    std::to_string(First.CumulativeReward) + "; ";

  // State-hash reproducibility across independent replays: this is what
  // catches nondeterministic passes.
  Result.HashValidated = First.FinalIrHash == Second.FinalIrHash;
  if (!Result.HashValidated)
    Result.Error += "nondeterminism: two replays produced different final "
                    "states (" + First.FinalIrHash + " vs " +
                    Second.FinalIrHash + "); ";

  // Semantics validation (differential testing) for IR environments.
  if (!First.FinalIr.empty()) {
    Result.SemanticsChecked = true;
    StatusOr<datasets::Benchmark> Bench =
        datasets::DatasetRegistry::instance().resolve(State.BenchmarkUri);
    if (Bench.isOk() && !Bench->IrText.empty()) {
      StatusOr<std::unique_ptr<ir::Module>> Ref =
          ir::parseModule(Bench->IrText);
      StatusOr<std::unique_ptr<ir::Module>> Opt =
          ir::parseModule(First.FinalIr);
      if (Ref.isOk() && Opt.isOk()) {
        ir::InterpreterOptions IOpts;
        IOpts.Args = Bench->Inputs;
        analysis::ValidationResult Diff =
            analysis::validateSemantics(**Ref, **Opt, IOpts);
        // An undecided comparison (the reference never finished) is
        // reported as not checked rather than as a divergence.
        Result.SemanticsChecked = !Diff.Undecided;
        Result.SemanticsValidated = Diff.Ok;
        if (!Diff.Ok && !Diff.Undecided)
          Result.Error += "semantics: " + Diff.Error + "; ";
      } else {
        Result.Error += "semantics: could not parse IR for differential "
                        "testing; ";
      }
    } else {
      Result.SemanticsChecked = false;
    }
  }
  return Result;
}
