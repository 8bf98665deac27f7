//===- ir/Interpreter.h - Reference executor --------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic reference interpreter for the mini-IR. It provides:
///  * the *runtime* reward signal (executed-cycle cost model; the
///    environment layers measurement noise on top, mirroring the paper's
///    nondeterministic wall-time rewards);
///  * *semantics validation* via differential testing (§III-B4): observable
///    behaviour is the return value plus final global memory, which legal
///    optimizations must preserve;
///  * trap detection (division by zero, out-of-bounds, fuel exhaustion),
///    standing in for the sanitizers the paper integrates.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_IR_INTERPRETER_H
#define COMPILER_GYM_IR_INTERPRETER_H

#include "ir/Module.h"
#include "util/Status.h"

#include <array>
#include <cstdint>
#include <vector>

namespace compiler_gym {
namespace ir {

/// Interpreter limits and program inputs.
struct InterpreterOptions {
  uint64_t MaxInstructions = 2'000'000; ///< Fuel; trap when exhausted.
  uint32_t MemoryWords = 1u << 18;      ///< Flat word-addressed memory.
  uint32_t MaxCallDepth = 200;
  std::vector<int64_t> Args;            ///< Integer arguments for the entry.
};

/// Outcome of one execution.
struct ExecutionResult {
  bool Completed = false;     ///< False on trap / fuel exhaustion.
  std::string TrapReason;     ///< Set when !Completed.
  bool FuelExhausted = false; ///< Trapped because MaxInstructions ran out.
  int64_t ReturnInt = 0;      ///< Integer-typed return value (bits).
  double ReturnFloat = 0.0;   ///< f64-typed return value.
  uint64_t InstructionsExecuted = 0;
  std::array<uint64_t, NumOpcodes> OpcodeCounts{}; ///< Dynamic mix.
  uint64_t SimulatedCycles = 0; ///< Per-opcode cost model total.
  uint64_t OutputHash = 0;    ///< Hash of (return bits, global memory).

  /// Simulated wall seconds at the model's clock rate.
  double simulatedSeconds() const {
    return static_cast<double>(SimulatedCycles) / 2.5e9;
  }
};

/// Cost in cycles charged for executing \p Op once.
uint32_t opcodeCycleCost(Opcode Op);

/// Executes \p Entry ("main" by default) of \p M. Returns NotFound if the
/// entry function does not exist; execution traps are reported in-band via
/// ExecutionResult (a trapped run is still a successful *measurement*).
StatusOr<ExecutionResult> interpret(const Module &M,
                                    const InterpreterOptions &Opts = {},
                                    const std::string &Entry = "main");

} // namespace ir
} // namespace compiler_gym

#endif // COMPILER_GYM_IR_INTERPRETER_H
