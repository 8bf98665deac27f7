//===- ir/Interpreter.cpp -------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"

#include "util/Hash.h"

#include <bit>
#include <cmath>
#include <unordered_map>

using namespace compiler_gym;
using namespace compiler_gym::ir;

uint32_t ir::opcodeCycleCost(Opcode Op) {
  switch (Op) {
  case Opcode::Mul:
    return 3;
  case Opcode::SDiv:
  case Opcode::SRem:
    return 20;
  case Opcode::FAdd:
  case Opcode::FSub:
    return 3;
  case Opcode::FMul:
    return 5;
  case Opcode::FDiv:
    return 15;
  case Opcode::Load:
  case Opcode::Store:
    return 4;
  case Opcode::CondBr:
    return 2;
  case Opcode::Call:
    return 10;
  case Opcode::Ret:
    return 2;
  case Opcode::Phi:
    return 0;
  default:
    return 1;
  }
}

namespace {

/// A runtime value: integer/pointer payload or double. Pointers are word
/// addresses stored in I.
struct RtValue {
  int64_t I = 0;
  double F = 0.0;
};

class Machine {
public:
  Machine(const Module &M, const InterpreterOptions &Opts)
      : M(M), Opts(Opts), Memory(Opts.MemoryWords, 0) {
    // Globals occupy [1, GlobalEnd); address 0 is reserved as null.
    uint32_t Addr = 1;
    for (const auto &G : M.globals()) {
      GlobalBase[G.get()] = Addr;
      Addr += G->sizeWords();
    }
    GlobalEnd = Addr;
    StackPointer = GlobalEnd;
  }

  ExecutionResult run(const Function &Entry);

private:
  struct Frame {
    const Function *F;
    const BasicBlock *Block = nullptr;
    const BasicBlock *PrevBlock = nullptr; ///< For phi resolution.
    size_t Pc = 0;
    uint32_t SavedStackPointer = 0;
    const Instruction *CallSite = nullptr; ///< Call that created this frame.
    std::unordered_map<const Value *, RtValue> Regs;
  };

  bool trap(const std::string &Reason) {
    Result.Completed = false;
    Result.TrapReason = Reason;
    Trapped = true;
    return false;
  }

  RtValue eval(const Frame &Fr, const Value *V) {
    if (const auto *C = dyn_cast<Constant>(V)) {
      RtValue Out;
      if (C->type() == Type::F64)
        Out.F = C->floatValue();
      else
        Out.I = C->intValue();
      return Out;
    }
    if (const auto *G = dyn_cast<GlobalVariable>(V)) {
      RtValue Out;
      Out.I = GlobalBase.at(G);
      return Out;
    }
    auto It = Fr.Regs.find(V);
    if (It != Fr.Regs.end())
      return It->second;
    return RtValue{}; // Unreachable-path phi input; zero is safe.
  }

  bool load(int64_t Addr, int64_t &Out) {
    if (Addr <= 0 || Addr >= static_cast<int64_t>(Memory.size()))
      return trap("load out of bounds at address " + std::to_string(Addr));
    Out = Memory[static_cast<size_t>(Addr)];
    return true;
  }

  bool store(int64_t Addr, int64_t Bits) {
    if (Addr <= 0 || Addr >= static_cast<int64_t>(Memory.size()))
      return trap("store out of bounds at address " + std::to_string(Addr));
    Memory[static_cast<size_t>(Addr)] = Bits;
    return true;
  }

  /// Executes one instruction of the top frame. Returns false when the
  /// machine stops (final return or trap).
  bool step();

  const Module &M;
  const InterpreterOptions &Opts;
  std::vector<int64_t> Memory;
  std::unordered_map<const GlobalVariable *, uint32_t> GlobalBase;
  uint32_t GlobalEnd = 1;
  uint32_t StackPointer = 1;
  std::vector<Frame> Stack;
  std::unordered_map<const Value *, const Function *> CalleeMemo;
  ExecutionResult Result;
  bool Trapped = false;
};

int64_t truncToWidth(Type Ty, int64_t V) {
  switch (Ty) {
  case Type::I1:
    return V & 1;
  case Type::I32:
    return static_cast<int32_t>(V);
  default:
    return V;
  }
}

bool Machine::step() {
  Frame &Fr = Stack.back();
  if (Fr.Pc >= Fr.Block->size())
    return trap("fell off end of block '" + Fr.Block->name() + "'");
  const Instruction &I = *Fr.Block->instructions()[Fr.Pc];

  ++Result.InstructionsExecuted;
  ++Result.OpcodeCounts[static_cast<int>(I.opcode())];
  Result.SimulatedCycles += opcodeCycleCost(I.opcode());
  if (Result.InstructionsExecuted > Opts.MaxInstructions) {
    Result.FuelExhausted = true;
    return trap("fuel exhausted");
  }

  auto setReg = [&](RtValue V) {
    if (isIntegerType(I.type()))
      V.I = truncToWidth(I.type(), V.I);
    Fr.Regs[&I] = V;
  };

  switch (I.opcode()) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::SDiv:
  case Opcode::SRem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr: {
    int64_t L = eval(Fr, I.operand(0)).I;
    int64_t R = eval(Fr, I.operand(1)).I;
    int64_t Out = 0;
    switch (I.opcode()) {
    case Opcode::Add:
      Out = static_cast<int64_t>(static_cast<uint64_t>(L) +
                                 static_cast<uint64_t>(R));
      break;
    case Opcode::Sub:
      Out = static_cast<int64_t>(static_cast<uint64_t>(L) -
                                 static_cast<uint64_t>(R));
      break;
    case Opcode::Mul:
      Out = static_cast<int64_t>(static_cast<uint64_t>(L) *
                                 static_cast<uint64_t>(R));
      break;
    case Opcode::SDiv:
      if (R == 0)
        return trap("division by zero");
      if (L == INT64_MIN && R == -1)
        return trap("signed division overflow");
      Out = L / R;
      break;
    case Opcode::SRem:
      if (R == 0)
        return trap("remainder by zero");
      if (L == INT64_MIN && R == -1)
        return trap("signed remainder overflow");
      Out = L % R;
      break;
    case Opcode::And:
      Out = L & R;
      break;
    case Opcode::Or:
      Out = L | R;
      break;
    case Opcode::Xor:
      Out = L ^ R;
      break;
    case Opcode::Shl:
      Out = static_cast<int64_t>(static_cast<uint64_t>(L)
                                 << (static_cast<uint64_t>(R) & 63));
      break;
    case Opcode::LShr:
      Out = static_cast<int64_t>(static_cast<uint64_t>(L) >>
                                 (static_cast<uint64_t>(R) & 63));
      break;
    case Opcode::AShr:
      Out = L >> (static_cast<uint64_t>(R) & 63);
      break;
    default:
      break;
    }
    setReg({Out, 0.0});
    break;
  }
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv: {
    double L = eval(Fr, I.operand(0)).F;
    double R = eval(Fr, I.operand(1)).F;
    double Out = 0.0;
    switch (I.opcode()) {
    case Opcode::FAdd:
      Out = L + R;
      break;
    case Opcode::FSub:
      Out = L - R;
      break;
    case Opcode::FMul:
      Out = L * R;
      break;
    case Opcode::FDiv:
      Out = R == 0.0 ? 0.0 : L / R; // Well-defined: no FP traps.
      break;
    default:
      break;
    }
    setReg({0, Out});
    break;
  }
  case Opcode::ICmp: {
    int64_t L = eval(Fr, I.operand(0)).I;
    int64_t R = eval(Fr, I.operand(1)).I;
    bool Out = false;
    switch (I.pred()) {
    case Pred::EQ:
      Out = L == R;
      break;
    case Pred::NE:
      Out = L != R;
      break;
    case Pred::LT:
      Out = L < R;
      break;
    case Pred::LE:
      Out = L <= R;
      break;
    case Pred::GT:
      Out = L > R;
      break;
    case Pred::GE:
      Out = L >= R;
      break;
    }
    setReg({Out ? 1 : 0, 0.0});
    break;
  }
  case Opcode::FCmp: {
    double L = eval(Fr, I.operand(0)).F;
    double R = eval(Fr, I.operand(1)).F;
    bool Out = false;
    switch (I.pred()) {
    case Pred::EQ:
      Out = L == R;
      break;
    case Pred::NE:
      Out = L != R;
      break;
    case Pred::LT:
      Out = L < R;
      break;
    case Pred::LE:
      Out = L <= R;
      break;
    case Pred::GT:
      Out = L > R;
      break;
    case Pred::GE:
      Out = L >= R;
      break;
    }
    setReg({Out ? 1 : 0, 0.0});
    break;
  }
  case Opcode::Alloca: {
    if (StackPointer + I.allocaWords() >= Memory.size())
      return trap("stack overflow");
    setReg({static_cast<int64_t>(StackPointer), 0.0});
    StackPointer += I.allocaWords();
    break;
  }
  case Opcode::Load: {
    int64_t Bits;
    if (!load(eval(Fr, I.operand(0)).I, Bits))
      return false;
    RtValue V;
    if (I.type() == Type::F64)
      V.F = std::bit_cast<double>(Bits);
    else
      V.I = Bits;
    setReg(V);
    break;
  }
  case Opcode::Store: {
    RtValue V = eval(Fr, I.operand(0));
    int64_t Bits =
        I.operand(0)->type() == Type::F64 ? std::bit_cast<int64_t>(V.F) : V.I;
    if (!store(eval(Fr, I.operand(1)).I, Bits))
      return false;
    break;
  }
  case Opcode::Gep: {
    int64_t Base = eval(Fr, I.operand(0)).I;
    int64_t Index = eval(Fr, I.operand(1)).I;
    setReg({Base + Index, 0.0});
    break;
  }
  case Opcode::Br:
  case Opcode::CondBr: {
    const BasicBlock *Dest;
    if (I.opcode() == Opcode::Br) {
      Dest = cast<BasicBlock>(I.operand(0));
    } else {
      bool Cond = eval(Fr, I.operand(0)).I != 0;
      Dest = cast<BasicBlock>(I.operand(Cond ? 1 : 2));
    }
    // Two-phase phi resolution: read all incoming values before writing.
    std::vector<std::pair<const Value *, RtValue>> PhiWrites;
    for (const auto &Phi : Dest->instructions()) {
      if (Phi->opcode() != Opcode::Phi)
        break;
      for (unsigned K = 0; K < Phi->numIncoming(); ++K) {
        if (Phi->incomingBlock(K) == Fr.Block) {
          RtValue V = eval(Fr, Phi->incomingValue(K));
          if (isIntegerType(Phi->type()))
            V.I = truncToWidth(Phi->type(), V.I);
          PhiWrites.emplace_back(Phi.get(), V);
          break;
        }
      }
    }
    for (auto &[PhiVal, V] : PhiWrites)
      Fr.Regs[PhiVal] = V;
    Fr.PrevBlock = Fr.Block;
    Fr.Block = Dest;
    Fr.Pc = Dest->firstNonPhi();
    // Account for the skipped phis.
    return !Trapped;
  }
  case Opcode::Ret: {
    RtValue RetV;
    bool IsFloat = false;
    if (I.numOperands() == 1) {
      RetV = eval(Fr, I.operand(0));
      IsFloat = I.operand(0)->type() == Type::F64;
    }
    StackPointer = Fr.SavedStackPointer;
    const Instruction *CallSite = Fr.CallSite;
    Stack.pop_back();
    if (Stack.empty()) {
      Result.Completed = true;
      if (IsFloat)
        Result.ReturnFloat = RetV.F;
      else
        Result.ReturnInt = RetV.I;
      return false;
    }
    Frame &Caller = Stack.back();
    if (CallSite && CallSite->type() != Type::Void) {
      if (isIntegerType(CallSite->type()))
        RetV.I = truncToWidth(CallSite->type(), RetV.I);
      Caller.Regs[CallSite] = RetV;
    }
    ++Caller.Pc;
    // Fr is dangling after pop_back(); skip the shared Pc increment below.
    return !Trapped;
  }
  case Opcode::Unreachable:
    return trap("executed unreachable");
  case Opcode::Call: {
    if (Stack.size() >= Opts.MaxCallDepth)
      return trap("call depth exceeded");
    // Call targets are symbolic; memoize resolution per uniqued ref so a
    // hot call site costs one hash lookup, not a name scan.
    const Value *RefOp = I.operand(0);
    auto [MemoIt, Inserted] = CalleeMemo.try_emplace(RefOp, nullptr);
    if (Inserted)
      MemoIt->second = I.calledFunction(M);
    const Function *Callee = MemoIt->second;
    if (!Callee)
      return trap("call to unknown function @" + I.calleeName());
    if (Callee->empty())
      return trap("call to empty function @" + Callee->name());
    Frame New;
    New.F = Callee;
    New.Block = Callee->entry();
    New.Pc = 0;
    New.SavedStackPointer = StackPointer;
    New.CallSite = &I;
    for (unsigned A = 0; A < I.numCallArgs(); ++A)
      New.Regs[Callee->arg(A)] = eval(Fr, I.callArg(A));
    Stack.push_back(std::move(New));
    return true; // Do not advance caller Pc until return.
  }
  case Opcode::Phi:
    // Handled at block entry; executing one directly means the entry block
    // starts with a phi, which the verifier rejects.
    return trap("naked phi execution");
  case Opcode::Select: {
    bool Cond = eval(Fr, I.operand(0)).I != 0;
    setReg(eval(Fr, I.operand(Cond ? 1 : 2)));
    break;
  }
  case Opcode::Trunc:
  case Opcode::ZExt: {
    int64_t V = eval(Fr, I.operand(0)).I;
    Type Src = I.operand(0)->type();
    uint64_t U = static_cast<uint64_t>(V);
    if (Src == Type::I1)
      U &= 1;
    else if (Src == Type::I32)
      U &= 0xFFFFFFFFull;
    setReg({static_cast<int64_t>(U), 0.0});
    break;
  }
  case Opcode::SExt: {
    int64_t V = eval(Fr, I.operand(0)).I;
    Type Src = I.operand(0)->type();
    if (Src == Type::I1)
      V = (V & 1) ? -1 : 0;
    else if (Src == Type::I32)
      V = static_cast<int32_t>(V);
    setReg({V, 0.0});
    break;
  }
  case Opcode::SIToFP:
    setReg({0, static_cast<double>(eval(Fr, I.operand(0)).I)});
    break;
  case Opcode::FPToSI: {
    double V = eval(Fr, I.operand(0)).F;
    if (!std::isfinite(V) || V > 9.2e18 || V < -9.2e18)
      V = 0.0; // Saturate-to-zero: keeps behaviour defined.
    setReg({static_cast<int64_t>(V), 0.0});
    break;
  }
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
    setReg(eval(Fr, I.operand(0)));
    break;
  }

  ++Fr.Pc;
  return !Trapped;
}

ExecutionResult Machine::run(const Function &Entry) {
  Frame Fr;
  Fr.F = &Entry;
  Fr.Block = Entry.entry();
  Fr.SavedStackPointer = StackPointer;
  for (size_t A = 0; A < Entry.numArgs(); ++A) {
    RtValue V;
    V.I = A < Opts.Args.size() ? Opts.Args[A] : 0;
    V.F = static_cast<double>(V.I);
    Fr.Regs[Entry.arg(A)] = V;
  }
  Stack.push_back(std::move(Fr));

  while (step()) {
  }

  // Observable output: return bits + global memory contents.
  uint64_t H = hashCombine(0x5EEDF00Dull,
                           static_cast<uint64_t>(Result.ReturnInt));
  H = hashCombine(H, std::bit_cast<uint64_t>(Result.ReturnFloat));
  for (uint32_t A = 1; A < GlobalEnd; ++A)
    H = hashCombine(H, static_cast<uint64_t>(Memory[A]));
  Result.OutputHash = H;
  return Result;
}

} // namespace

StatusOr<ExecutionResult> ir::interpret(const Module &M,
                                        const InterpreterOptions &Opts,
                                        const std::string &Entry) {
  const Function *F = M.findFunction(Entry);
  if (!F)
    return notFound("no entry function '@" + Entry + "'");
  if (F->empty())
    return failedPrecondition("entry function '@" + Entry + "' is empty");
  Machine Mach(M, Opts);
  return Mach.run(*F);
}
