//===- tests/interpreter_test.cpp - Interpreter semantics ------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace compiler_gym;
using namespace compiler_gym::ir;

namespace {

ExecutionResult runText(const std::string &Text,
                        std::vector<int64_t> Args = {}) {
  auto M = parseModule(Text);
  EXPECT_TRUE(M.isOk()) << M.status().toString();
  if (!M.isOk())
    return ExecutionResult{};
  InterpreterOptions Opts;
  Opts.Args = std::move(Args);
  auto R = interpret(**M, Opts);
  EXPECT_TRUE(R.isOk()) << R.status().toString();
  if (!R.isOk())
    return ExecutionResult{};
  return *R;
}

std::string binop(const std::string &Op, const std::string &Ty,
                  const std::string &A, const std::string &B) {
  return "module \"t\"\nfunc @main() -> " + Ty + " {\nentry:\n  %r = " + Op +
         " " + Ty + " " + Ty + " " + A + ", " + Ty + " " + B +
         "\n  ret " + Ty + " %r\n}\n";
}

struct ArithCase {
  const char *Op;
  int64_t Lhs, Rhs, Expected;
};

class IntArith : public ::testing::TestWithParam<ArithCase> {};

TEST_P(IntArith, Evaluates) {
  const ArithCase &C = GetParam();
  ExecutionResult R = runText(binop(C.Op, "i64", std::to_string(C.Lhs),
                                    std::to_string(C.Rhs)));
  ASSERT_TRUE(R.Completed) << R.TrapReason;
  EXPECT_EQ(R.ReturnInt, C.Expected) << C.Op;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, IntArith,
    ::testing::Values(ArithCase{"add", 40, 2, 42},
                      ArithCase{"add", -1, 1, 0},
                      ArithCase{"sub", 10, 42, -32},
                      ArithCase{"mul", -6, 7, -42},
                      ArithCase{"sdiv", 42, 5, 8},
                      ArithCase{"sdiv", -42, 5, -8},
                      ArithCase{"srem", 42, 5, 2},
                      ArithCase{"srem", -42, 5, -2},
                      ArithCase{"and", 0b1100, 0b1010, 0b1000},
                      ArithCase{"or", 0b1100, 0b1010, 0b1110},
                      ArithCase{"xor", 0b1100, 0b1010, 0b0110},
                      ArithCase{"shl", 3, 4, 48},
                      ArithCase{"lshr", -1, 60, 15},
                      ArithCase{"ashr", -16, 2, -4}));

TEST(Interpreter, FloatArithmetic) {
  ExecutionResult R = runText(binop("fmul", "f64", "2.5", "4.0"));
  ASSERT_TRUE(R.Completed);
  EXPECT_DOUBLE_EQ(R.ReturnFloat, 10.0);
  R = runText(binop("fdiv", "f64", "1.0", "0.0"));
  ASSERT_TRUE(R.Completed); // Float division by zero is defined as 0.
  EXPECT_DOUBLE_EQ(R.ReturnFloat, 0.0);
}

TEST(Interpreter, ComparisonsAndSelect) {
  ExecutionResult R = runText(
      "module \"t\"\nfunc @main() -> i64 {\nentry:\n"
      "  %c = icmp i1 lt i64 3, i64 5\n"
      "  %r = select i64 i1 %c, i64 100, i64 200\n"
      "  ret i64 %r\n}\n");
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ReturnInt, 100);
}

TEST(Interpreter, LoopComputesTriangularNumber) {
  // sum 1..10 via rotated loop.
  ExecutionResult R = runText(R"(module "t"
func @main() -> i64 {
entry:
  br label %body
body:
  %i = phi i64 [ 1, %entry ], [ %inext, %body ]
  %acc = phi i64 [ 0, %entry ], [ %accnext, %body ]
  %accnext = add i64 i64 %acc, i64 %i
  %inext = add i64 i64 %i, i64 1
  %c = icmp i1 le i64 %inext, i64 10
  condbr i1 %c, label %body, label %exit
exit:
  ret i64 %accnext
}
)");
  ASSERT_TRUE(R.Completed) << R.TrapReason;
  EXPECT_EQ(R.ReturnInt, 55);
}

TEST(Interpreter, RecursionComputesFactorial) {
  ExecutionResult R = runText(R"(module "t"
func @fact(i64 %n) -> i64 {
entry:
  %c = icmp i1 le i64 %n, i64 1
  condbr i1 %c, label %base, label %rec
base:
  ret i64 1
rec:
  %dec = sub i64 i64 %n, i64 1
  %sub = call i64 func @fact, i64 %dec
  %r = mul i64 i64 %n, i64 %sub
  ret i64 %r
}
func @main(i64 %n) -> i64 {
entry:
  %r = call i64 func @fact, i64 %n
  ret i64 %r
}
)",
                              {6});
  ASSERT_TRUE(R.Completed) << R.TrapReason;
  EXPECT_EQ(R.ReturnInt, 720);
}

TEST(Interpreter, MemoryRoundTrip) {
  ExecutionResult R = runText(R"(module "t"
global @g = words 8
func @main() -> i64 {
entry:
  %p = gep ptr ptr @g, i64 3
  store i64 1234, ptr %p
  %v = load i64, ptr %p
  ret i64 %v
}
)");
  ASSERT_TRUE(R.Completed) << R.TrapReason;
  EXPECT_EQ(R.ReturnInt, 1234);
}

TEST(Interpreter, AllocaIsolatesFrames) {
  ExecutionResult R = runText(R"(module "t"
func @leaf() -> i64 {
entry:
  %p = alloca ptr words 1
  store i64 77, ptr %p
  %v = load i64, ptr %p
  ret i64 %v
}
func @main() -> i64 {
entry:
  %a = call i64 func @leaf
  %b = call i64 func @leaf
  %r = add i64 i64 %a, i64 %b
  ret i64 %r
}
)");
  ASSERT_TRUE(R.Completed) << R.TrapReason;
  EXPECT_EQ(R.ReturnInt, 154);
}

// -- Traps ----------------------------------------------------------------------

TEST(Interpreter, TrapsOnDivisionByZero) {
  ExecutionResult R = runText(binop("sdiv", "i64", "1", "0"));
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.TrapReason.find("division by zero"), std::string::npos);
}

TEST(Interpreter, TrapsOnOutOfBounds) {
  ExecutionResult R = runText(R"(module "t"
func @main() -> i64 {
entry:
  %p = inttoptr ptr i64 99999999
  %v = load i64, ptr %p
  ret i64 %v
}
)");
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.TrapReason.find("out of bounds"), std::string::npos);
}

TEST(Interpreter, TrapsOnNullStore) {
  ExecutionResult R = runText(R"(module "t"
func @main() -> i64 {
entry:
  %p = inttoptr ptr i64 0
  store i64 1, ptr %p
  ret i64 0
}
)");
  EXPECT_FALSE(R.Completed);
}

TEST(Interpreter, FuelLimitStopsInfiniteLoops) {
  auto M = parseModule(R"(module "t"
func @main() -> i64 {
entry:
  br label %spin
spin:
  br label %spin
}
)");
  ASSERT_TRUE(M.isOk());
  InterpreterOptions Opts;
  Opts.MaxInstructions = 1000;
  auto R = interpret(**M, Opts);
  ASSERT_TRUE(R.isOk());
  EXPECT_FALSE(R->Completed);
  EXPECT_TRUE(R->FuelExhausted);
  EXPECT_NE(R->TrapReason.find("fuel"), std::string::npos);
  EXPECT_LE(R->InstructionsExecuted, 1002u);
}

TEST(Interpreter, CallDepthLimit) {
  auto M = parseModule(R"(module "t"
func @inf(i64 %n) -> i64 {
entry:
  %r = call i64 func @inf, i64 %n
  ret i64 %r
}
func @main() -> i64 {
entry:
  %r = call i64 func @inf, i64 1
  ret i64 %r
}
)");
  ASSERT_TRUE(M.isOk());
  auto R = interpret(**M);
  ASSERT_TRUE(R.isOk());
  EXPECT_FALSE(R->Completed);
  EXPECT_NE(R->TrapReason.find("depth"), std::string::npos);
}

TEST(Interpreter, MissingEntryIsAnError) {
  auto M = parseModule("module \"t\"\n");
  ASSERT_TRUE(M.isOk());
  auto R = interpret(**M);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::NotFound);
}

// -- Observability -----------------------------------------------------------------

TEST(Interpreter, OutputHashReflectsGlobalMemory) {
  const char *Template = R"(module "t"
global @g = words 4
func @main() -> i64 {
entry:
  store i64 VALUE, ptr @g
  ret i64 0
}
)";
  std::string A = Template, B = Template;
  A.replace(A.find("VALUE"), 5, "1");
  B.replace(B.find("VALUE"), 5, "2");
  EXPECT_NE(runText(A).OutputHash, runText(B).OutputHash);
  EXPECT_EQ(runText(A).OutputHash, runText(A).OutputHash);
}

TEST(Interpreter, CountsOpcodesAndCycles) {
  ExecutionResult R = runText(binop("mul", "i64", "6", "7"));
  EXPECT_EQ(R.OpcodeCounts[static_cast<int>(Opcode::Mul)], 1u);
  EXPECT_EQ(R.OpcodeCounts[static_cast<int>(Opcode::Ret)], 1u);
  EXPECT_EQ(R.SimulatedCycles,
            opcodeCycleCost(Opcode::Mul) + opcodeCycleCost(Opcode::Ret));
  EXPECT_GT(R.simulatedSeconds(), 0.0);
}

TEST(Interpreter, ArgumentsReachMain) {
  ExecutionResult R = runText(R"(module "t"
func @main(i64 %a, i64 %b) -> i64 {
entry:
  %r = sub i64 i64 %a, i64 %b
  ret i64 %r
}
)",
                              {50, 8});
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ReturnInt, 42);
}

TEST(Interpreter, CastSemantics) {
  ExecutionResult R = runText(R"(module "t"
func @main() -> i64 {
entry:
  %big = add i64 i64 4294967295, i64 2
  %t = trunc i32 i64 %big
  %z = zext i64 i32 %t
  ret i64 %z
}
)");
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ReturnInt, 1); // (2^32+1) truncated to i32 = 1, zext = 1.
}

TEST(Interpreter, SExtOfNegative) {
  ExecutionResult R = runText(R"(module "t"
func @main() -> i64 {
entry:
  %neg = sub i32 i32 0, i32 5
  %s = sext i64 i32 %neg
  ret i64 %s
}
)");
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ReturnInt, -5);
}

} // namespace
