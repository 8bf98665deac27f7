//===- tests/validation_test.cpp - Replay validation & datasets -*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// §III-B2/3/4 end-to-end: state serialization, replay validation,
// semantics validation; the transition database (§III-F); and the
// leaderboard.

#include "core/Leaderboard.h"
#include "core/Registry.h"
#include "core/TransitionDatabase.h"
#include "core/Validation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

using namespace compiler_gym;
using namespace compiler_gym::core;

namespace {

EnvState recordEpisode(const std::string &Benchmark,
                       const std::vector<int> &Actions) {
  MakeOptions Opts;
  Opts.Benchmark = Benchmark;
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "IrInstructionCount";
  auto Env = make("llvm-v0", Opts);
  EXPECT_TRUE(Env.isOk());
  EXPECT_TRUE((*Env)->reset().isOk());
  for (int A : Actions)
    EXPECT_TRUE((*Env)->step(A).isOk());
  return (*Env)->state();
}

TEST(Validation, CleanEpisodeValidates) {
  EnvState State = recordEpisode("benchmark://cbench-v1/crc32",
                                 {0, 3, 9, 14, 2});
  auto Result = validateState(State);
  ASSERT_TRUE(Result.isOk()) << Result.status().toString();
  EXPECT_TRUE(Result->RewardValidated) << Result->Error;
  EXPECT_TRUE(Result->HashValidated) << Result->Error;
  EXPECT_TRUE(Result->SemanticsChecked);
  EXPECT_TRUE(Result->SemanticsValidated) << Result->Error;
  EXPECT_TRUE(Result->ok());
}

TEST(Validation, TamperedRewardIsRejected) {
  EnvState State = recordEpisode("benchmark://cbench-v1/crc32", {0, 3, 9});
  State.CumulativeReward += 1000.0; // A falsified leaderboard claim.
  auto Result = validateState(State);
  ASSERT_TRUE(Result.isOk());
  EXPECT_FALSE(Result->RewardValidated);
  EXPECT_FALSE(Result->ok());
}

/// A fresh llvm-v0 session on \p Benchmark after the named actions.
std::unique_ptr<CompilerEnv>
replayNamed(const std::string &Benchmark,
            const std::vector<std::string> &ActionNames) {
  MakeOptions Opts;
  Opts.Benchmark = Benchmark;
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "none";
  auto Env = make("llvm-v0", Opts);
  EXPECT_TRUE(Env.isOk()) << Env.status().toString();
  if (!Env.isOk())
    return nullptr;
  EXPECT_TRUE((*Env)->reset().isOk());
  const std::vector<std::string> &Names = (*Env)->actionSpace().ActionNames;
  for (const std::string &Name : ActionNames) {
    auto It = std::find(Names.begin(), Names.end(), Name);
    EXPECT_NE(It, Names.end()) << "no action " << Name;
    if (It == Names.end())
      return nullptr;
    auto R = (*Env)->step(static_cast<int>(It - Names.begin()));
    EXPECT_TRUE(R.isOk()) << Name << ": " << R.status().toString();
  }
  return Env.takeValue();
}

std::string irHash(CompilerEnv &Env) {
  auto Hash = Env.observation()["IrHash"];
  EXPECT_TRUE(Hash.isOk()) << Hash.status().toString();
  return Hash.isOk() ? Hash->raw().Str : "";
}

TEST(Determinism, LicmReplaysInFreshSessionsEndInEqualIr) {
  // licm and licm-promote hoist out of multi-block loops; the hoisted
  // instructions must reach the preheader in the same order on every
  // replay, whatever the heap addresses of the loop's blocks.
  const std::vector<std::pair<std::string, std::vector<std::string>>> Cases =
      {{"benchmark://poj104-v1/32973",
        {"reassociate", "inline<75>", "licm-promote"}},
       {"benchmark://cbench-v1/qsort", {"mem2reg", "loop-simplify", "licm"}},
       {"benchmark://cbench-v1/sha",
        {"mem2reg", "loop-simplify", "licm-promote", "licm"}},
       {"benchmark://cbench-v1/crc32",
        {"loop-simplify", "reassociate", "licm", "licm-promote"}}};
  for (const auto &[Benchmark, Actions] : Cases) {
    // All replays stay alive, so their blocks live at different addresses.
    std::vector<std::unique_ptr<CompilerEnv>> Replays;
    for (int I = 0; I < 4; ++I) {
      Replays.push_back(replayNamed(Benchmark, Actions));
      ASSERT_TRUE(Replays.back()) << Benchmark;
    }
    std::string Hash = irHash(*Replays.front());
    ASSERT_FALSE(Hash.empty()) << Benchmark;
    for (size_t I = 1; I < Replays.size(); ++I)
      EXPECT_EQ(Hash, irHash(*Replays[I])) << Benchmark << " replay " << I;
  }
}

TEST(Validation, EmptyEpisodeValidates) {
  EnvState State = recordEpisode("benchmark://cbench-v1/sha", {});
  auto Result = validateState(State);
  ASSERT_TRUE(Result.isOk());
  EXPECT_TRUE(Result->ok()) << Result->Error;
}

TEST(EnvStateText, RoundTripAndErrors) {
  EnvState State;
  State.EnvId = "llvm-v0";
  State.BenchmarkUri = "benchmark://cbench-v1/crc32";
  State.RewardSpace = "IrInstructionCount";
  State.Actions = {1, 2, 3};
  State.CumulativeReward = 12.5;
  auto Parsed = EnvState::deserialize(State.serialize());
  ASSERT_TRUE(Parsed.isOk());
  EXPECT_EQ(*Parsed, State);

  EXPECT_FALSE(EnvState::deserialize("not enough fields").isOk());
  EXPECT_FALSE(
      EnvState::deserialize("llvm-v0|uri|r|1.0|2,x,3").isOk());
}

// -- Transition database -------------------------------------------------------

class TransitionDbTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = ::testing::TempDir() + "/cg_tdb_" +
          std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }
  std::string Dir;
};

TEST_F(TransitionDbTest, LogsEpisodesAndBuildsTransitions) {
  TransitionDatabase Db(Dir);
  MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "IrInstructionCount";
  auto EnvPtr = make("llvm-v0", Opts);
  ASSERT_TRUE(EnvPtr.isOk());

  auto Logger = std::make_unique<TransitionLogger>(
      std::move(*EnvPtr), &Db, [](Env &E) {
        auto Hash = E.observation()["IrHash"];
        return Hash.isOk() ? Hash->raw().Str : std::string("?");
      });
  Logger->setBenchmarkUri("benchmark://cbench-v1/crc32");

  ASSERT_TRUE(Logger->reset().isOk());
  for (int A : {0, 5, 9})
    ASSERT_TRUE(Logger->step(A).isOk());
  ASSERT_TRUE(Db.flush().isOk());
  ASSERT_TRUE(Db.buildTransitions().isOk());

  auto Steps = Db.readSteps();
  ASSERT_TRUE(Steps.isOk());
  ASSERT_EQ(Steps->size(), 4u); // Initial state + 3 steps.
  EXPECT_TRUE(Steps->front().Actions.empty());
  EXPECT_EQ(Steps->back().Actions, (std::vector<int>{0, 5, 9}));
  EXPECT_EQ(Steps->back().BenchmarkUri, "benchmark://cbench-v1/crc32");

  auto Obs = Db.readObservations();
  ASSERT_TRUE(Obs.isOk());
  EXPECT_LE(Obs->size(), 4u); // De-duplicated by state id.
  for (const auto &Row : *Obs) {
    EXPECT_EQ(Row.InstCounts.size(), 70u);
    EXPECT_EQ(Row.Autophase.size(), 56u);
    EXPECT_FALSE(Row.CompressedIr.empty());
  }

  auto Trans = Db.readTransitions();
  ASSERT_TRUE(Trans.isOk());
  EXPECT_EQ(Trans->size(), 3u);
  // Transition chain links consistently.
  EXPECT_EQ((*Trans)[0].NextStateId, (*Trans)[1].StateId);
  EXPECT_EQ((*Trans)[1].NextStateId, (*Trans)[2].StateId);
  EXPECT_EQ((*Trans)[0].Action, 0);
  EXPECT_EQ((*Trans)[1].Action, 5);
}

TEST_F(TransitionDbTest, DeduplicatesRepeatedStates) {
  TransitionDatabase Db(Dir);
  MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "none";
  auto EnvPtr = make("llvm-v0", Opts);
  ASSERT_TRUE(EnvPtr.isOk());
  auto Logger = std::make_unique<TransitionLogger>(
      std::move(*EnvPtr), &Db, [](Env &E) {
        auto Hash = E.observation()["IrHash"];
        return Hash.isOk() ? Hash->raw().Str : std::string("?");
      });
  // Two identical episodes: states repeat, observations dedup. Use
  // mem2reg so the step provably changes the module state.
  ASSERT_TRUE(Logger->reset().isOk());
  int Mem2Reg = -1;
  {
    const auto &Names = Logger->actionSpace().ActionNames;
    for (size_t I = 0; I < Names.size(); ++I)
      if (Names[I] == "mem2reg")
        Mem2Reg = static_cast<int>(I);
    ASSERT_GE(Mem2Reg, 0);
  }
  for (int Episode = 0; Episode < 2; ++Episode) {
    ASSERT_TRUE(Logger->reset().isOk());
    ASSERT_TRUE(Logger->step(Mem2Reg).isOk());
  }
  ASSERT_TRUE(Db.buildTransitions().isOk());
  auto Steps = Db.readSteps();
  auto Obs = Db.readObservations();
  auto Trans = Db.readTransitions();
  ASSERT_TRUE(Steps.isOk());
  ASSERT_TRUE(Obs.isOk());
  ASSERT_TRUE(Trans.isOk());
  EXPECT_EQ(Steps->size(), 5u); // Probe reset + 2 x (reset + step).
  EXPECT_EQ(Obs->size(), 2u);   // Unique states only.
  EXPECT_EQ(Trans->size(), 1u); // Identical transition deduped.
}

TEST_F(TransitionDbTest, SurvivesPayloadEscaping) {
  TransitionDatabase Db(Dir);
  ObservationsRow Row;
  Row.StateId = "abc";
  Row.CompressedIr = "line1\nline2\twith\ttabs\\and\\slashes";
  Db.appendObservation(Row);
  ASSERT_TRUE(Db.flush().isOk());
  auto Obs = Db.readObservations();
  ASSERT_TRUE(Obs.isOk());
  ASSERT_EQ(Obs->size(), 1u);
  EXPECT_EQ((*Obs)[0].CompressedIr, Row.CompressedIr);
}

// -- Leaderboard ------------------------------------------------------------------

TEST(LeaderboardTest, SubmitRankAndValidate) {
  std::string Path = ::testing::TempDir() + "/cg_leaderboard_test.csv";
  std::filesystem::remove(Path);
  Leaderboard Board(Path);

  EnvState Good = recordEpisode("benchmark://cbench-v1/crc32", {0, 3, 9});
  LeaderboardEntry E1;
  E1.Technique = "random-search";
  E1.State = Good;
  E1.WalltimeSeconds = 1.5;
  auto V = validateState(Good);
  ASSERT_TRUE(V.isOk());
  E1.Validated = V->ok();
  ASSERT_TRUE(Board.submit(E1).isOk());

  EnvState Weaker = Good;
  Weaker.CumulativeReward -= 5.0;
  Weaker.Actions.pop_back();
  LeaderboardEntry E2;
  E2.Technique = "greedy";
  E2.State = Weaker;
  ASSERT_TRUE(Board.submit(E2).isOk());

  auto Ranked = Board.ranking("benchmark://cbench-v1/crc32");
  ASSERT_TRUE(Ranked.isOk());
  ASSERT_EQ(Ranked->size(), 2u);
  EXPECT_EQ((*Ranked)[0].Technique, "random-search");
  EXPECT_TRUE((*Ranked)[0].Validated);
  std::filesystem::remove(Path);
}

} // namespace
