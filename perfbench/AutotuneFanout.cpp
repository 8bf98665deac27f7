//===- perfbench/AutotuneFanout.cpp - Greedy search fan-out -----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The autotune-fanout workload: a Table IV-style greedy phase-ordering
/// search. The parent is the pool's worker 0; for each benchmark it resets,
/// walks a seeded prefix, then for a number of search rounds fans K seeded
/// candidate suffixes out with EnvPool::evaluateContinuations (worker 0's
/// slot forks the parent, the others rebase onto its snapshot) and commits
/// the best one to the parent. Reward IrInstructionCount, no default
/// observation ("llvm-ic-v0").
///
/// Checks: every candidate delta equals the reward a standalone env gets
/// from reset plus replay of the parent's actions and the candidate (no
/// pool, no snapshot), and each search's final sequence passes
/// core::validateState (its IR-hash comparison of two replays is left out
/// for sequences with licm or licm-promote, which reorder IR; the count is
/// printed).
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Corpus.h"

#include "core/Registry.h"
#include "core/Validation.h"
#include "runtime/EnvPool.h"
#include "util/Hash.h"

#include <cstdio>
#include <sstream>

namespace perfbench {
namespace {

using namespace compiler_gym;

constexpr size_t kPrefixLen = 8;     ///< Actions before the search starts.
constexpr size_t kSearchRounds = 4;  ///< Greedy commits per benchmark.
constexpr size_t kSuffixLen = 4;     ///< Actions per candidate.
constexpr size_t kCandidatesPerWorker = 2;
constexpr double kRoundsPerSecond = 0.47;

const std::vector<Stratum> kStrata = {
    {"benchmark://mibench-v1", 12},
    {"benchmark://github-v0", 12},
    {"benchmark://poj104-v1", 12},
    {"benchmark://blas-v0", 12},
};

/// One fan-out the checks replay: the parent's actions before it, the
/// candidates and the deltas the pool reported.
struct FanoutRecord {
  std::string Uri;
  std::vector<int> ParentActions;
  std::vector<std::vector<int>> Candidates;
  std::vector<double> Deltas;
};

class AutotuneFanout : public Workload {
public:
  explicit AutotuneFanout(const Options &O)
      : O(O), W(loadThreads()), K(kCandidatesPerWorker * W) {}

  Status prepare() override {
    Rng Gen(seedOf({O.Seed, fnv1a("autotune-fanout")}));
    CG_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> S,
                        drawStrata(kStrata, Gen));
    for (const auto &Stratum : S)
      Benchmarks.insert(Benchmarks.end(), Stratum.begin(), Stratum.end());
    for (const std::string &Uri : Benchmarks) {
      CG_ASSIGN_OR_RETURN(ResolvedBenchmark B, resolveBenchmark(Uri));
      CG_ASSIGN_OR_RETURN(ir::ExecutionResult Run,
                          interpretIr(B.Bench.IrText, B.Bench.Inputs));
      Completes[Uri] = Run.Completed;
    }
    return Status::ok();
  }

  Status setUp(size_t) override {
    runtime::EnvPoolOptions P;
    P.EnvId = "llvm-ic-v0";
    P.NumWorkers = W;
    P.Broker.NumShards = W;
    P.Benchmarks = Benchmarks;
    CG_ASSIGN_OR_RETURN(Pool, runtime::EnvPool::create(P));
    CG_ASSIGN_OR_RETURN(std::vector<service::Observation> First,
                        Pool->resetAll());
    (void)First;
    return Status::ok();
  }

  void tearDown() override { Pool.reset(); }

  Status runRound(size_t R, RoundLog &Log) override {
    core::CompilerEnv &Parent = Pool->env(0);
    const AgentActions Choices(Parent.actionSpace());
    const uint64_t Passes0 = passesRun();
    for (const std::string &Uri : Benchmarks) {
      const bool First = &Uri == &Benchmarks.front();
      Rng Gen(seedOf({O.Seed, fnv1a(Uri), R}));
      // The tuner never inlines after unrolling: inline<N> after
      // loop-unroll<M> can grow a module ninety-fold, after which each
      // further pass of the same step takes seconds and the step passes the
      // client's 10 s deadline.
      auto draw = [&](size_t Len, const std::vector<int> &Before) {
        bool Unrolled = false;
        for (int A : Before)
          Unrolled = Unrolled || Choices.unrolls(A);
        std::vector<int> Out(Len);
        for (int &X : Out) {
          do
            X = static_cast<int>(Gen.bounded(Choices.size()));
          while (Unrolled && Choices.inlines(X));
          Unrolled = Unrolled || Choices.unrolls(X);
        }
        return Out;
      };
      Parent.setBenchmark(Uri);
      auto Reset = timedOp(Log, "reset", [&] { return Parent.reset(); });
      CG_RETURN_IF_ERROR(Reset.status());
      std::vector<int> Prefix = draw(kPrefixLen, {});
      auto Walk = timedOp(Log, "prefix", [&] { return Parent.step(Prefix); });
      CG_RETURN_IF_ERROR(Walk.status());
      ++Log.Steps;
      for (size_t G = 0; G < kSearchRounds; ++G) {
        FanoutRecord Rec;
        Rec.Uri = Uri;
        Rec.ParentActions = Parent.state().Actions;
        for (size_t C = 0; C < K; ++C)
          Rec.Candidates.push_back(draw(kSuffixLen, Rec.ParentActions));
        auto Deltas = timedOp(Log, "fanout", [&] {
          return Pool->evaluateContinuations(Parent, Rec.Candidates);
        });
        if (!Deltas.isOk()) {
          std::ostringstream What;
          What << Deltas.status().message() << " (fan-out on " << Uri
               << ", round " << R << ", search step " << G << ", after";
          for (int A : Rec.ParentActions)
            What << " " << Parent.actionSpace().ActionNames[A];
          What << ")";
          return Status(Deltas.status().code(), What.str());
        }
        Rec.Deltas = *Deltas;
        Log.Units += K;
        Log.Steps += K;
        size_t Best = 0;
        for (size_t C = 1; C < K; ++C)
          if (Rec.Deltas[C] > Rec.Deltas[Best])
            Best = C;
        auto Commit = timedOp(Log, "commit", [&] {
          return Parent.step(Rec.Candidates[Best]);
        });
        CG_RETURN_IF_ERROR(Commit.status());
        ++Log.Steps;
        for (double D : Rec.Deltas)
          Log.Work.add(D);
        // Checked: in round 0 every fan-out of the first search and the last
        // of the others; in later checked rounds the first search's last.
        const bool LastG = G + 1 == kSearchRounds;
        if (checkedRound(R) && (R == 0 ? First || LastG : First && LastG))
          Fanouts.push_back(std::move(Rec));
      }
      core::EnvState Final = Parent.state();
      Log.Work.add(std::string_view(Uri));
      Log.Work.add(Final.CumulativeReward);
      for (int A : Final.Actions)
        Log.Work.add(static_cast<uint64_t>(A));
      // The final IR hash, unless licm may have reordered the IR (the
      // reward, an instruction count, is digested above either way).
      if (!Choices.reorders(Final.Actions)) {
        CG_ASSIGN_OR_RETURN(std::vector<service::Observation> Hash,
                            untimedFetch([&] {
                              return Parent.rawObservations({"IrHash"});
                            }));
        Log.Work.add(std::string_view(Hash[0].Str));
      }
      if (checkedRound(R) && (R == 0 || First))
        Finals.push_back(std::move(Final));
    }
    Log.Work.add(passesRun() - Passes0);
    return Status::ok();
  }

  void check(CheckLog &L) override {
    // Standalone replays, one fresh env per benchmark: reset, then the
    // parent's actions and the candidate as one step.
    std::map<std::string, std::unique_ptr<core::CompilerEnv>> Envs;
    auto rewardOf = [&](const std::string &Uri,
                        const std::vector<int> &Actions) -> StatusOr<double> {
      auto &E = Envs[Uri];
      if (!E) {
        core::MakeOptions MO;
        MO.Benchmark = Uri;
        CG_ASSIGN_OR_RETURN(E, core::make("llvm-ic-v0", MO));
      }
      E->setBenchmark(Uri);
      CG_RETURN_IF_ERROR(E->reset().status());
      if (!Actions.empty())
        CG_RETURN_IF_ERROR(E->step(Actions).status());
      return E->episodeReward();
    };
    for (const FanoutRecord &Rec : Fanouts) {
      auto Base = rewardOf(Rec.Uri, Rec.ParentActions);
      L.expect(Base.isOk(), Rec.Uri + ": standalone replay of the parent failed");
      if (!Base.isOk())
        continue;
      for (size_t C = 0; C < Rec.Candidates.size(); ++C) {
        std::vector<int> Seq = Rec.ParentActions;
        Seq.insert(Seq.end(), Rec.Candidates[C].begin(), Rec.Candidates[C].end());
        auto Got = rewardOf(Rec.Uri, Seq);
        std::ostringstream What;
        What << Rec.Uri << ": candidate " << C << " after "
             << Rec.ParentActions.size() << " actions: pool delta "
             << Rec.Deltas[C] << " != standalone "
             << (Got.isOk() ? *Got - *Base : -1.0);
        L.expect(Got.isOk() && *Got - *Base == Rec.Deltas[C], What.str());
      }
    }
    const AgentActions Choices(Pool->env(0).actionSpace());
    for (const core::EnvState &S : Finals) {
      auto V = core::validateState(S);
      // Two replays of a sequence with licm or licm-promote may end in IR
      // that differs in instruction order only; their hashes are not
      // compared, their rewards and semantics are.
      const bool Reordering = Choices.reorders(S.Actions);
      if (Reordering)
        ++HashUncompared;
      // validateState's semantics step calls a run a divergence when the
      // unoptimized program exhausts the interpreter's fuel and the
      // optimized one completes; with no reference output there is nothing
      // to compare, so for those benchmarks only the replay validation
      // (reward and final-state hash) is required.
      const bool Decidable = Completes[S.BenchmarkUri];
      if (!Decidable)
        ++SemanticsUndecided;
      L.expect(V.isOk() && V->RewardValidated &&
                   (Reordering || V->HashValidated) &&
                   (!Decidable || !V->SemanticsChecked ||
                    V->SemanticsValidated),
               S.BenchmarkUri + ": final sequence fails validateState" +
                   (V.isOk() ? " (" + V->Error + ")" : ""));
    }
    if (HashUncompared)
      std::printf("validateState IR hashes not compared (licm in the "
                  "sequence) for %zu of %zu final states\n",
                  HashUncompared, Finals.size());
    if (SemanticsUndecided)
      std::printf("validateState semantics undecidable (unoptimized program "
                  "exhausts the interpreter's fuel) for %zu final states\n",
                  SemanticsUndecided);
    Fanouts.clear();
    Finals.clear();
  }

  const char *latencyOp() const override { return "fanout"; }
  const char *resetOp() const override { return "reset"; }
  double roundsPerSecond() const override { return kRoundsPerSecond; }

  std::string describe() const override {
    std::ostringstream OS;
    OS << "autotune-fanout: " << W << " workers, " << Benchmarks.size()
       << " benchmarks (";
    for (size_t I = 0; I < Benchmarks.size(); ++I)
      OS << (I ? ", " : "") << Benchmarks[I].substr(12);
    OS << "), prefix " << kPrefixLen << ", " << kSearchRounds
       << " greedy rounds of " << K << " candidates x " << kSuffixLen
       << " actions, IrInstructionCount";
    return OS.str();
  }

private:
  Options O;
  size_t W;
  size_t K;
  /// Per benchmark: whether the unoptimized program runs to completion on
  /// the interpreter (default fuel), i.e. has an output to compare against.
  std::map<std::string, bool> Completes;
  size_t SemanticsUndecided = 0;
  size_t HashUncompared = 0;
  std::vector<std::string> Benchmarks;
  std::unique_ptr<runtime::EnvPool> Pool;
  std::vector<FanoutRecord> Fanouts;
  std::vector<core::EnvState> Finals;
};

} // namespace

std::unique_ptr<Workload> makeAutotuneFanout(const Options &O) {
  return std::make_unique<AutotuneFanout>(O);
}

} // namespace perfbench
