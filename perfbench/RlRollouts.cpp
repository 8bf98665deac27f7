//===- perfbench/RlRollouts.cpp - Lock-step RL training loop ----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rl-rollouts workload: the §VII-G training loop on an EnvPool of
/// loadThreads() workers over as many shards, stepped in lock-step with
/// resetAll()/stepBatch(). Episodes are 45 steps with the Autophase
/// observation and the IrInstructionCountOz reward. A round is
/// kBatchesPerRound lock-step batches; rounds walk the corpus (more
/// benchmarks than the 64-module parsed-benchmark cache) in a cycle, so
/// later epochs revisit every benchmark with fresh actions. Resets of the
/// first epoch ("reset_all": cold parse and -Oz baseline) are counted apart
/// from those of later ones ("revisit_all": baselines from the pool's
/// observation cache).
///
/// Checks: each episode's summed reward equals (IC0 - IC_T)/(IC0 - IC_Oz)
/// from the benchmark's own counts of printed IR, and on runnable
/// benchmarks the interpreter's output for the final module equals its
/// output for the unoptimized one.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Corpus.h"

#include "core/Registry.h"
#include "ir/Printer.h"
#include "passes/Pipelines.h"
#include "runtime/EnvPool.h"
#include "util/Hash.h"

#include <cmath>
#include <sstream>

namespace perfbench {
namespace {

using namespace compiler_gym;

constexpr int kEpisodeSteps = 45;
/// Short rounds, so the median over a run's rounds sets aside the few
/// rounds that a heavy episode dominates.
constexpr size_t kBatchesPerRound = 8;
constexpr double kRoundsPerSecond = 0.43;

/// The corpus: 160 benchmarks, more than the 64-module parsed-benchmark
/// cache, so every reset parses a cold module. Runnable csmith programs
/// (whose baselines also run -O3 and a runtime measurement) sit beside
/// mid-size and small non-runnable modules.
const std::vector<Stratum> kStrata = {
    {"benchmark://csmith-v0", 12},   {"benchmark://github-v0", 28},
    {"benchmark://mibench-v1", 20},  {"benchmark://poj104-v1", 36},
    {"benchmark://blas-v0", 32},     {"benchmark://anghabench-v1", 32},
};

struct EpisodeRecord {
  std::string Uri;
  double Reward = 0.0;
  int64_t FinalCount = 0;
  std::string FinalIr; ///< Kept for runnable benchmarks only.
};

class RlRollouts : public Workload {
public:
  explicit RlRollouts(const Options &O) : O(O), W(loadThreads()) {}

  Status prepare() override {
    Rng Gen(seedOf({O.Seed, fnv1a("rl-rollouts")}));
    CG_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> S,
                        drawStrata(kStrata, Gen));
    std::vector<std::string> All;
    for (const auto &Stratum : S)
      All.insert(All.end(), Stratum.begin(), Stratum.end());
    for (const std::string &Uri : All) {
      CG_ASSIGN_OR_RETURN(ResolvedBenchmark B, resolveBenchmark(Uri));
      Ref &R = Refs[Uri];
      R.Bench = B.Bench;
      R.IrCount = B.IrCount;
      // The -Oz reference count, from the benchmark's own parse and count.
      CG_ASSIGN_OR_RETURN(std::unique_ptr<ir::Module> M,
                          parseIr(B.Bench.IrText));
      CG_RETURN_IF_ERROR(passes::runOptimizationLevel(*M, "-Oz"));
      R.OzCount = countIrInstructions(ir::printModule(*M));
    }
    // Size-bucketed lock-step batches: rank the corpus by instruction
    // count, cut it into W bands, and give every batch one benchmark of
    // each band (a seeded pick, on a seeded worker), so each batch waits on
    // one large module rather than on a random number of them.
    std::stable_sort(All.begin(), All.end(), [&](const auto &A, const auto &B) {
      return Refs[A].IrCount < Refs[B].IrCount;
    });
    const size_t Batches = All.size() / W;
    std::vector<std::vector<std::string>> Bands(W);
    for (size_t Band = 0; Band < W; ++Band) {
      Bands[Band].assign(All.begin() + Band * Batches,
                         All.begin() + (Band + 1) * Batches);
      std::shuffle(Bands[Band].begin(), Bands[Band].end(), Gen);
    }
    std::vector<std::vector<std::string>> Layout(Batches);
    for (size_t B = 0; B < Batches; ++B) {
      for (const auto &Band : Bands)
        Layout[B].push_back(Band[B]);
      std::shuffle(Layout[B].begin(), Layout[B].end(), Gen);
    }
    for (const auto &Batch : Layout)
      Corpus.insert(Corpus.end(), Batch.begin(), Batch.end());
    return Status::ok();
  }

  Status setUp(size_t Variant) override {
    const size_t Batches = Corpus.size() / W;
    runtime::EnvPoolOptions P;
    P.EnvId = "llvm-v0";
    P.Make.ObservationSpace = "Autophase";
    P.Make.RewardSpace = "IrInstructionCountOz";
    P.NumWorkers = W;
    P.Broker.NumShards = W;
    // Variant 0 starts at lock-step batch 0, where the timed phase goes on
    // from; variant V > 0 at batch -V (mod the batch count), so the others
    // fall on the end of the first epoch, whose parses have left the
    // parsed-benchmark cache before the timed phase reaches them.
    P.Benchmarks = Corpus;
    std::rotate(P.Benchmarks.begin(),
                P.Benchmarks.begin() + ((Batches - Variant % Batches) % Batches) * W,
                P.Benchmarks.end());
    CG_ASSIGN_OR_RETURN(Pool, runtime::EnvPool::create(P));
    CG_ASSIGN_OR_RETURN(std::vector<service::Observation> First,
                        Pool->resetAll());
    (void)First;
    Primed = true;
    return Status::ok();
  }

  void tearDown() override { Pool.reset(); }

  Status runRound(size_t R, RoundLog &Log) override {
    const AgentActions Choices(Pool->env(0).actionSpace());
    const size_t Batches = Corpus.size() / W;
    // The pool's benchmark cursors advance one batch per resetAll, so round
    // R covers batches R * kBatchesPerRound onwards, modulo the corpus.
    for (size_t B = 0; B < kBatchesPerRound; ++B) {
      // The batch right after set-up reuses set-up's resets (the first
      // observation every env already holds).
      if (!Primed) {
        const bool FirstVisit = R * kBatchesPerRound + B < Batches;
        auto Reset = timedOp(Log, FirstVisit ? "reset_all" : "revisit_all",
                             [&] { return Pool->resetAll(); });
        CG_RETURN_IF_ERROR(Reset.status());
      }
      Primed = false;
      std::vector<Rng> Gens;
      for (size_t I = 0; I < W; ++I)
        Gens.emplace_back(
            seedOf({O.Seed, fnv1a(Pool->env(I).benchmark()), R}));
      std::vector<double> Rewards(W, 0.0);
      std::vector<bool> Done(W, false), Reordered(W, false);
      uint64_t StepPasses = 0;
      for (int S = 0; S < kEpisodeSteps; ++S) {
        // A finished worker idles: an empty action list is an
        // observation-only step.
        std::vector<std::vector<int>> Actions(W);
        for (size_t I = 0; I < W; ++I) {
          int A = static_cast<int>(Gens[I].bounded(Choices.size()));
          if (!Done[I]) {
            Actions[I] = {A};
            Reordered[I] = Reordered[I] || Choices.reorders(A);
          }
        }
        const uint64_t Passes0 = passesRun();
        auto Res =
            timedOp(Log, "step_batch", [&] { return Pool->stepBatch(Actions); });
        CG_RETURN_IF_ERROR(Res.status());
        StepPasses += passesRun() - Passes0;
        for (size_t I = 0; I < W; ++I) {
          if (Done[I])
            continue;
          Rewards[I] += (*Res)[I].Reward;
          ++Log.Units;
          ++Log.Steps;
          // The agent's size guard: the reward gives the module's current
          // size, IC_t = IC0 - Rewards * (IC0 - IC_Oz).
          const Ref &Rf = Refs[Pool->env(I).benchmark()];
          Done[I] = static_cast<double>(Rf.IrCount) - Rewards[I] * Rf.scale() >
                    kSizeGuard;
        }
      }
      // Untimed: the final IR of every episode, for the checks. The
      // digest takes its hash, or its instruction count where licm may
      // have reordered it.
      for (size_t I = 0; I < W; ++I) {
        core::CompilerEnv &E = Pool->env(I);
        CG_ASSIGN_OR_RETURN(std::vector<service::Observation> Ir,
                            untimedFetch([&] { return E.rawObservations({"Ir"}); }));
        EpisodeRecord Rec;
        Rec.Uri = E.benchmark();
        Rec.Reward = Rewards[I];
        Rec.FinalCount = countIrInstructions(Ir[0].Str);
        if (Refs[Rec.Uri].Bench.Runnable)
          Rec.FinalIr = Ir[0].Str;
        Log.Work.add(std::string_view(Rec.Uri));
        Log.Work.add(Rec.Reward);
        Log.Work.add(Reordered[I] ? static_cast<uint64_t>(Rec.FinalCount)
                                  : fnv1a(Ir[0].Str));
        Records.push_back(std::move(Rec));
      }
      // Passes the agents' actions ran. Those of the resets are left out:
      // whether a revisit finds its baselines still in the pool's LRU
      // observation cache depends on how the workers' inserts interleave.
      Log.Work.add(StepPasses);
    }
    return Status::ok();
  }

  void check(CheckLog &L) override {
    for (const EpisodeRecord &Rec : Records) {
      const Ref &R = Refs[Rec.Uri];
      double Expected =
          static_cast<double>(R.IrCount - Rec.FinalCount) / R.scale();
      std::ostringstream What;
      What << Rec.Uri << ": episode reward " << Rec.Reward << " != "
           << Expected << " from IR counts (IC0=" << R.IrCount
           << " IC_T=" << Rec.FinalCount << " IC_Oz=" << R.OzCount << ")";
      L.expect(std::abs(Rec.Reward - Expected) <=
                   1e-9 * std::max(1.0, std::abs(Expected)),
               What.str());
      if (!R.Bench.Runnable)
        continue;
      Ref &Mut = Refs[Rec.Uri];
      if (!Mut.Baseline) {
        auto Base = interpretIr(R.Bench.IrText, R.Bench.Inputs);
        L.expect(Base.isOk(), Rec.Uri + ": unoptimized module does not run");
        if (!Base.isOk())
          continue;
        Mut.Baseline = *Base;
      }
      auto Final = interpretIr(Rec.FinalIr, R.Bench.Inputs);
      L.expect(Final.isOk() && Final->Completed == Mut.Baseline->Completed &&
                   Final->ReturnInt == Mut.Baseline->ReturnInt &&
                   Final->OutputHash == Mut.Baseline->OutputHash,
               Rec.Uri + ": optimized module's output differs from the "
                         "unoptimized module's");
    }
    Records.clear();
  }

  const char *latencyOp() const override { return "step_batch"; }
  const char *resetOp() const override { return "reset_all"; }
  double roundsPerSecond() const override { return kRoundsPerSecond; }

  std::string describe() const override {
    std::ostringstream OS;
    OS << "rl-rollouts: " << W << " workers, " << Corpus.size()
       << " benchmarks (";
    for (size_t I = 0; I < kStrata.size(); ++I)
      OS << (I ? ", " : "") << kStrata[I].Dataset + 12 << " x"
         << kStrata[I].Count;
    OS << "), " << kEpisodeSteps << "-step episodes, Autophase + "
       << "IrInstructionCountOz";
    return OS.str();
  }

private:
  struct Ref {
    datasets::Benchmark Bench;
    int64_t IrCount = 0;
    int64_t OzCount = 0;
    std::optional<ir::ExecutionResult> Baseline;

    /// The reward's denominator, IC0 - IC_Oz. Benchmarks -Oz cannot shrink
    /// are scaled by max(1, 1% of IC_Oz), the reward space's documented
    /// fallback.
    double scale() const {
      double Gain = static_cast<double>(IrCount - OzCount);
      return Gain > 0.0
                 ? Gain
                 : std::max(1.0, std::abs(static_cast<double>(OzCount)) * 0.01);
    }
  };

  Options O;
  size_t W;
  std::vector<std::string> Corpus;
  std::map<std::string, Ref> Refs;
  std::unique_ptr<runtime::EnvPool> Pool;
  bool Primed = false;
  std::vector<EpisodeRecord> Records;
};

} // namespace

std::unique_ptr<Workload> makeRlRollouts(const Options &O) {
  return std::make_unique<RlRollouts>(O);
}

} // namespace perfbench
