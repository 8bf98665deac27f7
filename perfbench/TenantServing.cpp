//===- perfbench/TenantServing.cpp - Multi-tenant gateway load --*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tenant-serving workload: a gateway::Gateway in this process on a
/// Unix socket over 2 shards, and loadThreads() tenants, each holding one
/// CompilerEnv::connect() connection and running 45-step episodes on small
/// benchmarks in a closed loop. Every step requests InstCount and Programl
/// beside the default Autophase observation; the reward is
/// IrInstructionCount. A round is a fixed number of episodes per tenant.
///
/// Checks: every checked episode's per-step observations and rewards equal
/// those of an in-process env stepping the same benchmark with the same
/// actions (no gateway, sockets or wire deltas), and the final InstCount
/// total equals the benchmark's own count of the final IR. From an
/// episode's first licm or licm-promote on, which reorder IR, only the
/// order-free part of a step (reward and InstCount total) is compared; the
/// number of such steps is printed.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Corpus.h"

#include "core/Registry.h"
#include "envs/llvm/LlvmSession.h"
#include "gateway/Gateway.h"
#include "net/SocketTransport.h"
#include "util/Hash.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <thread>
#include <unistd.h>

namespace perfbench {
namespace {

using namespace compiler_gym;

constexpr int kEpisodeSteps = 45;
constexpr size_t kEpisodesPerRound = 2; ///< Per tenant.
constexpr double kRoundsPerSecond = 3.6;
const std::vector<std::string> kExtraSpaces = {"InstCount", "Programl"};

/// Per tenant: eight benchmarks from each small-program dataset.
const std::vector<Stratum> kStrata = {
    {"benchmark://anghabench-v1", 8},
    {"benchmark://github-v0", 8},
    {"benchmark://poj104-v1", 8},
    {"benchmark://mibench-v1", 8},
};

void digestObservation(Digest &D, const service::Observation &Obs) {
  D.add(static_cast<uint64_t>(Obs.Type));
  for (int64_t V : Obs.Ints)
    D.add(static_cast<uint64_t>(V));
  for (double V : Obs.Doubles)
    D.add(V);
  D.add(std::string_view(Obs.Str));
  D.add(static_cast<uint64_t>(Obs.IntValue));
  D.add(Obs.DoubleValue);
}

/// The InstCount total of a step, or -1 if it returned none.
int64_t instCountTotal(const core::StepResult &R) {
  for (const auto &[Name, V] : R.Observations)
    if (Name == "InstCount" && !V.raw().Ints.empty())
      return V.raw().Ints[0];
  return -1;
}

/// Digest of a step. Full: everything it returned (default observation,
/// the extra spaces, the reward). Otherwise only what does not depend on
/// instruction order: the reward and the InstCount total.
uint64_t stepDigest(const core::StepResult &R, bool Full) {
  Digest D;
  if (Full) {
    digestObservation(D, R.Obs);
    for (const auto &[Name, V] : R.Observations) {
      D.add(std::string_view(Name));
      digestObservation(D, V.raw());
    }
  }
  D.add(static_cast<uint64_t>(instCountTotal(R)));
  D.add(R.Reward);
  return D.value();
}

/// An episode the checks replay in-process.
struct EpisodeRecord {
  std::string Uri;
  size_t Tenant = 0;
  uint64_t ResetDigest = 0;
  std::vector<int> Actions;
  std::vector<uint64_t> StepDigests;
  /// Steps from this one on follow a licm or licm-promote: their digests
  /// are order-free.
  size_t FirstReordered = SIZE_MAX;
  int64_t FinalInstCount = 0;
};

class TenantServing : public Workload {
public:
  explicit TenantServing(const Options &O)
      : O(O), T(loadThreads()),
        // Relative to the working directory, so the socket stays inside it
        // and well under the sun_path limit.
        SocketPath("perfbench-gw-" + std::to_string(::getpid()) + ".sock") {}

  Status prepare() override {
    Rng Gen(seedOf({O.Seed, fnv1a("tenant-serving")}));
    for (size_t I = 0; I < T; ++I) {
      CG_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> S,
                          drawStrata(kStrata, Gen));
      std::vector<std::string> Uris;
      for (const auto &Stratum : S)
        Uris.insert(Uris.end(), Stratum.begin(), Stratum.end());
      std::shuffle(Uris.begin(), Uris.end(), Gen);
      TenantUris.push_back(std::move(Uris));
    }
    // Every benchmark's IR parses before any tenant connects.
    for (const auto &Uris : TenantUris)
      for (const std::string &Uri : Uris) {
        CG_ASSIGN_OR_RETURN(ResolvedBenchmark B, resolveBenchmark(Uri));
        CG_RETURN_IF_ERROR(parseIr(B.Bench.IrText).status());
      }
    return Status::ok();
  }

  Status setUp(size_t) override {
    envs::registerLlvmEnvironment();
    gateway::GatewayOptions G;
    G.Listen.Kind = net::NetAddress::Family::Unix;
    G.Listen.Path = SocketPath;
    G.NumShards = 2;
    // One handler thread per shard: with the tenants' own threads, more
    // would oversubscribe the CPUs and make step latency bimodal.
    G.Server.Threads = 2;
    for (size_t I = 0; I < T; ++I)
      G.Tenants.push_back({"tenant" + std::to_string(I),
                           "token" + std::to_string(I)});
    CG_ASSIGN_OR_RETURN(Gw, gateway::Gateway::serve(std::move(G)));
    for (size_t I = 0; I < T; ++I) {
      core::MakeOptions MO;
      MO.Benchmark = TenantUris[I][0];
      MO.ObservationSpace = "Autophase";
      MO.RewardSpace = "IrInstructionCount";
      CG_ASSIGN_OR_RETURN(core::CompilerEnvOptions EO,
                          core::resolveMakeOptions("llvm-v0", MO));
      EO.Client.AuthToken = "token" + std::to_string(I);
      CG_ASSIGN_OR_RETURN(
          std::unique_ptr<core::CompilerEnv> E,
          core::CompilerEnv::connect(
              EO, std::make_shared<net::SocketTransport>(Gw->boundAddress())));
      CG_ASSIGN_OR_RETURN(service::Observation First, E->reset());
      FirstReset.push_back(digestFirst(First));
      Clients.push_back(std::move(E));
    }
    Primed = true;
    return Status::ok();
  }

  void tearDown() override {
    Clients.clear(); // End sessions before the gateway goes away.
    FirstReset.clear();
    Gw.reset();
  }

  Status runRound(size_t R, RoundLog &Log) override {
    std::vector<RoundLog> Logs(T);
    std::vector<Status> Results(T, Status::ok());
    std::vector<std::vector<EpisodeRecord>> Recs(T);
    const uint64_t Passes0 = passesRun();
    double T0 = nowMs();
    {
      std::vector<std::thread> Threads;
      for (size_t I = 0; I < T; ++I)
        Threads.emplace_back([&, I] {
          Results[I] = runTenant(I, R, Logs[I], Recs[I]);
        });
      for (std::thread &Th : Threads)
        Th.join();
    }
    double WallMs = nowMs() - T0;
    Log.Work.add(passesRun() - Passes0);
    Primed = false;
    for (size_t I = 0; I < T; ++I) {
      mergeOps(Log, Logs[I]);
      for (EpisodeRecord &E : Recs[I]) {
        Log.Work.add(std::string_view(E.Uri));
        for (uint64_t D : E.StepDigests)
          Log.Work.add(D);
        if (checkedRound(R))
          Records.push_back(std::move(E));
      }
    }
    // Tenants run concurrently: the round's wall time is the time base.
    Log.TimedMs = WallMs;
    for (const Status &S : Results)
      CG_RETURN_IF_ERROR(S);
    return Status::ok();
  }

  void check(CheckLog &L) override {
    core::MakeOptions MO;
    MO.ObservationSpace = "Autophase";
    MO.RewardSpace = "IrInstructionCount";
    MO.Benchmark = TenantUris[0][0];
    auto Ref = core::make("llvm-v0", MO);
    L.expect(Ref.isOk(), "in-process reference env could not be made");
    if (!Ref.isOk())
      return;
    core::CompilerEnv &E = **Ref;
    size_t OrderFree = 0, Steps = 0;
    for (const EpisodeRecord &Rec : Records) {
      std::string Who = "tenant" + std::to_string(Rec.Tenant) + " " + Rec.Uri;
      E.setBenchmark(Rec.Uri);
      auto First = E.reset();
      L.expect(First.isOk() && digestFirst(*First) == Rec.ResetDigest,
               Who + ": reset observation differs from in-process");
      if (!First.isOk())
        continue;
      for (size_t S = 0; S < Rec.Actions.size(); ++S) {
        const bool Full = S < Rec.FirstReordered;
        OrderFree += !Full;
        ++Steps;
        auto Step = E.step({Rec.Actions[S]}, kExtraSpaces);
        L.expect(Step.isOk() && stepDigest(*Step, Full) == Rec.StepDigests[S],
                 Who + ": step " + std::to_string(S) +
                     (Full ? " observations/reward" : " reward/InstCount") +
                     " differ from in-process");
        if (!Step.isOk())
          break;
      }
      auto Ir = E.rawObservations({"Ir"});
      L.expect(Ir.isOk() &&
                   countIrInstructions((*Ir)[0].Str) == Rec.FinalInstCount,
               Who + ": InstCount total != instruction lines of the final IR");
    }
    std::printf("checked %zu steps, %zu after licm on reward and InstCount "
                "total only\n",
                Steps, OrderFree);
    Records.clear();
  }

  const char *latencyOp() const override { return "step"; }
  const char *resetOp() const override { return "reset"; }
  const char *wireCounter() const override { return "cg_net_bytes_total"; }
  double roundsPerSecond() const override { return kRoundsPerSecond; }

  std::string describe() const override {
    std::ostringstream OS;
    OS << "tenant-serving: gateway on a Unix socket over 2 shards, " << T
       << " tenants x " << TenantUris[0].size() << " benchmarks (";
    for (size_t I = 0; I < kStrata.size(); ++I)
      OS << (I ? ", " : "") << kStrata[I].Dataset + 12 << " x"
         << kStrata[I].Count;
    OS << "), " << kEpisodesPerRound << " episodes per tenant per round, "
       << kEpisodeSteps << "-step episodes, Autophase + InstCount + Programl";
    return OS.str();
  }

private:
  static uint64_t digestFirst(const service::Observation &Obs) {
    Digest D;
    digestObservation(D, Obs);
    return D.value();
  }

  /// Tenant \p I's share of round \p R: kEpisodesPerRound episodes, each
  /// reset onto the tenant's next benchmark (the first one after set-up
  /// continues from set-up's reset).
  Status runTenant(size_t I, size_t R, RoundLog &Log,
                   std::vector<EpisodeRecord> &Recs) {
    core::CompilerEnv &E = *Clients[I];
    const std::vector<std::string> &Uris = TenantUris[I];
    const AgentActions Choices(E.actionSpace());
    for (size_t Ep = 0; Ep < kEpisodesPerRound; ++Ep) {
      const size_t Index = R * kEpisodesPerRound + Ep;
      EpisodeRecord Rec;
      Rec.Uri = Uris[Index % Uris.size()];
      Rec.Tenant = I;
      if (Primed && Ep == 0) {
        Rec.ResetDigest = FirstReset[I];
      } else {
        E.setBenchmark(Rec.Uri);
        auto First = timedOp(Log, "reset", [&] { return E.reset(); });
        CG_RETURN_IF_ERROR(First.status());
        Rec.ResetDigest = digestFirst(*First);
      }
      Rng Gen(seedOf({O.Seed, I, fnv1a(Rec.Uri), Index}));
      for (int S = 0; S < kEpisodeSteps; ++S) {
        int A = static_cast<int>(Gen.bounded(Choices.size()));
        auto Step =
            timedOp(Log, "step", [&] { return E.step({A}, kExtraSpaces); });
        CG_RETURN_IF_ERROR(Step.status());
        if (Choices.reorders(A))
          Rec.FirstReordered = std::min(Rec.FirstReordered, Rec.Actions.size());
        Rec.Actions.push_back(A);
        Rec.StepDigests.push_back(
            stepDigest(*Step, Rec.Actions.size() <= Rec.FirstReordered));
        Rec.FinalInstCount = instCountTotal(*Step);
        ++Log.Units;
        ++Log.Steps;
        if (Rec.FinalInstCount > kSizeGuard)
          break;
      }
      Recs.push_back(std::move(Rec));
    }
    return Status::ok();
  }

  Options O;
  size_t T;
  std::vector<std::vector<std::string>> TenantUris;
  std::string SocketPath;
  std::unique_ptr<gateway::Gateway> Gw;
  std::vector<std::unique_ptr<core::CompilerEnv>> Clients;
  std::vector<uint64_t> FirstReset;
  bool Primed = false;
  std::vector<EpisodeRecord> Records;
};

} // namespace

std::unique_ptr<Workload> makeTenantServing(const Options &O) {
  return std::make_unique<TenantServing>(O);
}

} // namespace perfbench
