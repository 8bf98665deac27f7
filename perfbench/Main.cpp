//===- perfbench/Main.cpp - End-to-end benchmark entry point ----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <rl-rollouts|autotune-fanout|tenant-serving>
///           --seed <n> --seconds <s> --trace <0|1> [--rounds <n>]
///
/// One workload per process (the parsed-benchmark cache, the snapshot
/// store and the metrics registry are process-global). The run resolves
/// the seeded corpus, sets the serving stack up kSetupReps times (setup_s
/// is the median), runs a fixed number of rounds of the seeded schedule
/// (the workload's calibrated rounds per second times --seconds, so the
/// work depends on the seed and --seconds only), checks the outputs against
/// computations made outside the program, and prints the metrics. The last
/// line of stdout is one JSON object: {"correct", "attempted", "failed",
/// "metrics"} — the end-to-end metrics with --trace 0, the per-layer
/// metrics with --trace 1. A traced run sets up once, runs half its rounds
/// untraced and half traced, writes the first traced round as a Chrome
/// trace, and reports the ratio of the two throughputs.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Corpus.h"
#include "Layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace perfbench;
using namespace compiler_gym;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<rl-rollouts|autotune-fanout|tenant-serving> --seed <n> "
               "--seconds <s> --trace <0|1> [--rounds <n>]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
    } else if (A == "--trace") {
      O.Trace = std::strtol(V, &End, 10) != 0;
    } else if (A == "--rounds") {
      O.Rounds = static_cast<int>(std::strtol(V, &End, 10));
    } else {
      usage(("unknown argument " + A).c_str());
    }
    if (End && *End)
      usage(("malformed value for " + A).c_str());
  }
  if (O.Workload.empty())
    usage("--workload is required");
  if (!(O.Seconds > 0.0))
    usage("--seconds must be positive");
  return O;
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "rl-rollouts")
    return makeRlRollouts(O);
  if (O.Workload == "autotune-fanout")
    return makeAutotuneFanout(O);
  if (O.Workload == "tenant-serving")
    return makeTenantServing(O);
  usage(("unknown workload '" + O.Workload + "'").c_str());
}

[[noreturn]] void die(const char *Stage, const Status &S) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", Stage,
               S.toString().c_str());
  std::exit(1);
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(O);
  telemetry::Tracer &Tracer = telemetry::Tracer::global();
  Tracer.setCapacity(size_t{1} << 20);
  LayerAccumulator Layers;

  // Corpus resolution and check references (traced in a traced run: the
  // datasets.resolve_ms and ir.parse_ms layer metrics come from here).
  Tracer.setEnabled(O.Trace);
  Status Prepared = W->prepare();
  Tracer.setEnabled(false);
  Tracer.clear();
  if (!Prepared.isOk())
    die("corpus preparation", Prepared);
  std::printf("%s\n", W->describe().c_str());
  std::printf("seed %llu, %.3g s, trace %d\n",
              static_cast<unsigned long long>(O.Seed), O.Seconds,
              O.Trace ? 1 : 0);

  // Set-up, several times; the last stack stays up for the timed phase.
  constexpr int kSetupReps = 21;
  const int SetupReps = O.Trace ? 1 : kSetupReps;
  std::vector<double> SetupS;
  for (int I = 0; I < SetupReps; ++I) {
    double T0 = nowMs();
    Status S = W->setUp(static_cast<size_t>(SetupReps - 1 - I));
    SetupS.push_back((nowMs() - T0) / 1000.0);
    if (!S.isOk())
      die("set-up", S);
    if (I + 1 < SetupReps)
      W->tearDown();
  }
  std::printf("set-up s:");
  for (double S : SetupS)
    std::printf(" %.4f", S);
  std::printf("\n");

  // Timed phase: a fixed number of whole rounds.
  const size_t Rounds =
      O.Rounds > 0 ? static_cast<size_t>(O.Rounds)
                   : std::max<size_t>(2, static_cast<size_t>(std::lround(
                                             O.Seconds * W->roundsPerSecond())));
  size_t NextRound = 0;
  Digest RunDigest; ///< Folds every round's digest, in order.
  Status RunStatus = Status::ok();
  std::vector<double> RoundRates; ///< Units per second of each round.
  std::string TracePath;
  auto runPhase = [&](size_t EndRound, bool Traced, RoundLog &Phase) {
    Tracer.setEnabled(Traced);
    while (RunStatus.isOk() && NextRound < EndRound) {
      RoundLog Log;
      RunStatus = W->runRound(NextRound, Log);
      if (Traced) {
        if (TracePath.empty()) {
          // The first traced round, as Chrome trace-event JSON (Perfetto).
          TracePath = "perfbench-trace-" + O.Workload + "-" +
                      std::to_string(O.Seed) + ".json";
          std::ofstream(TracePath) << Tracer.exportChromeTrace();
          std::printf("trace of round %zu written to %s\n", NextRound,
                      TracePath.c_str());
        }
        Layers.add(Tracer.snapshotSpans());
        Tracer.clear();
      }
      RunDigest.add(Log.Work.value());
      std::printf("round %zu: %.3f s timed, %llu units, %s p50 %.3f ms%s\n",
                  NextRound, Log.TimedMs / 1000.0,
                  static_cast<unsigned long long>(Log.Units), W->latencyOp(),
                  quantile(Log.Ops[W->latencyOp()].LatMs, 0.5),
                  Traced ? " (traced)" : "");
      ++NextRound;
      if (Log.TimedMs > 0.0)
        RoundRates.push_back(static_cast<double>(Log.Units) * 1000.0 /
                             Log.TimedMs);
      mergeOps(Phase, Log);
    }
    Tracer.setEnabled(false);
  };

  // Counter deltas leave out the benchmark's own fetches.
  auto sinceStart = [](const CounterSnap &Start, const CounterSnap &Fetches) {
    return (CounterSnap::take() - Start) - (fetchCounters() - Fetches);
  };
  RoundLog Untraced, Traced;
  CounterSnap TraceDelta;
  const CounterSnap PhaseStart = CounterSnap::take();
  const CounterSnap PhaseFetches = fetchCounters();
  if (!O.Trace) {
    runPhase(Rounds, false, Untraced);
  } else {
    runPhase(std::max<size_t>(1, Rounds / 2), false, Untraced);
    const CounterSnap Before = CounterSnap::take();
    const CounterSnap Fetches = fetchCounters();
    runPhase(std::max<size_t>(2, Rounds), true, Traced);
    TraceDelta = sinceStart(Before, Fetches);
  }
  const uint64_t DroppedSpans = Tracer.droppedSpans();
  const CounterSnap PhaseDelta = sinceStart(PhaseStart, PhaseFetches);

  // Independent output checks (untimed).
  CheckLog Checks;
  const double CheckStart = nowMs();
  W->check(Checks);
  std::printf("checks took %.3f s\n", (nowMs() - CheckStart) / 1000.0);
  if (!RunStatus.isOk())
    std::printf("run stopped: %s\n", RunStatus.toString().c_str());
  Checks.expect(DroppedSpans == 0, "the tracer dropped spans");

  RoundLog All = Untraced;
  mergeOps(All, Traced);
  uint64_t Attempted = 0, Failed = 0;
  for (const auto &[Name, K] : All.Ops) {
    Attempted += K.Attempted;
    Failed += K.Failed;
    std::printf("op %-12s attempted %llu failed %llu p50 %.3f ms p90 %.3f ms\n",
                Name.c_str(), static_cast<unsigned long long>(K.Attempted),
                static_cast<unsigned long long>(K.Failed),
                quantile(K.LatMs, 0.5), quantile(K.LatMs, 0.9));
  }
  std::printf("rounds %zu, timed %.3f s, units %llu, steps %llu\n", NextRound,
              All.TimedMs / 1000.0, static_cast<unsigned long long>(All.Units),
              static_cast<unsigned long long>(All.Steps));
  std::printf("digest %s (%zu rounds)\n", RunDigest.hex().c_str(), NextRound);
  std::printf("checks passed %llu failed %llu\n",
              static_cast<unsigned long long>(Checks.Passed),
              static_cast<unsigned long long>(Checks.Failed));
  for (const std::string &F : Checks.Failures)
    std::printf("  FAIL %s\n", F.c_str());

  std::vector<Metric> Out;
  if (!O.Trace) {
    const std::vector<double> &Lat = All.Ops[W->latencyOp()].LatMs;
    const double WireBytes =
        static_cast<double>(PhaseDelta.sum(W->wireCounter()));
    Out = {
        {"setup_s", quantile(SetupS, 0.5), "s"},
        {"latency_p50_ms", quantile(Lat, 0.5), "ms"},
        {"reset_p50_ms", quantile(All.Ops[W->resetOp()].LatMs, 0.5), "ms"},
        {"wire_bytes_per_op", WireBytes / static_cast<double>(All.Units), "B"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    // Throughput and the tail vary too much from seed to seed on this
    // workload mix to carry a bound; they are printed for reading, not
    // compared.
    std::printf("throughput %.3f units/s (median over %zu rounds), "
                "%.3f rounds/s\n",
                quantile(RoundRates, 0.5), RoundRates.size(),
                static_cast<double>(NextRound) * 1000.0 / All.TimedMs);
    if (Lat.size() >= 1000)
      std::printf("latency p99 %.3f ms over %zu samples (%zu beyond it)\n",
                  quantile(Lat, 0.99), Lat.size(), Lat.size() / 100);
  } else {
    const double UntracedRate =
        static_cast<double>(Untraced.Units) / Untraced.TimedMs;
    const double TracedRate = static_cast<double>(Traced.Units) / Traced.TimedMs;
    Out = Layers.metrics(TraceDelta, Traced.Steps, loadThreads(),
                         UntracedRate > 0 ? TracedRate / UntracedRate : 0.0,
                         callTimes());
  }
  for (const Metric &M : Out)
    std::printf("metric %-30s %14.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  const bool Correct = Checks.Failed == 0;
  std::ostringstream J;
  J << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
    << ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I)
    J << (I ? ", " : "") << "\"" << Out[I].Name << "\": {\"value\": "
      << jsonNumber(Out[I].Value) << ", \"unit\": \"" << Out[I].Unit << "\"}";
  J << "}}";
  std::printf("%s\n", J.str().c_str());
  std::fflush(stdout);
  W->tearDown();
  return 0;
}
