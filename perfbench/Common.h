//===- perfbench/Common.h - Shared benchmark plumbing -----------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of the end-to-end benchmark shares: run
/// options, per-op-kind accounting, the timed-op helper (which also opens
/// the benchmark's own span around each call into a layer), the work
/// digest, counter deltas from the process-wide MetricsRegistry, and the
/// benchmark's independent IR instruction count.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "service/Message.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"
#include "util/Status.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using compiler_gym::Status;
using compiler_gym::StatusOr;

/// The agents' size guard: an episode ends early once its module passes
/// this many instructions. Inlining after unrolling can grow a module
/// twenty-fold in one step, and every later pass on it then takes seconds.
constexpr int64_t kSizeGuard = 4000;

/// Command-line settings of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// > 0: run exactly this many rounds instead of the number Seconds sets.
  int Rounds = 0;
};

/// Attempts, failures and successful latencies of one kind of operation.
struct OpKind {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<double> LatMs;
};

/// Order-sensitive 64-bit digest of the work a run did.
class Digest {
public:
  void add(uint64_t V);
  void add(double V);
  void add(std::string_view S);
  uint64_t value() const { return H; }
  std::string hex() const;

private:
  uint64_t H = 0;
};

/// What one round did: op accounting, the time the timed ops took, the
/// work units completed, and the round's digest.
struct RoundLog {
  std::map<std::string, OpKind> Ops;
  double TimedMs = 0.0;  ///< Sum of timed-op wall time (throughput base).
  uint64_t Units = 0;    ///< Steps, or candidates on autotune-fanout.
  uint64_t Steps = 0;    ///< Env steps (per-step layer normalisation).
  Digest Work;
};

double nowMs();

/// Runs \p Fn as one timed operation of kind \p Kind: records its latency
/// (on success) or a failure, adds it to the round's timed wall time, and
/// wraps it in a "bench:<Kind>" span when tracing is on.
template <typename Fn>
auto timedOp(RoundLog &Log, const char *Kind, Fn &&F) -> decltype(F()) {
  compiler_gym::telemetry::SpanScope Span(
      compiler_gym::telemetry::Tracer::global().enabled()
          ? std::string("bench:") + Kind
          : std::string(),
      "bench");
  double T0 = nowMs();
  auto Result = F();
  double Ms = nowMs() - T0;
  OpKind &K = Log.Ops[Kind];
  ++K.Attempted;
  if (Result.isOk())
    K.LatMs.push_back(Ms);
  else
    ++K.Failed;
  Log.TimedMs += Ms;
  return Result;
}

/// Merges \p From into \p Into (op accounting and timed totals; digests
/// are kept per round by the caller).
void mergeOps(RoundLog &Into, const RoundLog &From);

/// cg_passes_run_total: passes run so far in this process.
uint64_t passesRun();

/// Point-in-time copy of every counter and histogram in the global
/// registry, keyed by "name{k=v,...}".
struct CounterSnap {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, std::pair<uint64_t, double>> Histograms; ///< count, sumUs.
  static CounterSnap take();
  /// Sum over every series of family \p Name whose labels include \p Label
  /// ("" = all series of the family).
  uint64_t sum(const std::string &Name, const std::string &Label = "") const;
};
/// Per-series difference (After - Before).
CounterSnap operator-(const CounterSnap &After, const CounterSnap &Before);
/// Per-series sum.
CounterSnap &operator+=(CounterSnap &Into, const CounterSnap &D);

/// Counter movement caused by the benchmark's own untimed fetches (see
/// untimedFetch); the metrics subtract it from their phase deltas.
CounterSnap &fetchCounters();

/// Runs \p F, a fetch the benchmark makes for its checks or its digest,
/// with tracing off, and adds the counter movement it causes to
/// fetchCounters(). Call it only while no operation is in flight, so the
/// movement is the fetch's alone.
template <typename Fn> auto untimedFetch(Fn &&F) -> decltype(F()) {
  compiler_gym::telemetry::Tracer &T =
      compiler_gym::telemetry::Tracer::global();
  const bool Was = T.enabled();
  T.setEnabled(false);
  const CounterSnap Before = CounterSnap::take();
  auto Result = F();
  fetchCounters() += CounterSnap::take() - Before;
  T.setEnabled(Was);
  return Result;
}

/// Instruction lines inside "func ... {" ... "}" bodies of printed IR: the
/// benchmark's own count, independent of the program's analyses.
int64_t countIrInstructions(std::string_view IrText);

/// Quantile (0..1) of \p V by linear interpolation; 0 for an empty input.
double quantile(std::vector<double> V, double Q);

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// Named metric with its unit, for printing.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Result of independent output checks.
struct CheckLog {
  uint64_t Passed = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< The first few, for the report.
  void expect(bool Ok, const std::string &What);
};

/// One workload: a serving stack plus a seeded, round-structured schedule.
class Workload {
public:
  virtual ~Workload() = default;
  /// Resolves the corpus and precomputes the check references (untimed).
  virtual Status prepare() = 0;
  /// Builds the stack and brings every env to its first observation.
  /// Variant 0 is the stack the timed phase uses; other variants may bring
  /// it up onto a different first group of benchmarks, so that the median
  /// set-up time averages over several.
  virtual Status setUp(size_t Variant) = 0;
  /// Destroys the stack built by setUp().
  virtual void tearDown() = 0;
  /// Runs round \p R of the schedule; the work of a round depends only on
  /// the seed and R.
  virtual Status runRound(size_t R, RoundLog &Log) = 0;
  /// Independent output checks over what the rounds recorded. Runs outside
  /// the timed phase.
  virtual void check(CheckLog &Log) = 0;
  /// Which op kinds feed the latency and reset metrics.
  virtual const char *latencyOp() const = 0;
  virtual const char *resetOp() const = 0;
  /// The counter family wire_bytes_per_op is read from.
  virtual const char *wireCounter() const { return "cg_wire_bytes_total"; }
  /// Rounds per second of --seconds: fixes the work of a run, so that it
  /// depends on the seed and --seconds only. Calibrated to take about
  /// --seconds of timed operations on a 4-vCPU machine.
  virtual double roundsPerSecond() const = 0;
  /// Extra lines describing the corpus / schedule (printed, not parsed).
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> makeRlRollouts(const Options &O);
std::unique_ptr<Workload> makeAutotuneFanout(const Options &O);
std::unique_ptr<Workload> makeTenantServing(const Options &O);

/// Whether round \p R's outputs are kept for the independent checks: round
/// 0 and every power of two, so check time grows with the log of the
/// number of rounds a run fits in.
inline bool checkedRound(size_t R) { return (R & (R - 1)) == 0; }

/// Worker / client-thread count: the machine's hardware threads, capped.
size_t loadThreads();

/// The agents' actions: the whole action space, with the two that reorder
/// IR marked. licm and licm-promote hoist in the iteration order of an
/// unordered set of block pointers, so two replays of one action sequence
/// can end in IR that differs in instruction order (IR text, IR hash,
/// ProGraML node order, rarely Autophase), while the instruction count, and
/// so every reward, stays the same. Replay checks of sequences that contain
/// them compare only the order-free quantities.
class AgentActions {
public:
  explicit AgentActions(const compiler_gym::service::ActionSpace &Space);
  size_t size() const { return Reorders.size(); }
  bool reorders(int A) const { return Reorders[static_cast<size_t>(A)]; }
  bool reorders(const std::vector<int> &Actions) const;
  /// loop-unroll<N> and inline<N>.
  bool unrolls(int A) const { return Unrolls[static_cast<size_t>(A)]; }
  bool inlines(int A) const { return Inlines[static_cast<size_t>(A)]; }

private:
  std::vector<bool> Reorders, Unrolls, Inlines;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
