//===- perfbench/Corpus.cpp -----------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "datasets/DatasetRegistry.h"
#include "ir/Parser.h"
#include "util/Hash.h"

#include <algorithm>
#include <set>

namespace perfbench {

using namespace compiler_gym;

StatusOr<std::vector<std::vector<std::string>>>
drawStrata(const std::vector<Stratum> &S, Rng &Gen) {
  constexpr size_t kOversample = 4;
  const datasets::DatasetRegistry &Reg = datasets::DatasetRegistry::instance();
  std::vector<std::vector<std::string>> Out;
  for (const Stratum &St : S) {
    const datasets::Dataset *D = Reg.dataset(St.Dataset);
    if (!D)
      return notFound(std::string("no dataset ") + St.Dataset);
    const size_t Want = std::min<uint64_t>(St.Count * kOversample, D->size());
    // Small curated suites: a seeded shuffle of every name. Large
    // generator-backed datasets: distinct seeded indices.
    std::vector<std::string> Candidates;
    if (D->size() <= 4096) {
      std::vector<std::string> Names = D->benchmarkNames(D->size());
      std::shuffle(Names.begin(), Names.end(), Gen);
      for (size_t I = 0; I < Want; ++I)
        Candidates.push_back(D->name() + "/" + Names[I]);
    } else {
      std::set<uint64_t> Seen;
      while (Candidates.size() < Want) {
        uint64_t Index = Gen.bounded(D->size());
        if (Seen.insert(Index).second)
          Candidates.push_back(D->name() + "/" + std::to_string(Index));
      }
    }
    std::vector<std::pair<size_t, std::string>> BySize;
    for (const std::string &Uri : Candidates) {
      CG_ASSIGN_OR_RETURN(ResolvedBenchmark B, resolveBenchmark(Uri));
      BySize.emplace_back(B.Bench.IrText.size(), Uri);
    }
    std::sort(BySize.begin(), BySize.end());
    // Evenly spaced ranks of the middle half of the candidates by size.
    const size_t N = BySize.size();
    const size_t Band = std::min(N, std::max(St.Count, N / 2));
    const size_t Lo = (N - Band) / 2;
    std::vector<std::string> Kept;
    for (size_t I = 0; I < St.Count && I < N; ++I)
      Kept.push_back(BySize[Lo + (2 * I + 1) * Band / (2 * St.Count)].second);
    std::shuffle(Kept.begin(), Kept.end(), Gen);
    Out.push_back(std::move(Kept));
  }
  return Out;
}

namespace {

/// Runs \p F under a "bench:<Name>" span and, while tracing is on, adds its
/// wall time to \p Times (spans carry whole microseconds only).
template <typename Fn>
auto tracedCall(const char *Name, std::vector<double> &Times, Fn &&F) {
  telemetry::SpanScope Span(Name, "bench");
  const double T0 = nowMs();
  auto Result = F();
  if (Span.active())
    Times.push_back(nowMs() - T0);
  return Result;
}

} // namespace

CallTimes &callTimes() {
  static CallTimes Times;
  return Times;
}

StatusOr<ResolvedBenchmark> resolveBenchmark(const std::string &Uri) {
  ResolvedBenchmark Out;
  CG_ASSIGN_OR_RETURN(
      Out.Bench,
      tracedCall("bench:datasets.resolve", callTimes().ResolveMs, [&] {
        return datasets::DatasetRegistry::instance().resolve(Uri);
      }));
  Out.IrCount = countIrInstructions(Out.Bench.IrText);
  return Out;
}

StatusOr<std::unique_ptr<ir::Module>> parseIr(const std::string &IrText) {
  return tracedCall("bench:ir.parse", callTimes().ParseMs,
                    [&] { return ir::parseModule(IrText); });
}

StatusOr<ir::ExecutionResult> interpretIr(const std::string &IrText,
                                          const std::vector<int64_t> &Inputs) {
  CG_ASSIGN_OR_RETURN(std::unique_ptr<ir::Module> M, parseIr(IrText));
  ir::InterpreterOptions Opts;
  Opts.Args = Inputs;
  return ir::interpret(*M, Opts);
}

uint64_t seedOf(std::initializer_list<uint64_t> Parts) {
  uint64_t H = 0x5eed;
  for (uint64_t P : Parts)
    H = hashCombine(H, P);
  return H;
}

} // namespace perfbench
