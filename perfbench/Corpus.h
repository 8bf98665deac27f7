//===- perfbench/Corpus.h - Seeded benchmark corpora ------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded draws of benchmark URIs from the built-in datasets, and the
/// benchmark's own resolve/parse calls into the datasets and IR layers
/// (each under a "bench:" span, the source of the datasets.resolve_ms and
/// ir.parse_ms layer metrics).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include "Common.h"

#include "datasets/Benchmark.h"
#include "ir/Interpreter.h"
#include "ir/Module.h"
#include "util/Rng.h"

namespace perfbench {

/// One stratum of a corpus: \p Count distinct benchmarks of \p Dataset
/// ("benchmark://csmith-v0").
struct Stratum {
  const char *Dataset;
  size_t Count;
};

/// Draws the strata's benchmarks with \p Gen. Returns one URI list per
/// stratum, in a seeded order. Each stratum is drawn size-balanced: four
/// times its count of candidates are drawn and resolved, and the benchmarks
/// at evenly spaced ranks of the middle half by IR size are kept, so the
/// make-up of a corpus varies less from seed to seed than a plain draw.
StatusOr<std::vector<std::vector<std::string>>>
drawStrata(const std::vector<Stratum> &S, compiler_gym::Rng &Gen);

/// A resolved benchmark plus the benchmark's own instruction count of it.
struct ResolvedBenchmark {
  compiler_gym::datasets::Benchmark Bench;
  int64_t IrCount = 0;
};

/// Wall times (ms) of the resolve and parse calls below made while tracing
/// was on: the samples of the datasets.resolve_ms and ir.parse_ms metrics.
struct CallTimes {
  std::vector<double> ResolveMs;
  std::vector<double> ParseMs;
};
CallTimes &callTimes();

/// DatasetRegistry::resolve under a "bench:datasets.resolve" span.
StatusOr<ResolvedBenchmark> resolveBenchmark(const std::string &Uri);

/// ir::parseModule under a "bench:ir.parse" span.
StatusOr<std::unique_ptr<compiler_gym::ir::Module>>
parseIr(const std::string &IrText);

/// Runs \p IrText on the interpreter with the benchmark's inputs.
StatusOr<compiler_gym::ir::ExecutionResult>
interpretIr(const std::string &IrText, const std::vector<int64_t> &Inputs);

/// Mixes values into a 64-bit seed.
uint64_t seedOf(std::initializer_list<uint64_t> Parts);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
