//===- perfbench/Layers.h - Per-layer metrics from a traced run -*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the spans of a traced run (the program's own telemetry::Tracer
/// spans plus the benchmark's "bench:" spans) and the counter deltas of the
/// global MetricsRegistry into the per-layer metrics. A span's self time is
/// its duration minus the part of it that its child spans cover (children
/// on other threads included, overlaps counted once).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Common.h"
#include "Corpus.h"

namespace perfbench {

/// Accumulates span-derived quantities over batches of spans.
class LayerAccumulator {
public:
  /// Folds in one batch of completed spans (a whole round's worth, so every
  /// parent arrives with its children).
  void add(const std::vector<compiler_gym::telemetry::SpanRecord> &Spans);

  /// The per-layer metrics, normalised by \p Steps env step calls, using
  /// the counter deltas \p D of the traced phase and the benchmark's own
  /// timed resolve/parse calls \p Calls. \p PoolWorkers is the pool width.
  std::vector<Metric> metrics(const CounterSnap &D, uint64_t Steps,
                              size_t PoolWorkers, double TraceOverheadRatio,
                              const CallTimes &Calls) const;

private:
  std::map<std::string, double> SumMs;
  std::map<std::string, uint64_t> Count;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
