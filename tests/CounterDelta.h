//===- tests/CounterDelta.h - Scoped registry counter deltas ----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every count the runtime keeps (RPCs, retries, recoveries, cache events,
/// restores, ...) lives in one place: the process-wide
/// telemetry::MetricsRegistry. Tests and benches read a count as the
/// delta of its series over a bracket of work:
///
///   CounterDelta D;                       // snapshot at construction
///   ... run the operation ...
///   EXPECT_EQ(D("cg_client_rpcs_total"), 2u);
///   EXPECT_EQ(D("cg_obs_cache_events_total", {{"event", "hit"}}), 1u);
///
/// A series is named by its name and its exact label set. A series that
/// was never registered reads 0, so a misspelt name would pass vacuously;
/// scripts/check_metric_names.py rejects names no file under src/
/// registers. While MetricsRegistry::setEnabled(false) is in force nothing
/// is counted and every delta reads 0.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_TESTS_COUNTERDELTA_H
#define COMPILER_GYM_TESTS_COUNTERDELTA_H

#include "telemetry/MetricsRegistry.h"

#include <cstdint>
#include <string>

namespace compiler_gym {

class CounterDelta {
public:
  CounterDelta() : Base(telemetry::MetricsRegistry::global().snapshot()) {}

  /// Increments of series (\p Name, \p L) since construction (or reset()).
  uint64_t operator()(const std::string &Name,
                      const telemetry::Labels &L = {}) const {
    return valueIn(telemetry::MetricsRegistry::global().snapshot(), Name, L) -
           valueIn(Base, Name, L);
  }

  /// Starts a new bracket at the current values.
  void reset() { Base = telemetry::MetricsRegistry::global().snapshot(); }

private:
  static uint64_t valueIn(const telemetry::MetricsSnapshot &S,
                          const std::string &Name,
                          const telemetry::Labels &L) {
    for (const telemetry::CounterSample &C : S.Counters)
      if (C.Name == Name && C.L == L)
        return C.Value;
    return 0;
  }

  telemetry::MetricsSnapshot Base;
};

} // namespace compiler_gym

#endif // COMPILER_GYM_TESTS_COUNTERDELTA_H
