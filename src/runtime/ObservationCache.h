//===- runtime/ObservationCache.h - Sharded observation LRU -----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sharded, mutex-striped LRU cache of computed observations, keyed by
/// (session state hash, observation space). Pool workers repeatedly visit
/// identical compiler states — every reset() of the same benchmark, every
/// shared action prefix across search candidates — and the expensive
/// feature extractors (Autophase, InstCount, ProGraML) recompute the same
/// vectors each time. One cache instance is shared by every shard of a
/// ServiceBroker; striping keeps the shards from serializing on a single
/// mutex.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_RUNTIME_OBSERVATIONCACHE_H
#define COMPILER_GYM_RUNTIME_OBSERVATIONCACHE_H

#include "service/CompilerService.h"

#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace compiler_gym {
namespace runtime {

struct ObservationCacheOptions {
  size_t NumStripes = 16;        ///< Lock stripes (power of two preferred).
  size_t CapacityPerStripe = 256; ///< Entries per stripe before LRU eviction.
};

/// Thread-safe sharded LRU over (stateKey, observation space) -> Observation.
class ObservationCache : public service::ObservationCacheBase {
public:
  explicit ObservationCache(ObservationCacheOptions Opts = {});

  bool lookup(uint64_t StateKey, const std::string &SpaceName,
              service::Observation &Out) override;
  void insert(uint64_t StateKey, const std::string &SpaceName,
              const service::Observation &Obs) override;

  /// Hits, misses and evictions are counted (across every instance) in
  /// the cg_obs_cache_events_total{event} registry series.

  /// Total entries across all stripes (takes every stripe lock).
  size_t size() const;
  size_t capacity() const { return Opts.NumStripes * Opts.CapacityPerStripe; }

  void clear();

private:
  struct Entry {
    uint64_t Key;
    service::Observation Obs;
  };
  struct Stripe {
    mutable std::mutex Mutex;
    std::list<Entry> Lru; ///< Front = most recently used.
    std::unordered_map<uint64_t, std::list<Entry>::iterator> Map;
  };

  Stripe &stripeFor(uint64_t Key) {
    return Stripes[Key % Stripes.size()];
  }
  const Stripe &stripeFor(uint64_t Key) const {
    return Stripes[Key % Stripes.size()];
  }
  static uint64_t entryKey(uint64_t StateKey, const std::string &SpaceName);

  ObservationCacheOptions Opts;
  std::vector<Stripe> Stripes;
};

} // namespace runtime
} // namespace compiler_gym

#endif // COMPILER_GYM_RUNTIME_OBSERVATIONCACHE_H
