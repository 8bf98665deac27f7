//===- runtime/ObservationCache.cpp ---------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ObservationCache.h"

#include "telemetry/MetricsRegistry.h"
#include "util/Hash.h"

#include <algorithm>

using namespace compiler_gym;
using namespace compiler_gym::runtime;

namespace {

// One cache is usually shared by a whole broker, but several can coexist
// (tests, pools); the registry series aggregates across all of them.
telemetry::Counter &cacheEvent(const char *Kind) {
  static telemetry::MetricsRegistry &M = telemetry::MetricsRegistry::global();
  static const char *Help = "Cross-session observation cache events";
  static telemetry::Counter &Hits =
      M.counter("cg_obs_cache_events_total", {{"event", "hit"}}, Help);
  static telemetry::Counter &Misses =
      M.counter("cg_obs_cache_events_total", {{"event", "miss"}}, Help);
  static telemetry::Counter &Evictions =
      M.counter("cg_obs_cache_events_total", {{"event", "eviction"}}, Help);
  if (Kind[0] == 'h')
    return Hits;
  if (Kind[0] == 'm')
    return Misses;
  return Evictions;
}

} // namespace

ObservationCache::ObservationCache(ObservationCacheOptions Opts)
    : Opts(Opts), Stripes(std::max<size_t>(1, Opts.NumStripes)) {
  this->Opts.NumStripes = Stripes.size();
  this->Opts.CapacityPerStripe = std::max<size_t>(1, Opts.CapacityPerStripe);
}

uint64_t ObservationCache::entryKey(uint64_t StateKey,
                                    const std::string &SpaceName) {
  return hashCombine(StateKey, fnv1a(SpaceName));
}

bool ObservationCache::lookup(uint64_t StateKey, const std::string &SpaceName,
                              service::Observation &Out) {
  uint64_t Key = entryKey(StateKey, SpaceName);
  Stripe &S = stripeFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Map.find(Key);
  if (It == S.Map.end()) {
    cacheEvent("miss").inc();
    return false;
  }
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second); // Promote to MRU.
  Out = It->second->Obs;
  cacheEvent("hit").inc();
  return true;
}

void ObservationCache::insert(uint64_t StateKey, const std::string &SpaceName,
                              const service::Observation &Obs) {
  uint64_t Key = entryKey(StateKey, SpaceName);
  Stripe &S = stripeFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Map.find(Key);
  if (It != S.Map.end()) {
    // Another worker computed it concurrently; refresh recency only.
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return;
  }
  S.Lru.push_front(Entry{Key, Obs});
  S.Map.emplace(Key, S.Lru.begin());
  if (S.Lru.size() > Opts.CapacityPerStripe) {
    S.Map.erase(S.Lru.back().Key);
    S.Lru.pop_back();
    cacheEvent("eviction").inc();
  }
}

size_t ObservationCache::size() const {
  size_t Total = 0;
  for (const Stripe &S : Stripes) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Total += S.Lru.size();
  }
  return Total;
}

void ObservationCache::clear() {
  for (Stripe &S : Stripes) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Lru.clear();
    S.Map.clear();
  }
}
