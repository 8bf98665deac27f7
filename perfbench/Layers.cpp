//===- perfbench/Layers.cpp -----------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

using compiler_gym::telemetry::SpanRecord;

namespace {

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

/// Duration of \p S minus the union of its children's intervals, in ms.
double selfMs(const SpanRecord &S, const std::vector<const SpanRecord *> &Kids) {
  const uint64_t Lo = S.StartUs, Hi = S.StartUs + S.DurUs;
  std::vector<std::pair<uint64_t, uint64_t>> Iv;
  for (const SpanRecord *C : Kids) {
    uint64_t A = std::max(Lo, C->StartUs);
    uint64_t B = std::min(Hi, C->StartUs + C->DurUs);
    if (B > A)
      Iv.emplace_back(A, B);
  }
  std::sort(Iv.begin(), Iv.end());
  uint64_t Covered = 0, End = Lo;
  for (const auto &[A, B] : Iv) {
    uint64_t From = std::max(A, End);
    if (B > From) {
      Covered += B - From;
      End = B;
    }
  }
  return static_cast<double>(S.DurUs - std::min(Covered, S.DurUs)) / 1000.0;
}

} // namespace

void LayerAccumulator::add(const std::vector<SpanRecord> &Spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord *>> Kids;
  for (const SpanRecord &S : Spans)
    if (S.ParentId)
      Kids[S.ParentId].push_back(&S);
  static const std::vector<const SpanRecord *> None;
  auto kidsOf = [&](const SpanRecord &S) -> const std::vector<const SpanRecord *> & {
    auto It = Kids.find(S.SpanId);
    return It == Kids.end() ? None : It->second;
  };

  for (const SpanRecord &S : Spans) {
    const std::string &N = S.Name;
    const double Ms = static_cast<double>(S.DurUs) / 1000.0;
    if (N == "service:start_session") {
      SumMs["start_session"] += Ms;
      ++Count["start_session"];
    } else if (N == "service:step") {
      SumMs["service_step"] += Ms;
    } else if (N == "session.apply_actions") {
      SumMs["apply"] += selfMs(S, kidsOf(S));
    } else if (startsWith(N, "pass:")) {
      SumMs["passes"] += selfMs(S, kidsOf(S));
    } else if (startsWith(N, "feature:")) {
      SumMs["features"] += selfMs(S, kidsOf(S));
    } else if (startsWith(N, "observe:")) {
      SumMs["observe"] += selfMs(S, kidsOf(S));
    } else if (N == "encode.reply" || N == "delta.encode") {
      SumMs["encode"] += selfMs(S, kidsOf(S));
    } else if (N == "delta.apply") {
      SumMs["delta_apply"] += Ms;
    } else if (N == "env.step") {
      SumMs["env_step"] += Ms;
    } else if (N == "env.fork") {
      SumMs["fork"] += Ms;
    } else if (N == "env.rebase") {
      SumMs["rebase"] += Ms;
    } else if (N == "rpc:step") {
      for (const SpanRecord *C : kidsOf(S))
        if (C->Name == "service:step") {
          SumMs["hop"] += Ms - static_cast<double>(C->DurUs) / 1000.0;
          ++Count["hop"];
        }
    } else if (N == "pool.reset_all") {
      SumMs["pool_ops"] += Ms;
    } else if (N == "pool.step_batch" || N == "pool.fanout") {
      SumMs["pool_ops"] += Ms;
      if (N == "pool.fanout")
        SumMs["fanout"] += Ms;
      // Lock-step wait: the batch lasts as long as its slowest worker; the
      // straggler wait is what it lasts beyond the median worker's busy
      // time.
      std::map<uint32_t, double> Busy;
      for (const SpanRecord *C : kidsOf(S))
        Busy[C->ThreadId] += static_cast<double>(C->DurUs) / 1000.0;
      std::vector<double> B;
      for (const auto &[Thread, T] : Busy)
        B.push_back(T);
      if (!B.empty()) {
        SumMs["straggler"] += std::max(0.0, Ms - quantile(B, 0.5));
        SumMs["lockstep"] += Ms;
      }
    }
  }
}

std::vector<Metric> LayerAccumulator::metrics(const CounterSnap &D,
                                              uint64_t Steps,
                                              size_t PoolWorkers,
                                              double TraceOverheadRatio,
                                              const CallTimes &Calls) const {
  auto sum = [&](const char *K) {
    auto It = SumMs.find(K);
    return It == SumMs.end() ? 0.0 : It->second;
  };
  // Means, not medians: span durations are whole microseconds, and a
  // median of them would repeat exactly from run to run.
  auto mean = [&](const char *K) {
    auto It = Count.find(K);
    return It == Count.end() ? 0.0 : sum(K) / static_cast<double>(It->second);
  };
  const double N = static_cast<double>(Steps);
  auto perStep = [&](double V) { return ratio(V, N); };
  auto hitRatio = [&](const char *Family, const char *Hit, const char *Miss) {
    double H = static_cast<double>(D.sum(Family, Hit));
    double M = static_cast<double>(D.sum(Family, Miss));
    return ratio(H, H + M);
  };
  double QueueWaitMs = 0.0;
  for (const auto &[Key, CS] : D.Histograms)
    if (startsWith(Key, "cg_pool_queue_wait_us{"))
      QueueWaitMs += CS.second / 1000.0;
  const double PoolTime = sum("pool_ops") * static_cast<double>(PoolWorkers);
  const double FanoutTime = sum("fanout") * static_cast<double>(PoolWorkers);

  return {
      {"datasets.resolve_ms", quantile(Calls.ResolveMs, 0.5), "ms"},
      {"ir.parse_ms", quantile(Calls.ParseMs, 0.5), "ms"},
      {"service.start_session_ms", mean("start_session"), "ms"},
      {"service.apply_ms_per_step", perStep(sum("apply")), "ms"},
      {"passes.self_ms_per_step", perStep(sum("passes")), "ms"},
      {"passes.runs_per_step",
       perStep(static_cast<double>(D.sum("cg_passes_run_total"))), "count"},
      {"analysis.lookup_hit_ratio",
       hitRatio("cg_analysis_lookups_total", "outcome=hit", "outcome=miss"),
       "ratio"},
      {"domtree.incremental_ratio",
       hitRatio("cg_domtree_updates_total", "kind=incremental", "kind=full"),
       "ratio"},
      {"features.self_share", ratio(sum("features"), sum("service_step")),
       "ratio"},
      {"features.recomputes_per_step",
       perStep(static_cast<double>(D.sum("cg_feature_recomputes_total"))),
       "count"},
      {"service.observe_ms_per_step", perStep(sum("observe")), "ms"},
      {"service.encode_ms_per_step", perStep(sum("encode")), "ms"},
      {"service.delta_reply_ratio",
       hitRatio("cg_service_observation_replies_total", "encoding=delta",
                "encoding=full"),
       "ratio"},
      {"client.hop_ms", mean("hop"), "ms"},
      {"client.retries",
       static_cast<double>(D.sum("cg_client_retries_total")), "count"},
      {"core.delta_apply_share", ratio(sum("delta_apply"), sum("env_step")),
       "ratio"},
      {"core.rebase_share", ratio(sum("rebase"), FanoutTime), "ratio"},
      {"core.fork_share", ratio(sum("fork"), FanoutTime), "ratio"},
      {"core.replayed_actions",
       static_cast<double>(D.sum("cg_env_replayed_actions_total")), "count"},
      {"runtime.straggler_share", ratio(sum("straggler"), sum("lockstep")),
       "ratio"},
      {"runtime.queue_wait_share", ratio(QueueWaitMs, PoolTime), "ratio"},
      {"runtime.obs_cache_hit_ratio",
       hitRatio("cg_obs_cache_events_total", "event=hit", "event=miss"),
       "ratio"},
      {"snapshot.hit_ratio",
       hitRatio("cg_snapshot_store_hits_total", "outcome=hit", "outcome=miss"),
       "ratio"},
      {"snapshot.evictions",
       static_cast<double>(D.sum("cg_snapshot_store_evictions_total")),
       "count"},
      {"net.frames_per_step",
       perStep(static_cast<double>(D.sum("cg_net_frames_total"))), "count"},
      {"gateway.rejected",
       static_cast<double>(D.sum("cg_gateway_rejected_total")), "count"},
      {"trace.overhead_ratio", TraceOverheadRatio, "ratio"},
  };
}

} // namespace perfbench
