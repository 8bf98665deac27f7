//===- perfbench/Common.cpp -----------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "util/Hash.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

using namespace compiler_gym;

void Digest::add(uint64_t V) { H = hashCombine(H, V); }

void Digest::add(double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof(Bits));
  add(Bits);
}

void Digest::add(std::string_view S) { H = hashCombine(H, fnv1a(S)); }

std::string Digest::hex() const {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(H));
  return Buf;
}

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void mergeOps(RoundLog &Into, const RoundLog &From) {
  for (const auto &[Name, K] : From.Ops) {
    OpKind &Dst = Into.Ops[Name];
    Dst.Attempted += K.Attempted;
    Dst.Failed += K.Failed;
    Dst.LatMs.insert(Dst.LatMs.end(), K.LatMs.begin(), K.LatMs.end());
  }
  Into.TimedMs += From.TimedMs;
  Into.Units += From.Units;
  Into.Steps += From.Steps;
}

namespace {

std::string seriesKey(const std::string &Name, const telemetry::Labels &L) {
  std::string Key = Name + "{";
  bool First = true;
  for (const auto &[K, V] : L) {
    if (!First)
      Key += ",";
    Key += K + "=" + V;
    First = false;
  }
  return Key + "}";
}

} // namespace

uint64_t passesRun() {
  return telemetry::MetricsRegistry::global()
      .counter("cg_passes_run_total")
      .value();
}

CounterSnap CounterSnap::take() {
  telemetry::MetricsSnapshot S = telemetry::MetricsRegistry::global().snapshot();
  CounterSnap Out;
  for (const telemetry::CounterSample &C : S.Counters)
    Out.Counters[seriesKey(C.Name, C.L)] = C.Value;
  for (const telemetry::HistogramSample &H : S.Histograms)
    Out.Histograms[seriesKey(H.Name, H.L)] = {H.Count, H.SumUs};
  return Out;
}

uint64_t CounterSnap::sum(const std::string &Name,
                          const std::string &Label) const {
  uint64_t Total = 0;
  const std::string Prefix = Name + "{";
  for (auto It = Counters.lower_bound(Prefix);
       It != Counters.end() && It->first.compare(0, Prefix.size(), Prefix) == 0;
       ++It)
    if (Label.empty() || It->first.find(Label) != std::string::npos)
      Total += It->second;
  return Total;
}

CounterSnap operator-(const CounterSnap &After, const CounterSnap &Before) {
  CounterSnap Out;
  for (const auto &[Key, V] : After.Counters) {
    auto It = Before.Counters.find(Key);
    Out.Counters[Key] = V - (It == Before.Counters.end() ? 0 : It->second);
  }
  for (const auto &[Key, V] : After.Histograms) {
    auto It = Before.Histograms.find(Key);
    std::pair<uint64_t, double> B =
        It == Before.Histograms.end() ? std::pair<uint64_t, double>{0, 0.0}
                                      : It->second;
    Out.Histograms[Key] = {V.first - B.first, V.second - B.second};
  }
  return Out;
}

CounterSnap &operator+=(CounterSnap &Into, const CounterSnap &D) {
  for (const auto &[Key, V] : D.Counters)
    Into.Counters[Key] += V;
  for (const auto &[Key, V] : D.Histograms) {
    Into.Histograms[Key].first += V.first;
    Into.Histograms[Key].second += V.second;
  }
  return Into;
}

CounterSnap &fetchCounters() {
  static CounterSnap Fetches;
  return Fetches;
}

int64_t countIrInstructions(std::string_view Ir) {
  int64_t Count = 0;
  bool InBody = false;
  size_t Pos = 0;
  while (Pos < Ir.size()) {
    size_t End = Ir.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Ir.size();
    std::string_view Line = Ir.substr(Pos, End - Pos);
    Pos = End + 1;
    if (!InBody) {
      InBody = Line.rfind("func ", 0) == 0 && !Line.empty() && Line.back() == '{';
      continue;
    }
    if (Line == "}") {
      InBody = false;
      continue;
    }
    // Block labels sit at column 0 ("entry:"); instructions are indented.
    if (Line.size() > 2 && Line[0] == ' ' && Line[1] == ' ' && Line[2] != ' ')
      ++Count;
  }
  return Count;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

void CheckLog::expect(bool Ok, const std::string &What) {
  if (Ok) {
    ++Passed;
    return;
  }
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(What);
}

size_t loadThreads() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  size_t Cpus = 4;
  if (::sched_getaffinity(0, sizeof(Set), &Set) == 0)
    Cpus = static_cast<size_t>(CPU_COUNT(&Set));
  return std::clamp<size_t>(Cpus, 1, 4);
}

AgentActions::AgentActions(const service::ActionSpace &Space) {
  for (const std::string &Name : Space.ActionNames) {
    Reorders.push_back(Name == "licm" || Name == "licm-promote");
    Unrolls.push_back(Name.rfind("loop-unroll<", 0) == 0);
    Inlines.push_back(Name.rfind("inline<", 0) == 0);
  }
}

bool AgentActions::reorders(const std::vector<int> &Actions) const {
  for (int A : Actions)
    if (reorders(A))
      return true;
  return false;
}

} // namespace perfbench
