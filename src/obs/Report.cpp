//===- obs/Report.cpp -----------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"

#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <map>

using namespace dynfb;
using namespace dynfb::obs;

namespace {

/// Per-section aggregate over every occurrence, in first-appearance order.
struct SectionAggregate {
  std::string Section;
  uint64_t Pairs = 0;
  rt::Nanos LockOpNanos = 0;
  rt::Nanos WaitNanos = 0;
  rt::Nanos ExecNanos = 0;
};

std::vector<SectionAggregate> aggregateSections(const RunTrace &Trace) {
  std::vector<SectionAggregate> Out;
  std::map<std::string, size_t> Index;
  for (const SectionRecord &S : Trace.Sections) {
    auto [It, Inserted] = Index.emplace(S.Section, Out.size());
    if (Inserted)
      Out.push_back(SectionAggregate{S.Section, 0, 0, 0, 0});
    SectionAggregate &A = Out[It->second];
    A.Pairs += S.AcquireReleasePairs;
    A.LockOpNanos += S.LockOpNanos;
    A.WaitNanos += S.WaitNanos;
    A.ExecNanos += S.ExecNanos;
  }
  return Out;
}

std::string proportion(rt::Nanos Part, rt::Nanos Whole) {
  return Whole > 0 ? format("%.3f", static_cast<double>(Part) /
                                        static_cast<double>(Whole))
                   : "0.000";
}

} // namespace

std::string obs::renderLockingOverheadTable(const RunTrace &Trace) {
  Table T("Locking overhead (rebuilt from trace)");
  T.setHeader({"Section", "Acquire/Release Pairs", "Locking (s)",
               "Waiting (s)", "Waiting Proportion"});
  SectionAggregate Total;
  for (const SectionAggregate &A : aggregateSections(Trace)) {
    T.addRow({A.Section, withThousandsSep(A.Pairs),
              formatDouble(rt::nanosToSeconds(A.LockOpNanos), 3),
              formatDouble(rt::nanosToSeconds(A.WaitNanos), 3),
              proportion(A.WaitNanos, A.ExecNanos)});
    Total.Pairs += A.Pairs;
    Total.LockOpNanos += A.LockOpNanos;
    Total.WaitNanos += A.WaitNanos;
    Total.ExecNanos += A.ExecNanos;
  }
  T.addRow({"(all sections)", withThousandsSep(Total.Pairs),
            formatDouble(rt::nanosToSeconds(Total.LockOpNanos), 3),
            formatDouble(rt::nanosToSeconds(Total.WaitNanos), 3),
            proportion(Total.WaitNanos, Total.ExecNanos)});
  return T.renderText();
}

std::string obs::renderHottestLocksTable(const RunTrace &Trace,
                                         size_t MaxLocks) {
  std::vector<LockRecord> Locks = Trace.Locks;
  std::sort(Locks.begin(), Locks.end(),
            [](const LockRecord &A, const LockRecord &B) {
              if (A.WaitNanos != B.WaitNanos)
                return A.WaitNanos > B.WaitNanos;
              if (A.Section != B.Section)
                return A.Section < B.Section;
              return A.Object < B.Object;
            });
  Table T("Hottest locks (by accumulated waiting time)");
  T.setHeader({"Section", "Object", "Acquires", "Contended", "Waiting (s)"});
  const size_t Shown = std::min(Locks.size(), MaxLocks);
  for (size_t I = 0; I < Shown; ++I) {
    const LockRecord &L = Locks[I];
    T.addRow({L.Section, format("%llu",
                                static_cast<unsigned long long>(L.Object)),
              withThousandsSep(L.Acquires), withThousandsSep(L.Contended),
              formatDouble(rt::nanosToSeconds(L.WaitNanos), 4)});
  }
  std::string Out = T.renderText();
  if (Locks.size() > Shown)
    Out += format("  (%zu more locks not shown)\n", Locks.size() - Shown);
  return Out;
}

std::string obs::renderReport(const RunTrace &Trace,
                              const ReportOptions &Options) {
  std::string Out =
      format("run: app %s, policy %s, %u procs, total %s\n",
             Trace.Meta.App.c_str(), Trace.Meta.Policy.c_str(),
             Trace.Meta.Procs,
             formatSeconds(rt::nanosToSeconds(Trace.Meta.TotalNanos))
                 .c_str());
  if (Trace.Meta.Spec.Present) {
    // Full provenance from the recorded run_spec: everything dynfb-run
    // --replay uses to reconstruct the run (docs/REPLAY.md).
    const RunSpec &S = Trace.Meta.Spec;
    const std::string Machine =
        Trace.Meta.Machine.empty() ? "dash-flat" : Trace.Meta.Machine;
    std::string Dims = S.Dimensions.empty() ? "sync" : S.Dimensions;
    if (!S.Chunks.empty())
      Dims += " (chunks " + S.Chunks + ")";
    Out += format("provenance: backend %s, machine %s, scale %g, "
                  "dimensions %s\n",
                  Trace.Meta.Backend.c_str(), Machine.c_str(), S.Scale,
                  Dims.c_str());
    Out += format("provenance: sampling %s, production %s, repeats %lld "
                  "(%s)%s%s%s\n",
                  formatSeconds(rt::nanosToSeconds(S.SamplingNanos)).c_str(),
                  formatSeconds(rt::nanosToSeconds(S.ProductionNanos))
                      .c_str(),
                  static_cast<long long>(S.Repeats), S.Aggregate.c_str(),
                  S.Cutoff ? ", cutoff" : "", S.Ordering ? ", ordering" : "",
                  S.Spanning ? ", spanning" : "");
    std::string Rob;
    if (S.Hysteresis > 0)
      Rob += format(", hysteresis %g", S.Hysteresis);
    if (S.Drift > 0)
      Rob += format(", drift %g", S.Drift);
    if (S.SliceNanos > 0)
      Rob += ", slice " + formatSeconds(rt::nanosToSeconds(S.SliceNanos));
    if (S.QuarantineStrikes > 0)
      Rob += format(", quarantine %lld/%lld limit %g backoff %lld",
                    static_cast<long long>(S.QuarantineStrikes),
                    static_cast<long long>(S.QuarantineWindow),
                    S.QuarantineLimit,
                    static_cast<long long>(S.QuarantineBackoff));
    if (S.Watchdog > 0)
      Rob += format(", watchdog %lld limit %g",
                    static_cast<long long>(S.Watchdog), S.WatchdogLimit);
    if (!Rob.empty())
      Out += "provenance: robustness" + Rob.substr(1) + "\n";
    std::string Env;
    if (!S.PerturbSpec.empty())
      Env += ", perturb \"" + S.PerturbSpec + "\"";
    if (!S.TrafficSpec.empty())
      Env += ", traffic \"" + S.TrafficSpec + "\"";
    if (!S.CostOverrides.empty())
      Env += ", cost " + S.CostOverrides;
    if (S.TimeScale > 0)
      Env += format(", timescale %g", S.TimeScale);
    if (!Env.empty())
      Out += "provenance: environment" + Env.substr(1) + "\n";
  }
  Out += format("decisions: %zu events (%zu switches, %zu samples)\n",
                Trace.Decisions.size(),
                std::count_if(Trace.Decisions.begin(), Trace.Decisions.end(),
                              [](const DecisionEvent &E) {
                                return E.Kind == DecisionKind::Switch;
                              }),
                std::count_if(Trace.Decisions.begin(), Trace.Decisions.end(),
                              [](const DecisionEvent &E) {
                                return E.Kind == DecisionKind::Sample;
                              }));

  DecisionLog Timeline;
  for (const DecisionEvent &E : Trace.Decisions)
    if (Options.ShowSamples || E.Kind != DecisionKind::Sample)
      Timeline.append(E);
  if (!Timeline.empty()) {
    Out += "\npolicy timeline:\n";
    Out += Timeline.renderTimeline();
  }

  Out += "\n" + renderLockingOverheadTable(Trace);
  if (!Trace.Locks.empty())
    Out += "\n" + renderHottestLocksTable(Trace, Options.MaxLocks);
  return Out;
}
