//===- fb/Controller.cpp --------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
//
// With the robustness knobs at their defaults this file implements exactly
// the paper's algorithm; the hardening (repeat sampling with robust
// aggregation, switch hysteresis, drift-triggered early resampling,
// degenerate-measurement fallbacks) only engages through FeedbackConfig and
// when measurements degenerate -- situations the perturbation engine can
// now inject deliberately.
//
//===----------------------------------------------------------------------===//

#include "fb/Controller.h"

#include "obs/Metrics.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

using namespace dynfb;
using namespace dynfb::fb;
using namespace dynfb::rt;

namespace {

constexpr double NaN = std::numeric_limits<double>::quiet_NaN();

/// Run-wide controller counters in the global metrics registry: the
/// aggregate view of the per-occurrence counts SectionExecutionTrace
/// carries. Registered once, incremented with relaxed atomics.
struct FbCounters {
  obs::Counter &SampledIntervals =
      obs::globalMetrics().counter("fb.sampled_intervals");
  obs::Counter &DegenerateIntervals =
      obs::globalMetrics().counter("fb.degenerate_intervals");
  obs::Counter &Switches = obs::globalMetrics().counter("fb.switches");
  obs::Counter &HysteresisHolds =
      obs::globalMetrics().counter("fb.hysteresis_holds");
  obs::Counter &Fallbacks = obs::globalMetrics().counter("fb.fallbacks");
  obs::Counter &DriftResamples =
      obs::globalMetrics().counter("fb.drift_resamples");
  obs::Counter &QuarantineAdded =
      obs::globalMetrics().counter("fb.quarantine.added");
  obs::Counter &QuarantineReprobes =
      obs::globalMetrics().counter("fb.quarantine.reprobes");
  obs::Counter &QuarantineCleared =
      obs::globalMetrics().counter("fb.quarantine.cleared");
  obs::Counter &WatchdogResamples =
      obs::globalMetrics().counter("fb.watchdog.resamples");
  obs::Counter &Degraded = obs::globalMetrics().counter("fb.degraded");
};

FbCounters &fbCounters() {
  static FbCounters C;
  return C;
}

/// True when an interval produced a usable overhead measurement. Intervals
/// failing this would previously let a zero-duration measurement enter the
/// decision as a perfect 0.0 overhead (or poison downstream statistics with
/// NaN); the controller now discards and counts them instead.
bool isUsable(const OverheadStats &Stats) {
  return Stats.isMeasurable() && std::isfinite(Stats.totalOverhead());
}

/// The display labels of every version of \p Runner, in version order --
/// the index space sampling orders and history names resolve against.
std::vector<std::string> versionLabels(const rt::IntervalRunner &Runner) {
  std::vector<std::string> Labels;
  const unsigned N = Runner.numVersions();
  Labels.reserve(N);
  for (unsigned V = 0; V < N; ++V)
    Labels.push_back(Runner.versionLabel(V));
  return Labels;
}

/// Resolves a recorded best-version name against the current space's
/// labels. Exact label match first; labels of deduplicated versions are
/// "/"-joined descriptor names, so when the space changed since the name
/// was recorded, a version sharing any descriptor name component with the
/// recorded label still resolves. Returns nullopt when the name no longer
/// names any version (e.g. a chunked variant after the sched dimension was
/// dropped) -- stale knowledge is ignored, never misapplied.
std::optional<unsigned>
resolveVersionName(const std::string &Name,
                   const std::vector<std::string> &Labels) {
  for (unsigned V = 0; V < Labels.size(); ++V)
    if (Labels[V] == Name)
      return V;
  const std::vector<std::string> Wanted = splitString(Name, '/');
  for (unsigned V = 0; V < Labels.size(); ++V)
    for (const std::string &Part : splitString(Labels[V], '/'))
      for (const std::string &W : Wanted)
        if (Part == W)
          return V;
  return std::nullopt;
}

} // namespace

std::optional<unsigned> SectionExecutionTrace::dominantVersion() const {
  assertInvariants();
  if (ChosenVersions.empty())
    return std::nullopt;
  std::map<unsigned, unsigned> Counts;
  for (unsigned V : ChosenVersions)
    ++Counts[V];
  unsigned Best = ChosenVersions.front();
  unsigned BestCount = 0;
  for (const auto &[V, C] : Counts)
    if (C > BestCount) {
      Best = V;
      BestCount = C;
    }
  return Best;
}

void SectionExecutionTrace::assertInvariants() const {
  DYNFB_CHECK(EndNanos >= StartNanos,
              "section trace: end precedes start");
  DYNFB_CHECK(Total.ExecNanos >= 0 && Total.LockOpNanos >= 0 &&
                  Total.WaitNanos >= 0,
              "section trace: negative aggregate measurement");
  for (const Series &S : SampledOverheads.all())
    for (size_t I = 0; I < S.size(); ++I) {
      DYNFB_CHECK(std::isfinite(S.Values[I]) && S.Values[I] >= 0.0 &&
                      S.Values[I] <= 1.0,
                  "section trace: sampled overhead outside [0, 1]");
      DYNFB_CHECK(std::isfinite(S.Times[I]),
                  "section trace: non-finite sample time");
    }
  for (const auto &[Label, Stat] : EffectiveSamplingByVersion) {
    (void)Label;
    DYNFB_CHECK(std::isfinite(Stat.mean()) && Stat.mean() >= 0.0,
                "section trace: non-finite effective sampling statistic");
  }
}

std::vector<unsigned>
FeedbackController::samplingOrder(const std::vector<std::string> &Labels,
                                  const std::string &SectionName) const {
  const unsigned NumVersions = static_cast<unsigned>(Labels.size());
  std::vector<unsigned> Order;
  Order.reserve(NumVersions);

  // Policy ordering: the previously best version is sampled first, so a
  // still-acceptable measurement can cut sampling short. History names
  // descriptors, not indices, so it survives space changes. A name that no
  // longer resolves (e.g. the sched dimension changed across runs) is
  // diagnosed and counted, never silently dropped.
  if (Config.UsePolicyOrdering && History) {
    if (std::optional<std::string> Last = History->lastBest(SectionName)) {
      if (std::optional<unsigned> V = resolveVersionName(*Last, Labels))
        Order.push_back(*V);
      else
        noteHistoryMiss(SectionName, *Last);
    }
  }

  if (Config.EarlyCutoff) {
    // Extreme policies first (Section 4.5): the policy with the least
    // locking overhead and the one with the least waiting overhead bracket
    // the monotone overhead components.
    const unsigned Extremes[] = {NumVersions - 1, 0u};
    for (unsigned V : Extremes)
      if (std::find(Order.begin(), Order.end(), V) == Order.end())
        Order.push_back(V);
  }
  for (unsigned V = 0; V < NumVersions; ++V)
    if (std::find(Order.begin(), Order.end(), V) == Order.end())
      Order.push_back(V);
  return Order;
}

FeedbackController::ResilienceState &
FeedbackController::resilienceState(const std::string &SectionName,
                                    size_t NumVersions) {
  ResilienceState &RS = Resilience[SectionName];
  if (RS.Versions.size() < NumVersions)
    RS.Versions.resize(NumVersions);
  return RS;
}

bool FeedbackController::isExcluded(const ResilienceState &RS, unsigned V) {
  if (V >= RS.Versions.size())
    return false;
  const VersionHealth &H = RS.Versions[V];
  return H.Quarantined && RS.PhaseCounter < H.ReleasePhase;
}

bool FeedbackController::noteSampleHealth(const std::string &SectionName,
                                          ResilienceState &RS, unsigned V,
                                          const std::string &Label,
                                          std::optional<double> Overhead,
                                          rt::Nanos Now,
                                          SectionExecutionTrace &Trace) {
  VersionHealth &H = RS.Versions[V];
  const bool Bad = !Overhead || *Overhead > Config.QuarantineOverheadLimit;
  const unsigned MaxBackoff = std::max(1u, Config.QuarantineBackoffMaxPhases);

  if (H.Quarantined) {
    // This measurement was the decayed re-probe of a quarantined version.
    fbCounters().QuarantineReprobes.add();
    if (!Bad) {
      H.Quarantined = false;
      H.BackoffPhases = 0;
      H.StrikePhases.clear();
      ++Trace.Reprobes;
      fbCounters().QuarantineCleared.add();
      emit({.Kind = obs::DecisionKind::Reprobe, .TimeNanos = Now,
            .Section = SectionName, .Version = V, .Label = Label,
            .Overhead = *Overhead});
      return false;
    }
    // Failed re-probe: stay out for twice as long (bounded).
    H.BackoffPhases = std::min(H.BackoffPhases * 2, MaxBackoff);
    H.ReleasePhase = RS.PhaseCounter + H.BackoffPhases;
  } else if (!Bad) {
    return false;
  } else {
    // Strike: count it within the sliding window of recent sampling phases.
    H.StrikePhases.push_back(RS.PhaseCounter);
    const unsigned Window = std::max(1u, Config.QuarantineWindowPhases);
    const unsigned Oldest =
        RS.PhaseCounter >= Window ? RS.PhaseCounter - Window + 1 : 0;
    std::erase_if(H.StrikePhases, [&](unsigned P) { return P < Oldest; });
    if (H.StrikePhases.size() < Config.QuarantineStrikes)
      return false;
    H.Quarantined = true;
    H.BackoffPhases =
        std::min(std::max(1u, Config.QuarantineBackoffPhases), MaxBackoff);
    H.ReleasePhase = RS.PhaseCounter + H.BackoffPhases;
  }
  ++Trace.Quarantines;
  emit({.Kind = obs::DecisionKind::Quarantine, .TimeNanos = Now,
        .Section = SectionName, .Version = V, .Label = Label,
        .Overhead = Overhead.value_or(NaN), .Repeats = H.BackoffPhases,
        .Degenerate = static_cast<unsigned>(H.StrikePhases.size())});
  return true;
}

bool FeedbackController::noteProductionHealth(const std::string &SectionName,
                                              ResilienceState &RS, unsigned V,
                                              const std::string &Label,
                                              std::optional<double> Overhead,
                                              rt::Nanos Now,
                                              SectionExecutionTrace &Trace) {
  const bool Bad = !Overhead || *Overhead > Config.WatchdogOverheadLimit;
  if (!Bad) {
    // A healthy production interval resets both the streak and the
    // escalated streak requirement.
    RS.WatchdogBad = 0;
    RS.WatchdogThreshold = 0;
    return false;
  }
  ++RS.WatchdogBad;
  const unsigned Base = std::max(1u, Config.WatchdogBadSlices);
  const unsigned Threshold = RS.WatchdogThreshold ? RS.WatchdogThreshold : Base;
  if (RS.WatchdogBad < Threshold)
    return false;
  ++Trace.WatchdogResamples;
  emit({.Kind = obs::DecisionKind::WatchdogResample, .TimeNanos = Now,
        .Section = SectionName, .Version = V, .Label = Label,
        .Overhead = Overhead.value_or(NaN), .Degenerate = RS.WatchdogBad});
  RS.WatchdogThreshold = std::min(Threshold * 2, Base * 8);
  RS.WatchdogBad = 0;
  return true;
}

FeedbackController::BestPick
FeedbackController::pickBest(const std::vector<std::optional<double>> &Overheads,
                             std::optional<unsigned> Incumbent,
                             SectionExecutionTrace &Trace,
                             const ResilienceState *RS) const {
  // Least sampled overhead; ties resolve to the lowest version index, i.e.
  // the earliest policy. Non-finite entries never win (belt and braces: the
  // sampling step already discards them).
  std::optional<unsigned> Best;
  for (unsigned V = 0; V < Overheads.size(); ++V)
    if (Overheads[V] && std::isfinite(*Overheads[V]) &&
        (!Best || *Overheads[V] < *Overheads[*Best]))
      Best = V;
  if (!Best)
    return {};

  // Switch hysteresis: keep a measured incumbent unless the challenger
  // improves by more than the configured margin. A quarantined incumbent is
  // never held -- hysteresis must not keep a struck-out version in
  // production.
  const bool IncumbentQuarantined =
      RS && Incumbent && *Incumbent < RS->Versions.size() &&
      RS->Versions[*Incumbent].Quarantined;
  if (Config.SwitchHysteresis > 0.0 && Incumbent && !IncumbentQuarantined &&
      *Incumbent != *Best && *Incumbent < Overheads.size() &&
      Overheads[*Incumbent] && std::isfinite(*Overheads[*Incumbent]) &&
      *Overheads[*Best] >=
          *Overheads[*Incumbent] - Config.SwitchHysteresis) {
    ++Trace.HysteresisHolds;
    fbCounters().HysteresisHolds.add();
    return {Incumbent, /*HysteresisHeld=*/true};
  }
  return {Best, /*HysteresisHeld=*/false};
}

void FeedbackController::emit(obs::DecisionEvent E) const {
  FbCounters &C = fbCounters();
  switch (E.Kind) {
  case obs::DecisionKind::Switch:
    C.Switches.add();
    if (E.Reason == obs::SwitchReason::Fallback)
      C.Fallbacks.add();
    break;
  case obs::DecisionKind::DriftResample:
    C.DriftResamples.add();
    break;
  case obs::DecisionKind::Quarantine:
    C.QuarantineAdded.add();
    break;
  case obs::DecisionKind::WatchdogResample:
    C.WatchdogResamples.add();
    break;
  case obs::DecisionKind::Degraded:
    C.Degraded.add();
    break;
  case obs::DecisionKind::Prune: {
    // Registered lazily so runs under the default exhaustive sampler (which
    // never prunes) keep their metrics dumps byte-identical.
    static obs::Counter &Prunes =
        obs::globalMetrics().counter("fb.search.prunes");
    Prunes.add();
    break;
  }
  case obs::DecisionKind::Promote: {
    static obs::Counter &Promotes =
        obs::globalMetrics().counter("fb.search.promotes");
    Promotes.add();
    break;
  }
  case obs::DecisionKind::Sample:
  case obs::DecisionKind::Reprobe:
    break;
  }
  if (Log)
    Log->append(std::move(E));
}

void FeedbackController::drainSearchEvents(
    SamplingStrategy &S, const std::string &Section, rt::Nanos Now,
    const std::vector<std::string> &Labels,
    std::vector<std::optional<double>> &Overheads,
    SectionExecutionTrace &Trace) const {
  for (const SearchEvent &E : S.takeEvents()) {
    obs::DecisionKind Kind = obs::DecisionKind::Promote;
    if (E.K == SearchEvent::Kind::Prune) {
      Kind = obs::DecisionKind::Prune;
      // A pruned version is out of this phase's decision. Clearing its
      // estimate is also what keeps switch hysteresis from holding a pruned
      // incumbent: the hold requires a measured incumbent overhead.
      if (E.Version < Overheads.size())
        Overheads[E.Version].reset();
      ++Trace.Prunes;
    } else {
      ++Trace.Promotes;
    }
    emit({.Kind = Kind, .TimeNanos = Now, .Section = Section,
          .Version = E.Version,
          .Label = E.Version < Labels.size() ? Labels[E.Version]
                                             : Labels.back(),
          .Overhead = E.Overhead, .Repeats = E.Round});
  }
}

void FeedbackController::noteHistoryMiss(const std::string &SectionName,
                                         const std::string &StaleName) const {
  // Registered lazily: the counter only appears in metrics dumps of runs
  // that actually missed.
  static obs::Counter &Misses =
      obs::globalMetrics().counter("fb.history_misses");
  Misses.add();
  if (!ReportedHistoryMisses.insert(SectionName + '\0' + StaleName).second)
    return; // Already diagnosed this (section, name) pair.
  std::fprintf(stderr,
               "dynfb: section '%s': recorded best version '%s' does not "
               "name any version in the current space; ignoring history\n",
               SectionName.c_str(), StaleName.c_str());
}

SectionExecutionTrace
FeedbackController::executeSection(IntervalRunner &Runner,
                                   const std::string &SectionName) {
  SectionExecutionTrace Trace;
  Trace.SectionName = SectionName;
  Trace.StartNanos = Runner.now();

  const unsigned NumVersions = Runner.numVersions();
  assert(NumVersions >= 1 && "section with no versions");
  const std::vector<std::string> Labels = versionLabels(Runner);

  ResilienceState *RS = quarantineEnabled() || watchdogEnabled()
                            ? &resilienceState(SectionName, NumVersions)
                            : nullptr;
  const auto AllQuarantined = [&] {
    if (!RS)
      return false;
    for (unsigned V = 0; V < NumVersions; ++V)
      if (!RS->Versions[V].Quarantined)
        return false;
    return true;
  };

  // The one difference between the modes. Spanning mode keeps the section's
  // phase state across occurrences, so an interval or phase the section
  // boundary cuts short resumes in the next occurrence. Per-occurrence mode
  // starts every occurrence afresh and closes what is in flight at the
  // boundary: a cut-short interval counts as measured, and a sampling phase
  // is decided on what it measured, with no production left to run.
  const bool Carry = Config.SpanSectionExecutions;
  PhaseState Fresh;
  PhaseState &S = Carry ? PhaseStates[SectionName] : Fresh;
  const auto AtBoundary = [&] { return !Carry && Runner.done(); };

  const auto CountDegenerate = [&] {
    ++Trace.DegenerateIntervals;
    fbCounters().DegenerateIntervals.add();
  };

  // Starts measuring the pending request afresh.
  const auto BeginRequest = [&] {
    if (S.Current)
      S.Remaining = S.Current->SliceNanos;
    S.RepeatsDone = 0;
    S.Samples.clear();
    S.DegenerateRepeats = 0;
  };

  const auto StartSamplingPhase = [&] {
    S.Phase = PhaseState::Kind::Sampling;
    S.Order = samplingOrder(Labels, SectionName);
    if (RS && quarantineEnabled()) {
      // Quarantined versions sit out until their re-probe phase comes due.
      ++RS->PhaseCounter;
      std::erase_if(S.Order, [&](unsigned V) { return isExcluded(*RS, V); });
    }
    if (!S.Strategy)
      S.Strategy = createSamplingStrategy(Config);
    if (Config.Sampler != SamplerKind::Exhaustive) {
      // Lazily registered like the prune/promote counters: dumps of
      // default-sampler runs stay byte-identical.
      static obs::Counter &Phases =
          obs::globalMetrics().counter("fb.search.phases");
      Phases.add();
    }
    S.Current.reset();
    if (!S.Order.empty()) {
      S.Strategy->beginPhase(S.Order, Labels);
      S.Current = S.Strategy->next();
    }
    S.Overheads.assign(NumVersions, std::nullopt);
    BeginRequest();
  };

  // Picks the best sampled version and enters production with it. An
  // entirely degenerate phase falls back to the last known-good version (or
  // the first in sampling order on the section's first phase) instead of
  // aborting.
  const auto FinishSamplingPhase = [&] {
    const BestPick Pick = pickBest(S.Overheads, S.LastGood, Trace, RS);
    std::optional<unsigned> Best = Pick.V;
    obs::SwitchReason Reason = Pick.HysteresisHeld
                                   ? obs::SwitchReason::HysteresisHeld
                                   : obs::SwitchReason::BeatBest;
    if (!Best) {
      Reason = obs::SwitchReason::Fallback;
      if (AllQuarantined()) {
        // Degraded mode: every version is quarantined. Pin the last
        // known-good version (the first version if nothing ever completed
        // production) for a full production interval; re-probes come due as
        // the phase counter keeps advancing.
        Best = S.LastGood.value_or(0u);
        ++Trace.DegradedPhases;
        emit({.Kind = obs::DecisionKind::Degraded, .TimeNanos = Runner.now(),
              .Section = SectionName, .Version = *Best, .Label = Labels[*Best],
              .Overhead = NaN});
      } else {
        Best = S.LastGood ? *S.LastGood : S.Order.front();
      }
    }
    if (History)
      History->recordBest(SectionName, Labels[*Best]);
    ++Trace.SamplingPhases;
    S.Phase = PhaseState::Kind::Production;
    S.ProductionVersion = *Best;
    S.ProductionOverhead = S.Overheads[*Best];
    S.LastGood = *Best;
    S.Remaining = Config.TargetProductionNanos;
    if (AtBoundary())
      return; // The occurrence is over: there is nothing left to produce.
    Trace.ChosenVersions.push_back(*Best);
    emit({.Kind = obs::DecisionKind::Switch, .TimeNanos = Runner.now(),
          .Section = SectionName, .Version = *Best, .Label = Labels[*Best],
          .Overhead = S.ProductionOverhead.value_or(NaN), .Reason = Reason});
  };

  // Folds the completed request's repeats into one measurement (nullopt when
  // every repeat was degenerate), records it and feeds it to quarantine, the
  // strategy and early cut-off; then moves on to the next request or, when
  // the strategy has none, ends the phase.
  const auto FinishRequest = [&] {
    const unsigned V = S.Current->Version;
    const unsigned Usable = static_cast<unsigned>(S.Samples.size());
    std::optional<double> Measured;
    if (Usable) {
      Measured = aggregateOverheads(std::move(S.Samples),
                                    Config.SamplingAggregation,
                                    Config.TrimFraction);
      Trace.SampledOverheads.getOrCreate(Labels[V]).addPoint(
          nanosToSeconds(Runner.now()), *Measured);
    }
    emit({.Kind = obs::DecisionKind::Sample, .TimeNanos = Runner.now(),
          .Section = SectionName, .Version = V, .Label = Labels[V],
          .Overhead = Measured.value_or(NaN), .Repeats = Usable,
          .Degenerate = S.DegenerateRepeats});

    const bool Quarantined =
        RS && quarantineEnabled() &&
        noteSampleHealth(SectionName, *RS, V, Labels[V], Measured,
                         Runner.now(), Trace);
    const std::optional<double> Est = S.Strategy->report(V, Measured);
    if (Quarantined) {
      S.Overheads[V].reset(); // Quarantined: out of this decision.
      S.Strategy->disqualify(V);
    } else if (Est) {
      S.Overheads[V] = *Est;
    }
    // Early cut-off: no other version could do significantly better.
    const bool CutOff = !Quarantined && Config.EarlyCutoff &&
                        S.Overheads[V] &&
                        *S.Overheads[V] <= Config.EarlyCutoffThreshold;
    if (CutOff)
      Trace.SkippedByCutoff += S.Strategy->pendingCount();
    S.Current = CutOff ? std::nullopt : S.Strategy->next();
    drainSearchEvents(*S.Strategy, SectionName, Runner.now(), Labels,
                      S.Overheads, Trace);
    if (S.Current)
      BeginRequest();
    else
      FinishSamplingPhase();
  };

  // Production ends early when its measured overhead drifts past the
  // sampled overhead it was chosen on (the adaptivity of Section 4.4 made
  // defensive against environmental faults), or when the watchdog sees a
  // streak of bad intervals -- which also covers production entered by
  // fallback, with no sampled overhead to drift from.
  const auto EndProductionEarly = [&](const IntervalReport &Report) {
    const unsigned V = S.ProductionVersion;
    std::optional<double> Measured;
    if (Report.EffectiveNanos > 0 && isUsable(Report.Stats))
      Measured = Report.Stats.totalOverhead();
    if (Config.DriftResampleThreshold > 0.0 && S.ProductionOverhead &&
        Measured &&
        *Measured > *S.ProductionOverhead + Config.DriftResampleThreshold) {
      ++Trace.EarlyResamples;
      emit({.Kind = obs::DecisionKind::DriftResample, .TimeNanos = Runner.now(),
            .Section = SectionName, .Version = V, .Label = Labels[V],
            .Overhead = *Measured});
      return true;
    }
    return RS && watchdogEnabled() &&
           noteProductionHealth(SectionName, *RS, V, Labels[V], Measured,
                                Runner.now(), Trace);
  };

  if (S.Phase == PhaseState::Kind::Idle && !AtBoundary())
    StartSamplingPhase();
  while (!Runner.done()) {
    if (S.Phase == PhaseState::Kind::Production) {
      // Production: run the chosen version until its budget is spent (across
      // as many occurrences as it takes in spanning mode), in slices when
      // ProductionSliceNanos is set so that drift and the watchdog see it as
      // it goes.
      const rt::Nanos Target =
          Config.ProductionSliceNanos > 0
              ? std::min(Config.ProductionSliceNanos, S.Remaining)
              : S.Remaining;
      const IntervalReport Report =
          Runner.runInterval(S.ProductionVersion, Target);
      Trace.Total.merge(Report.Stats);
      if (Report.EffectiveNanos > 0)
        S.Remaining -= Report.EffectiveNanos;
      else
        CountDegenerate();
      if (S.Remaining > 0 && EndProductionEarly(Report))
        S.Remaining = 0;
      if (Report.EffectiveNanos <= 0)
        S.Remaining = 0; // A stuck interval must not spin forever.
      if (S.Remaining <= 0 && !AtBoundary())
        StartSamplingPhase(); // Periodic (or forced) resampling.
      continue;
    }

    // Sampling: measure the requested version for its interval.
    if (!S.Current) {
      FinishSamplingPhase(); // Nothing left to sample (or nothing to sample
      continue;              // at all: every version is quarantined).
    }
    const IntervalReport Report =
        Runner.runInterval(S.Current->Version, S.Remaining);
    Trace.Total.merge(Report.Stats);
    S.IntervalStats.merge(Report.Stats);
    if (Report.EffectiveNanos > 0) {
      S.Remaining -= Report.EffectiveNanos;
      S.IntervalNanos += Report.EffectiveNanos;
      Trace.SampledNanos += Report.EffectiveNanos;
    } else {
      S.Remaining = 0; // A stuck interval must not stall the phase.
    }
    if (S.Remaining > 0 && !AtBoundary())
      continue; // Cut short by the section boundary: resumes next occurrence.

    // The interval is complete. A degenerate measurement (zero duration,
    // non-finite) is discarded: a 0/0 must not pose as zero overhead.
    ++Trace.SampledIntervals;
    fbCounters().SampledIntervals.add();
    ++S.RepeatsDone;
    if (S.IntervalNanos > 0 && isUsable(S.IntervalStats)) {
      S.Samples.push_back(S.IntervalStats.totalOverhead());
      Trace.EffectiveSamplingByVersion[Labels[S.Current->Version]].add(
          nanosToSeconds(S.IntervalNanos));
    } else {
      CountDegenerate();
      ++S.DegenerateRepeats;
    }
    S.IntervalStats = OverheadStats{};
    S.IntervalNanos = 0;
    // One measurement reproduces the paper; SamplingRepeats > 1 buys outlier
    // resistance through the configured robust aggregator.
    if (S.RepeatsDone < std::max(1u, Config.SamplingRepeats) &&
        !AtBoundary()) {
      S.Remaining = S.Current->SliceNanos;
      continue;
    }
    FinishRequest();
  }

  if (AtBoundary() && S.Phase == PhaseState::Kind::Sampling)
    FinishSamplingPhase(); // Close the phase the boundary cut short.
  Trace.EndNanos = Runner.now();
  Trace.assertInvariants();
  return Trace;
}
