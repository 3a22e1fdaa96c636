//===- fb/Controller.h - The dynamic feedback algorithm ---------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core technique. A parallel section executes an alternating
/// sequence of sampling and production phases: each sampling phase runs
/// every candidate code version for a target sampling interval and measures
/// its total overhead ((locking + waiting) / execution time, Section 4.3);
/// each production phase runs the version with the least sampled overhead
/// for a target production interval; the computation then resamples,
/// adapting dynamically if the best version has changed. Switching is
/// synchronous at iteration-boundary switch points (Section 4.1).
/// Optional refinements (Section 4.5): early cut-off of the sampling phase
/// and sampling-order selection from past executions.
///
/// One state machine implements both execution modes. Each section has a
/// phase state that alternates sampling and production phases; a sampling
/// phase is a sequence of requests from the SamplingStrategy, each measured
/// SamplingRepeats times, and a production phase runs the chosen version
/// for TargetProductionNanos, in ProductionSliceNanos slices when set. The
/// modes differ only at the section boundary. Spanning mode (Section 4.4's
/// extension) keeps the phase state across occurrences, so the interval
/// and phase in flight carry over into the next occurrence. Per-occurrence
/// mode starts each occurrence with a fresh phase state and closes what is
/// in flight at the boundary: a cut-short interval counts as measured, and
/// a cut-short sampling phase is decided without entering production.
/// Quarantine and watchdog state and the PolicyHistory outlive occurrences
/// in both modes.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_FB_CONTROLLER_H
#define DYNFB_FB_CONTROLLER_H

#include "fb/Config.h"
#include "fb/Sampling.h"
#include "obs/DecisionLog.h"
#include "rt/IntervalRunner.h"
#include "support/Statistics.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace dynfb::fb {

/// Cross-execution memory: the best version observed per section, used by
/// the policy-ordering refinement. Keyed by descriptor name (the version
/// label, e.g. "Bounded/Aggressive" or "Original+chunk8") rather than raw
/// index, so recorded knowledge survives a reordered or extended version
/// space: the controller re-resolves the name against the current space
/// before every sampling phase.
class PolicyHistory {
public:
  std::optional<std::string> lastBest(const std::string &Section) const {
    auto It = Best.find(Section);
    if (It == Best.end())
      return std::nullopt;
    return It->second;
  }
  void recordBest(const std::string &Section, std::string VersionName) {
    Best[Section] = std::move(VersionName);
  }

private:
  std::map<std::string, std::string> Best;
};

/// Everything observed while executing one occurrence of a parallel section
/// under dynamic feedback.
struct SectionExecutionTrace {
  std::string SectionName;
  rt::Nanos StartNanos = 0;
  rt::Nanos EndNanos = 0;

  /// Aggregate measurements over the whole occurrence (sampling and
  /// production phases).
  rt::OverheadStats Total;

  /// Sampled overhead time series, one series per version label: the data
  /// behind the paper's Figures 5, 8 and 9.
  SeriesSet SampledOverheads;

  /// Version chosen for each production phase, in order.
  std::vector<unsigned> ChosenVersions;

  /// Effective sampling interval statistics per version label (Table 5
  /// and Tables 11/12).
  std::map<std::string, RunningStat> EffectiveSamplingByVersion;

  unsigned SamplingPhases = 0;
  unsigned SampledIntervals = 0;
  unsigned SkippedByCutoff = 0; ///< Versions not sampled due to early cut-off.

  // Robustness accounting (all zero in an unperturbed run with the
  // robustness knobs at their defaults).
  unsigned DegenerateIntervals = 0; ///< Zero-duration / unmeasurable
                                    ///< intervals discarded instead of
                                    ///< entering the statistics.
  unsigned EarlyResamples = 0;      ///< Production intervals cut short by
                                    ///< overhead drift.
  unsigned HysteresisHolds = 0;     ///< Switches suppressed by hysteresis.

  // Resilience accounting (all zero unless the quarantine / watchdog knobs
  // are enabled -- see FeedbackConfig).
  unsigned Quarantines = 0;       ///< Versions quarantined (or
                                  ///< re-quarantined after a bad re-probe).
  unsigned Reprobes = 0;          ///< Quarantined versions re-probed and
                                  ///< cleared back into the sampling pool.
  unsigned WatchdogResamples = 0; ///< Production phases cut short by the
                                  ///< bad-interval watchdog.
  unsigned DegradedPhases = 0;    ///< Sampling phases skipped because every
                                  ///< version was quarantined (the
                                  ///< last-known-good version was pinned).

  // Version-search accounting (all zero under the default exhaustive
  // sampler -- see FeedbackConfig::Sampler).
  unsigned Prunes = 0;   ///< Versions the sampling strategy dropped from a
                         ///< phase's search.
  unsigned Promotes = 0; ///< Versions advanced into later search rounds (or
                         ///< made provisional winner).
  /// Effective time spent inside sampling intervals, the cost a sub-linear
  /// strategy reduces (exhaustive spends ~NumVersions *
  /// TargetSamplingNanos per phase).
  rt::Nanos SampledNanos = 0;

  rt::Nanos durationNanos() const { return EndNanos - StartNanos; }

  /// The version used for the most production time (the de-facto decision).
  /// Checks the trace invariants (see assertInvariants).
  std::optional<unsigned> dominantVersion() const;

  /// Checked (release-mode) invariants every published trace satisfies: no
  /// NaN/inf anywhere, every sampled overhead within [0, 1], non-negative
  /// aggregate measurements and duration. The controller verifies these
  /// before returning a trace, so garbage measurements can never escape
  /// into the paper's tables and figures.
  void assertInvariants() const;
};

/// Drives one or more section occurrences with the dynamic feedback
/// algorithm.
class FeedbackController {
public:
  /// \p Log, when non-null, receives one event per sampled interval and per
  /// production decision (see obs::DecisionLog); it must outlive the
  /// controller. Logging never alters the algorithm.
  explicit FeedbackController(FeedbackConfig Config,
                              PolicyHistory *History = nullptr,
                              obs::DecisionLog *Log = nullptr)
      : Config(Config), History(History), Log(Log) {}

  /// Executes the section behind \p Runner to completion. With
  /// SpanSectionExecutions set, the phase state persists inside the
  /// controller across calls for the same section name, and the interval
  /// and phase in flight at the end of a call resume in the next (Section
  /// 4.4's extension). Otherwise each call starts a fresh phase state and
  /// closes whatever is in flight when the section finishes.
  SectionExecutionTrace executeSection(rt::IntervalRunner &Runner,
                                       const std::string &SectionName);

  /// The order in which versions are sampled, given the configuration and
  /// any history for this section (exposed for tests). \p Labels holds the
  /// display label of every version, in version order; history entries are
  /// resolved against it by name.
  std::vector<unsigned> samplingOrder(const std::vector<std::string> &Labels,
                                      const std::string &SectionName) const;

private:
  /// One section's sampling/production state machine. Spanning mode keeps
  /// it in PhaseStates across occurrences; per-occurrence mode gives every
  /// occurrence a fresh one.
  struct PhaseState {
    enum class Kind { Idle, Sampling, Production } Phase = Kind::Idle;
    /// Sampling: the strategy driving the phase, its in-flight request, the
    /// phase's candidate order (kept for fallback decisions) and the
    /// per-version overhead estimates accumulated so far.
    std::unique_ptr<SamplingStrategy> Strategy;
    std::optional<SampleRequest> Current;
    std::vector<unsigned> Order;
    std::vector<std::optional<double>> Overheads;
    /// The in-flight request's repeats: how many completed, the overheads
    /// of the usable ones and the count of the degenerate ones.
    unsigned RepeatsDone = 0;
    std::vector<double> Samples;
    unsigned DegenerateRepeats = 0;
    /// Remaining budget of the interval in progress (sampling or
    /// production) and, while sampling, what it has measured so far.
    rt::Nanos Remaining = 0;
    rt::OverheadStats IntervalStats;
    rt::Nanos IntervalNanos = 0;
    /// Production: the version being run.
    unsigned ProductionVersion = 0;
    /// The sampled overhead the production version was chosen on (drift
    /// detection baseline); unset when production was entered by fallback.
    std::optional<double> ProductionOverhead;
    /// Last version that completed a production decision: the fallback when
    /// a sampling phase yields no usable measurement, and the incumbent for
    /// switch hysteresis.
    std::optional<unsigned> LastGood;
  };

  /// Per-version health tracked by the quarantine mechanism.
  struct VersionHealth {
    /// Sampling-phase numbers (1-based) of recent strikes; pruned to the
    /// sliding QuarantineWindowPhases window.
    std::vector<unsigned> StrikePhases;
    bool Quarantined = false;
    /// First phase number at which a quarantined version is re-probed.
    unsigned ReleasePhase = 0;
    /// Current quarantine duration; doubles per failed re-probe up to
    /// QuarantineBackoffMaxPhases, resets on a healthy re-probe.
    unsigned BackoffPhases = 0;
  };

  /// Cross-phase resilience state for one section (quarantine + watchdog).
  /// Only populated when the corresponding knobs are enabled.
  struct ResilienceState {
    unsigned PhaseCounter = 0; ///< Sampling phases started (1-based).
    std::vector<VersionHealth> Versions;
    unsigned WatchdogBad = 0;       ///< Current consecutive-bad-interval run.
    unsigned WatchdogThreshold = 0; ///< Escalated streak requirement;
                                    ///< 0 means Config.WatchdogBadSlices.
  };

  bool quarantineEnabled() const { return Config.QuarantineStrikes > 0; }
  bool watchdogEnabled() const { return Config.WatchdogBadSlices > 0; }

  /// Fetches (creating on first use) the resilience state for a section,
  /// sized for \p NumVersions.
  ResilienceState &resilienceState(const std::string &SectionName,
                                   size_t NumVersions);

  /// True when \p V is quarantined and not yet due for its re-probe.
  static bool isExcluded(const ResilienceState &RS, unsigned V);

  /// Feeds one sampling measurement (nullopt = degenerate) into the
  /// quarantine tracker: counts strikes, quarantines on the Kth strike in
  /// the window, and resolves re-probes of quarantined versions. Returns
  /// true when the version is quarantined after this measurement, in which
  /// case the caller must exclude it from the phase's decision.
  bool noteSampleHealth(const std::string &SectionName, ResilienceState &RS,
                        unsigned V, const std::string &Label,
                        std::optional<double> Overhead, rt::Nanos Now,
                        SectionExecutionTrace &Trace);

  /// Feeds one production interval measurement into the watchdog. Returns
  /// true when the bad-interval streak reached the (escalating) threshold
  /// and the production phase must be cut short for an early resample.
  bool noteProductionHealth(const std::string &SectionName,
                            ResilienceState &RS, unsigned V,
                            const std::string &Label,
                            std::optional<double> Overhead, rt::Nanos Now,
                            SectionExecutionTrace &Trace);

  /// Outcome of pickBest: the chosen version (nullopt when nothing was
  /// measurably sampled) and whether switch hysteresis held the incumbent
  /// against a challenger that won on raw overhead -- the distinction the
  /// decision log records as the switch reason.
  struct BestPick {
    std::optional<unsigned> V;
    bool HysteresisHeld = false;
  };

  /// Picks the sampled version with the least overhead (ties to the lowest
  /// index). With SwitchHysteresis enabled and a measured incumbent, the
  /// incumbent is kept unless the challenger improves by more than the
  /// margin; suppressed switches are counted in \p Trace. A quarantined
  /// incumbent (per \p RS, which may be null) is never held by hysteresis.
  BestPick pickBest(const std::vector<std::optional<double>> &Overheads,
                    std::optional<unsigned> Incumbent,
                    SectionExecutionTrace &Trace,
                    const ResilienceState *RS = nullptr) const;

  /// Drains \p S's prune/promote events: logs each, counts it, and resets
  /// the sampled overhead of every pruned version in \p Overheads -- a
  /// pruned version is out of this phase's decision, which is also what
  /// keeps switch hysteresis from holding a pruned incumbent.
  void drainSearchEvents(SamplingStrategy &S, const std::string &Section,
                         rt::Nanos Now,
                         const std::vector<std::string> &Labels,
                         std::vector<std::optional<double>> &Overheads,
                         SectionExecutionTrace &Trace) const;

  /// Records a policy-ordering history entry that no longer resolves
  /// against the current version space: bumps the fb.history_misses metric
  /// every time and emits a one-line stderr diagnostic once per distinct
  /// (section, stale name) pair.
  void noteHistoryMiss(const std::string &SectionName,
                       const std::string &StaleName) const;

  /// Appends \p E to the decision log (when one is attached) and mirrors
  /// it into the global metrics registry ("fb.*" counters).
  void emit(obs::DecisionEvent E) const;

  const FeedbackConfig Config;
  PolicyHistory *const History;
  obs::DecisionLog *const Log;
  std::map<std::string, PhaseState> PhaseStates;
  std::map<std::string, ResilienceState> Resilience;
  /// (section, stale name) pairs already reported by noteHistoryMiss.
  mutable std::set<std::string> ReportedHistoryMisses;
};

} // namespace dynfb::fb

#endif // DYNFB_FB_CONTROLLER_H
