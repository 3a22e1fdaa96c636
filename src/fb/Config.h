//===- fb/Config.h - Dynamic feedback configuration -------------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the dynamic feedback algorithm: the target sampling and
/// production intervals (paper Section 4.4; defaults are the paper's
/// experimental settings of 10 milliseconds and 100 seconds) and the
/// optional early cut-off / policy ordering refinements of Section 4.5.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_FB_CONFIG_H
#define DYNFB_FB_CONFIG_H

#include "rt/Stats.h"
#include "rt/Time.h"

namespace dynfb::rt {
class MachineModel;
} // namespace dynfb::rt

namespace dynfb::fb {

/// Which sampling strategy drives a sampling phase (see fb/Sampling.h).
/// Exhaustive reproduces the paper: every candidate version is measured
/// once per phase. Halving and Ucb trade per-version certainty for
/// sub-linear sampling cost over large version spaces.
enum class SamplerKind { Exhaustive, Halving, Ucb };

/// Tuning knobs of the dynamic feedback controller.
struct FeedbackConfig {
  /// Target sampling interval: each candidate version runs this long during
  /// a sampling phase (the effective interval may be longer -- processors
  /// only poll at iteration boundaries).
  rt::Nanos TargetSamplingNanos = rt::millisToNanos(10.0);

  /// Target production interval: the best version runs this long before the
  /// computation resamples.
  rt::Nanos TargetProductionNanos = rt::secondsToNanos(100.0);

  /// Early cut-off (Section 4.5): stop sampling as soon as a sampled
  /// version's total overhead falls below EarlyCutoffThreshold -- no other
  /// policy could do significantly better. Extreme policies are tried
  /// first.
  bool EarlyCutoff = false;
  double EarlyCutoffThreshold = 0.05;

  /// Policy ordering (Section 4.5): sample first the version that performed
  /// best in previous executions of the same section.
  bool UsePolicyOrdering = false;

  /// Section 4.4's proposed extension: allow sampling and production
  /// intervals to span multiple executions of the parallel section. Each
  /// section keeps its own phase state across occurrences, so a section too
  /// short for one production interval still amortizes its sampling cost
  /// over many executions.
  bool SpanSectionExecutions = false;

  // --------- Robustness knobs (defaults reproduce the paper exactly) -------

  /// Number of sampling intervals measured per version per sampling phase.
  /// Values above 1 enable outlier-robust aggregation of the repeats; 1
  /// reproduces the paper's single measurement.
  unsigned SamplingRepeats = 1;

  /// Estimator folding repeated measurements into the comparable overhead.
  /// Only meaningful with SamplingRepeats > 1.
  rt::OverheadAggregation SamplingAggregation = rt::OverheadAggregation::Mean;

  /// Per-tail trim proportion for OverheadAggregation::TrimmedMean.
  double TrimFraction = 0.2;

  /// Switch hysteresis: when positive, a newly sampled best version only
  /// replaces the incumbent production version if its overhead improves on
  /// the incumbent's freshly sampled overhead by more than this margin
  /// (absolute overhead units). Prevents version thrashing when two
  /// versions are within measurement noise. 0 disables (paper behaviour).
  double SwitchHysteresis = 0.0;

  /// Perturbation-triggered early resampling: when positive, a production
  /// interval whose measured overhead exceeds the sampled overhead of the
  /// chosen version by more than this margin is cut short and the section
  /// resamples immediately, instead of riding a stale decision to the end
  /// of the production budget. 0 disables (paper behaviour).
  double DriftResampleThreshold = 0.0;

  /// Granularity at which production overhead is re-measured for drift
  /// detection and the watchdog: the production budget is consumed in
  /// slices of this length. 0 runs the whole production interval in one
  /// piece (paper behaviour; production is then only re-measured where a
  /// section boundary cuts it, i.e. in spanning mode).
  rt::Nanos ProductionSliceNanos = 0;

  // --------- Controller resilience (long-running serving; defaults off) ----

  /// Per-version quarantine: a version whose sampled measurement is
  /// degenerate -- or catastrophically bad, see QuarantineOverheadLimit --
  /// this many times within QuarantineWindowPhases sampling phases is
  /// excluded from sampling until a decayed re-probe. 0 disables (paper
  /// behaviour: every version is sampled every phase, forever).
  unsigned QuarantineStrikes = 0;

  /// Width, in sampling phases, of the sliding window strikes are counted
  /// over.
  unsigned QuarantineWindowPhases = 8;

  /// A sampled overhead strictly above this limit counts as a strike
  /// (catastrophic measurement). Overheads are clamped to [0, 1], so the
  /// default of 1.0 can never fire and only degenerate intervals strike.
  double QuarantineOverheadLimit = 1.0;

  /// Initial quarantine duration in sampling phases. Each re-quarantine
  /// after a failed re-probe doubles the duration, bounded by
  /// QuarantineBackoffMaxPhases (the decayed re-probe schedule).
  unsigned QuarantineBackoffPhases = 4;
  unsigned QuarantineBackoffMaxPhases = 64;

  /// Production watchdog: this many consecutive bad production intervals
  /// (degenerate, or measured overhead above WatchdogOverheadLimit) force
  /// an early resample even when drift detection has no baseline to compare
  /// against (e.g. production entered by fallback). 0 disables. Each firing
  /// doubles the required streak (bounded backoff, up to 8x); a healthy
  /// production interval resets the escalation.
  unsigned WatchdogBadSlices = 0;

  /// Measured production overhead above this marks the interval bad for the
  /// watchdog.
  double WatchdogOverheadLimit = 0.9;

  // --------- Version search (sub-linear sampling; defaults reproduce the
  // --------- paper's exhaustive phase exactly) ----------------------------

  /// Sampling strategy for each sampling phase. The default Exhaustive is
  /// byte-identical to the paper's loop; Halving and Ucb measure only part
  /// of the version space per phase (see fb/Sampling.h).
  SamplerKind Sampler = SamplerKind::Exhaustive;

  /// Fraction of exhaustive's sampling budget (NumVersions *
  /// TargetSamplingNanos) a partial-sampling strategy may spend per phase.
  /// Ignored by Exhaustive.
  double SearchBudgetFraction = 0.5;

  /// Exploration constant of the UCB1 selection rule (the multiplier on the
  /// confidence radius). Ignored by other strategies.
  double UcbExplore = 2.0;

  /// Machine model the Ucb strategy derives its cost prior from: versions
  /// whose policy/scheduling combination is cheap on this machine are tried
  /// first. Optional (no prior without it); not owned, must outlive the
  /// controller. Never consulted by Exhaustive.
  const rt::MachineModel *Machine = nullptr;
};

} // namespace dynfb::fb

#endif // DYNFB_FB_CONFIG_H
