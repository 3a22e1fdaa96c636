//===- replay/Explorer.h - Checkpointed what-if exploration -----*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs an application under dynamic feedback while forking the simulated
/// machine at every parallel-phase boundary: before the controller executes
/// a section occurrence, the Explorer checkpoints the machine
/// (sim::SimMachine::checkpoint()) and gives every code version of the
/// section its own machine built from that checkpoint, on which the version
/// runs the whole occurrence. The what-ifs run concurrently on worker
/// threads while the mainline controller executes the occurrence on the
/// original machine, which no what-if touches. The recorded what-ifs are
/// the counterfactual columns of dynfb-report --whatif ("what Bounded
/// would have done here") and the per-occurrence clairvoyant oracle the
/// regret summary compares dynamic feedback against. Checkpoint invariants,
/// the exactness argument and the read-only ops-cache rule the threads rely
/// on live in docs/REPLAY.md; the replay_whatif experiment gates
/// counterfactuals == ground-truth fresh pinned runs.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_REPLAY_EXPLORER_H
#define DYNFB_REPLAY_EXPLORER_H

#include "apps/App.h"
#include "fb/Driver.h"
#include "obs/DecisionLog.h"
#include "rt/MachineModel.h"
#include "rt/Stats.h"

#include <span>
#include <string>
#include <vector>

namespace dynfb::perturb {
class PerturbationEngine;
} // namespace dynfb::perturb

namespace dynfb::replay {

/// One counterfactual: occurrence \p Occurrence (index into the mainline
/// run's parallel phases, in schedule order) executed entirely with version
/// \p Version from the forked machine state.
struct WhatIf {
  size_t Occurrence = 0;
  std::string Section;
  unsigned Version = 0;
  std::string Label;
  rt::Nanos StartNanos = 0;    ///< Fork time: the mainline clock at entry.
  rt::Nanos DurationNanos = 0; ///< What the occurrence would have cost.
  rt::OverheadStats Stats;
};

/// Everything one exploration produced: the mainline dynamic-feedback run
/// (bit-identical to an unexplored run -- the what-ifs execute on forked
/// machines), its decision log, and every counterfactual.
struct Exploration {
  fb::RunResult Mainline;
  obs::DecisionLog Decisions;
  /// Sorted by occurrence, then version: each occurrence's what-ifs are
  /// contiguous.
  std::vector<WhatIf> WhatIfs;

  /// The what-ifs of one occurrence, in version order.
  std::span<const WhatIf> occurrence(size_t Occ) const;
};

/// Regret of the mainline run against the per-occurrence clairvoyant
/// oracle (the best what-if version of every occurrence, chosen with
/// perfect foresight and zero sampling cost).
struct RegretSummary {
  rt::Nanos DynamicParallelNanos = 0;     ///< Mainline time in sections.
  rt::Nanos ClairvoyantParallelNanos = 0; ///< Sum of per-occurrence minima.

  /// Fractional regret: dynamic / clairvoyant - 1 (0 = matched the oracle).
  double regretRatio() const;
};

RegretSummary summarizeRegret(const Exploration &E);

/// Runs \p App under dynamic feedback on a fresh simulator built from
/// \p Model, evaluating every version of every section occurrence from the
/// checkpointed phase-boundary state. The what-ifs of one occurrence run
/// concurrently, on at most std::thread::hardware_concurrency() worker
/// threads, beside the mainline on the calling thread; the result does not
/// depend on the thread count or timing. \p Perturb may be null; when
/// present it perturbs mainline and counterfactuals identically (the engine
/// is a pure function of section, processor and virtual time).
Exploration explore(const apps::App &App, unsigned Procs,
                    const rt::MachineModel &Model,
                    const fb::FeedbackConfig &Config = {},
                    const perturb::PerturbationEngine *Perturb = nullptr);

/// Ground truth for the what-if gate: a fresh, uninterrupted run of the
/// same instrumented dynamic-flavour executable with one version pinned
/// for every occurrence (\p Version clamped per section to its last
/// version). Returns one WhatIf per parallel phase, in schedule order.
std::vector<WhatIf> runPinned(const apps::App &App, unsigned Procs,
                              const rt::MachineModel &Model, unsigned Version,
                              const perturb::PerturbationEngine *Perturb =
                                  nullptr);

/// The counterfactual table of dynfb-report --whatif: one row per
/// occurrence with the mainline (dynamic) duration, every version's
/// what-if duration, the clairvoyant choice, and the regret summary.
std::string renderWhatIfReport(const Exploration &E);

} // namespace dynfb::replay

#endif // DYNFB_REPLAY_EXPLORER_H
