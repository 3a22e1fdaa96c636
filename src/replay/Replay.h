//===- replay/Replay.h - Executable traces ----------------------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a self-describing JSONL adaptation trace (obs::RunTrace with a
/// recorded obs::RunSpec) back into an executable run configuration and
/// re-drives it on the simulator, verifying that every decision, section
/// record and lock record matches the recording. The simulator is fully
/// deterministic, so a divergence means the binary changed behaviour --
/// replay is the substrate for trace-driven bisection of controller
/// regressions. The contract (and the reasons native traces are not
/// replayable) lives in docs/REPLAY.md.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_REPLAY_REPLAY_H
#define DYNFB_REPLAY_REPLAY_H

#include "apps/App.h"
#include "apps/Harness.h"
#include "fb/Config.h"
#include "obs/Export.h"
#include "perturb/Engine.h"
#include "rt/MachineModel.h"

#include <memory>
#include <optional>
#include <string>

namespace dynfb::replay {

/// A trace materialized back into everything needed to re-drive the run:
/// the application (rebuilt at the recorded scale over the recorded version
/// space), the machine model with the recorded cost overrides applied, the
/// perturbation engine (recompiled from the recorded --perturb/--traffic
/// spec, which carries its own seed), the feedback configuration and the
/// executable flavour.
struct MaterializedRun {
  std::unique_ptr<apps::App> App;
  std::unique_ptr<rt::MachineModel> Machine;
  std::unique_ptr<perturb::PerturbationEngine> Perturb; ///< May be null.
  fb::FeedbackConfig Config;
  apps::VersionSpec Spec;
  std::string PolicyName;
  unsigned Procs = 0;
};

/// Builds the run \p Meta describes: the app over its version space, the
/// machine with the cost overrides applied, the executable flavour of the
/// policy name, the feedback configuration (every knob range-checked
/// through the obs knob table) and the compiled --perturb or --traffic
/// engine. The one resolution path of dynfb-run and materialize; \p Source
/// decides whether diagnostics name flags or run_spec keys. Fails (nullopt,
/// \p Error set to a one-line diagnostic) on any invalid field.
std::optional<MaterializedRun> resolve(const obs::TraceMeta &Meta,
                                       obs::KnobSource Source,
                                       std::string &Error);

/// Reconstructs the run configuration recorded in \p Trace's meta line.
/// Fails (nullopt, \p Error set) when the trace predates replay support
/// (no run_spec), was recorded on the native backend (real time is not
/// replayable), resolve() rejects it, or the rebuilt machine's parameter
/// set does not round-trip the recorded one.
std::optional<MaterializedRun> materialize(const obs::RunTrace &Trace,
                                           std::string &Error);

/// Runs \p Run once on \p Backend, the way dynfb-run does. When \p Trace
/// is non-null, observes the run and records it there as --trace-out
/// writes it: machine identity on the simulator, and \p Meta's app name
/// and run_spec.
fb::RunResult record(const MaterializedRun &Run, const obs::TraceMeta &Meta,
                     const apps::BackendOptions &Backend,
                     obs::RunTrace *Trace);

/// Shard-lock count a --traffic spec compiles against: the lock objects of
/// \p App's first parallel section (kvserve: the store shards).
unsigned trafficShards(const apps::App &App);

/// Outcome of one replay: the re-recorded trace plus the comparison against
/// the recording.
struct ReplayResult {
  obs::RunTrace Replayed;
  /// Empty when the replay matched the recording exactly; otherwise a
  /// one-line description of the first divergence (JSONL line number in the
  /// recorded file, record type, and both renderings).
  std::string Divergence;

  bool diverged() const { return !Divergence.empty(); }
};

/// Re-drives the run recorded in \p Recorded on a fresh simulator and
/// compares the resulting trace record by record. Fails (nullopt, \p Error
/// set) only when the trace cannot be materialized at all; a successful
/// replay that produced different behaviour is reported through
/// ReplayResult::Divergence.
std::optional<ReplayResult> replayTrace(const obs::RunTrace &Recorded,
                                        std::string &Error);

/// Record-by-record comparison of two traces through their canonical JSONL
/// rendering. Returns "" when identical, otherwise a one-line description
/// of the first mismatching line (its number and both renderings). The
/// decision lines are the per-interval adaptation record, so the first
/// mismatching line names the first diverging interval.
std::string compareTraces(const obs::RunTrace &Recorded,
                          const obs::RunTrace &Replayed);

} // namespace dynfb::replay

#endif // DYNFB_REPLAY_REPLAY_H
