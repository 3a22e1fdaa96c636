//===- hostbench/Layers.h - Timing decorators and pass records --*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-time measurement from outside the library: runDynamic times every
/// call the feedback driver (fb::runSchedule) makes into the simulator
/// through decorators around rt::ExecutionBackend and rt::IntervalRunner,
/// timed() is the stopwatch for the other modules' public entry points, and
/// PassRecord is what one measured pass produces. Nothing here changes what
/// the wrapped code computes; the traced run checks that against an
/// unwrapped apps::runApp.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_HOSTBENCH_LAYERS_H
#define DYNFB_HOSTBENCH_LAYERS_H

#include "apps/Harness.h"
#include "fb/Driver.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace dynfb::hostbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// The named host-time rows of one traced pass.
struct LayerTable {
  std::map<std::string, double> Rows;
  /// Micro-ops run inside the timed intervals (the sim.ns_per_op divisor).
  uint64_t IntervalOps = 0;

  void add(const std::string &Row, double Seconds) { Rows[Row] += Seconds; }
};

/// Runs \p F, adding its host seconds to row \p Row of \p Table when there
/// is one.
template <typename Fn>
auto timed(LayerTable *Table, const std::string &Row, Fn &&F) {
  const Clock::time_point Start = Clock::now();
  auto Result = F();
  if (Table)
    Table->add(Row, secondsSince(Start));
  return Result;
}

/// The dynamic executable of one app on an already built simulator
/// backend: exactly the steps of apps::runApp after backend construction.
/// With \p Table, the driver sees the backend through TimedBackend and the
/// pass gains the sim.begin_section_s, sim.interval_s and fb.self_s rows.
fb::RunResult runDynamic(rt::ExecutionBackend &Backend,
                         const apps::App &App, const rt::MachineModel &Model,
                         const fb::FeedbackConfig &Config,
                         const perturb::PerturbationEngine *Perturb,
                         apps::RunObservation *Obs, LayerTable *Table);

/// The simulated output of one run in canonical text: end-to-end time,
/// aggregate stats and every occurrence's stats and chosen versions.
std::string describeResult(const fb::RunResult &R);

/// A trace's JSONL without its meta line (which carries the build hash).
std::string jsonlBody(const obs::RunTrace &Trace);

/// The decision log's JSONL lines.
std::string decisionJsonl(const obs::DecisionLog &Log);

/// 16 hex digits of FNV-1a.
std::string digest(const std::string &Text);

/// What one pass reports.
struct PassRecord {
  bool Traced = false;
  double WallS = 0;
  double SetupS = 0;
  uint64_t MicroOps = 0;   ///< Simulated micro-ops, children included.
  uint64_t Intervals = 0;  ///< runInterval calls completed.
  uint64_t Iterations = 0; ///< Parallel-loop iterations executed.
  uint64_t SampledIntervals = 0;
  uint64_t Decisions = 0;
  uint64_t JsonlBytes = 0; ///< Exported JSONL trace bytes (replay_whatif).
  /// Simulated outputs, compared across passes and against the reference
  /// (a flat JSON object body: "key":value,...).
  std::string Outputs;
  /// Failures the pass detected itself (empty = none).
  std::string Error;
  LayerTable Layers; ///< Traced passes only.
};

} // namespace dynfb::hostbench

#endif // DYNFB_HOSTBENCH_LAYERS_H
