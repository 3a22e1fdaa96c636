//===- sim/SectionSim.h - Event-driven parallel section simulation -*- C++ -*//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulates one multi-versioned parallel section on the SimMachine,
/// implementing the IntervalRunner contract the dynamic feedback controller
/// drives. Processors execute iterations (lowered to micro-ops by the IR
/// interpreter) under dynamic self-scheduling; spin locks are FIFO with
/// waiting time converted into counted failed acquires; every iteration
/// boundary polls the (virtual) timer -- the potential switch points of
/// paper Section 4.1 -- and interval expiration ends with a synchronous
/// barrier.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_SIM_SECTIONSIM_H
#define DYNFB_SIM_SECTIONSIM_H

#include "ir/Module.h"
#include "rt/Binding.h"
#include "rt/Interp.h"
#include "rt/IntervalRunner.h"
#include "rt/Sched.h"
#include "rt/SectionTrace.h"
#include "sim/Machine.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dynfb::sim {

/// One code version to simulate: a display label, the generated entry
/// method, and the loop scheduling strategy its dispatch loop uses.
/// Under chunked scheduling each scheduler fetch claims a contiguous chunk
/// of iterations; the timer is polled (and the interval deadline checked)
/// only at chunk boundaries, so larger chunks amortize scheduling overhead
/// at the price of coarser switch points.
struct SimVersion {
  std::string Label;
  const ir::Method *Entry = nullptr;
  rt::SchedSpec Sched;
};

/// rt::thisObjectInjective(\p Binding) when some version's locks are all on
/// This (rt::locksOnlyThis) -- the only case an emitter asks -- and nullopt
/// otherwise.
std::optional<bool>
thisInjectiveIfNeeded(const rt::DataBinding &Binding,
                      const std::vector<SimVersion> &Versions);

/// IntervalRunner over the simulated machine.
class SimSectionRunner : public rt::IntervalRunner {
public:
  /// \p Instrumented adds the overhead-measurement cost to every lock
  /// operation (the Dynamic executable always runs instrumented code).
  /// \p ThisInjective is rt::thisObjectInjective(Binding) when the caller
  /// already knows it; otherwise the runner checks it once for all its
  /// versions, and only if some version's locks are all on This.
  SimSectionRunner(SimMachine &Machine, const rt::DataBinding &Binding,
                   std::vector<SimVersion> Versions, bool Instrumented,
                   std::optional<bool> ThisInjective = std::nullopt);
  ~SimSectionRunner() override;

  unsigned numVersions() const override {
    return static_cast<unsigned>(Versions.size());
  }
  std::string versionLabel(unsigned V) const override {
    return Versions[V].Label;
  }
  rt::IntervalReport runInterval(unsigned V, rt::Nanos Target) override;
  bool done() const override { return NextIter >= NumIterations; }
  void reset() override { NextIter = 0; }

  /// Scheduling position, for checkpoint/rollback: the next unclaimed
  /// iteration. Only meaningful between intervals, where the interval-local
  /// state is quiescent -- together with SimMachine::Checkpoint this is all
  /// the state a mid-section fork needs (docs/REPLAY.md).
  uint64_t nextIteration() const { return NextIter; }
  void setNextIteration(uint64_t Iter) { NextIter = Iter; }
  rt::Nanos now() const override { return Machine.now(); }

  /// Attaches a trace; each subsequent runInterval fills it (clearing any
  /// previous contents unless the trace is marked Cumulative, in which case
  /// intervals accumulate). Pass nullptr to detach.
  void attachTrace(rt::IntervalTrace *T) { Trace = T; }

  /// Attaches a perturbation engine and the section name its scope filters
  /// match against (SimBackend wires this from the machine's engine). With
  /// no engine -- or an engine whose schedule never touches this section --
  /// simulation is bit-identical to the unperturbed behaviour.
  void setPerturbation(const perturb::PerturbationEngine *Engine,
                       std::string Section);

  /// Attaches per-version micro-op caches (\p Caches must hold one entry
  /// per code version and outlive this runner; SimBackend owns them per
  /// section, so cached sequences survive across section occurrences).
  /// Without caches every iteration is interpreted live. Pass nullptr to
  /// detach.
  void attachOpsCaches(std::vector<rt::EmittedOpsCache> *Caches);

private:
  /// Reusable per-interval simulation state (processors, locks, ready
  /// queue), reset -- not reallocated -- each interval; see SectionSim.cpp.
  struct IntervalState;

  template <bool Topo>
  rt::IntervalReport runIntervalImpl(unsigned V, rt::Nanos Target);

  rt::IntervalTrace *Trace = nullptr;
  const perturb::PerturbationEngine *Perturb = nullptr;
  std::string SectionName;
  SimMachine &Machine;
  const rt::DataBinding &Binding;
  const std::vector<SimVersion> Versions;
  std::vector<rt::IterationEmitter> Emitters; ///< One per version.
  const bool Instrumented;
  /// True when any version uses non-dynamic scheduling: the generated code
  /// then also instruments scheduling fetches and switch-barrier waiting,
  /// which the feedback controller needs to compare scheduling variants.
  /// The pure-synchronization space keeps the paper's original
  /// instrumentation (and cost behaviour) exactly.
  const bool SchedInstrumented;
  const uint64_t NumIterations;
  uint64_t NextIter = 0;
  std::unique_ptr<IntervalState> State;
};

} // namespace dynfb::sim

#endif // DYNFB_SIM_SECTIONSIM_H
