//===- sim/Machine.h - Simulated multiprocessor state -----------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated shared-memory multiprocessor: a processor count, a machine
/// model (rt::MachineModel -- the flat DASH-like cost model by default) and
/// a global virtual clock. Serial phases advance the clock directly;
/// parallel sections are simulated event-driven by SimSectionRunner, which
/// advances the clock by each interval's effective duration. For
/// topology-aware models the machine additionally tracks each lock's home
/// node (the cluster that last held its cache line), the state migratory
/// lock pricing depends on. All of the paper's machine experiments run on
/// this substrate, which makes every measurement deterministic and
/// host-independent.
///
/// A machine may carry a PerturbationEngine: section runners consult it to
/// inject schedule-driven environmental faults (processor slowdowns,
/// contention bursts, timer noise, ...). Without one attached, simulation
/// is bit-identical to the unperturbed seed behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_SIM_MACHINE_H
#define DYNFB_SIM_MACHINE_H

#include "rt/CostModel.h"
#include "rt/MachineModel.h"
#include "rt/Time.h"
#include "support/Compiler.h"

#include <cassert>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dynfb::perturb {
class PerturbationEngine;
} // namespace dynfb::perturb

namespace dynfb::sim {

/// Virtual machine state shared by all simulated sections of one run.
class SimMachine {
public:
  /// Flat-machine compatibility constructor: wraps \p Costs in the
  /// constant-cost model, preserving the seed behaviour bit for bit.
  SimMachine(unsigned NumProcs, rt::CostModel Costs)
      : SimMachine(NumProcs,
                   std::make_unique<rt::FlatMachineModel>(Costs)) {}

  SimMachine(unsigned NumProcs,
             std::unique_ptr<const rt::MachineModel> Model)
      : NumProcs(NumProcs), Model(std::move(Model)) {
    assert(NumProcs >= 1 && "machine needs at least one processor");
    assert(this->Model && "machine needs a model");
  }

  unsigned numProcs() const { return NumProcs; }
  const rt::MachineModel &model() const { return *Model; }
  const rt::CostModel &costs() const { return Model->costs(); }

  /// The lock home-node tracker of \p Section: entry i is the node that
  /// last held lock object i's cache line, -1 while the line is cold.
  /// Persists across intervals and section occurrences of one run -- the
  /// line stays wherever the last acquirer pulled it -- which is what
  /// topology-aware models price migratory locking from. Grown to at least
  /// \p Count entries.
  std::vector<int> &lockHomes(const std::string &Section, size_t Count) {
    std::vector<int> &Homes = LockHomes[Section];
    if (Homes.size() < Count)
      Homes.resize(Count, -1);
    return Homes;
  }

  /// A snapshot of the machine's cross-interval state: the virtual clock
  /// and every section's lock home-node tracker. This is the complete
  /// forkable state -- interval-local simulation state
  /// (SimSectionRunner::IntervalState) is quiescent between intervals, the
  /// perturbation engine is stateless (pure functions of section, processor
  /// and virtual time), and the machine model is immutable -- so restoring
  /// a checkpoint taken at a phase boundary makes every subsequent
  /// simulation bit-identical to one that never diverged (docs/REPLAY.md
  /// states the invariants; replay::Explorer is the main consumer).
  struct Checkpoint {
    rt::Nanos Clock = 0;
    std::map<std::string, std::vector<int>> LockHomes;
  };

  Checkpoint checkpoint() const { return Checkpoint{Clock, LockHomes}; }

  /// Rewinds the machine to \p CP, or forks one from it when called on a
  /// fresh machine with the same processor count and model (what
  /// replay::explore does for each what-if). Legal at any point where no
  /// interval is in flight; the engine attachment is deliberately not part
  /// of the snapshot (it is configuration, not simulated state).
  void restore(const Checkpoint &CP) {
    Clock = CP.Clock;
    LockHomes = CP.LockHomes;
  }

  /// Current global virtual time.
  rt::Nanos now() const { return Clock; }

  /// Advances the clock (serial phases, barrier episodes). Negative
  /// durations and virtual-time overflow are checked error paths, diagnosed
  /// in every build configuration: both would silently corrupt every
  /// downstream measurement.
  void advance(rt::Nanos Dur) {
    DYNFB_CHECK(Dur >= 0, "SimMachine::advance: negative duration");
    DYNFB_CHECK(Dur <= std::numeric_limits<rt::Nanos>::max() - Clock,
                "SimMachine::advance: virtual-time overflow");
    Clock += Dur;
  }

  /// Attaches a perturbation engine (nullptr detaches). The engine must
  /// outlive the machine's use of it; SimBackend hands it to every runner
  /// it creates from then on.
  void setPerturbation(const perturb::PerturbationEngine *Engine) {
    Perturb = Engine;
  }
  const perturb::PerturbationEngine *perturbation() const { return Perturb; }

private:
  const unsigned NumProcs;
  const std::unique_ptr<const rt::MachineModel> Model;
  std::map<std::string, std::vector<int>> LockHomes;
  rt::Nanos Clock = 0;
  const perturb::PerturbationEngine *Perturb = nullptr;
};

} // namespace dynfb::sim

#endif // DYNFB_SIM_MACHINE_H
