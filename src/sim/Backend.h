//===- sim/Backend.h - Simulator execution backend ---------------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionBackend over the SimMachine. Applications register each parallel
/// section's data binding and generated code versions; each beginSection
/// call produces a fresh SimSectionRunner positioned at iteration zero.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_SIM_BACKEND_H
#define DYNFB_SIM_BACKEND_H

#include "rt/Backend.h"
#include "rt/Binding.h"
#include "rt/SectionRegistry.h"
#include "rt/SectionTrace.h"
#include "sim/Machine.h"
#include "sim/SectionSim.h"

#include <map>
#include <optional>
#include <string>
#include <utility>

namespace dynfb::sim {

/// Simulated-machine backend. \p Instrumented reflects the executable
/// flavour: the Dynamic executable compiles in the overhead instrumentation,
/// the static (single-policy) executables do not.
class SimBackend : public rt::ExecutionBackend {
public:
  SimBackend(unsigned NumProcs, rt::CostModel Costs, bool Instrumented)
      : Machine(NumProcs, Costs), Instrumented(Instrumented) {}

  /// Backend over a machine model (cloned; \p Model need not outlive the
  /// backend).
  SimBackend(unsigned NumProcs, const rt::MachineModel &Model,
             bool Instrumented)
      : Machine(NumProcs, Model.clone()), Instrumented(Instrumented) {}

  /// Registers a section. \p Binding must outlive the backend.
  void addSection(const std::string &Name, const rt::DataBinding *Binding,
                  std::vector<SimVersion> Versions);

  /// Registers every section of a backend-agnostic registry (the single
  /// construction path applications use; see rt/SectionRegistry.h).
  void addSections(const rt::SectionRegistry &Registry);

  void runSerial(rt::Nanos Dur) override { Machine.advance(Dur); }

  rt::BackendKind kind() const override { return rt::BackendKind::Sim; }

  std::unique_ptr<rt::IntervalRunner>
  beginSection(const std::string &Name) override;

  /// Like beginSection but with the concrete simulator type, so callers can
  /// attach an IntervalTrace.
  std::unique_ptr<SimSectionRunner>
  beginSectionSim(const std::string &Name);

  /// A runner of section \p Name that simulates on \p M -- typically a
  /// machine forked from a checkpoint of this backend's -- instead of this
  /// backend's machine. It shares the section's ops caches and takes \p M's
  /// perturbation engine; it never carries a section trace. Runners on
  /// different machines may run on different threads once the section's
  /// caches are filled (fillOpsCaches). \p M must outlive the runner.
  std::unique_ptr<SimSectionRunner> beginSectionOn(SimMachine &M,
                                                   const std::string &Name);

  /// Number of code versions registered for section \p Name.
  unsigned numVersions(const std::string &Name) const;

  /// Fills every version's ops cache of section \p Name, so the section's
  /// runners afterwards only read them. Later calls find the caches full
  /// and emit nothing.
  void fillOpsCaches(const std::string &Name);

  rt::Nanos now() const override { return Machine.now(); }

  SimMachine &machine() { return Machine; }

  /// When enabled, every runner handed out by beginSection carries a
  /// cumulative IntervalTrace owned by the backend (one per section name),
  /// accumulating lock contention and per-processor time decomposition over
  /// the whole run -- the data behind the trace exporter's lock records.
  /// Off by default: tracing is observation only, never part of a plain
  /// run's cost.
  void setCollectSectionTraces(bool Enable) override {
    CollectSectionTraces = Enable;
  }

  /// The accumulated per-section traces (empty unless collection was
  /// enabled before the run).
  const std::map<std::string, rt::IntervalTrace> &
  sectionTraces() const override {
    return SectionTraces;
  }

  /// Simulated machines honor fault injection.
  void setPerturbation(const perturb::PerturbationEngine *Engine) override {
    Machine.setPerturbation(Engine);
  }

private:
  struct SectionInfo {
    const rt::DataBinding *Binding = nullptr;
    std::vector<SimVersion> Versions;
    /// One memoized micro-op cache per code version, shared by every
    /// runner of this section so cached sequences survive across section
    /// occurrences (valid because iterationClass keys are stable for the
    /// binding's lifetime; re-registering a section replaces the caches).
    std::vector<rt::EmittedOpsCache> OpsCaches;
    /// rt::thisObjectInjective(*Binding), checked once at registration when
    /// some version's locks are all on This (which may make them private).
    std::optional<bool> ThisInjective;
  };

  const SectionInfo &section(const std::string &Name) const;
  SectionInfo &section(const std::string &Name) {
    return const_cast<SectionInfo &>(std::as_const(*this).section(Name));
  }

  SimMachine Machine;
  const bool Instrumented;
  std::map<std::string, SectionInfo> Sections;
  bool CollectSectionTraces = false;
  /// std::map: entry addresses are stable, so live runners can hold a
  /// pointer into it across later insertions.
  std::map<std::string, rt::IntervalTrace> SectionTraces;
};

} // namespace dynfb::sim

#endif // DYNFB_SIM_BACKEND_H
