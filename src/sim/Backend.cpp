//===- sim/Backend.cpp ----------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/Backend.h"

#include "support/Compiler.h"

#include <cassert>

using namespace dynfb;
using namespace dynfb::sim;

void SimBackend::addSection(const std::string &Name,
                            const rt::DataBinding *Binding,
                            std::vector<SimVersion> Versions) {
  assert(Binding && "section registered without a binding");
  assert(!Versions.empty() && "section registered without versions");
  SectionInfo &Info = Sections[Name];
  Info.Binding = Binding;
  Info.Versions = std::move(Versions);
  // Fresh caches: a re-registered section may bring new code versions or a
  // new binding, invalidating previously memoized sequences.
  Info.OpsCaches = std::vector<rt::EmittedOpsCache>(Info.Versions.size());
  Info.ThisInjective = thisInjectiveIfNeeded(*Binding, Info.Versions);
}

void SimBackend::addSections(const rt::SectionRegistry &Registry) {
  for (const rt::SectionDesc &D : Registry.sections()) {
    std::vector<SimVersion> Versions;
    Versions.reserve(D.Versions.size());
    for (const rt::IrVersion &V : D.Versions)
      Versions.push_back(SimVersion{V.Label, V.Entry, V.Sched});
    addSection(D.Name, D.Binding, std::move(Versions));
  }
}

const SimBackend::SectionInfo &
SimBackend::section(const std::string &Name) const {
  auto It = Sections.find(Name);
  if (It == Sections.end())
    reportFatalError("beginSection: unknown parallel section name");
  return It->second;
}

std::unique_ptr<SimSectionRunner>
SimBackend::beginSectionOn(SimMachine &M, const std::string &Name) {
  SectionInfo &Info = section(Name);
  auto Runner = std::make_unique<SimSectionRunner>(
      M, *Info.Binding, Info.Versions, Instrumented, Info.ThisInjective);
  Runner->attachOpsCaches(&Info.OpsCaches);
  Runner->setPerturbation(M.perturbation(), Name);
  return Runner;
}

std::unique_ptr<SimSectionRunner>
SimBackend::beginSectionSim(const std::string &Name) {
  std::unique_ptr<SimSectionRunner> Runner = beginSectionOn(Machine, Name);
  if (CollectSectionTraces) {
    rt::IntervalTrace &Trace = SectionTraces[Name];
    Trace.Cumulative = true;
    Runner->attachTrace(&Trace);
  }
  return Runner;
}

unsigned SimBackend::numVersions(const std::string &Name) const {
  return static_cast<unsigned>(section(Name).Versions.size());
}

void SimBackend::fillOpsCaches(const std::string &Name) {
  SectionInfo &Info = section(Name);
  for (size_t V = 0; V < Info.Versions.size(); ++V) {
    rt::IterationEmitter Emitter(Info.Versions[V].Entry, *Info.Binding,
                                 Machine.costs(), Info.ThisInjective);
    Emitter.attachCache(&Info.OpsCaches[V]);
    Emitter.fillCache();
  }
}

std::unique_ptr<rt::IntervalRunner>
SimBackend::beginSection(const std::string &Name) {
  return beginSectionSim(Name);
}
