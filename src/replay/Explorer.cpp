//===- replay/Explorer.cpp ------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "replay/Explorer.h"

#include "fb/Controller.h"
#include "sim/Backend.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

using namespace dynfb;
using namespace dynfb::replay;

namespace {

/// Large but overflow-safe interval target (the fixed-flavour convention).
constexpr rt::Nanos Unbounded = std::numeric_limits<rt::Nanos>::max() / 4;

/// Runs one section occurrence to completion on \p Runner with \p V
/// pinned, from its machine's current state, and records it as a what-if.
WhatIf runOccurrencePinned(sim::SimSectionRunner &Runner,
                           const std::string &Name, size_t Occurrence,
                           unsigned V) {
  WhatIf W;
  W.Occurrence = Occurrence;
  W.Section = Name;
  W.Version = std::min(V, Runner.numVersions() - 1);
  W.Label = Runner.versionLabel(W.Version);
  W.StartNanos = Runner.now();
  while (!Runner.done()) {
    const rt::IntervalReport Report = Runner.runInterval(W.Version, Unbounded);
    W.Stats.merge(Report.Stats);
    if (Report.Finished)
      break;
  }
  W.DurationNanos = Runner.now() - W.StartNanos;
  return W;
}

} // namespace

std::span<const WhatIf> Exploration::occurrence(size_t Occ) const {
  const auto Range =
      std::ranges::equal_range(WhatIfs, Occ, {}, &WhatIf::Occurrence);
  return {Range.begin(), Range.end()};
}

double RegretSummary::regretRatio() const {
  if (ClairvoyantParallelNanos <= 0)
    return 0.0;
  return static_cast<double>(DynamicParallelNanos) /
             static_cast<double>(ClairvoyantParallelNanos) -
         1.0;
}

RegretSummary replay::summarizeRegret(const Exploration &E) {
  RegretSummary S;
  for (size_t Occ = 0; Occ < E.Mainline.Occurrences.size(); ++Occ) {
    S.DynamicParallelNanos += E.Mainline.Occurrences[Occ].durationNanos();
    rt::Nanos Best = 0;
    bool Any = false;
    for (const WhatIf &W : E.occurrence(Occ))
      if (!Any || W.DurationNanos < Best) {
        Best = W.DurationNanos;
        Any = true;
      }
    S.ClairvoyantParallelNanos += Any ? Best : 0;
  }
  return S;
}

Exploration replay::explore(const apps::App &App, unsigned Procs,
                            const rt::MachineModel &Model,
                            const fb::FeedbackConfig &Config,
                            const perturb::PerturbationEngine *Perturb) {
  const std::unique_ptr<sim::SimBackend> Backend =
      App.makeSimBackend(Procs, Model, apps::VersionSpec::dynamicFeedback());
  Backend->setPerturbation(Perturb);

  // Workers pull versions from one counter; the mainline controller runs
  // on this thread beside them.
  const unsigned MaxWorkers = std::max(1u, std::thread::hardware_concurrency());
  Exploration E;
  fb::FeedbackController Controller(Config, nullptr, &E.Decisions);
  const rt::Nanos Start = Backend->now();
  size_t Occurrence = 0;

  for (const rt::Phase &P : App.schedule()) {
    switch (P.K) {
    case rt::Phase::Kind::Serial:
      Backend->runSerial(P.SerialNanos);
      break;
    case rt::Phase::Kind::Parallel: {
      // Fork: every version runs the whole occurrence on its own machine
      // built from this boundary's checkpoint, so all what-ifs (and the
      // mainline below, which keeps the backend's machine) start from the
      // identical state. The ops caches are filled here first, on this
      // thread: afterwards every runner only reads them (docs/REPLAY.md).
      Backend->fillOpsCaches(P.SectionName);
      const sim::SimMachine::Checkpoint CP = Backend->machine().checkpoint();
      const unsigned NumV = Backend->numVersions(P.SectionName);
      const size_t First = E.WhatIfs.size();
      E.WhatIfs.resize(First + NumV);
      std::atomic<unsigned> NextV{0};
      const auto RunWhatIfs = [&] {
        for (unsigned V; (V = NextV.fetch_add(1, std::memory_order_relaxed)) <
                         NumV;) {
          sim::SimMachine Fork(Procs, Model.clone());
          Fork.restore(CP);
          Fork.setPerturbation(Perturb);
          E.WhatIfs[First + V] = runOccurrencePinned(
              *Backend->beginSectionOn(Fork, P.SectionName), P.SectionName,
              Occurrence, V);
        }
      };
      {
        std::vector<std::jthread> Workers;
        for (unsigned I = 0; I < std::min(NumV, MaxWorkers); ++I)
          Workers.emplace_back(RunWhatIfs);
        // Mainline: the real dynamic-feedback execution -- bit-identical to
        // a run that never explored.
        const std::unique_ptr<rt::IntervalRunner> Runner =
            Backend->beginSection(P.SectionName);
        fb::SectionExecutionTrace Trace =
            Controller.executeSection(*Runner, P.SectionName);
        E.Mainline.ParallelStats.merge(Trace.Total);
        E.Mainline.Occurrences.push_back(std::move(Trace));
      } // Joins the workers.
      ++Occurrence;
      break;
    }
    }
  }
  E.Mainline.TotalNanos = Backend->now() - Start;
  return E;
}

std::vector<WhatIf>
replay::runPinned(const apps::App &App, unsigned Procs,
                  const rt::MachineModel &Model, unsigned Version,
                  const perturb::PerturbationEngine *Perturb) {
  const std::unique_ptr<sim::SimBackend> Backend =
      App.makeSimBackend(Procs, Model, apps::VersionSpec::dynamicFeedback());
  Backend->setPerturbation(Perturb);

  std::vector<WhatIf> Out;
  for (const rt::Phase &P : App.schedule()) {
    switch (P.K) {
    case rt::Phase::Kind::Serial:
      Backend->runSerial(P.SerialNanos);
      break;
    case rt::Phase::Kind::Parallel: {
      const std::unique_ptr<sim::SimSectionRunner> Runner =
          Backend->beginSectionSim(P.SectionName);
      Out.push_back(
          runOccurrencePinned(*Runner, P.SectionName, Out.size(), Version));
      break;
    }
    }
  }
  return Out;
}

std::string replay::renderWhatIfReport(const Exploration &E) {
  // Version labels in first-appearance (version) order, unioned across
  // sections: the counterfactual columns.
  std::vector<std::string> Labels;
  for (const WhatIf &W : E.WhatIfs)
    if (std::find(Labels.begin(), Labels.end(), W.Label) == Labels.end())
      Labels.push_back(W.Label);

  Table T("What-if exploration (checkpointed counterfactuals, seconds)");
  std::vector<std::string> Header{"#", "Section", "Dynamic"};
  for (const std::string &L : Labels)
    Header.push_back(L);
  Header.push_back("Clairvoyant");
  T.setHeader(Header);

  for (size_t Occ = 0; Occ < E.Mainline.Occurrences.size(); ++Occ) {
    const fb::SectionExecutionTrace &M = E.Mainline.Occurrences[Occ];
    const std::span<const WhatIf> Ws = E.occurrence(Occ);
    const WhatIf *Best = nullptr;
    for (const WhatIf &W : Ws)
      if (!Best || W.DurationNanos < Best->DurationNanos)
        Best = &W;
    std::vector<std::string> Row{
        format("%zu", Occ), M.SectionName,
        formatDouble(rt::nanosToSeconds(M.durationNanos()), 3)};
    for (const std::string &L : Labels) {
      const WhatIf *Found = nullptr;
      for (const WhatIf &W : Ws)
        if (W.Label == L)
          Found = &W;
      Row.push_back(
          Found ? formatDouble(rt::nanosToSeconds(Found->DurationNanos), 3) +
                      (Found == Best ? " *" : "")
                : std::string("-"));
    }
    Row.push_back(Best ? Best->Label : "-");
    T.addRow(Row);
  }

  const RegretSummary S = summarizeRegret(E);
  std::string Out = T.renderText();
  Out += format("  dynamic parallel time %s, clairvoyant oracle %s, regret "
                "%.1f%%\n",
                formatSeconds(rt::nanosToSeconds(S.DynamicParallelNanos))
                    .c_str(),
                formatSeconds(rt::nanosToSeconds(S.ClairvoyantParallelNanos))
                    .c_str(),
                S.regretRatio() * 100.0);
  return Out;
}
