//===- hostbench/Layers.cpp -----------------------------------------------===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "exp/Experiment.h"
#include "obs/Export.h"
#include "rt/Backend.h"
#include "sim/Throughput.h"
#include "support/StringUtils.h"

#include <memory>

using namespace dynfb;
using namespace dynfb::hostbench;

namespace {

/// Host seconds spent inside the simulator calls of one or more runs.
struct SimClock {
  double BeginSection = 0; ///< ExecutionBackend::beginSection.
  double Interval = 0;     ///< IntervalRunner::runInterval.
  double Serial = 0;       ///< ExecutionBackend::runSerial.
  uint64_t MicroOps = 0;   ///< Simulated micro-ops those intervals ran.
};

/// Forwards to the simulator's runner, timing runInterval.
class TimedRunner : public rt::IntervalRunner {
public:
  TimedRunner(std::unique_ptr<rt::IntervalRunner> Inner, SimClock &Times)
      : Inner(std::move(Inner)), Times(Times) {}

  unsigned numVersions() const override { return Inner->numVersions(); }
  std::string versionLabel(unsigned V) const override {
    return Inner->versionLabel(V);
  }
  rt::IntervalReport runInterval(unsigned V, rt::Nanos Target) override {
    const uint64_t Ops = sim::throughputCounters().MicroOps;
    const Clock::time_point Start = Clock::now();
    rt::IntervalReport R = Inner->runInterval(V, Target);
    Times.Interval += secondsSince(Start);
    Times.MicroOps += sim::throughputCounters().MicroOps - Ops;
    return R;
  }
  bool done() const override { return Inner->done(); }
  void reset() override { Inner->reset(); }
  rt::Nanos now() const override { return Inner->now(); }

private:
  std::unique_ptr<rt::IntervalRunner> Inner;
  SimClock &Times;
};

/// Forwards every call to \p Inner, timing the section and interval calls.
class TimedBackend : public rt::ExecutionBackend {
public:
  TimedBackend(rt::ExecutionBackend &Inner, SimClock &Times)
      : Inner(Inner), Times(Times) {}

  void runSerial(rt::Nanos Dur) override {
    const Clock::time_point Start = Clock::now();
    Inner.runSerial(Dur);
    Times.Serial += secondsSince(Start);
  }
  std::unique_ptr<rt::IntervalRunner>
  beginSection(const std::string &Name) override {
    const Clock::time_point Start = Clock::now();
    std::unique_ptr<rt::IntervalRunner> Runner = Inner.beginSection(Name);
    Times.BeginSection += secondsSince(Start);
    return std::make_unique<TimedRunner>(std::move(Runner), Times);
  }
  rt::Nanos now() const override { return Inner.now(); }
  rt::BackendKind kind() const override { return Inner.kind(); }
  void setCollectSectionTraces(bool Enable) override {
    Inner.setCollectSectionTraces(Enable);
  }
  const std::map<std::string, rt::IntervalTrace> &
  sectionTraces() const override {
    return Inner.sectionTraces();
  }
  void setPerturbation(const perturb::PerturbationEngine *Engine) override {
    Inner.setPerturbation(Engine);
  }

private:
  rt::ExecutionBackend &Inner;
  SimClock &Times;
};

std::string statsText(const rt::OverheadStats &S) {
  return format("%llu/%llu/%lld/%lld/%lld/%lld",
                static_cast<unsigned long long>(S.AcquireReleasePairs),
                static_cast<unsigned long long>(S.FailedAcquires),
                static_cast<long long>(S.LockOpNanos),
                static_cast<long long>(S.WaitNanos),
                static_cast<long long>(S.SchedNanos),
                static_cast<long long>(S.ExecNanos));
}

} // namespace

fb::RunResult hostbench::runDynamic(rt::ExecutionBackend &Backend,
                                    const apps::App &App,
                                    const rt::MachineModel &Model,
                                    const fb::FeedbackConfig &Config,
                                    const perturb::PerturbationEngine *Perturb,
                                    apps::RunObservation *Obs,
                                    LayerTable *Table) {
  Backend.setPerturbation(Perturb);
  if (Obs && Obs->CollectSectionTraces)
    Backend.setCollectSectionTraces(true);
  fb::RunOptions Options;
  Options.Mode = fb::ExecMode::Dynamic;
  Options.Config = Config;
  if (!Options.Config.Machine)
    Options.Config.Machine = &Model;
  fb::PolicyHistory History;
  Options.History = Config.UsePolicyOrdering ? &History : nullptr;
  Options.Log = Obs ? &Obs->Log : nullptr;

  fb::RunResult Result;
  if (Table) {
    SimClock Times;
    TimedBackend Timed(Backend, Times);
    const Clock::time_point Start = Clock::now();
    Result = fb::runSchedule(Timed, App.schedule(), Options);
    const double Total = secondsSince(Start);
    Table->add("sim.begin_section_s", Times.BeginSection);
    Table->add("sim.interval_s", Times.Interval);
    Table->add("fb.self_s",
               Total - Times.BeginSection - Times.Interval - Times.Serial);
    Table->IntervalOps += Times.MicroOps;
  } else {
    Result = fb::runSchedule(Backend, App.schedule(), Options);
  }
  if (Obs && Obs->CollectSectionTraces)
    Obs->SectionTraces = Backend.sectionTraces();
  return Result;
}

std::string hostbench::describeResult(const fb::RunResult &R) {
  std::string Out = format("total=%lld;all=%s", static_cast<long long>(
                                                    R.TotalNanos),
                           statsText(R.ParallelStats).c_str());
  for (const fb::SectionExecutionTrace &O : R.Occurrences) {
    Out += format(";%s@%lld-%lld:%s:phases=%u,sampled=%u,degenerate=%u,"
                  "early=%u,holds=%u,quarantines=%u,reprobes=%u,"
                  "watchdog=%u,degraded=%u,prunes=%u,promotes=%u,"
                  "sampled_ns=%lld:chosen=",
                  O.SectionName.c_str(), static_cast<long long>(O.StartNanos),
                  static_cast<long long>(O.EndNanos),
                  statsText(O.Total).c_str(), O.SamplingPhases,
                  O.SampledIntervals, O.DegenerateIntervals, O.EarlyResamples,
                  O.HysteresisHolds, O.Quarantines, O.Reprobes,
                  O.WatchdogResamples, O.DegradedPhases, O.Prunes, O.Promotes,
                  static_cast<long long>(O.SampledNanos));
    for (unsigned V : O.ChosenVersions)
      Out += format("%u,", V);
  }
  return Out;
}

std::string hostbench::jsonlBody(const obs::RunTrace &Trace) {
  const std::string Text = obs::toJsonl(Trace);
  const size_t Eol = Text.find('\n');
  return Eol == std::string::npos ? "" : Text.substr(Eol + 1);
}

std::string hostbench::decisionJsonl(const obs::DecisionLog &Log) {
  obs::RunTrace Trace;
  Trace.Decisions = Log.events();
  return jsonlBody(Trace);
}

std::string hostbench::digest(const std::string &Text) {
  return format("%016llx",
                static_cast<unsigned long long>(exp::fnv1a(Text)));
}
