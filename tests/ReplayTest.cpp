//===- tests/ReplayTest.cpp - Record/replay and what-if explorer tests ----==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Covers the src/replay subsystem (docs/REPLAY.md): trace materialization
// and replay divergence detection, the run_spec meta round-trip, every
// knob-table row's CLI -> trace -> replay round trip and range check, the
// truncated-trace diagnostic, SimMachine checkpoint/restore identity, the
// Explorer's checkpointed counterfactuals against fresh pinned runs, and
// concurrent exploration against a serial checkpoint/restore reference.
//
//===----------------------------------------------------------------------===//

#include "apps/Factory.h"
#include "apps/Harness.h"
#include "fb/Controller.h"
#include "fb/Sampling.h"
#include "obs/Export.h"
#include "perturb/Engine.h"
#include "replay/Explorer.h"
#include "replay/Replay.h"
#include "rt/MachineModel.h"
#include "sim/Backend.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "xform/VersionSpace.h"

#include <gtest/gtest.h>
#include <limits>
#include <map>
#include <variant>

using namespace dynfb;
using namespace dynfb::rt;

namespace {

constexpr Nanos Unbounded = std::numeric_limits<Nanos>::max() / 4;

/// First parallel section of \p App's schedule.
std::string firstParallelSection(const apps::App &App) {
  for (const Phase &P : App.schedule())
    if (P.K == Phase::Kind::Parallel)
      return P.SectionName;
  return "";
}

/// Runs \p Section to completion with version \p V pinned and returns the
/// accumulated stats.
OverheadStats runSectionPinned(sim::SimBackend &Backend,
                               const std::string &Section, unsigned V) {
  const std::unique_ptr<sim::SimSectionRunner> Runner =
      Backend.beginSectionSim(Section);
  OverheadStats S;
  while (!Runner->done()) {
    const IntervalReport Report = Runner->runInterval(V, Unbounded);
    S.merge(Report.Stats);
    if (Report.Finished)
      break;
  }
  return S;
}

void expectStatsEqual(const OverheadStats &A, const OverheadStats &B) {
  EXPECT_EQ(A.AcquireReleasePairs, B.AcquireReleasePairs);
  EXPECT_EQ(A.FailedAcquires, B.FailedAcquires);
  EXPECT_EQ(A.LockOpNanos, B.LockOpNanos);
  EXPECT_EQ(A.WaitNanos, B.WaitNanos);
  EXPECT_EQ(A.SchedNanos, B.SchedNanos);
  EXPECT_EQ(A.ExecNanos, B.ExecNanos);
}

// --------------------- Checkpoint / restore --------------------------------

// A section re-run after restore() must be bit-identical to the first run
// from that state, and to an uninterrupted run on a fresh machine that
// reached the same state -- on the topology-aware model, whose pricing
// depends on the lock-home state a restore must rewind.
TEST(ReplayCheckpointTest, RestoreRerunsBitIdentical) {
  const std::unique_ptr<apps::App> App = apps::createApp("water", 0.125);
  ASSERT_NE(App, nullptr);
  const std::unique_ptr<MachineModel> Model =
      createMachineModel("dash-numa");
  ASSERT_NE(Model, nullptr);
  const std::string Section = firstParallelSection(*App);
  ASSERT_FALSE(Section.empty());

  const std::unique_ptr<sim::SimBackend> Backend = App->makeSimBackend(
      4, *Model, apps::VersionSpec::dynamicFeedback());
  Backend->runSerial(5000000);
  const sim::SimMachine::Checkpoint CP = Backend->machine().checkpoint();
  const Nanos Before = Backend->now();

  const OverheadStats First = runSectionPinned(*Backend, Section, 0);
  const Nanos After = Backend->now();
  // Disturb the clock and lock homes past the checkpoint...
  runSectionPinned(*Backend, Section, 1);
  EXPECT_GT(Backend->now(), After);
  // ...then rewind and re-run: same end state, same measurements.
  Backend->machine().restore(CP);
  EXPECT_EQ(Backend->now(), Before);
  const OverheadStats Second = runSectionPinned(*Backend, Section, 0);
  EXPECT_EQ(Backend->now(), After);
  expectStatsEqual(First, Second);

  // An uninterrupted run that never checkpointed agrees too.
  const std::unique_ptr<sim::SimBackend> Fresh = App->makeSimBackend(
      4, *Model, apps::VersionSpec::dynamicFeedback());
  Fresh->runSerial(5000000);
  const OverheadStats Uninterrupted = runSectionPinned(*Fresh, Section, 0);
  EXPECT_EQ(Fresh->now(), After);
  expectStatsEqual(First, Uninterrupted);
}

// ------------------------- Explorer ----------------------------------------

// The mainline the Explorer records while forking counterfactuals must be
// the run the dynamic policy would have executed with no exploration at
// all (the what-ifs run on forked machines and leave no residue).
TEST(ExplorerTest, MainlineMatchesUninterruptedRun) {
  const std::unique_ptr<apps::App> App = apps::createApp("string", 0.125);
  ASSERT_NE(App, nullptr);
  const std::unique_ptr<MachineModel> Model =
      createMachineModel("dash-flat");
  ASSERT_NE(Model, nullptr);

  const replay::Exploration E = replay::explore(*App, 8, *Model);
  const fb::RunResult R = apps::runApp(
      *App, 8, apps::VersionSpec::dynamicFeedback(), *Model);

  EXPECT_EQ(E.Mainline.TotalNanos, R.TotalNanos);
  EXPECT_EQ(E.Mainline.Occurrences.size(), R.Occurrences.size());
  expectStatsEqual(E.Mainline.ParallelStats, R.ParallelStats);
}

// Every checkpointed what-if must agree exactly with a fresh uninterrupted
// run pinning the same version: on the default (non-topology) machine an
// occurrence's cost is independent of its start state, so forking at the
// phase boundary is indistinguishable from never having run anything else.
TEST(ExplorerTest, CounterfactualsMatchFreshPinnedRuns) {
  const std::unique_ptr<apps::App> App = apps::createApp("water", 0.125);
  ASSERT_NE(App, nullptr);
  const std::unique_ptr<MachineModel> Model =
      createMachineModel("dash-flat");
  ASSERT_NE(Model, nullptr);

  const replay::Exploration E = replay::explore(*App, 4, *Model);
  ASSERT_FALSE(E.WhatIfs.empty());
  unsigned MaxVersions = 0;
  for (const replay::WhatIf &W : E.WhatIfs)
    MaxVersions = std::max(MaxVersions, W.Version + 1);

  size_t Checks = 0;
  for (unsigned V = 0; V < MaxVersions; ++V)
    for (const replay::WhatIf &G : replay::runPinned(*App, 4, *Model, V))
      for (const replay::WhatIf &W : E.occurrence(G.Occurrence)) {
        if (W.Version != G.Version)
          continue;
        ++Checks;
        EXPECT_EQ(W.DurationNanos, G.DurationNanos)
            << "occurrence " << G.Occurrence << " version " << G.Version;
        expectStatsEqual(W.Stats, G.Stats);
      }
  EXPECT_GT(Checks, 0u);

  const replay::RegretSummary S = replay::summarizeRegret(E);
  EXPECT_GT(S.DynamicParallelNanos, 0);
  EXPECT_GT(S.ClairvoyantParallelNanos, 0);
  const std::string Report = replay::renderWhatIfReport(E);
  EXPECT_NE(Report.find("What-if exploration"), std::string::npos);
  EXPECT_NE(Report.find("Clairvoyant"), std::string::npos);
}

/// The exploration as it ran before what-ifs were forked onto their own
/// machines: one backend, every version run in turn from the phase-boundary
/// checkpoint and rewound with restore(), then the mainline. The serial
/// reference the concurrent explore() must reproduce exactly.
replay::Exploration exploreSerially(const apps::App &App, unsigned Procs,
                                    const MachineModel &Model,
                                    const fb::FeedbackConfig &Config,
                                    const perturb::PerturbationEngine *Perturb) {
  const std::unique_ptr<sim::SimBackend> Backend = App.makeSimBackend(
      Procs, Model, apps::VersionSpec::dynamicFeedback());
  Backend->setPerturbation(Perturb);
  replay::Exploration E;
  fb::FeedbackController Controller(Config, nullptr, &E.Decisions);
  const Nanos Start = Backend->now();
  for (const Phase &P : App.schedule()) {
    if (P.K == Phase::Kind::Serial) {
      Backend->runSerial(P.SerialNanos);
      continue;
    }
    const sim::SimMachine::Checkpoint CP = Backend->machine().checkpoint();
    const unsigned NumV = Backend->numVersions(P.SectionName);
    for (unsigned V = 0; V < NumV; ++V) {
      replay::WhatIf W;
      W.Occurrence = E.Mainline.Occurrences.size();
      W.Section = P.SectionName;
      W.Version = V;
      W.Label = Backend->beginSectionSim(P.SectionName)->versionLabel(V);
      W.StartNanos = Backend->now();
      W.Stats = runSectionPinned(*Backend, P.SectionName, V);
      W.DurationNanos = Backend->now() - W.StartNanos;
      E.WhatIfs.push_back(W);
      Backend->machine().restore(CP);
    }
    const std::unique_ptr<IntervalRunner> Runner =
        Backend->beginSection(P.SectionName);
    fb::SectionExecutionTrace Trace =
        Controller.executeSection(*Runner, P.SectionName);
    E.Mainline.ParallelStats.merge(Trace.Total);
    E.Mainline.Occurrences.push_back(std::move(Trace));
  }
  E.Mainline.TotalNanos = Backend->now() - Start;
  return E;
}

std::string statsText(const OverheadStats &S) {
  return std::to_string(S.AcquireReleasePairs) + "/" +
         std::to_string(S.FailedAcquires) + "/" +
         std::to_string(S.LockOpNanos) + "/" + std::to_string(S.WaitNanos) +
         "/" + std::to_string(S.SchedNanos) + "/" +
         std::to_string(S.ExecNanos);
}

/// Every field of a run result in canonical text: end time, aggregate
/// stats, and each occurrence's window, stats, counters, chosen versions
/// and sampled overhead series.
std::string describeRun(const fb::RunResult &R) {
  std::string Out = "total " + std::to_string(R.TotalNanos) + " " +
                    statsText(R.ParallelStats) + "\n";
  for (const fb::SectionExecutionTrace &O : R.Occurrences) {
    Out += O.SectionName + " " + std::to_string(O.StartNanos) + "-" +
           std::to_string(O.EndNanos) + " " + statsText(O.Total);
    for (unsigned C :
         {O.SamplingPhases, O.SampledIntervals, O.SkippedByCutoff,
          O.DegenerateIntervals, O.EarlyResamples, O.HysteresisHolds,
          O.Quarantines, O.Reprobes, O.WatchdogResamples, O.DegradedPhases,
          O.Prunes, O.Promotes})
      Out += " " + std::to_string(C);
    Out += " sampled_ns " + std::to_string(O.SampledNanos) + " chosen";
    for (unsigned V : O.ChosenVersions)
      Out += " " + std::to_string(V);
    for (const Series &S : O.SampledOverheads.all()) {
      Out += " " + S.Label + ":";
      for (size_t I = 0; I < S.size(); ++I)
        Out += format(" %.17g,%.17g", S.Times[I], S.Values[I]);
    }
    for (const auto &[Label, Stat] : O.EffectiveSamplingByVersion)
      Out += format(" %s=%llu,%.17g,%.17g", Label.c_str(),
                    static_cast<unsigned long long>(Stat.count()),
                    Stat.sum(), Stat.stddev());
    Out += "\n";
  }
  return Out;
}

std::string decisionJsonl(const obs::DecisionLog &Log) {
  obs::RunTrace Trace;
  Trace.Decisions = Log.events();
  return obs::toJsonl(Trace);
}

/// Runs explore() three times against the serial reference: every what-if
/// field, the mainline result and the decision log must be equal each time.
void expectExploreMatchesSerial(const apps::App &App, unsigned Procs,
                                const MachineModel &Model,
                                const fb::FeedbackConfig &Config,
                                const perturb::PerturbationEngine *Perturb) {
  const replay::Exploration Ref =
      exploreSerially(App, Procs, Model, Config, Perturb);
  ASSERT_FALSE(Ref.WhatIfs.empty());
  const std::string RefRun = describeRun(Ref.Mainline);
  const std::string RefLog = decisionJsonl(Ref.Decisions);
  for (int Repeat = 0; Repeat < 3; ++Repeat) {
    SCOPED_TRACE("repeat " + std::to_string(Repeat));
    const replay::Exploration E =
        replay::explore(App, Procs, Model, Config, Perturb);
    ASSERT_EQ(E.WhatIfs.size(), Ref.WhatIfs.size());
    for (size_t I = 0; I < E.WhatIfs.size(); ++I) {
      const replay::WhatIf &W = E.WhatIfs[I], &R = Ref.WhatIfs[I];
      SCOPED_TRACE("what-if " + std::to_string(I));
      EXPECT_EQ(W.Occurrence, R.Occurrence);
      EXPECT_EQ(W.Section, R.Section);
      EXPECT_EQ(W.Version, R.Version);
      EXPECT_EQ(W.Label, R.Label);
      EXPECT_EQ(W.StartNanos, R.StartNanos);
      EXPECT_EQ(W.DurationNanos, R.DurationNanos);
      expectStatsEqual(W.Stats, R.Stats);
    }
    EXPECT_EQ(describeRun(E.Mainline), RefRun);
    EXPECT_EQ(decisionJsonl(E.Decisions), RefLog);
  }
}

// Concurrent exploration is deterministic: the forked what-ifs and the
// overlapped mainline reproduce the serial checkpoint/restore exploration
// exactly. Barnes-Hut on dash-numa prices locks from the lock-home state
// each fork must carry over from the checkpoint.
TEST(ExplorerDeterminismTest, BarnesHutDashNumaMatchesSerial) {
  const std::unique_ptr<apps::App> App = apps::createApp("barnes_hut", 0.125);
  ASSERT_NE(App, nullptr);
  const std::unique_ptr<MachineModel> Model =
      createMachineModel("dash-numa");
  ASSERT_NE(Model, nullptr);
  expectExploreMatchesSerial(*App, 8, *Model, {}, nullptr);
}

// A contention burst perturbs every fork exactly as it perturbs the
// mainline, with the drift and hysteresis knobs reacting to it.
TEST(ExplorerDeterminismTest, StringContendPerturbationMatchesSerial) {
  const std::unique_ptr<apps::App> App = apps::createApp("string", 0.125);
  ASSERT_NE(App, nullptr);
  const std::unique_ptr<MachineModel> Model =
      createMachineModel("dash-flat");
  ASSERT_NE(Model, nullptr);
  std::string Error;
  std::optional<perturb::PerturbationSchedule> Schedule =
      perturb::parseSchedule("contend@0.5s-2.5s:extra=300us", Error);
  ASSERT_TRUE(Schedule.has_value()) << Error;
  const perturb::PerturbationEngine Engine(std::move(*Schedule));
  fb::FeedbackConfig Config;
  Config.SwitchHysteresis = 0.05;
  Config.DriftResampleThreshold = 0.1;
  expectExploreMatchesSerial(*App, 4, *Model, Config, &Engine);
}

// The sync x sched space has more versions than most hosts have cores, so
// workers take several versions each.
TEST(ExplorerDeterminismTest, WaterSyncSchedSpaceMatchesSerial) {
  std::string Error;
  const std::optional<xform::VersionSpace> Space =
      xform::VersionSpace::parse("sync,sched", "8,32", Error);
  ASSERT_TRUE(Space.has_value()) << Error;
  const std::unique_ptr<apps::App> App =
      apps::createApp("water", 0.125, *Space);
  ASSERT_NE(App, nullptr);
  const std::unique_ptr<MachineModel> Model =
      createMachineModel("dash-flat");
  ASSERT_NE(Model, nullptr);
  fb::FeedbackConfig Config;
  Config.SpanSectionExecutions = true;
  Config.TargetSamplingNanos = millisToNanos(2);
  Config.TargetProductionNanos = secondsToNanos(2);
  expectExploreMatchesSerial(*App, 4, *Model, Config, nullptr);
}

// ------------------------- Record / replay ---------------------------------

/// Records a water run the way dynfb-run --trace-out does: run, build the
/// trace, stamp machine identity and the run_spec (mirroring the CLI's
/// stamping of its own configuration).
obs::RunTrace recordWaterRun(
    const MachineModel &Model,
    fb::SamplerKind Sampler = fb::SamplerKind::Exhaustive) {
  const std::unique_ptr<apps::App> App = apps::createApp("water", 0.25);
  EXPECT_NE(App, nullptr);
  fb::FeedbackConfig Config;
  Config.SpanSectionExecutions = true;
  Config.TargetSamplingNanos = millisToNanos(2);
  Config.TargetProductionNanos = secondsToNanos(2);
  Config.Sampler = Sampler;

  apps::RunObservation Obs;
  Obs.CollectSectionTraces = true;
  const fb::RunResult R =
      apps::runApp(*App, 4, apps::VersionSpec::dynamicFeedback(), Model,
                   Config, nullptr, nullptr, &Obs);

  obs::RunTrace Trace = apps::buildRunTrace("water", 4, "dynamic", R, &Obs);
  Trace.Meta.Machine = Model.name();
  Trace.Meta.MachineParams = Model.paramsString();
  obs::RunSpec &Spec = Trace.Meta.Spec;
  Spec.Present = true;
  Spec.Scale = 0.25;
  Spec.SamplingNanos = Config.TargetSamplingNanos;
  Spec.ProductionNanos = Config.TargetProductionNanos;
  Spec.Spanning = Config.SpanSectionExecutions;
  Spec.Sampler = fb::samplerName(Config.Sampler);
  Spec.SearchBudget = Config.SearchBudgetFraction;
  Spec.UcbExplore = Config.UcbExplore;
  return Trace;
}

// record -> replay -> record: zero divergence and a byte-identical
// serialization, through the JSONL round-trip as well.
TEST(ReplayTest, RecordReplayRecordByteIdentical) {
  const std::unique_ptr<MachineModel> Model =
      createMachineModel("dash-flat");
  ASSERT_NE(Model, nullptr);
  const obs::RunTrace Recorded = recordWaterRun(*Model);

  std::string Error;
  const std::optional<replay::ReplayResult> Result =
      replay::replayTrace(Recorded, Error);
  ASSERT_TRUE(Result.has_value()) << Error;
  EXPECT_FALSE(Result->diverged()) << Result->Divergence;
  EXPECT_EQ(obs::toJsonl(Recorded), obs::toJsonl(Result->Replayed));

  // The file-format round-trip preserves replayability byte for byte.
  const std::string Jsonl = obs::toJsonl(Recorded);
  const std::optional<obs::RunTrace> Parsed = obs::parseJsonl(Jsonl, Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_TRUE(Parsed->Meta.Spec.Present);
  EXPECT_EQ(obs::toJsonl(*Parsed), Jsonl);
  const std::optional<replay::ReplayResult> Again =
      replay::replayTrace(*Parsed, Error);
  ASSERT_TRUE(Again.has_value()) << Error;
  EXPECT_FALSE(Again->diverged()) << Again->Divergence;
}

// The partial-sampling strategies are replayable too: a ucb recording
// replays with zero divergence and re-serializes byte for byte, its
// prune/promote search decisions included, and a halving recording
// survives the JSONL round-trip the same way.
TEST(ReplayTest, PartialSamplingRecordingReplaysByteIdentical) {
  const std::unique_ptr<MachineModel> Model =
      createMachineModel("dash-flat");
  ASSERT_NE(Model, nullptr);
  const obs::RunTrace Recorded =
      recordWaterRun(*Model, fb::SamplerKind::Ucb);
  EXPECT_EQ(Recorded.Meta.Spec.Sampler, "ucb");
  bool SawSearchDecision = false;
  for (const obs::DecisionEvent &E : Recorded.Decisions)
    if (E.Kind == obs::DecisionKind::Prune ||
        E.Kind == obs::DecisionKind::Promote)
      SawSearchDecision = true;
  EXPECT_TRUE(SawSearchDecision);

  std::string Error;
  const std::optional<replay::ReplayResult> Result =
      replay::replayTrace(Recorded, Error);
  ASSERT_TRUE(Result.has_value()) << Error;
  EXPECT_FALSE(Result->diverged()) << Result->Divergence;
  EXPECT_EQ(obs::toJsonl(Recorded), obs::toJsonl(Result->Replayed));

  const obs::RunTrace Halving =
      recordWaterRun(*Model, fb::SamplerKind::Halving);
  const std::optional<obs::RunTrace> Parsed =
      obs::parseJsonl(obs::toJsonl(Halving), Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  const std::optional<replay::ReplayResult> Again =
      replay::replayTrace(*Parsed, Error);
  ASSERT_TRUE(Again.has_value()) << Error;
  EXPECT_FALSE(Again->diverged()) << Again->Divergence;
  EXPECT_EQ(obs::toJsonl(*Parsed), obs::toJsonl(Again->Replayed));
}

// A tampered recording diverges, and the report names the first
// mismatching line (the first diverging interval's decision record).
TEST(ReplayTest, DivergenceNamesFirstMismatchingLine) {
  const std::unique_ptr<MachineModel> Model =
      createMachineModel("dash-flat");
  ASSERT_NE(Model, nullptr);
  const obs::RunTrace Recorded = recordWaterRun(*Model);
  ASSERT_GE(Recorded.Decisions.size(), 2u);

  obs::RunTrace Tampered = Recorded;
  Tampered.Decisions[1].TimeNanos += 1;
  const std::string Divergence = replay::compareTraces(Recorded, Tampered);
  // Meta is line 1, decisions follow in order: decision [1] is line 3.
  EXPECT_NE(Divergence.find("line 3 (decision)"), std::string::npos)
      << Divergence;

  obs::RunTrace Longer = Recorded;
  Longer.Decisions.push_back(Recorded.Decisions.back());
  // An appended decision shifts every later line; the first mismatch is
  // where the section records used to start.
  EXPECT_NE(replay::compareTraces(Recorded, Longer).find("line"),
            std::string::npos);
  EXPECT_EQ(replay::compareTraces(Recorded, Recorded), "");
}

// Traces recorded before replay support (no run_spec) still parse -- the
// schema is additive -- but refuse to materialize with a clear message.
TEST(ReplayTest, PreReplayTraceParsesButIsNotReplayable) {
  const std::string Old =
      "{\"type\":\"meta\",\"schema\":1,\"app\":\"water\","
      "\"policy\":\"dynamic\",\"procs\":4,\"total_ns\":5}\n";
  std::string Error;
  const std::optional<obs::RunTrace> Trace = obs::parseJsonl(Old, Error);
  ASSERT_TRUE(Trace.has_value()) << Error;
  EXPECT_FALSE(Trace->Meta.Spec.Present);
  EXPECT_FALSE(replay::materialize(*Trace, Error).has_value());
  EXPECT_NE(Error.find("no run_spec"), std::string::npos) << Error;
}

// Native-backend traces are not replayable (real time is not
// deterministic); the refusal says so.
TEST(ReplayTest, NativeTraceIsNotReplayable) {
  const std::unique_ptr<MachineModel> Model =
      createMachineModel("dash-flat");
  ASSERT_NE(Model, nullptr);
  obs::RunTrace Trace = recordWaterRun(*Model);
  Trace.Meta.Backend = "native";
  std::string Error;
  EXPECT_FALSE(replay::materialize(Trace, Error).has_value());
  EXPECT_NE(Error.find("only simulator traces"), std::string::npos) << Error;
}

// ------------------------- run_spec round-trip ------------------------------

TEST(ReplayTest, RunSpecRoundTripsThroughJsonl) {
  obs::RunTrace Trace;
  Trace.Meta.App = "string";
  Trace.Meta.Policy = "dynamic";
  Trace.Meta.Procs = 8;
  Trace.Meta.TotalNanos = 123456789;
  obs::RunSpec &S = Trace.Meta.Spec;
  S.Present = true;
  S.Scale = 0.1; // Not exactly representable: exercises %.17g round-trip.
  S.Dimensions = "sync,sched";
  S.Chunks = "8,32";
  S.SamplingNanos = 2000000;
  S.ProductionNanos = 2000000000;
  S.Cutoff = true;
  S.Ordering = true;
  S.Spanning = true;
  S.Repeats = 5;
  S.Aggregate = "trimmed";
  S.Hysteresis = 0.3;
  S.Drift = 0.25;
  S.SliceNanos = 50000000;
  S.QuarantineStrikes = 3;
  S.QuarantineWindow = 12;
  S.QuarantineLimit = 1.5;
  S.QuarantineBackoff = 6;
  S.Watchdog = 2;
  S.WatchdogLimit = 0.7;
  S.Sampler = "halving";
  S.SearchBudget = 0.35;
  S.UcbExplore = 1.25;
  S.PerturbSpec = "contend@0.5s-1.5s:extra=300us:obj=1-64";
  S.CostOverrides = "AcquireNanos=400";

  const std::string Jsonl = obs::toJsonl(Trace);
  std::string Error;
  const std::optional<obs::RunTrace> Parsed = obs::parseJsonl(Jsonl, Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  const obs::RunSpec &P = Parsed->Meta.Spec;
  EXPECT_TRUE(P.Present);
  EXPECT_EQ(P.Scale, S.Scale);
  EXPECT_EQ(P.Dimensions, S.Dimensions);
  EXPECT_EQ(P.Chunks, S.Chunks);
  EXPECT_EQ(P.SamplingNanos, S.SamplingNanos);
  EXPECT_EQ(P.ProductionNanos, S.ProductionNanos);
  EXPECT_EQ(P.Cutoff, S.Cutoff);
  EXPECT_EQ(P.Ordering, S.Ordering);
  EXPECT_EQ(P.Spanning, S.Spanning);
  EXPECT_EQ(P.Repeats, S.Repeats);
  EXPECT_EQ(P.Aggregate, S.Aggregate);
  EXPECT_EQ(P.Hysteresis, S.Hysteresis);
  EXPECT_EQ(P.Drift, S.Drift);
  EXPECT_EQ(P.SliceNanos, S.SliceNanos);
  EXPECT_EQ(P.QuarantineStrikes, S.QuarantineStrikes);
  EXPECT_EQ(P.QuarantineWindow, S.QuarantineWindow);
  EXPECT_EQ(P.QuarantineLimit, S.QuarantineLimit);
  EXPECT_EQ(P.QuarantineBackoff, S.QuarantineBackoff);
  EXPECT_EQ(P.Watchdog, S.Watchdog);
  EXPECT_EQ(P.WatchdogLimit, S.WatchdogLimit);
  EXPECT_EQ(P.Sampler, S.Sampler);
  EXPECT_EQ(P.SearchBudget, S.SearchBudget);
  EXPECT_EQ(P.UcbExplore, S.UcbExplore);
  EXPECT_EQ(P.PerturbSpec, S.PerturbSpec);
  EXPECT_EQ(P.TrafficSpec, S.TrafficSpec);
  EXPECT_EQ(P.CostOverrides, S.CostOverrides);
  // Byte-identical re-serialization: the record->replay->record identity
  // rests on this.
  EXPECT_EQ(obs::toJsonl(*Parsed), Jsonl);
}

// ------------------------- The knob table -----------------------------------

/// Row names for the knob-table test instances.
std::vector<std::string> knobKeys() {
  std::vector<std::string> Keys;
  for (const obs::Knob &K : obs::runSpecKnobs())
    Keys.push_back(K.Key);
  return Keys;
}

std::string keyName(const testing::TestParamInfo<std::string> &Info) {
  return Info.param;
}

/// One test instance per knob-table row.
class ReplayKnobTest : public testing::TestWithParam<std::string> {
protected:
  const obs::Knob &knob() const { return obs::knobByKey(GetParam()); }
};

/// A valid, non-default value for every knob, as the dynfb-run arguments
/// that set it. Keyed by flag: a table row without an entry fails
/// RoundTripsCliTraceReplay, so a new knob cannot skip the round trip.
const std::map<std::string, std::vector<std::string>> KnobSamples = {
    {"scale", {"--scale", "0.05"}},
    {"dimensions", {"--dimensions", "sync,sched", "--chunks", "8"}},
    {"chunks", {"--dimensions", "sync,sched", "--chunks", "8,32"}},
    {"sampling", {"--sampling", "0.002"}},
    {"production", {"--production", "0.05"}},
    {"cutoff", {"--cutoff"}},
    {"ordering", {"--ordering"}},
    {"spanning", {"--spanning"}},
    {"repeats", {"--repeats", "3"}},
    {"aggregate", {"--repeats", "3", "--aggregate", "median"}},
    {"hysteresis", {"--hysteresis", "0.05"}},
    {"drift", {"--drift", "0.1"}},
    {"slice", {"--slice", "0.01"}},
    {"quarantine", {"--quarantine", "2"}},
    {"quarantine-window", {"--quarantine", "2", "--quarantine-window", "4"}},
    {"quarantine-limit", {"--quarantine", "2", "--quarantine-limit", "0.5"}},
    {"quarantine-backoff",
     {"--quarantine", "2", "--quarantine-backoff", "2"}},
    {"watchdog", {"--watchdog", "3"}},
    {"watchdog-limit", {"--watchdog", "3", "--watchdog-limit", "0.5"}},
    {"sampler", {"--sampler", "halving"}},
    {"search-budget", {"--sampler", "halving", "--search-budget", "0.4"}},
    {"ucb-explore", {"--sampler", "ucb", "--ucb-explore", "1.5"}},
    {"perturb", {"--perturb", "contend@0.1s-0.3s:extra=300us"}},
    {"traffic", {"--traffic", "storm:storm=0.4:seed=7"}},
    {"cost", {"--cost", "AcquireNanos=400"}},
    // Native only: the simulator rejects --timescale.
    {"timescale", {"--backend", "native", "--timescale", "0.001"}},
};

// Every knob survives CLI -> trace -> replay -> re-export: dynfb-run's flag
// parsing and resolution path (string at scale 0.1 on 2 processors), a
// JSONL round trip, a replay with zero divergence and a byte-identical
// re-export. The native-only timescale round-trips through the file and
// replay refuses it, as it refuses every native trace.
TEST_P(ReplayKnobTest, RoundTripsCliTraceReplay) {
  const obs::Knob &K = knob();
  const auto Sample = KnobSamples.find(K.Flag);
  ASSERT_NE(Sample, KnobSamples.end())
      << "no round-trip sample value for --" << K.Flag;
  std::vector<std::string> Args = {"dynfb-run"};
  if (Sample->first != "scale")
    Args.insert(Args.end(), {"--scale", "0.1"});
  Args.insert(Args.end(), Sample->second.begin(), Sample->second.end());
  std::vector<const char *> Argv;
  for (const std::string &A : Args)
    Argv.push_back(A.c_str());
  const CommandLine CL(static_cast<int>(Argv.size()), Argv.data());

  obs::TraceMeta Meta;
  Meta.App = "string";
  Meta.Policy = "dynamic";
  Meta.Procs = 2;
  Meta.Backend = CL.getString("backend", "sim");
  std::string Error;
  ASSERT_TRUE(obs::parseKnobFlags(CL, Meta.Spec, Error)) << Error;
  const obs::RunSpec Default;
  EXPECT_TRUE(std::visit(
      [&](auto Member) { return Meta.Spec.*Member != Default.*Member; },
      K.Field))
      << "the sample leaves --" << K.Flag << " at its default";

  const std::optional<replay::MaterializedRun> Run =
      replay::resolve(Meta, obs::KnobSource::CommandLine, Error);
  ASSERT_TRUE(Run.has_value()) << Error;
  const bool Native = Meta.Backend == "native";
  obs::RunTrace Recorded;
  replay::record(*Run, Meta,
                 Native ? apps::BackendOptions::native(Meta.Spec.TimeScale)
                        : apps::BackendOptions::sim(),
                 &Recorded);
  const std::string Jsonl = obs::toJsonl(Recorded);
  const std::optional<obs::RunTrace> Parsed = obs::parseJsonl(Jsonl, Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(obs::toJsonl(*Parsed), Jsonl);
  if (Native) {
    EXPECT_FALSE(replay::materialize(*Parsed, Error).has_value());
    return;
  }
  const std::optional<replay::ReplayResult> Result =
      replay::replayTrace(*Parsed, Error);
  ASSERT_TRUE(Result.has_value()) << Error;
  EXPECT_FALSE(Result->diverged()) << Result->Divergence;
  EXPECT_EQ(obs::toJsonl(Result->Replayed), Jsonl);
}

/// A value outside every knob's range, as run_spec JSON. Booleans have no
/// range: theirs is a value of the wrong type.
const std::map<std::string, std::string> OutOfRange = {
    {"scale", "-1"},
    {"dimensions", "\"bogus\""},
    {"chunks", "\"8\""},
    {"sampling_ns", "0"},
    {"production_ns", "-5"},
    {"cutoff", "3"},
    {"ordering", "\"yes\""},
    {"spanning", "null"},
    {"repeats", "-1"},
    {"aggregate", "\"mode\""},
    {"hysteresis", "-1"},
    {"drift", "1"},
    {"slice_ns", "-100"},
    {"quarantine", "-3"},
    {"quarantine_window", "0"},
    {"quarantine_limit", "-3"},
    {"quarantine_backoff", "4294967296"},
    {"watchdog", "-1"},
    {"watchdog_limit", "1.5"},
    {"sampler", "\"nosuch\""},
    {"search_budget", "0"},
    {"ucb_explore", "-1"},
    {"perturb", "\"bogus@1s-2s\""},
    {"traffic", "\"monsoon\""},
    {"cost", "\"Bogus=1\""},
    {"timescale", "-1"},
};

/// \p Jsonl with run_spec key \p Key's value replaced by \p Value (nullopt:
/// the key removed).
std::string withRunSpecValue(const std::string &Jsonl, const std::string &Key,
                             const std::optional<std::string> &Value) {
  const std::string Field = "\"" + Key + "\":";
  const size_t Start = Jsonl.find(Field, Jsonl.find("\"run_spec\":"));
  EXPECT_NE(Start, std::string::npos) << Key;
  // Default values hold no ',' or '}'.
  const size_t End = Jsonl.find_first_of(",}", Start);
  if (Value)
    return Jsonl.substr(0, Start) + Field + *Value + Jsonl.substr(End);
  const bool Last = Jsonl[End] == '}';
  return Jsonl.substr(0, Last ? Start - 1 : Start) +
         Jsonl.substr(Last ? End : End + 1);
}

// Replay holds a run_spec to dynfb-run's rules: an out-of-range value
// fails materialize with a one-line diagnostic naming the key (a value the
// reader cannot hold at all, such as a non-boolean switch, already fails
// the parse that way), and a missing key takes the row default.
TEST_P(ReplayKnobTest, OutOfRangeRunSpecValueIsRefused) {
  const obs::Knob &K = knob();
  const auto Bad = OutOfRange.find(K.Key);
  ASSERT_NE(Bad, OutOfRange.end()) << "no out-of-range value for " << K.Key;
  obs::RunTrace Trace;
  Trace.Meta.App = "string";
  Trace.Meta.Policy = "dynamic";
  Trace.Meta.Procs = 2;
  Trace.Meta.Spec.Present = true;
  Trace.Meta.Spec.Scale = 0.1;
  const std::string Valid = obs::toJsonl(Trace);

  std::string Error;
  const std::optional<obs::RunTrace> Parsed =
      obs::parseJsonl(withRunSpecValue(Valid, K.Key, Bad->second), Error);
  if (K.Kind == obs::KnobKind::Bool) {
    EXPECT_FALSE(Parsed.has_value());
  } else {
    ASSERT_TRUE(Parsed.has_value()) << Error;
    EXPECT_FALSE(replay::materialize(*Parsed, Error).has_value());
  }
  EXPECT_NE(Error.find("'" + std::string(K.Key) + "'"), std::string::npos)
      << Error;
  EXPECT_EQ(Error.find('\n'), std::string::npos) << Error;

  const std::optional<obs::RunTrace> Missing =
      obs::parseJsonl(withRunSpecValue(Valid, K.Key, std::nullopt), Error);
  ASSERT_TRUE(Missing.has_value()) << Error;
  const obs::RunSpec Default;
  EXPECT_TRUE(std::visit(
      [&](auto Member) { return Missing->Meta.Spec.*Member == Default.*Member; },
      K.Field));
}

INSTANTIATE_TEST_SUITE_P(KnobTable, ReplayKnobTest,
                         testing::ValuesIn(knobKeys()), keyName);

// ------------------------- Truncation rejection -----------------------------

TEST(ReplayTest, TruncatedTraceRejectedWithLineNumber) {
  std::string Error;
  // File cut mid-record on line 2.
  EXPECT_FALSE(obs::parseJsonl("{\"type\":\"meta\",\"schema\":1,"
                               "\"app\":\"w\",\"policy\":\"dynamic\","
                               "\"procs\":4,\"total_ns\":1}\n"
                               "{\"type\":\"decisio",
                               Error)
                   .has_value());
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
  EXPECT_NE(Error.find("truncated"), std::string::npos) << Error;

  // Even a syntactically complete final object without its newline is a
  // mid-write cut (toJsonl terminates every record).
  EXPECT_FALSE(obs::parseJsonl("{\"type\":\"meta\",\"schema\":1,"
                               "\"app\":\"w\",\"policy\":\"dynamic\","
                               "\"procs\":4,\"total_ns\":1}",
                               Error)
                   .has_value());
  EXPECT_NE(Error.find("line 1"), std::string::npos) << Error;
}

} // namespace
