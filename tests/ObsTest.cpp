//===- tests/ObsTest.cpp - Observability layer unit tests -----------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Covers the obs subsystem (metrics registry, decision log, JSON parser,
// trace exporters, report renderer), its integration with the feedback
// controller, and the measurement-guard regressions in rt::OverheadStats /
// rt::aggregateOverheads.
//
//===----------------------------------------------------------------------===//

#include "apps/Factory.h"
#include "apps/Harness.h"
#include "fb/Controller.h"
#include "obs/DecisionLog.h"
#include "obs/Export.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "rt/Stats.h"

#include <cmath>
#include <functional>
#include <limits>

#include <gtest/gtest.h>

using namespace dynfb;
using namespace dynfb::fb;
using namespace dynfb::rt;

namespace {

// ------------------------------ Metrics ------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  obs::MetricsRegistry R;
  obs::Counter &C = R.counter("a.count");
  C.add();
  C.add(4);
  EXPECT_EQ(C.value(), 5u);
  EXPECT_EQ(R.counterValue("a.count"), 5u);
  EXPECT_EQ(R.counterValue("never.registered"), 0u);

  obs::Gauge &G = R.gauge("a.gauge");
  G.set(2.5);
  EXPECT_DOUBLE_EQ(G.value(), 2.5);
}

TEST(MetricsTest, ReferencesAreStableAndSurviveReset) {
  obs::MetricsRegistry R;
  obs::Counter &C1 = R.counter("stable");
  C1.add(7);
  // Second lookup returns the same object.
  EXPECT_EQ(&R.counter("stable"), &C1);
  R.reset();
  EXPECT_EQ(R.counterValue("stable"), 0u);
  // The cached reference is still live after reset.
  C1.add(2);
  EXPECT_EQ(R.counterValue("stable"), 2u);
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  obs::MetricsRegistry R;
  R.counter("zz").add(1);
  R.counter("aa").add(2);
  R.gauge("mm").set(3.0);
  const std::vector<obs::MetricSample> S = R.snapshot();
  ASSERT_EQ(S.size(), 3u);
  for (size_t I = 1; I < S.size(); ++I)
    EXPECT_LT(S[I - 1].Name, S[I].Name);
}

TEST(MetricsTest, ToJsonParsesWithOwnParser) {
  obs::MetricsRegistry R;
  R.counter("runs").add(3);
  R.gauge("ratio").set(0.25);
  std::string Error;
  const std::optional<obs::JsonValue> V = obs::parseJson(R.toJson(), Error);
  ASSERT_TRUE(V.has_value()) << Error;
  EXPECT_EQ(V->getInt("runs"), 3);
  EXPECT_DOUBLE_EQ(V->getNumber("ratio"), 0.25);
}

// ------------------------------- JSON --------------------------------------

TEST(JsonTest, ParsesScalarsAndNesting) {
  std::string Error;
  const auto V = obs::parseJson(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"s\": \"hi\"}",
      Error);
  ASSERT_TRUE(V.has_value()) << Error;
  const obs::JsonValue *A = V->find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->items().size(), 3u);
  EXPECT_DOUBLE_EQ(A->items()[1].asNumber(), 2.5);
  EXPECT_DOUBLE_EQ(A->items()[2].asNumber(), -300.0);
  const obs::JsonValue *B = V->find("b");
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(B->find("c")->asBool());
  EXPECT_TRUE(B->find("d")->isNull());
  EXPECT_EQ(V->getString("s"), "hi");
  EXPECT_EQ(V->find("missing"), nullptr);
}

TEST(JsonTest, StringEscapes) {
  std::string Error;
  const auto V =
      obs::parseJson("\"a\\n\\t\\\"\\\\\\u0041\"", Error);
  ASSERT_TRUE(V.has_value()) << Error;
  EXPECT_EQ(V->asString(), "a\n\t\"\\A");
  // jsonEscape inverts: parse(quote(escape(s))) == s.
  const std::string Nasty = "line\nwith \"quotes\" and \\slashes\\";
  const auto Round =
      obs::parseJson("\"" + obs::jsonEscape(Nasty) + "\"", Error);
  ASSERT_TRUE(Round.has_value()) << Error;
  EXPECT_EQ(Round->asString(), Nasty);
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(obs::parseJson("{\"a\": }", Error).has_value());
  EXPECT_FALSE(obs::parseJson("[1, 2", Error).has_value());
  EXPECT_FALSE(obs::parseJson("", Error).has_value());
  EXPECT_FALSE(obs::parseJson("{} trailing", Error).has_value());
  EXPECT_FALSE(obs::parseJson("\"unterminated", Error).has_value());
  EXPECT_FALSE(Error.empty());
}

// ---------------------------- Decision log ---------------------------------

TEST(DecisionLogTest, KindAndReasonNamesRoundTrip) {
  for (obs::DecisionKind K :
       {obs::DecisionKind::Sample, obs::DecisionKind::Switch,
        obs::DecisionKind::DriftResample, obs::DecisionKind::Prune,
        obs::DecisionKind::Promote})
    EXPECT_EQ(obs::parseDecisionKind(obs::decisionKindName(K)), K);
  for (obs::SwitchReason R :
       {obs::SwitchReason::None, obs::SwitchReason::BeatBest,
        obs::SwitchReason::HysteresisHeld, obs::SwitchReason::Fallback})
    EXPECT_EQ(obs::parseSwitchReason(obs::switchReasonName(R)), R);
  EXPECT_FALSE(obs::parseDecisionKind("bogus").has_value());
  EXPECT_FALSE(obs::parseSwitchReason("bogus").has_value());
}

TEST(DecisionLogTest, CountsByKind) {
  obs::DecisionLog Log;
  obs::DecisionEvent E;
  E.Kind = obs::DecisionKind::Sample;
  Log.append(E);
  Log.append(E);
  E.Kind = obs::DecisionKind::Switch;
  E.Reason = obs::SwitchReason::BeatBest;
  Log.append(E);
  EXPECT_EQ(Log.size(), 3u);
  EXPECT_EQ(Log.count(obs::DecisionKind::Sample), 2u);
  EXPECT_EQ(Log.count(obs::DecisionKind::Switch), 1u);
  EXPECT_EQ(Log.count(obs::DecisionKind::DriftResample), 0u);
  Log.clear();
  EXPECT_TRUE(Log.empty());
}

TEST(DecisionLogTest, TimelineNamesTheReason) {
  obs::DecisionLog Log;
  obs::DecisionEvent E;
  E.Kind = obs::DecisionKind::Switch;
  E.Section = "INTERF";
  E.Label = "Bounded";
  E.Overhead = 0.125;
  E.Reason = obs::SwitchReason::BeatBest;
  Log.append(E);
  const std::string T = Log.renderTimeline();
  EXPECT_NE(T.find("switch"), std::string::npos);
  EXPECT_NE(T.find("INTERF"), std::string::npos);
  EXPECT_NE(T.find("Bounded"), std::string::npos);
  EXPECT_NE(T.find("beat-best"), std::string::npos);
}

TEST(DecisionLogTest, SearchEventsRenderWithRound) {
  obs::DecisionLog Log;
  obs::DecisionEvent E;
  E.Kind = obs::DecisionKind::Prune;
  E.Section = "INTERF";
  E.Label = "Original+chunk8";
  E.Overhead = 0.7;
  E.Repeats = 2; // The search round the decision was taken in.
  Log.append(E);
  E.Kind = obs::DecisionKind::Promote;
  E.Label = "Aggressive+fac";
  E.Overhead = 0.05;
  Log.append(E);
  EXPECT_EQ(Log.count(obs::DecisionKind::Prune), 1u);
  EXPECT_EQ(Log.count(obs::DecisionKind::Promote), 1u);
  const std::string T = Log.renderTimeline();
  EXPECT_NE(T.find("prune"), std::string::npos);
  EXPECT_NE(T.find("promote"), std::string::npos);
  EXPECT_NE(T.find("Original+chunk8"), std::string::npos);
  EXPECT_NE(T.find("Aggressive+fac"), std::string::npos);
}

// ----------------------- Controller integration ----------------------------

/// Synthetic runner (same shape as FbTest's): version V has overhead
/// OverheadFn(V, now); each interval consumes min(target, remaining).
class MockRunner : public IntervalRunner {
public:
  MockRunner(unsigned NumVersions, Nanos TotalWork,
             std::function<double(unsigned, Nanos)> OverheadFn)
      : NumVersionsV(NumVersions), TotalWork(TotalWork),
        OverheadFn(std::move(OverheadFn)) {}

  unsigned numVersions() const override { return NumVersionsV; }
  std::string versionLabel(unsigned V) const override {
    return "v" + std::to_string(V);
  }
  IntervalReport runInterval(unsigned V, Nanos Target) override {
    const double Overhead = OverheadFn(V, Clock);
    const Nanos Dur = std::min(Target, Nanos(static_cast<double>(Remaining) /
                                             (1.0 - Overhead)));
    Clock += Dur;
    Remaining -=
        static_cast<Nanos>(static_cast<double>(Dur) * (1.0 - Overhead));
    if (Remaining < 1000) // Round-off guard.
      Remaining = 0;
    IntervalReport R;
    R.EffectiveNanos = Dur;
    R.Stats.ExecNanos = Dur;
    R.Stats.LockOpNanos = static_cast<Nanos>(Overhead * Dur);
    R.Stats.AcquireReleasePairs = static_cast<uint64_t>(V) + 1;
    R.Finished = Remaining == 0;
    return R;
  }
  bool done() const override { return Remaining == 0; }
  void reset() override { Remaining = TotalWork; }
  Nanos now() const override { return Clock; }

  const unsigned NumVersionsV;
  const Nanos TotalWork;
  Nanos Remaining = TotalWork;
  Nanos Clock = 0;
  std::function<double(unsigned, Nanos)> OverheadFn;
};

/// Runner whose measurements are all degenerate (zero execution time), so
/// no sampling phase ever yields a usable overhead.
class DegenerateRunner : public IntervalRunner {
public:
  explicit DegenerateRunner(Nanos TotalWork) : TotalWork(TotalWork) {}
  unsigned numVersions() const override { return 2; }
  std::string versionLabel(unsigned V) const override {
    return "v" + std::to_string(V);
  }
  IntervalReport runInterval(unsigned, Nanos Target) override {
    const Nanos Dur = std::min(Target, Remaining);
    Clock += Dur;
    Remaining -= Dur;
    IntervalReport R;
    R.EffectiveNanos = Dur;
    R.Stats.ExecNanos = 0; // Unmeasurable: 0/0 overhead.
    R.Finished = Remaining == 0;
    return R;
  }
  bool done() const override { return Remaining == 0; }
  void reset() override { Remaining = TotalWork; }
  Nanos now() const override { return Clock; }

  const Nanos TotalWork;
  Nanos Remaining = TotalWork;
  Nanos Clock = 0;
};

FeedbackConfig smallConfig() {
  FeedbackConfig C;
  C.TargetSamplingNanos = millisToNanos(10);
  C.TargetProductionNanos = secondsToNanos(1);
  return C;
}

/// Every Switch event must carry a valid reason.
void expectSwitchesWellFormed(const obs::DecisionLog &Log) {
  for (const obs::DecisionEvent &E : Log.events()) {
    if (E.Kind != obs::DecisionKind::Switch)
      continue;
    EXPECT_NE(E.Reason, obs::SwitchReason::None);
    EXPECT_FALSE(E.Label.empty());
  }
}

TEST(ObsControllerTest, EveryProductionDecisionIsLogged) {
  MockRunner R(3, secondsToNanos(3),
               [](unsigned V, Nanos) { return V == 1 ? 0.05 : 0.5; });
  obs::DecisionLog Log;
  FeedbackController C(smallConfig(), nullptr, &Log);
  const SectionExecutionTrace T = C.executeSection(R, "S");

  // One Switch event per production decision, in order, with the chosen
  // version; one Sample event per sampled interval.
  std::vector<unsigned> Switched;
  for (const obs::DecisionEvent &E : Log.events())
    if (E.Kind == obs::DecisionKind::Switch) {
      Switched.push_back(E.Version);
      EXPECT_EQ(E.Reason, obs::SwitchReason::BeatBest);
      EXPECT_EQ(E.Section, "S");
      EXPECT_TRUE(std::isfinite(E.Overhead));
    }
  EXPECT_EQ(Switched, T.ChosenVersions);
  EXPECT_EQ(Log.count(obs::DecisionKind::Sample), T.SampledIntervals);
  expectSwitchesWellFormed(Log);
}

TEST(ObsControllerTest, NullLogChangesNothing) {
  const auto Overhead = [](unsigned V, Nanos) {
    return V == 1 ? 0.05 : 0.5;
  };
  MockRunner R1(3, secondsToNanos(3), Overhead);
  MockRunner R2(3, secondsToNanos(3), Overhead);
  obs::DecisionLog Log;
  FeedbackController CLogged(smallConfig(), nullptr, &Log);
  FeedbackController CPlain(smallConfig(), nullptr, nullptr);
  const SectionExecutionTrace TL = CLogged.executeSection(R1, "S");
  const SectionExecutionTrace TP = CPlain.executeSection(R2, "S");
  EXPECT_EQ(TL.ChosenVersions, TP.ChosenVersions);
  EXPECT_EQ(TL.SampledIntervals, TP.SampledIntervals);
  EXPECT_EQ(TL.durationNanos(), TP.durationNanos());
}

TEST(ObsControllerTest, HysteresisHoldIsLoggedWithReason) {
  // Version 0 wins the first phase; version 1 later edges ahead but within
  // the hysteresis margin, so the incumbent must be held.
  MockRunner R(2, secondsToNanos(4), [](unsigned V, Nanos Now) {
    if (V == 0)
      return 0.10;
    return Now < secondsToNanos(1) ? 0.50 : 0.07;
  });
  FeedbackConfig Config = smallConfig();
  Config.SwitchHysteresis = 0.10;
  obs::DecisionLog Log;
  FeedbackController C(Config, nullptr, &Log);
  const SectionExecutionTrace T = C.executeSection(R, "S");

  ASSERT_GT(T.HysteresisHolds, 0u);
  unsigned Held = 0;
  for (const obs::DecisionEvent &E : Log.events())
    if (E.Kind == obs::DecisionKind::Switch &&
        E.Reason == obs::SwitchReason::HysteresisHeld) {
      ++Held;
      EXPECT_EQ(E.Version, 0u); // The incumbent stays.
    }
  EXPECT_EQ(Held, T.HysteresisHolds);
  expectSwitchesWellFormed(Log);
}

TEST(ObsControllerTest, DegenerateSamplingLogsFallback) {
  DegenerateRunner R(secondsToNanos(2));
  // A fully degenerate sampling phase falls back to the first version in
  // sampling order (see the per-occurrence twin below).
  FeedbackConfig Config = smallConfig();
  Config.SpanSectionExecutions = true;
  obs::DecisionLog Log;
  FeedbackController C(Config, nullptr, &Log);
  const SectionExecutionTrace T = C.executeSection(R, "S");

  EXPECT_GT(T.DegenerateIntervals, 0u);
  ASSERT_GT(Log.count(obs::DecisionKind::Switch), 0u);
  for (const obs::DecisionEvent &E : Log.events()) {
    if (E.Kind == obs::DecisionKind::Sample) {
      EXPECT_TRUE(std::isnan(E.Overhead)); // Degenerate sentinel.
    }
    if (E.Kind == obs::DecisionKind::Switch) {
      EXPECT_EQ(E.Reason, obs::SwitchReason::Fallback);
      EXPECT_TRUE(std::isnan(E.Overhead)); // No measurement to base it on.
    }
  }
}

TEST(ObsControllerTest, DegenerateFirstPhaseFallsBackPerOccurrence) {
  // Per-occurrence mode falls back exactly like spanning mode: the section
  // must still run to completion on the first version in sampling order.
  DegenerateRunner R(secondsToNanos(2));
  obs::DecisionLog Log;
  FeedbackController C(smallConfig(), nullptr, &Log);
  const SectionExecutionTrace T = C.executeSection(R, "S");

  EXPECT_TRUE(R.done());
  EXPECT_GT(T.DegenerateIntervals, 0u);
  ASSERT_FALSE(T.ChosenVersions.empty());
  EXPECT_EQ(T.ChosenVersions.front(), 0u);
  ASSERT_GT(Log.count(obs::DecisionKind::Switch), 0u);
  for (const obs::DecisionEvent &E : Log.events())
    if (E.Kind == obs::DecisionKind::Switch) {
      EXPECT_EQ(E.Reason, obs::SwitchReason::Fallback);
    }
}

TEST(ObsControllerTest, DriftResampleIsLogged) {
  // Version 0 samples best, then degrades mid-production; the drift guard
  // must cut production short and the log must record why.
  MockRunner R(2, secondsToNanos(6), [](unsigned V, Nanos Now) {
    if (V == 0)
      return Now < millisToNanos(500) ? 0.05 : 0.60;
    return 0.30;
  });
  FeedbackConfig Config = smallConfig();
  Config.DriftResampleThreshold = 0.10;
  Config.ProductionSliceNanos = millisToNanos(100);
  obs::DecisionLog Log;
  FeedbackController C(Config, nullptr, &Log);
  const SectionExecutionTrace T = C.executeSection(R, "S");

  ASSERT_GT(T.EarlyResamples, 0u);
  EXPECT_EQ(Log.count(obs::DecisionKind::DriftResample), T.EarlyResamples);
  for (const obs::DecisionEvent &E : Log.events())
    if (E.Kind == obs::DecisionKind::DriftResample) {
      EXPECT_TRUE(std::isfinite(E.Overhead));
    }
}

TEST(ObsControllerTest, SpanningModeLogsSwitchesAcrossOccurrences) {
  // Occurrences far shorter than a sampling phase: only spanning mode ever
  // completes sampling, and its decisions must land in the log.
  FeedbackConfig Config = smallConfig();
  Config.SpanSectionExecutions = true;
  Config.TargetProductionNanos = millisToNanos(200);
  obs::DecisionLog Log;
  FeedbackController C(Config, nullptr, &Log);
  unsigned TotalChosen = 0;
  for (int I = 0; I < 200; ++I) {
    MockRunner R(2, millisToNanos(5),
                 [](unsigned V, Nanos) { return V == 0 ? 0.05 : 0.4; });
    const SectionExecutionTrace T = C.executeSection(R, "S");
    TotalChosen += static_cast<unsigned>(T.ChosenVersions.size());
  }
  ASSERT_GT(Log.count(obs::DecisionKind::Switch), 0u);
  EXPECT_EQ(Log.count(obs::DecisionKind::Switch), TotalChosen);
  expectSwitchesWellFormed(Log);
}

TEST(ObsControllerTest, FbMetricsMirrorTheTrace) {
  obs::MetricsRegistry &M = obs::globalMetrics();
  const uint64_t Samples0 = M.counterValue("fb.sampled_intervals");
  const uint64_t Switches0 = M.counterValue("fb.switches");
  MockRunner R(3, secondsToNanos(3),
               [](unsigned V, Nanos) { return V == 1 ? 0.05 : 0.5; });
  FeedbackController C(smallConfig());
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_EQ(M.counterValue("fb.sampled_intervals") - Samples0,
            T.SampledIntervals);
  EXPECT_EQ(M.counterValue("fb.switches") - Switches0,
            T.ChosenVersions.size());
}

// ------------------- Measurement-guard regressions (rt) --------------------

// Regression: isMeasurable() ignored SchedNanos, so a negative scheduling
// measurement could flow into a sampled overhead.
TEST(StatsRegressionTest, NegativeSchedNanosIsUnmeasurable) {
  OverheadStats S;
  S.ExecNanos = 1000;
  EXPECT_TRUE(S.isMeasurable());
  S.SchedNanos = -1;
  EXPECT_FALSE(S.isMeasurable());
}

// Regression: an empty (or fully non-finite) sample set aggregated to 0.0,
// masquerading as a perfect zero-overhead measurement.
TEST(StatsRegressionTest, DegenerateAggregateYieldsNaN) {
  for (OverheadAggregation How :
       {OverheadAggregation::Mean, OverheadAggregation::Median,
        OverheadAggregation::TrimmedMean}) {
    EXPECT_TRUE(std::isnan(aggregateOverheads({}, How)));
    EXPECT_TRUE(std::isnan(aggregateOverheads(
        {std::nan(""), std::numeric_limits<double>::infinity()}, How)));
  }
  // Finite samples still aggregate normally.
  EXPECT_DOUBLE_EQ(
      aggregateOverheads({0.2, 0.4}, OverheadAggregation::Mean), 0.3);
}

// Regression: a ratio clamp (component nanos exceeding ExecNanos) was
// silent; it must now be counted in the metrics registry.
TEST(StatsRegressionTest, OverheadClampIsCounted) {
  obs::MetricsRegistry &M = obs::globalMetrics();
  const uint64_t Before = M.counterValue("rt.overhead.ratio_clamped");
  OverheadStats S;
  S.ExecNanos = 1000;
  S.LockOpNanos = 2000; // Accounting error: components exceed execution.
  EXPECT_DOUBLE_EQ(S.totalOverhead(), 1.0);
  EXPECT_EQ(M.counterValue("rt.overhead.ratio_clamped"), Before + 1);
  // A sane measurement does not count.
  S.LockOpNanos = 500;
  EXPECT_DOUBLE_EQ(S.totalOverhead(), 0.5);
  EXPECT_EQ(M.counterValue("rt.overhead.ratio_clamped"), Before + 1);
}

// ------------------------------ Exporters ----------------------------------

obs::RunTrace sampleTrace() {
  obs::RunTrace Trace;
  Trace.Meta.App = "water";
  Trace.Meta.Policy = "dynamic";
  Trace.Meta.Procs = 4;
  Trace.Meta.TotalNanos = secondsToNanos(12);

  obs::DecisionEvent S;
  S.Kind = obs::DecisionKind::Sample;
  S.TimeNanos = millisToNanos(1);
  S.Section = "INTERF";
  S.Version = 1;
  S.Label = "Bounded";
  S.Overhead = 0.125;
  S.Repeats = 1;
  Trace.Decisions.push_back(S);

  obs::DecisionEvent N;
  N.Kind = obs::DecisionKind::Sample;
  N.TimeNanos = millisToNanos(2);
  N.Section = "INTERF";
  N.Version = 2;
  N.Label = "Aggressive";
  N.Overhead = std::nan(""); // Degenerate sample round-trips as null.
  N.Degenerate = 3;
  Trace.Decisions.push_back(N);

  obs::DecisionEvent W;
  W.Kind = obs::DecisionKind::Switch;
  W.TimeNanos = millisToNanos(3);
  W.Section = "INTERF";
  W.Version = 1;
  W.Label = "Bounded";
  W.Overhead = 0.125;
  W.Reason = obs::SwitchReason::BeatBest;
  Trace.Decisions.push_back(W);

  obs::DecisionEvent D;
  D.Kind = obs::DecisionKind::DriftResample;
  D.TimeNanos = millisToNanos(9);
  D.Section = "INTERF";
  D.Version = 1;
  D.Label = "Bounded";
  D.Overhead = 0.4;
  Trace.Decisions.push_back(D);

  obs::SectionRecord Sec;
  Sec.Section = "INTERF";
  Sec.StartNanos = 0;
  Sec.EndNanos = secondsToNanos(10);
  Sec.AcquireReleasePairs = 1234;
  Sec.LockOpNanos = millisToNanos(40);
  Sec.WaitNanos = millisToNanos(250);
  Sec.SchedNanos = millisToNanos(5);
  Sec.ExecNanos = secondsToNanos(9);
  Sec.SamplingPhases = 2;
  Sec.SampledIntervals = 6;
  Sec.DegenerateIntervals = 1;
  Sec.EarlyResamples = 1;
  Sec.HysteresisHolds = 0;
  Trace.Sections.push_back(Sec);

  obs::LockRecord L;
  L.Section = "INTERF";
  L.Object = 17;
  L.Acquires = 900;
  L.Contended = 40;
  L.WaitNanos = millisToNanos(200);
  Trace.Locks.push_back(L);
  return Trace;
}

TEST(ExportTest, JsonlRoundTripsLosslessly) {
  const obs::RunTrace In = sampleTrace();
  std::string Error;
  const std::optional<obs::RunTrace> Out =
      obs::parseJsonl(obs::toJsonl(In), Error);
  ASSERT_TRUE(Out.has_value()) << Error;

  EXPECT_EQ(Out->Meta.App, In.Meta.App);
  EXPECT_EQ(Out->Meta.Policy, In.Meta.Policy);
  EXPECT_EQ(Out->Meta.Procs, In.Meta.Procs);
  EXPECT_EQ(Out->Meta.TotalNanos, In.Meta.TotalNanos);

  ASSERT_EQ(Out->Decisions.size(), In.Decisions.size());
  for (size_t I = 0; I < In.Decisions.size(); ++I) {
    const obs::DecisionEvent &A = In.Decisions[I];
    const obs::DecisionEvent &B = Out->Decisions[I];
    EXPECT_EQ(B.Kind, A.Kind);
    EXPECT_EQ(B.TimeNanos, A.TimeNanos);
    EXPECT_EQ(B.Section, A.Section);
    EXPECT_EQ(B.Version, A.Version);
    EXPECT_EQ(B.Label, A.Label);
    EXPECT_EQ(B.Repeats, A.Repeats);
    EXPECT_EQ(B.Degenerate, A.Degenerate);
    EXPECT_EQ(B.Reason, A.Reason);
    if (std::isnan(A.Overhead))
      EXPECT_TRUE(std::isnan(B.Overhead));
    else
      EXPECT_DOUBLE_EQ(B.Overhead, A.Overhead);
  }

  ASSERT_EQ(Out->Sections.size(), 1u);
  const obs::SectionRecord &Sec = Out->Sections[0];
  EXPECT_EQ(Sec.Section, "INTERF");
  EXPECT_EQ(Sec.AcquireReleasePairs, 1234u);
  EXPECT_EQ(Sec.WaitNanos, millisToNanos(250));
  EXPECT_EQ(Sec.ExecNanos, secondsToNanos(9));
  EXPECT_EQ(Sec.SampledIntervals, 6u);

  ASSERT_EQ(Out->Locks.size(), 1u);
  EXPECT_EQ(Out->Locks[0].Object, 17u);
  EXPECT_EQ(Out->Locks[0].Contended, 40u);
  EXPECT_EQ(Out->Locks[0].WaitNanos, millisToNanos(200));
}

TEST(ExportTest, EveryJsonlLineIsValidJson) {
  const std::string Text = obs::toJsonl(sampleTrace());
  size_t Start = 0, Lines = 0;
  std::string Error;
  while (Start < Text.size()) {
    size_t End = Text.find('\n', Start);
    if (End == std::string::npos)
      End = Text.size();
    const std::string Line = Text.substr(Start, End - Start);
    if (!Line.empty()) {
      ++Lines;
      const auto V = obs::parseJson(Line, Error);
      ASSERT_TRUE(V.has_value()) << Error << " in line: " << Line;
      EXPECT_FALSE(V->getString("type").empty());
      if (Lines == 1) { // The meta line leads and stamps the schema.
        EXPECT_EQ(V->getInt("schema"), obs::TraceSchemaVersion);
      }
    }
    Start = End + 1;
  }
  EXPECT_EQ(Lines, 1 + 4 + 1 + 1u); // meta + decisions + section + lock.
}

TEST(ExportTest, ParserSkipsUnknownLineTypesAndKeys) {
  std::string Text = obs::toJsonl(sampleTrace());
  Text += "{\"type\":\"future-extension\",\"x\":1}\n";
  std::string Error;
  const auto Out = obs::parseJsonl(Text, Error);
  ASSERT_TRUE(Out.has_value()) << Error;
  EXPECT_EQ(Out->Decisions.size(), 4u);
}

TEST(ExportTest, ParserRejectsGarbage) {
  std::string Error;
  EXPECT_FALSE(obs::parseJsonl("not json\n", Error).has_value());
  EXPECT_FALSE(Error.empty());
  // A switch decision without a valid reason is a malformed trace.
  Error.clear();
  const std::string NoReason =
      "{\"type\":\"meta\",\"schema\":1,\"app\":\"a\",\"policy\":\"p\","
      "\"procs\":1,\"total_ns\":1}\n"
      "{\"type\":\"decision\",\"kind\":\"switch\",\"t_ns\":1,"
      "\"section\":\"S\",\"version\":0,\"label\":\"v0\",\"overhead\":0.1}\n";
  EXPECT_FALSE(obs::parseJsonl(NoReason, Error).has_value());
}

TEST(ExportTest, ChromeTraceIsWellFormed) {
  std::string Error;
  const auto V = obs::parseJson(obs::toChromeTrace(sampleTrace()), Error);
  ASSERT_TRUE(V.has_value()) << Error;
  const obs::JsonValue *Events = V->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->kind(), obs::JsonValue::Kind::Array);
  ASSERT_FALSE(Events->items().empty());
  bool SawSection = false, SawInstant = false, SawCounter = false;
  for (const obs::JsonValue &E : Events->items()) {
    const std::string Ph = E.getString("ph");
    EXPECT_FALSE(Ph.empty());
    if (Ph == "X")
      SawSection = true;
    if (Ph == "i")
      SawInstant = true;
    if (Ph == "C")
      SawCounter = true;
  }
  EXPECT_TRUE(SawSection);
  EXPECT_TRUE(SawInstant);
  EXPECT_TRUE(SawCounter);
}

// ------------------------------- Report ------------------------------------

TEST(ReportTest, RendersTimelineAndTables) {
  const std::string Out = obs::renderReport(sampleTrace());
  EXPECT_NE(Out.find("water"), std::string::npos);
  EXPECT_NE(Out.find("switch"), std::string::npos);
  EXPECT_NE(Out.find("beat-best"), std::string::npos);
  EXPECT_NE(Out.find("Locking overhead"), std::string::npos);
  EXPECT_NE(Out.find("(all sections)"), std::string::npos);
}

TEST(ReportTest, HottestLocksSortsByWaitThenObject) {
  obs::RunTrace Trace = sampleTrace();
  Trace.Locks.clear();
  const auto AddLock = [&Trace](uint64_t Obj, Nanos Wait) {
    obs::LockRecord L;
    L.Section = "INTERF";
    L.Object = Obj;
    L.Acquires = 10;
    L.Contended = 1;
    L.WaitNanos = Wait;
    Trace.Locks.push_back(L);
  };
  AddLock(9, millisToNanos(5));
  AddLock(3, millisToNanos(50)); // Hottest.
  AddLock(7, millisToNanos(5)); // Ties with object 9: lower id first.
  const std::string Out = obs::renderHottestLocksTable(Trace, 10);
  const size_t P3 = Out.find(" 3");
  const size_t P7 = Out.find(" 7");
  const size_t P9 = Out.find(" 9");
  ASSERT_NE(P3, std::string::npos);
  ASSERT_NE(P7, std::string::npos);
  ASSERT_NE(P9, std::string::npos);
  EXPECT_LT(P3, P7);
  EXPECT_LT(P7, P9);
}

// --------------------- End-to-end through the harness ----------------------

TEST(ObsHarnessTest, WaterRunTraceRoundTripsAndMatchesDecisions) {
  auto App = apps::createApp("water", 0.25);
  ASSERT_NE(App, nullptr);
  fb::FeedbackConfig Config;
  Config.SpanSectionExecutions = true;
  Config.TargetSamplingNanos = millisToNanos(2);
  Config.TargetProductionNanos = secondsToNanos(2);

  apps::RunObservation Obs;
  Obs.CollectSectionTraces = true;
  const fb::RunResult Result =
      apps::runApp(*App, 4, apps::VersionSpec::dynamicFeedback(), Config,
                   nullptr, rt::CostModel::dashLike(), nullptr, &Obs);

  // The run made decisions and they landed in the log with valid reasons.
  EXPECT_GT(Obs.Log.count(obs::DecisionKind::Sample), 0u);
  expectSwitchesWellFormed(Obs.Log);

  const obs::RunTrace Trace =
      apps::buildRunTrace("water", 4, "dynamic", Result, &Obs);
  EXPECT_EQ(Trace.Decisions.size(), Obs.Log.size());
  EXPECT_EQ(Trace.Sections.size(), Result.Occurrences.size());
  EXPECT_FALSE(Trace.Locks.empty());

  // The trace's section records reproduce the run's aggregate stats.
  uint64_t Pairs = 0;
  Nanos LockOp = 0, Wait = 0;
  for (const obs::SectionRecord &S : Trace.Sections) {
    Pairs += S.AcquireReleasePairs;
    LockOp += S.LockOpNanos;
    Wait += S.WaitNanos;
  }
  EXPECT_EQ(Pairs, Result.ParallelStats.AcquireReleasePairs);
  EXPECT_EQ(LockOp, Result.ParallelStats.LockOpNanos);
  EXPECT_EQ(Wait, Result.ParallelStats.WaitNanos);

  // Serialize, parse back, and re-render: the report survives the
  // round-trip byte-identically.
  std::string Error;
  const std::optional<obs::RunTrace> Back =
      obs::parseJsonl(obs::toJsonl(Trace), Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(obs::renderReport(*Back), obs::renderReport(Trace));
}

} // namespace
