//===- tests/SweepTest.cpp - Parameterized sweeps and sensitivity ----------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/Harness.h"
#include "apps/barnes_hut/BarnesHutApp.h"
#include "apps/water/WaterApp.h"
#include "ir/Builder.h"
#include "rt/SectionTrace.h"
#include "sim/SectionSim.h"

#include <gtest/gtest.h>
#include <limits>

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::ir;
using namespace dynfb::rt;
using namespace dynfb::xform;

namespace {

bh::BarnesHutApp &bhApp() {
  static bh::BarnesHutApp *App = [] {
    bh::BarnesHutConfig Config;
    Config.scale(1024.0 / 16384.0);
    return new bh::BarnesHutApp(Config);
  }();
  return *App;
}

water::WaterApp &waterApp() {
  static water::WaterApp *App =
      new water::WaterApp(water::WaterConfig{});
  return *App;
}

// ---------------- Per-policy scaling monotonicity (TEST_P) -----------------

class PolicyScalingTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyScalingTest, BarnesHutTimeDecreasesWithProcessors) {
  const PolicyKind P = GetParam();
  double Prev = std::numeric_limits<double>::infinity();
  for (unsigned Procs : {1u, 2u, 4u, 8u, 16u}) {
    const double T = runAppSeconds(bhApp(), Procs, Flavour::Fixed, P);
    EXPECT_LT(T, Prev) << policyName(P) << " at " << Procs << " procs";
    Prev = T;
  }
}

TEST_P(PolicyScalingTest, BarnesHutSpeedupBoundedByProcessorCount) {
  const PolicyKind P = GetParam();
  const double T1 = runAppSeconds(bhApp(), 1, Flavour::Fixed, P);
  for (unsigned Procs : {2u, 8u, 16u}) {
    const double TP = runAppSeconds(bhApp(), Procs, Flavour::Fixed, P);
    EXPECT_LE(T1 / TP, static_cast<double>(Procs) * 1.001)
        << policyName(P);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesSweep, PolicyScalingTest,
                         ::testing::Values(PolicyKind::Original,
                                           PolicyKind::Bounded,
                                           PolicyKind::Aggressive),
                         [](const auto &Info) {
                           return std::string(policyName(Info.param));
                         });

// ---------------- Water policy crossover (TEST_P over procs) ---------------

class WaterCrossoverTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WaterCrossoverTest, BoundedBeatsAggressiveBeyondOneProcessor) {
  const unsigned Procs = GetParam();
  const double Bnd =
      runAppSeconds(waterApp(), Procs, Flavour::Fixed, PolicyKind::Bounded);
  const double Agg = runAppSeconds(waterApp(), Procs, Flavour::Fixed,
                                   PolicyKind::Aggressive);
  if (Procs == 1)
    EXPECT_LT(Agg, Bnd); // Least locking wins serially.
  else
    EXPECT_LT(Bnd, Agg); // False exclusion dominates in parallel.
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, WaterCrossoverTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

// ---------------- Cost-model sensitivity ------------------------------------

TEST(CostSensitivityTest, LockCostHurtsLockHeavyPoliciesMore) {
  CostModel Cheap = CostModel::dashLike();
  CostModel Expensive = Cheap;
  Expensive.AcquireNanos *= 4;
  Expensive.ReleaseNanos *= 4;

  auto Run = [&](PolicyKind P, const CostModel &CM) {
    return nanosToSeconds(
        runApp(bhApp(), 1, Flavour::Fixed, P, {}, nullptr, CM).TotalNanos);
  };
  const double OrigDelta = Run(PolicyKind::Original, Expensive) -
                           Run(PolicyKind::Original, Cheap);
  const double AggDelta = Run(PolicyKind::Aggressive, Expensive) -
                          Run(PolicyKind::Aggressive, Cheap);
  EXPECT_GT(OrigDelta, 100.0 * AggDelta)
      << "Original executes orders of magnitude more lock pairs";
}

TEST(CostSensitivityTest, TimerCostScalesWithIterations) {
  CostModel Slow = CostModel::dashLike();
  Slow.TimerReadNanos += 100000; // +100 us per poll.
  const double Base = nanosToSeconds(
      runApp(bhApp(), 1, Flavour::Fixed, PolicyKind::Aggressive, {},
             nullptr, CostModel::dashLike())
          .TotalNanos);
  const double WithSlowTimer = nanosToSeconds(
      runApp(bhApp(), 1, Flavour::Fixed, PolicyKind::Aggressive, {},
             nullptr, Slow)
          .TotalNanos);
  // Two FORCES executions x one poll per iteration.
  const double Expected =
      2.0 * static_cast<double>(bhApp().bodies().size()) * 100e-6;
  EXPECT_NEAR(WithSlowTimer - Base, Expected, Expected * 0.05);
}

// ---------------- FIFO grant fairness ---------------------------------------

TEST(FifoFairnessTest, BlockedProcessorsAreGrantedInArrivalOrder) {
  // All iterations fight over one lock; processors block in id order at
  // t=0 and must be granted in that order, so waiting times are strictly
  // increasing in processor id for the first round.
  Module M("m");
  ClassDecl *C = M.createClass("c");
  const unsigned F = C->addField("f");
  Method *Entry = M.createMethod("work", C);
  {
    MethodBuilder B(M, Entry);
    B.acquire(Receiver::thisObj());
    B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::thisObj());
  }

  class OneLockBinding final : public DataBinding {
  public:
    uint64_t iterationCount() const override { return 4; }
    uint32_t objectCount() const override { return 1; }
    ObjectId thisObject(uint64_t) const override { return 0; }
    std::vector<ObjRef> sectionArgs(uint64_t) const override { return {}; }
    ObjectId elementOf(ArrayId, uint64_t, const LoopCtx &) const override {
      return 0;
    }
    uint64_t tripCount(unsigned, const LoopCtx &) const override {
      return 1;
    }
    Nanos computeNanos(unsigned, const LoopCtx &) const override {
      return 0;
    }
  } B;

  sim::SimMachine Machine(4, CostModel::dashLike());
  sim::SimSectionRunner Runner(Machine, B,
                               {sim::SimVersion{"v", Entry}}, false);
  rt::IntervalTrace Trace;
  Runner.attachTrace(&Trace);
  Runner.runInterval(0, std::numeric_limits<Nanos>::max() / 4);

  // Proc 0 acquired immediately (no wait); procs 1..3 waited strictly
  // longer each (FIFO behind each other).
  ASSERT_EQ(Trace.Procs.size(), 4u);
  EXPECT_EQ(Trace.Procs[0].WaitNanos, 0);
  EXPECT_GT(Trace.Procs[1].WaitNanos, 0);
  EXPECT_GT(Trace.Procs[2].WaitNanos, Trace.Procs[1].WaitNanos);
  EXPECT_GT(Trace.Procs[3].WaitNanos, Trace.Procs[2].WaitNanos);
}

// ---------------- Dynamic never much worse than best static -----------------

class DynamicRobustnessTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DynamicRobustnessTest, WithinTenPercentOfBestStatic) {
  const unsigned Procs = GetParam();
  double Best = std::numeric_limits<double>::infinity();
  for (PolicyKind P : AllPolicies)
    Best = std::min(Best,
                    runAppSeconds(waterApp(), Procs, Flavour::Fixed, P));
  const double Dyn = runAppSeconds(waterApp(), Procs, Flavour::Dynamic);
  EXPECT_LT(Dyn, 1.10 * Best) << Procs << " procs";
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, DynamicRobustnessTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
