//===- tests/SimTest.cpp - Unit tests for the machine simulator ------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "GoldenFile.h"
#include "ir/Builder.h"
#include "perturb/Engine.h"
#include "sim/Backend.h"
#include "sim/SectionSim.h"
#include "support/StringUtils.h"
#include "xform/MultiVersion.h"

#include <algorithm>
#include <array>
#include <functional>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <optional>

using namespace dynfb;
using namespace dynfb::ir;
using namespace dynfb::rt;
using namespace dynfb::sim;

namespace {

constexpr Nanos Unbounded = std::numeric_limits<Nanos>::max() / 4;

/// A section whose iterations are: compute D; acquire(lock); compute H;
/// release(lock). The lock is either private per iteration or one shared
/// object, controlled by the binding.
struct ToyWorkload {
  Module M{"toy"};
  Method *Entry = nullptr;

  ToyWorkload() {
    ClassDecl *C = M.createClass("c");
    const unsigned F = C->addField("f");
    Entry = M.createMethod("work", C);
    MethodBuilder B(M, Entry);
    B.compute();
    B.acquire(Receiver::thisObj());
    B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::thisObj());
  }
};

class ToyBinding final : public DataBinding {
public:
  uint64_t Iterations = 8;
  uint32_t Objects = 8;
  bool SharedLock = false; ///< All iterations lock object 0.
  bool Cacheable = false;  ///< Advertise stable per-iteration ops sequences.
  Nanos ComputeCost = 100000; // 100 us

  uint64_t iterationCount() const override { return Iterations; }
  uint32_t objectCount() const override { return Objects; }
  ObjectId thisObject(uint64_t Iter) const override {
    return SharedLock ? 0 : static_cast<ObjectId>(Iter % Objects);
  }
  std::vector<ObjRef> sectionArgs(uint64_t) const override { return {}; }
  ObjectId elementOf(ArrayId, uint64_t, const LoopCtx &) const override {
    return 0;
  }
  uint64_t tripCount(unsigned, const LoopCtx &) const override { return 1; }
  Nanos computeNanos(unsigned, const LoopCtx &) const override {
    return ComputeCost;
  }
  int64_t iterationClass(uint64_t Iter) const override {
    return Cacheable ? static_cast<int64_t>(Iter) : -1;
  }
};

/// Field-by-field interval report equality (IntervalReport carries no
/// operator==); bitwise agreement is the contract reused simulator state
/// must honor.
void expectReportsIdentical(const IntervalReport &A, const IntervalReport &B) {
  EXPECT_EQ(A.EffectiveNanos, B.EffectiveNanos);
  EXPECT_EQ(A.Finished, B.Finished);
  EXPECT_EQ(A.InjectedNanos, B.InjectedNanos);
  EXPECT_EQ(A.Stats.AcquireReleasePairs, B.Stats.AcquireReleasePairs);
  EXPECT_EQ(A.Stats.FailedAcquires, B.Stats.FailedAcquires);
  EXPECT_EQ(A.Stats.LockOpNanos, B.Stats.LockOpNanos);
  EXPECT_EQ(A.Stats.WaitNanos, B.Stats.WaitNanos);
  EXPECT_EQ(A.Stats.SchedNanos, B.Stats.SchedNanos);
  EXPECT_EQ(A.Stats.ExecNanos, B.Stats.ExecNanos);
}

TEST(SimTest, SingleProcessorTimingIsExact) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 4;
  CostModel CM;
  SimMachine Machine(1, CM);
  SimSectionRunner Runner(Machine, B,
                          {SimVersion{"only", W.Entry}}, false);

  const IntervalReport R = Runner.runInterval(0, Unbounded);
  EXPECT_TRUE(R.Finished);
  EXPECT_TRUE(Runner.done());
  // Per iteration: fetch + compute + acquire + update + release + poll;
  // plus the final failed fetch.
  const Nanos PerIter = CM.SchedFetchNanos + B.ComputeCost + CM.AcquireNanos +
                        CM.UpdateNanos + CM.ReleaseNanos + CM.TimerReadNanos;
  EXPECT_EQ(R.EffectiveNanos, 4 * PerIter + CM.SchedFetchNanos);
  EXPECT_EQ(R.Stats.AcquireReleasePairs, 4u);
  EXPECT_EQ(R.Stats.FailedAcquires, 0u);
  EXPECT_EQ(R.Stats.WaitNanos, 0);
  EXPECT_EQ(R.Stats.LockOpNanos,
            4 * (CM.AcquireNanos + CM.ReleaseNanos));
  // Machine advanced by effective + barrier.
  EXPECT_EQ(Machine.now(), R.EffectiveNanos + CM.BarrierNanos);
}

TEST(SimTest, DisjointLocksScaleLinearly) {
  ToyWorkload W;
  CostModel CM;

  auto RunWith = [&](unsigned Procs) {
    ToyBinding B;
    B.Iterations = 64;
    B.Objects = 64;
    SimMachine Machine(Procs, CM);
    SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}},
                            false);
    const IntervalReport R = Runner.runInterval(0, Unbounded);
    EXPECT_TRUE(R.Finished);
    EXPECT_EQ(R.Stats.FailedAcquires, 0u);
    return R.EffectiveNanos;
  };

  const Nanos T1 = RunWith(1);
  const Nanos T8 = RunWith(8);
  const double Speedup =
      static_cast<double>(T1) / static_cast<double>(T8);
  EXPECT_GT(Speedup, 6.5);
  EXPECT_LE(Speedup, 8.01);
}

TEST(SimTest, SharedLockSerializesAndCountsWaiting) {
  ToyWorkload W;
  CostModel CM;
  ToyBinding B;
  B.Iterations = 32;
  B.SharedLock = true;
  // Make the critical section dominate: the update runs under the lock.
  B.ComputeCost = 1000; // Tiny compute outside the lock.
  SimMachine Machine(4, CM);
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  const IntervalReport R = Runner.runInterval(0, Unbounded);
  EXPECT_TRUE(R.Finished);
  EXPECT_GT(R.Stats.FailedAcquires, 0u);
  EXPECT_GT(R.Stats.WaitNanos, 0);
  EXPECT_EQ(R.Stats.AcquireReleasePairs, 32u);
}

TEST(SimTest, SharedVsPrivateLockWaitingComparison) {
  ToyWorkload W;
  CostModel CM;
  auto Run = [&](bool Shared) {
    ToyBinding B;
    B.Iterations = 64;
    B.SharedLock = Shared;
    SimMachine Machine(8, CM);
    SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}},
                            false);
    return Runner.runInterval(0, Unbounded).Stats;
  };
  const OverheadStats Private = Run(false);
  const OverheadStats Shared = Run(true);
  EXPECT_EQ(Private.WaitNanos, 0);
  EXPECT_GT(Shared.WaitNanos, 0);
  EXPECT_GT(Shared.totalOverhead(), Private.totalOverhead());
}

TEST(SimTest, DeterministicAcrossRuns) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 40;
  B.SharedLock = true;
  CostModel CM;
  auto Run = [&]() {
    SimMachine Machine(6, CM);
    SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}},
                            false);
    const IntervalReport R = Runner.runInterval(0, Unbounded);
    return std::make_tuple(R.EffectiveNanos, R.Stats.FailedAcquires,
                           R.Stats.WaitNanos, R.Stats.ExecNanos);
  };
  EXPECT_EQ(Run(), Run());
}

TEST(SimTest, IntervalExpiryHonorsSwitchPoints) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 1000;
  CostModel CM;
  SimMachine Machine(2, CM);
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);

  // Target much smaller than one iteration: each processor still completes
  // the iteration it started (the potential switch points are iteration
  // boundaries), so the effective interval is about one iteration long.
  const IntervalReport R = Runner.runInterval(0, 1000);
  EXPECT_FALSE(R.Finished);
  EXPECT_FALSE(Runner.done());
  EXPECT_GE(R.EffectiveNanos, static_cast<Nanos>(B.ComputeCost));
  EXPECT_LT(R.EffectiveNanos, 2 * (B.ComputeCost + 50000));
  // Two processors each completed exactly one iteration.
  EXPECT_EQ(R.Stats.AcquireReleasePairs, 2u);
}

TEST(SimTest, ExecTimeSumsProcessors) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 16;
  B.Objects = 16;
  CostModel CM;
  SimMachine Machine(4, CM);
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  const IntervalReport R = Runner.runInterval(0, Unbounded);
  // Four processors ran for about Effective each.
  EXPECT_GT(R.Stats.ExecNanos, 3 * R.EffectiveNanos);
  EXPECT_LE(R.Stats.ExecNanos, 4 * R.EffectiveNanos);
}

TEST(SimTest, ResetRestartsSection) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 4;
  SimMachine Machine(1, CostModel{});
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  EXPECT_TRUE(Runner.runInterval(0, Unbounded).Finished);
  EXPECT_TRUE(Runner.done());
  Runner.reset();
  EXPECT_FALSE(Runner.done());
  EXPECT_TRUE(Runner.runInterval(0, Unbounded).Finished);
}

TEST(SimTest, InstrumentationAddsLockCost) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 8;
  CostModel CM;
  auto Run = [&](bool Instrumented) {
    SimMachine Machine(1, CM);
    SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}},
                            Instrumented);
    return Runner.runInterval(0, Unbounded).EffectiveNanos;
  };
  const Nanos Plain = Run(false);
  const Nanos Instr = Run(true);
  EXPECT_EQ(Instr - Plain, 8 * 2 * CM.InstrumentNanos);
}

TEST(SimTest, EmptySectionFinishesImmediately) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 0;
  SimMachine Machine(4, CostModel{});
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  EXPECT_TRUE(Runner.done());
  const IntervalReport R = Runner.runInterval(0, Unbounded);
  EXPECT_TRUE(R.Finished);
  EXPECT_EQ(R.Stats.AcquireReleasePairs, 0u);
}

TEST(SimTest, ZeroFailedAcquireCostRunsToCompletion) {
  // Regression: FailedAcquireNanos=0 used to divide by zero (SIGFPE) when
  // converting contended waiting time into counted failed acquires. Zero
  // stays a legal configuration; the divisor is clamped instead.
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 32;
  B.SharedLock = true;
  B.ComputeCost = 1000; // Critical section dominates: real contention.
  CostModel CM;
  CM.FailedAcquireNanos = 0;
  SimMachine Machine(4, CM);
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry}}, false);
  const IntervalReport R = Runner.runInterval(0, Unbounded);
  EXPECT_TRUE(R.Finished);
  EXPECT_GT(R.Stats.WaitNanos, 0);
  EXPECT_EQ(R.Stats.AcquireReleasePairs, 32u);
}

TEST(SimTest, ReusedIntervalStateIsBitIdentical) {
  // The per-interval simulation state (processors, locks, ready queue) is
  // reset rather than reallocated. A contended two-interval pass repeated
  // on the same runner after reset() -- and compared against a fresh
  // runner -- must agree bit for bit; any stale lock waiter list or
  // un-reset processor field shows up here.
  ToyWorkload W;
  CostModel CM;
  const Nanos Split = 8 * 150000; // Mid-section: interval 1 parks procs.
  auto TwoIntervals = [&](SimSectionRunner &R) {
    std::array<IntervalReport, 2> Out{R.runInterval(0, Split),
                                      R.runInterval(0, Unbounded)};
    EXPECT_FALSE(Out[0].Finished);
    EXPECT_TRUE(Out[1].Finished);
    return Out;
  };

  ToyBinding B;
  B.Iterations = 64;
  B.SharedLock = true;
  SimMachine Machine(4, CM);
  SimSectionRunner Reused(Machine, B, {SimVersion{"only", W.Entry}}, false);
  const auto First = TwoIntervals(Reused);
  Reused.reset();
  const auto Again = TwoIntervals(Reused);

  SimMachine FreshMachine(4, CM);
  SimSectionRunner Fresh(FreshMachine, B, {SimVersion{"only", W.Entry}},
                         false);
  const auto FreshRun = TwoIntervals(Fresh);

  for (int I = 0; I < 2; ++I) {
    expectReportsIdentical(First[I], Again[I]);
    expectReportsIdentical(First[I], FreshRun[I]);
  }
}

TEST(SimBackendTest, OpsCacheMatchesLiveInterpretation) {
  // The backend attaches per-version emitted-ops caches that survive across
  // section occurrences. A cacheable binding served from the cache (all
  // occurrences after the first hit memoized sequences) must simulate
  // exactly like an uncacheable binding interpreted live every iteration.
  ToyWorkload W;
  ToyBinding CachedB;
  CachedB.Cacheable = true;
  ToyBinding LiveB;
  for (ToyBinding *B : {&CachedB, &LiveB}) {
    B->Iterations = 64;
    B->SharedLock = true;
  }
  SimBackend Cached(4, CostModel{}, false);
  Cached.addSection("S", &CachedB, {SimVersion{"only", W.Entry}});
  SimBackend Live(4, CostModel{}, false);
  Live.addSection("S", &LiveB, {SimVersion{"only", W.Entry}});
  for (int Occurrence = 0; Occurrence < 3; ++Occurrence) {
    auto CR = Cached.beginSection("S");
    auto LR = Live.beginSection("S");
    const IntervalReport A = CR->runInterval(0, Unbounded);
    const IntervalReport B = LR->runInterval(0, Unbounded);
    EXPECT_TRUE(A.Finished);
    expectReportsIdentical(A, B);
  }
}

TEST(SimDeathTest, OrderedStepBeforeAnEarlierOneAborts) {
  // A negative acquire cost sends a processor's clock backwards, so its
  // release -- an ordered step on a shared lock -- would run before the
  // acquire it follows.
  ToyWorkload W;
  ToyBinding B;
  B.SharedLock = true;
  CostModel CM;
  CM.AcquireNanos = -1000000;
  SimMachine Machine(2, CM);
  SimSectionRunner Runner(Machine, B, {SimVersion{"only", W.Entry, {}}},
                          false);
  EXPECT_DEBUG_DEATH(Runner.runInterval(0, Unbounded),
                     "ordered step out of");
}

TEST(SimBackendTest, RegistersAndBeginsSections) {
  ToyWorkload W;
  ToyBinding B;
  B.Iterations = 2;
  SimBackend Backend(2, CostModel{}, false);
  Backend.addSection("S", &B, {SimVersion{"only", W.Entry}});
  auto Runner = Backend.beginSection("S");
  ASSERT_NE(Runner, nullptr);
  EXPECT_EQ(Runner->numVersions(), 1u);
  EXPECT_EQ(Runner->versionLabel(0), "only");
  Backend.runSerial(1000);
  EXPECT_EQ(Backend.now(), 1000);
}

// ---------------- Event-loop characterization (pinned behaviour) -----------
//
// One section simulated under a matrix of machines, schedules and lock
// layouts, each without and with every kind of perturbation engine, split
// over several intervals. Every IntervalReport field and the attached
// IntervalTrace's per-processor and per-lock summaries are compared against
// expected files under tests/golden/sim/, so any change to the order in
// which the event loop runs processors shows up here. After a deliberate
// behaviour change, rerun with DYNFB_UPDATE_GOLDEN=1 to rewrite the files,
// and review the diff.

/// Iterations are: compute; acquire(this); update; release(this); compute.
/// The trailing compute lets a releaser run on while its granted waiter
/// resumes.
struct CharacterizationWorkload {
  Module M{"characterization"};
  Method *Entry = nullptr;

  CharacterizationWorkload() {
    ClassDecl *C = M.createClass("c");
    const unsigned F = C->addField("f");
    Entry = M.createMethod("work", C);
    MethodBuilder B(M, Entry);
    B.compute();
    B.acquire(Receiver::thisObj());
    B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::thisObj());
    B.compute();
  }
};

class CharacterizationBinding final : public DataBinding {
public:
  static constexpr uint64_t Iterations = 64;
  bool SharedLock = false; ///< All iterations lock object 0.
  bool EqualCosts = false; ///< Every compute kernel costs the same.

  uint64_t iterationCount() const override { return Iterations; }
  uint32_t objectCount() const override { return Iterations; }
  ObjectId thisObject(uint64_t Iter) const override {
    return SharedLock ? 0 : static_cast<ObjectId>(Iter);
  }
  std::vector<ObjRef> sectionArgs(uint64_t) const override { return {}; }
  ObjectId elementOf(ArrayId, uint64_t, const LoopCtx &) const override {
    return 0;
  }
  uint64_t tripCount(unsigned, const LoopCtx &) const override { return 1; }
  Nanos computeNanos(unsigned CostClass, const LoopCtx &Ctx) const override {
    if (EqualCosts)
      return 30000;
    return 8000 + static_cast<Nanos>((Ctx.Iter * 7919 + CostClass * 31) % 13) *
                      3000;
  }
  int64_t iterationClass(uint64_t Iter) const override {
    return static_cast<int64_t>(Iter);
  }
};

struct SimCharacterizationCase {
  const char *Machine; ///< dash-flat or dash-numa.
  const char *Sched;   ///< dynamic, chunk8 or fac.
  const char *Locks;   ///< shared, private or zero_cost (shared, free ops).
};

/// The perturbation variants every case runs: none, then one engine per
/// fault class the event loop queries (compute scaling covers both
/// processor slowdowns and phase shifts).
constexpr std::array<std::pair<const char *, const char *>, 5>
    CharacterizationPerturbations{{
        {"none", ""},
        {"contention", "contend@60us-700us:extra=20us:obj=0-31"},
        {"lock_hold", "lockhold@30us-600us:extra=4us"},
        {"timer_noise", "timernoise@0-inf:amp=3us:seed=7"},
        {"compute_scale",
         "slowdown@50us-800us:factor=1.7:proc=3,phaseshift@400us-inf:"
         "factor=0.6"},
    }};

/// The case's test name and expected-file stem, e.g. dash_flat_fac_shared.
std::string simCaseName(const SimCharacterizationCase &Case) {
  std::string Name = format("%s_%s_%s", Case.Machine, Case.Sched, Case.Locks);
  std::replace(Name.begin(), Name.end(), '-', '_');
  return Name;
}

std::unique_ptr<MachineModel>
characterizationModel(const SimCharacterizationCase &Case) {
  std::unique_ptr<MachineModel> Model = createMachineModel(Case.Machine);
  if (std::string(Case.Locks) != "zero_cost")
    return Model;
  for (const std::string &Name : Model->paramNames()) {
    if (Name.find("Acquire") != std::string::npos || Name == "ReleaseNanos" ||
        Name == "MigrateHopNanos" || Name == "InstrumentNanos") {
      EXPECT_TRUE(Model->setParam(Name, 0)) << Name;
    }
  }
  return Model;
}

SchedSpec characterizationSched(const SimCharacterizationCase &Case) {
  const std::string Sched = Case.Sched;
  if (Sched == "chunk8")
    return SchedSpec::chunked(8);
  if (Sched == "fac")
    return SchedSpec::factoring();
  return SchedSpec::dynamic();
}

/// Runs \p Runner's section to completion in intervals of a fixed target
/// and renders each interval's report and trace.
std::string runCharacterizationIntervals(SimSectionRunner &Runner,
                                         const SimMachine &Machine) {
  IntervalTrace Trace;
  Runner.attachTrace(&Trace);

  std::string Out;
  unsigned Intervals = 0;
  while (!Runner.done() && Intervals < 100) {
    const IntervalReport R = Runner.runInterval(0, 60000);
    const OverheadStats &S = R.Stats;
    Out += format("interval %u effective=%lld finished=%d injected=%lld "
                  "pairs=%llu failed=%llu lock=%lld wait=%lld sched=%lld "
                  "exec=%lld now=%lld\n",
                  Intervals++, static_cast<long long>(R.EffectiveNanos),
                  R.Finished ? 1 : 0, static_cast<long long>(R.InjectedNanos),
                  static_cast<unsigned long long>(S.AcquireReleasePairs),
                  static_cast<unsigned long long>(S.FailedAcquires),
                  static_cast<long long>(S.LockOpNanos),
                  static_cast<long long>(S.WaitNanos),
                  static_cast<long long>(S.SchedNanos),
                  static_cast<long long>(S.ExecNanos),
                  static_cast<long long>(Machine.now()));
    for (size_t P = 0; P < Trace.Procs.size(); ++P) {
      const IntervalTrace::ProcSummary &PS = Trace.Procs[P];
      Out += format("  proc %zu compute=%lld lock=%lld wait=%lld "
                    "overhead=%lld iterations=%llu\n",
                    P, static_cast<long long>(PS.ComputeNanos),
                    static_cast<long long>(PS.LockOpNanos),
                    static_cast<long long>(PS.WaitNanos),
                    static_cast<long long>(PS.OverheadNanos),
                    static_cast<unsigned long long>(PS.Iterations));
    }
    for (const auto &[Obj, LS] : Trace.Locks)
      Out += format("  lock %u acquires=%llu contended=%llu wait=%lld\n", Obj,
                    static_cast<unsigned long long>(LS.Acquires),
                    static_cast<unsigned long long>(LS.Contended),
                    static_cast<long long>(LS.WaitNanos));
  }
  EXPECT_TRUE(Runner.done());
  EXPECT_GE(Intervals, 2u) << "the section must span several intervals";
  return Out;
}

/// Runs the case's section through runCharacterizationIntervals.
std::string runSimCharacterization(const SimCharacterizationCase &Case,
                                   const perturb::PerturbationEngine *Engine) {
  CharacterizationWorkload W;
  CharacterizationBinding B;
  B.SharedLock = std::string(Case.Locks) != "private";
  B.EqualCosts = std::string(Case.Locks) == "zero_cost";
  // Six processors span both dash-numa clusters.
  SimMachine Machine(6, characterizationModel(Case));
  SimSectionRunner Runner(
      Machine, B, {SimVersion{"only", W.Entry, characterizationSched(Case)}},
      /*Instrumented=*/true);
  std::vector<EmittedOpsCache> Caches(1);
  Runner.attachOpsCaches(&Caches);
  Runner.setPerturbation(Engine, "S");
  return runCharacterizationIntervals(Runner, Machine);
}

class SimCharacterizationTest
    : public ::testing::TestWithParam<SimCharacterizationCase> {};

/// Renders \p Run once without perturbation and once under each of
/// CharacterizationPerturbations, each run headed by the variant's name.
std::string renderUnderEveryPerturbation(
    const std::function<std::string(const perturb::PerturbationEngine *)>
        &Run) {
  std::string Actual;
  for (const auto &[Name, Spec] : CharacterizationPerturbations) {
    std::optional<perturb::PerturbationEngine> Engine;
    if (*Spec) {
      std::string Error;
      std::optional<perturb::PerturbationSchedule> Sched =
          perturb::parseSchedule(Spec, Error);
      EXPECT_TRUE(Sched) << Error;
      if (!Sched)
        return Actual;
      Engine.emplace(std::move(*Sched));
    }
    Actual += format("perturbation %s\n", Name);
    Actual += Run(Engine ? &*Engine : nullptr);
  }
  return Actual;
}

TEST_P(SimCharacterizationTest, MatchesExpectedFile) {
  const SimCharacterizationCase &Case = GetParam();
  const std::string Actual = renderUnderEveryPerturbation(
      [&](const perturb::PerturbationEngine *Engine) {
        return runSimCharacterization(Case, Engine);
      });
  test::expectMatchesGoldenFile(format("%s/sim/%s.txt", DYNFB_TEST_GOLDEN_DIR,
                                       simCaseName(Case).c_str()),
                                Actual);
}

std::vector<SimCharacterizationCase> simCharacterizationCases() {
  std::vector<SimCharacterizationCase> Cases;
  for (const char *Machine : {"dash-flat", "dash-numa"})
    for (const char *Sched : {"dynamic", "chunk8", "fac"})
      for (const char *Locks : {"shared", "private", "zero_cost"})
        Cases.push_back({Machine, Sched, Locks});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SimCharacterizationTest,
    ::testing::ValuesIn(simCharacterizationCases()),
    [](const ::testing::TestParamInfo<SimCharacterizationCase> &Info) {
      return simCaseName(Info.param);
    });

// ---------- Locks inside a loop (Barnes-Hut's FORCES shape, pinned) --------
//
// The same rendering for a section shaped like Barnes-Hut's FORCES: each
// iteration loops over its interactions, and every interaction updates two
// fields of the iteration's own object. The compiler's Original, Bounded
// and Aggressive versions of it lock inside the loop (per update or per
// interaction) or around it. The binding reads no loop index, and the lock
// is either the iteration's own object or one object shared by all.

struct LoopCharacterizationWorkload {
  Module M{"loop_characterization"};
  xform::VersionedProgram Program;

  LoopCharacterizationWorkload() {
    ClassDecl *Body = M.createClass("body");
    const unsigned Pos = Body->addField("pos");
    const unsigned Acc = Body->addField("acc");
    const unsigned Phi = Body->addField("phi");
    Method *One = M.createMethod("one_interaction", Body);
    One->addParam(Param{"b", Body, /*IsArray=*/false});
    {
      MethodBuilder B(M, One);
      const Expr *ThisPos = M.exprFieldRead(Receiver::thisObj(), Pos);
      const Expr *OtherPos = M.exprFieldRead(Receiver::param(0), Pos);
      B.compute({ThisPos, OtherPos});
      B.update(Receiver::thisObj(), Acc, BinOp::Add,
               M.exprExternCall("interact", {ThisPos, OtherPos}));
      B.update(Receiver::thisObj(), Phi, BinOp::Add,
               M.exprExternCall("potential", {ThisPos, OtherPos}));
    }
    Method *All = M.createMethod("interactions", Body);
    All->addParam(Param{"b", Body, /*IsArray=*/true});
    {
      MethodBuilder B(M, All);
      const unsigned Loop = B.beginLoop();
      B.call(One, Receiver::thisObj(), {Receiver::paramIndexed(0, Loop)});
      B.endLoop();
    }
    M.addSection("S", All);
    Program = xform::generateVersions(M);
  }

  const ir::Method *entry(const std::string &Version) const {
    const xform::VersionedSection &VS = Program.Sections.front();
    if (Version == "original")
      return VS.versionFor(xform::PolicyKind::Original).Entry;
    if (Version == "bounded")
      return VS.versionFor(xform::PolicyKind::Bounded).Entry;
    return VS.versionFor(xform::PolicyKind::Aggressive).Entry;
  }
};

class LoopCharacterizationBinding final : public DataBinding {
public:
  static constexpr uint64_t Iterations = 64;
  bool SharedLock = false; ///< All iterations lock object 0.

  uint64_t iterationCount() const override { return Iterations; }
  uint32_t objectCount() const override { return Iterations; }
  ObjectId thisObject(uint64_t Iter) const override {
    return SharedLock ? 0 : static_cast<ObjectId>(Iter);
  }
  std::vector<ObjRef> sectionArgs(uint64_t) const override {
    return {ObjRef::array(0)};
  }
  ObjectId elementOf(ArrayId, uint64_t Index,
                     const LoopCtx &Ctx) const override {
    return static_cast<ObjectId>((Ctx.Iter + 1 + Index) % Iterations);
  }
  uint64_t tripCount(unsigned, const LoopCtx &Ctx) const override {
    return 2 + (Ctx.Iter * 5) % 7;
  }
  Nanos computeNanos(unsigned CostClass, const LoopCtx &Ctx) const override {
    return 3000 +
           static_cast<Nanos>((Ctx.Iter * 7919 + CostClass * 31) % 13) * 1000;
  }
  int64_t iterationClass(uint64_t Iter) const override {
    return static_cast<int64_t>(Iter);
  }
  bool readsLoopIndices() const override { return false; }
};

struct LoopCharacterizationCase {
  const char *Machine; ///< dash-flat or dash-numa.
  const char *Version; ///< original, bounded or aggressive.
  const char *Locks;   ///< private or shared.
};

/// The case's test name and expected-file stem, e.g.
/// loop_dash_numa_bounded_private.
std::string loopCaseName(const LoopCharacterizationCase &Case) {
  std::string Name =
      format("loop_%s_%s_%s", Case.Machine, Case.Version, Case.Locks);
  std::replace(Name.begin(), Name.end(), '-', '_');
  return Name;
}

std::string runLoopCharacterization(const LoopCharacterizationCase &Case,
                                    const perturb::PerturbationEngine *Engine) {
  LoopCharacterizationWorkload W;
  LoopCharacterizationBinding B;
  B.SharedLock = std::string(Case.Locks) == "shared";
  SimMachine Machine(6, createMachineModel(Case.Machine));
  SimSectionRunner Runner(Machine, B,
                          {SimVersion{Case.Version, W.entry(Case.Version), {}}},
                          /*Instrumented=*/true);
  std::vector<EmittedOpsCache> Caches(1);
  Runner.attachOpsCaches(&Caches);
  Runner.setPerturbation(Engine, "S");
  return runCharacterizationIntervals(Runner, Machine);
}

class LoopCharacterizationTest
    : public ::testing::TestWithParam<LoopCharacterizationCase> {};

TEST_P(LoopCharacterizationTest, MatchesExpectedFile) {
  const LoopCharacterizationCase &Case = GetParam();
  const std::string Actual = renderUnderEveryPerturbation(
      [&](const perturb::PerturbationEngine *Engine) {
        return runLoopCharacterization(Case, Engine);
      });
  test::expectMatchesGoldenFile(format("%s/sim/%s.txt", DYNFB_TEST_GOLDEN_DIR,
                                       loopCaseName(Case).c_str()),
                                Actual);
}

std::vector<LoopCharacterizationCase> loopCharacterizationCases() {
  std::vector<LoopCharacterizationCase> Cases;
  for (const char *Machine : {"dash-flat", "dash-numa"})
    for (const char *Version : {"original", "bounded", "aggressive"})
      for (const char *Locks : {"private", "shared"})
        Cases.push_back({Machine, Version, Locks});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LoopCharacterizationTest,
    ::testing::ValuesIn(loopCharacterizationCases()),
    [](const ::testing::TestParamInfo<LoopCharacterizationCase> &Info) {
      return loopCaseName(Info.param);
    });

} // namespace
