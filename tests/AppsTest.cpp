//===- tests/AppsTest.cpp - Unit tests for the benchmark applications -----==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/Factory.h"
#include "apps/barnes_hut/BarnesHutApp.h"
#include "apps/barnes_hut/Octree.h"
#include "apps/kvserve/KvServeApp.h"
#include "apps/string_tomo/StringApp.h"
#include "apps/water/WaterApp.h"
#include "rt/Interp.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <gtest/gtest.h>

using namespace dynfb;
using namespace dynfb::apps;

namespace {

// ---------------------------- Octree --------------------------------------

TEST(OctreeTest, RootMassEqualsTotalMass) {
  auto Bodies = bh::makePlummerBodies(256, 1);
  bh::Octree Tree(Bodies);
  double Total = 0;
  for (const bh::Body &B : Bodies)
    Total += B.Mass;
  EXPECT_NEAR(Tree.rootMass(), Total, 1e-9);
}

TEST(OctreeTest, ThetaZeroMatchesBruteForce) {
  // With theta = 0 every cell is opened, so the traversal degenerates to
  // the exact pairwise sum.
  auto Bodies = bh::makePlummerBodies(64, 2);
  bh::Octree Tree(Bodies);
  const double Eps = 0.05;
  for (uint32_t I = 0; I < 8; ++I) {
    const bh::ForceResult F = Tree.computeForce(I, 0.0, Eps);
    EXPECT_EQ(F.Interactions, Bodies.size() - 1);
    bh::Vec3 Acc;
    double Phi = 0;
    for (uint32_t J = 0; J < Bodies.size(); ++J) {
      if (J == I)
        continue;
      const bh::Vec3 D = Bodies[J].Pos - Bodies[I].Pos;
      const double R2 = D.norm2() + Eps * Eps;
      const double R = std::sqrt(R2);
      Acc += D * (Bodies[J].Mass / (R2 * R));
      Phi -= Bodies[J].Mass / R;
    }
    EXPECT_NEAR(F.Acc.X, Acc.X, 1e-9);
    EXPECT_NEAR(F.Acc.Y, Acc.Y, 1e-9);
    EXPECT_NEAR(F.Acc.Z, Acc.Z, 1e-9);
    EXPECT_NEAR(F.Phi, Phi, 1e-9);
  }
}

TEST(OctreeTest, LargerThetaFewerInteractions) {
  auto Bodies = bh::makePlummerBodies(512, 3);
  bh::Octree Tree(Bodies);
  uint64_t Small = 0, Large = 0;
  for (uint32_t I = 0; I < Bodies.size(); ++I) {
    Small += Tree.computeForce(I, 0.3, 0.05).Interactions;
    Large += Tree.computeForce(I, 1.5, 0.05).Interactions;
  }
  EXPECT_LT(Large, Small);
  // Approximation: far fewer than all pairs.
  EXPECT_LT(Large, static_cast<uint64_t>(Bodies.size()) *
                       (Bodies.size() - 1) / 4);
}

TEST(OctreeTest, CountInteractionsMatchesComputeForce) {
  // The count-only walk makes the force walk's opening decisions exactly,
  // including theta = 0 (every cell opened) and theta = 1.15 (the app's).
  for (const uint64_t Seed : {42u, 11u}) {
    auto Bodies = bh::makePlummerBodies(2048, Seed);
    bh::Octree Tree(Bodies);
    for (const double Theta : {0.0, 0.5, 1.15, 1.5})
      for (uint32_t I = 0; I < Bodies.size(); ++I)
        ASSERT_EQ(Tree.countInteractions(I, Theta),
                  Tree.computeForce(I, Theta, 0.05).Interactions)
            << "seed " << Seed << " theta " << Theta << " body " << I;
  }
}

TEST(OctreeTest, ApproximationErrorIsSmall) {
  auto Bodies = bh::makePlummerBodies(256, 4);
  bh::Octree Tree(Bodies);
  const double Eps = 0.05;
  for (uint32_t I = 0; I < 16; ++I) {
    const bh::ForceResult Exact = Tree.computeForce(I, 0.0, Eps);
    const bh::ForceResult Approx = Tree.computeForce(I, 0.8, Eps);
    const double Scale = std::sqrt(Exact.Acc.norm2()) + 1e-12;
    const bh::Vec3 D = Exact.Acc - Approx.Acc;
    EXPECT_LT(std::sqrt(D.norm2()) / Scale, 0.05)
        << "body " << I << " relative force error too large";
  }
}

TEST(OctreeTest, PlummerBodiesDeterministic) {
  auto A = bh::makePlummerBodies(64, 9);
  auto B = bh::makePlummerBodies(64, 9);
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Pos.X, B[I].Pos.X);
    EXPECT_EQ(A[I].Pos.Y, B[I].Pos.Y);
  }
}

// ---------------------------- Barnes-Hut app -------------------------------

TEST(BarnesHutAppTest, WorkloadAndScheduleShape) {
  bh::BarnesHutConfig Config;
  Config.NumBodies = 256;
  bh::BarnesHutApp App(Config);
  EXPECT_EQ(App.interactionCounts().size(), 256u);
  EXPECT_GT(App.totalInteractions(), 0u);
  const rt::Schedule Sched = App.schedule();
  ASSERT_EQ(Sched.size(), 4u); // (serial, FORCES) x 2
  EXPECT_EQ(Sched[0].K, rt::Phase::Kind::Serial);
  EXPECT_EQ(Sched[1].K, rt::Phase::Kind::Parallel);
  EXPECT_EQ(Sched[1].SectionName, "FORCES");
}

TEST(BarnesHutAppTest, BindingIsConsistent) {
  bh::BarnesHutConfig Config;
  Config.NumBodies = 128;
  bh::BarnesHutApp App(Config);
  const rt::DataBinding &B = App.binding("FORCES");
  EXPECT_EQ(B.iterationCount(), 128u);
  EXPECT_EQ(B.objectCount(), 128u);
  EXPECT_EQ(B.thisObject(17), 17u);
  rt::LoopCtx Ctx;
  Ctx.Iter = 5;
  EXPECT_EQ(B.tripCount(0 /* the only loop */, Ctx),
            App.interactionCounts()[5]);
}

TEST(BarnesHutAppTest, SectionStatsMatchInteractionTotals) {
  bh::BarnesHutConfig Config;
  Config.NumBodies = 128;
  bh::BarnesHutApp App(Config);
  const rt::CostModel CM = rt::CostModel::dashLike();
  const SectionStats Stats = App.sectionStats("FORCES", CM);
  EXPECT_EQ(Stats.Iterations, 128u);
  // Serial compute: interactions * (kernel + 2 updates).
  const double Expected =
      rt::nanosToSeconds(static_cast<rt::Nanos>(App.totalInteractions()) *
                         (Config.InteractNanos + 2 * CM.UpdateNanos));
  EXPECT_NEAR(Stats.MeanSectionSeconds, Expected, 1e-9);
}

TEST(BarnesHutAppTest, ScaleShrinksWorkload) {
  bh::BarnesHutConfig Config;
  Config.scale(0.25);
  EXPECT_EQ(Config.NumBodies, 4096u);
  Config.NumBodies = 10;
  Config.scale(0.001);
  EXPECT_GE(Config.NumBodies, 16u); // Floor.
}

// ---------------------------- Water app ------------------------------------

TEST(WaterAppTest, PartnersAndSchedule) {
  water::WaterConfig Config;
  Config.NumMolecules = 16;
  water::WaterApp App(Config);
  const rt::Schedule Sched = App.schedule();
  // Per timestep: serial, INTERF, serial, POTENG.
  ASSERT_EQ(Sched.size(), Config.Timesteps * 4);
  EXPECT_EQ(Sched[1].SectionName, "INTERF");
  EXPECT_EQ(Sched[3].SectionName, "POTENG");
  // The serial halves sum to the configured serial phase.
  EXPECT_EQ(Sched[0].SerialNanos + Sched[2].SerialNanos,
            Config.SerialPhaseNanos);
}

TEST(WaterAppTest, PotengBindingHasGlobalAccumulator) {
  water::WaterConfig Config;
  Config.NumMolecules = 16;
  water::WaterApp App(Config);
  const rt::DataBinding &B = App.binding("POTENG");
  EXPECT_EQ(B.objectCount(), 17u); // Molecules + the accumulator object.
  const auto Args = B.sectionArgs(0);
  ASSERT_EQ(Args.size(), 2u);
  EXPECT_TRUE(Args[0].IsArray);
  EXPECT_FALSE(Args[1].IsArray);
  EXPECT_EQ(Args[1].Id, 16u);
}

TEST(WaterAppTest, NeighborListsAreRealAndConsistent) {
  water::WaterConfig Config;
  Config.NumMolecules = 64;
  water::WaterApp App(Config);
  const water::MolecularSystem &Sys = App.system();
  ASSERT_EQ(Sys.Neighbors.size(), 64u);
  EXPECT_GT(Sys.CutoffRadius, 0.0);

  // Every listed pair is within the cutoff and appears exactly once.
  const double Rc2 = Sys.CutoffRadius * Sys.CutoffRadius * (1.0 + 1e-9);
  std::set<std::pair<uint32_t, uint32_t>> Seen;
  for (uint32_t I = 0; I < Sys.Neighbors.size(); ++I)
    for (uint32_t J : Sys.Neighbors[I]) {
      const auto &A = Sys.Positions[I];
      const auto &B = Sys.Positions[J];
      const double DX = A.X - B.X, DY = A.Y - B.Y, DZ = A.Z - B.Z;
      EXPECT_LE(DX * DX + DY * DY + DZ * DZ, Rc2);
      const auto Key = std::minmax(I, J);
      EXPECT_TRUE(Seen.insert({Key.first, Key.second}).second)
          << "pair listed twice";
    }

  // The binding serves the same lists.
  const rt::DataBinding &B = App.binding("INTERF");
  rt::LoopCtx Ctx;
  Ctx.Iter = 5;
  ASSERT_EQ(B.tripCount(0 /*unused*/, Ctx), Sys.Neighbors[5].size());
}

TEST(WaterAppTest, CutoffCalibrationHitsTarget) {
  water::WaterConfig Config;
  Config.NumMolecules = 256;
  Config.TargetMeanNeighbors = 40.0;
  water::WaterApp App(Config);
  const double Mean =
      static_cast<double>(App.system().totalPairs()) / 256.0;
  EXPECT_NEAR(Mean, 40.0, 4.0);
}

TEST(WaterAppTest, HalfListsAreBalanced) {
  water::WaterConfig Config;
  Config.NumMolecules = 256;
  water::WaterApp App(Config);
  const water::MolecularSystem &Sys = App.system();
  const double Mean =
      static_cast<double>(Sys.totalPairs()) /
      static_cast<double>(Sys.Neighbors.size());
  size_t MaxLen = 0;
  for (const auto &L : Sys.Neighbors)
    MaxLen = std::max(MaxLen, L.size());
  // No molecule carries more than a few times the average (the balanced
  // pair assignment prevents the triangular skew of naive half-lists).
  EXPECT_LT(static_cast<double>(MaxLen), 3.0 * Mean + 8.0);
}

// ---------------------------- String app -----------------------------------

TEST(StringAppTest, DdaCellCounts) {
  // Horizontal ray: crosses exactly W cells.
  EXPECT_EQ(string_tomo::ddaCellCount(64, 64, 10.2, 10.2), 64u);
  // One row crossing adds one cell.
  EXPECT_EQ(string_tomo::ddaCellCount(64, 64, 10.2, 11.4), 65u);
  // Deep diagonal.
  EXPECT_EQ(string_tomo::ddaCellCount(64, 64, 0.5, 63.5), 64u + 63u);
  // Out-of-grid depths clamp.
  EXPECT_EQ(string_tomo::ddaCellCount(64, 64, -5.0, 1000.0), 64u + 63u);
  // Minimal grid.
  EXPECT_EQ(string_tomo::ddaCellCount(1, 1, 0.0, 0.0), 1u);
}

TEST(StringAppTest, DdaCellCountMatchesBruteForceMarch) {
  // Cross-check the closed-form crossing count against an actual march
  // along the ray in tiny steps, counting distinct cells visited.
  const uint32_t W = 32, H = 32;
  Rng R(77);
  for (int Trial = 0; Trial < 50; ++Trial) {
    const double Z0 = R.uniform(0.0, H - 1e-6);
    const double Z1 = R.uniform(0.0, H - 1e-6);
    // March from (0, Z0) to (W, Z1) in cell units.
    std::set<std::pair<int, int>> Cells;
    const int Steps = 200000;
    for (int S = 0; S <= Steps; ++S) {
      const double T = static_cast<double>(S) / Steps;
      const double X = T * (W - 1e-9);
      const double Z = Z0 + T * (Z1 - Z0);
      Cells.insert({static_cast<int>(X), static_cast<int>(Z)});
    }
    EXPECT_EQ(string_tomo::ddaCellCount(W, H, Z0, Z1), Cells.size())
        << "Z0=" << Z0 << " Z1=" << Z1;
  }
}

TEST(StringAppTest, RaysAreRealistic) {
  string_tomo::StringConfig Config;
  Config.NumRays = 64;
  string_tomo::StringApp App(Config);
  ASSERT_EQ(App.rays().size(), 64u);
  for (const string_tomo::Ray &R : App.rays()) {
    EXPECT_GE(R.Segments, Config.GridW);
    EXPECT_LE(R.Segments, Config.GridW + Config.GridH);
  }
  EXPECT_EQ(App.totalSegments(),
            [&] {
              uint64_t S = 0;
              for (const auto &R : App.rays())
                S += R.Segments;
              return S;
            }());
}

TEST(StringAppTest, SingleSharedModelObject) {
  string_tomo::StringConfig Config;
  Config.NumRays = 16;
  string_tomo::StringApp App(Config);
  const rt::DataBinding &B = App.binding("TRACE");
  EXPECT_EQ(B.objectCount(), 1u);
  EXPECT_EQ(B.iterationCount(), 16u);
}

TEST(StringAppTest, TraceCostDominatedByRayTracing) {
  string_tomo::StringConfig Config;
  Config.NumRays = 4;
  string_tomo::StringApp App(Config);
  const rt::DataBinding &B = App.binding("TRACE");
  rt::LoopCtx Ctx;
  Ctx.Iter = 0;
  // The whole-ray trace kernel costs Segments * TraceCellNanos.
  const rt::Nanos TraceCost = B.computeNanos(0, Ctx);
  EXPECT_EQ(TraceCost, static_cast<rt::Nanos>(App.rays()[0].Segments) *
                           Config.TraceCellNanos);
}

// ---------------------------- KV serving app -------------------------------

TEST(KvServeAppTest, WorkloadAndScheduleShape) {
  kvserve::KvServeConfig Config;
  Config.RequestsPerWindow = 128;
  Config.Windows = 4;
  kvserve::KvServeApp App(Config);
  const rt::Schedule Sched = App.schedule();
  ASSERT_EQ(Sched.size(), Config.Windows * 2u); // (ingest, SERVE) per window.
  for (unsigned W = 0; W < Config.Windows; ++W) {
    EXPECT_EQ(Sched[2 * W].K, rt::Phase::Kind::Serial);
    EXPECT_EQ(Sched[2 * W].SerialNanos, Config.IngestPhaseNanos);
    EXPECT_EQ(Sched[2 * W + 1].K, rt::Phase::Kind::Parallel);
    EXPECT_EQ(Sched[2 * W + 1].SectionName,
              kvserve::KvServeApp::ServeSection);
  }
  EXPECT_EQ(App.requests().size(), Config.RequestsPerWindow);
  EXPECT_GT(App.totalOps(), App.requests().size()); // Multi-op requests.
}

TEST(KvServeAppTest, BindingIsConsistent) {
  kvserve::KvServeConfig Config;
  Config.RequestsPerWindow = 128;
  kvserve::KvServeApp App(Config);
  const rt::DataBinding &B =
      App.binding(kvserve::KvServeApp::ServeSection);
  EXPECT_EQ(B.iterationCount(), App.requests().size());
  EXPECT_EQ(B.objectCount(), Config.NumShards);
  for (const kvserve::Request &R : App.requests()) {
    EXPECT_LT(R.Key, Config.NumKeys);
    EXPECT_EQ(R.Shard, R.Key % Config.NumShards);
    EXPECT_GE(R.Ops, 1u);
  }
}

TEST(KvServeAppTest, ZipfKeysAreSkewedAndDeterministic) {
  const auto A = kvserve::zipfKeys(1024, 1.6, 8192, 7);
  const auto B = kvserve::zipfKeys(1024, 1.6, 8192, 7);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, kvserve::zipfKeys(1024, 1.6, 8192, 8));

  // Zipf(1.6): the head of the key space absorbs most of the draws. Compare
  // the hottest key's share against the uniform expectation (8 draws/key).
  std::map<uint32_t, unsigned> Freq;
  for (uint32_t K : A)
    ++Freq[K];
  unsigned Hottest = 0;
  for (const auto &[K, N] : Freq)
    Hottest = std::max(Hottest, N);
  EXPECT_GT(Hottest, 8192u / 1024u * 50u);
}

TEST(KvServeAppTest, ScaleShrinksWorkloadWithFloor) {
  kvserve::KvServeConfig Config;
  const auto BaseRequests = Config.RequestsPerWindow;
  const auto BaseIngest = Config.IngestPhaseNanos;
  Config.scale(0.5);
  EXPECT_EQ(Config.RequestsPerWindow, BaseRequests / 2);
  EXPECT_EQ(Config.IngestPhaseNanos, BaseIngest / 2);
  EXPECT_EQ(Config.Windows, 8u); // The horizon never shrinks.
  Config.scale(1e-6);
  EXPECT_GE(Config.RequestsPerWindow, 16u); // Floor.
}

// ------------------------- Emission equivalence ---------------------------

/// Forwards every query to the app's binding but declares that costs read
/// loop indices, so the emitter walks every trip of every loop.
class TripByTripBinding final : public rt::DataBinding {
public:
  explicit TripByTripBinding(const rt::DataBinding &Inner) : Inner(Inner) {}

  uint64_t iterationCount() const override { return Inner.iterationCount(); }
  uint32_t objectCount() const override { return Inner.objectCount(); }
  rt::ObjectId thisObject(uint64_t Iter) const override {
    return Inner.thisObject(Iter);
  }
  std::vector<rt::ObjRef> sectionArgs(uint64_t Iter) const override {
    return Inner.sectionArgs(Iter);
  }
  rt::ObjectId elementOf(rt::ArrayId Arr, uint64_t Index,
                         const rt::LoopCtx &Ctx) const override {
    return Inner.elementOf(Arr, Index, Ctx);
  }
  uint64_t tripCount(unsigned Loop, const rt::LoopCtx &Ctx) const override {
    return Inner.tripCount(Loop, Ctx);
  }
  rt::Nanos computeNanos(unsigned CC, const rt::LoopCtx &Ctx) const override {
    return Inner.computeNanos(CC, Ctx);
  }
  int64_t iterationClass(uint64_t Iter) const override {
    return Inner.iterationClass(Iter);
  }
  bool readsLoopIndices() const override { return true; }

private:
  const rt::DataBinding &Inner;
};

/// Every app x version (default and sync,sched spaces, serial clone
/// included) x iteration emits the same micro-ops through the app's binding
/// -- which folds pure-compute loops and replicates one trip of locking
/// loops where it reads no loop index -- as through the trip-by-trip one,
/// privacy flags included.
TEST(EmissionEquivalenceTest, FoldedEmissionMatchesTripByTrip) {
  std::string Error;
  const std::optional<xform::VersionSpace> SyncSched =
      xform::VersionSpace::parse("sync,sched", "8,fac,wfac,afac", Error);
  ASSERT_TRUE(SyncSched) << Error;
  const rt::CostModel CM = rt::CostModel::dashLike();
  const std::map<std::string, bool> ReadsIndices = {
      {"barnes_hut", false}, {"string", false}, {"kvserve", false},
      {"water", true}};
  for (const auto &[Name, Reads] : ReadsIndices) {
    for (const xform::VersionSpace &Space : {xform::VersionSpace{}, *SyncSched}) {
      const std::unique_ptr<App> A = createApp(Name, 0.125, Space);
      ASSERT_TRUE(A) << Name;
      for (const xform::VersionedSection &VS : A->program().Sections) {
        const rt::DataBinding &B = A->binding(VS.Name);
        EXPECT_EQ(B.readsLoopIndices(), Reads) << Name << " " << VS.Name;
        const TripByTripBinding Walk(B);
        std::vector<const ir::Method *> Entries = {VS.SerialEntry};
        for (const xform::SectionVersion &V : VS.Versions)
          Entries.push_back(V.Entry);
        for (const ir::Method *Entry : Entries) {
          const rt::IterationEmitter Folded(Entry, B, CM);
          const rt::IterationEmitter Walked(Entry, Walk, CM);
          std::vector<rt::MicroOp> F, W;
          for (uint64_t I = 0; I < B.iterationCount(); ++I) {
            Folded.emit(I, F);
            Walked.emit(I, W);
            ASSERT_EQ(F.size(), W.size())
                << Name << " " << Entry->name() << " iteration " << I;
            for (size_t K = 0; K < F.size(); ++K)
              ASSERT_TRUE(F[K] == W[K])
                  << Name << " " << Entry->name() << " iteration " << I
                  << " op " << K;
          }
        }
      }
    }
  }
}

/// Barnes-Hut's versions lock only the iteration's own body, one body per
/// iteration, so every one of their locks is private. Water's INTERF and
/// POTENG lock partner molecules and a global accumulator, String one
/// shared model and KvServe its store shards: iterations share those.
TEST(LockPrivacyTest, BarnesHutLocksArePrivateOthersAreShared) {
  const rt::CostModel CM = rt::CostModel::dashLike();
  for (const auto &[Name, Private] :
       std::map<std::string, bool>{{"barnes_hut", true},
                                   {"kvserve", false},
                                   {"string", false},
                                   {"water", false}}) {
    const std::unique_ptr<App> A = createApp(Name, 0.125);
    ASSERT_TRUE(A) << Name;
    for (const xform::VersionedSection &VS : A->program().Sections) {
      const rt::DataBinding &B = A->binding(VS.Name);
      for (const xform::SectionVersion &V : VS.Versions) {
        const std::string Where = VS.Name + " " + V.Entry->name();
        EXPECT_EQ(rt::locksOnlyThis(V.Entry), Private) << Where;
        const rt::IterationEmitter E(V.Entry, B, CM);
        EXPECT_EQ(E.privateLocks(), Private) << Where;
        std::vector<rt::MicroOp> Ops;
        E.emit(0, Ops);
        size_t Locks = 0;
        for (const rt::MicroOp &Op : Ops)
          if (Op.K != rt::MicroOp::Kind::Compute) {
            ++Locks;
            EXPECT_EQ(Op.Private, Private) << Where;
          }
        EXPECT_GT(Locks, 0u) << Where;
      }
    }
  }
}

} // namespace
