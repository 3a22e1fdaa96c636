//===- apps/barnes_hut/BarnesHutApp.cpp -----------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/barnes_hut/BarnesHutApp.h"

#include "ir/Builder.h"

#include <algorithm>
#include <cassert>

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::apps::bh;
using namespace dynfb::ir;

void BarnesHutConfig::scale(double Factor) {
  NumBodies = std::max<uint32_t>(
      16, static_cast<uint32_t>(static_cast<double>(NumBodies) * Factor));
  // The tree build is roughly linear in the body count; keep the
  // serial/parallel proportions of the full-size benchmark.
  TreeBuildNanos =
      static_cast<rt::Nanos>(static_cast<double>(TreeBuildNanos) * Factor);
}

namespace {

/// FORCES-section binding: iteration i computes the interactions of body i,
/// whose count comes from the real octree traversal.
class ForcesDataBinding final : public rt::DataBinding {
public:
  ForcesDataBinding(const std::vector<uint32_t> &Counts, unsigned LoopId,
                    unsigned CostClass, rt::Nanos InteractNanos)
      : Counts(Counts), LoopId(LoopId), CostClass(CostClass),
        InteractNanos(InteractNanos) {}

  uint64_t iterationCount() const override { return Counts.size(); }
  uint32_t objectCount() const override {
    return static_cast<uint32_t>(Counts.size());
  }
  rt::ObjectId thisObject(uint64_t Iter) const override {
    return static_cast<rt::ObjectId>(Iter);
  }
  std::vector<rt::ObjRef> sectionArgs(uint64_t) const override {
    return {rt::ObjRef::array(0)};
  }
  rt::ObjectId elementOf(rt::ArrayId, uint64_t Index,
                         const rt::LoopCtx &Ctx) const override {
    // The interaction partner: identity is irrelevant for locking (only
    // `this` is locked), but must be a valid object id.
    return static_cast<rt::ObjectId>((Ctx.Iter + 1 + Index) % Counts.size());
  }
  uint64_t tripCount(unsigned Loop, const rt::LoopCtx &Ctx) const override {
    assert(Loop == LoopId && "unexpected loop id");
    (void)Loop;
    return Counts[Ctx.Iter];
  }
  rt::Nanos computeNanos(unsigned CC, const rt::LoopCtx &) const override {
    assert(CC == CostClass && "unexpected cost class");
    (void)CC;
    return InteractNanos;
  }
  // Pure function of the iteration over construction-time state (the
  // interaction counts are fixed at tree build), so emitted ops are
  // cacheable.
  int64_t iterationClass(uint64_t Iter) const override {
    return static_cast<int64_t>(Iter);
  }
  // Every interaction costs the same, and the interaction count is the
  // body's: no loop index is read.
  bool readsLoopIndices() const override { return false; }

private:
  const std::vector<uint32_t> &Counts;
  const unsigned LoopId;
  const unsigned CostClass;
  const rt::Nanos InteractNanos;
};

} // namespace

BarnesHutApp::BarnesHutApp(const BarnesHutConfig &Config,
                           const xform::VersionSpace &Space)
    : App("barnes_hut"), Config(Config) {
  // Real workload: bodies + octree + per-body interaction counts.
  Bodies = makePlummerBodies(Config.NumBodies, Config.Seed);
  Octree Tree(Bodies);
  InteractionCounts.reserve(Bodies.size());
  for (uint32_t I = 0; I < Bodies.size(); ++I) {
    const uint32_t Count = Tree.countInteractions(I, Config.Theta);
    InteractionCounts.push_back(Count);
    TotalInteractions += Count;
  }

  buildProgram();
  finalize(Space);

  ForcesBinding = std::make_unique<ForcesDataBinding>(
      InteractionCounts, InteractLoopId, InteractCostClass,
      Config.InteractNanos);
}

BarnesHutApp::~BarnesHutApp() = default;

void BarnesHutApp::buildProgram() {
  // class body { lock mutex; double pos, acc, phi; };   (paper Figure 1)
  ClassDecl *BodyClass = M.createClass("body");
  const unsigned PosField = BodyClass->addField("pos");
  const unsigned AccField = BodyClass->addField("acc");
  const unsigned PhiField = BodyClass->addField("phi");

  // void body::one_interaction(body *b)
  Method *OneInteraction = M.createMethod("one_interaction", BodyClass);
  OneInteraction->addParam(Param{"b", BodyClass, /*IsArray=*/false});
  {
    MethodBuilder B(M, OneInteraction);
    const Expr *ThisPos = M.exprFieldRead(Receiver::thisObj(), PosField);
    const Expr *OtherPos = M.exprFieldRead(Receiver::param(0), PosField);
    // double val = interact(this->pos, b->pos);
    InteractCostClass = B.compute({ThisPos, OtherPos});
    const Expr *Val = M.exprExternCall("interact", {ThisPos, OtherPos});
    const Expr *Pot = M.exprExternCall("potential", {ThisPos, OtherPos});
    // acc = acc + val;  phi = phi + potential(...);  -- the two commuting
    // updates of the operation.
    B.update(Receiver::thisObj(), AccField, BinOp::Add, Val);
    B.update(Receiver::thisObj(), PhiField, BinOp::Add, Pot);
  }

  // void body::interactions(body b[], int n)
  Method *Interactions = M.createMethod("interactions", BodyClass);
  Interactions->addParam(Param{"b", BodyClass, /*IsArray=*/true});
  {
    MethodBuilder B(M, Interactions);
    InteractLoopId = B.beginLoop();
    B.call(OneInteraction, Receiver::thisObj(),
           {Receiver::paramIndexed(0, InteractLoopId)});
    B.endLoop();
  }

  M.addSection(ForcesSection, Interactions);
}

rt::Schedule BarnesHutApp::schedule() const {
  rt::Schedule Sched;
  for (unsigned E = 0; E < Config.ForcesExecutions; ++E) {
    Sched.push_back(rt::Phase::serial(Config.TreeBuildNanos));
    Sched.push_back(rt::Phase::parallel(ForcesSection));
  }
  return Sched;
}

const rt::DataBinding &
BarnesHutApp::binding(const std::string &Section) const {
  assert(Section == ForcesSection && "unknown section");
  (void)Section;
  return *ForcesBinding;
}
