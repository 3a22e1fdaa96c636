//===- apps/string_tomo/StringApp.cpp -------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/string_tomo/StringApp.h"

#include "ir/Builder.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::apps::string_tomo;
using namespace dynfb::ir;

void StringConfig::scale(double Factor) {
  NumRays = std::max<uint32_t>(
      8, static_cast<uint32_t>(static_cast<double>(NumRays) * Factor));
  SerialPhaseNanos = static_cast<rt::Nanos>(
      static_cast<double>(SerialPhaseNanos) * Factor);
}

uint32_t string_tomo::ddaCellCount(uint32_t W, uint32_t H, double Z0,
                                   double Z1) {
  assert(W >= 1 && H >= 1 && "degenerate grid");
  // Straight ray from (0.0, Z0) to (W, Z1) in cell units; Z clamped to the
  // grid. The number of crossed cells of a 2-D DDA equals
  // 1 + (#vertical crossings) + (#horizontal crossings).
  const double Za = std::clamp(Z0, 0.0, static_cast<double>(H) - 1e-9);
  const double Zb = std::clamp(Z1, 0.0, static_cast<double>(H) - 1e-9);
  const uint32_t XCrossings = W - 1;
  const uint32_t ZCrossings = static_cast<uint32_t>(
      std::llabs(static_cast<long long>(std::floor(Zb)) -
                 static_cast<long long>(std::floor(Za))));
  return 1 + XCrossings + ZCrossings;
}

namespace {

/// TRACE binding: iteration r traces ray r; the model object is id 0.
class TraceBindingImpl final : public rt::DataBinding {
public:
  TraceBindingImpl(const std::vector<Ray> &Rays, const StringConfig &Config,
                   unsigned SegmentLoopId, unsigned TraceCC,
                   unsigned BackprojectCC)
      : Rays(Rays), Config(Config), SegmentLoopId(SegmentLoopId),
        TraceCC(TraceCC), BackprojectCC(BackprojectCC) {}

  uint64_t iterationCount() const override { return Rays.size(); }
  uint32_t objectCount() const override { return 1; }
  rt::ObjectId thisObject(uint64_t) const override {
    // Iterations run on per-ray worker objects; only the shared model
    // object (id 0) is ever locked, so the ray identity is immaterial for
    // the machine. (The `this` object of the entry method is the ray.)
    return 0;
  }
  std::vector<rt::ObjRef> sectionArgs(uint64_t) const override {
    return {rt::ObjRef::single(0)};
  }
  rt::ObjectId elementOf(rt::ArrayId, uint64_t,
                         const rt::LoopCtx &) const override {
    return 0; // No object arrays in this section.
  }
  uint64_t tripCount(unsigned Loop, const rt::LoopCtx &Ctx) const override {
    assert(Loop == SegmentLoopId && "unexpected loop id");
    (void)Loop;
    return Rays[Ctx.Iter].Segments;
  }
  rt::Nanos computeNanos(unsigned CC, const rt::LoopCtx &Ctx) const override {
    if (CC == TraceCC)
      return static_cast<rt::Nanos>(Rays[Ctx.Iter].Segments) *
             Config.TraceCellNanos;
    assert(CC == BackprojectCC && "unexpected cost class");
    return Config.BackprojectCellNanos;
  }
  // Pure function of the iteration over the ray table built at
  // construction, so emitted ops are cacheable.
  int64_t iterationClass(uint64_t Iter) const override {
    return static_cast<int64_t>(Iter);
  }
  // Costs and the segment count depend on the ray alone.
  bool readsLoopIndices() const override { return false; }

private:
  const std::vector<Ray> &Rays;
  const StringConfig &Config;
  const unsigned SegmentLoopId;
  const unsigned TraceCC;
  const unsigned BackprojectCC;
};

} // namespace

StringApp::StringApp(const StringConfig &Config,
                     const xform::VersionSpace &Space)
    : App("string"), Config(Config) {
  // Real ray geometry: sources in the left well, receivers in the right
  // well, cells counted by the DDA traversal.
  Rng R(Config.Seed);
  Rays.reserve(Config.NumRays);
  for (uint32_t I = 0; I < Config.NumRays; ++I) {
    Ray Next;
    Next.SourceDepth = R.uniform(0.0, static_cast<double>(Config.GridH));
    Next.ReceiverDepth = R.uniform(0.0, static_cast<double>(Config.GridH));
    Next.Segments = ddaCellCount(Config.GridW, Config.GridH,
                                 Next.SourceDepth, Next.ReceiverDepth);
    TotalSegments += Next.Segments;
    Rays.push_back(Next);
  }

  buildProgram();
  finalize(Space);
  TraceBinding = std::make_unique<TraceBindingImpl>(
      Rays, this->Config, SegmentLoopId, TraceCostClass,
      BackprojectCostClass);
}

StringApp::~StringApp() = default;

void StringApp::buildProgram() {
  // class model { lock mutex; double vel, num, den; };  -- the shared
  // velocity model: vel is read-only within a sweep; num/den accumulate
  // the back-projected residuals.
  ClassDecl *Model = M.createClass("model");
  const unsigned Vel = Model->addField("vel");
  const unsigned Num = Model->addField("num");
  const unsigned Den = Model->addField("den");

  // class ray { lock mutex; double src, rcv; };
  ClassDecl *RayClass = M.createClass("ray");
  const unsigned Src = RayClass->addField("src");
  const unsigned Rcv = RayClass->addField("rcv");

  // void ray::trace(model *mdl)
  Method *Trace = M.createMethod("trace", RayClass);
  Trace->addParam(Param{"mdl", Model, /*IsArray=*/false});
  {
    MethodBuilder B(M, Trace);
    const Expr *VelRead = M.exprFieldRead(Receiver::param(0), Vel);
    const Expr *SrcRead = M.exprFieldRead(Receiver::thisObj(), Src);
    const Expr *RcvRead = M.exprFieldRead(Receiver::thisObj(), Rcv);
    // Trace the ray through the current velocity model (pure, expensive).
    TraceCostClass = B.compute({VelRead, SrcRead, RcvRead});
    BackprojectCostClass = M.nextCostClass();
    SegmentLoopId = B.beginLoop();
    // Per-cell residual contribution, then the two accumulations.
    B.computeWithClass(BackprojectCostClass, {VelRead});
    const Expr *Contribution =
        M.exprExternCall("contribution", {VelRead, SrcRead, RcvRead});
    const Expr *Weight = M.exprExternCall("weight", {SrcRead, RcvRead});
    B.update(Receiver::param(0), Num, BinOp::Add, Contribution);
    B.update(Receiver::param(0), Den, BinOp::Add, Weight);
    B.endLoop();
  }

  M.addSection(TraceSection, Trace);
}

rt::Schedule StringApp::schedule() const {
  rt::Schedule Sched;
  for (unsigned S = 0; S < Config.Sweeps; ++S) {
    Sched.push_back(rt::Phase::serial(Config.SerialPhaseNanos));
    Sched.push_back(rt::Phase::parallel(TraceSection));
  }
  return Sched;
}

const rt::DataBinding &StringApp::binding(const std::string &Section) const {
  assert(Section == TraceSection && "unknown section");
  (void)Section;
  return *TraceBinding;
}
