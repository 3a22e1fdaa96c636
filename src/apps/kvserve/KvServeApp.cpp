//===- apps/kvserve/KvServeApp.cpp ----------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/kvserve/KvServeApp.h"

#include "ir/Builder.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::apps::kvserve;
using namespace dynfb::ir;

void KvServeConfig::scale(double Factor) {
  RequestsPerWindow = std::max<uint32_t>(
      16, static_cast<uint32_t>(static_cast<double>(RequestsPerWindow) *
                                Factor));
  IngestPhaseNanos = static_cast<rt::Nanos>(
      static_cast<double>(IngestPhaseNanos) * Factor);
}

std::vector<uint32_t> kvserve::zipfKeys(uint32_t NumKeys, double Alpha,
                                        uint32_t Count, uint64_t Seed) {
  assert(NumKeys >= 1 && "empty key space");
  // Inverse-CDF sampling over the (finite) Zipf distribution: cumulative
  // popularity of key k is proportional to sum_{i<=k} 1/(i+1)^alpha.
  std::vector<double> Cdf(NumKeys);
  double Sum = 0;
  for (uint32_t K = 0; K < NumKeys; ++K) {
    Sum += 1.0 / std::pow(static_cast<double>(K + 1), Alpha);
    Cdf[K] = Sum;
  }
  for (double &C : Cdf)
    C /= Sum;

  Rng R(Seed);
  std::vector<uint32_t> Keys;
  Keys.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    const double U = R.nextDouble();
    const auto It = std::lower_bound(Cdf.begin(), Cdf.end(), U);
    Keys.push_back(static_cast<uint32_t>(
        std::min<size_t>(It - Cdf.begin(), NumKeys - 1)));
  }
  return Keys;
}

namespace {

/// SERVE binding: iteration r serves request r; lock objects are the
/// shards. Pure and identical across occurrences -- all traffic variation
/// rides on the perturbation schedule.
class ServeBindingImpl final : public rt::DataBinding {
public:
  ServeBindingImpl(const std::vector<Request> &Requests,
                   const KvServeConfig &Config, unsigned OpLoopId,
                   unsigned LookupCC, unsigned OpCC)
      : Requests(Requests), Config(Config), OpLoopId(OpLoopId),
        LookupCC(LookupCC), OpCC(OpCC) {}

  uint64_t iterationCount() const override { return Requests.size(); }
  uint32_t objectCount() const override { return Config.NumShards; }
  rt::ObjectId thisObject(uint64_t Iter) const override {
    return Requests[Iter].Shard;
  }
  std::vector<rt::ObjRef> sectionArgs(uint64_t Iter) const override {
    return {rt::ObjRef::single(Requests[Iter].Shard)};
  }
  rt::ObjectId elementOf(rt::ArrayId, uint64_t Iter,
                         const rt::LoopCtx &) const override {
    return Requests[Iter].Shard; // No object arrays in this section.
  }
  uint64_t tripCount(unsigned Loop, const rt::LoopCtx &Ctx) const override {
    assert(Loop == OpLoopId && "unexpected loop id");
    (void)Loop;
    return Requests[Ctx.Iter].Ops;
  }
  rt::Nanos computeNanos(unsigned CC, const rt::LoopCtx &Ctx) const override {
    const Request &Req = Requests[Ctx.Iter];
    // A touch of deterministic per-request jitter breaks the lockstep a
    // perfectly uniform stream would impose on the simulator.
    const double Jitter =
        jitterFactor(Config.Seed ^ (0x9e3779b97f4a7c15ULL * (Ctx.Iter + 1)),
                     0.10);
    if (CC == LookupCC)
      return static_cast<rt::Nanos>(static_cast<double>(Config.LookupNanos) *
                                    Req.Ops * Jitter);
    assert(CC == OpCC && "unexpected cost class");
    return static_cast<rt::Nanos>(static_cast<double>(Config.OpNanos) *
                                  Jitter);
  }
  // Pure function of the iteration over the request table built at
  // construction, so emitted ops are cacheable.
  int64_t iterationClass(uint64_t Iter) const override {
    return static_cast<int64_t>(Iter);
  }
  // Costs, jitter and the operation count depend on the request alone.
  bool readsLoopIndices() const override { return false; }

private:
  const std::vector<Request> &Requests;
  const KvServeConfig &Config;
  const unsigned OpLoopId;
  const unsigned LookupCC;
  const unsigned OpCC;
};

} // namespace

KvServeApp::KvServeApp(const KvServeConfig &Config,
                       const xform::VersionSpace &Space)
    : App("kvserve"), Config(Config) {
  // The per-window request stream: Zipfian keys, modulo-sharded, with a
  // geometric-ish operation count per request.
  const std::vector<uint32_t> Keys =
      zipfKeys(Config.NumKeys, Config.ZipfAlpha, Config.RequestsPerWindow,
               Config.Seed);
  Rng R(Config.Seed ^ 0xdecafbadULL);
  Requests.reserve(Keys.size());
  for (uint32_t Key : Keys) {
    Request Req;
    Req.Key = Key;
    Req.Shard = Key % std::max<uint32_t>(1, Config.NumShards);
    Req.Ops = 1;
    while (Req.Ops < 12 && R.nextDouble() < 0.6)
      ++Req.Ops;
    TotalOps += Req.Ops;
    Requests.push_back(Req);
  }

  buildProgram();
  finalize(Space);
  ServeBinding = std::make_unique<ServeBindingImpl>(
      Requests, this->Config, OpLoopId, LookupCostClass, OpCostClass);
}

KvServeApp::~KvServeApp() = default;

void KvServeApp::buildProgram() {
  // class shard { lock mutex; double table, hits, bytes; } -- one store
  // shard: table is read-only during serving; hits/bytes accumulate the
  // per-operation accounting.
  ClassDecl *Shard = M.createClass("shard");
  const unsigned Table = Shard->addField("table");
  const unsigned Hits = Shard->addField("hits");
  const unsigned Bytes = Shard->addField("bytes");

  // class request { lock mutex; double key, size; };
  ClassDecl *Req = M.createClass("request");
  const unsigned Key = Req->addField("key");
  const unsigned Size = Req->addField("size");

  // void request::serve(shard *shd)
  Method *Serve = M.createMethod("serve", Req);
  Serve->addParam(Param{"shd", Shard, /*IsArray=*/false});
  {
    MethodBuilder B(M, Serve);
    const Expr *TableRead = M.exprFieldRead(Receiver::param(0), Table);
    const Expr *KeyRead = M.exprFieldRead(Receiver::thisObj(), Key);
    const Expr *SizeRead = M.exprFieldRead(Receiver::thisObj(), Size);
    // Hash-probe the shard table for the key (pure, the bulk of the work).
    LookupCostClass = B.compute({TableRead, KeyRead});
    OpCostClass = M.nextCostClass();
    OpLoopId = B.beginLoop();
    // Per-operation response assembly, then the two shard-counter updates.
    B.computeWithClass(OpCostClass, {TableRead});
    const Expr *Hit = M.exprExternCall("hit", {TableRead, KeyRead});
    const Expr *Payload = M.exprExternCall("payload", {TableRead, SizeRead});
    B.update(Receiver::param(0), Hits, BinOp::Add, Hit);
    B.update(Receiver::param(0), Bytes, BinOp::Add, Payload);
    B.endLoop();
  }

  M.addSection(ServeSection, Serve);
}

rt::Schedule KvServeApp::schedule() const {
  rt::Schedule Sched;
  for (unsigned W = 0; W < Config.Windows; ++W) {
    Sched.push_back(rt::Phase::serial(Config.IngestPhaseNanos));
    Sched.push_back(rt::Phase::parallel(ServeSection));
  }
  return Sched;
}

const rt::DataBinding &KvServeApp::binding(const std::string &Section) const {
  assert(Section == ServeSection && "unknown section");
  (void)Section;
  return *ServeBinding;
}
