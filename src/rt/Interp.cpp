//===- rt/Interp.cpp ------------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Interp.h"

#include "support/Compiler.h"

#include <algorithm>
#include <cassert>

using namespace dynfb;
using namespace dynfb::ir;
using namespace dynfb::rt;

namespace {

void markUsedRecv(const Receiver &R, uint32_t &Mask) {
  switch (R.Kind) {
  case RecvKind::This:
    return;
  case RecvKind::Param:
  case RecvKind::ParamIndexed:
    Mask |= 1u << R.ParamIdx;
    return;
  }
}

uint32_t usedParamsOf(const Method *M);

void markUsedList(const std::vector<Stmt *> &List, uint32_t &Mask) {
  for (const Stmt *S : List) {
    switch (S->kind()) {
    case StmtKind::Compute:
    case StmtKind::Update:
      // Lowered without resolving any object: compute reads only the cost
      // class, updates fold into compute time.
      break;
    case StmtKind::Acquire:
      markUsedRecv(stmtCast<AcquireStmt>(S).Recv, Mask);
      break;
    case StmtKind::Release:
      markUsedRecv(stmtCast<ReleaseStmt>(S).Recv, Mask);
      break;
    case StmtKind::Call: {
      const auto &C = stmtCast<CallStmt>(S);
      markUsedRecv(C.Recv, Mask);
      // An argument matters only if the callee's lowering reads the
      // parameter it binds.
      const uint32_t CalleeMask = usedParamsOf(C.callee());
      size_t NextArg = 0;
      for (unsigned P = 0; P < C.callee()->params().size(); ++P) {
        if (!C.callee()->param(P).isObject())
          continue;
        assert(NextArg < C.ObjArgs.size() && "missing object argument");
        if (CalleeMask & (1u << P))
          markUsedRecv(C.ObjArgs[NextArg], Mask);
        ++NextArg;
      }
      break;
    }
    case StmtKind::Loop:
      markUsedList(stmtCast<LoopStmt>(S).Body, Mask);
      break;
    }
  }
}

/// The bitmask of \p M's parameters whose bound objects the lowering reads,
/// computed on demand and cached on the method (see Method docs). A
/// recursion cycle leaves the in-progress conservative all-used mask in
/// place for the inner query.
uint32_t usedParamsOf(const Method *M) {
  const uint32_t Cached = M->loweringUsedParams();
  if (Cached != Method::LoweringParamsUnknown)
    return Cached;
  M->setLoweringUsedParams(0x7fffffffu);
  uint32_t Mask = 0;
  markUsedList(M->body(), Mask);
  M->setLoweringUsedParams(Mask);
  return Mask;
}

bool pureComputeOf(const Method *M);

/// Does \p List lower to compute time only -- no lock operations emitted,
/// directly or through callees? Such a list needs no call frames and no
/// object resolution, so its trips can be folded into a running duration.
bool pureComputeList(const std::vector<Stmt *> &List) {
  for (const Stmt *S : List) {
    switch (S->kind()) {
    case StmtKind::Compute:
    case StmtKind::Update:
      break;
    case StmtKind::Acquire:
    case StmtKind::Release:
      return false;
    case StmtKind::Call:
      if (!pureComputeOf(stmtCast<CallStmt>(S).callee()))
        return false;
      break;
    case StmtKind::Loop:
      if (!pureComputeList(stmtCast<LoopStmt>(S).Body))
        return false;
      break;
    }
  }
  return true;
}

/// Cached method-level purity (see Method::loweringPureCompute). A
/// recursion cycle sees the in-progress conservative "not pure" state.
bool pureComputeOf(const Method *M) {
  const uint8_t Cached = M->loweringPureCompute();
  if (Cached)
    return Cached == 1;
  M->setLoweringPureCompute(2);
  const bool Pure = pureComputeList(M->body());
  M->setLoweringPureCompute(Pure ? 1 : 2);
  return Pure;
}

bool locksOnlyThisOf(const Method *M);

/// Does every lock operation \p List lowers to lock the frame's This, with
/// callees reached only through This-receiver calls (so their This is the
/// same object)?
bool locksOnlyThisList(const std::vector<Stmt *> &List) {
  for (const Stmt *S : List) {
    switch (S->kind()) {
    case StmtKind::Compute:
    case StmtKind::Update:
      break;
    case StmtKind::Acquire:
      if (stmtCast<AcquireStmt>(S).Recv.Kind != RecvKind::This)
        return false;
      break;
    case StmtKind::Release:
      if (stmtCast<ReleaseStmt>(S).Recv.Kind != RecvKind::This)
        return false;
      break;
    case StmtKind::Call: {
      const auto &C = stmtCast<CallStmt>(S);
      if (pureComputeOf(C.callee()))
        break;
      if (C.Recv.Kind != RecvKind::This || !locksOnlyThisOf(C.callee()))
        return false;
      break;
    }
    case StmtKind::Loop:
      if (!locksOnlyThisList(stmtCast<LoopStmt>(S).Body))
        return false;
      break;
    }
  }
  return true;
}

/// Cached (see Method::loweringLocksOnlyThis). A recursion cycle sees the
/// in-progress conservative "no".
bool locksOnlyThisOf(const Method *M) {
  const uint8_t Cached = M->loweringLocksOnlyThis();
  if (Cached)
    return Cached == 1;
  M->setLoweringLocksOnlyThis(2);
  const bool Only = locksOnlyThisList(M->body());
  M->setLoweringLocksOnlyThis(Only ? 1 : 2);
  return Only;
}

bool resolvesIndexedOf(const Method *M);

/// Does lowering \p List resolve an indexed receiver -- as a lock operand,
/// a call receiver, an argument the callee reads, or inside a callee? Only
/// such a resolution calls DataBinding::elementOf, which may read any
/// active loop index.
bool resolvesIndexedList(const std::vector<Stmt *> &List) {
  for (const Stmt *S : List) {
    switch (S->kind()) {
    case StmtKind::Compute:
    case StmtKind::Update:
      break;
    case StmtKind::Acquire:
      if (stmtCast<AcquireStmt>(S).Recv.Kind == RecvKind::ParamIndexed)
        return true;
      break;
    case StmtKind::Release:
      if (stmtCast<ReleaseStmt>(S).Recv.Kind == RecvKind::ParamIndexed)
        return true;
      break;
    case StmtKind::Call: {
      const auto &C = stmtCast<CallStmt>(S);
      const Method *Callee = C.callee();
      // A pure-compute callee is summed without resolving anything.
      if (pureComputeOf(Callee))
        break;
      if (C.Recv.Kind == RecvKind::ParamIndexed || resolvesIndexedOf(Callee))
        return true;
      const uint32_t CalleeUsed = usedParamsOf(Callee);
      size_t NextArg = 0;
      for (unsigned P = 0; P < Callee->params().size(); ++P) {
        if (!Callee->param(P).isObject())
          continue;
        if ((CalleeUsed & (1u << P)) &&
            C.ObjArgs[NextArg].Kind == RecvKind::ParamIndexed)
          return true;
        ++NextArg;
      }
      break;
    }
    case StmtKind::Loop:
      if (resolvesIndexedList(stmtCast<LoopStmt>(S).Body))
        return true;
      break;
    }
  }
  return false;
}

/// Cached (see Method::loweringResolvesIndexed). A recursion cycle sees the
/// in-progress conservative "yes".
bool resolvesIndexedOf(const Method *M) {
  const uint8_t Cached = M->loweringResolvesIndexed();
  if (Cached)
    return Cached == 1;
  M->setLoweringResolvesIndexed(1);
  const bool Resolves = resolvesIndexedList(M->body());
  M->setLoweringResolvesIndexed(Resolves ? 1 : 2);
  return Resolves;
}

} // namespace

bool rt::locksOnlyThis(const Method *Entry) {
  return !pureComputeOf(Entry) && locksOnlyThisOf(Entry);
}

bool rt::thisObjectInjective(const DataBinding &B) {
  std::vector<bool> Seen(B.objectCount(), false);
  for (uint64_t Iter = 0, N = B.iterationCount(); Iter < N; ++Iter) {
    const ObjectId O = B.thisObject(Iter);
    if (O >= Seen.size() || Seen[O])
      return false;
    Seen[O] = true;
  }
  return true;
}

IterationEmitter::IterationEmitter(const Method *Entry,
                                   const DataBinding &Binding,
                                   const CostModel &Costs,
                                   std::optional<bool> ThisInjective)
    : Entry(Entry), Binding(Binding), Costs(Costs),
      FoldLoops(!Binding.readsLoopIndices()),
      PrivateLocks(locksOnlyThis(Entry) &&
                   (ThisInjective ? *ThisInjective
                                  : thisObjectInjective(Binding))) {
  assert(Entry && "emitter needs an entry method");
}

void IterationEmitter::pushCompute(std::vector<MicroOp> &Out, Nanos Dur) {
  if (Dur <= 0)
    return;
  if (!Out.empty() && Out.back().K == MicroOp::Kind::Compute) {
    Out.back().Dur += Dur;
    return;
  }
  Out.push_back(MicroOp::compute(Dur));
}

ObjRef IterationEmitter::resolveRef(const Receiver &R, const Method *M,
                                    const Frame &F, const LoopCtx &Ctx) const {
  (void)M;
  switch (R.Kind) {
  case RecvKind::This:
    return ObjRef::single(F.This);
  case RecvKind::Param: {
    assert(R.ParamIdx < F.Params.size() && "unbound parameter");
    return F.Params[R.ParamIdx];
  }
  case RecvKind::ParamIndexed: {
    assert(R.ParamIdx < F.Params.size() && "unbound parameter");
    const ObjRef &Arr = F.Params[R.ParamIdx];
    assert(Arr.IsArray && "indexed receiver over non-array binding");
    return ObjRef::single(
        Binding.elementOf(Arr.Id, Ctx.indexOf(R.LoopId), Ctx));
  }
  }
  DYNFB_UNREACHABLE("invalid receiver kind");
}

ObjectId IterationEmitter::resolveObject(const Receiver &R, const Method *M,
                                         const Frame &F,
                                         const LoopCtx &Ctx) const {
  const ObjRef Ref = resolveRef(R, M, F, Ctx);
  assert(!Ref.IsArray && "expected a single object, found an array");
  return Ref.Id;
}

Nanos IterationEmitter::sumComputeList(const std::vector<Stmt *> &List,
                                       LoopCtx &Ctx) const {
  Nanos Sum = 0;
  for (const Stmt *S : List) {
    switch (S->kind()) {
    case StmtKind::Compute: {
      const Nanos D =
          Binding.computeNanos(stmtCast<ComputeStmt>(S).CostClass, Ctx);
      if (D > 0)
        Sum += D;
      break;
    }
    case StmtKind::Update:
      if (Costs.UpdateNanos > 0)
        Sum += Costs.UpdateNanos;
      break;
    case StmtKind::Call:
      // Pure-compute callees never read their receiver or parameters, so
      // no frame is built.
      Sum += sumComputeList(stmtCast<CallStmt>(S).callee()->body(), Ctx);
      break;
    case StmtKind::Loop:
      Sum += sumComputeLoop(stmtCast<LoopStmt>(S), Ctx);
      break;
    case StmtKind::Acquire:
    case StmtKind::Release:
      DYNFB_UNREACHABLE("lock operation in a pure-compute list");
    }
  }
  return Sum;
}

Nanos IterationEmitter::sumComputeLoop(const LoopStmt &L, LoopCtx &Ctx) const {
  const uint64_t Trip = Binding.tripCount(L.LoopId, Ctx);
  Ctx.Loops.emplace_back(L.LoopId, 0);
  Nanos Sum = 0;
  if (FoldLoops) {
    // The binding's costs ignore the loop index, so every trip costs what
    // the first does (nested loops fold in turn and multiply).
    if (Trip > 0) {
      const Nanos Body = sumComputeList(L.Body, Ctx);
#ifndef NDEBUG
      if (Trip > 1) {
        Ctx.Loops.back().second = Trip - 1;
        assert(sumComputeList(L.Body, Ctx) == Body &&
               "binding declared loop-index-free reads the loop index");
      }
#endif
      Sum = static_cast<Nanos>(Trip) * Body;
    }
  } else {
    for (uint64_t I = 0; I < Trip; ++I) {
      Ctx.Loops.back().second = I;
      Sum += sumComputeList(L.Body, Ctx);
    }
  }
  Ctx.Loops.pop_back();
  return Sum;
}

void IterationEmitter::runList(const Method *M,
                               const std::vector<Stmt *> &List,
                               const Frame &F, LoopCtx &Ctx,
                               std::vector<MicroOp> &Out) const {
  for (const Stmt *S : List) {
    switch (S->kind()) {
    case StmtKind::Compute:
      pushCompute(Out,
                  Binding.computeNanos(stmtCast<ComputeStmt>(S).CostClass,
                                       Ctx));
      break;
    case StmtKind::Update:
      pushCompute(Out, Costs.UpdateNanos);
      break;
    case StmtKind::Acquire:
      Out.push_back(MicroOp::acquire(
          resolveObject(stmtCast<AcquireStmt>(S).Recv, M, F, Ctx),
          PrivateLocks));
      break;
    case StmtKind::Release:
      Out.push_back(MicroOp::release(
          resolveObject(stmtCast<ReleaseStmt>(S).Recv, M, F, Ctx),
          PrivateLocks));
      break;
    case StmtKind::Call: {
      const auto &C = stmtCast<CallStmt>(S);
      const Method *Callee = C.callee();
      if (pureComputeOf(Callee)) {
        pushCompute(Out, sumComputeList(Callee->body(), Ctx));
        break;
      }
      const uint32_t CalleeUsed = usedParamsOf(Callee);
      Frame CalleeFrame;
      CalleeFrame.This = resolveObject(C.Recv, M, F, Ctx);
      CalleeFrame.Params.resize(Callee->params().size());
      size_t NextArg = 0;
      for (unsigned P = 0; P < Callee->params().size(); ++P) {
        if (!Callee->param(P).isObject())
          continue;
        assert(NextArg < C.ObjArgs.size() && "missing object argument");
        // Bind only parameters the callee's lowering reads; resolving the
        // rest (a binding query per loop trip on the hot path) is dead work.
        if (CalleeUsed & (1u << P))
          CalleeFrame.Params[P] = resolveRef(C.ObjArgs[NextArg], M, F, Ctx);
        ++NextArg;
      }
      runMethod(Callee, CalleeFrame, Ctx, Out);
      break;
    }
    case StmtKind::Loop: {
      const auto &L = stmtCast<LoopStmt>(S);
      if (pureComputeList(L.Body)) {
        // Compute-only body: fold every trip into one duration instead of
        // building a frame and merging op-by-op per trip. The merged output
        // is identical because adjacent computes coalesce.
        pushCompute(Out, sumComputeLoop(L, Ctx));
        break;
      }
      const uint64_t Trip = Binding.tripCount(L.LoopId, Ctx);
      Ctx.Loops.emplace_back(L.LoopId, 0);
      if (FoldLoops && Trip > 1 && !resolvesIndexedList(L.Body)) {
        runReplicatedLoop(M, L, F, Ctx, Trip, Out);
      } else {
        for (uint64_t I = 0; I < Trip; ++I) {
          Ctx.Loops.back().second = I;
          runList(M, L.Body, F, Ctx, Out);
        }
      }
      Ctx.Loops.pop_back();
      break;
    }
    }
  }
}

void IterationEmitter::runReplicatedLoop(const Method *M, const LoopStmt &L,
                                         const Frame &F, LoopCtx &Ctx,
                                         uint64_t Trip,
                                         std::vector<MicroOp> &Out) const {
  std::vector<MicroOp> Body;
  runList(M, L.Body, F, Ctx, Body);
#ifndef NDEBUG
  std::vector<MicroOp> Last;
  Ctx.Loops.back().second = Trip - 1;
  runList(M, L.Body, F, Ctx, Last);
  assert(Last == Body && "replicated loop body differs from its last trip: "
                         "binding declared loop-index-free reads the index");
#endif
  if (Body.empty())
    return;
  // Body holds merged ops, so only its leading compute can meet a compute
  // (the previous trip's tail, or what preceded the loop) and merge.
  const bool LeadsWithCompute = Body.front().K == MicroOp::Kind::Compute;
  const size_t Need = Out.size() + Trip * Body.size();
  if (Out.capacity() < Need)
    Out.reserve(std::max(Need, 2 * Out.capacity()));
  for (uint64_t I = 0; I < Trip; ++I) {
    if (LeadsWithCompute)
      pushCompute(Out, Body.front().Dur);
    Out.insert(Out.end(), Body.begin() + (LeadsWithCompute ? 1 : 0),
               Body.end());
  }
}

void IterationEmitter::runMethod(const Method *M, const Frame &F, LoopCtx &Ctx,
                                 std::vector<MicroOp> &Out) const {
  runList(M, M->body(), F, Ctx, Out);
}

void IterationEmitter::emit(uint64_t Iter, std::vector<MicroOp> &Out) const {
  Out.clear();
  Frame Top;
  Top.This = Binding.thisObject(Iter);
  Top.Params.resize(Entry->params().size());
  if (const uint32_t EntryUsed = usedParamsOf(Entry)) {
    const std::vector<ObjRef> Args = Binding.sectionArgs(Iter);
    size_t NextArg = 0;
    for (unsigned P = 0; P < Entry->params().size(); ++P) {
      if (!Entry->param(P).isObject())
        continue;
      assert(NextArg < Args.size() && "binding supplies too few section args");
      if (EntryUsed & (1u << P))
        Top.Params[P] = Args[NextArg];
      ++NextArg;
    }
  }
  LoopCtx Ctx;
  Ctx.Iter = Iter;
  runMethod(Entry, Top, Ctx, Out);
}

const std::vector<MicroOp> &
IterationEmitter::ops(uint64_t Iter, std::vector<MicroOp> &Scratch) const {
  const int64_t Class = Cache ? Binding.iterationClass(Iter) : -1;
  if (Class < 0) {
    emit(Iter, Scratch);
    return Scratch;
  }
  const size_t Key = static_cast<size_t>(Class);
  if (fillSlot(Iter, Key))
    return Cache->Seqs[Key];
#ifndef NDEBUG
  // A cache hit must match a live emit exactly: a binding whose iterations
  // drift while claiming a stable iterationClass corrupts the simulation.
  emit(Iter, Scratch);
  assert(Scratch == Cache->Seqs[Key] && "stale ops cache");
#endif
  return Cache->Seqs[Key];
}

bool IterationEmitter::fillSlot(uint64_t Iter, size_t Key) const {
  if (Key >= Cache->Seqs.size()) {
    const size_t NewSize =
        std::max<size_t>(Key + 1, Binding.iterationCount());
    Cache->Seqs.resize(NewSize);
    Cache->Filled.resize(NewSize, 0);
  }
  if (Cache->Filled[Key])
    return false;
  std::vector<MicroOp> &Seq = Cache->Seqs[Key];
  emit(Iter, Seq);
  // Emission grows the vector geometrically; the slot is read-only from
  // here on, so keep none of the slack.
  Seq.shrink_to_fit();
  Cache->Filled[Key] = 1;
  return true;
}

void IterationEmitter::fillCache() const {
  if (!Cache)
    return;
  for (uint64_t Iter = 0, N = Binding.iterationCount(); Iter < N; ++Iter) {
    const int64_t Class = Binding.iterationClass(Iter);
    if (Class >= 0)
      fillSlot(Iter, static_cast<size_t>(Class));
  }
}

uint64_t IterationEmitter::countPairs(uint64_t Iter) const {
  std::vector<MicroOp> Ops;
  emit(Iter, Ops);
  uint64_t Pairs = 0;
  for (const MicroOp &Op : Ops)
    if (Op.K == MicroOp::Kind::Acquire)
      ++Pairs;
  return Pairs;
}

Nanos IterationEmitter::computeTime(uint64_t Iter) const {
  std::vector<MicroOp> Ops;
  emit(Iter, Ops);
  Nanos Total = 0;
  for (const MicroOp &Op : Ops)
    if (Op.K == MicroOp::Kind::Compute)
      Total += Op.Dur;
  return Total;
}
