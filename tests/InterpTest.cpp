//===- tests/InterpTest.cpp - Unit tests for IR lowering -------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "rt/Interp.h"

#include <gtest/gtest.h>

using namespace dynfb;
using namespace dynfb::ir;
using namespace dynfb::rt;

namespace {

/// Minimal binding over a fixed object universe.
class TestBinding final : public DataBinding {
public:
  uint64_t Iterations = 4;
  uint32_t Objects = 8;
  uint64_t Trip = 3;
  /// Per-loop trip counts by loop id; loops past its end use Trip.
  std::vector<uint64_t> TripByLoop;
  Nanos ComputeCost = 1000;
  bool Cacheable = false; ///< Advertise stable per-iteration sequences.
  bool IndexFree = false; ///< Declare that no cost reads a loop index.
  bool CostReadsIndex = false; ///< Add the innermost loop index to costs.

  uint64_t iterationCount() const override { return Iterations; }
  uint32_t objectCount() const override { return Objects; }
  ObjectId thisObject(uint64_t Iter) const override {
    return static_cast<ObjectId>(Iter % Objects);
  }
  std::vector<ObjRef> sectionArgs(uint64_t) const override { return Args; }
  ObjectId elementOf(ArrayId, uint64_t Index,
                     const LoopCtx &Ctx) const override {
    ++ElementOfCalls;
    return static_cast<ObjectId>((Ctx.Iter + 1 + Index) % Objects);
  }
  uint64_t tripCount(unsigned LoopId, const LoopCtx &) const override {
    return LoopId < TripByLoop.size() ? TripByLoop[LoopId] : Trip;
  }
  Nanos computeNanos(unsigned, const LoopCtx &Ctx) const override {
    ++ComputeCalls;
    if (CostReadsIndex && !Ctx.Loops.empty())
      return ComputeCost + static_cast<Nanos>(Ctx.Loops.back().second);
    return ComputeCost;
  }
  int64_t iterationClass(uint64_t Iter) const override {
    return Cacheable ? static_cast<int64_t>(Iter) : -1;
  }
  bool readsLoopIndices() const override { return !IndexFree; }

  std::vector<ObjRef> Args;
  mutable uint64_t ElementOfCalls = 0;
  mutable uint64_t ComputeCalls = 0;
};

TEST(InterpTest, EmitsExplicitRegionOps) {
  Module M("m");
  ClassDecl *C = M.createClass("c");
  const unsigned F = C->addField("f");
  Method *Entry = M.createMethod("e", C);
  {
    MethodBuilder B(M, Entry);
    B.compute();
    B.acquire(Receiver::thisObj());
    B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::thisObj());
  }

  TestBinding Binding;
  CostModel CM;
  IterationEmitter E(Entry, Binding, CM);
  std::vector<MicroOp> Ops;
  E.emit(2, Ops);
  ASSERT_EQ(Ops.size(), 4u);
  EXPECT_EQ(Ops[0].K, MicroOp::Kind::Compute);
  EXPECT_EQ(Ops[0].Dur, Binding.ComputeCost);
  EXPECT_EQ(Ops[1].K, MicroOp::Kind::Acquire);
  EXPECT_EQ(Ops[1].Obj, 2u); // thisObject(2)
  EXPECT_EQ(Ops[2].K, MicroOp::Kind::Compute);
  EXPECT_EQ(Ops[2].Dur, CM.UpdateNanos);
  EXPECT_EQ(Ops[3].K, MicroOp::Kind::Release);
}

TEST(InterpTest, MergesAdjacentComputes) {
  Module M("m");
  ClassDecl *C = M.createClass("c");
  const unsigned F = C->addField("f");
  Method *Entry = M.createMethod("e", C);
  {
    MethodBuilder B(M, Entry);
    B.compute();
    B.compute();
    B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
  }
  TestBinding Binding;
  CostModel CM;
  IterationEmitter E(Entry, Binding, CM);
  std::vector<MicroOp> Ops;
  E.emit(0, Ops);
  // Two computes + the naked update all merge into one compute op.
  ASSERT_EQ(Ops.size(), 1u);
  EXPECT_EQ(Ops[0].Dur, 2 * Binding.ComputeCost + CM.UpdateNanos);
}

TEST(InterpTest, LoopsUnrollWithTripCount) {
  Module M("m");
  ClassDecl *C = M.createClass("c");
  Method *Entry = M.createMethod("e", C);
  {
    MethodBuilder B(M, Entry);
    B.beginLoop();
    B.acquire(Receiver::thisObj());
    B.release(Receiver::thisObj());
    B.endLoop();
  }
  TestBinding Binding;
  Binding.Trip = 5;
  IterationEmitter E(Entry, Binding, CostModel{});
  EXPECT_EQ(E.countPairs(0), 5u);
}

TEST(InterpTest, ParamIndexedResolvesThroughBinding) {
  // Lock object varies with loop index: acquire(m[i]).
  Module M("m");
  ClassDecl *C = M.createClass("c");
  const unsigned F = C->addField("f");
  Method *Entry = M.createMethod("e", C);
  Entry->addParam(Param{"m", C, true});
  unsigned LoopId;
  {
    MethodBuilder B(M, Entry);
    LoopId = B.beginLoop();
    B.acquire(Receiver::paramIndexed(0, LoopId));
    B.update(Receiver::paramIndexed(0, LoopId), F, BinOp::Add,
             M.exprConst(1.0));
    B.release(Receiver::paramIndexed(0, LoopId));
    B.endLoop();
  }
  TestBinding Binding;
  Binding.Trip = 3;
  Binding.Args = {ObjRef::array(0)};
  IterationEmitter E(Entry, Binding, CostModel{});
  std::vector<MicroOp> Ops;
  E.emit(1, Ops); // Iter = 1: partners (1+1+idx)%8 = 2, 3, 4.
  std::vector<ObjectId> Acquired;
  for (const MicroOp &Op : Ops)
    if (Op.K == MicroOp::Kind::Acquire)
      Acquired.push_back(Op.Obj);
  ASSERT_EQ(Acquired.size(), 3u);
  EXPECT_EQ(Acquired[0], 2u);
  EXPECT_EQ(Acquired[1], 3u);
  EXPECT_EQ(Acquired[2], 4u);
}

TEST(InterpTest, CallFramesBindObjectArguments) {
  // caller: loop { call this->callee(m[i]) }; callee acquires its param.
  Module M("m");
  ClassDecl *C = M.createClass("c");
  const unsigned F = C->addField("f");
  Method *Callee = M.createMethod("callee", C);
  Callee->addParam(Param{"x", C, false});
  {
    MethodBuilder B(M, Callee);
    B.acquire(Receiver::param(0));
    B.update(Receiver::param(0), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::param(0));
  }
  Method *Caller = M.createMethod("caller", C);
  Caller->addParam(Param{"m", C, true});
  {
    MethodBuilder B(M, Caller);
    const unsigned L = B.beginLoop();
    B.call(Callee, Receiver::thisObj(), {Receiver::paramIndexed(0, L)});
    B.endLoop();
  }
  TestBinding Binding;
  Binding.Trip = 2;
  Binding.Args = {ObjRef::array(0)};
  IterationEmitter E(Caller, Binding, CostModel{});
  std::vector<MicroOp> Ops;
  E.emit(0, Ops); // partners 1, 2.
  std::vector<ObjectId> Acquired;
  for (const MicroOp &Op : Ops)
    if (Op.K == MicroOp::Kind::Acquire)
      Acquired.push_back(Op.Obj);
  ASSERT_EQ(Acquired.size(), 2u);
  EXPECT_EQ(Acquired[0], 1u);
  EXPECT_EQ(Acquired[1], 2u);
}

TEST(InterpTest, ComputeTimeExcludesLockOps) {
  Module M("m");
  ClassDecl *C = M.createClass("c");
  const unsigned F = C->addField("f");
  Method *Entry = M.createMethod("e", C);
  {
    MethodBuilder B(M, Entry);
    B.compute();
    B.acquire(Receiver::thisObj());
    B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::thisObj());
  }
  TestBinding Binding;
  CostModel CM;
  IterationEmitter E(Entry, Binding, CM);
  EXPECT_EQ(E.computeTime(0), Binding.ComputeCost + CM.UpdateNanos);
  EXPECT_EQ(E.countPairs(0), 1u);
}

/// Entry method whose iteration is: acquire(this); loop { call
/// one_interaction(m[i]) with a compute+update body }; release(this) -- the
/// shape of a coarse-grained generated version, whose loop body lowers to
/// pure compute.
struct CoarseLoopWorkload {
  Module M{"m"};
  Method *Entry = nullptr;

  CoarseLoopWorkload() {
    ClassDecl *C = M.createClass("c");
    const unsigned F = C->addField("f");
    Method *Callee = M.createMethod("one", C);
    Callee->addParam(Param{"x", C, false});
    {
      MethodBuilder B(M, Callee);
      B.compute();
      B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
    }
    Entry = M.createMethod("e", C);
    Entry->addParam(Param{"m", C, true});
    MethodBuilder B(M, Entry);
    B.acquire(Receiver::thisObj());
    const unsigned L = B.beginLoop();
    B.call(Callee, Receiver::thisObj(), {Receiver::paramIndexed(0, L)});
    B.endLoop();
    B.release(Receiver::thisObj());
  }
};

TEST(InterpTest, PureComputeLoopFoldsToOneMergedOp) {
  // The pure-compute fast path folds every trip of the loop into a single
  // merged compute op: acquire, one compute of Trip * (compute + update),
  // release.
  CoarseLoopWorkload W;
  TestBinding Binding;
  Binding.Trip = 5;
  Binding.Args = {ObjRef::array(0)};
  CostModel CM;
  IterationEmitter E(W.Entry, Binding, CM);
  std::vector<MicroOp> Ops;
  E.emit(2, Ops);
  ASSERT_EQ(Ops.size(), 3u);
  EXPECT_EQ(Ops[0].K, MicroOp::Kind::Acquire);
  EXPECT_EQ(Ops[1].K, MicroOp::Kind::Compute);
  EXPECT_EQ(Ops[1].Dur,
            static_cast<Nanos>(Binding.Trip) *
                (Binding.ComputeCost + CM.UpdateNanos));
  EXPECT_EQ(Ops[2].K, MicroOp::Kind::Release);
}

TEST(InterpTest, UnreadArgumentsAreNotResolved) {
  // The callee's lowering never reads its object parameter, so the
  // emitter skips resolving it -- the binding's elementOf must not be
  // queried on the per-trip hot path.
  CoarseLoopWorkload W;
  TestBinding Binding;
  Binding.Trip = 7;
  Binding.Args = {ObjRef::array(0)};
  IterationEmitter E(W.Entry, Binding, CostModel{});
  std::vector<MicroOp> Ops;
  E.emit(0, Ops);
  EXPECT_EQ(Binding.ElementOfCalls, 0u);
  EXPECT_EQ(E.countPairs(0), 1u);
}

TEST(InterpTest, OpsCacheReturnsStableMemoizedSequences) {
  CoarseLoopWorkload W;
  TestBinding Binding;
  Binding.Cacheable = true;
  Binding.Args = {ObjRef::array(0)};
  IterationEmitter E(W.Entry, Binding, CostModel{});

  std::vector<MicroOp> Live;
  E.emit(1, Live);

  EmittedOpsCache Cache;
  E.attachCache(&Cache);
  std::vector<MicroOp> Scratch;
  const std::vector<MicroOp> &FirstRef = E.ops(1, Scratch);
  EXPECT_EQ(FirstRef, Live);
  // A repeat returns the same memoized storage, not Scratch.
  const std::vector<MicroOp> &SecondRef = E.ops(1, Scratch);
  EXPECT_EQ(&FirstRef, &SecondRef);
  EXPECT_NE(&SecondRef, &Scratch);

  // Detached again (or an uncacheable binding), ops falls back to live
  // interpretation into Scratch.
  E.attachCache(nullptr);
  const std::vector<MicroOp> &LiveRef = E.ops(1, Scratch);
  EXPECT_EQ(&LiveRef, &Scratch);
  EXPECT_EQ(LiveRef, Live);
}

TEST(InterpTest, UncacheableIterationsBypassTheCache) {
  CoarseLoopWorkload W;
  TestBinding Binding; // Default iterationClass: -1, never memoized.
  Binding.Args = {ObjRef::array(0)};
  IterationEmitter E(W.Entry, Binding, CostModel{});
  EmittedOpsCache Cache;
  E.attachCache(&Cache);
  std::vector<MicroOp> Scratch;
  const std::vector<MicroOp> &R1 = E.ops(0, Scratch);
  EXPECT_EQ(&R1, &Scratch);
  const std::vector<MicroOp> &R2 = E.ops(0, Scratch);
  EXPECT_EQ(&R2, &Scratch);
}

/// acquire(this); loop { loop { compute } }; release(this): two nested
/// pure-compute loops inside a locked region.
struct NestedLoopWorkload {
  Module M{"m"};
  Method *Entry = nullptr;
  unsigned Outer = 0, Inner = 0;

  NestedLoopWorkload() {
    ClassDecl *C = M.createClass("c");
    Entry = M.createMethod("e", C);
    MethodBuilder B(M, Entry);
    B.acquire(Receiver::thisObj());
    Outer = B.beginLoop();
    Inner = B.beginLoop();
    B.compute();
    B.endLoop();
    B.endLoop();
    B.release(Receiver::thisObj());
  }
};

TEST(InterpTest, NestedIndexFreeLoopsFoldInConstantTime) {
  NestedLoopWorkload W;
  TestBinding Binding;
  Binding.IndexFree = true;
  Binding.TripByLoop.assign(std::max(W.Outer, W.Inner) + 1, 0);
  Binding.TripByLoop[W.Outer] = 50;
  Binding.TripByLoop[W.Inner] = 40;
  IterationEmitter E(W.Entry, Binding, CostModel{});
  std::vector<MicroOp> Ops;
  E.emit(0, Ops);
  ASSERT_EQ(Ops.size(), 3u);
  EXPECT_EQ(Ops[0].K, MicroOp::Kind::Acquire);
  EXPECT_EQ(Ops[1].K, MicroOp::Kind::Compute);
  EXPECT_EQ(Ops[1].Dur, 50 * 40 * Binding.ComputeCost);
  EXPECT_EQ(Ops[2].K, MicroOp::Kind::Release);
  // One trip per loop level, plus the last-trip check in builds with
  // assertions: at most 2 x 2 cost queries, not 50 x 40.
  EXPECT_LE(Binding.ComputeCalls, 4u);

  // The same program walked trip by trip gives the same ops.
  TestBinding Walked = Binding;
  Walked.IndexFree = false;
  Walked.ComputeCalls = 0;
  IterationEmitter WE(W.Entry, Walked, CostModel{});
  std::vector<MicroOp> WalkedOps;
  WE.emit(0, WalkedOps);
  EXPECT_EQ(Ops, WalkedOps);
  EXPECT_EQ(Walked.ComputeCalls, 50u * 40u);
}

// ------------------------ Iteration-private locks -------------------------

/// compute; acquire(this); update; release(this).
struct ThisLockWorkload {
  Module M{"m"};
  Method *Entry = nullptr;

  ThisLockWorkload() {
    ClassDecl *C = M.createClass("c");
    const unsigned F = C->addField("f");
    Entry = M.createMethod("e", C);
    MethodBuilder B(M, Entry);
    B.compute();
    B.acquire(Receiver::thisObj());
    B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::thisObj());
  }
};

/// The lock operations' privacy flags of iteration \p Iter.
std::vector<bool> lockPrivacy(const IterationEmitter &E, uint64_t Iter) {
  std::vector<MicroOp> Ops;
  E.emit(Iter, Ops);
  std::vector<bool> Out;
  for (const MicroOp &Op : Ops)
    if (Op.K != MicroOp::Kind::Compute)
      Out.push_back(Op.Private);
  return Out;
}

TEST(LockPrivacyTest, ThisLocksOverAnInjectiveThisArePrivate) {
  ThisLockWorkload W;
  TestBinding Binding; // thisObject = Iter % 8 over 4 iterations.
  EXPECT_TRUE(locksOnlyThis(W.Entry));
  EXPECT_TRUE(thisObjectInjective(Binding));
  const IterationEmitter E(W.Entry, Binding, CostModel{});
  EXPECT_TRUE(E.privateLocks());
  EXPECT_EQ(lockPrivacy(E, 1), (std::vector<bool>{true, true}));
}

TEST(LockPrivacyTest, NonInjectiveThisIsShared) {
  ThisLockWorkload W;
  TestBinding Binding;
  Binding.Iterations = 12; // Iterations 0 and 8 both lock object 0.
  EXPECT_FALSE(thisObjectInjective(Binding));
  const IterationEmitter E(W.Entry, Binding, CostModel{});
  EXPECT_FALSE(E.privateLocks());
  EXPECT_EQ(lockPrivacy(E, 8), (std::vector<bool>{false, false}));
  // A caller that already checked the binding passes the answer in.
  EXPECT_TRUE(IterationEmitter(W.Entry, Binding, CostModel{}, true)
                  .privateLocks());
  // An object outside [0, objectCount()) makes no claim either.
  Binding.Iterations = 4;
  Binding.Objects = 2;
  EXPECT_FALSE(thisObjectInjective(Binding));
}

TEST(LockPrivacyTest, ParamAndIndexedReceiversAreShared) {
  Module M("m");
  ClassDecl *C = M.createClass("c");
  const unsigned F = C->addField("f");
  // acquire(p); update; release(p) on an object parameter.
  Method *OnParam = M.createMethod("on_param", C);
  OnParam->addParam(Param{"p", C, false});
  {
    MethodBuilder B(M, OnParam);
    B.acquire(Receiver::param(0));
    B.update(Receiver::param(0), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::param(0));
  }
  // loop { acquire(m[i]); update; release(m[i]) }.
  Method *OnIndexed = M.createMethod("on_indexed", C);
  OnIndexed->addParam(Param{"m", C, true});
  {
    MethodBuilder B(M, OnIndexed);
    const unsigned L = B.beginLoop();
    B.acquire(Receiver::paramIndexed(0, L));
    B.update(Receiver::paramIndexed(0, L), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::paramIndexed(0, L));
    B.endLoop();
  }
  // A This-locking callee reached through a call on a parameter locks the
  // parameter's object, not the iteration's.
  Method *ThisLocker = M.createMethod("this_locker", C);
  {
    MethodBuilder B(M, ThisLocker);
    B.acquire(Receiver::thisObj());
    B.update(Receiver::thisObj(), F, BinOp::Add, M.exprConst(1.0));
    B.release(Receiver::thisObj());
  }
  Method *ViaParam = M.createMethod("via_param", C);
  ViaParam->addParam(Param{"p", C, false});
  {
    MethodBuilder B(M, ViaParam);
    B.call(ThisLocker, Receiver::param(0), {});
  }
  Method *ViaThis = M.createMethod("via_this", C);
  {
    MethodBuilder B(M, ViaThis);
    B.call(ThisLocker, Receiver::thisObj(), {});
  }
  // No locks at all: nothing to make private.
  Method *LockFree = M.createMethod("lock_free", C);
  {
    MethodBuilder B(M, LockFree);
    B.compute();
  }

  TestBinding Binding;
  Binding.Args = {ObjRef::single(5)};
  for (const Method *Shared : {OnParam, ViaParam, LockFree}) {
    EXPECT_FALSE(locksOnlyThis(Shared)) << Shared->name();
    EXPECT_FALSE(IterationEmitter(Shared, Binding, CostModel{}).privateLocks())
        << Shared->name();
  }
  EXPECT_TRUE(locksOnlyThis(ViaThis));
  EXPECT_TRUE(IterationEmitter(ViaThis, Binding, CostModel{}).privateLocks());
  Binding.Args = {ObjRef::array(0)};
  EXPECT_FALSE(locksOnlyThis(OnIndexed));
  const IterationEmitter E(OnIndexed, Binding, CostModel{});
  EXPECT_FALSE(E.privateLocks());
  EXPECT_EQ(lockPrivacy(E, 0), std::vector<bool>(6, false));
}

// ------------------------ Locking-loop replication -------------------------

/// compute; loop { compute; acquire(this); update; release(this); compute }:
/// a locking loop whose trips meet at computes, after a compute.
struct LockingLoopWorkload {
  Module M{"m"};
  Method *Entry = nullptr;

  explicit LockingLoopWorkload(bool IndexedLock = false) {
    ClassDecl *C = M.createClass("c");
    const unsigned F = C->addField("f");
    Entry = M.createMethod("e", C);
    Entry->addParam(Param{"m", C, true});
    MethodBuilder B(M, Entry);
    B.compute();
    const unsigned L = B.beginLoop();
    const Receiver Lock =
        IndexedLock ? Receiver::paramIndexed(0, L) : Receiver::thisObj();
    B.compute();
    B.acquire(Lock);
    B.update(Lock, F, BinOp::Add, M.exprConst(1.0));
    B.release(Lock);
    B.compute();
    B.endLoop();
  }
};

TEST(InterpTest, IndexFreeLockingLoopReplicatesOneTrip) {
  LockingLoopWorkload W;
  TestBinding Binding;
  Binding.IndexFree = true;
  Binding.Trip = 50;
  Binding.Args = {ObjRef::array(0)};
  const IterationEmitter E(W.Entry, Binding, CostModel{});
  std::vector<MicroOp> Ops;
  E.emit(1, Ops);
  // compute, then per trip acquire, compute, release, compute -- the
  // trailing compute of each trip merged with the next trip's leading one.
  ASSERT_EQ(Ops.size(), 1 + 4 * 50u);
  EXPECT_EQ(Ops[0].Dur, 2 * Binding.ComputeCost);
  EXPECT_EQ(Ops[4].Dur, 2 * Binding.ComputeCost);
  EXPECT_EQ(Ops.back().Dur, Binding.ComputeCost);
  // One trip is emitted, plus the last-trip check in builds with
  // assertions: at most 1 + 2 x 2 cost queries, not 1 + 2 x 50.
  EXPECT_LE(Binding.ComputeCalls, 5u);

  TestBinding Walked = Binding;
  Walked.IndexFree = false;
  std::vector<MicroOp> WalkedOps;
  IterationEmitter(W.Entry, Walked, CostModel{}).emit(1, WalkedOps);
  EXPECT_EQ(Ops, WalkedOps);
}

TEST(InterpTest, LockingLoopOverIndexedReceiversWalksEveryTrip) {
  // elementOf may read any loop index, so a body that resolves an indexed
  // receiver is emitted trip by trip even for an index-free binding.
  LockingLoopWorkload W(/*IndexedLock=*/true);
  TestBinding Binding;
  Binding.IndexFree = true;
  Binding.Trip = 5;
  Binding.Args = {ObjRef::array(0)};
  std::vector<MicroOp> Ops;
  IterationEmitter(W.Entry, Binding, CostModel{}).emit(0, Ops);
  EXPECT_EQ(Binding.ElementOfCalls, 2 * 5u);
  std::vector<ObjectId> Acquired;
  for (const MicroOp &Op : Ops)
    if (Op.K == MicroOp::Kind::Acquire)
      Acquired.push_back(Op.Obj);
  EXPECT_EQ(Acquired, (std::vector<ObjectId>{1, 2, 3, 4, 5}));
}

TEST(InterpDeathTest, ReplicatedTripThatDiffersAborts) {
  LockingLoopWorkload W;
  TestBinding Binding;
  Binding.IndexFree = true;
  Binding.CostReadsIndex = true;
  Binding.Args = {ObjRef::array(0)};
  const IterationEmitter E(W.Entry, Binding, CostModel{});
  std::vector<MicroOp> Ops;
  EXPECT_DEBUG_DEATH(E.emit(0, Ops),
                     "replicated loop body differs from its last trip");
}

TEST(InterpDeathTest, IndexFreeBindingThatReadsTheIndexAborts) {
  NestedLoopWorkload W;
  TestBinding Binding;
  Binding.IndexFree = true;
  Binding.CostReadsIndex = true;
  IterationEmitter E(W.Entry, Binding, CostModel{});
  std::vector<MicroOp> Ops;
  EXPECT_DEBUG_DEATH(E.emit(0, Ops), "reads the loop index");
}

TEST(InterpDeathTest, StaleOpsCacheAbortsOnTheNextHit) {
  // A binding keeps a stable iterationClass while its cost changes: the
  // cache hit no longer matches a live emit, and every hit is checked.
  CoarseLoopWorkload W;
  TestBinding Binding;
  Binding.Cacheable = true;
  Binding.IndexFree = true;
  Binding.Args = {ObjRef::array(0)};
  IterationEmitter E(W.Entry, Binding, CostModel{});
  EmittedOpsCache Cache;
  E.attachCache(&Cache);
  std::vector<MicroOp> Scratch;
  E.ops(1, Scratch);
  Binding.ComputeCost += 1;
  EXPECT_DEBUG_DEATH(E.ops(1, Scratch), "stale ops cache");
}

} // namespace
