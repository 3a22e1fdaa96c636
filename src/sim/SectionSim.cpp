//===- sim/SectionSim.cpp -------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Event-driven simulation. Steps that interact with other processors --
// scheduler fetches and shared-lock acquires and releases -- run in global
// (local virtual clock, index) order: the processor with the smallest key
// executes the next one. Processing in global time order makes lock request
// ordering exact: an acquire processed later was issued later. Every other
// step touches only its own processor (compute, iteration boundaries, timer
// polls, operations on iteration-private locks), commutes with every other
// processor's steps, and runs as soon as its processor reaches it, ahead of
// the global order. The running processor stays out of the ready queue (a
// min-heap over the other runnable processors) for as long as its key stays
// below the queue's front, so most ordered steps pay no heap operation and
// the rest pay one sift-down (see ReadyQueue). Blocked processors leave the
// queue and are re-inserted when the lock holder's release grants them the
// lock (FIFO), with their waiting time converted into counted failed
// acquire attempts, exactly how the paper's instrumentation accounts
// waiting overhead.
//
// The loop is allocation-free in steady state: the per-interval state
// (processors, locks, ready queue) lives in a reusable IntervalState that is
// reset -- not reallocated -- each interval, iteration micro-op sequences
// come from the backend-owned EmittedOpsCache (or a reused per-processor
// scratch buffer on the live-interpretation fallback), and the whole loop
// is instantiated per machine-model topology so the flat-model path
// contains no virtual pricing calls.
//
//===----------------------------------------------------------------------===//

#include "sim/SectionSim.h"

#include "obs/Metrics.h"
#include "perturb/Engine.h"
#include "sim/Throughput.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <functional>
#include <memory>

namespace {

bool anyNonDynamicSched(const std::vector<dynfb::sim::SimVersion> &Versions) {
  return std::any_of(Versions.begin(), Versions.end(),
                     [](const dynfb::sim::SimVersion &V) {
                       return V.Sched.Kind != dynfb::rt::SchedKind::Dynamic;
                     });
}

/// Run-wide simulator counters in the global metrics registry. The hot loop
/// accumulates plain local tallies; they are flushed here once per interval
/// so the event loop pays no atomic per micro-op.
struct SimCounters {
  dynfb::obs::Counter &Intervals =
      dynfb::obs::globalMetrics().counter("sim.intervals");
  dynfb::obs::Counter &Iterations =
      dynfb::obs::globalMetrics().counter("sim.iterations");
  dynfb::obs::Counter &SchedFetches =
      dynfb::obs::globalMetrics().counter("sim.sched_fetches");
  dynfb::obs::Counter &LockAcquires =
      dynfb::obs::globalMetrics().counter("sim.lock_acquires");
  dynfb::obs::Counter &LockContended =
      dynfb::obs::globalMetrics().counter("sim.lock_contended");
  dynfb::obs::Counter &LockWaitNanos =
      dynfb::obs::globalMetrics().counter("sim.lock_wait_ns");
  dynfb::obs::Counter &BarrierImbalanceNanos =
      dynfb::obs::globalMetrics().counter("sim.barrier_imbalance_ns");
};

SimCounters &simCounters() {
  static SimCounters C;
  return C;
}

} // namespace

using namespace dynfb;
using namespace dynfb::rt;
using namespace dynfb::sim;

// The flush below adds to the plain counters in place.
static_assert(std::atomic_ref<uint64_t>::required_alignment <=
              alignof(uint64_t));

ThroughputCounters &sim::throughputCounters() {
  static ThroughputCounters C;
  return C;
}

namespace {

/// Sentinel processor index ("none") for the intrusive waiter links.
constexpr uint32_t NoProc = ~0u;

struct Proc {
  Nanos Clock = 0;
  /// Current iteration's micro-ops: a view into the version's ops cache or
  /// into this processor's Scratch buffer (live-interpretation fallback).
  const MicroOp *Ops = nullptr;
  size_t NumOps = 0;
  size_t Pc = 0;
  bool HasIteration = false;
  bool Stopped = false;
  Nanos EndTime = 0;
  OverheadStats Stats;
  /// Claimed-but-unexecuted iteration range of the current scheduling
  /// chunk ([ClaimNext, ClaimEnd)). Empty under dynamic self-scheduling,
  /// where every fetch claims exactly one iteration.
  uint64_t ClaimNext = 0;
  uint64_t ClaimEnd = 0;
  /// Next processor in the lock's FIFO while this one is blocked (a
  /// processor waits on at most one lock at a time).
  uint32_t NextWaiter = NoProc;
  /// Reused live-emit buffer; its capacity survives across iterations and
  /// intervals.
  std::vector<MicroOp> Scratch;
};

/// FIFO spin lock over the intrusive Proc::NextWaiter links.
struct SimLock {
  bool Held = false;
  uint32_t WaitHead = NoProc;
  uint32_t WaitTail = NoProc;
  uint32_t NumWaiters = 0;
};

/// A processor's run-order key: earlier clock first, lower index on ties.
struct ReadyKey {
  Nanos T;
  uint32_t P;
  friend bool operator<(const ReadyKey &A, const ReadyKey &B) {
    return A.T != B.T ? A.T < B.T : A.P < B.P;
  }
  friend bool operator>(const ReadyKey &A, const ReadyKey &B) { return B < A; }
};

/// The runnable processors other than the running one, as a min-heap of
/// their keys. Keys are unique -- a processor is queued at most once and the
/// running one never -- so "strictly lower than the front" means exactly
/// "earliest of all runnable processors": keeping the running processor out
/// of the heap runs processors in the same order as popping and re-pushing
/// it after every micro-op would.
class ReadyQueue {
public:
  void clear() { Heap.clear(); }

  void push(Nanos T, uint32_t P) {
    Heap.push_back(ReadyKey{T, P});
    std::push_heap(Heap.begin(), Heap.end(), std::greater<ReadyKey>());
  }

  /// Removes and returns the earliest queued processor; NoProc when empty
  /// (the running processor stopped or blocked).
  uint32_t pop() {
    if (Heap.empty())
      return NoProc;
    std::pop_heap(Heap.begin(), Heap.end(), std::greater<ReadyKey>());
    const uint32_t P = Heap.back().P;
    Heap.pop_back();
    return P;
  }

  /// The running processor \p P is still runnable, now at clock \p T.
  /// Returns the processor to run next: \p P itself while its key is below
  /// the front's (no heap operation), otherwise the front, whose place \p P
  /// takes with one sift-down.
  uint32_t next(Nanos T, uint32_t P) {
    const ReadyKey Key{T, P};
    if (Heap.empty() || Key < Heap.front())
      return P;
    const uint32_t Front = Heap.front().P;
    const size_t N = Heap.size();
    size_t Hole = 0;
    for (size_t Child = 1; Child < N; Child = 2 * Hole + 1) {
      if (Child + 1 < N && Heap[Child + 1] < Heap[Child])
        ++Child;
      if (Key < Heap[Child])
        break;
      Heap[Hole] = Heap[Child];
      Hole = Child;
    }
    Heap[Hole] = Key;
    return Front;
  }

private:
  std::vector<ReadyKey> Heap;
};

} // namespace

/// The per-interval simulation state, hoisted out of runInterval so buffers
/// are reset rather than reallocated each interval.
struct SimSectionRunner::IntervalState {
  std::vector<Proc> Procs;
  std::vector<SimLock> Locks;
  ReadyQueue Ready;
  std::vector<uint64_t> NodeContended;
  /// Per-lock trace summaries indexed by object id, sized only once a trace
  /// is attached, and the ids given an entry this interval. The event loop
  /// updates them in place; interval end merges them into the trace's
  /// ordered map and zeroes them.
  std::vector<IntervalTrace::LockSummary> TraceLocks;
  std::vector<ObjectId> TraceTouched;
};

std::optional<bool>
sim::thisInjectiveIfNeeded(const DataBinding &Binding,
                           const std::vector<SimVersion> &Versions) {
  for (const SimVersion &V : Versions)
    if (locksOnlyThis(V.Entry))
      return thisObjectInjective(Binding);
  return std::nullopt;
}

SimSectionRunner::SimSectionRunner(SimMachine &Machine,
                                   const DataBinding &Binding,
                                   std::vector<SimVersion> Versions,
                                   bool Instrumented,
                                   std::optional<bool> ThisInjective)
    : Machine(Machine), Binding(Binding), Versions(std::move(Versions)),
      Instrumented(Instrumented),
      SchedInstrumented(anyNonDynamicSched(this->Versions)),
      NumIterations(Binding.iterationCount()) {
  assert(!this->Versions.empty() && "section needs at least one version");
  if (!ThisInjective)
    ThisInjective = thisInjectiveIfNeeded(Binding, this->Versions);
  Emitters.reserve(this->Versions.size());
  for (const SimVersion &V : this->Versions)
    Emitters.emplace_back(V.Entry, Binding, Machine.costs(), ThisInjective);
}

SimSectionRunner::~SimSectionRunner() = default;

void SimSectionRunner::setPerturbation(
    const perturb::PerturbationEngine *Engine, std::string Section) {
  SectionName = std::move(Section);
  // Keep the unperturbed fast path free of per-op queries when the schedule
  // cannot touch this section.
  Perturb = Engine && Engine->mayAffect(SectionName) ? Engine : nullptr;
}

void SimSectionRunner::attachOpsCaches(
    std::vector<rt::EmittedOpsCache> *Caches) {
  assert((!Caches || Caches->size() == Emitters.size()) &&
         "one ops cache per code version");
  for (size_t V = 0; V < Emitters.size(); ++V)
    Emitters[V].attachCache(Caches ? &(*Caches)[V] : nullptr);
}

IntervalReport SimSectionRunner::runInterval(unsigned V, Nanos Target) {
  // One instantiation per topology class: the flat path carries no virtual
  // pricing calls and no per-op topology branches.
  return Machine.model().topologyAware() ? runIntervalImpl<true>(V, Target)
                                         : runIntervalImpl<false>(V, Target);
}

template <bool Topo>
IntervalReport SimSectionRunner::runIntervalImpl(unsigned V, Nanos Target) {
  assert(V < Versions.size() && "version index out of range");
  assert(Machine.model().topologyAware() == Topo && "wrong instantiation");
  const CostModel &CM = Machine.costs();
  const Nanos Start = Machine.now();
  const Nanos Deadline = Start + Target;
  const Nanos InstrCost = Instrumented ? CM.InstrumentNanos : 0;
  const Nanos AcqCost = CM.AcquireNanos + InstrCost;
  const Nanos RelCost = CM.ReleaseNanos + InstrCost;

  const unsigned P = Machine.numProcs();

  // Topology-aware machine models (dash-numa) price lock events from the
  // home node of each lock's cache line and the contention depth; the flat
  // models keep the seed's constant-folded arithmetic above, untouched.
  const rt::MachineModel &MM = Machine.model();
  std::vector<int> *Homes = nullptr;
  unsigned NumNodes = 1;
  if constexpr (Topo) {
    Homes = &Machine.lockHomes(SectionName, Binding.objectCount());
    NumNodes = MM.nodeOf(P - 1) + 1;
  }
  const Nanos FailedAcqNanos =
      Topo ? MM.failedAcquireNanos() : CM.FailedAcquireNanos;
  // Waiting time is converted to counted failed acquires by ceil-dividing
  // with the failed-attempt cost. Zero is a legal cost ("spinning is free"),
  // so the conversion divisor is clamped to one nanosecond per attempt.
  const Nanos FailedAcqDiv = std::max<Nanos>(1, FailedAcqNanos);

  // Per-node contention tallies plus the local/remote/cold acquire split,
  // flushed into the metrics registry at interval end (topology-aware
  // models only, so flat-machine metric exports stay byte-identical).
  uint64_t TallyLocalAcq = 0, TallyRemoteAcq = 0, TallyColdAcq = 0;

  if (!State)
    State = std::make_unique<IntervalState>();
  IntervalState &S = *State;
  if (S.Procs.size() != P) {
    S.Procs.assign(P, Proc{});
    for (Proc &Pr : S.Procs)
      Pr.Scratch.reserve(64);
  }
  for (Proc &Pr : S.Procs) {
    Pr.Clock = Start;
    Pr.Ops = nullptr;
    Pr.NumOps = 0;
    Pr.Pc = 0;
    Pr.HasIteration = false;
    Pr.Stopped = false;
    Pr.EndTime = 0;
    Pr.Stats = OverheadStats{};
    Pr.ClaimNext = 0;
    Pr.ClaimEnd = 0;
    Pr.NextWaiter = NoProc;
  }
  // assign() keeps the vectors' capacity: no reallocation after the first
  // interval of a run.
  S.Locks.assign(Binding.objectCount(), SimLock{});
  S.NodeContended.assign(Topo ? NumNodes : 0, 0);
  std::vector<Proc> &Procs = S.Procs;
  std::vector<SimLock> &Locks = S.Locks;
  ReadyQueue &Ready = S.Ready;

  // Prices one successful acquire and moves the lock's line to the
  // acquirer's cluster. \p Depth is the number of waiters still queued.
  auto AcquirePrice = [&](uint32_t ProcIdx, uint32_t Obj,
                          unsigned Depth) -> Nanos {
    if constexpr (!Topo) {
      (void)ProcIdx;
      (void)Obj;
      (void)Depth;
      return AcqCost;
    } else {
      const int Home = (*Homes)[Obj];
      const unsigned Node = MM.nodeOf(ProcIdx);
      if (Home < 0)
        ++TallyColdAcq;
      else if (static_cast<unsigned>(Home) == Node)
        ++TallyLocalAcq;
      else
        ++TallyRemoteAcq;
      const Nanos Cost =
          MM.acquireNanos(rt::LockEvent{ProcIdx, Obj, Home, Depth}) +
          InstrCost;
      (*Homes)[Obj] = static_cast<int>(Node);
      return Cost;
    }
  };
  auto ReleasePrice = [&](uint32_t ProcIdx, uint32_t Obj) -> Nanos {
    if constexpr (!Topo) {
      (void)ProcIdx;
      (void)Obj;
      return RelCost;
    } else {
      return MM.releaseNanos(rt::LockEvent{ProcIdx, Obj, (*Homes)[Obj], 0}) +
             InstrCost;
    }
  };

  // Every clock starts at Start, so processor 0 runs first and the rest
  // queue in index order.
  Ready.clear();
  for (uint32_t I = 1; I < P; ++I)
    Ready.push(Start, I);

  if (Trace) {
    if (!Trace->Cumulative)
      Trace->clear();
    if (Trace->Procs.size() < P)
      Trace->Procs.resize(P);
    S.TraceLocks.resize(Binding.objectCount());
  }
  // Every successful acquire, granted or not, counts in its lock's summary.
  auto TraceLock = [&](ObjectId Obj) -> IntervalTrace::LockSummary & {
    IntervalTrace::LockSummary &LS = S.TraceLocks[Obj];
    if (LS.Acquires == 0)
      S.TraceTouched.push_back(Obj);
    ++LS.Acquires;
    return LS;
  };

  // Interval-local tallies flushed into the metrics registry at the end;
  // plain integers so the event loop stays free of atomics.
  uint64_t TallyIterations = 0;
  uint64_t TallyMicroOps = 0;
  uint64_t TallySchedFetches = 0;
  uint64_t TallyAcquires = 0;
  uint64_t TallyContended = 0;
  Nanos TallyLockWaitNanos = 0;

  auto Stop = [&](Proc &Pr) {
    Pr.Stopped = true;
    Pr.EndTime = Pr.Clock;
  };

  // Injected-fault accounting (zero and untouched without an engine).
  const perturb::PerturbationEngine *PE = Perturb;
  Nanos Injected = 0;

  // An acquire succeeding during a contention burst additionally waits for
  // the injected interloper, accounted exactly like organic spinning.
  auto InjectContention = [&](Proc &Pr, uint32_t ProcIdx, uint32_t Obj) {
    if (!PE)
      return;
    const Nanos Extra = PE->contentionExtra(SectionName, Obj, Pr.Clock);
    if (Extra <= 0)
      return;
    TallyLockWaitNanos += Extra;
    Pr.Stats.WaitNanos += Extra;
    Pr.Stats.FailedAcquires += static_cast<uint64_t>(
        (Extra + FailedAcqDiv - 1) / FailedAcqDiv);
    Pr.Clock += Extra;
    Injected += Extra;
    if (Trace)
      Trace->Procs[ProcIdx].WaitNanos += Extra;
  };

  // Lock-hold spikes surcharge every lock construct.
  auto LockExtra = [&](Nanos T) -> Nanos {
    if (!PE)
      return 0;
    const Nanos Extra = PE->lockHoldExtra(SectionName, T);
    Injected += Extra;
    return Extra;
  };

  const IterationEmitter &Emitter = Emitters[V];
  // Iterations one scheduler fetch claims: 1 under dynamic
  // self-scheduling, the chunk size under blocked scheduling. The DLS
  // family computes its claim per fetch from the unassigned remainder.
  const rt::SchedSpec &Sched = Versions[V].Sched;
  const bool VariableChunk = Sched.variableChunk();
  const uint64_t Chunk = Sched.chunkIters();

  // Each pass runs one step of processor Cur. Only steps that interact with
  // other processors are ordered: scheduler fetches (they claim from the
  // shared iteration counter) and acquires and releases of shared locks.
  // Before one runs, Ready.next hands over to the earliest queued processor
  // if its (clock, index) key is lower. Every other step -- compute, an
  // iteration boundary, a timer poll or deadline stop, an operation on a
  // private lock -- reads and writes only Cur's own state, so Cur runs it
  // straight on and its clock runs ahead of the queue. Stopping or blocking
  // hands over through Ready.pop.
  uint32_t Cur = 0;
#ifndef NDEBUG
  // Ordered steps run in nondecreasing key order, except that a lock grant
  // may queue its waiter below the releaser's key (only when the grant is
  // free), and the waiter's next ordered step then runs from there.
  ReadyKey LastOrdered{Start, 0};
#endif
  // Before an ordered step of Cur: the processor to run now, which is Cur
  // unless an earlier one is queued (Cur then takes its place in the queue).
  auto Ordered = [&](Nanos T) -> uint32_t {
    const uint32_t Next = Ready.next(T, Cur);
#ifndef NDEBUG
    if (Next == Cur) {
      assert(!(ReadyKey{T, Cur} < LastOrdered) &&
             "ordered step out of (clock, index) order");
      LastOrdered = ReadyKey{T, Cur};
    }
#endif
    return Next;
  };
  while (Cur != NoProc) {
    Proc &Pr = Procs[Cur];
    assert(!Pr.Stopped && "stopped processor in ready queue");

    if (!Pr.HasIteration) {
      if (Pr.ClaimNext >= Pr.ClaimEnd) {
        if (const uint32_t Next = Ordered(Pr.Clock); Next != Cur) {
          Cur = Next;
          continue;
        }
        // Self-scheduling: fetch the next chunk of iterations (exactly one
        // under dynamic scheduling).
        ++TallySchedFetches;
        const Nanos FetchCost =
            Topo ? MM.schedFetchNanos(Cur) : CM.SchedFetchNanos;
        Pr.Clock += FetchCost;
        if (SchedInstrumented)
          Pr.Stats.SchedNanos += FetchCost;
        if (Trace)
          Trace->Procs[Cur].OverheadNanos += FetchCost;
        if (NextIter >= NumIterations) {
          Stop(Pr);
          Cur = Ready.pop();
          continue;
        }
        const uint64_t Claim =
            VariableChunk ? Sched.fetchIters(NumIterations - NextIter,
                                             NumIterations, P, Cur)
                          : Chunk;
        Pr.ClaimNext = NextIter;
        Pr.ClaimEnd = std::min(NextIter + Claim, NumIterations);
        NextIter = Pr.ClaimEnd;
      }
      const std::vector<MicroOp> &Seq =
          Emitter.ops(Pr.ClaimNext++, Pr.Scratch);
      Pr.Ops = Seq.data();
      Pr.NumOps = Seq.size();
      Pr.Pc = 0;
      Pr.HasIteration = true;
      ++TallyIterations;
      // Fetched iterations always run to completion (the deadline is only
      // checked at chunk boundaries), so ops-at-fetch equals ops-executed.
      TallyMicroOps += Pr.NumOps;
      if (Trace)
        ++Trace->Procs[Cur].Iterations;
      continue;
    }

    if (Pr.Pc == Pr.NumOps) {
      Pr.HasIteration = false;
      // A mid-chunk iteration boundary continues the claimed chunk
      // back-to-back: no timer poll, not a potential switch point.
      if (Pr.ClaimNext < Pr.ClaimEnd)
        continue;
      // Chunk boundary, a potential switch point: poll the timer.
      Nanos TimerCost = Topo ? MM.timerReadNanos(Cur) : CM.TimerReadNanos;
      if (PE) {
        Nanos Noise = PE->timerNoise(SectionName, Cur, Pr.Clock);
        if (TimerCost + Noise < 0)
          Noise = -TimerCost; // A read can be fast, never negative.
        TimerCost += Noise;
        Injected += Noise;
      }
      Pr.Clock += TimerCost;
      if (Trace)
        Trace->Procs[Cur].OverheadNanos += TimerCost;
      if (Pr.Clock >= Deadline) {
        Stop(Pr);
        Cur = Ready.pop();
      }
      continue;
    }

    const MicroOp &Op = Pr.Ops[Pr.Pc];
    if (Op.K == MicroOp::Kind::Compute) {
      Nanos Dur = Op.Dur;
      if (PE) {
        const double Scale = PE->computeScale(SectionName, Cur, Pr.Clock);
        if (Scale != 1.0) {
          const Nanos Scaled = std::max<Nanos>(
              0, static_cast<Nanos>(
                     std::llround(static_cast<double>(Dur) * Scale)));
          Injected += Scaled - Dur;
          Dur = Scaled;
        }
      }
      Pr.Clock += Dur;
      ++Pr.Pc;
      if (Trace)
        Trace->Procs[Cur].ComputeNanos += Dur;
      continue;
    }

    // No other iteration touches a private lock, so its operations involve
    // Cur alone: the lock is always free to acquire and has no waiter at
    // release.
    if (!Op.Private) {
      if (const uint32_t Next = Ordered(Pr.Clock); Next != Cur) {
        Cur = Next;
        continue;
      }
    }
    SimLock &L = Locks[Op.Obj];
    if (Op.K == MicroOp::Kind::Acquire) {
      if (L.Held) {
        assert(!Op.Private && "private lock held by another iteration");
        // Block: the processor spins until the holder's release grants it
        // the lock. Its clock stays at the request time.
        Pr.NextWaiter = NoProc;
        if (L.WaitTail == NoProc)
          L.WaitHead = Cur;
        else
          Procs[L.WaitTail].NextWaiter = Cur;
        L.WaitTail = Cur;
        ++L.NumWaiters;
        Cur = Ready.pop();
        continue;
      }
      InjectContention(Pr, Cur, Op.Obj);
      const Nanos Cost = AcquirePrice(Cur, Op.Obj, 0) + LockExtra(Pr.Clock);
      L.Held = true;
      ++TallyAcquires;
      ++Pr.Stats.AcquireReleasePairs;
      Pr.Stats.LockOpNanos += Cost;
      Pr.Clock += Cost;
      ++Pr.Pc;
      if (Trace) {
        Trace->Procs[Cur].LockOpNanos += Cost;
        TraceLock(Op.Obj);
      }
      continue;
    }

    assert(L.Held && "release of a free lock");
    const Nanos RelTotal = ReleasePrice(Cur, Op.Obj) + LockExtra(Pr.Clock);
    Pr.Stats.LockOpNanos += RelTotal;
    Pr.Clock += RelTotal;
    ++Pr.Pc;
    if (Trace)
      Trace->Procs[Cur].LockOpNanos += RelTotal;
    if (L.WaitHead == NoProc) {
      L.Held = false;
      continue;
    }
    assert(!Op.Private && "waiter on a private lock");
    const uint32_t W = L.WaitHead;
    Proc &Waiter = Procs[W];
    L.WaitHead = Waiter.NextWaiter;
    if (L.WaitHead == NoProc)
      L.WaitTail = NoProc;
    --L.NumWaiters;
    Waiter.NextWaiter = NoProc;
    const Nanos Wait = Pr.Clock - Waiter.Clock;
    assert(Wait >= 0 && "negative waiting time");
    ++TallyAcquires;
    ++TallyContended;
    TallyLockWaitNanos += Wait;
    Waiter.Stats.WaitNanos += Wait;
    Waiter.Stats.FailedAcquires +=
        Wait > 0 ? static_cast<uint64_t>((Wait + FailedAcqDiv - 1) /
                                         FailedAcqDiv)
                 : 1;
    Waiter.Clock = Pr.Clock;
    if constexpr (Topo)
      ++S.NodeContended[MM.nodeOf(W)];
    if (Trace) {
      IntervalTrace::ProcSummary &WS = Trace->Procs[W];
      WS.WaitNanos += Wait;
      IntervalTrace::LockSummary &LS = TraceLock(Op.Obj);
      ++LS.Contended;
      LS.WaitNanos += Wait;
    }
    // The granted waiter completes its acquire (paying any injected
    // contention and lock-construct surcharge active at grant time).
    InjectContention(Waiter, W, Op.Obj);
    const Nanos WAcqCost =
        AcquirePrice(W, Op.Obj, L.NumWaiters) + LockExtra(Waiter.Clock);
    ++Waiter.Stats.AcquireReleasePairs;
    Waiter.Stats.LockOpNanos += WAcqCost;
    Waiter.Clock += WAcqCost;
    ++Waiter.Pc;
    if (Trace)
      Trace->Procs[W].LockOpNanos += WAcqCost;
    Ready.push(Waiter.Clock, W);
#ifndef NDEBUG
    LastOrdered = std::min(LastOrdered, ReadyKey{Waiter.Clock, W});
#endif
  }

  if (Trace) {
    for (const ObjectId Obj : S.TraceTouched) {
      IntervalTrace::LockSummary &From = S.TraceLocks[Obj];
      IntervalTrace::LockSummary &To = Trace->Locks[Obj];
      To.Acquires += From.Acquires;
      To.Contended += From.Contended;
      To.WaitNanos += From.WaitNanos;
      From = IntervalTrace::LockSummary{};
    }
    S.TraceTouched.clear();
  }

  IntervalReport Report;
  Nanos LastEnd = Start;
  for (const Proc &Pr : Procs) {
    assert(Pr.Stopped && "processor never reached the switch barrier");
    LastEnd = std::max(LastEnd, Pr.EndTime);
  }
  for (Proc &Pr : Procs) {
    if (SchedInstrumented) {
      // With a scheduling dimension the instrumentation also observes the
      // synchronous switch barrier: a processor out of work (or stopped at
      // a coarse chunk boundary) spins there until the slowest finishes,
      // which is how chunk-induced load imbalance reaches the overhead
      // metric the controller compares versions by.
      Pr.Stats.WaitNanos += LastEnd - Pr.EndTime;
      Pr.Stats.ExecNanos = LastEnd - Start;
    } else {
      Pr.Stats.ExecNanos = Pr.EndTime - Start;
    }
    Report.Stats.merge(Pr.Stats);
  }
  Report.EffectiveNanos = LastEnd - Start;
  Report.Finished = NextIter >= NumIterations;
  Report.InjectedNanos = Injected;

  // Flush the interval's tallies into the run-wide metrics registry.
  {
    SimCounters &C = simCounters();
    C.Intervals.add();
    C.Iterations.add(TallyIterations);
    C.SchedFetches.add(TallySchedFetches);
    C.LockAcquires.add(TallyAcquires);
    C.LockContended.add(TallyContended);
    C.LockWaitNanos.add(static_cast<uint64_t>(TallyLockWaitNanos));
    Nanos Imbalance = 0;
    for (const Proc &Pr : Procs)
      Imbalance += LastEnd - Pr.EndTime;
    C.BarrierImbalanceNanos.add(static_cast<uint64_t>(Imbalance));
  }
  {
    ThroughputCounters &TC = throughputCounters();
    const auto Add = [](uint64_t &Counter, uint64_t N) {
      std::atomic_ref<uint64_t>(Counter).fetch_add(N,
                                                   std::memory_order_relaxed);
    };
    Add(TC.MicroOps, TallyMicroOps);
    Add(TC.Iterations, TallyIterations);
    Add(TC.Intervals, 1);
  }
  if constexpr (Topo) {
    obs::MetricsRegistry &M = obs::globalMetrics();
    M.counter("sim.numa.local_acquires").add(TallyLocalAcq);
    M.counter("sim.numa.remote_acquires").add(TallyRemoteAcq);
    M.counter("sim.numa.cold_acquires").add(TallyColdAcq);
    for (unsigned Node = 0; Node < NumNodes; ++Node)
      if (S.NodeContended[Node])
        M.counter(format("sim.node%u.contended", Node))
            .add(S.NodeContended[Node]);
  }

  // Synchronous switch: all processors wait at a barrier for the slowest,
  // then the machine proceeds.
  Machine.advance(Report.EffectiveNanos +
                  (Topo ? MM.barrierNanos() : CM.BarrierNanos));
  return Report;
}
