//===- rt/Interp.h - IR-to-microcode lowering -------------------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IterationEmitter interprets one generated section version's IR for a
/// given parallel iteration, resolving receivers to concrete objects and
/// loop trip counts / compute costs through the application's DataBinding,
/// and emits the flat MicroOp sequence the machine executes. Commuting
/// updates are folded into compute time; adjacent computes are merged.
/// Lock operations are marked private when no other iteration can touch
/// their lock (see locksOnlyThis and thisObjectInjective).
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_RT_INTERP_H
#define DYNFB_RT_INTERP_H

#include "ir/Module.h"
#include "rt/Binding.h"
#include "rt/CostModel.h"
#include "rt/MicroOp.h"

#include <optional>
#include <vector>

namespace dynfb::rt {

/// Whether \p Entry's lowering emits lock operations and every one of them
/// locks the iteration's own object: receiver This, reaching callees only
/// through This-receiver calls. Cached on the methods.
bool locksOnlyThis(const ir::Method *Entry);

/// Whether \p B.thisObject maps the iterations [0, iterationCount()) to
/// pairwise distinct objects in [0, objectCount()). O(iterations).
bool thisObjectInjective(const DataBinding &B);

/// Memoized micro-op sequences for one section version, keyed by
/// DataBinding::iterationClass. Owned by whoever owns the binding's
/// lifetime (the sim backend keeps one per version per section, so cached
/// sequences survive across section occurrences); filled lazily by
/// IterationEmitter::ops.
class EmittedOpsCache {
  friend class IterationEmitter;
  std::vector<std::vector<MicroOp>> Seqs; ///< Indexed by iteration class.
  std::vector<uint8_t> Filled;            ///< 1 once Seqs[Class] is valid.
};

/// Lowers iterations of one section version to micro-operations.
class IterationEmitter {
public:
  /// \p Entry is the section version's entry method; \p Binding supplies the
  /// data-dependent pieces; \p Costs prices field updates. When
  /// locksOnlyThis(Entry) holds and \p Binding's thisObject is injective,
  /// every lock is iteration-private and its operations are emitted marked
  /// so. \p ThisInjective passes thisObjectInjective(Binding) in when the
  /// caller already knows it; otherwise the emitter checks it itself, and
  /// only for such an entry.
  IterationEmitter(const ir::Method *Entry, const DataBinding &Binding,
                   const CostModel &Costs,
                   std::optional<bool> ThisInjective = std::nullopt);

  /// Whether this version's lock operations are emitted private.
  bool privateLocks() const { return PrivateLocks; }

  /// Appends iteration \p Iter's micro-ops to \p Out (Out is cleared first).
  void emit(uint64_t Iter, std::vector<MicroOp> &Out) const;

  /// Attaches a memoization cache for this emitter's (version, binding)
  /// pair. Only iterations the binding assigns a non-negative
  /// iterationClass are memoized; everything else falls back to live
  /// interpretation. Pass nullptr to detach.
  void attachCache(EmittedOpsCache *C) { Cache = C; }

  /// Iteration \p Iter's micro-ops: a reference into the attached cache on
  /// the memoized path, or into \p Scratch (re-emitted live) on the
  /// fallback path. The reference is valid until the cache is destroyed or
  /// \p Scratch is next touched, whichever path produced it.
  const std::vector<MicroOp> &ops(uint64_t Iter,
                                  std::vector<MicroOp> &Scratch) const;

  /// Emits every memoizable iteration's class into the attached cache (no
  /// live re-emit of classes already filled). Afterwards ops() only reads
  /// the cache, so emitters sharing it may run on several threads at once.
  void fillCache() const;

  /// Counts the acquire/release pairs iteration \p Iter executes, without
  /// materializing ops (used by analytical reports).
  uint64_t countPairs(uint64_t Iter) const;

  /// Sums the pure compute time of iteration \p Iter (updates included,
  /// lock constructs excluded).
  Nanos computeTime(uint64_t Iter) const;

private:
  /// Fixed-capacity parameter storage: one call frame is built per callee
  /// invocation -- per loop trip in the hot emission path -- so Params must
  /// never touch the heap. Generated methods take at most a handful of
  /// object parameters; the capacity asserts rather than spills.
  class ParamArray {
  public:
    void resize(size_t N) {
      assert(N <= Cap && "generated method exceeds frame parameter capacity");
      for (size_t I = Size; I < N; ++I)
        Elems[I] = ObjRef();
      Size = N;
    }
    size_t size() const { return Size; }
    ObjRef &operator[](size_t I) {
      assert(I < Size && "parameter index out of range");
      return Elems[I];
    }
    const ObjRef &operator[](size_t I) const {
      assert(I < Size && "parameter index out of range");
      return Elems[I];
    }

  private:
    static constexpr size_t Cap = 8;
    ObjRef Elems[Cap];
    size_t Size = 0;
  };

  struct Frame {
    ObjectId This = 0;
    ParamArray Params; ///< Indexed by object-parameter position.
  };

  void runMethod(const ir::Method *M, const Frame &F, LoopCtx &Ctx,
                 std::vector<MicroOp> &Out) const;
  void runList(const ir::Method *M, const std::vector<ir::Stmt *> &List,
               const Frame &F, LoopCtx &Ctx, std::vector<MicroOp> &Out) const;

  /// Sums the compute time of a statement list whose lowering is pure
  /// compute (no lock operations, so no frames or object resolution are
  /// needed). Fast path for the hot per-trip emission of compute-only loop
  /// bodies; per-statement durations are clamped to >= 0 exactly as
  /// pushCompute would, so the folded result matches op-by-op emission.
  Nanos sumComputeList(const std::vector<ir::Stmt *> &List, LoopCtx &Ctx) const;

  /// The compute time of every trip of a loop whose body lowers to pure
  /// compute: Trip x one trip's cost when the binding reads no loop index
  /// (see DataBinding::readsLoopIndices), otherwise trip by trip.
  Nanos sumComputeLoop(const ir::LoopStmt &L, LoopCtx &Ctx) const;

  /// Emits \p Trip (> 1) trips of a locking loop whose body resolves no
  /// indexed receiver, for a binding that reads no loop index: every trip
  /// lowers alike, so trip 0 is emitted once and copied, merging the
  /// computes that meet at each seam. Builds with assertions also emit the
  /// last trip and abort if it differs. \p Ctx has the loop's entry on top.
  void runReplicatedLoop(const ir::Method *M, const ir::LoopStmt &L,
                         const Frame &F, LoopCtx &Ctx, uint64_t Trip,
                         std::vector<MicroOp> &Out) const;

  ObjectId resolveObject(const ir::Receiver &R, const ir::Method *M,
                         const Frame &F, const LoopCtx &Ctx) const;
  ObjRef resolveRef(const ir::Receiver &R, const ir::Method *M,
                    const Frame &F, const LoopCtx &Ctx) const;

  static void pushCompute(std::vector<MicroOp> &Out, Nanos Dur);

  /// Makes cache slot \p Key hold iteration \p Iter's ops, stored at their
  /// exact size (growing the cache as needed); returns true if it had to
  /// emit them.
  bool fillSlot(uint64_t Iter, size_t Key) const;

  const ir::Method *const Entry;
  const DataBinding &Binding;
  const CostModel Costs;
  /// !Binding.readsLoopIndices(): pure-compute loops are priced in O(1) and
  /// locking loops are emitted by replicating one trip.
  const bool FoldLoops;
  /// Every lock of this version is iteration-private (see constructor).
  const bool PrivateLocks;
  EmittedOpsCache *Cache = nullptr;
};

} // namespace dynfb::rt

#endif // DYNFB_RT_INTERP_H
