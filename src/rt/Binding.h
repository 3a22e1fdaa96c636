//===- rt/Binding.h - Execution-time data binding ----------------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A DataBinding supplies everything the IR leaves symbolic when a parallel
/// section executes: the iteration count, the objects iterations and
/// parameters refer to, per-instance loop trip counts (e.g. the number of
/// interactions a Barnes-Hut body computes, derived from the real octree),
/// and the cost of each compute kernel. Applications implement one binding
/// per parallel section.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_RT_BINDING_H
#define DYNFB_RT_BINDING_H

#include "rt/Time.h"

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace dynfb::rt {

/// Identity of one lockable object in the executing program. Each object id
/// denotes one instance with one mutual exclusion lock.
using ObjectId = uint32_t;

/// Handle of an object array the binding can index into.
using ArrayId = uint32_t;

/// A bound object argument: a single object or an array of objects.
struct ObjRef {
  bool IsArray = false;
  uint32_t Id = 0; ///< ObjectId when !IsArray, ArrayId otherwise.

  static ObjRef single(ObjectId O) { return ObjRef{false, O}; }
  static ObjRef array(ArrayId A) { return ObjRef{true, A}; }
};

/// Dynamic loop context during interpretation: the parallel iteration index
/// and the stack of active (loop id, index) pairs, outermost first, spanning
/// call frames.
struct LoopCtx {
  uint64_t Iter = 0;
  std::vector<std::pair<unsigned, uint64_t>> Loops;

  /// Index value of the active loop with id \p LoopId. Asserts presence.
  uint64_t indexOf(unsigned LoopId) const {
    for (auto It = Loops.rbegin(); It != Loops.rend(); ++It)
      if (It->first == LoopId)
        return It->second;
    assert(false && "loop id not active");
    return 0;
  }
};

/// Application-provided binding of one parallel section's symbolic pieces.
class DataBinding {
public:
  virtual ~DataBinding() = default;

  /// Number of parallel iterations of the section.
  virtual uint64_t iterationCount() const = 0;

  /// Number of distinct lockable objects the section may touch; object ids
  /// are in [0, objectCount()).
  virtual uint32_t objectCount() const = 0;

  /// Object the i-th iteration's method is invoked on.
  virtual ObjectId thisObject(uint64_t Iter) const = 0;

  /// Object arguments of the entry method (in object-parameter order).
  virtual std::vector<ObjRef> sectionArgs(uint64_t Iter) const = 0;

  /// Element \p Index of array \p Arr. \p Ctx carries the parallel
  /// iteration and active loop indices (e.g. Water's partner molecule is a
  /// function of both the iteration and the partner-loop index).
  virtual ObjectId elementOf(ArrayId Arr, uint64_t Index,
                             const LoopCtx &Ctx) const = 0;

  /// Trip count of the loop with id \p LoopId in context \p Ctx.
  virtual uint64_t tripCount(unsigned LoopId, const LoopCtx &Ctx) const = 0;

  /// Cost of one execution of the compute kernel \p CostClass in \p Ctx.
  virtual Nanos computeNanos(unsigned CostClass, const LoopCtx &Ctx) const = 0;

  /// Cache key for iteration \p Iter's emitted micro-op sequence, or a
  /// negative value when the sequence cannot be cached. Two iterations with
  /// the same non-negative class must lower to identical micro-op sequences
  /// (per code version) for the binding's whole lifetime, and keys must be
  /// dense in [0, iterationCount()). Bindings whose iterations depend on
  /// mutable state keep the default: every emit interprets the IR live.
  virtual int64_t iterationClass(uint64_t Iter) const {
    (void)Iter;
    return -1;
  }

  /// Whether computeNanos and tripCount may read LoopCtx::Loops. A binding
  /// whose costs and trip counts depend only on LoopCtx::Iter returns false,
  /// and the emitter then prices a loop that lowers to pure compute in O(1)
  /// as Trip x (one trip's cost) instead of walking every trip. Builds with
  /// assertions also price the last trip and abort if it differs from the
  /// first. elementOf is not covered: it may always read loop indices.
  virtual bool readsLoopIndices() const { return true; }
};

} // namespace dynfb::rt

#endif // DYNFB_RT_BINDING_H
