//===- rt/MicroOp.h - Flattened iteration micro-operations ------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One parallel-loop iteration, lowered to a flat sequence of primitive
/// machine operations: compute for a duration, acquire a lock, release a
/// lock. The simulator advances processors through these sequences; commuting
/// updates are folded into compute durations at emission time and adjacent
/// computes are merged.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_RT_MICROOP_H
#define DYNFB_RT_MICROOP_H

#include "rt/Binding.h"
#include "rt/Time.h"

namespace dynfb::rt {

/// One primitive operation of an iteration.
struct MicroOp {
  enum class Kind : uint8_t { Compute, Acquire, Release };

  Kind K = Kind::Compute;
  /// Acquire/Release of a lock no other iteration of the section touches
  /// (see IterationEmitter): the step involves only the running processor,
  /// so the simulator runs it without global ordering.
  bool Private = false;
  ObjectId Obj = 0; ///< Lock identity for Acquire/Release.
  Nanos Dur = 0;    ///< Duration for Compute.

  static MicroOp compute(Nanos Dur) {
    return MicroOp{Kind::Compute, false, 0, Dur};
  }
  static MicroOp acquire(ObjectId O, bool Private = false) {
    return MicroOp{Kind::Acquire, Private, O, 0};
  }
  static MicroOp release(ObjectId O, bool Private = false) {
    return MicroOp{Kind::Release, Private, O, 0};
  }

  friend bool operator==(const MicroOp &A, const MicroOp &B) {
    return A.K == B.K && A.Private == B.Private && A.Obj == B.Obj &&
           A.Dur == B.Dur;
  }
};

// Ops caches hold millions of these; the flag lives in Kind's padding.
static_assert(sizeof(MicroOp) == 16, "MicroOp grew past 16 bytes");

} // namespace dynfb::rt

#endif // DYNFB_RT_MICROOP_H
