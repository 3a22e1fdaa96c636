//===- ir/Decl.h - Classes, methods and parallel sections ------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations of the object-based IR: classes (whose instances the
/// compiler augments with a mutual exclusion lock, paper Section 2),
/// methods, and parallel sections (one parallel loop whose iteration body is
/// a method invocation, paper Section 4.1).
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_IR_DECL_H
#define DYNFB_IR_DECL_H

#include "ir/Stmt.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace dynfb::ir {

/// A scalar instance field of a class.
struct Field {
  std::string Name;
};

class ClassDecl;

/// A formal parameter of a method. Object-typed parameters carry their class
/// and arity (single object or array of objects); scalar parameters carry
/// neither and are referenced only from expressions.
struct Param {
  std::string Name;
  const ClassDecl *ObjClass = nullptr; ///< Null for scalar parameters.
  bool IsArray = false; ///< True for object-array parameters (e.g. body b[]).

  bool isObject() const { return ObjClass != nullptr; }
};

/// A class declaration. Every instance carries an implicit mutual exclusion
/// lock in addition to its fields, mirroring the paper's generated code.
class ClassDecl {
public:
  ClassDecl(unsigned Id, std::string Name)
      : Id(Id), Name(std::move(Name)) {}

  unsigned id() const { return Id; }
  const std::string &name() const { return Name; }

  /// Adds a field and returns its index.
  unsigned addField(std::string FieldName) {
    Fields.push_back(Field{std::move(FieldName)});
    return static_cast<unsigned>(Fields.size() - 1);
  }

  const std::vector<Field> &fields() const { return Fields; }
  const Field &field(unsigned Idx) const {
    assert(Idx < Fields.size() && "field index out of range");
    return Fields[Idx];
  }

private:
  const unsigned Id;
  const std::string Name;
  std::vector<Field> Fields;
};

/// A method: receiver class, formal parameters and a statement body.
/// Synthetic methods are variants produced by the synchronization optimizer
/// (e.g. lock-stripped clones).
class Method {
public:
  Method(unsigned Id, std::string Name, const ClassDecl *Owner)
      : Id(Id), Name(std::move(Name)), Owner(Owner) {
    assert(Owner && "method without receiver class");
  }

  unsigned id() const { return Id; }
  const std::string &name() const { return Name; }
  const ClassDecl *owner() const { return Owner; }

  /// Adds a parameter and returns its index.
  unsigned addParam(Param P) {
    Params.push_back(std::move(P));
    return static_cast<unsigned>(Params.size() - 1);
  }

  const std::vector<Param> &params() const { return Params; }
  const Param &param(unsigned Idx) const {
    assert(Idx < Params.size() && "param index out of range");
    return Params[Idx];
  }

  std::vector<Stmt *> &body() { return Body; }
  const std::vector<Stmt *> &body() const { return Body; }

  bool isSynthetic() const { return Synthetic; }
  void setSynthetic() { Synthetic = true; }

  /// Sentinel for loweringUsedParams: mask not yet computed.
  static constexpr uint32_t LoweringParamsUnknown = UINT32_MAX;

  /// Cached bitmask of parameters whose bound objects the micro-op lowering
  /// actually reads (lock-operation receivers and arguments forwarded to
  /// callees that read them -- expression operands never resolve objects).
  /// Structural metadata computed lazily by the interpreter on first use;
  /// atomic so concurrent emitters (native-threads backend) may race to
  /// store the same value. LoweringParamsUnknown until computed.
  uint32_t loweringUsedParams() const {
    return LoweringUsedParams.load(std::memory_order_relaxed);
  }
  void setLoweringUsedParams(uint32_t Mask) const {
    LoweringUsedParams.store(Mask, std::memory_order_relaxed);
  }

  /// Cached tri-state: does this method's lowering consist of compute time
  /// only (no lock operations, directly or through callees)? 0 = not yet
  /// computed, 1 = pure compute, 2 = not. Same caching discipline as
  /// loweringUsedParams.
  uint8_t loweringPureCompute() const {
    return LoweringPureCompute.load(std::memory_order_relaxed);
  }
  void setLoweringPureCompute(uint8_t V) const {
    LoweringPureCompute.store(V, std::memory_order_relaxed);
  }

  /// Cached tri-state: does every lock operation this method's lowering
  /// emits lock its receiver (This), reaching callees only through
  /// This-receiver calls? 0 = not yet computed, 1 = yes, 2 = no. Same
  /// caching discipline as loweringUsedParams.
  uint8_t loweringLocksOnlyThis() const {
    return LoweringLocksOnlyThis.load(std::memory_order_relaxed);
  }
  void setLoweringLocksOnlyThis(uint8_t V) const {
    LoweringLocksOnlyThis.store(V, std::memory_order_relaxed);
  }

  /// Cached tri-state: does this method's lowering resolve an indexed
  /// receiver (an array element chosen by a loop index), directly or
  /// through callees? 0 = not yet computed, 1 = yes, 2 = no. Same caching
  /// discipline as loweringUsedParams.
  uint8_t loweringResolvesIndexed() const {
    return LoweringResolvesIndexed.load(std::memory_order_relaxed);
  }
  void setLoweringResolvesIndexed(uint8_t V) const {
    LoweringResolvesIndexed.store(V, std::memory_order_relaxed);
  }

private:
  const unsigned Id;
  const std::string Name;
  const ClassDecl *const Owner;
  std::vector<Param> Params;
  std::vector<Stmt *> Body;
  bool Synthetic = false;
  mutable std::atomic<uint32_t> LoweringUsedParams{LoweringParamsUnknown};
  mutable std::atomic<uint8_t> LoweringPureCompute{0};
  mutable std::atomic<uint8_t> LoweringLocksOnlyThis{0};
  mutable std::atomic<uint8_t> LoweringResolvesIndexed{0};
};

/// A parallel section: a parallel loop whose iteration i invokes IterMethod
/// on the i-th object of the iteration class. The iteration count and the
/// binding of the method's object parameters are supplied at execution time
/// by the application's data binding.
struct ParallelSection {
  std::string Name;
  const Method *IterMethod = nullptr;
};

} // namespace dynfb::ir

#endif // DYNFB_IR_DECL_H
