//===- sim/Throughput.h - Simulator throughput counters ---------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide tallies of simulator hot-loop work, the raw material of the
/// sim_throughput benchmark: callers snapshot the counters around a run and
/// divide the deltas by wall-clock time. Deliberately NOT obs registry
/// counters -- the registry renders every registered metric into
/// --metrics-out exports, whose byte-identical output is golden-tested, and
/// wall-clock throughput is measurement plumbing, not a run observable.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_SIM_THROUGHPUT_H
#define DYNFB_SIM_THROUGHPUT_H

#include <cstdint>

namespace dynfb::sim {

/// Cumulative hot-loop work executed by every SimSectionRunner in this
/// process. Runners on different threads (replay::explore runs what-ifs
/// concurrently) flush once per interval with relaxed atomic adds through
/// std::atomic_ref, so the struct itself stays plain and copyable: read or
/// copy it only while no runner is in flight.
struct ThroughputCounters {
  uint64_t MicroOps = 0;   ///< Executed micro-ops (compute/acquire/release).
  uint64_t Iterations = 0; ///< Parallel-loop iterations executed.
  uint64_t Intervals = 0;  ///< runInterval calls completed.
};

ThroughputCounters &throughputCounters();

} // namespace dynfb::sim

#endif // DYNFB_SIM_THROUGHPUT_H
