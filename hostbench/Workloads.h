//===- hostbench/Workloads.h - The four measured workloads ------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is a closed loop of identical passes. Each pass builds what a
/// user's invocation builds and runs it once; the traced variant of a pass
/// does the same work with every module call timed from outside. The
/// traced run also needs the workload's apps and run configurations for
/// its side measurements (emit-only passes, observation overhead and the
/// decorator self-check); those are built outside any pass.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_HOSTBENCH_WORKLOADS_H
#define DYNFB_HOSTBENCH_WORKLOADS_H

#include "Layers.h"

#include "perturb/Engine.h"
#include "rt/CostModel.h"
#include "rt/MachineModel.h"

#include <memory>
#include <string>
#include <vector>

namespace dynfb::hostbench {

/// One app whose sections the emit-only passes walk.
struct EmitTarget {
  const apps::App *App = nullptr;
  rt::CostModel Costs;
};

/// One dynamic-executable configuration of the workload.
struct RunCase {
  std::string Name;
  const apps::App *App = nullptr;
  unsigned Procs = 0;
  const rt::MachineModel *Model = nullptr;
  fb::FeedbackConfig Config;
  const perturb::PerturbationEngine *Perturb = nullptr;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Runs one pass; \p Traced fills PassRecord::Layers.
  virtual PassRecord pass(bool Traced) = 0;

  /// The workload's apps, for rt.emit_* (built on first call).
  virtual std::vector<EmitTarget> emitTargets() = 0;

  /// The workload's run configurations, for obs.collect_overhead and the
  /// decorator self-check (built on first call).
  virtual std::vector<RunCase> runCases() = 0;
};

/// Names accepted by makeWorkload.
std::vector<std::string> workloadNames();

/// Creates the named workload with inputs derived from \p Seed. \p Root is
/// the repository checkout (paper_suite reads its baseline from there).
std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       const std::string &Root,
                                       std::string &Error);

} // namespace dynfb::hostbench

#endif // DYNFB_HOSTBENCH_WORKLOADS_H
