//===- apps/barnes_hut/BarnesHutApp.h - The Barnes-Hut benchmark -*- C++ -*-=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Barnes-Hut benchmark (paper Section 6.1): a hierarchical N-body
/// solver. The computationally intensive FORCES section executes one
/// parallel loop over the bodies; each iteration accumulates interactions
/// into its own body's fields under the body's lock (the paper's Figure 1
/// program). Per-body interaction counts come from real octree traversals,
/// so the workload's shape is genuine. The synchronization policies behave
/// as in the paper: Original pays one lock pair per update, Bounded
/// coalesces the per-interaction updates, and Aggressive lifts the lock out
/// of the interaction loop entirely (Figure 2), with no false exclusion
/// because each iteration locks only its own body.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_APPS_BARNES_HUT_BARNESHUTAPP_H
#define DYNFB_APPS_BARNES_HUT_BARNESHUTAPP_H

#include "apps/App.h"
#include "apps/barnes_hut/Octree.h"

#include <memory>
#include <vector>

namespace dynfb::apps::bh {

/// Configuration of the Barnes-Hut benchmark.
struct BarnesHutConfig {
  uint32_t NumBodies = 16384;  ///< Paper input: 16,384 bodies.
  double Theta = 1.15;         ///< Opening criterion.
  uint64_t Seed = 42;
  unsigned ForcesExecutions = 2; ///< The paper's run executes FORCES twice.
  rt::Nanos InteractNanos = 21800; ///< One interaction kernel.
  rt::Nanos TreeBuildNanos = rt::secondsToNanos(2.3); ///< Serial phase.

  /// Scales the body count (workload shrinking for tests / quick runs).
  void scale(double Factor);
};

/// The Barnes-Hut application.
class BarnesHutApp : public App {
public:
  explicit BarnesHutApp(const BarnesHutConfig &Config,
                        const xform::VersionSpace &Space = {});
  ~BarnesHutApp() override;

  rt::Schedule schedule() const override;
  const rt::DataBinding &binding(const std::string &Section) const override;

  /// Section name of the force computation.
  static constexpr const char *ForcesSection = "FORCES";

  const BarnesHutConfig &config() const { return Config; }
  const std::vector<Body> &bodies() const { return Bodies; }
  const std::vector<uint32_t> &interactionCounts() const {
    return InteractionCounts;
  }
  uint64_t totalInteractions() const { return TotalInteractions; }

private:
  void buildProgram();

  BarnesHutConfig Config;
  std::vector<Body> Bodies;
  std::vector<uint32_t> InteractionCounts;
  uint64_t TotalInteractions = 0;

  unsigned InteractLoopId = 0;
  unsigned InteractCostClass = 0;
  std::unique_ptr<rt::DataBinding> ForcesBinding;
};

} // namespace dynfb::apps::bh

#endif // DYNFB_APPS_BARNES_HUT_BARNESHUTAPP_H
