//===- apps/barnes_hut/Octree.h - Hierarchical N-body octree ----*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A real Barnes-Hut octree: bodies are inserted into an adaptive oct-tree,
/// centers of mass are computed bottom-up, and the force on each body is
/// evaluated by the standard theta-criterion traversal. The traversal both
/// computes real accelerations (used by the native example application) and
/// yields the per-body interaction counts that drive the simulator's
/// workload for the FORCES section.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_APPS_BARNES_HUT_OCTREE_H
#define DYNFB_APPS_BARNES_HUT_OCTREE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dynfb::apps::bh {

/// Simple 3-vector.
struct Vec3 {
  double X = 0, Y = 0, Z = 0;

  Vec3 operator+(const Vec3 &O) const { return {X + O.X, Y + O.Y, Z + O.Z}; }
  Vec3 operator-(const Vec3 &O) const { return {X - O.X, Y - O.Y, Z - O.Z}; }
  Vec3 operator*(double S) const { return {X * S, Y * S, Z * S}; }
  Vec3 &operator+=(const Vec3 &O) {
    X += O.X;
    Y += O.Y;
    Z += O.Z;
    return *this;
  }
  double norm2() const { return X * X + Y * Y + Z * Z; }
};

/// One body of the N-body system.
struct Body {
  Vec3 Pos;
  Vec3 Vel;
  double Mass = 1.0;
  Vec3 Acc;     ///< Accumulated acceleration (the commuting updates).
  double Phi = 0; ///< Accumulated potential.
};

/// Result of one force traversal.
struct ForceResult {
  Vec3 Acc;
  double Phi = 0;
  uint32_t Interactions = 0; ///< Body-body plus body-cell interactions.
};

/// Adaptive octree over a set of bodies.
class Octree {
public:
  /// Builds the tree over \p Bodies (positions and masses are read).
  explicit Octree(const std::vector<Body> &Bodies);

  /// Computes the force on body \p Index with opening criterion \p Theta
  /// and Plummer softening \p Eps.
  ForceResult computeForce(uint32_t Index, double Theta, double Eps) const;

  /// computeForce(Index, Theta, Eps).Interactions for any Eps, without the
  /// force arithmetic: the same traversal and opening test, counting only.
  uint32_t countInteractions(uint32_t Index, double Theta) const;

  /// Number of tree nodes (for tests).
  size_t nodeCount() const { return Nodes.size(); }

  /// Total mass at the root (for tests; equals the sum of body masses).
  double rootMass() const;

private:
  struct Node {
    Vec3 Center;      ///< Geometric center of the cube.
    double HalfSize = 0;
    Vec3 CoM;         ///< Center of mass.
    double Mass = 0;
    int32_t BodyIndex = -1; ///< >= 0 for leaves holding one body.
    int32_t Children[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
    bool IsLeaf = true;
  };

  void insert(int32_t NodeIdx, uint32_t BodyIdx, int Depth);
  int32_t childFor(int32_t NodeIdx, const Vec3 &P);
  void computeMass(int32_t NodeIdx);
  /// The theta-criterion traversal for body \p BodyIdx below \p NodeIdx:
  /// calls \p V on every node (leaf or far cell) the body interacts with.
  template <typename Visit>
  void walk(int32_t NodeIdx, uint32_t BodyIdx, double Theta, Visit &V) const;

  const std::vector<Body> &Bodies;
  std::vector<Node> Nodes;
};

/// Generates \p N bodies in a Plummer-like spherical distribution,
/// deterministic in \p Seed.
std::vector<Body> makePlummerBodies(uint32_t N, uint64_t Seed);

} // namespace dynfb::apps::bh

#endif // DYNFB_APPS_BARNES_HUT_OCTREE_H
