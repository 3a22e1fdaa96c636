//===- apps/barnes_hut/Octree.cpp -----------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/barnes_hut/Octree.h"

#include "support/Compiler.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dynfb;
using namespace dynfb::apps::bh;

Octree::Octree(const std::vector<Body> &Bodies) : Bodies(Bodies) {
  assert(!Bodies.empty() && "octree over empty body set");

  // Root cube: bounding box of all bodies, squared up.
  Vec3 Lo = Bodies[0].Pos, Hi = Bodies[0].Pos;
  for (const Body &B : Bodies) {
    Lo.X = std::min(Lo.X, B.Pos.X);
    Lo.Y = std::min(Lo.Y, B.Pos.Y);
    Lo.Z = std::min(Lo.Z, B.Pos.Z);
    Hi.X = std::max(Hi.X, B.Pos.X);
    Hi.Y = std::max(Hi.Y, B.Pos.Y);
    Hi.Z = std::max(Hi.Z, B.Pos.Z);
  }
  Node Root;
  Root.Center = (Lo + Hi) * 0.5;
  Root.HalfSize =
      0.5 * std::max({Hi.X - Lo.X, Hi.Y - Lo.Y, Hi.Z - Lo.Z}) + 1e-9;
  Nodes.push_back(Root);

  for (uint32_t I = 0; I < Bodies.size(); ++I)
    insert(0, I, 0);
  computeMass(0);
}

int32_t Octree::childFor(int32_t NodeIdx, const Vec3 &P) {
  Node &N = Nodes[NodeIdx];
  const int Octant = (P.X >= N.Center.X ? 1 : 0) |
                     (P.Y >= N.Center.Y ? 2 : 0) |
                     (P.Z >= N.Center.Z ? 4 : 0);
  if (N.Children[Octant] >= 0)
    return N.Children[Octant];
  Node Child;
  const double Q = N.HalfSize * 0.5;
  Child.HalfSize = Q;
  Child.Center = {N.Center.X + ((Octant & 1) ? Q : -Q),
                  N.Center.Y + ((Octant & 2) ? Q : -Q),
                  N.Center.Z + ((Octant & 4) ? Q : -Q)};
  Nodes.push_back(Child);
  const int32_t Idx = static_cast<int32_t>(Nodes.size() - 1);
  // Re-fetch: push_back may have reallocated.
  Nodes[NodeIdx].Children[Octant] = Idx;
  return Idx;
}

void Octree::insert(int32_t NodeIdx, uint32_t BodyIdx, int Depth) {
  // Depth guard against coincident positions.
  static constexpr int MaxDepth = 64;
  Node &N = Nodes[NodeIdx];
  if (N.IsLeaf && N.BodyIndex < 0) {
    N.BodyIndex = static_cast<int32_t>(BodyIdx);
    return;
  }
  if (N.IsLeaf) {
    // Split: push the resident body down, then fall through.
    const int32_t Resident = N.BodyIndex;
    Nodes[NodeIdx].BodyIndex = -1;
    Nodes[NodeIdx].IsLeaf = false;
    if (Depth < MaxDepth) {
      const int32_t C =
          childFor(NodeIdx, Bodies[static_cast<uint32_t>(Resident)].Pos);
      insert(C, static_cast<uint32_t>(Resident), Depth + 1);
    } else {
      // Coincident bodies at max depth: keep as mass only (handled by
      // computeMass via the subtree's bodies; extremely unlikely with
      // generated data). Treat as internal with lost identity.
      DYNFB_UNREACHABLE("octree exceeded maximum depth");
    }
  }
  const int32_t C = childFor(NodeIdx, Bodies[BodyIdx].Pos);
  insert(C, BodyIdx, Depth + 1);
}

void Octree::computeMass(int32_t NodeIdx) {
  Node &N = Nodes[NodeIdx];
  if (N.IsLeaf) {
    if (N.BodyIndex >= 0) {
      const Body &B = Bodies[static_cast<uint32_t>(N.BodyIndex)];
      N.Mass = B.Mass;
      N.CoM = B.Pos;
    }
    return;
  }
  Vec3 Weighted;
  double Mass = 0;
  for (int32_t C : N.Children) {
    if (C < 0)
      continue;
    computeMass(C);
    const Node &Child = Nodes[C];
    Weighted += Child.CoM * Child.Mass;
    Mass += Child.Mass;
  }
  Nodes[NodeIdx].Mass = Mass;
  if (Mass > 0)
    Nodes[NodeIdx].CoM = Weighted * (1.0 / Mass);
}

double Octree::rootMass() const { return Nodes[0].Mass; }

template <typename Visit>
void Octree::walk(int32_t NodeIdx, uint32_t BodyIdx, double Theta,
                  Visit &V) const {
  const Node &N = Nodes[NodeIdx];
  if (N.Mass <= 0)
    return;
  if (N.IsLeaf) {
    if (N.BodyIndex >= 0 && static_cast<uint32_t>(N.BodyIndex) != BodyIdx)
      V(N);
    return;
  }
  const double Dist2 = (N.CoM - Bodies[BodyIdx].Pos).norm2();
  const double Size = 2.0 * N.HalfSize;
  if (Size * Size < Theta * Theta * Dist2) {
    // Far enough: interact with the cell's center of mass.
    V(N);
    return;
  }
  for (int32_t C : N.Children)
    if (C >= 0)
      walk(C, BodyIdx, Theta, V);
}

ForceResult Octree::computeForce(uint32_t Index, double Theta,
                                 double Eps) const {
  ForceResult Out;
  const Vec3 &From = Bodies[Index].Pos;
  auto Accumulate = [&](const Node &N) {
    const Vec3 D = N.CoM - From;
    const double R2 = D.norm2() + Eps * Eps;
    const double R = std::sqrt(R2);
    const double Inv3 = 1.0 / (R2 * R);
    Out.Acc += D * (N.Mass * Inv3);
    Out.Phi -= N.Mass / R;
    ++Out.Interactions;
  };
  walk(0, Index, Theta, Accumulate);
  return Out;
}

uint32_t Octree::countInteractions(uint32_t Index, double Theta) const {
  uint32_t Count = 0;
  auto Tally = [&](const Node &) { ++Count; };
  walk(0, Index, Theta, Tally);
  return Count;
}

std::vector<Body> apps::bh::makePlummerBodies(uint32_t N, uint64_t Seed) {
  std::vector<Body> Bodies(N);
  Rng R(Seed);
  for (Body &B : Bodies) {
    // Plummer-like radial profile (truncated), isotropic direction.
    const double U = R.uniform(1e-4, 0.999);
    const double Radius =
        1.0 / std::sqrt(std::pow(U, -2.0 / 3.0) - 1.0 + 1e-9);
    const double CosT = R.uniform(-1.0, 1.0);
    const double SinT = std::sqrt(std::max(0.0, 1.0 - CosT * CosT));
    const double Phi = R.uniform(0.0, 2.0 * 3.14159265358979323846);
    const double Rad = std::min(Radius, 8.0);
    B.Pos = {Rad * SinT * std::cos(Phi), Rad * SinT * std::sin(Phi),
             Rad * CosT};
    B.Mass = 1.0 / static_cast<double>(N);
  }
  return Bodies;
}
