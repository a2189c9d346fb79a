// Cross-module property tests: algebraic identities and invariants that
// tie the substrates together, checked over a parameterized family of
// graphs. These catch exactly the bugs unit tests miss — two modules
// each "working" but disagreeing about conventions.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/impreg.h"

namespace impreg {
namespace {

Graph Family(int id) {
  Rng rng(500 + id);
  switch (id) {
    case 0:
      return PathGraph(30);
    case 1:
      return CycleGraph(24);
    case 2:
      return CompleteGraph(12);
    case 3:
      return StarGraph(16);
    case 4:
      return GridGraph(5, 6);
    case 5:
      return CavemanGraph(3, 6);
    case 6:
      return LollipopGraph(8, 6);
    case 7:
      return CockroachGraph(5);
    case 8: {
      Graph g = ErdosRenyi(40, 0.15, rng);
      while (!IsConnected(g)) g = ErdosRenyi(40, 0.15, rng);
      return g;
    }
    default: {
      // Weighted graph with a self-loop.
      GraphBuilder b(10);
      for (NodeId i = 0; i + 1 < 10; ++i) b.AddEdge(i, i + 1, 1.0 + i * 0.3);
      b.AddEdge(0, 9, 2.0);
      b.AddEdge(4, 4, 1.5);
      b.AddEdge(2, 7, 0.25);
      return b.Build();
    }
  }
}

class PropertyTest : public testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Families, PropertyTest,
                         testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9));

TEST_P(PropertyTest, LanczosAgreesWithJacobiOnLambda2) {
  const Graph g = Family(GetParam());
  const NormalizedLaplacianOperator lap(g);
  LanczosOptions options;
  options.deflate.push_back(lap.TrivialEigenvector());
  options.max_iterations = 400;
  const LanczosResult lanczos = LanczosSmallest(lap, 1, options);
  const SymmetricEigen dense =
      SymmetricEigendecomposition(DenseNormalizedLaplacian(g));
  EXPECT_NEAR(lanczos.eigenvalues[0], dense.eigenvalues[1], 1e-8);
}

TEST_P(PropertyTest, NormalizedLaplacianIsConjugatedCombinatorial) {
  // ℒ = D^{-1/2} L D^{-1/2} (on positive-degree nodes): check on random
  // vectors via both operators.
  const Graph g = Family(GetParam());
  const NormalizedLaplacianOperator norm(g);
  const CombinatorialLaplacianOperator comb(g);
  Rng rng(GetParam());
  Vector x(g.NumNodes());
  for (double& v : x) v = rng.NextGaussian();
  // y1 = ℒ x.
  Vector y1;
  norm.Apply(x, y1);
  // y2 = D^{-1/2} L D^{-1/2} x.
  Vector scaled(g.NumNodes(), 0.0);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) > 0.0) scaled[u] = x[u] / std::sqrt(g.Degree(u));
  }
  Vector mid;
  comb.Apply(scaled, mid);
  Vector y2(g.NumNodes(), 0.0);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) > 0.0) y2[u] = mid[u] / std::sqrt(g.Degree(u));
  }
  EXPECT_LT(DistanceL2(y1, y2), 1e-10 * (1.0 + Norm2(y1)));
}

TEST_P(PropertyTest, HeatKernelSemigroup) {
  // exp(−(s+t)ℒ) = exp(−sℒ) exp(−tℒ).
  const Graph g = Family(GetParam());
  Rng rng(GetParam() + 1);
  Vector x(g.NumNodes());
  for (double& v : x) v = rng.NextGaussian();
  HeatKernelOptions t1;
  t1.t = 1.3;
  HeatKernelOptions t2;
  t2.t = 2.2;
  HeatKernelOptions sum;
  sum.t = 3.5;
  const Vector chained =
      HeatKernelNormalized(g, HeatKernelNormalized(g, x, t1), t2);
  const Vector direct = HeatKernelNormalized(g, x, sum);
  EXPECT_LT(DistanceL2(chained, direct), 1e-7 * (1.0 + Norm2(direct)));
}

TEST_P(PropertyTest, PageRankFixpointEquation) {
  // p = γ s + (1−γ) M p must hold at the solution.
  const Graph g = Family(GetParam());
  const Vector seed = SingleNodeSeed(g, g.NumNodes() / 2);
  PageRankOptions options;
  options.gamma = 0.2;
  options.tolerance = 1e-14;
  const Vector p = PersonalizedPageRank(g, seed, options).scores;
  const RandomWalkOperator walk(g);
  Vector mp;
  walk.Apply(p, mp);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_NEAR(p[u], 0.2 * seed[u] + 0.8 * mp[u], 1e-10);
  }
}

TEST_P(PropertyTest, PushPlusResidualPprIsExact) {
  // ACL identity: pr(s) = p + pr(r) — the residual accounts exactly
  // for the approximation error.
  const Graph g = Family(GetParam());
  PushOptions push;
  push.alpha = 0.15;
  push.epsilon = 1e-3;
  const Vector seed = SingleNodeSeed(g, 0);
  const PushResult approx = ApproximatePageRank(g, seed, push);
  PageRankOptions pr;
  pr.gamma = StandardTeleportFromLazy(push.alpha);
  pr.tolerance = 1e-14;
  pr.max_iterations = 100000;
  const Vector exact_s = PersonalizedPageRank(g, seed, pr).scores;
  const Vector pr_residual =
      PersonalizedPageRank(g, approx.residual, pr).scores;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_NEAR(exact_s[u], approx.p[u] + pr_residual[u], 1e-8);
  }
}

TEST_P(PropertyTest, SweepProfileMatchesDirectConductance) {
  const Graph g = Family(GetParam());
  Rng rng(GetParam() + 2);
  Vector values(g.NumNodes());
  for (double& v : values) v = rng.NextGaussian();
  const SweepResult sweep = SweepCut(g, values);
  // Check a handful of prefixes directly.
  for (std::size_t k : {std::size_t{1}, sweep.order.size() / 3,
                        sweep.order.size() / 2, sweep.order.size() - 1}) {
    if (k < 1 || k >= sweep.order.size()) continue;
    const std::vector<NodeId> prefix(sweep.order.begin(),
                                     sweep.order.begin() + k);
    EXPECT_NEAR(sweep.conductance_profile[k - 1],
                ComputeCutStats(g, prefix).conductance, 1e-10);
  }
}

TEST_P(PropertyTest, SupportSweepEqualsGlobalSweepOnFullSupport) {
  const Graph g = Family(GetParam());
  Rng rng(GetParam() + 3);
  Vector values(g.NumNodes());
  for (double& v : values) v = rng.NextDouble() + 0.01;  // All positive.
  const SweepResult global = SweepCut(g, values);
  const SweepResult support = SweepCutOverSupport(g, values);
  EXPECT_EQ(global.order, support.order);
  EXPECT_EQ(global.set, support.set);
}

TEST_P(PropertyTest, LazyWalkMatchesOperatorPowers) {
  const Graph g = Family(GetParam());
  const Vector seed = SingleNodeSeed(g, 0);
  LazyWalkOptions options;
  options.alpha = 0.5;
  options.steps = 6;
  const Vector walked = LazyWalk(g, seed, options);
  // Apply the operator six times manually.
  const LazyWalkOperator op(g, 0.5);
  Vector current = seed, next;
  for (int i = 0; i < 6; ++i) {
    op.Apply(current, next);
    current.swap(next);
  }
  EXPECT_LT(DistanceL1(walked, current), 1e-12);
}

TEST_P(PropertyTest, MqiFixpointAgreesWithBruteForceOnSmallGraphs) {
  const Graph g = Family(GetParam());
  if (g.NumNodes() > 24) return;  // Brute force bound.
  // Run MQI from the full "half" split; its final set can do no better
  // than the global optimum and must be a valid set.
  std::vector<NodeId> half;
  for (NodeId u = 0; u < g.NumNodes() / 2; ++u) half.push_back(u);
  const MqiResult result = Mqi(g, half);
  const double optimal = BruteForceMinConductance(g);
  EXPECT_GE(result.stats.conductance, optimal - 1e-12);
}

TEST_P(PropertyTest, WhiskersAreDisjointAndBridgeBounded) {
  const Graph g = Family(GetParam());
  const std::vector<Whisker> whiskers = FindWhiskers(g);
  std::vector<char> seen(g.NumNodes(), 0);
  for (const Whisker& w : whiskers) {
    for (NodeId u : w.nodes) {
      EXPECT_FALSE(seen[u]);  // Disjoint.
      seen[u] = 1;
    }
    // Each whisker is detached by exactly one (bridge) edge.
    std::vector<char> in_whisker(g.NumNodes(), 0);
    for (NodeId u : w.nodes) in_whisker[u] = 1;
    int crossing_edges = 0;
    for (NodeId u : w.nodes) {
      for (NodeId v : g.Heads(u)) {
        if (v != u && !in_whisker[v]) ++crossing_edges;
      }
    }
    EXPECT_EQ(crossing_edges, 1);
    EXPECT_GT(w.volume, 0.0);
  }
}

TEST_P(PropertyTest, CoreNumbersMonotoneUnderKCore) {
  const Graph g = Family(GetParam());
  const std::vector<int> core = CoreNumbers(g);
  const int degeneracy = Degeneracy(g);
  EXPECT_TRUE(KCore(g, degeneracy + 1).empty());
  EXPECT_EQ(KCore(g, 0).size(), static_cast<std::size_t>(g.NumNodes()));
}

// —— Operator invariants exercised under the parallel execution path ——
// Each of these pins an algebraic identity of the §3.1 matrices while
// the kernels run on a multi-thread pool (ScopedNumThreads(4)), so a
// data race or mis-partitioned chunk shows up as a broken identity.

TEST_P(PropertyTest, NormalizedLaplacianIsSelfAdjointUnderParallelPath) {
  // ℒ is symmetric: ⟨ℒx, y⟩ = ⟨x, ℒy⟩.
  const ScopedNumThreads threads(4);
  const Graph g = Family(GetParam());
  const NormalizedLaplacianOperator lap(g);
  Rng rng(700 + GetParam());
  Vector x(g.NumNodes()), y(g.NumNodes());
  for (double& v : x) v = rng.NextGaussian();
  for (double& v : y) v = rng.NextGaussian();
  const Vector lx = lap.Apply(x);
  const Vector ly = lap.Apply(y);
  const double scale = 1.0 + std::abs(Dot(lx, y));
  EXPECT_NEAR(Dot(lx, y), Dot(x, ly), 1e-10 * scale);
}

TEST_P(PropertyTest, RandomWalkIsColumnStochasticUnderParallelPath) {
  // M = A D^{-1} preserves total mass: 1ᵀ M x = 1ᵀ x (the families have
  // no isolated nodes, so no mass is annihilated).
  const ScopedNumThreads threads(4);
  const Graph g = Family(GetParam());
  const RandomWalkOperator walk(g);
  Rng rng(710 + GetParam());
  Vector x(g.NumNodes());
  for (double& v : x) v = rng.NextDouble();  // Nonnegative charge.
  const Vector mx = walk.Apply(x);
  EXPECT_NEAR(Sum(mx), Sum(x), 1e-10 * (1.0 + Sum(x)));
}

TEST_P(PropertyTest, LazyWalkIsConvexCombinationUnderParallelPath) {
  // W_α = αI + (1−α)M, entry by entry, for α ∈ {0, ½, 1}.
  const ScopedNumThreads threads(4);
  const Graph g = Family(GetParam());
  const RandomWalkOperator walk(g);
  Rng rng(720 + GetParam());
  Vector x(g.NumNodes());
  for (double& v : x) v = rng.NextGaussian();
  const Vector mx = walk.Apply(x);
  for (const double alpha : {0.0, 0.5, 1.0}) {
    const LazyWalkOperator lazy(g, alpha);
    const Vector wx = lazy.Apply(x);
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      EXPECT_NEAR(wx[u], alpha * x[u] + (1.0 - alpha) * mx[u], 1e-12)
          << "alpha " << alpha << " node " << u;
    }
  }
}

TEST_P(PropertyTest, CombinatorialLaplacianAnnihilatesConstantsUnderParallelPath) {
  // L·1 = 0: every row of D − A sums to zero.
  const ScopedNumThreads threads(4);
  const Graph g = Family(GetParam());
  const CombinatorialLaplacianOperator lap(g);
  const Vector ones(g.NumNodes(), 1.0);
  const Vector l1 = lap.Apply(ones);
  double max_degree = 0.0;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    max_degree = std::max(max_degree, g.Degree(u));
  }
  EXPECT_LE(NormInf(l1), 1e-12 * (1.0 + max_degree));
}

TEST_P(PropertyTest, MonteCarloIsUnbiasedInExpectationShape) {
  // Cheap sanity: the MC estimate's mass equals 1 and its support is a
  // subset of nodes reachable from the seed.
  const Graph g = Family(GetParam());
  MonteCarloOptions options;
  options.walks_per_node = 200;
  options.gamma = 0.25;
  const Vector estimate = MonteCarloPersonalizedPageRank(g, 0, options);
  EXPECT_NEAR(Sum(estimate), 1.0, 1e-12);
  const std::vector<int> dist = BfsDistances(g, 0);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (estimate[u] > 0.0) {
      EXPECT_GE(dist[u], 0);
    }
  }
}

}  // namespace
}  // namespace impreg
