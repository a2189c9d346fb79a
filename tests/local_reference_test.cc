// Independent references for hk-relax and Nibble. Each kernel sums in
// its own discovery order, so comparing it with itself proves little;
// here a dense reference written from the edge list — no graph rows, no
// kernel code — bounds its answer, accounts for its truncated mass, and
// recomputes its cut statistics. The graphs are small, weighted, and
// carry a self-loop and an isolated node.

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "diffusion/seed.h"
#include "graph/graph.h"
#include "partition/hkrelax.h"
#include "partition/nibble.h"

namespace impreg {
namespace {

struct Edge {
  NodeId u;
  NodeId v;
  double weight;
};

constexpr NodeId kNodes = 10;
constexpr NodeId kIsolated = 9;

/// Two clusters, {0..4} and {5..8}, joined by one light bridge; node 2
/// carries a self-loop and node 9 has no edge. `scale` multiplies every
/// weight: 1 keeps them integers.
std::vector<Edge> Edges(double scale) {
  const std::vector<Edge> base = {
      {0, 1, 3}, {0, 2, 2}, {1, 2, 3}, {1, 3, 1}, {2, 3, 2}, {2, 2, 2},
      {3, 4, 3}, {0, 4, 1}, {4, 5, 1}, {5, 6, 3}, {5, 7, 2}, {6, 7, 2},
      {6, 8, 1}, {7, 8, 3}};
  std::vector<Edge> edges;
  for (const Edge& e : base) edges.push_back({e.u, e.v, e.weight * scale});
  return edges;
}

Graph BuildGraph(const std::vector<Edge>& edges) {
  GraphBuilder builder(kNodes);
  for (const Edge& e : edges) builder.AddEdge(e.u, e.v, e.weight);
  return builder.Build();
}

/// The dense weighted adjacency: W[u][v], a self-loop counted once.
using Dense = std::vector<std::vector<double>>;

Dense Adjacency(const std::vector<Edge>& edges) {
  Dense w(kNodes, std::vector<double>(kNodes, 0.0));
  for (const Edge& e : edges) {
    w[e.u][e.v] += e.weight;
    if (e.u != e.v) w[e.v][e.u] += e.weight;
  }
  return w;
}

std::vector<double> Degrees(const Dense& w) {
  std::vector<double> d(kNodes, 0.0);
  for (NodeId u = 0; u < kNodes; ++u) {
    for (NodeId v = 0; v < kNodes; ++v) d[u] += w[u][v];
  }
  return d;
}

/// M q with M = W D^{-1}; mass on an isolated node is annihilated.
std::vector<double> WalkStep(const Dense& w, const std::vector<double>& q) {
  const std::vector<double> d = Degrees(w);
  std::vector<double> out(kNodes, 0.0);
  for (NodeId u = 0; u < kNodes; ++u) {
    if (d[u] <= 0.0) continue;
    for (NodeId v = 0; v < kNodes; ++v) out[v] += w[v][u] / d[u] * q[u];
  }
  return out;
}

/// One lazy step α q + (1 − α) M q; an isolated node keeps its mass.
std::vector<double> LazyStep(const Dense& w, const std::vector<double>& q,
                             double alpha) {
  const std::vector<double> d = Degrees(w);
  const std::vector<double> moved = WalkStep(w, q);
  std::vector<double> out(kNodes, 0.0);
  for (NodeId u = 0; u < kNodes; ++u) {
    out[u] = d[u] <= 0.0 ? q[u] : alpha * q[u] + (1.0 - alpha) * moved[u];
  }
  return out;
}

/// Cut statistics of `set` from a dense mask over W.
CutStats MaskStats(const Dense& w, const std::vector<NodeId>& set) {
  const std::vector<double> d = Degrees(w);
  std::vector<char> mask(kNodes, 0);
  for (NodeId u : set) mask[u] = 1;
  CutStats stats;
  for (NodeId u = 0; u < kNodes; ++u) {
    if (!mask[u]) {
      stats.complement_volume += d[u];
      continue;
    }
    ++stats.size;
    stats.volume += d[u];
    for (NodeId v = 0; v < kNodes; ++v) {
      if (!mask[v]) stats.cut += w[u][v];
    }
  }
  const double denom = std::min(stats.volume, stats.complement_volume);
  stats.conductance = denom > 0.0 ? stats.cut / denom : 1.0;
  return stats;
}

void ExpectStatsMatch(const CutStats& got, const CutStats& want,
                      bool exact) {
  EXPECT_EQ(got.size, want.size);
  if (exact) {
    EXPECT_EQ(got.cut, want.cut);
    EXPECT_EQ(got.volume, want.volume);
    EXPECT_EQ(got.complement_volume, want.complement_volume);
    EXPECT_EQ(got.conductance, want.conductance);
  } else {
    EXPECT_NEAR(got.cut, want.cut, 1e-12 * want.cut);
    EXPECT_NEAR(got.volume, want.volume, 1e-12 * want.volume);
    EXPECT_NEAR(got.complement_volume, want.complement_volume,
                1e-12 * want.complement_volume);
    EXPECT_NEAR(got.conductance, want.conductance, 1e-12);
  }
}

struct Case {
  double scale;  ///< 1 = integer weights.
  std::vector<NodeId> seeds;
  double cutoff;  ///< Nibble's ε, hk-relax's δ.
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (const double scale : {1.0, 0.37}) {
    for (const std::vector<NodeId>& seeds :
         {std::vector<NodeId>{0}, std::vector<NodeId>{3, kIsolated},
          std::vector<NodeId>{6}}) {
      for (const double cutoff : {1e-3, 2e-2}) {
        cases.push_back({scale, seeds, cutoff});
      }
    }
  }
  return cases;
}

TEST(LocalReferenceTest, NibbleIsBoundedByTheLazyWalkAndLosesTruncatedMass) {
  int truncating = 0;
  int with_set = 0;
  for (const Case& c : Cases()) {
    SCOPED_TRACE(::testing::Message() << "scale " << c.scale << ", seed "
                                      << c.seeds.front() << ", ε "
                                      << c.cutoff);
    const std::vector<Edge> edges = Edges(c.scale);
    const Graph g = BuildGraph(edges);
    const Dense w = Adjacency(edges);
    const Vector seed = SeedSetDistribution(g, c.seeds);
    NibbleOptions options;
    options.steps = 12;
    options.epsilon = c.cutoff / c.scale;  // ε·d(u) in the graph's units.
    const NibbleResult result = NibbleFromDistribution(g, seed, options);
    ASSERT_EQ(result.diagnostics.status, SolveStatus::kConverged);

    std::vector<double> q(seed.begin(), seed.end());
    for (int step = 0; step < result.diagnostics.iterations; ++step) {
      q = LazyStep(w, q, options.alpha);
    }
    double gap = 0.0;
    for (NodeId u = 0; u < kNodes; ++u) {
      EXPECT_GE(result.distribution[u], 0.0);
      EXPECT_LE(result.distribution[u], q[u] * (1.0 + 1e-12)) << "node " << u;
      gap += q[u] - result.distribution[u];
    }
    // The walk is nonnegative and keeps ℓ1 mass, so what the truncated
    // walk lacks is exactly what it truncated.
    EXPECT_NEAR(gap, result.truncated_mass, 1e-12);
    truncating += result.truncated_mass > 0.0 ? 1 : 0;

    if (!result.set.empty()) {
      ++with_set;
      ExpectStatsMatch(result.stats, MaskStats(w, result.set),
                       c.scale == 1.0);
    }
  }
  EXPECT_GT(truncating, 0);
  EXPECT_GT(with_set, 0);
}

TEST(LocalReferenceTest, HkRelaxIsBoundedByTheDenseTaylorSum) {
  int dropping = 0;
  int with_set = 0;
  for (const Case& c : Cases()) {
    SCOPED_TRACE(::testing::Message() << "scale " << c.scale << ", seed "
                                      << c.seeds.front() << ", δ "
                                      << c.cutoff);
    const std::vector<Edge> edges = Edges(c.scale);
    const Graph g = BuildGraph(edges);
    const Dense w = Adjacency(edges);
    const Vector seed = SeedSetDistribution(g, c.seeds);
    HkRelaxOptions options;
    options.t = 4.0;
    options.delta = c.cutoff / c.scale;
    const HkRelaxResult result =
        HeatKernelRelaxFromDistribution(g, seed, options);
    ASSERT_EQ(result.diagnostics.status, SolveStatus::kConverged);

    // ρ_K = e^{−t} Σ_{k=0}^{K} (t^k/k!) M^k s with K = result.terms.
    std::vector<double> term(seed.begin(), seed.end());
    std::vector<double> reference = term;
    double poisson = 1.0;
    for (int k = 1; k <= result.terms; ++k) {
      term = WalkStep(w, term);
      poisson *= options.t / k;
      for (NodeId u = 0; u < kNodes; ++u) reference[u] += poisson * term[u];
    }
    for (NodeId u = 0; u < kNodes; ++u) {
      reference[u] *= std::exp(-options.t);
      EXPECT_GE(result.rho[u], 0.0);
      EXPECT_LE(result.rho[u], reference[u] * (1.0 + 1e-12)) << "node " << u;
    }
    dropping += result.dropped_mass > 0.0 ? 1 : 0;

    if (!result.set.empty()) {
      ++with_set;
      ExpectStatsMatch(result.stats, MaskStats(w, result.set),
                       c.scale == 1.0);
    }
  }
  EXPECT_GT(dropping, 0);
  EXPECT_GT(with_set, 0);
}

}  // namespace
}  // namespace impreg
