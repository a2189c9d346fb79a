#include "graph/random_graphs.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/algorithms.h"

namespace impreg {
namespace {

TEST(ErdosRenyiTest, EdgeCountConcentrates) {
  Rng rng(1);
  const NodeId n = 400;
  const double p = 0.05;
  const Graph g = ErdosRenyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(g.NumEdges(), expected, 5.0 * std::sqrt(expected));
  EXPECT_EQ(g.NumNodes(), n);
}

TEST(ErdosRenyiTest, ExtremeProbabilities) {
  Rng rng(2);
  EXPECT_EQ(ErdosRenyi(50, 0.0, rng).NumEdges(), 0);
  EXPECT_EQ(ErdosRenyi(10, 1.0, rng).NumEdges(), 45);
}

TEST(ErdosRenyiTest, NoSelfLoopsOrParallel) {
  Rng rng(3);
  const Graph g = ErdosRenyi(100, 0.2, rng);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_FALSE(g.HasEdge(u, u));
    for (double weight : g.Weights(u)) {
      EXPECT_DOUBLE_EQ(weight, 1.0);  // No merged parallels.
    }
  }
}

TEST(GnmTest, ExactEdgeCount) {
  Rng rng(4);
  const Graph g = GnmRandom(60, 300, rng);
  EXPECT_EQ(g.NumEdges(), 300);
  EXPECT_EQ(g.NumNodes(), 60);
}

TEST(GnmTest, FullGraph) {
  Rng rng(5);
  const Graph g = GnmRandom(8, 28, rng);
  EXPECT_EQ(g.NumEdges(), 28);
}

TEST(ChungLuTest, ExpectedDegreesRealized) {
  Rng rng(6);
  const NodeId n = 2000;
  std::vector<double> weights(n, 10.0);  // Homogeneous: like G(n,p).
  const Graph g = ChungLu(weights, rng);
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_NEAR(stats.mean, 10.0, 0.5);
}

TEST(ChungLuTest, HeterogeneousDegreesTrackWeights) {
  Rng rng(7);
  const NodeId n = 3000;
  std::vector<double> weights = PowerLawWeights(n, 2.5, 8.0);
  const Graph g = ChungLu(weights, rng);
  // Total degree ≈ total weight.
  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  EXPECT_NEAR(g.TotalVolume(), total_weight, 0.08 * total_weight);
  // High-weight node 0 should get a much larger degree than the median.
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_GT(g.Degree(0), 4.0 * stats.median);
}

TEST(PowerLawWeightsTest, AverageMatches) {
  const std::vector<double> w = PowerLawWeights(1000, 2.5, 8.0);
  double sum = 0.0;
  for (double v : w) sum += v;
  EXPECT_NEAR(sum / 1000.0, 8.0, 1e-9);
  // Monotone decreasing.
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LE(w[i], w[i - 1]);
}

TEST(BarabasiAlbertTest, StructureAndHubs) {
  Rng rng(8);
  const Graph g = BarabasiAlbert(1000, 3, rng);
  EXPECT_EQ(g.NumNodes(), 1000);
  EXPECT_TRUE(IsConnected(g));
  // Every non-seed node adds exactly 3 edges (merging is possible but
  // rare and only reduces the count).
  EXPECT_LE(g.NumEdges(), 3 + 997 * 3);
  EXPECT_GE(g.NumEdges(), 997 * 3 / 2);
  // Preferential attachment produces a hub well above the mean.
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_GT(stats.max, 5.0 * stats.mean);
}

TEST(WattsStrogatzTest, NoRewireIsRingLattice) {
  Rng rng(9);
  const Graph g = WattsStrogatz(50, 4, 0.0, rng);
  EXPECT_EQ(g.NumEdges(), 100);
  for (NodeId u = 0; u < 50; ++u) EXPECT_DOUBLE_EQ(g.Degree(u), 4.0);
}

TEST(WattsStrogatzTest, RewiringPreservesEdgeCount) {
  Rng rng(10);
  const Graph g = WattsStrogatz(100, 6, 0.3, rng);
  EXPECT_EQ(g.NumEdges(), 300);
  EXPECT_EQ(g.NumNodes(), 100);
}

TEST(WattsStrogatzTest, RewiringShrinksDiameter) {
  Rng rng(11);
  const Graph lattice = WattsStrogatz(300, 4, 0.0, rng);
  const Graph small_world = WattsStrogatz(300, 4, 0.2, rng);
  EXPECT_LT(EstimateDiameter(small_world), EstimateDiameter(lattice));
}

TEST(RandomRegularTest, IsSimpleAndRegular) {
  Rng rng(12);
  for (int d : {3, 4, 10}) {
    const Graph g = RandomRegular(200, d, rng);
    EXPECT_EQ(g.NumNodes(), 200);
    EXPECT_EQ(g.NumEdges(), 100 * d);
    for (NodeId u = 0; u < 200; ++u) {
      EXPECT_DOUBLE_EQ(g.Degree(u), static_cast<double>(d));
      EXPECT_FALSE(g.HasEdge(u, u));
    }
  }
}

TEST(RandomRegularTest, ThreeRegularIsConnectedWhp) {
  Rng rng(13);
  // d ≥ 3 random regular graphs are connected w.h.p.; with a fixed seed
  // this is deterministic.
  EXPECT_TRUE(IsConnected(RandomRegular(500, 3, rng)));
}

TEST(PlantedPartitionTest, BlockStructure) {
  Rng rng(14);
  const Graph g = PlantedPartition(4, 50, 0.4, 0.01, rng);
  EXPECT_EQ(g.NumNodes(), 200);
  // Count within vs across edges.
  std::int64_t within = 0, across = 0;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v : g.Heads(u)) {
      if (v > u) {
        (u / 50 == v / 50 ? within : across) += 1;
      }
    }
  }
  const double expected_within = 4 * 0.4 * 50 * 49 / 2.0;
  const double expected_across = 6 * 0.01 * 50 * 50;
  EXPECT_NEAR(within, expected_within, 5.0 * std::sqrt(expected_within));
  EXPECT_NEAR(across, expected_across, 5.0 * std::sqrt(expected_across));
}

TEST(PlantedPartitionTest, ZeroAcrossIsDisconnectedBlocks) {
  Rng rng(15);
  const Graph g = PlantedPartition(3, 20, 1.0, 0.0, rng);
  EXPECT_EQ(CountComponents(g), 3);
  EXPECT_EQ(g.NumEdges(), 3 * 190);
}


TEST(ForestFireTest, ConnectedAndSized) {
  Rng rng(20);
  const Graph g = ForestFire(500, 0.35, rng);
  EXPECT_EQ(g.NumNodes(), 500);
  EXPECT_TRUE(IsConnected(g));  // Every arrival links to its ambassador.
  EXPECT_GE(g.NumEdges(), 499);  // At least the arrival tree.
}

TEST(ForestFireTest, BurningProbabilityControlsDensity) {
  Rng rng(21);
  const Graph sparse = ForestFire(400, 0.1, rng);
  const Graph dense = ForestFire(400, 0.45, rng);
  EXPECT_GT(dense.NumEdges(), sparse.NumEdges());
}

TEST(ForestFireTest, ZeroBurningIsARandomRecursiveTree) {
  Rng rng(22);
  const Graph g = ForestFire(200, 0.0, rng);
  EXPECT_EQ(g.NumEdges(), 199);
  EXPECT_TRUE(IsConnected(g));
}

TEST(ForestFireTest, ProducesHeavyTailAndClustering) {
  Rng rng(23);
  const Graph g = ForestFire(2000, 0.4, rng);
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_GT(stats.max, 6.0 * stats.mean);  // Heavy tail.
}

TEST(DeterminismTest, SameSeedSameGraph) {
  Rng rng_a(99), rng_b(99);
  const Graph a = ErdosRenyi(200, 0.1, rng_a);
  const Graph b = ErdosRenyi(200, 0.1, rng_b);
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (NodeId u = 0; u < a.NumNodes(); ++u) {
    const auto ha = a.Heads(u);
    const auto hb = b.Heads(u);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i], hb[i]);
    }
  }
}

}  // namespace
}  // namespace impreg
