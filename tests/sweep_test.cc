#include "partition/sweep.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/random_graphs.h"

namespace impreg {
namespace {

TEST(SweepTest, RecoversDumbbellBridgeCut) {
  const Graph g = DumbbellGraph(5, 0);
  // A vector separating the cliques perfectly.
  Vector values(g.NumNodes(), 0.0);
  for (NodeId u = 0; u < 5; ++u) values[u] = 1.0;
  const SweepResult result = SweepCut(g, values);
  ASSERT_EQ(result.set.size(), 5u);
  EXPECT_DOUBLE_EQ(result.stats.cut, 1.0);
}

TEST(SweepTest, ProfileCoversAllPrefixes) {
  const Graph g = PathGraph(7);
  Vector values = {7, 6, 5, 4, 3, 2, 1};
  const SweepResult result = SweepCut(g, values);
  EXPECT_EQ(result.conductance_profile.size(), 7u);
  EXPECT_EQ(result.order.front(), 0);
  EXPECT_EQ(result.order.back(), 6);
  // On a path with this monotone ordering, every prefix cut has cut
  // weight exactly 1, so the best prefix is the balanced one.
  EXPECT_EQ(result.set.size(), 3u);  // Prefix {0,1,2}: vol 5 of 12.
}

TEST(SweepTest, BestPrefixMinimizesProfile) {
  Rng rng(1);
  const Graph g = ErdosRenyi(40, 0.1, rng);
  Vector values(40);
  for (double& v : values) v = rng.NextGaussian();
  const SweepResult result = SweepCut(g, values);
  double best = 2.0;
  for (std::size_t k = 0; k + 1 < result.conductance_profile.size(); ++k) {
    best = std::min(best, result.conductance_profile[k]);
  }
  EXPECT_NEAR(result.stats.conductance, best, 1e-12);
}

TEST(SweepTest, SizeBoundsRestrictWinner) {
  const Graph g = DumbbellGraph(6, 0);
  Vector values(g.NumNodes(), 0.0);
  for (NodeId u = 0; u < 6; ++u) values[u] = 10.0 - u;
  SweepOptions options;
  options.min_size = 2;
  options.max_size = 3;
  const SweepResult result = SweepCut(g, values, options);
  EXPECT_GE(result.set.size(), 2u);
  EXPECT_LE(result.set.size(), 3u);
}

TEST(SweepTest, MaxVolumeBound) {
  const Graph g = CompleteGraph(10);  // Every node has degree 9.
  Vector values(10);
  for (int i = 0; i < 10; ++i) values[i] = 10.0 - i;
  SweepOptions options;
  options.max_volume = 20.0;  // At most two nodes.
  const SweepResult result = SweepCut(g, values, options);
  EXPECT_LE(result.stats.volume, 20.0);
  EXPECT_FALSE(result.set.empty());
}

TEST(SweepTest, DegreeNormalizedOrdering) {
  // Probability mass 0.5/0.5 on a hub and a leaf: degree-normalized
  // ordering puts the leaf first.
  const Graph g = StarGraph(5);
  Vector values(5, 0.0);
  values[0] = 0.5;  // Hub, degree 4.
  values[1] = 0.5;  // Leaf, degree 1.
  SweepOptions options;
  options.scaling = SweepScaling::kDegreeNormalized;
  const SweepResult result = SweepCut(g, values, options);
  EXPECT_EQ(result.order.front(), 1);
}

TEST(SweepTest, SqrtDegreeNormalizedOrdering) {
  const Graph g = StarGraph(10);
  Vector values(10, 0.0);
  values[0] = 2.999;  // Hub, degree 9: key ≈ 1.0.
  values[1] = 1.1;    // Leaf: key 1.1.
  SweepOptions options;
  options.scaling = SweepScaling::kSqrtDegreeNormalized;
  const SweepResult result = SweepCut(g, values, options);
  EXPECT_EQ(result.order.front(), 1);
}

TEST(SweepTest, SupportSweepTouchesOnlySupport) {
  const Graph g = PathGraph(100);
  Vector values(100, 0.0);
  values[10] = 3.0;
  values[11] = 2.0;
  values[12] = 1.0;
  const SweepResult result = SweepCutOverSupport(g, values);
  EXPECT_EQ(result.order.size(), 3u);
  EXPECT_EQ(result.conductance_profile.size(), 3u);
  // Best prefix among {10}, {10,11}, {10,11,12}: all cut 2 edges;
  // conductance improves with volume, so all three nodes are kept.
  EXPECT_EQ(result.set.size(), 3u);
}

TEST(SweepTest, SupportSweepThreshold) {
  const Graph g = PathGraph(10);
  Vector values(10, 0.05);
  values[4] = 0.5;
  const SweepResult result =
      SweepCutOverSupport(g, values, SweepOptions{}, 0.1);
  EXPECT_EQ(result.order.size(), 1u);
  EXPECT_EQ(result.set, (std::vector<NodeId>{4}));
}

TEST(SweepTest, EmptySupportGivesWorstConductance) {
  const Graph g = PathGraph(5);
  const SweepResult result = SweepCutOverSupport(g, Vector(5, 0.0));
  EXPECT_TRUE(result.set.empty());
  EXPECT_DOUBLE_EQ(result.stats.conductance, 1.0);
}

TEST(SweepTest, TiesBrokenDeterministically) {
  const Graph g = CycleGraph(6);
  const Vector values(6, 1.0);
  const SweepResult a = SweepCut(g, values);
  const SweepResult b = SweepCut(g, values);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.set, b.set);
}

TEST(SweepTest, NaNValuesSortLastInIdOrder) {
  // A NaN key is unordered against every other key, which breaks the
  // sort's strict weak ordering; a NaN value gets the lowest finite key
  // instead, so the sweep is the one over that key, NaN nodes last.
  Rng rng(11);
  const Graph g = ErdosRenyi(80, 0.08, rng);
  Vector values(g.NumNodes());
  for (double& v : values) v = rng.NextGaussian();
  Vector lowest = values;
  const std::vector<NodeId> poisoned = {3, 17, 18, 40, 79};
  for (NodeId u : poisoned) {
    values[u] = std::nan("");
    lowest[u] = std::numeric_limits<double>::lowest();
  }
  const SweepResult with_nan = SweepCut(g, values);
  const SweepResult reference = SweepCut(g, lowest);
  EXPECT_EQ(with_nan.order, reference.order);
  EXPECT_EQ(with_nan.conductance_profile, reference.conductance_profile);
  EXPECT_EQ(with_nan.set, reference.set);
  EXPECT_EQ(with_nan.stats.cut, reference.stats.cut);
  ASSERT_EQ(with_nan.order.size(), static_cast<std::size_t>(g.NumNodes()));
  const std::vector<NodeId> tail(with_nan.order.end() - poisoned.size(),
                                 with_nan.order.end());
  EXPECT_EQ(tail, poisoned);
}

TEST(SweepTest, IsolatedNodesSortLastUnderDegreeScaling) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  const Graph g = builder.Build();
  Vector values = {0.1, 0.2, 0.3, 100.0};  // Node 3 isolated.
  SweepOptions options;
  options.scaling = SweepScaling::kDegreeNormalized;
  const SweepResult result = SweepCut(g, values, options);
  EXPECT_EQ(result.order.back(), 3);
}

}  // namespace
}  // namespace impreg
