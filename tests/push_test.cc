#include "partition/push.h"

#include <cmath>

#include <gtest/gtest.h>

#include "diffusion/pagerank.h"
#include "diffusion/seed.h"
#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "graph/social.h"

namespace impreg {
namespace {

TEST(PushTest, TeleportConversionsAreInverse) {
  for (double gamma : {0.05, 0.15, 0.5, 0.9}) {
    EXPECT_NEAR(StandardTeleportFromLazy(LazyTeleportFromStandard(gamma)),
                gamma, 1e-14);
  }
}

TEST(PushTest, ResidualGuaranteeHolds) {
  Rng rng(1);
  const Graph g = ErdosRenyi(100, 0.06, rng);
  PushOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-4;
  const PushResult result =
      ApproximatePageRank(g, SingleNodeSeed(g, 0), options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) > 0.0) {
      EXPECT_LT(result.residual[u], options.epsilon * g.Degree(u));
    }
  }
}

TEST(PushTest, MassConservation) {
  Rng rng(2);
  const Graph g = ErdosRenyi(80, 0.08, rng);
  const PushResult result =
      ApproximatePageRank(g, SingleNodeSeed(g, 3), {});
  // p-mass + residual mass = seed mass (the push rule conserves mass).
  EXPECT_NEAR(Sum(result.p) + Sum(result.residual), 1.0, 1e-10);
}

TEST(PushTest, UnderestimatesExactLazyPpr) {
  // p = pr(s) − pr(r) entrywise with pr nonnegative ⇒ p ≤ exact PPR.
  Rng rng(3);
  const Graph g = ErdosRenyi(60, 0.1, rng);
  PushOptions options;
  options.alpha = 0.15;
  options.epsilon = 1e-5;
  const PushResult push =
      ApproximatePageRank(g, SingleNodeSeed(g, 5), options);
  PageRankOptions pr;
  pr.gamma = StandardTeleportFromLazy(options.alpha);
  pr.tolerance = 1e-14;
  const Vector exact =
      PersonalizedPageRank(g, SingleNodeSeed(g, 5), pr).scores;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_LE(push.p[u], exact[u] + 1e-9);
  }
  // And the total shortfall equals what the residual would produce.
  EXPECT_NEAR(Sum(exact) - Sum(push.p), Sum(push.residual), 1e-8);
}

TEST(PushTest, ConvergesToExactAsEpsilonShrinks) {
  Rng rng(4);
  const Graph g = ErdosRenyi(50, 0.12, rng);
  PageRankOptions pr;
  pr.gamma = StandardTeleportFromLazy(0.1);
  pr.tolerance = 1e-14;
  const Vector exact =
      PersonalizedPageRank(g, SingleNodeSeed(g, 7), pr).scores;
  double previous_error = 1e9;
  for (double eps : {1e-3, 1e-5, 1e-7}) {
    PushOptions options;
    options.alpha = 0.1;
    options.epsilon = eps;
    const PushResult push =
        ApproximatePageRank(g, SingleNodeSeed(g, 7), options);
    const double error = DistanceL1(push.p, exact);
    EXPECT_LT(error, previous_error + 1e-12);
    previous_error = error;
  }
  EXPECT_LT(previous_error, 1e-4);
}

TEST(PushTest, SupportIsSparseOnLargeGraph) {
  // The implicit-regularization claim: support bounded by ~1/(ε·α),
  // independent of n.
  Rng rng(5);
  SocialGraphParams params;
  params.core_nodes = 8000;
  params.num_communities = 6;
  params.num_whiskers = 40;
  const SocialGraph sg = MakeWhiskeredSocialGraph(params, rng);
  PushOptions options;
  options.alpha = 0.2;
  options.epsilon = 1e-3;
  const PushResult result = ApproximatePageRank(
      sg.graph, SingleNodeSeed(sg.graph, sg.communities[0][0]), options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_LT(result.support,
            static_cast<std::int64_t>(1.0 / (options.alpha *
                                             options.epsilon)));
  EXPECT_LT(result.support, sg.graph.NumNodes() / 4);
}

TEST(PushTest, WorkScalesWithOneOverEpsAlpha) {
  // Strong locality: pushes ≤ O(1/(ε α)) regardless of graph size.
  Rng rng(6);
  for (NodeId n : {2000, 8000}) {
    const Graph g = ErdosRenyi(n, 10.0 / n, rng);
    PushOptions options;
    options.alpha = 0.1;
    options.epsilon = 1e-3;
    const PushResult result =
        ApproximatePageRank(g, SingleNodeSeed(g, 0), options);
    EXPECT_LE(result.pushes,
              static_cast<std::int64_t>(4.0 / (options.alpha *
                                               options.epsilon)));
  }
}

TEST(PushTest, LocalClusterFindsPlantedCommunity) {
  Rng rng(7);
  SocialGraphParams params;
  params.core_nodes = 3000;
  params.num_communities = 4;
  params.min_community_size = 40;
  params.max_community_size = 60;
  params.num_whiskers = 10;
  const SocialGraph sg = MakeWhiskeredSocialGraph(params, rng);
  const auto& community = sg.communities[1];
  PushOptions options;
  options.alpha = 0.05;
  options.epsilon = 5e-5;
  const LocalClusterResult result =
      PushLocalCluster(sg.graph, community[0], options);
  ASSERT_FALSE(result.set.empty());
  // The sweep cut should be a low-conductance set overlapping the
  // community substantially.
  EXPECT_LT(result.stats.conductance, 0.35);
  std::vector<char> in_community(sg.graph.NumNodes(), 0);
  for (NodeId u : community) in_community[u] = 1;
  int overlap = 0;
  for (NodeId u : result.set) overlap += in_community[u];
  EXPECT_GT(overlap, static_cast<int>(community.size()) / 2);
}

TEST(PushTest, SeedWithZeroMassStaysEmpty) {
  const Graph g = PathGraph(10);
  const PushResult result = ApproximatePageRank(g, Vector(10, 0.0), {});
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_EQ(result.pushes, 0);
  EXPECT_DOUBLE_EQ(Sum(result.p), 0.0);
}

TEST(PushTest, SelfLoopMassReturns) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 0, 2.0);
  builder.AddEdge(0, 1, 1.0);
  const Graph g = builder.Build();
  PushOptions options;
  options.alpha = 0.3;
  options.epsilon = 1e-8;
  const PushResult result =
      ApproximatePageRank(g, SingleNodeSeed(g, 0), options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_NEAR(Sum(result.p) + Sum(result.residual), 1.0, 1e-10);
  EXPECT_GT(result.p[0], result.p[1]);
}


TEST(PushTest, ResidualMassDecreasesMonotonically) {
  // Push is Gauss–Southwell coordinate relaxation on the PPR linear
  // system ([20] in the paper): each push strictly decreases the
  // residual mass by exactly alpha * r(u).
  Rng rng(8);
  const Graph g = ErdosRenyi(80, 0.08, rng);
  PushOptions options;
  options.alpha = 0.12;
  options.epsilon = 1e-4;
  double previous = 1.0 + 1e-12;
  std::int64_t calls = 0;
  options.on_push = [&](std::int64_t index, NodeId u, double mass) {
    EXPECT_EQ(index, calls + 1);
    EXPECT_TRUE(g.IsValidNode(u));
    EXPECT_LT(mass, previous);
    EXPECT_GE(mass, -1e-12);
    previous = mass;
    ++calls;
  };
  const PushResult result =
      ApproximatePageRank(g, SingleNodeSeed(g, 0), options);
  EXPECT_EQ(calls, result.pushes);
  // The final reported mass matches the actual residual mass.
  EXPECT_NEAR(previous, Sum(result.residual), 1e-10);
}

}  // namespace
}  // namespace impreg
