#include "graph/bridges.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "graph/social.h"
#include "partition/conductance.h"

namespace impreg {
namespace {

TEST(BridgesTest, EveryTreeEdgeIsABridge) {
  const Graph g = CompleteBinaryTree(15);
  EXPECT_EQ(FindBridges(g).size(), 14u);
  EXPECT_EQ(FindBridges(PathGraph(10)).size(), 9u);
  EXPECT_EQ(FindBridges(StarGraph(8)).size(), 7u);
}

TEST(BridgesTest, CyclesHaveNoBridges) {
  EXPECT_TRUE(FindBridges(CycleGraph(8)).empty());
  EXPECT_TRUE(FindBridges(CompleteGraph(6)).empty());
  EXPECT_TRUE(FindBridges(TorusGraph(4, 4)).empty());
}

TEST(BridgesTest, DumbbellBridgePath) {
  // Two cliques joined through a 2-node path: 3 bridges.
  const Graph g = DumbbellGraph(5, 2);
  const std::vector<Bridge> bridges = FindBridges(g);
  EXPECT_EQ(bridges.size(), 3u);
}

TEST(BridgesTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = ErdosRenyi(24, 0.12, rng);
    const std::vector<Bridge> fast = FindBridges(g);
    // Brute force: an edge is a bridge iff removing it increases the
    // number of components.
    const int base_components = CountComponents(g);
    std::vector<Bridge> brute;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (NodeId v : g.Heads(u)) {
        if (v <= u) continue;
        GraphBuilder builder(g.NumNodes());
        for (NodeId x = 0; x < g.NumNodes(); ++x) {
          const auto heads = g.Heads(x);
          const auto weights = g.Weights(x);
          for (std::size_t i = 0; i < heads.size(); ++i) {
            if (heads[i] > x && !(x == u && heads[i] == v)) {
              builder.AddEdge(x, heads[i], weights[i]);
            }
          }
        }
        if (CountComponents(builder.Build()) > base_components) {
          brute.push_back({u, v});
        }
      }
    }
    auto sorter = [](const Bridge& a, const Bridge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    };
    std::vector<Bridge> fast_sorted = fast;
    std::sort(fast_sorted.begin(), fast_sorted.end(), sorter);
    std::sort(brute.begin(), brute.end(), sorter);
    ASSERT_EQ(fast_sorted.size(), brute.size()) << "trial " << trial;
    for (std::size_t i = 0; i < brute.size(); ++i) {
      EXPECT_EQ(fast_sorted[i].u, brute[i].u);
      EXPECT_EQ(fast_sorted[i].v, brute[i].v);
    }
  }
}

TEST(BridgesTest, SelfLoopsAreNotBridges) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 1, 2.0);
  builder.AddEdge(1, 2);
  const Graph g = builder.Build();
  EXPECT_EQ(FindBridges(g).size(), 2u);
}

TEST(WhiskersTest, LollipopTailIsOneWhisker) {
  const Graph g = LollipopGraph(8, 5);
  const std::vector<Whisker> whiskers = FindWhiskers(g);
  ASSERT_EQ(whiskers.size(), 1u);
  EXPECT_EQ(whiskers[0].nodes.size(), 5u);  // The whole tail.
  // The whisker cut is a single edge.
  const CutStats stats = ComputeCutStats(g, whiskers[0].nodes);
  EXPECT_DOUBLE_EQ(stats.cut, 1.0);
}

TEST(WhiskersTest, BridgelessGraphHasNoWhiskers) {
  EXPECT_TRUE(FindWhiskers(CycleGraph(10)).empty());
  EXPECT_TRUE(FindWhiskers(CompleteGraph(5)).empty());
}

TEST(WhiskersTest, RecoverAllPlantedWhiskers) {
  Rng rng(7);
  SocialGraphParams params;
  params.core_nodes = 2000;
  params.num_communities = 0;  // Communities attach with ≥ 1 edge each;
                               // keep the test about whiskers only.
  params.num_whiskers = 40;
  const SocialGraph sg = MakeWhiskeredSocialGraph(params, rng);
  const std::vector<Whisker> found = FindWhiskers(sg.graph);
  // Every planted whisker must appear as (a subset of) some found
  // whisker: its single attachment edge is a bridge.
  std::vector<int> owner(sg.graph.NumNodes(), -1);
  for (std::size_t i = 0; i < found.size(); ++i) {
    for (NodeId u : found[i].nodes) owner[u] = static_cast<int>(i);
  }
  for (const auto& planted : sg.whiskers) {
    const int w = owner[planted[0]];
    ASSERT_GE(w, 0);
    for (NodeId u : planted) EXPECT_EQ(owner[u], w);
  }
}

TEST(WhiskersTest, WhiskerCutIsAlwaysOneBridge) {
  Rng rng(8);
  SocialGraphParams params;
  params.core_nodes = 1200;
  params.num_communities = 3;
  params.num_whiskers = 25;
  const SocialGraph sg = MakeWhiskeredSocialGraph(params, rng);
  for (const Whisker& w : FindWhiskers(sg.graph)) {
    const CutStats stats = ComputeCutStats(sg.graph, w.nodes);
    EXPECT_DOUBLE_EQ(stats.cut, 1.0);
    EXPECT_DOUBLE_EQ(stats.volume, w.volume);
  }
}

TEST(WhiskersTest, SortedByVolumeDescending) {
  const Graph g = [&] {
    GraphBuilder b(20);
    // Core triangle.
    b.AddEdge(0, 1);
    b.AddEdge(1, 2);
    b.AddEdge(2, 0);
    // Short whisker (2 nodes) off node 0.
    b.AddEdge(0, 3);
    b.AddEdge(3, 4);
    // Long whisker (5 nodes) off node 1.
    b.AddEdge(1, 5);
    for (NodeId i = 5; i < 9; ++i) b.AddEdge(i, i + 1);
    return b.Build();
  }();
  const std::vector<Whisker> whiskers = FindWhiskers(g);
  ASSERT_EQ(whiskers.size(), 2u);
  EXPECT_GE(whiskers[0].volume, whiskers[1].volume);
  EXPECT_EQ(whiskers[0].nodes.size(), 5u);
  EXPECT_EQ(whiskers[1].nodes.size(), 2u);
}

}  // namespace
}  // namespace impreg
