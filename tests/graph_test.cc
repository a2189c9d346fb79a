#include "graph/graph.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "streaming/dynamic_graph.h"
#include "util/rng.h"

namespace impreg {
namespace {

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder(0);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumNodes(), 0);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_DOUBLE_EQ(g.TotalVolume(), 0.0);
}

TEST(GraphBuilderTest, SingleEdge) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 2.5);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumNodes(), 2);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.NumArcs(), 2);
  EXPECT_DOUBLE_EQ(g.Degree(0), 2.5);
  EXPECT_DOUBLE_EQ(g.Degree(1), 2.5);
  EXPECT_DOUBLE_EQ(g.TotalVolume(), 5.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 2.5);
}

TEST(GraphBuilderTest, ParallelEdgesAreMerged) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 0, 2.0);
  builder.AddEdge(0, 1, 0.5);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 3.5);
  EXPECT_EQ(g.OutDegree(0), 1);
}

TEST(GraphBuilderTest, SelfLoopCountsOnceInDegree) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 0, 3.0);
  builder.AddEdge(0, 1, 1.0);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_EQ(g.NumArcs(), 3);  // Loop stored once, edge twice.
  EXPECT_DOUBLE_EQ(g.Degree(0), 4.0);
  EXPECT_DOUBLE_EQ(g.Degree(1), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g.TotalVolume(), 5.0);
}

TEST(GraphBuilderTest, AdjacencyIsSorted) {
  GraphBuilder builder(5);
  builder.AddEdge(2, 4);
  builder.AddEdge(2, 0);
  builder.AddEdge(2, 3);
  builder.AddEdge(2, 1);
  const Graph g = builder.Build();
  const auto heads = g.Heads(2);
  ASSERT_EQ(heads.size(), 4u);
  for (std::size_t i = 0; i + 1 < heads.size(); ++i) {
    EXPECT_LT(heads[i], heads[i + 1]);
  }
}

/// Random multigraph whose raw rows are longer than std::sort's
/// insertion-sort cutoff (16 arcs), with one edge line in 20 added three
/// times: the merged weight of a tripled edge depends on the order its
/// copies are summed in, so the two rows of the edge agree bitwise only
/// if both sum them in the same order.
Graph TripledMultigraph(NodeId n, int average_degree, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  const std::int64_t lines = std::int64_t{n} * average_degree / 2;
  for (std::int64_t i = 0; i < lines; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    const int copies = rng.NextBounded(20) == 0 ? 3 : 1;
    for (int c = 0; c < copies; ++c) {
      builder.AddEdge(u, v, rng.NextDouble(0.1, 3.0));
    }
  }
  return builder.Build();
}

TEST(GraphBuilderTest, MergedParallelEdgesKeepMirroredWeightsEqual) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Graph g = TripledMultigraph(400, 8 + 8 * (seed % 4), seed);
    std::int64_t asymmetric = 0;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      const auto heads = g.Heads(u);
      const auto weights = g.Weights(u);
      for (std::size_t i = 0; i < heads.size(); ++i) {
        const auto mirror = g.Heads(heads[i]);
        const auto it = std::lower_bound(mirror.begin(), mirror.end(), u);
        ASSERT_TRUE(it != mirror.end() && *it == u);
        const double back =
            g.Weights(heads[i])[static_cast<std::size_t>(it - mirror.begin())];
        if (Bits(back) != Bits(weights[i])) ++asymmetric;
      }
    }
    EXPECT_EQ(asymmetric, 0);

    // The mirrored weights are what the dynamic graph keeps (it copies
    // the lower row's), so equal mirrors make the round trip exact.
    const Graph round_trip = DynamicGraph::FromGraph(g).ToGraph();
    ASSERT_EQ(round_trip.NumArcs(), g.NumArcs());
    EXPECT_TRUE(std::ranges::equal(round_trip.Offsets(), g.Offsets()));
    EXPECT_TRUE(std::ranges::equal(round_trip.Heads(), g.Heads()));
    std::int64_t weight_diffs = 0;
    for (ArcIndex a = 0; a < g.NumArcs(); ++a) {
      if (Bits(round_trip.Weights()[a]) != Bits(g.Weights()[a])) {
        ++weight_diffs;
      }
    }
    EXPECT_EQ(weight_diffs, 0);
    std::int64_t degree_diffs = 0;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      if (Bits(round_trip.Degree(u)) != Bits(g.Degree(u))) ++degree_diffs;
    }
    EXPECT_EQ(degree_diffs, 0);
    EXPECT_EQ(round_trip.NumEdges(), g.NumEdges());
    EXPECT_EQ(Bits(round_trip.TotalVolume()), Bits(g.TotalVolume()));
  }
}

TEST(GraphBuilderTest, HasEdge) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 2);
  const Graph g = builder.Build();
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(3, 3));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 3), 0.0);
}

TEST(GraphBuilderTest, BuilderIsReusable) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  const Graph g1 = builder.Build();
  const Graph g2 = builder.Build();
  EXPECT_EQ(g1.NumEdges(), g2.NumEdges());
  builder.AddEdge(0, 1);
  const Graph g3 = builder.Build();
  EXPECT_DOUBLE_EQ(g3.EdgeWeight(0, 1), 2.0);
}

TEST(GraphBuilderTest, InvalidEndpointDies) {
  GraphBuilder builder(2);
  EXPECT_DEATH(builder.AddEdge(0, 2), "out of range");
  EXPECT_DEATH(builder.AddEdge(-1, 0), "out of range");
}

TEST(GraphBuilderTest, NonPositiveWeightDies) {
  GraphBuilder builder(2);
  EXPECT_DEATH(builder.AddEdge(0, 1, 0.0), "positive");
  EXPECT_DEATH(builder.AddEdge(0, 1, -1.0), "positive");
}

TEST(GraphTest, IsValidNode) {
  GraphBuilder builder(3);
  const Graph g = builder.Build();
  EXPECT_TRUE(g.IsValidNode(0));
  EXPECT_TRUE(g.IsValidNode(2));
  EXPECT_FALSE(g.IsValidNode(3));
  EXPECT_FALSE(g.IsValidNode(-1));
}

TEST(GraphTest, DegreesVectorMatchesDegree) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 2.0);
  builder.AddEdge(1, 2, 3.0);
  const Graph g = builder.Build();
  const std::vector<double>& d = g.Degrees();
  ASSERT_EQ(d.size(), 3u);
  for (NodeId u = 0; u < 3; ++u) EXPECT_DOUBLE_EQ(d[u], g.Degree(u));
  EXPECT_DOUBLE_EQ(d[1], 5.0);
}

TEST(GraphTest, IsolatedNodesHaveZeroDegree) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  EXPECT_DOUBLE_EQ(g.Degree(2), 0.0);
  EXPECT_EQ(g.OutDegree(3), 0);
  EXPECT_TRUE(g.Heads(2).empty());
}

}  // namespace
}  // namespace impreg
