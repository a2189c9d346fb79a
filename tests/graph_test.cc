#include "graph/graph.h"

#include <gtest/gtest.h>

namespace impreg {
namespace {

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
