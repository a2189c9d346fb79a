#include "graph/io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/random_graphs.h"

namespace impreg {
namespace {

TEST(IoTest, ParseSimpleEdgeList) {
  const auto g = ParseEdgeList("0 1\n1 2\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumNodes(), 3);
  EXPECT_EQ(g->NumEdges(), 2);
  EXPECT_DOUBLE_EQ(g->EdgeWeight(0, 1), 1.0);
}

TEST(IoTest, ParseWeights) {
  const auto g = ParseEdgeList("0 1 2.5\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(g->EdgeWeight(0, 1), 2.5);
}

TEST(IoTest, CrlfAndTrailingWhitespaceAccepted) {
  // CRLF line endings: every line (weighted or not) carries a '\r' that
  // the trailing-garbage probe must not mistake for a fourth field.
  const auto crlf = ParseEdgeList("# nodes 4\r\n0 1\r\n1 2 2.5\r\n");
  ASSERT_TRUE(crlf.has_value());
  EXPECT_EQ(crlf->NumNodes(), 4);
  EXPECT_EQ(crlf->NumEdges(), 2);
  EXPECT_DOUBLE_EQ(crlf->EdgeWeight(1, 2), 2.5);

  // Trailing blanks and tabs after the last field.
  const auto blanks = ParseEdgeList("0 1 \n1 2 2.5 \t\n2 3\t\n");
  ASSERT_TRUE(blanks.has_value());
  EXPECT_EQ(blanks->NumEdges(), 3);
  EXPECT_DOUBLE_EQ(blanks->EdgeWeight(1, 2), 2.5);

  // Tolerance must not weaken the probe: interior garbage still fails.
  EXPECT_FALSE(ParseEdgeList("0 1 2.5 x\r\n").has_value());
  EXPECT_FALSE(ParseEdgeList("0 1 2 3\r\n").has_value());
}

TEST(MetisTest, CrlfAndTrailingWhitespaceAccepted) {
  const auto g = ParseMetisOrError("3 2 001\r\n2 0.5 \r\n1 0.5 3 2.0\t\r\n2 2.0 \n");
  ASSERT_TRUE(g.ok()) << g.error;
  EXPECT_EQ(g.graph->NumNodes(), 3);
  EXPECT_EQ(g.graph->NumEdges(), 2);
  EXPECT_DOUBLE_EQ(g.graph->EdgeWeight(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(g.graph->EdgeWeight(1, 2), 2.0);
}

TEST(IoTest, CommentsAndBlankLinesIgnored) {
  const auto g = ParseEdgeList("# header\n\n% other comment\n0 1\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumEdges(), 1);
}

TEST(IoTest, NodesHeaderAllowsIsolatedTrailingNodes) {
  const auto g = ParseEdgeList("# nodes 10\n0 1\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumNodes(), 10);
  EXPECT_EQ(g->NumEdges(), 1);
}

TEST(IoTest, NodesHeaderSmallerThanMaxIdFails) {
  EXPECT_FALSE(ParseEdgeList("# nodes 2\n0 5\n").has_value());
}

TEST(IoTest, MalformedInputs) {
  EXPECT_FALSE(ParseEdgeList("0\n").has_value());
  EXPECT_FALSE(ParseEdgeList("0 x\n").has_value());
  EXPECT_FALSE(ParseEdgeList("-1 2\n").has_value());
  EXPECT_FALSE(ParseEdgeList("0 1 0.0\n").has_value());
  EXPECT_FALSE(ParseEdgeList("0 1 -3\n").has_value());
  EXPECT_FALSE(ParseEdgeList("0 1 2 3\n").has_value());
}

TEST(IoTest, EmptyInputIsEmptyGraph) {
  const auto g = ParseEdgeList("");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumNodes(), 0);
}

TEST(IoTest, RoundTripThroughString) {
  Rng rng(5);
  const Graph original = ErdosRenyi(50, 0.15, rng);
  const auto parsed = ParseEdgeList(WriteEdgeListString(original));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->NumNodes(), original.NumNodes());
  ASSERT_EQ(parsed->NumEdges(), original.NumEdges());
  for (NodeId u = 0; u < original.NumNodes(); ++u) {
    const auto ha = original.Heads(u);
    const auto hb = parsed->Heads(u);
    const auto wa = original.Weights(u);
    const auto wb = parsed->Weights(u);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i], hb[i]);
      EXPECT_DOUBLE_EQ(wa[i], wb[i]);
    }
  }
}

TEST(IoTest, RoundTripWeightsExactly) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 0.1234567890123456789);
  builder.AddEdge(1, 2, 7.0);
  builder.AddEdge(2, 2, 3.25);  // Self-loop.
  const Graph g = builder.Build();
  const auto parsed = ParseEdgeList(WriteEdgeListString(g));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->EdgeWeight(0, 1), g.EdgeWeight(0, 1));
  EXPECT_DOUBLE_EQ(parsed->EdgeWeight(2, 2), 3.25);
}

TEST(IoTest, FileRoundTrip) {
  const Graph g = CompleteGraph(5);
  const std::string path = testing::TempDir() + "/impreg_io_test.txt";
  ASSERT_TRUE(WriteEdgeList(g, path));
  const auto parsed = ReadEdgeList(path);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->NumEdges(), 10);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(ReadEdgeList("/nonexistent/impreg/file.txt").has_value());
}


TEST(MetisTest, ParseUnweighted) {
  // Triangle: 3 nodes, 3 edges.
  const auto g = ParseMetis("3 3\n2 3\n1 3\n1 2\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumNodes(), 3);
  EXPECT_EQ(g->NumEdges(), 3);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(1, 2));
}

TEST(MetisTest, ParseWeighted) {
  const auto g = ParseMetis("2 1 001\n2 2.5\n1 2.5\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(g->EdgeWeight(0, 1), 2.5);
}

TEST(MetisTest, CommentsAndIsolatedNodes) {
  const auto g = ParseMetis("% header comment\n4 1\n2\n1\n\n\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumNodes(), 4);
  EXPECT_EQ(g->NumEdges(), 1);
  EXPECT_DOUBLE_EQ(g->Degree(2), 0.0);
}

TEST(MetisTest, MalformedInputs) {
  EXPECT_FALSE(ParseMetis("").has_value());
  EXPECT_FALSE(ParseMetis("junk\n").has_value());
  // Edge count mismatch.
  EXPECT_FALSE(ParseMetis("3 2\n2\n1\n\n").has_value());
  // Asymmetric adjacency.
  EXPECT_FALSE(ParseMetis("3 1\n2\n\n\n").has_value());
  // Out-of-range neighbor.
  EXPECT_FALSE(ParseMetis("2 1\n3\n1\n").has_value());
  // Self-loop.
  EXPECT_FALSE(ParseMetis("1 1\n1\n").has_value());
  // Unsupported vertex-weight format.
  EXPECT_FALSE(ParseMetis("2 1 011\n2 1\n1 1\n").has_value());
}

TEST(MetisTest, RoundTripUnweighted) {
  Rng rng(9);
  const Graph original = ErdosRenyi(40, 0.2, rng);
  const auto parsed = ParseMetis(WriteMetisString(original));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->NumNodes(), original.NumNodes());
  ASSERT_EQ(parsed->NumEdges(), original.NumEdges());
  for (NodeId u = 0; u < original.NumNodes(); ++u) {
    EXPECT_DOUBLE_EQ(parsed->Degree(u), original.Degree(u));
  }
}

TEST(MetisTest, RoundTripWeighted) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 0.5);
  builder.AddEdge(1, 2, 3.25);
  builder.AddEdge(0, 3);
  const Graph g = builder.Build();
  const auto parsed = ParseMetis(WriteMetisString(g));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->EdgeWeight(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(parsed->EdgeWeight(1, 2), 3.25);
  EXPECT_DOUBLE_EQ(parsed->EdgeWeight(0, 3), 1.0);
}

TEST(MetisTest, SelfLoopWriteDies) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 0);
  const Graph g = builder.Build();
  EXPECT_DEATH(WriteMetisString(g), "self-loops");
}

TEST(MetisTest, FileRoundTrip) {
  const Graph g = CompleteGraph(6);
  const std::string path = testing::TempDir() + "/impreg_metis_test.graph";
  ASSERT_TRUE(WriteMetis(g, path));
  const auto parsed = ReadMetis(path);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->NumEdges(), 15);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace impreg
