// Cache-aware relabeling (graph/reorder.h): permutation validity and
// round-trips on edge-case graphs (empty, isolated nodes, disconnected
// components, self-loops), bitwise label-invariance of the relabeled
// CSR (ApplyNodePermutation keeps row arc order), and end-to-end
// bit-identity of the consumers — push PPR, dense engine queries, and
// the walk-family NCP portfolio — against their unreordered twins at
// one and eight threads.

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/impreg.h"

namespace impreg {
namespace {

const ReorderMethod kAllMethods[] = {
    ReorderMethod::kIdentity, ReorderMethod::kBfs, ReorderMethod::kRcm,
    ReorderMethod::kDegreeSort};

const ReorderMethod kActiveMethods[] = {
    ReorderMethod::kBfs, ReorderMethod::kRcm, ReorderMethod::kDegreeSort};

void ExpectBitIdentical(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Content equality of two graphs (offsets, heads, weights in order,
/// plus the derived aggregates bitwise). Does NOT require RowsSorted to
/// match — a permuted-then-unpermuted graph has unsorted rows.
void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumArcs(), b.NumArcs());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  ASSERT_EQ(std::bit_cast<std::uint64_t>(a.TotalVolume()),
            std::bit_cast<std::uint64_t>(b.TotalVolume()));
  for (NodeId u = 0; u < a.NumNodes(); ++u) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.Degree(u)),
              std::bit_cast<std::uint64_t>(b.Degree(u)))
        << "degree of node " << u;
    const auto ah = a.Heads(u);
    const auto bh = b.Heads(u);
    const auto aw = a.Weights(u);
    const auto bw = b.Weights(u);
    ASSERT_EQ(ah.size(), bh.size()) << "row " << u;
    for (std::size_t i = 0; i < ah.size(); ++i) {
      ASSERT_EQ(ah[i], bh[i]) << "row " << u << " arc " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(aw[i]),
                std::bit_cast<std::uint64_t>(bw[i]))
          << "row " << u << " arc " << i;
    }
  }
}

Vector GaussianVector(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  Vector x(n);
  for (double& v : x) v = rng.NextGaussian();
  return x;
}

/// The edge-case menagerie the relabelers must survive: empty graph,
/// all-isolated nodes, disconnected components (with an isolated node
/// between them), self-loops (including a lollipop-ish mixed case).
struct NamedGraph {
  std::string name;
  Graph graph;
};

std::vector<NamedGraph> EdgeCaseGraphs() {
  std::vector<NamedGraph> cases;
  cases.push_back({"empty", Graph()});
  cases.push_back({"isolated_only", GraphBuilder(7).Build()});
  {
    // Two components of different shapes with an isolated node (id 4)
    // wedged between them: triangle {0,1,2}, path {5,6,7,8}, node 3
    // attached to the triangle.
    GraphBuilder b(9);
    b.AddEdge(0, 1);
    b.AddEdge(1, 2);
    b.AddEdge(2, 0);
    b.AddEdge(3, 0, 2.5);
    b.AddEdge(5, 6);
    b.AddEdge(6, 7);
    b.AddEdge(7, 8);
    cases.push_back({"disconnected", b.Build()});
  }
  {
    // Self-loops: one pure self-loop node, one self-loop on a path.
    GraphBuilder b(5);
    b.AddEdge(0, 0, 3.0);
    b.AddEdge(1, 2);
    b.AddEdge(2, 3, 0.5);
    b.AddEdge(2, 2, 2.0);
    cases.push_back({"self_loops", b.Build()});
  }
  {
    Rng rng(21);
    // Sparse ER at this size has isolated nodes and many components.
    cases.push_back({"sparse_er", ErdosRenyi(400, 1.0 / 400.0, rng)});
  }
  cases.push_back({"caveman", CavemanGraph(6, 8)});
  return cases;
}

TEST(ReorderTest, MethodNamesRoundTrip) {
  for (ReorderMethod m : kAllMethods) {
    ReorderMethod parsed = ReorderMethod::kIdentity;
    EXPECT_TRUE(ReorderMethodFromName(ReorderMethodName(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
  ReorderMethod parsed = ReorderMethod::kRcm;
  EXPECT_FALSE(ReorderMethodFromName("hilbert", &parsed));
  EXPECT_EQ(parsed, ReorderMethod::kRcm);
}

TEST(ReorderTest, PermutationIsValidOnEdgeCases) {
  for (const NamedGraph& c : EdgeCaseGraphs()) {
    for (ReorderMethod m : kAllMethods) {
      SCOPED_TRACE(c.name + std::string("/") + ReorderMethodName(m));
      const std::vector<NodeId> perm = ComputeReorderPermutation(c.graph, m);
      ASSERT_TRUE(IsPermutation(perm, c.graph.NumNodes()));
      const std::vector<NodeId> inverse = InvertPermutation(perm);
      ASSERT_TRUE(IsPermutation(inverse, c.graph.NumNodes()));
      for (NodeId u = 0; u < c.graph.NumNodes(); ++u) {
        EXPECT_EQ(inverse[perm[u]], u);
        EXPECT_EQ(perm[inverse[u]], u);
      }
    }
  }
}

TEST(ReorderTest, ApplyThenInverseRoundTripsTheGraph) {
  for (const NamedGraph& c : EdgeCaseGraphs()) {
    for (ReorderMethod m : kActiveMethods) {
      SCOPED_TRACE(c.name + std::string("/") + ReorderMethodName(m));
      const std::vector<NodeId> perm = ComputeReorderPermutation(c.graph, m);
      const Graph forward = ApplyNodePermutation(c.graph, perm);
      EXPECT_FALSE(forward.RowsSorted());
      // Aggregates are copied, not recomputed: bitwise equal.
      EXPECT_EQ(forward.NumEdges(), c.graph.NumEdges());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(forward.TotalVolume()),
                std::bit_cast<std::uint64_t>(c.graph.TotalVolume()));
      const Graph back =
          ApplyNodePermutation(forward, InvertPermutation(perm));
      ExpectSameGraph(back, c.graph);
    }
  }
}

TEST(ReorderTest, EdgeWeightScansUnsortedRows) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 2.0);
  b.AddEdge(0, 3, 4.0);
  b.AddEdge(1, 2, 1.5);
  const Graph g = b.Build();
  // Reverse the labels so relabeled rows are no longer head-sorted.
  const std::vector<NodeId> perm = {3, 2, 1, 0};
  const Graph r = ApplyNodePermutation(g, perm);
  ASSERT_FALSE(r.RowsSorted());
  EXPECT_DOUBLE_EQ(r.EdgeWeight(3, 2), 2.0);  // was (0, 1)
  EXPECT_DOUBLE_EQ(r.EdgeWeight(3, 0), 4.0);  // was (0, 3)
  EXPECT_DOUBLE_EQ(r.EdgeWeight(2, 1), 1.5);  // was (1, 2)
  EXPECT_DOUBLE_EQ(r.EdgeWeight(3, 1), 0.0);
  EXPECT_TRUE(r.HasEdge(0, 3));
  EXPECT_FALSE(r.HasEdge(0, 1));
}

TEST(ReorderTest, VectorRoundTripIsBitwise) {
  for (const NamedGraph& c : EdgeCaseGraphs()) {
    for (ReorderMethod m : kAllMethods) {
      SCOPED_TRACE(c.name + std::string("/") + ReorderMethodName(m));
      const ReorderedGraph rg(c.graph, m);
      const Vector x = GaussianVector(c.graph.NumNodes(), 31);
      ExpectBitIdentical(rg.ToOriginalVector(rg.ToReorderedVector(x)), x);
      for (NodeId u = 0; u < c.graph.NumNodes(); ++u) {
        EXPECT_EQ(rg.ToOriginal(rg.ToReordered(u)), u);
      }
    }
  }
}

TEST(ReorderTest, IdentityWrapperPassesThrough) {
  const Graph g = CavemanGraph(4, 6);
  const ReorderedGraph rg(g, ReorderMethod::kIdentity);
  EXPECT_FALSE(rg.active());
  EXPECT_EQ(&rg.graph(), &g);
  EXPECT_EQ(&rg.original(), &g);
  EXPECT_EQ(rg.diagnostics().status, SolveStatus::kConverged);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rg.locality_original()),
            std::bit_cast<std::uint64_t>(rg.locality_reordered()));
}

TEST(ReorderTest, SpmvIsBitwiseLabelInvariant) {
  for (const NamedGraph& c : EdgeCaseGraphs()) {
    if (c.graph.NumNodes() == 0) continue;
    const Vector x = GaussianVector(c.graph.NumNodes(), 77);
    const NormalizedLaplacianOperator original_op(c.graph);
    const Vector expected = original_op.Apply(x);
    for (ReorderMethod m : kActiveMethods) {
      SCOPED_TRACE(c.name + std::string("/") + ReorderMethodName(m));
      const ReorderedGraph rg(c.graph, m);
      ASSERT_TRUE(rg.active());
      const NormalizedLaplacianOperator reordered_op(rg.graph());
      const Vector y = reordered_op.Apply(rg.ToReorderedVector(x));
      ExpectBitIdentical(rg.ToOriginalVector(y), expected);
    }
  }
}

TEST(ReorderTest, SpmmBatchIsBitwiseLabelInvariant) {
  const Graph g = CavemanGraph(10, 12);
  const ReorderedGraph rg(g, ReorderMethod::kRcm);
  ASSERT_TRUE(rg.active());
  const LazyWalkOperator original_op(g, 0.5);
  const LazyWalkOperator reordered_op(rg.graph(), 0.5);
  std::vector<Vector> columns;
  std::vector<Vector> permuted;
  for (int j = 0; j < 5; ++j) {
    columns.push_back(GaussianVector(g.NumNodes(), 100 + j));
    permuted.push_back(rg.ToReorderedVector(columns.back()));
  }
  const std::vector<Vector> expected = original_op.ApplyBatch(columns);
  const std::vector<Vector> got = reordered_op.ApplyBatch(permuted);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    ExpectBitIdentical(rg.ToOriginalVector(got[j]), expected[j]);
  }
}

TEST(ReorderTest, PushPprIsBitwiseLabelInvariantAtOneAndEightThreads) {
  for (const NamedGraph& c : EdgeCaseGraphs()) {
    if (c.graph.NumNodes() == 0 || c.graph.NumEdges() == 0) continue;
    // Seed on a node with edges so the push actually runs.
    NodeId seed_node = 0;
    while (c.graph.Degree(seed_node) <= 0.0) ++seed_node;
    const Vector seed = SingleNodeSeed(c.graph, seed_node);
    PushOptions options;
    options.alpha = 0.1;
    options.epsilon = 1e-7;
    const PushResult expected = ApproximatePageRank(c.graph, seed, options);
    for (ReorderMethod m : kAllMethods) {
      SCOPED_TRACE(c.name + std::string("/") + ReorderMethodName(m));
      const ReorderedGraph rg(c.graph, m);
      for (int threads : {1, 8}) {
        const ScopedNumThreads scoped(threads);
        const PushResult got = ApproximatePageRank(rg, seed, options);
        EXPECT_EQ(got.pushes, expected.pushes);
        EXPECT_EQ(got.work, expected.work);
        EXPECT_EQ(got.support, expected.support);
        EXPECT_EQ(got.diagnostics.status, expected.diagnostics.status);
        ExpectBitIdentical(got.p, expected.p);
        ExpectBitIdentical(got.residual, expected.residual);
      }
    }
  }
}

TEST(ReorderTest, PushCallbackSeesOriginalLabelsAndMasses) {
  const Graph g = CavemanGraph(6, 8);
  PushOptions options;
  options.alpha = 0.15;
  options.epsilon = 1e-5;
  struct Event {
    std::int64_t push;
    NodeId node;
    double mass;
  };
  std::vector<Event> plain, relabeled;
  options.on_push = [&plain](std::int64_t push, NodeId u, double mass) {
    plain.push_back({push, u, mass});
  };
  const Vector seed = SingleNodeSeed(g, 3);
  ApproximatePageRank(g, seed, options);
  const ReorderedGraph rg(g, ReorderMethod::kRcm);
  options.on_push = [&relabeled](std::int64_t push, NodeId u, double mass) {
    relabeled.push_back({push, u, mass});
  };
  ApproximatePageRank(rg, seed, options);
  ASSERT_EQ(plain.size(), relabeled.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].push, relabeled[i].push);
    EXPECT_EQ(plain[i].node, relabeled[i].node);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(plain[i].mass),
              std::bit_cast<std::uint64_t>(relabeled[i].mass));
  }
}

TEST(ReorderTest, PushLocalClusterMatchesOriginal) {
  const Graph g = CavemanGraph(8, 10);
  PushOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-6;
  const LocalClusterResult expected = PushLocalCluster(g, 5, options);
  for (ReorderMethod m : kActiveMethods) {
    SCOPED_TRACE(ReorderMethodName(m));
    const ReorderedGraph rg(g, m);
    const LocalClusterResult got = PushLocalCluster(rg, 5, options);
    EXPECT_EQ(got.set, expected.set);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.stats.conductance),
              std::bit_cast<std::uint64_t>(expected.stats.conductance));
    ExpectBitIdentical(got.push.p, expected.push.p);
  }
}

TEST(ReorderTest, RcmImprovesLocalityOnShuffledGrid) {
  // A grid row-major labeling is already local; shuffle it so the
  // relabelers have something to recover, then check RCM gets most of
  // the locality back.
  const Graph grid = GridGraph(32, 32);
  Rng rng(5);
  std::vector<NodeId> shuffle(grid.NumNodes());
  for (NodeId u = 0; u < grid.NumNodes(); ++u) shuffle[u] = u;
  for (NodeId u = grid.NumNodes() - 1; u > 0; --u) {
    const NodeId j = static_cast<NodeId>(rng.NextBounded(u + 1));
    std::swap(shuffle[u], shuffle[j]);
  }
  const Graph shuffled = ApplyNodePermutation(grid, shuffle);
  const ReorderedGraph rg(shuffled, ReorderMethod::kRcm);
  ASSERT_TRUE(rg.active());
  EXPECT_GT(rg.locality_original(), 100.0);  // Shuffled: ~n/3 distance.
  EXPECT_LT(rg.locality_reordered(), 0.25 * rg.locality_original());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                AvgNeighborLabelDistance(rg.graph())),
            std::bit_cast<std::uint64_t>(rg.locality_reordered()));
}

TEST(ReorderTest, EngineDenseQueriesAreBitIdenticalUnderReorder) {
  const Graph g = CavemanGraph(8, 12);
  Query q;
  q.method = QueryMethod::kPprDense;
  q.seeds = {3, 40, 41};
  q.gamma = 0.2;
  q.tolerance = 1e-12;
  QueryEngine::Options plain_options;
  plain_options.enable_cache = false;
  QueryEngine::Options reorder_options = plain_options;
  reorder_options.graph.reorder = ReorderMethod::kRcm;
  QueryEngine plain(g, plain_options);
  const QueryResponse expected = plain.Run(q);
  for (int threads : {1, 8}) {
    const ScopedNumThreads scoped(threads);
    QueryEngine reordered(g, reorder_options);
    // A mixed batch exercises the grouped ApplyBatch dense path.
    Query q2 = q;
    q2.seeds = {17};
    const std::vector<QueryResponse> got = reordered.RunBatch({q, q2});
    EXPECT_EQ(got[0].work, expected.work);
    EXPECT_EQ(got[0].status, expected.status);
    ExpectBitIdentical(got[0].scores, expected.scores);
    const QueryResponse expected2 = plain.Run(q2);
    ExpectBitIdentical(got[1].scores, expected2.scores);
  }
}

TEST(ReorderTest, EngineCommunityQueriesStayDeterministicUnderReorder) {
  // hk-relax and nibble iterate hash maps, so reordering is only
  // promised deterministic run-to-run (not bitwise vs the original
  // labeling) — pin exactly that, plus sane answers in original labels.
  const Graph g = CavemanGraph(8, 12);
  QueryEngine::Options options;
  options.enable_cache = false;
  options.graph.reorder = ReorderMethod::kRcm;
  for (QueryMethod method : {QueryMethod::kHeatKernel, QueryMethod::kNibble}) {
    Query q;
    q.method = method;
    q.seeds = {30};
    QueryEngine a(g, options);
    QueryEngine b(g, options);
    const QueryResponse first = a.Run(q);
    const QueryResponse second = b.Run(q);
    ASSERT_FALSE(first.set.empty());
    for (NodeId u : first.set) EXPECT_TRUE(g.IsValidNode(u));
    EXPECT_EQ(first.set, second.set);
    ExpectBitIdentical(first.scores, second.scores);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first.conductance),
              std::bit_cast<std::uint64_t>(second.conductance));
    // The community should be (contained in) the seed's cave.
    const CutStats stats = ComputeCutStats(g, first.set);
    EXPECT_LT(stats.conductance, 0.5);
  }
}

TEST(ReorderTest, EngineSurvivesEdgeInsertionsWithReorder) {
  // The relabeled snapshot is epoch-tracked: grow the graph between
  // queries and check answers keep matching an unreordered engine.
  const Graph g = CavemanGraph(4, 8);
  QueryEngine::Options reorder_options;
  reorder_options.graph.reorder = ReorderMethod::kBfs;
  QueryEngine reordered(g, reorder_options);
  QueryEngine plain(g);
  Query q;
  q.method = QueryMethod::kPprDense;
  q.seeds = {2};
  q.tolerance = 1e-11;
  ExpectBitIdentical(reordered.Run(q).scores, plain.Run(q).scores);
  reordered.AddEdge(0, 17, 2.0);
  plain.AddEdge(0, 17, 2.0);
  EXPECT_EQ(reordered.Epoch(), plain.Epoch());
  ExpectBitIdentical(reordered.Run(q).scores, plain.Run(q).scores);
}

TEST(ReorderTest, WalkFamilyPortfolioIsBitwiseLabelInvariant) {
  const Graph g = CavemanGraph(10, 10);
  WalkFamilyOptions options;
  options.num_seeds = 6;
  options.checkpoints = {2, 8, 32};
  const std::vector<NcpCluster> expected = WalkFamilyClusters(g, options);
  WalkFamilyOptions relabeled = options;
  relabeled.reorder = ReorderMethod::kRcm;
  for (int threads : {1, 8}) {
    const ScopedNumThreads scoped(threads);
    const std::vector<NcpCluster> got = WalkFamilyClusters(g, relabeled);
    ASSERT_EQ(got.size(), expected.size());
    ASSERT_FALSE(got.empty());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].nodes, expected[i].nodes);
      EXPECT_EQ(got[i].method, expected[i].method);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].stats.conductance),
                std::bit_cast<std::uint64_t>(expected[i].stats.conductance));
    }
  }
}

}  // namespace
}  // namespace impreg
