// Bit-for-bit determinism of the parallel execution layer: every
// operator and every diffusion must produce *identical* doubles whether
// the pool runs 1 thread or 8. This is the library's reproducibility
// guarantee (chunk boundaries and reduce fold order are pure functions
// of the problem size, never of the thread count) checked end to end on
// Erdős–Rényi, preferential-attachment, and ring-of-cliques graphs.

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/impreg.h"

namespace impreg {
namespace {

void ExpectBitIdentical(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Runs `compute` under 1 thread and under 8 threads and asserts the
/// results are bit-identical.
void ExpectSameUnderOneAndEightThreads(
    const std::function<Vector()>& compute) {
  Vector serial, parallel;
  {
    const ScopedNumThreads threads(1);
    serial = compute();
  }
  {
    const ScopedNumThreads threads(8);
    parallel = compute();
  }
  ExpectBitIdentical(serial, parallel);
}

struct GraphCase {
  const char* name;
  Graph graph;
};

std::vector<GraphCase> TestGraphs() {
  std::vector<GraphCase> cases;
  {
    // Large enough that SpMV spans many row chunks and the dense
    // reductions span multiple vector chunks (> 2^14 elements).
    Rng rng(11);
    cases.push_back({"erdos_renyi", ErdosRenyi(20000, 4.0 / 20000.0, rng)});
  }
  {
    Rng rng(12);
    cases.push_back({"barabasi_albert", BarabasiAlbert(3000, 4, rng)});
  }
  // Ring of cliques: 60 cliques of 20 nodes each.
  cases.push_back({"ring_of_cliques", CavemanGraph(60, 20)});
  return cases;
}

Vector GaussianVector(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  Vector x(n);
  for (double& v : x) v = rng.NextGaussian();
  return x;
}

TEST(DeterminismTest, AllFiveOperatorsAreThreadCountInvariant) {
  for (const GraphCase& c : TestGraphs()) {
    SCOPED_TRACE(c.name);
    const Vector x = GaussianVector(c.graph.NumNodes(), 99);
    const AdjacencyOperator adjacency(c.graph);
    const CombinatorialLaplacianOperator combinatorial(c.graph);
    const NormalizedLaplacianOperator normalized(c.graph);
    const RandomWalkOperator walk(c.graph);
    const LazyWalkOperator lazy(c.graph, 0.5);
    const LinearOperator* operators[] = {&adjacency, &combinatorial,
                                         &normalized, &walk, &lazy};
    for (const LinearOperator* op : operators) {
      ExpectSameUnderOneAndEightThreads([&] { return op->Apply(x); });
    }
  }
}

TEST(DeterminismTest, PageRankEndToEnd) {
  for (const GraphCase& c : TestGraphs()) {
    SCOPED_TRACE(c.name);
    const Vector seed = SingleNodeSeed(c.graph, c.graph.NumNodes() / 3);
    PageRankOptions options;
    options.gamma = 0.1;
    options.tolerance = 1e-10;
    ExpectSameUnderOneAndEightThreads([&] {
      return PersonalizedPageRank(c.graph, seed, options).scores;
    });
    ExpectSameUnderOneAndEightThreads([&] {
      return PersonalizedPageRankChebyshev(c.graph, seed, options).scores;
    });
  }
}

TEST(DeterminismTest, HeatKernelEndToEnd) {
  for (const GraphCase& c : TestGraphs()) {
    SCOPED_TRACE(c.name);
    const Vector seed = SingleNodeSeed(c.graph, 7);
    ExpectSameUnderOneAndEightThreads(
        [&] { return HeatKernelWalkTaylor(c.graph, seed, 5.0, 1e-10); });
    HeatKernelOptions options;
    options.t = 3.0;
    ExpectSameUnderOneAndEightThreads(
        [&] { return HeatKernelWalk(c.graph, seed, options); });
  }
}

TEST(DeterminismTest, LazyWalkEndToEnd) {
  for (const GraphCase& c : TestGraphs()) {
    SCOPED_TRACE(c.name);
    const Vector seed = SingleNodeSeed(c.graph, 0);
    LazyWalkOptions options;
    options.alpha = 0.5;
    options.steps = 12;
    ExpectSameUnderOneAndEightThreads(
        [&] { return LazyWalk(c.graph, seed, options); });
  }
}

TEST(DeterminismTest, SweepCutProfileAndSetAreThreadCountInvariant) {
  for (const GraphCase& c : TestGraphs()) {
    SCOPED_TRACE(c.name);
    const Vector values = GaussianVector(c.graph.NumNodes(), 4242);
    SweepResult serial, parallel;
    {
      const ScopedNumThreads threads(1);
      serial = SweepCut(c.graph, values);
    }
    {
      const ScopedNumThreads threads(8);
      parallel = SweepCut(c.graph, values);
    }
    EXPECT_EQ(serial.order, parallel.order);
    EXPECT_EQ(serial.set, parallel.set);
    ExpectBitIdentical(serial.conductance_profile,
                       parallel.conductance_profile);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(serial.stats.conductance),
              std::bit_cast<std::uint64_t>(parallel.stats.conductance));
  }
}

// —— Layout equivalence ——
// The SoA kernels (split heads/weights arrays, head-side degree folds,
// register-blocked SpMM) must be bit-identical to a plain serial
// per-arc traversal that performs the same arithmetic with the same
// reduction tree. The references read the same `Heads(u)`/`Weights(u)`
// spans as the kernels; their independence comes from their own
// per-arc arithmetic and their own copy of the reduction tree: the
// canonical striped tree of docs/simd.md (four lanes over the 4-aligned
// arc prefix folded (l0+l2)+(l1+l3), sequential tail, one `init ± tree`
// rounding), implemented here from first principles so the production
// kernels — scalar and AVX2 alike — are checked against it.

double CanonicalRowTree(const std::vector<double>& terms) {
  const std::int64_t len = static_cast<std::int64_t>(terms.size());
  const std::int64_t main = len & ~std::int64_t{3};
  double lane0 = 0.0, lane1 = 0.0, lane2 = 0.0, lane3 = 0.0;
  for (std::int64_t a = 0; a < main; a += 4) {
    lane0 += terms[a];
    lane1 += terms[a + 1];
    lane2 += terms[a + 2];
    lane3 += terms[a + 3];
  }
  double sum = (lane0 + lane2) + (lane1 + lane3);
  for (std::int64_t a = main; a < len; ++a) sum += terms[a];
  return sum;
}

Vector ReferenceApply(const Graph& g, const LinearOperator& op,
                      const Vector& x, double lazy_alpha = 0.5) {
  const NodeId n = g.NumNodes();
  Vector y(n);
  // Per-arc products in adjacency order, one entry per arc of row u.
  const auto row_terms = [&](NodeId u, const Vector& head_scale) {
    std::vector<double> terms;
    const auto heads = g.Heads(u);
    const auto weights = g.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      const NodeId v = heads[i];
      terms.push_back(head_scale.empty()
                          ? weights[i] * x[v]
                          : (weights[i] * head_scale[v]) * x[v]);
    }
    return terms;
  };
  if (dynamic_cast<const AdjacencyOperator*>(&op) != nullptr) {
    for (NodeId u = 0; u < n; ++u) {
      const std::vector<double> terms = row_terms(u, {});
      y[u] = terms.empty() ? 0.0 : 0.0 + CanonicalRowTree(terms);
    }
  } else if (dynamic_cast<const CombinatorialLaplacianOperator*>(&op) !=
             nullptr) {
    for (NodeId u = 0; u < n; ++u) {
      const double init = g.Degree(u) * x[u];
      const std::vector<double> terms = row_terms(u, {});
      y[u] = terms.empty() ? init : init - CanonicalRowTree(terms);
    }
  } else if (dynamic_cast<const NormalizedLaplacianOperator*>(&op) !=
             nullptr) {
    Vector isd(n, 0.0);
    for (NodeId u = 0; u < n; ++u) {
      if (g.Degree(u) > 0.0) isd[u] = 1.0 / std::sqrt(g.Degree(u));
    }
    for (NodeId u = 0; u < n; ++u) {
      const std::vector<double> terms = row_terms(u, isd);
      const double acc = terms.empty() ? 0.0 : 0.0 + CanonicalRowTree(terms);
      y[u] = isd[u] == 0.0 ? 0.0 : x[u] - isd[u] * acc;
    }
  } else if (dynamic_cast<const RandomWalkOperator*>(&op) != nullptr) {
    Vector inv_deg(n, 0.0);
    for (NodeId u = 0; u < n; ++u) {
      if (g.Degree(u) > 0.0) inv_deg[u] = 1.0 / g.Degree(u);
    }
    for (NodeId u = 0; u < n; ++u) {
      const std::vector<double> terms = row_terms(u, inv_deg);
      y[u] = terms.empty() ? 0.0 : 0.0 + CanonicalRowTree(terms);
    }
  } else {
    Vector inv_deg(n, 0.0);
    for (NodeId u = 0; u < n; ++u) {
      if (g.Degree(u) > 0.0) inv_deg[u] = 1.0 / g.Degree(u);
    }
    for (NodeId u = 0; u < n; ++u) {
      const std::vector<double> terms = row_terms(u, inv_deg);
      const double acc = terms.empty() ? 0.0 : 0.0 + CanonicalRowTree(terms);
      y[u] = g.Degree(u) > 0.0 ? lazy_alpha * x[u] + (1.0 - lazy_alpha) * acc
                               : x[u];
    }
  }
  return y;
}

TEST(LayoutEquivalenceTest, SoAKernelsMatchReferenceTraversal) {
  for (const GraphCase& c : TestGraphs()) {
    SCOPED_TRACE(c.name);
    const Vector x = GaussianVector(c.graph.NumNodes(), 77);
    const AdjacencyOperator adjacency(c.graph);
    const CombinatorialLaplacianOperator combinatorial(c.graph);
    const NormalizedLaplacianOperator normalized(c.graph);
    const RandomWalkOperator walk(c.graph);
    const LazyWalkOperator lazy(c.graph, 0.5);
    const LinearOperator* operators[] = {&adjacency, &combinatorial,
                                         &normalized, &walk, &lazy};
    for (const LinearOperator* op : operators) {
      const Vector reference = ReferenceApply(c.graph, *op, x);
      for (int threads : {1, 8}) {
        const ScopedNumThreads scoped(threads);
        ExpectBitIdentical(reference, op->Apply(x));
      }
    }
  }
}

TEST(LayoutEquivalenceTest, ApplyBatchColumnsMatchSingleVectorApply) {
  for (const GraphCase& c : TestGraphs()) {
    SCOPED_TRACE(c.name);
    const AdjacencyOperator adjacency(c.graph);
    const CombinatorialLaplacianOperator combinatorial(c.graph);
    const NormalizedLaplacianOperator normalized(c.graph);
    const RandomWalkOperator walk(c.graph);
    const LazyWalkOperator lazy(c.graph, 0.5);
    const LinearOperator* operators[] = {&adjacency, &combinatorial,
                                         &normalized, &walk, &lazy};
    // k = 1, 4, 8 exercises the B = 1 path, one full register block,
    // and two full blocks (no tail / the switch tails come from k = 7
    // below in the edge-case test via k = 0/1 plus this loop's 4 + 3).
    for (int k : {1, 4, 7, 8}) {
      std::vector<Vector> xs;
      for (int j = 0; j < k; ++j) {
        xs.push_back(GaussianVector(c.graph.NumNodes(),
                                    1000 + static_cast<std::uint64_t>(j)));
      }
      for (const LinearOperator* op : operators) {
        for (int threads : {1, 8}) {
          const ScopedNumThreads scoped(threads);
          std::vector<Vector> ys;
          op->ApplyBatch(xs, ys);
          ASSERT_EQ(ys.size(), xs.size());
          for (int j = 0; j < k; ++j) {
            SCOPED_TRACE("k=" + std::to_string(k) + " column " +
                         std::to_string(j) + " threads " +
                         std::to_string(threads));
            ExpectBitIdentical(op->Apply(xs[j]), ys[j]);
          }
        }
      }
    }
  }
}

// —— SIMD dispatch equivalence (ISSUE 7) ——
// Forcing the scalar and AVX2 kernel paths must produce bit-identical
// results for every operator Apply/ApplyBatch and for the dispatched
// dense kernels (Dot/Axpy), at 1 and 8 threads. On hardware without
// AVX2 the forced level clamps to scalar and the comparison is
// trivially green — the real check runs wherever AVX2 exists.
TEST(LayoutEquivalenceTest, ScalarAndSimdPathsAreBitIdentical) {
  for (const GraphCase& c : TestGraphs()) {
    SCOPED_TRACE(c.name);
    const NodeId n = c.graph.NumNodes();
    const Vector x = GaussianVector(n, 314);
    const Vector z = GaussianVector(n, 315);
    std::vector<Vector> xs;
    for (int j = 0; j < 4; ++j) {
      xs.push_back(GaussianVector(n, 400 + static_cast<std::uint64_t>(j)));
    }
    const AdjacencyOperator adjacency(c.graph);
    const CombinatorialLaplacianOperator combinatorial(c.graph);
    const NormalizedLaplacianOperator normalized(c.graph);
    const RandomWalkOperator walk(c.graph);
    const LazyWalkOperator lazy(c.graph, 0.5);
    const LinearOperator* operators[] = {&adjacency, &combinatorial,
                                         &normalized, &walk, &lazy};
    const auto compute = [&](simd::SimdLevel level, int threads) {
      const simd::ScopedSimdLevel forced(level);
      const ScopedNumThreads scoped(threads);
      Vector out;
      for (const LinearOperator* op : operators) {
        const Vector y = op->Apply(x);
        out.insert(out.end(), y.begin(), y.end());
        std::vector<Vector> ys;
        op->ApplyBatch(xs, ys);
        for (const Vector& col : ys) {
          out.insert(out.end(), col.begin(), col.end());
        }
      }
      out.push_back(Dot(x, z));
      Vector axpy = z;
      Axpy(0.37, x, axpy);
      out.insert(out.end(), axpy.begin(), axpy.end());
      return out;
    };
    for (int threads : {1, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectBitIdentical(compute(simd::SimdLevel::kScalar, threads),
                         compute(simd::SimdLevel::kAvx2, threads));
    }
  }
}

TEST(LayoutEquivalenceTest, ApplyBatchEdgeCases) {
  // k = 0: no columns in, no columns out.
  {
    Rng rng(3);
    const Graph g = ErdosRenyi(100, 0.05, rng);
    const AdjacencyOperator op(g);
    std::vector<Vector> xs, ys(5, Vector(7, 1.0));
    op.ApplyBatch(xs, ys);  // Must also clear stale output columns.
    EXPECT_TRUE(ys.empty());
  }
  // Isolated nodes: nodes 3 and 4 have no arcs. Normalized Laplacian
  // rows are exactly 0; lazy-walk rows keep their mass exactly.
  {
    GraphBuilder builder(5);
    builder.AddEdge(0, 1, 2.0);
    builder.AddEdge(1, 2, 0.5);
    const Graph g = builder.Build();
    const NormalizedLaplacianOperator normalized(g);
    const LazyWalkOperator lazy(g, 0.5);
    const std::vector<Vector> xs = {GaussianVector(5, 21),
                                    GaussianVector(5, 22)};
    std::vector<Vector> ys;
    normalized.ApplyBatch(xs, ys);
    for (int j = 0; j < 2; ++j) {
      EXPECT_EQ(ys[j][3], 0.0);
      EXPECT_EQ(ys[j][4], 0.0);
      ExpectBitIdentical(normalized.Apply(xs[j]), ys[j]);
    }
    lazy.ApplyBatch(xs, ys);
    for (int j = 0; j < 2; ++j) {
      EXPECT_EQ(ys[j][3], xs[j][3]);
      EXPECT_EQ(ys[j][4], xs[j][4]);
      ExpectBitIdentical(lazy.Apply(xs[j]), ys[j]);
    }
  }
  // Empty graph: zero nodes, k columns of length zero.
  {
    const Graph g = GraphBuilder(0).Build();
    const AdjacencyOperator op(g);
    const std::vector<Vector> xs(3);
    std::vector<Vector> ys;
    op.ApplyBatch(xs, ys);
    ASSERT_EQ(ys.size(), 3u);
    for (const Vector& y : ys) EXPECT_TRUE(y.empty());
  }
}

#ifdef IMPREG_OBSERVABILITY
// —— Observability invariance (ISSUE 4) ——
// Metrics and tracing only *read* solver values; enabling them must
// not move a single bit of any output, at any thread count. This is
// the disabled-path-cost contract of core/metrics.h and core/trace.h
// checked end to end across the solver families the CLI exercises.
TEST(DeterminismTest, ObservabilityOnAndOffAreBitIdentical) {
  const Graph g = CavemanGraph(40, 15);
  const Vector seed = SingleNodeSeed(g, 3);
  PageRankOptions pagerank;
  pagerank.gamma = 0.1;
  pagerank.tolerance = 1e-10;
  PushOptions push;
  push.epsilon = 1e-6;
  // One long vector concatenating every solver family's output, so a
  // single bit comparison covers them all.
  const auto compute = [&] {
    Vector out = PersonalizedPageRank(g, seed, pagerank).scores;
    const PushResult pushed = ApproximatePageRank(g, seed, push);
    out.insert(out.end(), pushed.p.begin(), pushed.p.end());
    out.insert(out.end(), pushed.residual.begin(), pushed.residual.end());
    const Vector heat = HeatKernelWalkTaylor(g, seed, 5.0, 1e-10);
    out.insert(out.end(), heat.begin(), heat.end());
    const HkRelaxResult hk = HeatKernelRelax(g, /*seed=*/0, {});
    out.insert(out.end(), hk.rho.begin(), hk.rho.end());
    out.push_back(static_cast<double>(pushed.work));
    return out;
  };
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const ScopedNumThreads scoped(threads);
    ImpregEnableMetrics(false);
    TraceCollector::Get().Disable();
    const Vector off = compute();
    ImpregEnableMetrics(true);
    TraceCollector::Get().Enable();
    TraceCollector::Get().Clear();
    const Vector on = compute();
    // The instrumented pass must actually have observed something —
    // otherwise this test silently compares two uninstrumented runs.
    EXPECT_FALSE(TraceCollector::Get().Traces().empty());
    ImpregEnableMetrics(false);
    TraceCollector::Get().Disable();
    ExpectBitIdentical(off, on);
  }
}
#endif  // IMPREG_OBSERVABILITY

TEST(DeterminismTest, QueryEngineBatchIsThreadCountInvariantWithCacheOnAndOff) {
  // A mixed batch — push (duplicated, so dedup kicks in), three grouped
  // dense solves (one stopped early by its own work budget), a
  // heat-kernel query and a nibble query — answered
  // before and after an edge insertion, then again after the edge is
  // removed (the surgical-invalidation delete path). With the cache
  // on, the later batches exercise the warm-restart and
  // region-retention paths; with it off, everything is cold. In both
  // configurations every response must be bit-identical at 1 and 8
  // threads.
  const Graph g = CavemanGraph(12, 10);
  std::vector<Query> batch;
  Query ppr;
  ppr.seeds = {0, 25};
  ppr.epsilon = 1e-6;
  batch.push_back(ppr);
  batch.push_back(ppr);  // Exact duplicate → answered once.
  Query dense;
  dense.method = QueryMethod::kPprDense;
  dense.seeds = {3};
  dense.tolerance = 1e-10;
  dense.max_iterations = 300;
  batch.push_back(dense);
  dense.seeds = {40};  // Same (γ, tol, iters) → same ApplyBatch group.
  batch.push_back(dense);
  dense.seeds = {77};
  dense.max_work = 5000;  // A few iterations: only this column stops early.
  batch.push_back(dense);
  Query hk;
  hk.method = QueryMethod::kHeatKernel;
  hk.seeds = {7};
  batch.push_back(hk);
  Query nibble;
  nibble.method = QueryMethod::kNibble;
  nibble.seeds = {50};
  nibble.epsilon = 1e-4;
  batch.push_back(nibble);

  for (const bool cache_on : {false, true}) {
    SCOPED_TRACE(cache_on ? "cache on" : "cache off");
    ExpectSameUnderOneAndEightThreads([&] {
      QueryEngine::Options options;
      options.enable_cache = cache_on;
      QueryEngine engine(g, options);
      Vector out;
      const auto absorb = [&](const std::vector<QueryResponse>& responses) {
        for (const QueryResponse& r : responses) {
          out.insert(out.end(), r.scores.begin(), r.scores.end());
          out.push_back(static_cast<double>(r.work));
          out.push_back(static_cast<double>(static_cast<int>(r.source)));
          out.push_back(static_cast<double>(static_cast<int>(r.status)));
          for (const NodeId u : r.set) out.push_back(static_cast<double>(u));
        }
      };
      absorb(engine.RunBatch(batch));
      engine.AddEdge(0, 61);
      absorb(engine.RunBatch(batch));
      engine.RemoveEdge(0, 61);
      engine.AddEdge(25, 90, 0.5);
      engine.RemoveEdge(25, 90, 0.25);  // Partial: weight 0.25 remains.
      absorb(engine.RunBatch(batch));
      return out;
    });
  }
}

TEST(DeterminismTest, WalkFamilyPortfolioIsThreadCountInvariant) {
  // The walk family diffuses all seed columns through one batched SpMM
  // per step and sweeps each column at every checkpoint: the clusters,
  // their provenance and their conductance bits must not depend on the
  // thread count.
  const Graph g = CavemanGraph(10, 10);
  WalkFamilyOptions options;
  options.num_seeds = 6;
  options.checkpoints = {2, 8, 32};
  std::vector<NcpCluster> serial;
  {
    const ScopedNumThreads threads(1);
    serial = WalkFamilyClusters(g, options);
  }
  ASSERT_FALSE(serial.empty());
  const ScopedNumThreads threads(8);
  const std::vector<NcpCluster> parallel = WalkFamilyClusters(g, options);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].nodes, serial[i].nodes);
    EXPECT_EQ(parallel[i].method, serial[i].method);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel[i].stats.conductance),
              std::bit_cast<std::uint64_t>(serial[i].stats.conductance));
  }
}

TEST(DeterminismTest, DenseReductionsAreThreadCountInvariant) {
  // Vectors long enough for > 4 reduce chunks.
  const Vector x = GaussianVector(100000, 5);
  const Vector y = GaussianVector(100000, 6);
  auto scalars = [&] {
    return Vector{Dot(x, y),          Norm1(x),           Norm2(x),
                  NormInf(x),         Sum(x),             DistanceL1(x, y),
                  DistanceL2(x, y),   DistanceUpToSign(x, y),
                  WeightedDot(x, x, y)};
  };
  Vector serial, parallel;
  {
    const ScopedNumThreads threads(1);
    serial = scalars();
  }
  {
    const ScopedNumThreads threads(8);
    parallel = scalars();
  }
  ExpectBitIdentical(serial, parallel);
}

}  // namespace
}  // namespace impreg
