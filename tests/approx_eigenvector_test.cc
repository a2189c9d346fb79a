#include "core/approx_eigenvector.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "linalg/graph_operators.h"
#include "partition/spectral.h"

namespace impreg {
namespace {

Graph TestGraph() {
  Rng rng(3);
  Graph g = ErdosRenyi(60, 0.12, rng);
  // Regenerate until connected so λ₂ > 0 (deterministic from the seed).
  while (true) {
    std::vector<char> seen(g.NumNodes(), 0);
    std::vector<NodeId> stack = {0};
    seen[0] = 1;
    NodeId count = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : g.Heads(u)) {
        if (!seen[v]) {
          seen[v] = 1;
          ++count;
          stack.push_back(v);
        }
      }
    }
    if (count == g.NumNodes()) return g;
    g = ErdosRenyi(60, 0.12, rng);
  }
}

TEST(ApproxEigenvectorTest, ExactMatchesSpectralPartitioner) {
  const Graph g = TestGraph();
  ApproxEigenvectorOptions options;
  options.method = EigenvectorMethod::kExact;
  const ApproxEigenvectorResult exact =
      ApproximateSecondEigenvector(g, options);
  const SpectralPartitionResult spectral = SpectralPartition(g);
  EXPECT_NEAR(exact.rayleigh, spectral.lambda2, 1e-8);
  EXPECT_TRUE(exact.implicit_regularizer.empty());
}

TEST(ApproxEigenvectorTest, EveryApproximationHasWorseRayleigh) {
  // The core ordering of §3.1: approximations are regularized, so their
  // Rayleigh quotients are ≥ λ₂.
  const Graph g = TestGraph();
  ApproxEigenvectorOptions exact_opts;
  exact_opts.method = EigenvectorMethod::kExact;
  const double lambda2 =
      ApproximateSecondEigenvector(g, exact_opts).rayleigh;

  for (EigenvectorMethod method :
       {EigenvectorMethod::kPowerMethod, EigenvectorMethod::kHeatKernel,
        EigenvectorMethod::kPageRank, EigenvectorMethod::kLazyWalk}) {
    ApproxEigenvectorOptions options;
    options.method = method;
    options.power_iterations = 5;
    options.t = 3.0;
    options.gamma = 0.2;
    options.steps = 5;
    const ApproxEigenvectorResult result =
        ApproximateSecondEigenvector(g, options);
    EXPECT_GE(result.rayleigh, lambda2 - 1e-9)
        << "method " << static_cast<int>(method);
    EXPECT_FALSE(result.implicit_regularizer.empty());
  }
}

TEST(ApproxEigenvectorTest, AggressivenessConvergesToExact) {
  // Cranking each method's aggressiveness knob drives the Rayleigh
  // quotient down to λ₂.
  const Graph g = CavemanGraph(2, 8);  // Clean spectral gap.
  ApproxEigenvectorOptions exact_opts;
  exact_opts.method = EigenvectorMethod::kExact;
  const double lambda2 =
      ApproximateSecondEigenvector(g, exact_opts).rayleigh;

  ApproxEigenvectorOptions hk;
  hk.method = EigenvectorMethod::kHeatKernel;
  hk.t = 300.0;
  EXPECT_NEAR(ApproximateSecondEigenvector(g, hk).rayleigh, lambda2, 1e-5);

  ApproxEigenvectorOptions pm;
  pm.method = EigenvectorMethod::kPowerMethod;
  pm.power_iterations = 4000;
  EXPECT_NEAR(ApproximateSecondEigenvector(g, pm).rayleigh, lambda2, 1e-6);

  ApproxEigenvectorOptions lw;
  lw.method = EigenvectorMethod::kLazyWalk;
  lw.steps = 4000;
  EXPECT_NEAR(ApproximateSecondEigenvector(g, lw).rayleigh, lambda2, 1e-5);
}

TEST(ApproxEigenvectorTest, OutputIsUnitAndOrthogonalToTrivial) {
  const Graph g = TestGraph();
  const NormalizedLaplacianOperator lap(g);
  for (EigenvectorMethod method :
       {EigenvectorMethod::kExact, EigenvectorMethod::kPowerMethod,
        EigenvectorMethod::kHeatKernel, EigenvectorMethod::kPageRank,
        EigenvectorMethod::kLazyWalk}) {
    ApproxEigenvectorOptions options;
    options.method = method;
    const ApproxEigenvectorResult result =
        ApproximateSecondEigenvector(g, options);
    EXPECT_NEAR(Norm2(result.x), 1.0, 1e-10);
    EXPECT_NEAR(Dot(result.x, lap.TrivialEigenvector()), 0.0, 1e-8)
        << "method " << static_cast<int>(method);
  }
}

TEST(ApproxEigenvectorTest, DeterministicGivenSeed) {
  const Graph g = TestGraph();
  ApproxEigenvectorOptions options;
  options.method = EigenvectorMethod::kHeatKernel;
  options.rng_seed = 777;
  const ApproxEigenvectorResult a = ApproximateSecondEigenvector(g, options);
  const ApproxEigenvectorResult b = ApproximateSecondEigenvector(g, options);
  EXPECT_EQ(a.x, b.x);
}

TEST(ApproxEigenvectorTest, EtaReportsMatchKnobs) {
  const Graph g = CavemanGraph(2, 5);
  ApproxEigenvectorOptions options;
  options.method = EigenvectorMethod::kHeatKernel;
  options.t = 7.5;
  EXPECT_DOUBLE_EQ(ApproximateSecondEigenvector(g, options).eta, 7.5);
  options.method = EigenvectorMethod::kPageRank;
  options.gamma = 0.25;
  EXPECT_NEAR(ApproximateSecondEigenvector(g, options).eta, 1.0 / 3.0,
              1e-12);
}

TEST(ApproxEigenvectorTest, EdgelessGraphDies) {
  GraphBuilder builder(4);
  EXPECT_DEATH(ApproximateSecondEigenvector(builder.Build()), "no edges");
}

}  // namespace
}  // namespace impreg
