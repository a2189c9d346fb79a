#include "linalg/chebyshev.h"

#include <gtest/gtest.h>

#include "diffusion/pagerank.h"
#include "diffusion/seed.h"
#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "linalg/graph_operators.h"

namespace impreg {
namespace {

TEST(ChebyshevTest, SolvesScaledIdentity) {
  // A = 3I: δ = 0 branch, solved in one step.
  class ScaledIdentity : public LinearOperator {
   public:
    int Dimension() const override { return 4; }
    void Apply(const Vector& x, Vector& y) const override {
      y = x;
      Scale(3.0, y);
    }
  } op;
  const Vector b = {3.0, 6.0, 9.0, 12.0};
  const ChebyshevResult result = ChebyshevSolve(op, b, 3.0, 3.0);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_LT(DistanceL2(result.x, {1.0, 2.0, 3.0, 4.0}), 1e-10);
}

TEST(ChebyshevTest, SolvesShiftedLaplacian) {
  Rng rng(1);
  const Graph g = ErdosRenyi(60, 0.12, rng);
  const NormalizedLaplacianOperator lap(g);
  const ShiftedOperator system(lap, 0.8, 0.2);  // Spectrum [0.2, 1.8].
  Vector b(60);
  for (double& v : b) v = rng.NextGaussian();
  const ChebyshevResult result = ChebyshevSolve(system, b, 0.2, 1.8);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  Vector ax;
  system.Apply(result.x, ax);
  EXPECT_LT(DistanceL2(ax, b), 1e-8 * Norm2(b));
}

TEST(ChebyshevTest, ZeroRhs) {
  const Graph g = CycleGraph(8);
  const NormalizedLaplacianOperator lap(g);
  const ShiftedOperator system(lap, 1.0, 0.5);
  const ChebyshevResult result = ChebyshevSolve(system, Vector(8, 0.0),
                                                0.5, 2.5);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_DOUBLE_EQ(Norm2(result.x), 0.0);
}

TEST(ChebyshevTest, IterationCapReported) {
  Rng rng(2);
  const Graph g = ErdosRenyi(80, 0.08, rng);
  const NormalizedLaplacianOperator lap(g);
  const ShiftedOperator system(lap, 0.999, 0.001);  // Ill-conditioned.
  Vector b(80);
  for (double& v : b) v = rng.NextGaussian();
  ChebyshevOptions options;
  options.max_iterations = 3;
  options.relative_tolerance = 1e-14;
  const ChebyshevResult result =
      ChebyshevSolve(system, b, 0.001, 1.999, options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kMaxIterations);
  EXPECT_EQ(result.iterations, 3);
}

TEST(ChebyshevTest, PprSolverMatchesCgSolver) {
  Rng rng(3);
  const Graph g = ErdosRenyi(70, 0.1, rng);
  const Vector seed = SingleNodeSeed(g, 5);
  PageRankOptions options;
  options.gamma = 0.15;
  options.tolerance = 1e-12;
  const PageRankResult cheb =
      PersonalizedPageRankChebyshev(g, seed, options);
  const PageRankResult cg = PersonalizedPageRankExact(g, seed, options);
  EXPECT_EQ(cheb.diagnostics.status, SolveStatus::kConverged);
  EXPECT_LT(DistanceL1(cheb.scores, cg.scores), 1e-8);
}

TEST(ChebyshevTest, BeatsRichardsonIterationCount) {
  // √κ vs κ: at small γ the Richardson (power-style) iteration needs
  // ~1/γ iterations, Chebyshev ~1/√γ.
  Rng rng(4);
  const Graph g = ErdosRenyi(200, 0.05, rng);
  const Vector seed = SingleNodeSeed(g, 0);
  PageRankOptions options;
  options.gamma = 0.01;
  options.tolerance = 1e-10;
  options.max_iterations = 100000;
  const PageRankResult richardson = PersonalizedPageRank(g, seed, options);
  const PageRankResult cheb =
      PersonalizedPageRankChebyshev(g, seed, options);
  EXPECT_EQ(richardson.diagnostics.status, SolveStatus::kConverged);
  EXPECT_EQ(cheb.diagnostics.status, SolveStatus::kConverged);
  EXPECT_LT(cheb.iterations * 3, richardson.iterations);
}

TEST(ChebyshevTest, InvalidBoundsDie) {
  const Graph g = CycleGraph(6);
  const NormalizedLaplacianOperator lap(g);
  EXPECT_DEATH(ChebyshevSolve(lap, Vector(6, 1.0), 0.0, 2.0), "");
  EXPECT_DEATH(ChebyshevSolve(lap, Vector(6, 1.0), 2.0, 1.0), "");
}

TEST(ChebyshevTest, StatusSeparatesConvergedFromCapped) {
  Rng rng(7);
  const Graph g = ErdosRenyi(40, 0.15, rng);
  const NormalizedLaplacianOperator lap(g);
  const ShiftedOperator system(lap, 0.8, 0.2);
  Vector b(40);
  for (double& v : b) v = rng.NextGaussian();
  const ChebyshevResult ok = ChebyshevSolve(system, b, 0.2, 1.8);
  EXPECT_EQ(ok.diagnostics.status, SolveStatus::kConverged);

  ChebyshevOptions capped;
  capped.max_iterations = 1;
  capped.relative_tolerance = 1e-14;
  const ChebyshevResult stopped =
      ChebyshevSolve(system, b, 0.2, 1.8, capped);
  EXPECT_EQ(stopped.diagnostics.status, SolveStatus::kMaxIterations);
  EXPECT_TRUE(stopped.diagnostics.usable());
}

TEST(ChebyshevTest, NonFiniteRhsIsContained) {
  const Graph g = CycleGraph(8);
  const NormalizedLaplacianOperator lap(g);
  const ShiftedOperator system(lap, 1.0, 0.5);
  Vector b(8, 1.0);
  b[3] = std::numeric_limits<double>::infinity();
  const ChebyshevResult result = ChebyshevSolve(system, b, 0.5, 2.5);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kNonFinite);
  EXPECT_TRUE(AllFinite(result.x));
}

TEST(ChebyshevTest, WrongBoundsDivergenceReportsBreakdown) {
  // Spectrum of the shifted operator is [0.5, 2.5]; claiming [0.1, 1.0]
  // puts the true λ_max far above 2θ, so the recurrence amplifies those
  // modes geometrically — the divergence watch must catch it instead of
  // silently returning garbage (or overflowing into Inf).
  Rng rng(9);
  const Graph g = ErdosRenyi(50, 0.15, rng);
  const NormalizedLaplacianOperator lap(g);
  const ShiftedOperator system(lap, 1.0, 0.5);
  Vector b(50);
  for (double& v : b) v = rng.NextGaussian();
  ChebyshevOptions options;
  options.max_iterations = 2000;
  const ChebyshevResult result =
      ChebyshevSolve(system, b, 0.1, 1.0, options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kBreakdown);
  EXPECT_TRUE(AllFinite(result.x));
}

}  // namespace
}  // namespace impreg
