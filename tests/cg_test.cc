#include "linalg/cg.h"

#include <limits>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "linalg/dense_matrix.h"
#include "linalg/graph_operators.h"
#include "util/rng.h"

namespace impreg {
namespace {

// Dense SPD operator for ground truth.
class DenseOperator : public LinearOperator {
 public:
  explicit DenseOperator(DenseMatrix m) : m_(std::move(m)) {}
  int Dimension() const override { return m_.Rows(); }
  void Apply(const Vector& x, Vector& y) const override { y = m_.Apply(x); }

 private:
  DenseMatrix m_;
};

TEST(CgTest, SolvesIdentity) {
  const DenseOperator id(DenseMatrix::Identity(5));
  const Vector b = {1, 2, 3, 4, 5};
  const CgResult result = ConjugateGradient(id, b);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_LT(DistanceL2(result.x, b), 1e-10);
  EXPECT_LE(result.iterations, 2);
}

TEST(CgTest, SolvesRandomSpdSystem) {
  Rng rng(3);
  const int n = 20;
  DenseMatrix m(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      m.At(i, j) = m.At(j, i) = 0.2 * rng.NextGaussian();
    }
    m.At(i, i) += 5.0;
  }
  const DenseOperator op(m);
  Vector x_true(n);
  for (double& v : x_true) v = rng.NextGaussian();
  const Vector b = m.Apply(x_true);
  const CgResult result = ConjugateGradient(op, b);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_LT(DistanceL2(result.x, x_true), 1e-7);
}

TEST(CgTest, ZeroRhsGivesZero) {
  const DenseOperator id(DenseMatrix::Identity(4));
  const CgResult result = ConjugateGradient(id, Vector(4, 0.0));
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_DOUBLE_EQ(Norm2(result.x), 0.0);
  EXPECT_EQ(result.iterations, 0);
}

TEST(CgTest, ShiftedLaplacianSystem) {
  // (ℒ + I) is SPD: residual check against the operator.
  Rng rng(5);
  const Graph g = ErdosRenyi(50, 0.15, rng);
  const NormalizedLaplacianOperator lap(g);
  const ShiftedOperator system(lap, 1.0, 1.0);
  Vector b(50);
  for (double& v : b) v = rng.NextGaussian();
  const CgResult result = ConjugateGradient(system, b);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  Vector ax;
  system.Apply(result.x, ax);
  EXPECT_LT(DistanceL2(ax, b), 1e-8 * Norm2(b));
}

TEST(CgTest, SingularLaplacianWithProjection) {
  // L x = b is solvable when b ⟂ 1; CG with the null direction
  // projected out converges to the minimum-norm solution.
  const Graph g = CycleGraph(12);
  const CombinatorialLaplacianOperator lap(g);
  const Vector ones(12, 1.0);
  Vector b(12, 0.0);
  b[0] = 1.0;
  b[6] = -1.0;  // Already ⟂ 1.
  CgOptions options;
  options.project_out = &ones;
  const CgResult result = ConjugateGradient(lap, b, options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  Vector lx;
  lap.Apply(result.x, lx);
  EXPECT_LT(DistanceL2(lx, b), 1e-8);
  EXPECT_NEAR(Dot(result.x, ones), 0.0, 1e-9);
}

TEST(CgTest, ProjectionRemovesInfeasibleComponent) {
  // If b has a component along the null space, the projected CG solves
  // the consistent part.
  const Graph g = PathGraph(8);
  const CombinatorialLaplacianOperator lap(g);
  const Vector ones(8, 1.0);
  Vector b(8, 1.0);  // Entirely in the null space.
  b[0] += 1.0;
  b[7] -= 1.0;  // Plus a consistent part.
  CgOptions options;
  options.project_out = &ones;
  const CgResult result = ConjugateGradient(lap, b, options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  Vector lx;
  lap.Apply(result.x, lx);
  // Lx should match the projected b.
  Vector b_perp = b;
  ProjectOut(ones, b_perp);
  EXPECT_LT(DistanceL2(lx, b_perp), 1e-8);
}

TEST(CgTest, IterationCapReported) {
  Rng rng(7);
  const Graph g = ErdosRenyi(100, 0.05, rng);
  const NormalizedLaplacianOperator lap(g);
  const ShiftedOperator system(lap, 1.0, 1e-4);  // Ill-conditioned.
  Vector b(100);
  for (double& v : b) v = rng.NextGaussian();
  CgOptions options;
  options.max_iterations = 2;
  options.relative_tolerance = 1e-14;
  const CgResult result = ConjugateGradient(system, b, options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kMaxIterations);
  EXPECT_EQ(result.iterations, 2);
  EXPECT_GT(result.residual_norm, 0.0);
}

TEST(CgTest, StatusSeparatesConvergedFromCapped) {
  const DenseOperator id(DenseMatrix::Identity(5));
  const Vector b = {1, 2, 3, 4, 5};
  const CgResult ok = ConjugateGradient(id, b);
  EXPECT_EQ(ok.diagnostics.status, SolveStatus::kConverged);
  EXPECT_TRUE(ok.diagnostics.ok());

  CgOptions capped;
  capped.max_iterations = 0;
  const CgResult stopped = ConjugateGradient(id, b, capped);
  EXPECT_EQ(stopped.diagnostics.status, SolveStatus::kMaxIterations);
  EXPECT_TRUE(stopped.diagnostics.usable());
}

TEST(CgTest, NonFiniteRhsIsContained) {
  const DenseOperator id(DenseMatrix::Identity(3));
  const CgResult result = ConjugateGradient(
      id, {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0});
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kNonFinite);
  EXPECT_TRUE(AllFinite(result.x));
}

TEST(CgTest, IndefiniteSystemReportsBreakdown) {
  // A = -I is negative definite: pᵀAp < 0 on the first iteration.
  DenseMatrix m = DenseMatrix::Identity(4);
  for (int i = 0; i < 4; ++i) m.At(i, i) = -1.0;
  const DenseOperator op(m);
  const CgResult result = ConjugateGradient(op, {1, 1, 1, 1});
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kBreakdown);
  EXPECT_TRUE(AllFinite(result.x));
}

}  // namespace
}  // namespace impreg
