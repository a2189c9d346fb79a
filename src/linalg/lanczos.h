#ifndef IMPREG_LINALG_LANCZOS_H_
#define IMPREG_LINALG_LANCZOS_H_

#include <cstdint>
#include <vector>

#include "core/solve_status.h"
#include "linalg/operator.h"

/// \file
/// Lanczos iteration with full reorthogonalization.
///
/// Footnote 15 of the paper: "Lanczos algorithms look at a subspace of
/// vectors generated during the iteration" — this is the production-
/// grade variant of the Power Method used for the exact side of every
/// comparison (exact v₂, exact heat-kernel action).

namespace impreg {

/// Options for LanczosSmallest / LanczosLargest.
struct LanczosOptions {
  /// Maximum Krylov dimension (and matvec count).
  int max_iterations = 300;
  /// Ritz-pair residual tolerance for declaring convergence.
  double tolerance = 1e-10;
  /// Seed for the random start vector.
  std::uint64_t seed = 0x1a2b3c4dULL;
  /// Vectors to deflate: the Krylov space is kept orthogonal to these
  /// (e.g. the trivial eigenvector D^{1/2}1 when targeting v₂ of ℒ).
  std::vector<Vector> deflate;
};

/// Result of a Lanczos run.
struct LanczosResult {
  /// The k requested eigenvalues (ascending for Smallest, descending for
  /// Largest).
  Vector eigenvalues;
  /// Matching Ritz vectors (unit length, mutually orthogonal).
  std::vector<Vector> eigenvectors;
  /// Explicit residual norms ‖A vᵢ − λᵢ vᵢ‖ of the returned pairs,
  /// computed with a single batched SpMM (`ApplyBatch`) over all Ritz
  /// vectors — one adjacency traversal instead of one per pair.
  Vector residuals;
  /// Krylov dimension actually built.
  int iterations = 0;
  /// kConverged: all k Ritz pairs met the residual tolerance.
  /// kBreakdown: the deflated start vector vanished — the reachable
  /// subspace holds fewer than k pairs (whatever was found is returned).
  /// kNonFinite: poison entered the recurrence — the basis built before
  /// the event is used and the partial (finite) Ritz pairs returned.
  SolverDiagnostics diagnostics;
};

/// Computes the k algebraically smallest eigenpairs of a symmetric
/// operator (restricted to the complement of the deflated vectors).
LanczosResult LanczosSmallest(const LinearOperator& op, int k,
                              const LanczosOptions& options = {});

/// Computes the k algebraically largest eigenpairs.
LanczosResult LanczosLargest(const LinearOperator& op, int k,
                             const LanczosOptions& options = {});

/// Krylov approximation of the matrix exponential action
/// y ≈ exp(scale · op) · v using a basis of dimension ≤ krylov_dim.
/// For symmetric op with spectrum in [0, 2] and scale = −t this is the
/// Heat Kernel H_t v of §3.1. Accuracy improves rapidly with krylov_dim
/// (≈30–60 suffices for machine precision at moderate t). If
/// `diagnostics` is non-null it receives the solve outcome; the
/// returned vector is always finite (zero on kNonFinite when no finite
/// prefix of the Krylov basis survived).
Vector KrylovExpMultiply(const LinearOperator& op, double scale,
                         const Vector& v, int krylov_dim = 60,
                         SolverDiagnostics* diagnostics = nullptr);

}  // namespace impreg

#endif  // IMPREG_LINALG_LANCZOS_H_
