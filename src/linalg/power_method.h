#ifndef IMPREG_LINALG_POWER_METHOD_H_
#define IMPREG_LINALG_POWER_METHOD_H_

#include <functional>
#include <vector>

#include "core/solve_status.h"
#include "graph/graph.h"
#include "linalg/operator.h"

/// \file
/// The Power Method of §3.1 (footnote 15): the canonical approximate
/// eigenvector computation whose early stopping is one of the paper's
/// central examples of implicit regularization. The per-iteration
/// callback exists specifically so experiments can inspect the iterates
/// ν_t — the "truncated" answers the paper argues are often better than
/// the exact one.

namespace impreg {

/// Options for PowerMethod.
struct PowerMethodOptions {
  int max_iterations = 1000;
  /// Convergence: ‖ν_{t+1} − ν_t‖₂ (after sign alignment) below this.
  double tolerance = 1e-10;
  /// Vectors kept out of the iteration (deflation), e.g. the trivial
  /// eigenvector of ℒ.
  std::vector<Vector> deflate;
  /// If set, called after every iteration with (iteration, unit iterate).
  std::function<void(int, const Vector&)> on_iterate;
};

/// Result of a power iteration. The eigenvector is unit length and
/// finite whenever diagnostics.usable(); on kNonFinite it is the last
/// finite unit iterate, and on kInvalidInput (non-finite start) it is
/// the zero vector.
struct PowerMethodResult {
  double eigenvalue = 0.0;  ///< Rayleigh quotient at the final iterate.
  Vector eigenvector;       ///< Unit length.
  int iterations = 0;
  SolverDiagnostics diagnostics;
};

/// Runs the power method ν_{t+1} = A ν_t / ‖A ν_t‖₂ from `start`
/// (deflated and normalized first). Converges to the dominant
/// eigenvector of A restricted to the complement of the deflated
/// vectors, for symmetric A with a dominant eigenvalue.
PowerMethodResult PowerMethod(const LinearOperator& op, Vector start,
                              const PowerMethodOptions& options = {});

/// Convenience for the paper's main use: the leading *nontrivial*
/// eigenpair (λ₂, v₂) of the normalized Laplacian ℒ, computed by the
/// power method on 2I − ℒ with the trivial eigenvector deflated.
/// Returns eigenvalue λ₂ (of ℒ) and the unit eigenvector v₂.
PowerMethodResult SecondEigenpairPowerMethod(
    const Graph& graph, Vector start, const PowerMethodOptions& options = {});

}  // namespace impreg

#endif  // IMPREG_LINALG_POWER_METHOD_H_
