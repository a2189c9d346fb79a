#ifndef IMPREG_LINALG_CG_H_
#define IMPREG_LINALG_CG_H_

#include "core/solve_status.h"
#include "linalg/operator.h"

/// \file
/// Conjugate gradient for symmetric positive (semi)definite systems.
/// Used for the "exact" Personalized PageRank solves (§3.3's
/// optimization approach) and for Laplacian systems, where the
/// singularity along 1 (or D^{1/2}1) is handled by projecting it out of
/// the residual at every step.

namespace impreg {

/// Options for ConjugateGradient.
struct CgOptions {
  int max_iterations = 2000;
  /// Convergence: ‖r‖₂ ≤ tolerance · ‖b‖₂.
  double relative_tolerance = 1e-10;
  /// If non-null, the solve is restricted to the orthogonal complement
  /// of this vector (for singular SPD systems whose null space it
  /// spans). The pointee must outlive the call.
  const Vector* project_out = nullptr;
};

/// Result of a CG solve. `x` is always finite: on a non-finite event the
/// solve stops with diagnostics.status = kNonFinite and returns the last
/// iterate that was verified finite.
struct CgResult {
  Vector x;
  int iterations = 0;
  double residual_norm = 0.0;
  SolverDiagnostics diagnostics;
};

/// Solves A x = b for symmetric positive (semi)definite A.
CgResult ConjugateGradient(const LinearOperator& a, const Vector& b,
                           const CgOptions& options = {});

}  // namespace impreg

#endif  // IMPREG_LINALG_CG_H_
