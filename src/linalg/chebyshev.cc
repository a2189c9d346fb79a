#include "linalg/chebyshev.h"

#include <cmath>

#include "core/metrics.h"
#include "core/parallel.h"
#include "core/trace.h"
#include "util/check.h"
#include "util/fault.h"

namespace impreg {

namespace {

/// Iterations between O(n) snapshot copies of the best iterate. The
/// residual norm itself is computed every iteration anyway (it is the
/// convergence test), so the scalar sentinel is free; only the
/// best-so-far copy is amortized.
constexpr int kSnapshotInterval = 8;

/// A residual this many times above the best residual seen is declared
/// divergence (kBreakdown). Chebyshev residuals oscillate inside their
/// decaying envelope, but with correct bounds they never climb three
/// orders of magnitude past the best; with wrong bounds they grow
/// geometrically and cross this in a few iterations.
constexpr double kDivergenceFactor = 1e4;

}  // namespace

ChebyshevResult ChebyshevSolve(const LinearOperator& a, const Vector& b,
                               double lambda_min, double lambda_max,
                               const ChebyshevOptions& options) {
  IMPREG_CHECK(lambda_min > 0.0 && lambda_min <= lambda_max);
  const int n = a.Dimension();
  IMPREG_CHECK(static_cast<int>(b.size()) == n);

  ChebyshevResult result;
  result.x.assign(n, 0.0);
  SolverDiagnostics& diag = result.diagnostics;
  SolverTrace* trace = IMPREG_TRACE_BEGIN("chebyshev");

  if (!AllFinite(b)) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail = "right-hand side has non-finite entries; returning x = 0";
    IMPREG_TRACE_FINISH(trace, diag);
    return result;
  }

  const double b_norm = Norm2(b);
  if (b_norm == 0.0) {
    diag.status = SolveStatus::kConverged;
    diag.detail = "zero right-hand side";
    IMPREG_TRACE_FINISH(trace, diag);
    return result;
  }
  const double threshold = options.relative_tolerance * b_norm;

  const double theta = 0.5 * (lambda_max + lambda_min);
  const double delta = 0.5 * (lambda_max - lambda_min);

  Vector r = b;  // r = b − A·0.
  if (delta == 0.0) {
    // A = θI exactly: one step solves.
    result.x = b;
    Scale(1.0 / theta, result.x);
    a.Apply(result.x, r);
    for (int i = 0; i < n; ++i) r[i] = b[i] - r[i];
    result.iterations = 1;
    result.residual_norm = Norm2(r);
    diag.iterations = 1;
    diag.RecordResidual(result.residual_norm);
    if (!std::isfinite(result.residual_norm)) {
      // The operator produced poison; x = b/θ itself is finite.
      diag.status = SolveStatus::kNonFinite;
      diag.detail = "operator produced a non-finite residual on the "
                    "single-step (δ = 0) branch";
      result.x.assign(n, 0.0);
      result.residual_norm = b_norm;
      diag.final_residual = b_norm;
      IMPREG_TRACE_FINISH(trace, diag);
      return result;
    }
    diag.status = result.residual_norm <= threshold
                      ? SolveStatus::kConverged
                      : SolveStatus::kMaxIterations;
    IMPREG_TRACE_EVENT(trace, 1, kResidual, result.residual_norm);
    IMPREG_TRACE_FINISH(trace, diag);
    return result;
  }

  const double sigma = theta / delta;
  double rho = 1.0 / sigma;
  Vector d = r;
  Scale(1.0 / theta, d);
  Vector ad(n);
  // Best iterate verified finite (initially x = 0, residual ‖b‖): what
  // the caller gets on a non-finite event or divergence breakdown.
  Vector snapshot = result.x;
  double snapshot_residual = b_norm;
  double best_residual = b_norm;
  bool converged = false;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    Axpy(1.0, d, result.x);
    IMPREG_FAULT_POINT("chebyshev/x", result.x);
    a.Apply(d, ad);
    IMPREG_FAULT_POINT("chebyshev/ad", ad);
    Axpy(-1.0, ad, r);
    result.iterations = iter;
    result.residual_norm = Norm2(r);
    IMPREG_FAULT_POINT("chebyshev/residual", result.residual_norm);
    diag.RecordResidual(result.residual_norm);
    IMPREG_TRACE_EVENT(trace, iter, kResidual, result.residual_norm);
    if (!std::isfinite(result.residual_norm)) {
      diag.status = SolveStatus::kNonFinite;
      diag.detail =
          "residual norm is non-finite; returning best finite iterate";
      IMPREG_TRACE_EVENT(trace, iter, kRollback, snapshot_residual);
      result.x = snapshot;
      result.residual_norm = snapshot_residual;
      break;
    }
    if (result.residual_norm <= threshold) {
      converged = true;
      break;
    }
    if (result.residual_norm < best_residual) {
      best_residual = result.residual_norm;
    } else if (result.residual_norm > kDivergenceFactor * best_residual) {
      // The recurrence is amplifying: the true spectrum must escape
      // [λ_min, λ_max]. Stop before overflow turns growth into Inf.
      diag.status = SolveStatus::kBreakdown;
      diag.detail = "residuals diverged (bad eigenvalue bounds?); "
                    "returning best iterate — consider a power-iteration "
                    "fallback";
      IMPREG_TRACE_EVENT(trace, iter, kFault, result.residual_norm);
      IMPREG_TRACE_EVENT(trace, iter, kRollback, snapshot_residual);
      result.x = snapshot;
      result.residual_norm = snapshot_residual;
      break;
    }
    if (iter % kSnapshotInterval == 0 &&
        result.residual_norm < snapshot_residual) {
      if (!AllFinite(result.x)) {
        diag.status = SolveStatus::kNonFinite;
        diag.detail =
            "iterate has non-finite entries; returning best finite iterate";
        IMPREG_TRACE_EVENT(trace, iter, kRollback, snapshot_residual);
        result.x = snapshot;
        result.residual_norm = snapshot_residual;
        break;
      }
      snapshot = result.x;
      snapshot_residual = result.residual_norm;
    }
    const double rho_next = 1.0 / (2.0 * sigma - rho);
    // d ← ρρ' d + (2ρ'/δ) r, fused into one parallel pass.
    const double d_coeff = rho * rho_next;
    const double r_coeff = 2.0 * rho_next / delta;
    ParallelFor(0, n, 1 << 14, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        d[i] = d_coeff * d[i] + r_coeff * r[i];
      }
    });
    rho = rho_next;
  }

  // Final gate: never hand back poison that slipped in between the
  // amortized snapshots (the residual is on r, not x).
  if (diag.status == SolveStatus::kMaxIterations && !AllFinite(result.x)) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail =
        "iterate has non-finite entries; returning best finite iterate";
    IMPREG_TRACE_EVENT(trace, result.iterations, kRollback,
                       snapshot_residual);
    result.x = snapshot;
    result.residual_norm = snapshot_residual;
    converged = false;
  }
  if (converged) {
    diag.status = SolveStatus::kConverged;
  } else if (diag.status == SolveStatus::kMaxIterations &&
             diag.detail.empty()) {
    diag.detail = "iteration cap hit; iterate is the early-stopped answer";
  }
  diag.iterations = result.iterations;
  diag.final_residual = result.residual_norm;
  IMPREG_TRACE_FINISH(trace, diag);
  IMPREG_METRIC_COUNT("solver.chebyshev.solves", 1);
  IMPREG_METRIC_COUNT("solver.chebyshev.iterations", result.iterations);
  return result;
}

}  // namespace impreg
