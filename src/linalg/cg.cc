#include "linalg/cg.h"

#include <cmath>

#include "core/metrics.h"
#include "core/trace.h"
#include "util/check.h"
#include "util/fault.h"

namespace impreg {

namespace {

/// Iterations between O(n) iterate checks/snapshots. The scalar
/// sentinels (pᵀAp, ‖r‖²) run every iteration for free — a NaN anywhere
/// in p, ap or r poisons those dot products — so the full AllFinite scan
/// only has to catch poison that entered x directly, and is amortized
/// over this window.
constexpr int kFiniteCheckInterval = 8;

}  // namespace

CgResult ConjugateGradient(const LinearOperator& a, const Vector& b,
                           const CgOptions& options) {
  const int n = a.Dimension();
  IMPREG_CHECK(static_cast<int>(b.size()) == n);

  CgResult result;
  result.x.assign(n, 0.0);
  SolverDiagnostics& diag = result.diagnostics;
  SolverTrace* trace = IMPREG_TRACE_BEGIN("cg");

  if (!AllFinite(b)) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail = "right-hand side has non-finite entries; returning x = 0";
    IMPREG_TRACE_FINISH(trace, diag);
    return result;
  }

  Vector r = b;
  if (options.project_out != nullptr) ProjectOut(*options.project_out, r);
  const double b_norm = Norm2(r);
  if (b_norm == 0.0) {
    diag.status = SolveStatus::kConverged;
    diag.detail = "zero right-hand side";
    IMPREG_TRACE_FINISH(trace, diag);
    return result;
  }
  const double threshold = options.relative_tolerance * b_norm;

  Vector p = r;
  Vector ap(n);
  double rr = Dot(r, r);
  // Last iterate verified finite, with its residual: what the caller
  // gets if the iteration produces a NaN/Inf.
  Vector snapshot = result.x;
  double snapshot_rr = rr;
  bool converged = false;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    a.Apply(p, ap);
    IMPREG_FAULT_POINT("cg/ap", ap);
    if (options.project_out != nullptr) ProjectOut(*options.project_out, ap);
    double pap = Dot(p, ap);
    IMPREG_FAULT_POINT("cg/pap", pap);
    if (!std::isfinite(pap)) {
      diag.status = SolveStatus::kNonFinite;
      diag.detail =
          "curvature pᵀAp is non-finite; returning last finite iterate";
      IMPREG_TRACE_EVENT(trace, iter, kRollback, std::sqrt(snapshot_rr));
      result.x = snapshot;
      rr = snapshot_rr;
      break;
    }
    if (pap <= 0.0) {
      // Lost positive-definiteness numerically; x is still the best
      // iterate produced so far.
      diag.status = SolveStatus::kBreakdown;
      diag.detail = "curvature pᵀAp ≤ 0: operator is not positive definite "
                    "on the search space; returning best iterate";
      IMPREG_TRACE_EVENT(trace, iter, kFault, pap);
      break;
    }
    const double alpha = rr / pap;
    Axpy(alpha, p, result.x);
    IMPREG_FAULT_POINT("cg/x", result.x);
    Axpy(-alpha, ap, r);
    if (options.project_out != nullptr) ProjectOut(*options.project_out, r);
    double rr_new = Dot(r, r);
    IMPREG_FAULT_POINT("cg/rho", rr_new);
    result.iterations = iter;
    if (!std::isfinite(rr_new)) {
      diag.status = SolveStatus::kNonFinite;
      diag.detail =
          "residual norm is non-finite; returning last finite iterate";
      IMPREG_TRACE_EVENT(trace, iter, kRollback, std::sqrt(snapshot_rr));
      result.x = snapshot;
      rr = snapshot_rr;
      break;
    }
    diag.RecordResidual(std::sqrt(rr_new));
    IMPREG_TRACE_EVENT(trace, iter, kResidual, std::sqrt(rr_new));
    if (std::sqrt(rr_new) <= threshold) {
      converged = true;
      rr = rr_new;
      break;
    }
    if (iter % kFiniteCheckInterval == 0) {
      if (!AllFinite(result.x)) {
        diag.status = SolveStatus::kNonFinite;
        diag.detail =
            "iterate has non-finite entries; returning last finite iterate";
        IMPREG_TRACE_EVENT(trace, iter, kRollback, std::sqrt(snapshot_rr));
        result.x = snapshot;
        rr = snapshot_rr;
        break;
      }
      snapshot = result.x;
      snapshot_rr = rr_new;
    }
    const double beta = rr_new / rr;
    rr = rr_new;
    for (int i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
  }

  // Final gate: never hand back poison, even if it entered between the
  // amortized checks (e.g. on the converging step itself).
  if (diag.status == SolveStatus::kMaxIterations && !AllFinite(result.x)) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail =
        "iterate has non-finite entries; returning last finite iterate";
    IMPREG_TRACE_EVENT(trace, result.iterations, kRollback,
                       std::sqrt(snapshot_rr));
    result.x = snapshot;
    rr = snapshot_rr;
    converged = false;
  }
  if (converged) {
    diag.status = SolveStatus::kConverged;
  } else if (diag.status == SolveStatus::kMaxIterations &&
             diag.detail.empty()) {
    diag.detail = "iteration cap hit; iterate is the early-stopped answer";
  }
  result.residual_norm = std::sqrt(rr);
  diag.iterations = result.iterations;
  diag.final_residual = result.residual_norm;
  IMPREG_TRACE_FINISH(trace, diag);
  IMPREG_METRIC_COUNT("solver.cg.solves", 1);
  IMPREG_METRIC_COUNT("solver.cg.iterations", result.iterations);
  return result;
}

}  // namespace impreg
