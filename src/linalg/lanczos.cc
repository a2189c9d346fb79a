#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>

#include "core/metrics.h"
#include "core/trace.h"
#include "linalg/tridiagonal.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/rng.h"

namespace impreg {

namespace {

// Orthogonalizes x against every vector in `basis` (twice, for numerical
// robustness — the classical "twice is enough" rule).
void Reorthogonalize(const std::vector<Vector>& basis, Vector& x) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const Vector& q : basis) {
      const double coeff = Dot(q, x);
      if (coeff != 0.0) Axpy(-coeff, q, x);
    }
  }
}

// Draws a fresh Gaussian vector orthogonal to `deflate` and `basis`,
// normalized. Retries a few fresh draws (the rng keeps advancing, so
// the whole procedure is deterministic); returns false when every draw
// vanished under projection, i.e. the reachable subspace is exhausted.
bool DrawOrthogonalStart(Rng& rng, const std::vector<Vector>& deflate,
                         const std::vector<Vector>& basis, Vector& q) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    for (double& v : q) v = rng.NextGaussian();
    Reorthogonalize(deflate, q);
    Reorthogonalize(basis, q);
    if (Normalize(q) > 1e-12) return true;
  }
  return false;
}

LanczosResult RunLanczos(const LinearOperator& op, int k, bool smallest,
                         const LanczosOptions& options) {
  const int n = op.Dimension();
  IMPREG_CHECK(k >= 1);
  IMPREG_CHECK(n >= 1);
  const int max_dim = std::min(options.max_iterations, n);
  IMPREG_CHECK(max_dim >= 1);

  LanczosResult result;
  SolverDiagnostics& diag = result.diagnostics;
  SolverTrace* trace = IMPREG_TRACE_BEGIN("lanczos");

  // Normalized copies of the deflation vectors.
  std::vector<Vector> deflate;
  for (const Vector& d : options.deflate) {
    IMPREG_CHECK(static_cast<int>(d.size()) == n);
    Vector copy = d;
    Reorthogonalize(deflate, copy);
    if (Normalize(copy) > 1e-12) deflate.push_back(std::move(copy));
  }

  // Random start vector, deflated. If it vanishes the deflated vectors
  // already span everything reachable: a breakdown, not an abort — the
  // deflated driver (RunDeflated) hits this when asked for more pairs
  // than the complement holds.
  Rng rng(options.seed);
  Vector q(n);
  if (!DrawOrthogonalStart(rng, deflate, /*basis=*/{}, q)) {
    diag.status = SolveStatus::kBreakdown;
    diag.detail = "start vector vanished under deflation: the deflated "
                  "subspace spans the space; no pairs computed";
    IMPREG_TRACE_FINISH(trace, diag);
    return result;
  }

  std::vector<Vector> basis;
  basis.reserve(max_dim);
  Vector alpha, beta;  // Tridiagonal entries.
  Vector w(n);

  SymmetricEigen tri_eigen;
  bool converged = false;  // All k Ritz pairs met the tolerance.
  for (int m = 0; m < max_dim; ++m) {
    basis.push_back(q);
    op.Apply(basis[m], w);
    IMPREG_FAULT_POINT("lanczos/w", w);
    double a = Dot(basis[m], w);
    IMPREG_FAULT_POINT("lanczos/alpha", a);
    if (!std::isfinite(a)) {
      // Poison in w (the dot product inherits any NaN/Inf). Drop this
      // step; the basis built so far is still finite and orthonormal.
      diag.status = SolveStatus::kNonFinite;
      diag.detail = "non-finite Lanczos diagonal entry; returning Ritz "
                    "pairs of the finite Krylov prefix";
      IMPREG_TRACE_EVENT(trace, m + 1, kRollback, a);
      tri_eigen = SymmetricEigen{};
      break;
    }
    alpha.push_back(a);
    // w ← w − a·q_m − b_{m-1}·q_{m-1}, then full reorthogonalization.
    Axpy(-a, basis[m], w);
    if (m > 0) Axpy(-beta[m - 1], basis[m - 1], w);
    Reorthogonalize(deflate, w);
    Reorthogonalize(basis, w);
    double b = Norm2(w);
    IMPREG_FAULT_POINT("lanczos/beta", b);
    if (!std::isfinite(b)) {
      diag.status = SolveStatus::kNonFinite;
      diag.detail = "non-finite Lanczos off-diagonal entry; returning "
                    "Ritz pairs of the finite Krylov prefix";
      IMPREG_TRACE_EVENT(trace, m + 1, kRollback, b);
      tri_eigen = SymmetricEigen{};
      break;
    }

    // Convergence test every few steps once we have k Ritz values.
    const bool last = (m + 1 == max_dim) || b <= 1e-13;
    if (m + 1 >= k && ((m + 1) % 5 == 0 || last)) {
      Vector off(beta.begin(), beta.end());
      tri_eigen = TridiagonalEigendecomposition(alpha, off);
      // Residual of Ritz pair i is |b · s_{m,i}| where s is the last row
      // of the tridiagonal eigenvector.
      bool all_ok = true;
      for (int i = 0; i < k; ++i) {
        const int col = smallest ? i : m - i;  // m+1 values, index m = top.
        const double resid = std::abs(b * tri_eigen.eigenvectors.At(m, col));
        if (resid > options.tolerance) {
          all_ok = false;
          break;
        }
      }
      if (all_ok || last) {
        converged = all_ok;
        break;
      }
    }
    if (b <= 1e-13) {
      // β ≈ 0 with fewer than k values: the Krylov space hit an
      // invariant subspace early. Restart with a fresh direction
      // orthogonal to everything built so far (deterministic — the rng
      // just keeps advancing); β = 0 cleanly decouples the blocks of
      // the tridiagonal matrix. If no direction survives, the reachable
      // space is exhausted: report the pairs found as a breakdown.
      if (DrawOrthogonalStart(rng, deflate, basis, w)) {
        // A restart event: β ≈ 0 forced a fresh Krylov direction.
        IMPREG_TRACE_EVENT(trace, m + 1, kPhase, b);
        tri_eigen = SymmetricEigen{};
        b = 0.0;
      } else {
        Vector off(beta.begin(), beta.end());
        tri_eigen = TridiagonalEigendecomposition(alpha, off);
        diag.status = SolveStatus::kBreakdown;
        diag.detail = "invariant subspace exhausted before k pairs";
        IMPREG_TRACE_EVENT(trace, m + 1, kFault, b);
        converged = false;
        break;
      }
    }
    beta.push_back(b);
    q = w;
    if (b > 0.0) Scale(1.0 / b, q);
  }
  const int dim = static_cast<int>(alpha.size());
  if (dim == 0) {
    // Poison on the very first step: nothing usable was built.
    IMPREG_TRACE_FINISH(trace, diag);
    return result;
  }
  if (tri_eigen.eigenvalues.empty()) {
    Vector off(beta.begin(), beta.begin() + (dim - 1));
    Vector diagonal(alpha.begin(), alpha.begin() + dim);
    tri_eigen = TridiagonalEigendecomposition(diagonal, off);
  }

  const int num_out = std::min(k, dim);
  result.iterations = dim;
  result.eigenvalues.resize(num_out);
  result.eigenvectors.assign(num_out, Vector(n, 0.0));
  for (int i = 0; i < num_out; ++i) {
    const int col = smallest ? i : dim - 1 - i;
    result.eigenvalues[i] = tri_eigen.eigenvalues[col];
    Vector& ritz = result.eigenvectors[i];
    for (int j = 0; j < dim; ++j) {
      const double s = tri_eigen.eigenvectors.At(j, col);
      if (s != 0.0) Axpy(s, basis[j], ritz);
    }
    Normalize(ritz);
  }
  // Explicit residuals ‖A vᵢ − λᵢ vᵢ‖, all pairs in one SpMM.
  std::vector<Vector> av;
  op.ApplyBatch(result.eigenvectors, av);
  result.residuals.resize(num_out);
  for (int i = 0; i < num_out; ++i) {
    Axpy(-result.eigenvalues[i], result.eigenvectors[i], av[i]);
    result.residuals[i] = Norm2(av[i]);
    diag.RecordResidual(result.residuals[i]);
    IMPREG_TRACE_EVENT(trace, i + 1, kResidual, result.residuals[i]);
    if (!std::isfinite(result.residuals[i]) && diag.usable()) {
      diag.status = SolveStatus::kNonFinite;
      diag.detail = "non-finite Ritz residual (operator produced poison "
                    "on the verification matvec)";
      converged = false;
    }
  }
  if (converged) diag.status = SolveStatus::kConverged;
  diag.iterations = result.iterations;
  IMPREG_TRACE_FINISH(trace, diag);
  IMPREG_METRIC_COUNT("solver.lanczos.solves", 1);
  IMPREG_METRIC_COUNT("solver.lanczos.iterations", result.iterations);
  return result;
}

// Computes k extreme eigenpairs by sequential single-pair runs with
// deflation restarts. A single Krylov sequence can only ever produce
// one Ritz vector per *distinct* eigenvalue (the start vector has one
// component in each eigenspace), so multiplicities — ubiquitous in
// graphs with symmetry, e.g. rings of cliques — require re-running with
// the found vectors deflated.
LanczosResult RunDeflated(const LinearOperator& op, int k, bool smallest,
                          const LanczosOptions& options) {
  LanczosResult total;
  LanczosOptions current = options;
  SolveStatus merged = SolveStatus::kConverged;
  for (int i = 0; i < k; ++i) {
    const LanczosResult one = RunLanczos(op, 1, smallest, current);
    merged = MergeStatus(merged, one.diagnostics.status);
    if (!one.diagnostics.usable() && total.diagnostics.detail.empty()) {
      total.diagnostics.detail = one.diagnostics.detail;
    }
    if (one.eigenvectors.empty()) break;
    total.eigenvalues.push_back(one.eigenvalues.front());
    total.eigenvectors.push_back(one.eigenvectors.front());
    total.residuals.push_back(one.residuals.front());
    total.iterations += one.iterations;
    current.deflate.push_back(one.eigenvectors.front());
    current.seed += 0x9e3779b9ULL;  // Fresh start vector per pair.
  }
  // Converged iff every pair's run converged (`merged` stays
  // kConverged) and all k pairs were found.
  const bool converged = merged == SolveStatus::kConverged &&
                         static_cast<int>(total.eigenvalues.size()) == k;
  // Near-degenerate pairs can come back marginally out of order.
  std::vector<int> order(total.eigenvalues.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return smallest ? total.eigenvalues[a] < total.eigenvalues[b]
                    : total.eigenvalues[a] > total.eigenvalues[b];
  });
  LanczosResult sorted;
  sorted.iterations = total.iterations;
  sorted.diagnostics = std::move(total.diagnostics);
  sorted.diagnostics.status =
      converged ? SolveStatus::kConverged
                : MergeStatus(merged, SolveStatus::kMaxIterations);
  sorted.diagnostics.iterations = sorted.iterations;
  for (int idx : order) {
    sorted.eigenvalues.push_back(total.eigenvalues[idx]);
    sorted.eigenvectors.push_back(std::move(total.eigenvectors[idx]));
    sorted.residuals.push_back(total.residuals[idx]);
  }
  return sorted;
}

}  // namespace

LanczosResult LanczosSmallest(const LinearOperator& op, int k,
                              const LanczosOptions& options) {
  if (k == 1) return RunLanczos(op, 1, /*smallest=*/true, options);
  return RunDeflated(op, k, /*smallest=*/true, options);
}

LanczosResult LanczosLargest(const LinearOperator& op, int k,
                             const LanczosOptions& options) {
  if (k == 1) return RunLanczos(op, 1, /*smallest=*/false, options);
  return RunDeflated(op, k, /*smallest=*/false, options);
}

Vector KrylovExpMultiply(const LinearOperator& op, double scale,
                         const Vector& v, int krylov_dim,
                         SolverDiagnostics* diagnostics) {
  const int n = op.Dimension();
  IMPREG_CHECK(static_cast<int>(v.size()) == n);
  IMPREG_CHECK(krylov_dim >= 1);
  SolverDiagnostics local;
  SolverDiagnostics& diag = diagnostics != nullptr ? *diagnostics : local;
  diag = SolverDiagnostics{};
  SolverTrace* trace = IMPREG_TRACE_BEGIN("krylov_exp");
  const double v_norm = Norm2(v);
  if (!std::isfinite(v_norm)) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail = "input vector has non-finite entries; returning 0";
    IMPREG_TRACE_FINISH(trace, diag);
    return Vector(n, 0.0);
  }
  if (v_norm == 0.0) {
    diag.status = SolveStatus::kConverged;
    IMPREG_TRACE_FINISH(trace, diag);
    return Vector(n, 0.0);
  }

  const int max_dim = std::min(krylov_dim, n);
  std::vector<Vector> basis;
  basis.reserve(max_dim);
  Vector alpha, beta;
  Vector q = v;
  Scale(1.0 / v_norm, q);
  Vector w(n);
  bool poisoned = false;
  for (int m = 0; m < max_dim; ++m) {
    basis.push_back(q);
    op.Apply(basis[m], w);
    IMPREG_FAULT_POINT("krylov_exp/w", w);
    const double a = Dot(basis[m], w);
    if (!std::isfinite(a)) {
      poisoned = true;  // Use the finite prefix built before this step.
      IMPREG_TRACE_EVENT(trace, m + 1, kRollback, a);
      break;
    }
    alpha.push_back(a);
    Axpy(-a, basis[m], w);
    if (m > 0) Axpy(-beta[m - 1], basis[m - 1], w);
    Reorthogonalize(basis, w);
    double b = Norm2(w);
    IMPREG_FAULT_POINT("krylov_exp/beta", b);
    if (!std::isfinite(b)) {
      poisoned = true;
      IMPREG_TRACE_EVENT(trace, m + 1, kRollback, b);
      break;
    }
    // β tracks how much of v's mass lies outside the current Krylov
    // space — the natural convergence trace for the expm approximation.
    IMPREG_TRACE_EVENT(trace, m + 1, kResidual, b);
    if (b <= 1e-14 || m + 1 == max_dim) break;
    beta.push_back(b);
    q = w;
    Scale(1.0 / b, q);
  }
  const int dim = static_cast<int>(alpha.size());
  if (dim == 0) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail = "operator produced poison on the first Krylov step; "
                  "returning 0";
    IMPREG_TRACE_FINISH(trace, diag);
    return Vector(n, 0.0);
  }
  Vector off(beta.begin(), beta.begin() + (dim - 1));
  Vector head(alpha.begin(), alpha.begin() + dim);
  const SymmetricEigen tri = TridiagonalEigendecomposition(head, off);

  // y = ‖v‖ · V · U exp(scale·Λ) Uᵀ e₁.
  Vector coeffs(dim, 0.0);
  for (int kk = 0; kk < dim; ++kk) {
    const double weight =
        std::exp(scale * tri.eigenvalues[kk]) * tri.eigenvectors.At(0, kk);
    for (int j = 0; j < dim; ++j) {
      coeffs[j] += weight * tri.eigenvectors.At(j, kk);
    }
  }
  Vector y(n, 0.0);
  for (int j = 0; j < dim; ++j) Axpy(v_norm * coeffs[j], basis[j], y);
  diag.iterations = dim;
  if (!AllFinite(y)) {
    // exp(scale·λ) can overflow for large positive scale·λ.
    diag.status = SolveStatus::kNonFinite;
    diag.detail = "exp weights overflowed; returning 0";
    IMPREG_TRACE_FINISH(trace, diag);
    return Vector(n, 0.0);
  }
  if (poisoned) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail = "non-finite Krylov recurrence entry; used the finite "
                  "prefix of the basis";
  } else {
    diag.status = SolveStatus::kConverged;
  }
  IMPREG_TRACE_FINISH(trace, diag);
  IMPREG_METRIC_COUNT("solver.krylov_exp.solves", 1);
  IMPREG_METRIC_COUNT("solver.krylov_exp.iterations", dim);
  return y;
}

}  // namespace impreg
