#include "diffusion/pagerank.h"

#include <cmath>
#include <utility>

#include "core/metrics.h"
#include "core/parallel.h"
#include "core/trace.h"
#include "linalg/cg.h"
#include "linalg/chebyshev.h"
#include "linalg/graph_operators.h"
#include "util/check.h"
#include "util/fault.h"

namespace impreg {

namespace {

void ValidateSeed(const Graph& g, const Vector& seed) {
  IMPREG_CHECK(seed.size() == static_cast<std::size_t>(g.NumNodes()));
  // Negative mass is a programming error (abort); non-finite mass is a
  // data-poisoning event, rejected gracefully by the callers below
  // (NaN compares false to everything, so it passes this check).
  for (double v : seed) {
    IMPREG_CHECK_MSG(!(v < 0.0), "seed must be nonnegative");
  }
}

// Shared graceful rejection of a poisoned seed: zero scores,
// kNonFinite. Returns true when the seed was rejected.
bool RejectNonFiniteSeed(const Graph& g, const Vector& seed,
                         PageRankResult& result) {
  if (AllFinite(seed)) return false;
  result.scores.assign(g.NumNodes(), 0.0);
  result.diagnostics.status = SolveStatus::kNonFinite;
  result.diagnostics.detail =
      "seed has non-finite entries; returning zero scores";
  return true;
}

}  // namespace

PageRankResult PersonalizedPageRank(const Graph& g, const Vector& seed,
                                    const PageRankOptions& options) {
  return std::move(PersonalizedPageRankBatch(g, {seed}, options).front());
}

std::vector<PageRankResult> PersonalizedPageRankBatch(
    const Graph& g, std::vector<Vector> seeds, const PageRankOptions& options,
    const std::vector<WorkBudget*>& budgets) {
  IMPREG_CHECK(options.gamma > 0.0 && options.gamma < 1.0);
  IMPREG_CHECK(budgets.empty() || budgets.size() == seeds.size());
  const double gamma = options.gamma;
  const NodeId n = g.NumNodes();

  std::vector<PageRankResult> results(seeds.size());
  std::vector<SolverTrace*> traces(seeds.size(), nullptr);
  // Columns that passed the seed checks, and the subset still iterating
  // (both in column order, so the step order is deterministic).
  std::vector<std::size_t> solved;
  for (std::size_t j = 0; j < seeds.size(); ++j) {
    ValidateSeed(g, seeds[j]);
    if (RejectNonFiniteSeed(g, seeds[j], results[j])) continue;
    traces[j] = IMPREG_TRACE_BEGIN("pagerank.richardson");
    results[j].scores = seeds[j];
    Scale(gamma, results[j].scores);
    solved.push_back(j);
  }
  if (solved.empty()) return results;

  const RandomWalkOperator walk(g);
  std::vector<std::size_t> running = solved;
  std::vector<Vector> xs;
  std::vector<Vector> ys;
  for (int iter = 1; iter <= options.max_iterations && !running.empty();
       ++iter) {
    xs.clear();
    for (std::size_t j : running) xs.push_back(std::move(results[j].scores));
    walk.ApplyBatch(xs, ys);
    std::size_t kept = 0;
    for (std::size_t c = 0; c < running.size(); ++c) {
      const std::size_t j = running[c];
      PageRankResult& result = results[j];
      SolverDiagnostics& diag = result.diagnostics;
      result.scores = std::move(xs[c]);
      // ys[c] holds M p; the update overwrites it with the next iterate.
      Vector& next = ys[c];
      IMPREG_FAULT_POINT("pagerank/walked", next);
      const Vector& seed = seeds[j];
      // Richardson update, row-parallel: each entry is independent.
      ParallelFor(0, n, 1 << 14, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t u = begin; u < end; ++u) {
          next[u] = gamma * seed[u] + (1.0 - gamma) * next[u];
        }
      });
      double delta = DistanceL1(next, result.scores);
      IMPREG_FAULT_POINT("pagerank/delta", delta);
      result.iterations = iter;
      // The L1 distance inherits any NaN/Inf in `next`, so this one
      // scalar is the whole non-finite sentinel; the accepted scores are
      // finite by induction (each survived this check before the swap).
      if (!std::isfinite(delta)) {
        diag.status = SolveStatus::kNonFinite;
        diag.detail = "diffusion update went non-finite; "
                      "returning last finite iterate";
        IMPREG_TRACE_EVENT(traces[j], iter, kRollback, delta);
        continue;
      }
      diag.RecordResidual(delta);
      IMPREG_TRACE_EVENT(traces[j], iter, kResidual, delta);
      result.scores.swap(next);
      if (delta <= options.tolerance) {
        diag.status = SolveStatus::kConverged;
        continue;
      }
      WorkBudget* budget = budgets.empty() ? nullptr : budgets[j];
      if (budget != nullptr) {
        budget->Charge(g.NumArcs());
        if (budget->Exhausted()) {
          diag.status = SolveStatus::kBudgetExhausted;
          diag.detail = "work budget exhausted; scores are the "
                        "early-stopped diffusion";
          continue;
        }
      }
      running[kept++] = j;
    }
    running.resize(kept);
  }

  for (std::size_t j : solved) {
    PageRankResult& result = results[j];
    if (result.diagnostics.status == SolveStatus::kMaxIterations) {
      result.diagnostics.detail =
          "iteration cap hit; scores are the early-stopped diffusion";
    }
    result.diagnostics.iterations = result.iterations;
    IMPREG_TRACE_FINISH(traces[j], result.diagnostics);
    IMPREG_METRIC_COUNT("solver.pagerank.richardson.solves", 1);
    IMPREG_METRIC_COUNT("solver.pagerank.richardson.iterations",
                        result.iterations);
  }
  return results;
}

PageRankResult GlobalPageRank(const Graph& g, const PageRankOptions& options) {
  IMPREG_CHECK(g.NumNodes() > 0);
  const Vector uniform(g.NumNodes(), 1.0 / static_cast<double>(g.NumNodes()));
  return PersonalizedPageRank(g, uniform, options);
}

PageRankResult PersonalizedPageRankExact(const Graph& g, const Vector& seed,
                                         const PageRankOptions& options) {
  ValidateSeed(g, seed);
  IMPREG_CHECK(options.gamma > 0.0 && options.gamma < 1.0);

  PageRankResult result;
  if (RejectNonFiniteSeed(g, seed, result)) return result;

  // Operator q ↦ (I − (1−γ) S) q with S = D^{-1/2} A D^{-1/2} = I − ℒ.
  // Note I − (1−γ)S = γI + (1−γ)ℒ, symmetric positive definite with
  // spectrum ⊂ [γ, γ + 2(1−γ)].
  const NormalizedLaplacianOperator lap(g);
  const ShiftedOperator system(lap, 1.0 - options.gamma, options.gamma);

  Vector rhs(g.NumNodes(), 0.0);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) > 0.0) {
      rhs[u] = options.gamma * seed[u] / std::sqrt(g.Degree(u));
    }
  }
  CgOptions cg_options;
  cg_options.relative_tolerance = options.tolerance;
  cg_options.max_iterations = options.max_iterations;
  const CgResult cg = ConjugateGradient(system, rhs, cg_options);

  // CG's containment guarantees cg.x is finite even on failure, so the
  // degree-rescaled scores below are finite too; the status says
  // whether they are the solve or a contained fallback.
  result.scores.assign(g.NumNodes(), 0.0);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) > 0.0) {
      result.scores[u] = cg.x[u] * std::sqrt(g.Degree(u));
    } else {
      // Isolated seeds keep their teleport mass.
      result.scores[u] = options.gamma * seed[u];
    }
  }
  result.iterations = cg.iterations;
  result.diagnostics = cg.diagnostics;
  // The inner CG solve traced itself (solver "cg"); count the wrapper.
  IMPREG_METRIC_COUNT("solver.pagerank.exact.solves", 1);
  return result;
}

PageRankResult PersonalizedPageRankChebyshev(const Graph& g,
                                             const Vector& seed,
                                             const PageRankOptions& options) {
  ValidateSeed(g, seed);
  IMPREG_CHECK(options.gamma > 0.0 && options.gamma < 1.0);

  PageRankResult result;
  if (RejectNonFiniteSeed(g, seed, result)) return result;

  const NormalizedLaplacianOperator lap(g);
  const ShiftedOperator system(lap, 1.0 - options.gamma, options.gamma);
  Vector rhs(g.NumNodes(), 0.0);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) > 0.0) {
      rhs[u] = options.gamma * seed[u] / std::sqrt(g.Degree(u));
    }
  }
  // Spectrum of γI + (1−γ)ℒ: ℒ ∈ [0, 2] ⇒ [γ, 2 − γ].
  ChebyshevOptions cheb;
  cheb.relative_tolerance = options.tolerance;
  cheb.max_iterations = options.max_iterations;
  const ChebyshevResult solve =
      ChebyshevSolve(system, rhs, options.gamma, 2.0 - options.gamma, cheb);

  if (!solve.diagnostics.usable()) {
    // The inner-product-free recurrence broke (non-finite iterate or
    // diverging residuals). The Richardson iteration is the slow-but-
    // sturdy power-style fallback: unconditionally convergent for
    // γ ∈ (0, 1), no spectrum bounds to get wrong. The failure status
    // is kept — the caller asked for Chebyshev and should know it broke.
    PageRankResult fallback = PersonalizedPageRank(g, seed, options);
    fallback.diagnostics.status = solve.diagnostics.status;
    fallback.diagnostics.detail =
        std::string("chebyshev solve failed (") + solve.diagnostics.Summary() +
        "); scores are from the Richardson fallback";
    IMPREG_METRIC_COUNT("solver.pagerank.chebyshev.fallbacks", 1);
    return fallback;
  }

  result.scores.assign(g.NumNodes(), 0.0);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) > 0.0) {
      result.scores[u] = solve.x[u] * std::sqrt(g.Degree(u));
    } else {
      result.scores[u] = options.gamma * seed[u];
    }
  }
  result.iterations = solve.iterations;
  result.diagnostics = solve.diagnostics;
  // The inner Chebyshev solve traced itself (solver "chebyshev").
  IMPREG_METRIC_COUNT("solver.pagerank.chebyshev.solves", 1);
  return result;
}

}  // namespace impreg
