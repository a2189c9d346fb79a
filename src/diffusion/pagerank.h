#ifndef IMPREG_DIFFUSION_PAGERANK_H_
#define IMPREG_DIFFUSION_PAGERANK_H_

#include "core/solve_status.h"
#include "graph/graph.h"
#include "linalg/vector_ops.h"

/// \file
/// PageRank dynamics — Equation (2) of the paper:
///
///   R_γ = γ (I − (1−γ) M)^{-1},   M = A D^{-1},  γ ∈ (0, 1),
///
/// applied to a seed distribution s. As γ → 0 the result forgets the
/// seed and approaches the stationary distribution (∝ degrees); larger γ
/// keeps the diffusion aggressive ("more regularized toward the seed").
/// The teleportation parameter γ here is the paper's γ (so the usual
/// "damping factor" is 1−γ).

namespace impreg {

/// Options for the PageRank solvers.
struct PageRankOptions {
  /// Teleportation probability γ ∈ (0, 1).
  double gamma = 0.15;
  /// Richardson iteration stops when ‖p_{t+1} − p_t‖₁ ≤ tolerance.
  double tolerance = 1e-12;
  int max_iterations = 10000;
};

/// Result of a PageRank computation. `scores` is always finite: a
/// poisoned seed is rejected up front (kInvalidInput-style zero scores
/// under kNonFinite) and a diffusion that goes non-finite mid-flight
/// stops with the last finite iterate.
struct PageRankResult {
  Vector scores;
  int iterations = 0;
  SolverDiagnostics diagnostics;
};

/// Personalized PageRank: p = γ Σ_k (1−γ)^k M^k s via the Richardson
/// iteration p ← γ s + (1−γ) M p. `seed` must be entrywise ≥ 0; its mass
/// is preserved in the output when the graph has no isolated nodes.
PageRankResult PersonalizedPageRank(const Graph& g, const Vector& seed,
                                    const PageRankOptions& options = {});

/// Global PageRank with the uniform seed s = 1/n.
PageRankResult GlobalPageRank(const Graph& g,
                              const PageRankOptions& options = {});

/// "Exact" Personalized PageRank through the symmetric linear system
/// (I − (1−γ) D^{-1/2} A D^{-1/2}) q = γ D^{-1/2} s,  p = D^{1/2} q,
/// solved by conjugate gradient to high precision. This is the
/// optimization-approach oracle the paper's §3.3 contrasts with the
/// strongly local push algorithm.
PageRankResult PersonalizedPageRankExact(const Graph& g, const Vector& seed,
                                         const PageRankOptions& options = {});

/// Same system solved by Chebyshev semi-iteration (the spectrum of
/// γI + (1−γ)ℒ is known analytically: [γ, 2 − γ]), which needs no
/// inner products — attractive in distributed settings. Accuracy and
/// convergence comparable to CG.
PageRankResult PersonalizedPageRankChebyshev(
    const Graph& g, const Vector& seed, const PageRankOptions& options = {});

}  // namespace impreg

#endif  // IMPREG_DIFFUSION_PAGERANK_H_
