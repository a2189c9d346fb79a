#ifndef IMPREG_PARTITION_NIBBLE_H_
#define IMPREG_PARTITION_NIBBLE_H_

#include <cstdint>

#include "core/solve_status.h"
#include "core/work_budget.h"
#include "graph/graph.h"
#include "linalg/sparse_vector.h"
#include "linalg/vector_ops.h"
#include "partition/sweep.h"

/// \file
/// Spielman–Teng Nibble [39] (§3.3): truncated lazy random walks.
/// After each lazy-walk step, every entry with q(u) < ε·d(u) is set to
/// zero — "very small probabilities are truncated to zero", which is
/// what makes the walk strongly local, and which implicitly regularizes
/// its output exactly as the paper describes. A sweep cut is evaluated
/// at every step and the best one over the walk is returned.

namespace impreg {

/// Options for Nibble.
struct NibbleOptions {
  /// Number of lazy-walk steps T.
  int steps = 40;
  /// Truncation threshold: entries with q(u) < ε·d(u) are zeroed.
  double epsilon = 1e-4;
  /// Holding probability of the lazy walk.
  double alpha = 0.5;
  /// Optional volume cap forwarded to the per-step sweeps (0 = none).
  double max_volume = 0.0;
  /// Optional cooperative budget (nullptr = unlimited), checked between
  /// walk steps; on exhaustion the walk stops there (kBudgetExhausted)
  /// and the best cut found so far is returned.
  WorkBudget* budget = nullptr;
};

/// Result of a Nibble run.
struct NibbleResult {
  /// Best sweep cut over all steps.
  std::vector<NodeId> set;
  CutStats stats;
  /// The step at which the best cut was found (1-based; 0 if none).
  int best_step = 0;
  /// Final truncated distribution; empty from NibbleSparse, which
  /// answers it sparse.
  Vector distribution;
  /// Total probability mass removed by truncation over the whole run.
  double truncated_mass = 0.0;
  /// Σ over steps of (support size scanned) — the work measure.
  std::int64_t work = 0;
  /// kConverged: the walk ran its course. kBudgetExhausted: stopped
  /// early by the budget. kNonFinite: a step went non-finite — poisoned
  /// mass was dropped and the best cut up to that step returned.
  SolverDiagnostics diagnostics;
};

/// Runs the truncated lazy walk from a sparse seed, (node, mass)
/// entries in strictly ascending node order (entries with mass ≤ 0 are
/// ignored). Writes the final truncated walk to `distribution` in
/// ascending node order and leaves `result.distribution` empty. This is
/// the kernel: a step costs O(vol(support)), whatever n is.
NibbleResult NibbleSparse(const Graph& g, const SparseVector& seed,
                          const NibbleOptions& options,
                          SparseVector& distribution);

/// Same, from an arbitrary nonnegative dense seed distribution, with the
/// final walk dense: it cuts the seed (SparseFromDense), runs the kernel
/// and scatters the walk, so it also costs O(n).
NibbleResult NibbleFromDistribution(const Graph& g, const Vector& seed,
                                    const NibbleOptions& options = {});

/// Same, from a single seed node.
NibbleResult Nibble(const Graph& g, NodeId seed,
                    const NibbleOptions& options = {});

}  // namespace impreg

#endif  // IMPREG_PARTITION_NIBBLE_H_
