#ifndef IMPREG_PARTITION_PUSH_H_
#define IMPREG_PARTITION_PUSH_H_

#include <cstdint>
#include <functional>

#include "core/solve_status.h"
#include "core/work_budget.h"
#include "graph/graph.h"
#include "linalg/vector_ops.h"
#include "partition/sweep.h"

/// \file
/// The Andersen–Chung–Lang push algorithm [1] — the paper's flagship
/// strongly local method (§3.3): approximate Personalized PageRank
/// computed by repeatedly "pushing" residual mass, with small residuals
/// simply left in place. The truncation is a computational decision, but
/// — the paper's point — it acts as implicit ℓ1-style regularization:
/// the output is sparse, localized around the seed, and its support size
/// is bounded by 1/(ε·α) *independent of the graph size*.
///
/// Dynamics: the lazy-walk PPR  p = α Σ_k (1−α)^k W^k s  with
/// W = (I + AD^{-1})/2. This equals the standard (Eq. 2) PageRank
/// R_γ s with γ = 2α/(1+α) (see StandardTeleportFromLazy).

namespace impreg {

/// Options for ApproximatePageRank.
struct PushOptions {
  /// Lazy teleportation α ∈ (0, 1).
  double alpha = 0.1;
  /// Residual tolerance: push until r(u) < ε·d(u) everywhere.
  double epsilon = 1e-4;
  /// Safety cap on the number of pushes (0 = the theoretical bound
  /// ⌈1/(ε·α)⌉ plus slack).
  std::int64_t max_pushes = 0;
  /// If set, called after every push with (push index, pushed node,
  /// current residual ℓ1 mass). Push is Gauss–Southwell-style
  /// coordinate relaxation on (I − (1−α)W) p = α s — the paper's [20]
  /// connection to gradient methods — so the reported residual mass
  /// decreases monotonically; the callback lets experiments watch it.
  std::function<void(std::int64_t, NodeId, double)> on_push;
  /// Optional cooperative budget (nullptr = unlimited), checked at
  /// chunk boundaries; on exhaustion the push stops with
  /// kBudgetExhausted and the partial (p, r) pair — still a valid
  /// approximate PPR decomposition, just with a looser residual.
  WorkBudget* budget = nullptr;
};

/// Result of a push computation.
struct PushResult {
  /// The approximate PPR vector p (entrywise ≤ the exact PPR).
  Vector p;
  /// The final residual r (entrywise < ε·d(u)).
  Vector residual;
  /// Number of push operations performed.
  std::int64_t pushes = 0;
  /// Number of distinct nodes with p > 0 — the support the method
  /// actually "touched" (plus their scanned neighbors ≤ work).
  std::int64_t support = 0;
  /// Σ of degrees of pushed nodes — the true work measure.
  std::int64_t work = 0;
  /// kConverged iff every residual dropped below ε·d (queue drained).
  /// kBudgetExhausted covers both the push cap and a WorkBudget running
  /// out — either way (p, r) is a valid early-stopped decomposition.
  SolverDiagnostics diagnostics;
};

/// Runs ACL push from a nonnegative seed vector (typically a single-node
/// or seed-set distribution with unit mass).
PushResult ApproximatePageRank(const Graph& g, const Vector& seed,
                               const PushOptions& options = {});

/// The standard-PageRank teleportation equivalent to lazy α:
/// γ = 2α/(1+α).
double StandardTeleportFromLazy(double alpha);

/// The lazy teleportation equivalent to standard γ: α = γ/(2−γ).
double LazyTeleportFromStandard(double gamma);

/// End-to-end local clustering: push + sweep over the support with
/// degree-normalized keys, as in [1]. Returns the push result and the
/// best sweep cut.
struct LocalClusterResult {
  std::vector<NodeId> set;
  CutStats stats;
  PushResult push;
};

LocalClusterResult PushLocalCluster(const Graph& g, NodeId seed,
                                    const PushOptions& options = {},
                                    const SweepOptions& sweep = {});

}  // namespace impreg

#endif  // IMPREG_PARTITION_PUSH_H_
