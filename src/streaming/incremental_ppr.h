#ifndef IMPREG_STREAMING_INCREMENTAL_PPR_H_
#define IMPREG_STREAMING_INCREMENTAL_PPR_H_

#include <cstdint>
#include <deque>

#include "core/solve_status.h"
#include "core/work_budget.h"
#include "linalg/vector_ops.h"
#include "streaming/dynamic_graph.h"

/// \file
/// Incremental Personalized PageRank on an evolving graph — the
/// paper's [6] (Bahmani–Chowdhury–Goel) scenario, implemented with
/// push-style residual maintenance (as in the dynamic-push literature
/// that operationalizes it):
///
/// We maintain the pair (p, r) with the exact algebraic invariant
///
///   r = s + ((1−γ)/γ)·M p − (1/γ)·p,          M = A D^{-1},
///
/// equivalently  PPR(s) = p + R_γ r. Push transfers residual into p
/// without breaking the invariant; an edge insertion *or removal*
/// changes two columns of M, so the invariant is repaired with
/// O(deg(u)+deg(v)) residual updates, after which pushing restores
/// ‖r/d‖∞ < ε. The repair Δr = ((1−γ)/γ)(M' − M)p is sign-agnostic —
/// the same column scatter serves positive and negative updates, which
/// is why the push kernel carries signed residuals.
///
/// The punchline for the paper's thesis: the *approximation state* (the
/// truncated residual) is exactly what makes cheap dynamic updates
/// possible — maintaining the exact answer would cost a full solve per
/// arrival. The same state is what makes cached answers *servable*: a
/// stored (p, r) pair is a certified intermediate that the query engine
/// (src/service/) warm-restarts from when ε tightens or edges arrive.

namespace impreg {

/// Options for the incremental estimator.
struct IncrementalPprOptions {
  /// Teleportation γ ∈ (0, 1) (standard PageRank form, Eq. (2)).
  double gamma = 0.15;
  /// Residual tolerance: |r(u)| < ε·d(u) after every operation.
  double epsilon = 1e-6;
  /// Optional cooperative budget (nullptr = unlimited), checked every
  /// 256 pushes; on exhaustion the push loop stops there and the pair
  /// (p, r) is returned best-so-far with the invariant intact
  /// (kBudgetExhausted) — some residuals may still be over threshold.
  WorkBudget* budget = nullptr;
};

/// The shared standard-form push kernel: drains `queue` (nodes with
/// |r(u)| ≥ ε·d(u), flags mirrored in `queued`), transferring residual
/// into p while preserving the invariant above. Handles *signed*
/// residuals, so it is safe after edge-arrival repairs. Charges
/// `options.budget` one unit per arc scanned and stops at the next
/// 256-push boundary once the budget exhausts (queue and flags are left
/// consistent, so a later call resumes). Fills `diagnostics`
/// (kConverged or kBudgetExhausted) and returns the pushes performed.
/// Used by IncrementalPersonalizedPageRank; the query engine runs the
/// same loop (StandardFormPushOver, streaming/push_kernel.h) over a
/// per-thread workspace that costs O(touched) instead of O(n).
std::int64_t StandardFormPush(const DynamicGraph& g,
                              const IncrementalPprOptions& options,
                              Vector& p, Vector& r,
                              std::deque<NodeId>& queue,
                              std::vector<char>& queued,
                              SolverDiagnostics& diagnostics);

/// Recomputes the invariant residual r = s + ((1−γ)/γ)·M p − (1/γ)·p
/// for an arbitrary p on the *current* graph, in O(n + vol(supp(p))).
/// This is the AddEdge repair generalized to any number of edge
/// changes at once: a cached p from an older graph epoch gets an exact
/// residual on the new graph with one sparse column scatter instead of
/// a per-edge replay.
Vector InvariantResidual(const DynamicGraph& g, const Vector& seed,
                         const Vector& p, double gamma);

/// Maintains an ε-approximate PPR vector under edge insertions and
/// removals.
class IncrementalPersonalizedPageRank {
 public:
  /// Starts from `initial` (copied) and a nonnegative seed vector with
  /// the same node count. The graph may already contain edges.
  IncrementalPersonalizedPageRank(const DynamicGraph& initial, Vector seed,
                                  const IncrementalPprOptions& options = {});

  /// Inserts undirected edge {u, v} and repairs the estimate.
  void AddEdge(NodeId u, NodeId v, double weight = 1.0);

  /// Removes (all of, or `weight` of — DynamicGraph::RemoveEdge
  /// semantics) undirected edge {u, v} and repairs the estimate with
  /// the same column scatter AddEdge uses, negated by the graph delta
  /// itself. The edge must exist.
  void RemoveEdge(NodeId u, NodeId v, double weight = 0.0);

  /// The current approximation p (entrywise within R_γ|r| of the true
  /// PPR on the current graph).
  const Vector& Scores() const { return p_; }

  /// The current residual r.
  const Vector& Residual() const { return r_; }

  /// The current graph.
  const DynamicGraph& graph() const { return graph_; }

  /// Total pushes performed since construction (the work measure).
  std::int64_t TotalPushes() const { return total_pushes_; }

  /// Pushes performed by the last AddEdge call.
  std::int64_t LastEdgePushes() const { return last_edge_pushes_; }

  /// Diagnostics of the most recent operation (construction or
  /// AddEdge): kConverged when every residual is below threshold,
  /// kBudgetExhausted when the shared budget stopped the push loop
  /// early (Scores() is then the best-so-far estimate, invariant
  /// intact).
  const SolverDiagnostics& diagnostics() const { return diagnostics_; }

 private:
  void Enqueue(NodeId u);
  std::int64_t PushUntilConverged();
  /// Shared edit path: snapshot the two affected columns, apply the
  /// mutation (`remove` selects RemoveEdge vs AddEdge), scatter the
  /// invariant repair, and push back under threshold.
  void ApplyEdit(NodeId u, NodeId v, double weight, bool remove);

  DynamicGraph graph_;
  Vector seed_;
  Vector p_;
  Vector r_;
  IncrementalPprOptions options_;
  std::deque<NodeId> queue_;
  std::vector<char> queued_;
  std::int64_t total_pushes_ = 0;
  std::int64_t last_edge_pushes_ = 0;
  SolverDiagnostics diagnostics_;
};

}  // namespace impreg

#endif  // IMPREG_STREAMING_INCREMENTAL_PPR_H_
