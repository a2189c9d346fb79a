#ifndef IMPREG_STREAMING_PUSH_KERNEL_H_
#define IMPREG_STREAMING_PUSH_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "core/metrics.h"
#include "core/trace.h"
#include "linalg/sparse_vector.h"
#include "linalg/vector_ops.h"
#include "streaming/incremental_ppr.h"
#include "util/check.h"

/// \file
/// The standard-form push kernel and the invariant residual, as
/// templates over the graph adjacency provider and over the storage of
/// the push state. The one provider is `DynamicGraph`. There are two
/// storages:
///
///  - `DensePushState`: caller-owned n-vectors. `StandardFormPush` and
///    `InvariantResidual` (incremental_ppr.cc) instantiate the kernels
///    over it.
///  - `PushWorkspace`: reusable per-thread arrays plus a NodeIndex of
///    the nodes written since the last `Clear()`, which zeroes only
///    those. The query engine pushes in it, so a query costs
///    O(touched), not O(n), once the arrays exist.
///
/// The instruction sequence depends on neither choice: both storages
/// run the same arithmetic in the same order and answer the same bits.
///
/// Requirements on `G`: `NumNodes()`, `Degree(u)` (double), and
/// `Neighbors(u)` returning a range of items with `.head`/`.weight`.
/// Requirements on the push state: indexable `p`, `r` and `queued`
/// covering every node, a FIFO `queue` (`push_back`, `front`,
/// `pop_front`, `empty`), and `Touch(u)`, which the kernels call before
/// they write a node's residual.
///
/// The kernel carries *signed* residuals and spreads nothing from
/// zero-degree nodes, so it serves positive and negative updates
/// alike: an edge-removal repair leaves negative residual mass (and
/// possibly freshly isolated nodes) and the same drain loop restores
/// ‖r/d‖∞ < ε.

namespace impreg {

namespace push_internal {

// Per-node push threshold: |r(u)| < ε·d(u), ε alone for isolated nodes.
template <typename G>
inline double PushThresholdOver(const G& g, NodeId u, double epsilon) {
  const double d = g.Degree(u);
  return d > 0.0 ? epsilon * d : epsilon;
}

// Queues u unless it is queued already or its residual is under its
// threshold.
template <typename G, typename State>
inline void EnqueueIfOverThreshold(const G& g, State& s, NodeId u,
                                   double epsilon) {
  if (s.queued[u]) return;
  if (std::abs(s.r[u]) >= PushThresholdOver(g, u, epsilon)) {
    s.queue.push_back(u);
    s.queued[u] = 1;
  }
}

inline int SaturateToInt(std::int64_t v) {
  return v > std::numeric_limits<int>::max()
             ? std::numeric_limits<int>::max()
             : static_cast<int>(v);
}

}  // namespace push_internal

/// Push state in caller-owned dense vectors of length n. Every node
/// counts as touched, so `Touch` does nothing.
struct DensePushState {
  Vector& p;
  Vector& r;
  std::deque<NodeId>& queue;
  std::vector<char>& queued;
  static void Touch(NodeId) {}
};

/// A residual in a caller-owned dense vector, for InvariantResidualOver.
struct DenseResidualState {
  Vector& r;
  static void Touch(NodeId) {}
};

/// Push state whose per-query cost is O(touched). The arrays cover the
/// largest graph seen so far and are zero outside the touched list
/// between queries; the touched list is a NodeIndex, normally the
/// thread's own (ThreadNodeIndex), which the other strongly local
/// kernels share. Not thread-safe: keep one per thread.
class PushWorkspace {
 public:
  explicit PushWorkspace(NodeIndex& touched) : touched_(touched) {}

  /// Grows the arrays to cover `n` nodes (they never shrink). Call it
  /// only while the workspace is clean.
  void Reserve(NodeId n) {
    touched_.Reserve(n);
    const std::size_t size = static_cast<std::size_t>(n);
    if (p.size() >= size) return;
    p.resize(size, 0.0);
    r.resize(size, 0.0);
    queued.resize(size, 0);
  }

  /// Records that `u`'s state is about to be written.
  void Touch(NodeId u) {
    if (touched_.Find(u) == NodeIndex::kAbsent) touched_.Insert(u);
  }

  /// The nodes written since the last Clear(), in ascending id order.
  const std::vector<NodeId>& SortedTouched() { return touched_.SortNodes(); }

  /// Zeroes every touched node and drops the queue, including what a
  /// budget-stopped push left in it. O(touched). The next query gets a
  /// fresh queue, as a local one would be, so what a query allocates
  /// depends on that query alone.
  void Clear() {
    for (const NodeId u : touched_.Nodes()) {
      p[u] = 0.0;
      r[u] = 0.0;
      queued[u] = 0;
    }
    touched_.Clear();
    queue = std::deque<NodeId>();
  }

  Vector p;
  Vector r;
  std::deque<NodeId> queue;
  std::vector<char> queued;

 private:
  NodeIndex& touched_;
};

/// Queues, in the order given, every node of `nodes` whose residual is
/// at or over its threshold — the start of a push. Pass the nodes that
/// can carry residual in ascending id order (a dense caller passes all
/// of them), and the queue is the one a full ascending scan builds.
template <typename G, typename State, typename Nodes>
void EnqueueOverThreshold(const G& g, State& s, const Nodes& nodes,
                          double epsilon) {
  for (const NodeId u : nodes) {
    push_internal::EnqueueIfOverThreshold(g, s, u, epsilon);
  }
}

/// Shared standard-form push kernel over any adjacency provider `G`
/// and push state `State`. Semantics, trace stream ("incremental_ppr"),
/// metrics, and floating-point operation order are exactly those of
/// `StandardFormPush` — see streaming/incremental_ppr.h for the
/// contract. Instantiated over (`DynamicGraph`, `DensePushState`) it
/// *is* that function.
template <typename G, typename State>
std::int64_t StandardFormPushOver(const G& g,
                                  const IncrementalPprOptions& options,
                                  State& s, SolverDiagnostics& diagnostics) {
  IMPREG_CHECK(options.gamma > 0.0 && options.gamma < 1.0);
  IMPREG_CHECK(options.epsilon > 0.0);
  const std::size_t n = static_cast<std::size_t>(g.NumNodes());
  IMPREG_CHECK(s.p.size() >= n && s.r.size() >= n && s.queued.size() >= n);

  SolverTrace* trace = IMPREG_TRACE_BEGIN("incremental_ppr");
  const auto enqueue = [&](NodeId u) {
    push_internal::EnqueueIfOverThreshold(g, s, u, options.epsilon);
  };

  std::int64_t pushes = 0;
  bool budget_stop = false;
  while (!s.queue.empty()) {
    if (options.budget != nullptr && (pushes & 255) == 0 &&
        options.budget->Exhausted()) {
      budget_stop = true;
      IMPREG_TRACE_EVENT(trace, pushes, kBudget,
                         static_cast<double>(options.budget->Spent()));
      break;
    }
    const NodeId u = s.queue.front();
    s.queue.pop_front();
    s.queued[u] = 0;
    const double d = g.Degree(u);
    const double threshold =
        push_internal::PushThresholdOver(g, u, options.epsilon);
    const double residual = s.r[u];
    if (std::abs(residual) < threshold) continue;

    // push(u): p gains γ·r, the rest spreads through column u of M
    // (nothing spreads from an isolated node — M annihilates it).
    s.p[u] += options.gamma * residual;
    s.r[u] = 0.0;
    std::int64_t arcs = 0;
    if (d > 0.0) {
      const double spread = (1.0 - options.gamma) * residual / d;
      const auto& neighbors = g.Neighbors(u);
      arcs = static_cast<std::int64_t>(neighbors.size());
      for (const auto& nb : neighbors) {
        s.Touch(nb.head);
        s.r[nb.head] += spread * nb.weight;
        enqueue(nb.head);
      }
    }
    enqueue(u);  // Self-loops can re-raise r(u).
    if (options.budget != nullptr) options.budget->Charge(arcs);
    IMPREG_TRACE_EVENT(trace, pushes, kArcWork, static_cast<double>(arcs));
    ++pushes;
    IMPREG_CHECK_MSG(pushes < (1LL << 40), "push runaway");
  }

  diagnostics = SolverDiagnostics{};
  diagnostics.iterations = push_internal::SaturateToInt(pushes);
  if (budget_stop) {
    diagnostics.status = SolveStatus::kBudgetExhausted;
    diagnostics.detail =
        "work budget exhausted mid-push; (p, r) is the best-so-far pair "
        "with the invariant intact";
  } else {
    diagnostics.status = SolveStatus::kConverged;
  }
  IMPREG_TRACE_FINISH(trace, diagnostics);
  IMPREG_METRIC_COUNT("solver.incremental_ppr.solves", 1);
  IMPREG_METRIC_COUNT("solver.incremental_ppr.pushes", pushes);
  return pushes;
}

/// Adds ((1−γ)/γ)·M p − (1/γ)·p to the residual `s.r`, which holds the
/// seed on entry, over any adjacency provider `G` — see
/// InvariantResidual in streaming/incremental_ppr.h. `support` lists
/// every node where p may be nonzero, in ascending id order (the dense
/// instantiation lists all nodes); the sums run in that order, so a
/// sparse support answers the dense bits.
template <typename G, typename Nodes, typename State>
void InvariantResidualOver(const G& g, const Vector& p, const Nodes& support,
                           double gamma, State& s) {
  IMPREG_CHECK(gamma > 0.0 && gamma < 1.0);
  const double k = (1.0 - gamma) / gamma;
  for (const NodeId u : support) {
    const double pu = p[u];
    if (pu == 0.0) continue;
    s.Touch(u);
    s.r[u] -= pu / gamma;
    const double d = g.Degree(u);
    if (d > 0.0) {
      // Column u of M scatters k·p(u)·w(u,v)/d(u) onto each neighbor v.
      const double scale = k * pu / d;
      for (const auto& nb : g.Neighbors(u)) {
        s.Touch(nb.head);
        s.r[nb.head] += scale * nb.weight;
      }
    }
  }
}

}  // namespace impreg

#endif  // IMPREG_STREAMING_PUSH_KERNEL_H_
