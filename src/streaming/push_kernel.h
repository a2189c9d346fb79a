#ifndef IMPREG_STREAMING_PUSH_KERNEL_H_
#define IMPREG_STREAMING_PUSH_KERNEL_H_

#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "core/metrics.h"
#include "core/trace.h"
#include "linalg/vector_ops.h"
#include "streaming/incremental_ppr.h"
#include "util/check.h"

/// \file
/// The standard-form push kernel as a template over the graph
/// adjacency provider. Its one provider is `DynamicGraph`:
/// `StandardFormPush` (incremental_ppr.cc) is a thin instantiation
/// over it. The instruction sequence does not depend on how rows are
/// stored, so any provider that serves the same row and degree bits
/// answers the same bits.
///
/// Requirements on `G`: `NumNodes()`, `Degree(u)` (double), and
/// `Neighbors(u)` returning a range of items with `.head`/`.weight`.
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

inline int SaturateToInt(std::int64_t v) {
  return v > std::numeric_limits<int>::max()
             ? std::numeric_limits<int>::max()
             : static_cast<int>(v);
}

}  // namespace push_internal

/// Shared standard-form push kernel over any adjacency provider `G`.
/// Semantics, trace stream ("incremental_ppr"), metrics, and
/// floating-point operation order are exactly those of
/// `StandardFormPush` — see streaming/incremental_ppr.h for the
/// contract. Instantiated over `DynamicGraph` it *is* that function.
template <typename G>
std::int64_t StandardFormPushOver(const G& g,
                                  const IncrementalPprOptions& options,
                                  Vector& p, Vector& r,
                                  std::deque<NodeId>& queue,
                                  std::vector<char>& queued,
                                  SolverDiagnostics& diagnostics) {
  IMPREG_CHECK(options.gamma > 0.0 && options.gamma < 1.0);
  IMPREG_CHECK(options.epsilon > 0.0);
  IMPREG_CHECK(p.size() == static_cast<std::size_t>(g.NumNodes()));
  IMPREG_CHECK(r.size() == p.size());
  IMPREG_CHECK(queued.size() == p.size());

  SolverTrace* trace = IMPREG_TRACE_BEGIN("incremental_ppr");
  const auto enqueue = [&](NodeId u) {
    if (queued[u]) return;
    if (std::abs(r[u]) >=
        push_internal::PushThresholdOver(g, u, options.epsilon)) {
      queue.push_back(u);
      queued[u] = 1;
    }
  };

  std::int64_t pushes = 0;
  bool budget_stop = false;
  while (!queue.empty()) {
    if (options.budget != nullptr && (pushes & 255) == 0 &&
        options.budget->Exhausted()) {
      budget_stop = true;
      IMPREG_TRACE_EVENT(trace, pushes, kBudget,
                         static_cast<double>(options.budget->Spent()));
      break;
    }
    const NodeId u = queue.front();
    queue.pop_front();
    queued[u] = 0;
    const double d = g.Degree(u);
    const double threshold =
        push_internal::PushThresholdOver(g, u, options.epsilon);
    const double residual = r[u];
    if (std::abs(residual) < threshold) continue;

    // push(u): p gains γ·r, the rest spreads through column u of M
    // (nothing spreads from an isolated node — M annihilates it).
    p[u] += options.gamma * residual;
    r[u] = 0.0;
    std::int64_t arcs = 0;
    if (d > 0.0) {
      const double spread = (1.0 - options.gamma) * residual / d;
      const auto& neighbors = g.Neighbors(u);
      arcs = static_cast<std::int64_t>(neighbors.size());
      for (const auto& n : neighbors) {
        r[n.head] += spread * n.weight;
        enqueue(n.head);
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

/// Invariant residual r = s + ((1−γ)/γ)·M p − (1/γ)·p over any
/// adjacency provider `G` — see streaming/incremental_ppr.h.
template <typename G>
Vector InvariantResidualOver(const G& g, const Vector& seed, const Vector& p,
                             double gamma) {
  IMPREG_CHECK(gamma > 0.0 && gamma < 1.0);
  IMPREG_CHECK(seed.size() == static_cast<std::size_t>(g.NumNodes()));
  IMPREG_CHECK(p.size() == seed.size());
  const double k = (1.0 - gamma) / gamma;
  Vector r = seed;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const double pu = p[u];
    if (pu == 0.0) continue;
    r[u] -= pu / gamma;
    const double d = g.Degree(u);
    if (d > 0.0) {
      // Column u of M scatters k·p(u)·w(u,v)/d(u) onto each neighbor v.
      const double scale = k * pu / d;
      for (const auto& n : g.Neighbors(u)) {
        r[n.head] += scale * n.weight;
      }
    }
  }
  return r;
}

}  // namespace impreg

#endif  // IMPREG_STREAMING_PUSH_KERNEL_H_
