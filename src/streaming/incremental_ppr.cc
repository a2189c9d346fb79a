#include "streaming/incremental_ppr.h"

#include <cmath>
#include <ranges>

#include "core/metrics.h"
#include "streaming/push_kernel.h"
#include "util/check.h"

namespace impreg {

namespace {

// Per-node push threshold: |r(u)| < ε·d(u), ε alone for isolated nodes.
inline double PushThreshold(const DynamicGraph& g, NodeId u, double epsilon) {
  return push_internal::PushThresholdOver(g, u, epsilon);
}

}  // namespace

// The kernel bodies live in streaming/push_kernel.h as templates over
// the adjacency provider and the state storage; these are their
// instantiations over DynamicGraph and caller-owned dense vectors.
std::int64_t StandardFormPush(const DynamicGraph& g,
                              const IncrementalPprOptions& options,
                              Vector& p, Vector& r,
                              std::deque<NodeId>& queue,
                              std::vector<char>& queued,
                              SolverDiagnostics& diagnostics) {
  IMPREG_CHECK(p.size() == static_cast<std::size_t>(g.NumNodes()));
  IMPREG_CHECK(r.size() == p.size());
  IMPREG_CHECK(queued.size() == p.size());
  DensePushState state{p, r, queue, queued};
  return StandardFormPushOver(g, options, state, diagnostics);
}

Vector InvariantResidual(const DynamicGraph& g, const Vector& seed,
                         const Vector& p, double gamma) {
  IMPREG_CHECK(seed.size() == static_cast<std::size_t>(g.NumNodes()));
  IMPREG_CHECK(p.size() == seed.size());
  Vector r = seed;
  DenseResidualState state{r};
  InvariantResidualOver(g, p, std::views::iota(NodeId{0}, g.NumNodes()),
                        gamma, state);
  return r;
}

IncrementalPersonalizedPageRank::IncrementalPersonalizedPageRank(
    const DynamicGraph& initial, Vector seed,
    const IncrementalPprOptions& options)
    : graph_(initial), seed_(std::move(seed)), options_(options) {
  IMPREG_CHECK(options_.gamma > 0.0 && options_.gamma < 1.0);
  IMPREG_CHECK(options_.epsilon > 0.0);
  IMPREG_CHECK(seed_.size() == static_cast<std::size_t>(graph_.NumNodes()));
  for (double v : seed_) IMPREG_CHECK_MSG(v >= 0.0, "seed must be >= 0");
  p_.assign(graph_.NumNodes(), 0.0);
  r_ = seed_;
  queued_.assign(graph_.NumNodes(), 0);
  for (NodeId u = 0; u < graph_.NumNodes(); ++u) Enqueue(u);
  total_pushes_ += PushUntilConverged();
}

void IncrementalPersonalizedPageRank::Enqueue(NodeId u) {
  if (queued_[u]) return;
  if (std::abs(r_[u]) >= PushThreshold(graph_, u, options_.epsilon)) {
    queue_.push_back(u);
    queued_[u] = 1;
  }
}

std::int64_t IncrementalPersonalizedPageRank::PushUntilConverged() {
  return StandardFormPush(graph_, options_, p_, r_, queue_, queued_,
                          diagnostics_);
}

void IncrementalPersonalizedPageRank::ApplyEdit(NodeId u, NodeId v,
                                                double weight, bool remove) {
  IMPREG_CHECK(u >= 0 && u < graph_.NumNodes());
  IMPREG_CHECK(v >= 0 && v < graph_.NumNodes());
  const double k = (1.0 - options_.gamma) / options_.gamma;

  // Snapshot the (at most two) columns of M that will change.
  struct ColumnSnapshot {
    NodeId node;
    double old_degree;
    std::vector<DynamicGraph::Neighbor> old_neighbors;
  };
  std::vector<ColumnSnapshot> columns;
  columns.push_back({u, graph_.Degree(u), graph_.Neighbors(u)});
  if (v != u) columns.push_back({v, graph_.Degree(v), graph_.Neighbors(v)});

  if (remove) {
    graph_.RemoveEdge(u, v, weight);
  } else {
    graph_.AddEdge(u, v, weight);
  }

  // Repair the invariant: Δr = ((1−γ)/γ)(M' − M) p on the changed
  // columns. Only columns with p ≠ 0 contribute. The sign of the edit
  // never appears here — the new-minus-old column difference carries
  // it, which is why removals reuse the insertion repair verbatim.
  std::int64_t repaired_columns = 0;
  for (const ColumnSnapshot& col : columns) {
    const double pc = p_[col.node];
    if (pc == 0.0) continue;
    ++repaired_columns;
    const double new_degree = graph_.Degree(col.node);
    // Add the new column…
    if (new_degree > 0.0) {
      for (const DynamicGraph::Neighbor& n : graph_.Neighbors(col.node)) {
        r_[n.head] += k * pc * n.weight / new_degree;
        Enqueue(n.head);
      }
    }
    // …and subtract the old one.
    if (col.old_degree > 0.0) {
      for (const DynamicGraph::Neighbor& n : col.old_neighbors) {
        r_[n.head] -= k * pc * n.weight / col.old_degree;
        Enqueue(n.head);
      }
    }
  }
  Enqueue(u);
  Enqueue(v);
  IMPREG_METRIC_COUNT(remove ? "solver.incremental_ppr.remove_edges"
                             : "solver.incremental_ppr.add_edges",
                      1);
  IMPREG_METRIC_COUNT("solver.incremental_ppr.repaired_columns",
                      repaired_columns);
  last_edge_pushes_ = PushUntilConverged();
  total_pushes_ += last_edge_pushes_;
}

void IncrementalPersonalizedPageRank::AddEdge(NodeId u, NodeId v,
                                              double weight) {
  ApplyEdit(u, v, weight, /*remove=*/false);
}

void IncrementalPersonalizedPageRank::RemoveEdge(NodeId u, NodeId v,
                                                 double weight) {
  ApplyEdit(u, v, weight, /*remove=*/true);
}

}  // namespace impreg
