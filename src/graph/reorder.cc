#include "graph/reorder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>

#include "core/metrics.h"
#include "util/check.h"
#include "util/fault.h"

namespace impreg {

namespace {

/// Structural (arc-count) degree used for all ordering decisions:
/// integer, so tie-breaks are exact and platform-independent.
ArcIndex StructDegree(const Graph& g, NodeId u) { return g.OutDegree(u); }

/// BFS from `source` over not-yet-visited nodes. Appends visited nodes
/// to `order` in visit order, records their BFS depth in `depth`
/// (indexed by node), marks them in `visited`, and returns the
/// eccentricity (max depth reached). Neighbor visit order within a row
/// is `neighbor_order(u)`: adjacency order for plain BFS, degree-sorted
/// for RCM — either way a pure function of the graph.
template <class NeighborOrder>
NodeId BfsComponent(const Graph& g, NodeId source,
                    std::vector<std::uint8_t>& visited,
                    std::vector<NodeId>& order, std::vector<NodeId>& depth,
                    const NeighborOrder& neighbor_order) {
  NodeId ecc = 0;
  std::deque<NodeId> queue;
  queue.push_back(source);
  visited[source] = 1;
  depth[source] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    order.push_back(u);
    ecc = std::max(ecc, depth[u]);
    for (const NodeId v : neighbor_order(u)) {
      if (!visited[v]) {
        visited[v] = 1;
        depth[v] = depth[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return ecc;
}

/// Canonical pseudo-peripheral node of the component containing
/// `members` (all same component): start from the min-(degree, id)
/// member and walk to a deepest min-(degree, id) node until the
/// eccentricity stops growing. Deterministic; bounded sweeps. The
/// scratch arrays are shared across components (components are node-
/// disjoint, so entries touched here are never read by another
/// component) — keeps the whole pass O(n + m·sweeps), isolated-node
/// soup included.
NodeId PseudoPeripheral(const Graph& g, const std::vector<NodeId>& members,
                        std::vector<std::uint8_t>& visited,
                        std::vector<NodeId>& depth) {
  const auto adjacency = [&](NodeId u) {
    const auto heads = g.Heads(u);
    return std::vector<NodeId>(heads.begin(), heads.end());
  };
  NodeId best = members[0];
  for (const NodeId u : members) {
    if (StructDegree(g, u) < StructDegree(g, best) ||
        (StructDegree(g, u) == StructDegree(g, best) && u < best)) {
      best = u;
    }
  }
  if (members.size() <= 2) return best;
  std::vector<NodeId> order;
  order.reserve(members.size());
  NodeId ecc = -1;
  for (int sweep = 0; sweep < 8; ++sweep) {
    for (const NodeId u : members) visited[u] = 0;
    order.clear();
    const NodeId new_ecc =
        BfsComponent(g, best, visited, order, depth, adjacency);
    if (new_ecc <= ecc) break;
    ecc = new_ecc;
    // Deepest level, min (degree, id).
    NodeId candidate = -1;
    for (const NodeId u : order) {
      if (depth[u] != ecc) continue;
      if (candidate < 0 || StructDegree(g, u) < StructDegree(g, candidate) ||
          (StructDegree(g, u) == StructDegree(g, candidate) &&
           u < candidate)) {
        candidate = u;
      }
    }
    best = candidate;
  }
  return best;
}

}  // namespace

const char* ReorderMethodName(ReorderMethod method) {
  switch (method) {
    case ReorderMethod::kIdentity:
      return "identity";
    case ReorderMethod::kBfs:
      return "bfs";
    case ReorderMethod::kRcm:
      return "rcm";
    case ReorderMethod::kDegreeSort:
      return "degree-sort";
  }
  return "unknown";
}

bool ReorderMethodFromName(const std::string& name, ReorderMethod* out) {
  for (const ReorderMethod m :
       {ReorderMethod::kIdentity, ReorderMethod::kBfs, ReorderMethod::kRcm,
        ReorderMethod::kDegreeSort}) {
    if (name == ReorderMethodName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

std::vector<NodeId> ComputeReorderPermutation(const Graph& g,
                                              ReorderMethod method) {
  const NodeId n = g.NumNodes();
  std::vector<NodeId> order;  // order[new label] = old node
  order.reserve(n);

  switch (method) {
    case ReorderMethod::kIdentity: {
      for (NodeId u = 0; u < n; ++u) order.push_back(u);
      break;
    }
    case ReorderMethod::kDegreeSort: {
      for (NodeId u = 0; u < n; ++u) order.push_back(u);
      std::stable_sort(order.begin(), order.end(),
                       [&](NodeId a, NodeId b) {
                         const ArcIndex da = StructDegree(g, a);
                         const ArcIndex db = StructDegree(g, b);
                         return da != db ? da < db : a < b;
                       });
      break;
    }
    case ReorderMethod::kBfs:
    case ReorderMethod::kRcm: {
      const bool rcm = method == ReorderMethod::kRcm;
      std::vector<std::uint8_t> visited(n, 0);
      std::vector<NodeId> depth(n, 0);
      // Shared scratch for component discovery and the peripheral
      // sweeps; components are disjoint so reuse is safe.
      std::vector<std::uint8_t> component_scratch(n, 0);
      std::vector<std::uint8_t> peripheral_scratch(n, 0);
      std::vector<NodeId> scratch_depth(n, 0);
      std::vector<NodeId> members;
      const auto adjacency = [&](NodeId u) {
        const auto heads = g.Heads(u);
        return std::vector<NodeId>(heads.begin(), heads.end());
      };
      // Components in order of their smallest node id; isolated nodes
      // are one-node components and keep their relative order.
      for (NodeId rep = 0; rep < n; ++rep) {
        if (visited[rep]) continue;
        members.clear();
        BfsComponent(g, rep, component_scratch, members, scratch_depth,
                     adjacency);
        const NodeId source =
            PseudoPeripheral(g, members, peripheral_scratch, scratch_depth);
        const std::size_t component_begin = order.size();
        if (rcm) {
          const auto degree_sorted = [&](NodeId u) {
            const auto heads = g.Heads(u);
            std::vector<NodeId> sorted(heads.begin(), heads.end());
            std::stable_sort(sorted.begin(), sorted.end(),
                             [&](NodeId a, NodeId b) {
                               const ArcIndex da = StructDegree(g, a);
                               const ArcIndex db = StructDegree(g, b);
                               return da != db ? da < db : a < b;
                             });
            return sorted;
          };
          BfsComponent(g, source, visited, order, depth, degree_sorted);
          // Reverse within the component: Cuthill–McKee → RCM.
          std::reverse(order.begin() + component_begin, order.end());
        } else {
          BfsComponent(g, source, visited, order, depth, adjacency);
        }
      }
      break;
    }
  }

  std::vector<NodeId> perm(n);
  for (NodeId new_label = 0; new_label < n; ++new_label) {
    perm[order[new_label]] = new_label;
  }
  return perm;
}

bool IsPermutation(const std::vector<NodeId>& perm, NodeId n) {
  if (static_cast<NodeId>(perm.size()) != n) return false;
  std::vector<std::uint8_t> seen(n, 0);
  for (const NodeId p : perm) {
    if (p < 0 || p >= n || seen[p]) return false;
    seen[p] = 1;
  }
  return true;
}

std::vector<NodeId> InvertPermutation(const std::vector<NodeId>& perm) {
  std::vector<NodeId> inverse(perm.size());
  for (NodeId u = 0; u < static_cast<NodeId>(perm.size()); ++u) {
    inverse[perm[u]] = u;
  }
  return inverse;
}

Graph ApplyNodePermutation(const Graph& g, const std::vector<NodeId>& perm) {
  const NodeId n = g.NumNodes();
  IMPREG_CHECK_MSG(IsPermutation(perm, n),
                   "ApplyNodePermutation: not a permutation of [0, n)");
  const std::vector<NodeId> inverse = InvertPermutation(perm);
  Graph out;
  out.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  out.degrees_.assign(static_cast<std::size_t>(n), 0.0);
  out.heads_.resize(static_cast<std::size_t>(g.NumArcs()));
  out.weights_.resize(static_cast<std::size_t>(g.NumArcs()));
  for (NodeId nu = 0; nu < n; ++nu) {
    const NodeId ou = inverse[nu];
    out.offsets_[nu + 1] = out.offsets_[nu] + g.OutDegree(ou);
    out.degrees_[nu] = g.Degree(ou);
  }
  for (NodeId nu = 0; nu < n; ++nu) {
    const NodeId ou = inverse[nu];
    const auto heads = g.Heads(ou);
    const auto weights = g.Weights(ou);
    ArcIndex write = out.offsets_[nu];
    // Original arc order, relabeled heads: the row's reduction tree
    // sums the same doubles in the same order under either labeling.
    for (std::size_t i = 0; i < heads.size(); ++i) {
      out.heads_[write] = perm[heads[i]];
      out.weights_[write++] = weights[i];
    }
  }
  out.num_edges_ = g.NumEdges();
  out.total_volume_ = g.TotalVolume();
  out.rows_sorted_ = false;
  return out;
}

double AvgNeighborLabelDistance(const Graph& g) {
  const ArcIndex m = g.NumArcs();
  if (m == 0) return 0.0;
  const auto offsets = g.Offsets();
  const auto heads = g.Heads();
  double sum = 0.0;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (ArcIndex a = offsets[u]; a < offsets[u + 1]; ++a) {
      sum += std::abs(static_cast<double>(u) - heads[a]);
    }
  }
  return sum / static_cast<double>(m);
}

ReorderedGraph::ReorderedGraph(const Graph& original, ReorderMethod method)
    : original_(&original), method_(method) {
  const NodeId n = original.NumNodes();
  const auto make_identity = [&] {
    perm_.resize(n);
    for (NodeId u = 0; u < n; ++u) perm_[u] = u;
    inverse_ = perm_;
    locality_original_ = locality_reordered_ = AvgNeighborLabelDistance(original);
  };
  if (method == ReorderMethod::kIdentity) {
    make_identity();
    diagnostics_.status = SolveStatus::kConverged;
    diagnostics_.detail = "identity reorder requested; serving original";
    return;
  }

  const std::vector<NodeId> computed = ComputeReorderPermutation(original, method);
  // The permutation passes through the fault site as doubles (int32
  // labels are exactly representable) so the robustness harness can
  // corrupt it; validation below must then reject it.
  std::vector<double> mirror(computed.begin(), computed.end());
  IMPREG_FAULT_POINT("graph/reorder_permutation", mirror);
  bool valid = static_cast<NodeId>(mirror.size()) == n;
  std::vector<NodeId> candidate;
  if (valid) {
    candidate.reserve(mirror.size());
    for (const double d : mirror) {
      // NaN fails every comparison; Inf and fractions fail these.
      if (!(d >= 0.0) || !(d < static_cast<double>(n)) ||
          d != std::floor(d)) {
        valid = false;
        break;
      }
      candidate.push_back(static_cast<NodeId>(d));
    }
  }
  if (valid) valid = IsPermutation(candidate, n);
  if (!valid) {
    // Rejected, not served: fall back to the original labeling.
    make_identity();
    diagnostics_.status = SolveStatus::kNonFinite;
    diagnostics_.detail =
        "reorder permutation failed validation; serving original labeling";
    IMPREG_METRIC_COUNT("graph.reorder.rejected", 1);
    return;
  }

  perm_ = std::move(candidate);
  inverse_ = InvertPermutation(perm_);
  reordered_ = ApplyNodePermutation(original, perm_);
  active_ = true;
  diagnostics_.status = SolveStatus::kConverged;
  diagnostics_.detail = std::string("reordered with ") + ReorderMethodName(method);
  locality_original_ = AvgNeighborLabelDistance(original);
  locality_reordered_ = AvgNeighborLabelDistance(reordered_);
  IMPREG_METRIC_COUNT("graph.reorder.applied", 1);
  IMPREG_METRIC_GAUGE_SET("graph.reorder.locality.original",
                          locality_original_);
  IMPREG_METRIC_GAUGE_SET("graph.reorder.locality.reordered",
                          locality_reordered_);
}

std::vector<double> ReorderedGraph::ToReorderedVector(
    const std::vector<double>& x) const {
  std::vector<double> out(x.size());
  for (std::size_t u = 0; u < x.size(); ++u) out[perm_[u]] = x[u];
  return out;
}

std::vector<double> ReorderedGraph::ToOriginalVector(
    const std::vector<double>& x) const {
  std::vector<double> out(x.size());
  for (std::size_t u = 0; u < x.size(); ++u) out[u] = x[perm_[u]];
  return out;
}

}  // namespace impreg
