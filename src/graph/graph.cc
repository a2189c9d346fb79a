#include "graph/graph.h"

#include <algorithm>

#include "util/check.h"

namespace impreg {

double Graph::EdgeWeight(NodeId u, NodeId v) const {
  IMPREG_DCHECK(IsValidNode(u) && IsValidNode(v));
  const auto heads = Heads(u);
  auto it = std::lower_bound(heads.begin(), heads.end(), v);
  if (it != heads.end() && *it == v) {
    return weights_[offsets_[u] + (it - heads.begin())];
  }
  return 0.0;
}

GraphBuilder::GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {
  IMPREG_CHECK(num_nodes >= 0);
}

void GraphBuilder::AddEdge(NodeId u, NodeId v, double weight) {
  IMPREG_CHECK_MSG(u >= 0 && u < num_nodes_ && v >= 0 && v < num_nodes_,
                   "edge endpoint out of range");
  IMPREG_CHECK_MSG(weight > 0.0, "edge weights must be strictly positive");
  edges_.push_back({u, v, weight});
}

Graph GraphBuilder::Build() const {
  const NodeId n = num_nodes_;
  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  g.degrees_.assign(static_cast<std::size_t>(n), 0.0);

  // Count arcs per node (self-loops contribute one arc).
  for (const auto& e : edges_) {
    ++g.offsets_[e.u + 1];
    if (e.u != e.v) ++g.offsets_[e.v + 1];
  }
  for (NodeId u = 0; u < n; ++u) g.offsets_[u + 1] += g.offsets_[u];

  // Scatter arcs into the structure-of-arrays storage.
  g.heads_.resize(static_cast<std::size_t>(g.offsets_[n]));
  g.weights_.resize(static_cast<std::size_t>(g.offsets_[n]));
  std::vector<ArcIndex> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& e : edges_) {
    g.heads_[cursor[e.u]] = e.v;
    g.weights_[cursor[e.u]++] = e.weight;
    if (e.u != e.v) {
      g.heads_[cursor[e.v]] = e.u;
      g.weights_[cursor[e.v]++] = e.weight;
    }
  }

  // Sort each adjacency list and merge parallel edges in place. Rows are
  // gathered into an (head, weight) scratch row so the sort permutes
  // both arrays consistently, then written back compacted. The sort is
  // stable: both rows of an edge received its parallel copies in
  // edge-list order, so both sum them in that order and the mirrored
  // arcs carry bitwise-equal weights.
  ArcIndex write = 0;
  std::vector<ArcIndex> new_offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Arc> row;
  for (NodeId u = 0; u < n; ++u) {
    const ArcIndex begin = g.offsets_[u];
    const ArcIndex end = g.offsets_[u + 1];
    row.clear();
    row.reserve(static_cast<std::size_t>(end - begin));
    for (ArcIndex i = begin; i < end; ++i) {
      row.push_back({g.heads_[i], g.weights_[i]});
    }
    std::stable_sort(row.begin(), row.end(), [](const Arc& a, const Arc& b) {
      return a.head < b.head;
    });
    new_offsets[u] = write;
    for (std::size_t i = 0; i < row.size();) {
      Arc merged = row[i];
      std::size_t j = i + 1;
      while (j < row.size() && row[j].head == merged.head) {
        merged.weight += row[j].weight;
        ++j;
      }
      g.heads_[write] = merged.head;
      g.weights_[write++] = merged.weight;
      i = j;
    }
  }
  new_offsets[n] = write;
  g.heads_.resize(static_cast<std::size_t>(write));
  g.heads_.shrink_to_fit();
  g.weights_.resize(static_cast<std::size_t>(write));
  g.weights_.shrink_to_fit();
  g.offsets_ = std::move(new_offsets);

  // Degrees, edge count, volume.
  g.num_edges_ = 0;
  g.total_volume_ = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    double deg = 0.0;
    const auto heads = g.Heads(u);
    const auto weights = g.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      deg += weights[i];
      if (heads[i] >= u) ++g.num_edges_;  // Count each undirected edge once.
    }
    g.degrees_[u] = deg;
    g.total_volume_ += deg;
  }
  return g;
}

}  // namespace impreg
