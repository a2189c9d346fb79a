#include "streaming/dynamic_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/metrics.h"
#include "util/check.h"

namespace impreg {

namespace {

/// The canonical degree fold: left to right over the row in insertion
/// order. Recomputed after every row mutation so removal restores the
/// pre-insertion bits.
double RowSum(const std::vector<DynamicGraph::Neighbor>& row) {
  double sum = 0.0;
  for (const DynamicGraph::Neighbor& n : row) sum += n.weight;
  return sum;
}

std::uint64_t ArcKey(NodeId u, NodeId v) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

}  // namespace

DynamicGraph::DynamicGraph(NodeId num_nodes)
    : rep_(std::make_shared<Rep>()) {
  IMPREG_CHECK(num_nodes >= 0);
  rep_->num_nodes = num_nodes;
  rep_->pages.resize((static_cast<std::size_t>(num_nodes) + kPageRows - 1) /
                     kPageRows);
  for (std::shared_ptr<Page>& page : rep_->pages) {
    page = std::make_shared<Page>();
  }
}

DynamicGraph DynamicGraph::FromGraph(const Graph& g) {
  const NodeId n = g.NumNodes();
  DynamicGraph dynamic(n);
  Rep& rep = *dynamic.rep_;
  for (NodeId u = 0; u < n; ++u) {
    const auto heads = g.Heads(u);
    const auto weights = g.Weights(u);
    Page& page = *rep.pages[PageIndex(u)];
    std::vector<Neighbor>& row = page.rows[Slot(u)];
    row.reserve(heads.size());
    for (std::size_t i = 0; i < heads.size(); ++i) {
      row.push_back({heads[i], weights[i]});
      if (heads[i] >= u) ++rep.num_edges;
    }
    page.degrees[Slot(u)] = RowSum(row);
  }
  return dynamic;
}

DynamicGraph DynamicGraph::FromParts(
    std::vector<std::vector<Neighbor>> adjacency, std::vector<double> degrees,
    std::int64_t num_edges, double total_volume) {
  IMPREG_CHECK_MSG(adjacency.size() == degrees.size(),
                   "adjacency/degree node counts disagree");
  IMPREG_CHECK_MSG(num_edges >= 0 && std::isfinite(total_volume),
                   "edge count/volume malformed");
  const NodeId n = static_cast<NodeId>(adjacency.size());
  std::int64_t arcs = 0;
  std::int64_t self_loops = 0;
  // Pairwise-symmetry ledger: every cross arc (u→v) must be mirrored by
  // (v→u) with bitwise-equal weight, and no row may list a head twice
  // (mutations edit both rows of an edge and accumulate in place — an
  // asymmetric or duplicated adjacency would silently corrupt them).
  std::unordered_set<std::uint64_t> seen_arcs;
  std::unordered_map<std::uint64_t, double> unmatched;
  seen_arcs.reserve(static_cast<std::size_t>(2 * num_edges));
  for (NodeId u = 0; u < n; ++u) {
    IMPREG_CHECK_MSG(std::isfinite(degrees[u]), "non-finite degree");
    for (const Neighbor& nb : adjacency[u]) {
      IMPREG_CHECK_MSG(nb.head >= 0 && nb.head < n,
                       "neighbor id out of range");
      IMPREG_CHECK_MSG(std::isfinite(nb.weight) && nb.weight > 0.0,
                       "neighbor weight must be finite and positive");
      IMPREG_CHECK_MSG(seen_arcs.insert(ArcKey(u, nb.head)).second,
                       "duplicate neighbor entry in a row");
      ++arcs;
      if (nb.head == u) {
        ++self_loops;
      } else if (u < nb.head) {
        unmatched.emplace(ArcKey(u, nb.head), nb.weight);
      } else {
        const auto mirror = unmatched.find(ArcKey(nb.head, u));
        IMPREG_CHECK_MSG(mirror != unmatched.end(),
                         "arc (u, v) present without its mirror (v, u)");
        IMPREG_CHECK_MSG(mirror->second == nb.weight,
                         "mirrored arcs carry different weights");
        unmatched.erase(mirror);
      }
    }
  }
  IMPREG_CHECK_MSG(unmatched.empty(),
                   "arc (u, v) present without its mirror (v, u)");
  // Each undirected edge contributes two arcs except self-loops (one).
  IMPREG_CHECK_MSG(arcs == 2 * num_edges - self_loops,
                   "arc count disagrees with the declared edge count");
  DynamicGraph dynamic(n);
  for (NodeId u = 0; u < n; ++u) {
    Page& page = *dynamic.rep_->pages[PageIndex(u)];
    page.rows[Slot(u)] = std::move(adjacency[u]);
    page.degrees[Slot(u)] = degrees[u];
  }
  dynamic.rep_->num_edges = num_edges;
  return dynamic;
}

DynamicGraph::Parts DynamicGraph::ExportParts() const {
  Parts parts;
  parts.adjacency.reserve(static_cast<std::size_t>(NumNodes()));
  parts.degrees.reserve(static_cast<std::size_t>(NumNodes()));
  for (NodeId u = 0; u < NumNodes(); ++u) {
    parts.adjacency.push_back(Neighbors(u));
    parts.degrees.push_back(Degree(u));
  }
  parts.num_edges = NumEdges();
  parts.total_volume = TotalVolume();
  return parts;
}

std::pair<DynamicGraph::Page*, DynamicGraph::Page*>
DynamicGraph::WritablePages(NodeId u, NodeId v) {
  // One writer by contract, so use_count() is stable from this thread's
  // point of view: pinned views only appear via Snapshot()/copies made
  // — and are only released — on this thread.
  if (rep_.use_count() > 1) {
    rep_ = std::make_shared<Rep>(*rep_);
    IMPREG_METRIC_COUNT("streaming.graph.table_clones", 1);
  }
  auto writable = [this](NodeId w) {
    std::shared_ptr<Page>& page = rep_->pages[PageIndex(w)];
    if (page.use_count() > 1) {
      page = std::make_shared<Page>(*page);
      IMPREG_METRIC_COUNT("streaming.graph.page_clones", 1);
    }
    return page.get();
  };
  Page* page_u = writable(u);
  return {page_u, writable(v)};
}

double DynamicGraph::TotalVolume() const {
  double volume = 0.0;
  for (NodeId u = 0; u < NumNodes(); ++u) volume += Degree(u);
  return volume;
}

double DynamicGraph::EdgeWeight(NodeId u, NodeId v) const {
  if (u < 0 || u >= NumNodes() || v < 0 || v >= NumNodes()) return 0.0;
  for (const Neighbor& n : Neighbors(u)) {
    if (n.head == v) return n.weight;
  }
  return 0.0;
}

void DynamicGraph::AddEdge(NodeId u, NodeId v, double weight) {
  IMPREG_CHECK(u >= 0 && u < NumNodes() && v >= 0 && v < NumNodes());
  IMPREG_CHECK_MSG(std::isfinite(weight) && weight > 0.0,
                   "edge weights must be finite and strictly positive");
  const auto [page_u, page_v] = WritablePages(u, v);
  std::vector<Neighbor>& row_u = page_u->rows[Slot(u)];
  std::vector<Neighbor>& row_v = page_v->rows[Slot(v)];
  auto bump = [weight](std::vector<Neighbor>& row, NodeId to) {
    for (Neighbor& n : row) {
      if (n.head == to) {
        n.weight += weight;
        return true;
      }
    }
    row.push_back({to, weight});
    return false;
  };
  const bool existed = bump(row_u, v);
  if (u != v) bump(row_v, u);
  if (!existed) ++rep_->num_edges;
  page_u->degrees[Slot(u)] = RowSum(row_u);
  if (u != v) page_v->degrees[Slot(v)] = RowSum(row_v);
}

void DynamicGraph::RemoveEdge(NodeId u, NodeId v, double weight) {
  IMPREG_CHECK(u >= 0 && u < NumNodes() && v >= 0 && v < NumNodes());
  IMPREG_CHECK_MSG(std::isfinite(weight) && weight >= 0.0,
                   "removal weight must be finite and non-negative");
  const auto [page_u, page_v] = WritablePages(u, v);
  std::vector<Neighbor>& row_u = page_u->rows[Slot(u)];
  std::vector<Neighbor>& row_v = page_v->rows[Slot(v)];
  auto find = [](std::vector<Neighbor>& row, NodeId to) -> Neighbor* {
    for (Neighbor& n : row) {
      if (n.head == to) return &n;
    }
    return nullptr;
  };
  Neighbor* forward = find(row_u, v);
  IMPREG_CHECK_MSG(forward != nullptr, "RemoveEdge: no such edge");
  const double stored = forward->weight;
  IMPREG_CHECK_MSG(weight <= stored,
                   "RemoveEdge: removal weight exceeds the stored weight");
  const bool full = weight == 0.0 || weight == stored;
  if (full) {
    auto erase = [](std::vector<Neighbor>& row, NodeId to) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i].head == to) {
          // Order-preserving erase: surviving entries keep their
          // positions, so the re-folded degree restores prior bits.
          row.erase(row.begin() + static_cast<std::ptrdiff_t>(i));
          return;
        }
      }
    };
    erase(row_u, v);
    if (u != v) erase(row_v, u);
    --rep_->num_edges;
  } else {
    // One subtraction, mirrored bitwise (both stored weights were
    // accumulated by the identical sequence, so they are equal going
    // in and stay equal coming out).
    forward->weight = stored - weight;
    if (u != v) {
      Neighbor* backward = find(row_v, u);
      IMPREG_CHECK_MSG(backward != nullptr,
                       "RemoveEdge: asymmetric adjacency");
      backward->weight = stored - weight;
    }
  }
  page_u->degrees[Slot(u)] = RowSum(row_u);
  if (u != v) page_v->degrees[Slot(v)] = RowSum(row_v);
}

Graph DynamicGraph::ToGraph() const {
  // GraphBuilder::Build over this graph's head ≥ u edges, without the
  // builder: rows hold each head once and mirrored arcs carry equal
  // weight bits, so sorting each row by head is exactly the builder's
  // scatter + sort + merge.
  const NodeId n = NumNodes();
  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    g.offsets_[u + 1] =
        g.offsets_[u] + static_cast<ArcIndex>(Neighbors(u).size());
  }
  g.heads_.resize(static_cast<std::size_t>(g.offsets_[n]));
  g.weights_.resize(static_cast<std::size_t>(g.offsets_[n]));
  g.degrees_.assign(static_cast<std::size_t>(n), 0.0);
  const auto by_head = [](const Neighbor& a, const Neighbor& b) {
    return a.head < b.head;
  };
  std::vector<Neighbor> sorted;
  for (NodeId u = 0; u < n; ++u) {
    const std::vector<Neighbor>* row = &Neighbors(u);
    if (!std::is_sorted(row->begin(), row->end(), by_head)) {
      sorted.assign(row->begin(), row->end());
      std::sort(sorted.begin(), sorted.end(), by_head);
      row = &sorted;
    }
    // Build's left-to-right degree fold and ascending volume sum.
    ArcIndex a = g.offsets_[u];
    double degree = 0.0;
    for (const Neighbor& nb : *row) {
      g.heads_[a] = nb.head;
      g.weights_[a++] = nb.weight;
      degree += nb.weight;
      if (nb.head >= u) ++g.num_edges_;
    }
    g.degrees_[u] = degree;
    g.total_volume_ += degree;
  }
  return g;
}

}  // namespace impreg
