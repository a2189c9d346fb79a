#ifndef IMPREG_STREAMING_DYNAMIC_GRAPH_H_
#define IMPREG_STREAMING_DYNAMIC_GRAPH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"

/// \file
/// A mutable undirected graph for the streaming/dynamic algorithms of
/// §3.3's closing paragraph (PageRank on graph streams [37], incremental
/// Personalized PageRank on evolving networks [6]) — insertions *and*
/// removals, the full evolving-network model.
///
/// ## Paged copy-on-write storage
///
/// Rows live in fixed pages of `kPageRows` (256) nodes: each page holds
/// those nodes' neighbor rows and their degrees, and the representation
/// is a table of `shared_ptr<Page>` plus the edge count. Copying a
/// DynamicGraph (and taking a Snapshot()) shares the whole table in
/// O(1). The first mutation after such a pin copies only the table
/// (n / 256 page pointers); each mutation then clones at most the two
/// pages it writes, and only when another generation still shares
/// them — later edits to an already-cloned page in the same generation
/// write in place. So an edit under a pinned batch costs O(deg) plus
/// at most two page copies, never O(n + m). That is what lets the
/// serving tier pin a frozen epoch view for a query batch while ingest
/// keeps landing edits on the live graph (SnapshotView below), and
/// what the durability layer serializes: the representation preserves
/// per-node neighbor insertion order and exact degree bits, so a
/// snapshot+WAL-replayed graph is bit-identical to one that never
/// crashed (src/service/durability/). Paging is invisible to every
/// accessor: `Neighbors`, `Degree`, `ExportParts` and the snapshot/WAL
/// formats see plain rows. The metrics `streaming.graph.table_clones`
/// and `streaming.graph.page_clones` count the copy-on-write work.
///
/// ## Canonical accounting
///
/// Degrees are *canonical row sums*: after any mutation of a row, the
/// degree is recomputed as the left-to-right fold over that row's
/// neighbor weights. Volume is the ascending-node-order sum of degrees,
/// computed on demand (cold paths only — the kernels read degrees, not
/// volume). Canonical accounting is what makes removal *exactly
/// invertible*: erasing an edge restores the row to its previous
/// contents (order preserved), so the re-folded degree — and therefore
/// the volume — returns to its previous bits. An incremental
/// `degrees[u] -= w` could not: `(a + w) - w != a` in floating point.
/// `ToGraph` re-folds each row in ascending-head order, so the frozen
/// CSR degrees and volume are bitwise what `GraphBuilder::Build` gives.

namespace impreg {

/// Mutable adjacency-list graph; supports edge insertion and removal
/// and conversion to/from the immutable CSR Graph. Parallel insertions
/// of the same edge accumulate weight. Deterministic iteration order
/// (insertion order per node; removals erase in place and preserve the
/// order of the surviving entries). Value semantics with copy-on-write
/// sharing: copies are O(1) and diverge lazily on the first mutation
/// of either side.
///
/// Thread-safety: one writer. A SnapshotView (or plain copy) created
/// by the writer thread may be read concurrently from other threads
/// while the writer mutates — the writer clones the shared table and
/// pages before writing them, so readers only ever see the frozen
/// state they pinned. Pins must also be *released* on the writer
/// thread: the writer decides whether to clone from `use_count()`,
/// a relaxed load, which does not order a reader's last access on
/// another thread before the writer's in-place write.
class DynamicGraph {
 public:
  /// A neighbor entry.
  struct Neighbor {
    NodeId head;
    double weight;
  };

  /// Nodes per copy-on-write page (see the file comment).
  static constexpr NodeId kPageRows = 256;

  /// An immutable, O(1)-pinned view of the graph at a moment in time,
  /// tagged with the epoch the owner assigned to that moment. The view
  /// keeps the underlying representation alive; the live graph it was
  /// taken from is free to keep mutating. Defined after the class (it
  /// holds a DynamicGraph by value).
  class SnapshotView;

  /// An edgeless graph on `num_nodes` nodes.
  explicit DynamicGraph(NodeId num_nodes);

  /// Copies the rows of an immutable graph, each CSR row as is. That
  /// is also the row the u-major `AddEdge(u, head)` loop over head ≥ u
  /// arcs (the canonical load order the durability layer replays)
  /// leaves, because CSR rows are sorted by head with bitwise-equal
  /// mirrored weights: the row-sum degrees are bitwise the CSR degrees
  /// and `FromGraph(g).ToGraph()` is bitwise `g`.
  static DynamicGraph FromGraph(const Graph& g);

  /// Reassembles a graph from its exact serialized parts — adjacency in
  /// per-node insertion order plus the degree bits (which depend on row
  /// order, so they are restored verbatim, never recomputed). Validates arc
  /// symmetry: the total count, per-row head uniqueness, and that every
  /// cross arc (u→v) is mirrored by (v→u) with bitwise-equal weight —
  /// an asymmetric adjacency would corrupt later mutations that edit
  /// both rows. Aborts on malformed parts (callers — the snapshot
  /// loader — checksum-verify first, so this is a programming-error
  /// guard, not an input validator).
  static DynamicGraph FromParts(std::vector<std::vector<Neighbor>> adjacency,
                                std::vector<double> degrees,
                                std::int64_t num_edges, double total_volume);

  /// The exact serialized parts of the graph: adjacency in per-node
  /// insertion order plus the degree/volume bits. A deep copy — the
  /// inverse of `FromParts`, so `FromParts(ExportParts(g))` round-trips
  /// bit-exactly for any graph, including degenerate topologies (empty,
  /// isolated nodes, self-loops, disconnected components — pinned by
  /// streaming_test). Tests use it to compare graphs bit for bit.
  struct Parts {
    std::vector<std::vector<Neighbor>> adjacency;
    std::vector<double> degrees;
    std::int64_t num_edges = 0;
    double total_volume = 0.0;
  };
  Parts ExportParts() const;

  DynamicGraph(const DynamicGraph&) = default;
  DynamicGraph& operator=(const DynamicGraph&) = default;
  DynamicGraph(DynamicGraph&&) = default;
  DynamicGraph& operator=(DynamicGraph&&) = default;

  NodeId NumNodes() const { return rep_->num_nodes; }

  /// Number of distinct undirected edges.
  std::int64_t NumEdges() const { return rep_->num_edges; }

  /// Weighted degree (self-loops once).
  double Degree(NodeId u) const { return PageOf(u).degrees[Slot(u)]; }

  /// The ascending-node-order sum of degrees — GraphBuilder's exact
  /// accumulation order, recomputed on demand (O(n); volume is read on
  /// cold paths only: snapshots, validation, tests). Bit-identical to
  /// the frozen CSR volume whenever the degree bits match.
  double TotalVolume() const;

  /// The neighbor list of u (insertion order; no duplicates).
  const std::vector<Neighbor>& Neighbors(NodeId u) const {
    return PageOf(u).rows[Slot(u)];
  }

  /// The stored weight of edge {u, v}, or 0.0 when absent (also for
  /// out-of-range endpoints — callers use this to pre-validate wire
  /// mutations without risking the RemoveEdge abort contract). O(deg).
  double EdgeWeight(NodeId u, NodeId v) const;

  /// Inserts undirected edge {u, v} with finite weight w > 0
  /// (accumulating onto an existing edge). O(deg) per endpoint (linear
  /// duplicate scan — degrees in our workloads are small). If any
  /// snapshot or copy still shares the current generation, the page
  /// table is copied first (O(n / kPageRows), once per pinned
  /// generation), and each of the ≤ 2 pages holding u and v is cloned
  /// before its first write in that generation (O(kPageRows) rows).
  void AddEdge(NodeId u, NodeId v, double weight = 1.0);

  /// Removes weight from undirected edge {u, v}. `weight` = 0.0 (the
  /// default) removes the edge entirely; a positive `weight` must not
  /// exceed the stored weight — equal removes the edge, smaller
  /// decrements it (one subtraction, applied to both mirrored arcs, so
  /// they stay bitwise equal). Full removal erases the adjacency
  /// entries in place, preserving the order of the surviving entries —
  /// that, plus canonical row-sum accounting, is what makes
  /// add-then-remove restore the prior graph bit-exactly. The edge
  /// must exist (abort contract — wire callers pre-validate with
  /// `EdgeWeight`). O(deg) per endpoint; copy-on-write like AddEdge.
  void RemoveEdge(NodeId u, NodeId v, double weight = 0.0);

  /// Pins the current state as an immutable view tagged `epoch` (the
  /// caller's counter — the query engine passes its edit epoch). O(1).
  /// Defined after SnapshotView below.
  SnapshotView Snapshot(std::int64_t epoch = 0) const;

  /// Freezes into an immutable CSR Graph, filling the arrays directly:
  /// bitwise what `GraphBuilder::Build` makes from this graph's edges
  /// (rows sorted by head, degrees folded over the sorted row, volume
  /// summed in ascending node order).
  Graph ToGraph() const;

 private:
  /// kPageRows consecutive rows and their degrees; unused slots of the
  /// last page stay empty.
  struct Page {
    std::array<std::vector<Neighbor>, kPageRows> rows;
    std::array<double, kPageRows> degrees{};
  };

  /// One generation: the page table, shared until the next mutation.
  struct Rep {
    std::vector<std::shared_ptr<Page>> pages;
    NodeId num_nodes = 0;
    std::int64_t num_edges = 0;
  };

  static std::size_t PageIndex(NodeId u) {
    return static_cast<std::uint32_t>(u) / kPageRows;
  }
  static std::size_t Slot(NodeId u) {
    return static_cast<std::uint32_t>(u) % kPageRows;
  }
  const Page& PageOf(NodeId u) const { return *rep_->pages[PageIndex(u)]; }

  /// Copies the page table if another graph/view shares it, then
  /// clones the pages holding u and v if another generation shares
  /// them. Returns those pages, writable.
  std::pair<Page*, Page*> WritablePages(NodeId u, NodeId v);

  std::shared_ptr<Rep> rep_;
};

class DynamicGraph::SnapshotView {
 public:
  /// An empty view (0 nodes, epoch 0); assign over it.
  SnapshotView() : graph_(0) {}

  /// The frozen graph. Stable for the lifetime of the view.
  const DynamicGraph& graph() const { return graph_; }

  /// The epoch the owner pinned (see DynamicGraph::Snapshot).
  std::int64_t epoch() const { return epoch_; }

 private:
  friend class DynamicGraph;
  SnapshotView(const DynamicGraph& g, std::int64_t epoch)
      : graph_(g), epoch_(epoch) {}

  DynamicGraph graph_;  ///< Shares the rep until the parent mutates.
  std::int64_t epoch_ = 0;
};

inline DynamicGraph::SnapshotView DynamicGraph::Snapshot(
    std::int64_t epoch) const {
  return SnapshotView(*this, epoch);
}

}  // namespace impreg

#endif  // IMPREG_STREAMING_DYNAMIC_GRAPH_H_
