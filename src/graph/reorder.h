#ifndef IMPREG_GRAPH_REORDER_H_
#define IMPREG_GRAPH_REORDER_H_

#include <string>
#include <vector>

#include "core/solve_status.h"
#include "graph/graph.h"

/// \file
/// Deterministic cache-aware node relabeling.
///
/// The CSR gather `x[heads[a]]` is the one irregular access in the hot
/// kernels; on graphs whose labels are arbitrary it touches cache lines
/// all over x. Relabeling so that topological neighbors get nearby
/// labels (BFS / reverse-Cuthill–McKee / degree-sort) turns those
/// gathers into near-streams. Everything here is deterministic — the
/// permutation is a pure function of the graph and the method, never of
/// timing or thread count — and kernel results map back through the
/// inverse permutation *bit-identically*: `ApplyNodePermutation` keeps
/// every row's original arc order (rows become unsorted; see
/// Graph::RowsSorted), so a row's canonical reduction tree (simd.h)
/// sums the same values in the same order under either labeling —
/// SpMV/SpMM outputs are bitwise label-invariant.
///
/// The solvers and the query engine run in original labels; relabeling
/// is kept for the kernel benchmark that measures it (see the
/// relabeling section of docs/memory_layout.md for why). The locality
/// win is measured by `AvgNeighborLabelDistance` and exported through
/// the metrics registry as `graph.reorder.locality.{original,reordered}`.

namespace impreg {

/// How to compute the relabeling permutation.
enum class ReorderMethod {
  kIdentity = 0,    ///< No reordering (wrapper passes through).
  kBfs = 1,         ///< BFS order from a canonical pseudo-peripheral seed.
  kRcm = 2,         ///< Reverse Cuthill–McKee (BFS with degree-sorted
                    ///< neighbor visits, component order reversed).
  kDegreeSort = 3,  ///< Stable sort by (out-degree, id).
};

/// Short stable name: "identity", "bfs", "rcm", "degree-sort".
const char* ReorderMethodName(ReorderMethod method);

/// Parses a method name; returns false (leaving *out untouched) on an
/// unknown name.
bool ReorderMethodFromName(const std::string& name, ReorderMethod* out);

/// Computes the old→new relabeling for `method`. Deterministic: BFS/RCM
/// process components in order of their smallest node id, start each
/// from a canonical pseudo-peripheral node (double-BFS sweep seeded at
/// the component's min-(degree, id) node, ties broken by smallest id),
/// and visit neighbors in adjacency order (BFS) or (out-degree, id)
/// order (RCM). Every node appears exactly once, isolated nodes
/// included.
std::vector<NodeId> ComputeReorderPermutation(const Graph& g,
                                              ReorderMethod method);

/// True iff `perm` has size n and is a bijection on [0, n).
bool IsPermutation(const std::vector<NodeId>& perm, NodeId n);

/// inverse[perm[u]] = u. Precondition: perm is a permutation.
std::vector<NodeId> InvertPermutation(const std::vector<NodeId>& perm);

/// Relabels nodes: new graph's node perm[u] is old node u. Rows keep
/// their original arc order (only head labels change), so per-row
/// reduction trees are bitwise label-invariant; the result has
/// RowsSorted() == false. Degrees, edge count and total volume are
/// copied, not recomputed — bitwise equal under relabeling.
/// Precondition (checked): perm is a permutation of [0, n).
Graph ApplyNodePermutation(const Graph& g, const std::vector<NodeId>& perm);

/// Mean |u − heads[a]| over all arcs (0 for arcless graphs) — the
/// locality figure of merit a relabeling tries to shrink.
double AvgNeighborLabelDistance(const Graph& g);

/// A graph plus the permutation that produced it: kernels run on
/// `graph()`, callers see original labels via the mapping helpers.
///
/// Construction computes the permutation, passes it through the
/// `graph/reorder_permutation` fault site, and *validates* it (integral
/// bijection on [0, n)) before applying: a corrupted permutation is
/// rejected — the wrapper falls back to the identity (active() ==
/// false, diagnostics().status == kNonFinite) and serves the original
/// graph rather than silently mislabeled results.
///
/// Holds a pointer to `original`, which must outlive the wrapper.
class ReorderedGraph {
 public:
  explicit ReorderedGraph(const Graph& original,
                          ReorderMethod method = ReorderMethod::kRcm);

  /// False for kIdentity or when validation rejected the permutation:
  /// graph() is then the original and every mapping is the identity.
  bool active() const { return active_; }
  ReorderMethod method() const { return method_; }

  /// The graph kernels should run on: reordered when active, else the
  /// original.
  const Graph& graph() const { return active_ ? reordered_ : *original_; }
  const Graph& original() const { return *original_; }

  /// old→new and new→old label maps (identity when inactive).
  NodeId ToReordered(NodeId u) const { return perm_[u]; }
  NodeId ToOriginal(NodeId u) const { return inverse_[u]; }

  /// Scatter x (original labels) into reordered labels:
  /// out[perm[u]] = x[u]. Pure data movement — bitwise.
  std::vector<double> ToReorderedVector(const std::vector<double>& x) const;

  /// Gather back: out[u] = x[perm[u]]. Inverse of ToReorderedVector.
  std::vector<double> ToOriginalVector(const std::vector<double>& x) const;

  /// kConverged when the permutation was applied (or identity was
  /// requested); kNonFinite when a corrupted permutation was rejected.
  const SolverDiagnostics& diagnostics() const { return diagnostics_; }

  /// AvgNeighborLabelDistance of the original / reordered labeling
  /// (equal when inactive).
  double locality_original() const { return locality_original_; }
  double locality_reordered() const { return locality_reordered_; }

 private:
  const Graph* original_;
  Graph reordered_;
  ReorderMethod method_;
  bool active_ = false;
  std::vector<NodeId> perm_;
  std::vector<NodeId> inverse_;
  SolverDiagnostics diagnostics_;
  double locality_original_ = 0.0;
  double locality_reordered_ = 0.0;
};

}  // namespace impreg

#endif  // IMPREG_GRAPH_REORDER_H_
