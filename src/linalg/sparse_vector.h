#ifndef IMPREG_LINALG_SPARSE_VECTOR_H_
#define IMPREG_LINALG_SPARSE_VECTOR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/graph.h"
#include "linalg/vector_ops.h"

/// \file
/// A sparse vector: (node, value) entries in strictly ascending node
/// order. It keeps every entry whose bits are not +0.0 (so -0.0
/// survives), which makes a sparse cut lossless: scattering it into a
/// zeroed dense vector restores the dense vector bit for bit. Cached
/// answers and snapshots store local diffusion state this way, in
/// O(support) bytes instead of O(n). Also here: NodeIndex, the
/// per-thread node → slot index the strongly local kernels keep their
/// working state at.

namespace impreg {

struct SparseEntry {
  NodeId node;
  double value;
};

using SparseVector = std::vector<SparseEntry>;

/// Whether a sparse cut stores `x`: every value but +0.0.
inline bool IsStoredValue(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits != 0;
}

/// The sparse cut of `dense`, in one pass.
inline SparseVector SparseFromDense(const Vector& dense) {
  std::size_t count = 0;
  for (double x : dense) count += IsStoredValue(x) ? 1 : 0;
  SparseVector sparse;
  sparse.reserve(count);
  for (std::size_t u = 0; u < dense.size(); ++u) {
    if (IsStoredValue(dense[u])) {
      sparse.push_back({static_cast<NodeId>(u), dense[u]});
    }
  }
  return sparse;
}

/// Writes each entry's value at its node of `dense`, which must be
/// longer than the largest node. Into a zeroed vector this restores
/// the dense vector the cut was taken from.
inline void ScatterInto(const SparseVector& sparse, Vector& dense) {
  for (const SparseEntry& e : sparse) dense[e.node] = e.value;
}

/// True iff every stored value is finite.
inline bool AllFinite(const SparseVector& x) {
  for (const SparseEntry& e : x) {
    if (!std::isfinite(e.value)) return false;
  }
  return true;
}

/// Sorts entries into ascending node order (the SparseVector order).
inline void SortByNode(SparseVector& x) {
  std::sort(x.begin(), x.end(),
            [](const SparseEntry& a, const SparseEntry& b) {
              return a.node < b.node;
            });
}

/// A reusable map from node ids to slots 0, 1, 2, … in the order the
/// nodes are inserted, over an int32 array that covers the largest
/// graph seen so far. Clear() resets only the inserted nodes, so a
/// strongly local kernel pays O(touched), not O(n), per use once the
/// array exists. The push workspace tracks its touched nodes in one;
/// hk-relax and Nibble keep their walk accumulators at its slots, the
/// sweep its ranks, and the cut statistics their membership test.
/// Not thread-safe to write: keep one per thread (ThreadNodeIndex).
class NodeIndex {
 public:
  static constexpr std::int32_t kAbsent = -1;

  /// Grows the array to cover `n` nodes (it never shrinks). Call it
  /// only while the index is clear.
  void Reserve(NodeId n) {
    if (slot_.size() < static_cast<std::size_t>(n)) {
      slot_.resize(static_cast<std::size_t>(n), kAbsent);
    }
  }

  /// The slot of `u`, or kAbsent.
  std::int32_t Find(NodeId u) const { return slot_[u]; }

  /// Gives the absent node `u` the next slot and returns it.
  std::int32_t Insert(NodeId u) {
    const auto slot = static_cast<std::int32_t>(nodes_.size());
    slot_[u] = slot;
    nodes_.push_back(u);
    return slot;
  }

  /// The inserted nodes, in slot order.
  const std::vector<NodeId>& Nodes() const { return nodes_; }
  bool empty() const { return nodes_.empty(); }

  /// Sorts the inserted nodes into ascending id order in place. After
  /// it, Find() only tells present from absent: the slots no longer
  /// index Nodes().
  const std::vector<NodeId>& SortNodes() {
    std::sort(nodes_.begin(), nodes_.end());
    return nodes_;
  }

  /// Forgets every inserted node. O(inserted).
  void Clear() {
    for (const NodeId u : nodes_) slot_[u] = kAbsent;
    nodes_.clear();
  }

 private:
  std::vector<std::int32_t> slot_;
  std::vector<NodeId> nodes_;
};

/// This thread's NodeIndex. Every user leaves it clear, on every exit,
/// so each finds it clear on entry. Take the reference outside any
/// ParallelFor body: a body runs on pool threads, where the name
/// resolves to each worker's own index, not the caller's.
inline NodeIndex& ThreadNodeIndex() {
  thread_local NodeIndex index;
  return index;
}

}  // namespace impreg

#endif  // IMPREG_LINALG_SPARSE_VECTOR_H_
