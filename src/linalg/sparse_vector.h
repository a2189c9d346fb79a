#ifndef IMPREG_LINALG_SPARSE_VECTOR_H_
#define IMPREG_LINALG_SPARSE_VECTOR_H_

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
/// O(support) bytes instead of O(n).

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

}  // namespace impreg

#endif  // IMPREG_LINALG_SPARSE_VECTOR_H_
