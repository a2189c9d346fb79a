#ifndef IMPREG_PARTITION_SWEEP_H_
#define IMPREG_PARTITION_SWEEP_H_

#include <vector>

#include "graph/graph.h"
#include "linalg/vector_ops.h"
#include "partition/conductance.h"

/// \file
/// Sweep cuts: the rounding step of every spectral-family method in the
/// paper (§3.2, §3.3). Nodes are ordered by an embedding value and the
/// best-conductance prefix is returned. The global variant scans all n
/// prefixes; the support-restricted variant scans only the nonzero
/// entries of a sparse diffusion vector, which is what keeps the local
/// methods strongly local.

namespace impreg {

/// How the ordering key is derived from the input values.
enum class SweepScaling {
  /// Key = value (for vectors already living in "per-node" units, e.g.
  /// the generalized eigenvector D^{-1/2}x).
  kRaw,
  /// Key = value / degree (for probability/charge vectors: PPR, walks).
  kDegreeNormalized,
  /// Key = value / √degree (for hat-space vectors, e.g. eigenvectors
  /// of ℒ).
  kSqrtDegreeNormalized,
};

/// Options for the sweep.
struct SweepOptions {
  SweepScaling scaling = SweepScaling::kRaw;
  /// Only prefixes with size in [min_size, max_size] compete (max_size
  /// 0 means unbounded). The profile still records every prefix.
  NodeId min_size = 1;
  NodeId max_size = 0;
  /// Only prefixes with volume ≤ max_volume compete (0 = unbounded).
  double max_volume = 0.0;
};

/// Result of a sweep.
struct SweepResult {
  /// The best prefix set (empty if no prefix satisfied the size bounds).
  std::vector<NodeId> set;
  /// Cut statistics of `set`.
  CutStats stats;
  /// The examined ordering (all nodes, or the support).
  std::vector<NodeId> order;
  /// conductance_profile[k] = φ of the first k+1 nodes of `order`.
  std::vector<double> conductance_profile;
};

/// Global sweep over all nodes, ordered by descending key. Ties broken
/// by node id (deterministic). Isolated zero-degree nodes (under a
/// degree scaling) and NaN values sort last.
SweepResult SweepCut(const Graph& g, const Vector& values,
                     const SweepOptions& options = {});

/// Sweep restricted to the support {u : values[u] > threshold}. The
/// graph exploration is O(vol(support)), but finding the support scans
/// `values` once (O(n)); the strongly local kernels, which already
/// know their support, sweep it through RunSweepOver
/// (partition/sweep_kernel.h) instead.
SweepResult SweepCutOverSupport(const Graph& g, const Vector& values,
                                const SweepOptions& options = {},
                                double threshold = 0.0);

}  // namespace impreg

#endif  // IMPREG_PARTITION_SWEEP_H_
