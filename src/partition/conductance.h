#ifndef IMPREG_PARTITION_CONDUCTANCE_H_
#define IMPREG_PARTITION_CONDUCTANCE_H_

#include <vector>

#include "graph/graph.h"

/// \file
/// Cut metrics — Equation (6) of the paper:
///
///   φ(S) = |E(S, S̄)| / min(vol S, vol S̄),
///
/// with vol S = Σ_{u∈S} d(u) (self-loops contribute volume but can never
/// be cut). Expansion α(S) uses set cardinalities instead of volumes.

namespace impreg {

/// A node set with its cut statistics.
struct CutStats {
  double cut = 0.0;            ///< Total weight of edges crossing S.
  double volume = 0.0;         ///< vol(S).
  double complement_volume = 0.0;  ///< vol(S̄).
  std::int64_t size = 0;       ///< |S|.
  double conductance = 0.0;    ///< φ(S); 1 when both volumes are 0.
};

/// Computes cut statistics for the set given as a node list (ids must be
/// distinct and valid) in O(vol(set) + |set| log |set|), whatever n is,
/// once the calling thread's NodeIndex covers the graph. vol(S̄) is
/// TotalVolume() − vol(S) here and in the mask form.
CutStats ComputeCutStats(const Graph& g, const std::vector<NodeId>& set);

/// Computes cut statistics from a 0/1 membership mask of length n.
CutStats ComputeCutStatsFromMask(const Graph& g,
                                 const std::vector<char>& mask);

/// φ(S) for a node list. Degenerate sets (empty, full, or zero volume on
/// both sides) return 1, the worst possible value.
double Conductance(const Graph& g, const std::vector<NodeId>& set);

/// Expansion α(S) = cut(S)/min(|S|, |S̄|) (1 for degenerate sets).
double Expansion(const Graph& g, const std::vector<NodeId>& set);

/// Converts a mask to a node list.
std::vector<NodeId> MaskToNodes(const std::vector<char>& mask);

/// Converts a node list to a mask of length g.NumNodes().
std::vector<char> NodesToMask(const Graph& g,
                              const std::vector<NodeId>& nodes);

/// The complement node list.
std::vector<NodeId> ComplementSet(const Graph& g,
                                  const std::vector<NodeId>& set);

/// Exhaustive minimum conductance over all 2^{n-1}−1 nontrivial cuts —
/// ground truth for tests; requires 2 ≤ n ≤ 24.
double BruteForceMinConductance(const Graph& g);

}  // namespace impreg

#endif  // IMPREG_PARTITION_CONDUCTANCE_H_
