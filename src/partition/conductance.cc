#include "partition/conductance.h"

#include <algorithm>

#include "partition/conductance_kernel.h"
#include "util/check.h"

namespace impreg {

// Kernel bodies live in partition/conductance_kernel.h as templates
// over the adjacency provider; these `Graph` instantiations are the
// historical entry points.

CutStats ComputeCutStatsFromMask(const Graph& g,
                                 const std::vector<char>& mask) {
  return ComputeCutStatsFromMaskOver(g, mask);
}

CutStats ComputeCutStats(const Graph& g, const std::vector<NodeId>& set) {
  // Summed in ascending id, whatever order `set` lists its nodes in.
  if (std::is_sorted(set.begin(), set.end())) {
    return ComputeCutStatsOver(g, set, ThreadNodeIndex());
  }
  std::vector<NodeId> sorted = set;
  std::sort(sorted.begin(), sorted.end());
  return ComputeCutStatsOver(g, sorted, ThreadNodeIndex());
}

double Conductance(const Graph& g, const std::vector<NodeId>& set) {
  if (set.empty() || static_cast<NodeId>(set.size()) == g.NumNodes()) {
    return 1.0;
  }
  return ComputeCutStats(g, set).conductance;
}

double Expansion(const Graph& g, const std::vector<NodeId>& set) {
  if (set.empty() || static_cast<NodeId>(set.size()) == g.NumNodes()) {
    return 1.0;
  }
  const CutStats stats = ComputeCutStats(g, set);
  const auto complement_size = g.NumNodes() - stats.size;
  const double denom =
      static_cast<double>(std::min<std::int64_t>(stats.size, complement_size));
  return denom > 0.0 ? stats.cut / denom : 1.0;
}

std::vector<NodeId> MaskToNodes(const std::vector<char>& mask) {
  std::vector<NodeId> nodes;
  for (std::size_t u = 0; u < mask.size(); ++u) {
    if (mask[u]) nodes.push_back(static_cast<NodeId>(u));
  }
  return nodes;
}

std::vector<char> NodesToMask(const Graph& g,
                              const std::vector<NodeId>& nodes) {
  return NodesToMaskOver(g, nodes);
}

std::vector<NodeId> ComplementSet(const Graph& g,
                                  const std::vector<NodeId>& set) {
  std::vector<char> mask = NodesToMask(g, set);
  std::vector<NodeId> complement;
  complement.reserve(g.NumNodes() - set.size());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (!mask[u]) complement.push_back(u);
  }
  return complement;
}

double BruteForceMinConductance(const Graph& g) {
  const int n = g.NumNodes();
  IMPREG_CHECK_MSG(n >= 2 && n <= 24, "brute force limited to 2..24 nodes");
  double best = 1.0;
  std::vector<char> mask(n, 0);
  // Fix node 0 out of S to halve the enumeration (φ(S) = φ(S̄)).
  const std::uint32_t limit = 1u << (n - 1);
  for (std::uint32_t bits = 1; bits < limit; ++bits) {
    for (int u = 0; u < n - 1; ++u) mask[u + 1] = (bits >> u) & 1u;
    best = std::min(best, ComputeCutStatsFromMask(g, mask).conductance);
  }
  return best;
}

}  // namespace impreg
