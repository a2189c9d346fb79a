#ifndef IMPREG_PARTITION_CONDUCTANCE_KERNEL_H_
#define IMPREG_PARTITION_CONDUCTANCE_KERNEL_H_

#include <algorithm>
#include <vector>

#include "linalg/sparse_vector.h"
#include "partition/conductance.h"
#include "util/check.h"

/// \file
/// Cut-statistics kernels as templates over the adjacency provider;
/// `Graph` is the one provider today. The set form costs O(vol(set))
/// and backs ComputeCutStats and every sweep; the mask form backs
/// ComputeCutStatsFromMask. Both take vol(S̄) = TotalVolume() − vol(S).
/// Requirements on `G`: `NumNodes()`, `Degree(u)`, `Heads(u)` /
/// `Weights(u)` spans, `TotalVolume()` and `IsValidNode(u)`.

namespace impreg {

template <typename G>
CutStats ComputeCutStatsFromMaskOver(const G& g,
                                     const std::vector<char>& mask) {
  IMPREG_CHECK(mask.size() == static_cast<std::size_t>(g.NumNodes()));
  CutStats stats;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (mask[u]) {
      ++stats.size;
      stats.volume += g.Degree(u);
      const auto heads = g.Heads(u);
      const auto weights = g.Weights(u);
      for (std::size_t i = 0; i < heads.size(); ++i) {
        if (!mask[heads[i]]) stats.cut += weights[i];
      }
    }
  }
  stats.complement_volume = g.TotalVolume() - stats.volume;
  const double denom = std::min(stats.volume, stats.complement_volume);
  stats.conductance = denom > 0.0 ? stats.cut / denom : 1.0;
  return stats;
}

template <typename G>
std::vector<char> NodesToMaskOver(const G& g,
                                  const std::vector<NodeId>& nodes) {
  std::vector<char> mask(g.NumNodes(), 0);
  for (NodeId u : nodes) {
    IMPREG_CHECK(g.IsValidNode(u));
    IMPREG_CHECK_MSG(!mask[u], "duplicate node in set");
    mask[u] = 1;
  }
  return mask;
}

/// Cut statistics of `set` (distinct valid ids) in O(vol(set)) once
/// `index` covers the graph: membership is marked in `index`, which
/// must be clear and is left clear. The sums run over `set` in the
/// order given, so an ascending set gets the volume and cut the mask
/// scan gets.
template <typename G>
CutStats ComputeCutStatsOver(const G& g, const std::vector<NodeId>& set,
                             NodeIndex& index) {
  IMPREG_CHECK(index.empty());
  index.Reserve(g.NumNodes());
  for (NodeId u : set) {
    IMPREG_CHECK(g.IsValidNode(u));
    IMPREG_CHECK_MSG(index.Find(u) == NodeIndex::kAbsent,
                     "duplicate node in set");
    index.Insert(u);
  }
  CutStats stats;
  for (NodeId u : set) {
    ++stats.size;
    stats.volume += g.Degree(u);
    const auto heads = g.Heads(u);
    const auto weights = g.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (index.Find(heads[i]) == NodeIndex::kAbsent) stats.cut += weights[i];
    }
  }
  index.Clear();
  stats.complement_volume = g.TotalVolume() - stats.volume;
  const double denom = std::min(stats.volume, stats.complement_volume);
  stats.conductance = denom > 0.0 ? stats.cut / denom : 1.0;
  return stats;
}

}  // namespace impreg

#endif  // IMPREG_PARTITION_CONDUCTANCE_KERNEL_H_
