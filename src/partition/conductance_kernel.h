#ifndef IMPREG_PARTITION_CONDUCTANCE_KERNEL_H_
#define IMPREG_PARTITION_CONDUCTANCE_KERNEL_H_

#include <algorithm>
#include <vector>

#include "partition/conductance.h"
#include "util/check.h"

/// \file
/// Cut-statistics kernels as templates over the adjacency provider, so
/// the sweep kernel (partition/sweep_kernel.h) keeps the exact
/// accumulation order of the `Graph` implementations in conductance.cc
/// over any provider; `Graph` is the one provider today. Requirements
/// on `G`:
/// `NumNodes()`, `Degree(u)`, `Heads(u)`/`Weights(u)` spans, and
/// `IsValidNode(u)`.

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
    } else {
      stats.complement_volume += g.Degree(u);
    }
  }
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

template <typename G>
CutStats ComputeCutStatsOver(const G& g, const std::vector<NodeId>& set) {
  return ComputeCutStatsFromMaskOver(g, NodesToMaskOver(g, set));
}

}  // namespace impreg

#endif  // IMPREG_PARTITION_CONDUCTANCE_KERNEL_H_
