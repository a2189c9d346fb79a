#ifndef IMPREG_PARTITION_SWEEP_KERNEL_H_
#define IMPREG_PARTITION_SWEEP_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/parallel.h"
#include "partition/conductance_kernel.h"
#include "partition/sweep.h"
#include "util/check.h"

/// \file
/// The sweep-cut kernel as a template over the adjacency provider.
/// sweep.cc instantiates it over `Graph` (bit-identical to the
/// historical implementation), its one provider today. The template
/// lets the rounding step of hk-relax and Nibble keep the same
/// accumulation order over the planned pinned `DynamicGraph` view
/// (ROADMAP.md).
///
/// Requirements on `G`: `NumNodes()`, `Degree(u)`, `Heads(u)` /
/// `Weights(u)` spans, `TotalVolume()`, `IsValidNode(u)`. The
/// cut-delta pass runs under ParallelFor, so `G`'s accessors must be
/// safe for concurrent reads.

namespace impreg {

namespace sweep_internal {

template <typename G>
double KeyOver(const G& g, const Vector& values, SweepScaling scaling,
               NodeId u) {
  const double d = g.Degree(u);
  switch (scaling) {
    case SweepScaling::kRaw:
      return values[u];
    case SweepScaling::kDegreeNormalized:
      return d > 0.0 ? values[u] / d : -std::numeric_limits<double>::max();
    case SweepScaling::kSqrtDegreeNormalized:
      return d > 0.0 ? values[u] / std::sqrt(d)
                     : -std::numeric_limits<double>::max();
  }
  return values[u];
}

}  // namespace sweep_internal

template <typename G>
SweepResult RunSweepOver(const G& g, const Vector& values,
                         std::vector<NodeId> order,
                         const SweepOptions& options) {
  IMPREG_CHECK(values.size() == static_cast<std::size_t>(g.NumNodes()));
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return sweep_internal::KeyOver(g, values, options.scaling, a) >
           sweep_internal::KeyOver(g, values, options.scaling, b);
  });

  SweepResult result;
  result.order = std::move(order);
  result.conductance_profile.reserve(result.order.size());

  const double total_volume = g.TotalVolume();
  const std::int64_t count = static_cast<std::int64_t>(result.order.size());

  // Rank of each node in the sweep order; nodes outside the order (the
  // support variant sweeps a subset) rank past everything and so never
  // count as set members.
  std::vector<std::int64_t> rank(g.NumNodes(),
                                 std::numeric_limits<std::int64_t>::max());
  for (std::int64_t k = 0; k < count; ++k) rank[result.order[k]] = k;

  // The O(m) part — scanning each node's neighbors to see how the cut
  // changes when it joins the prefix — is a pure function of the ranks
  // ("is the neighbor earlier in the order?"), so every position is
  // computed independently in parallel. Edges to earlier nodes stop
  // crossing, all other (non-loop) incident edges start crossing.
  Vector cut_delta(count);
  ParallelFor(0, count, 64, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t k = begin; k < end; ++k) {
      const NodeId u = result.order[k];
      double to_set = 0.0;
      double loops = 0.0;
      const auto heads = g.Heads(u);
      const auto weights = g.Weights(u);
      for (std::size_t i = 0; i < heads.size(); ++i) {
        if (heads[i] == u) {
          loops += weights[i];
        } else if (rank[heads[i]] < k) {
          to_set += weights[i];
        }
      }
      cut_delta[k] = g.Degree(u) - loops - 2.0 * to_set;
    }
  });

  // Sequential O(n) prefix scan over the deltas: same accumulation order
  // as a fully serial sweep, hence bit-identical for any thread count.
  double volume = 0.0;
  double cut = 0.0;
  double best = std::numeric_limits<double>::max();
  std::size_t best_prefix = 0;  // 0 = none yet; else prefix length.

  for (std::int64_t k = 0; k < count; ++k) {
    const NodeId u = result.order[k];
    volume += g.Degree(u);
    cut += cut_delta[k];
    const double denom = std::min(volume, total_volume - volume);
    const double phi = denom > 0.0 ? cut / denom : 1.0;
    result.conductance_profile.push_back(phi);

    const NodeId size = static_cast<NodeId>(k + 1);
    const bool feasible =
        size >= options.min_size &&
        (options.max_size == 0 || size <= options.max_size) &&
        (options.max_volume <= 0.0 || volume <= options.max_volume) &&
        size < g.NumNodes() && denom > 0.0;
    if (feasible && phi < best) {
      best = phi;
      best_prefix = k + 1;
    }
  }

  if (best_prefix > 0) {
    result.set.assign(result.order.begin(),
                      result.order.begin() + best_prefix);
    std::sort(result.set.begin(), result.set.end());
    result.stats = ComputeCutStatsOver(g, result.set);
  } else {
    result.stats.conductance = 1.0;
  }
  return result;
}

template <typename G>
SweepResult SweepCutOverSupportOver(const G& g, const Vector& values,
                                    const SweepOptions& options,
                                    double threshold) {
  IMPREG_CHECK(values.size() == static_cast<std::size_t>(g.NumNodes()));
  std::vector<NodeId> support;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (values[u] > threshold) support.push_back(u);
  }
  return RunSweepOver(g, values, std::move(support), options);
}

template <typename G>
SweepResult SweepCutOverNodesOver(const G& g, const Vector& values,
                                  std::vector<NodeId> nodes,
                                  const SweepOptions& options) {
  // A duplicated id would silently overwrite its rank and add
  // g.Degree(u) to the prefix volume once per copy, corrupting the
  // conductance profile and the chosen set — keep the first occurrence
  // of each id only.
  std::vector<char> seen(g.NumNodes(), 0);
  std::size_t kept = 0;
  for (NodeId u : nodes) {
    IMPREG_CHECK(g.IsValidNode(u));
    if (seen[u]) continue;
    seen[u] = 1;
    nodes[kept++] = u;
  }
  nodes.resize(kept);
  return RunSweepOver(g, values, std::move(nodes), options);
}

}  // namespace impreg

#endif  // IMPREG_PARTITION_SWEEP_KERNEL_H_
