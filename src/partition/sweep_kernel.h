#ifndef IMPREG_PARTITION_SWEEP_KERNEL_H_
#define IMPREG_PARTITION_SWEEP_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/parallel.h"
#include "linalg/sparse_vector.h"
#include "partition/conductance_kernel.h"
#include "partition/sweep.h"
#include "util/check.h"

/// \file
/// The sweep-cut kernel as a template over the adjacency provider;
/// sweep.cc instantiates it over `Graph`, its one provider today, and
/// hk-relax and Nibble sweep their sparse answers with it directly.
///
/// `RunSweepOver` is the one sweep loop. It takes (node, value)
/// candidates and costs O(vol(candidates) + c log c) for c candidates,
/// whatever n is: ranks and the best set's membership live in the
/// caller's NodeIndex. Only the dense entry points that must find
/// their candidates (`SweepCut`, `SweepCutOverSupport`) scan n.
///
/// Requirements on `G`: `NumNodes()`, `Degree(u)`, `Heads(u)` /
/// `Weights(u)` spans, `TotalVolume()`, `IsValidNode(u)`. The
/// cut-delta pass runs under ParallelFor, so `G`'s accessors must be
/// safe for concurrent reads.

namespace impreg {

namespace sweep_internal {

/// The ordering key of `value` at `u`. Isolated nodes under a degree
/// scaling and NaN values get the lowest finite key, so they sort last
/// and every key is ordered: a NaN key would break the sort's strict
/// weak ordering.
template <typename G>
double KeyOver(const G& g, SweepScaling scaling, NodeId u, double value) {
  if (std::isnan(value)) return -std::numeric_limits<double>::max();
  const double d = g.Degree(u);
  switch (scaling) {
    case SweepScaling::kRaw:
      return value;
    case SweepScaling::kDegreeNormalized:
      return d > 0.0 ? value / d : -std::numeric_limits<double>::max();
    case SweepScaling::kSqrtDegreeNormalized:
      return d > 0.0 ? value / std::sqrt(d)
                     : -std::numeric_limits<double>::max();
  }
  return value;
}

}  // namespace sweep_internal

/// Sweeps `candidates`, (node, value) entries of distinct valid nodes,
/// in descending key order with ties broken by ascending id. `index`
/// must be clear and is left clear.
template <typename G>
SweepResult RunSweepOver(const G& g, std::vector<SparseEntry> candidates,
                         const SweepOptions& options, NodeIndex& index) {
  IMPREG_CHECK(index.empty());
  index.Reserve(g.NumNodes());
  // Each value becomes its key in place; (key descending, id
  // ascending) is a strict total order, so the sweep order does not
  // depend on the order the candidates came in.
  for (SparseEntry& c : candidates) {
    c.value = sweep_internal::KeyOver(g, options.scaling, c.node, c.value);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const SparseEntry& a, const SparseEntry& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.node < b.node;
            });

  // A node's slot in `index` is its rank in the sweep order. Nodes
  // outside the order have no slot and never count as set members.
  SweepResult result;
  result.order.reserve(candidates.size());
  for (const SparseEntry& c : candidates) {
    IMPREG_CHECK_MSG(index.Find(c.node) == NodeIndex::kAbsent,
                     "duplicate sweep candidate");
    index.Insert(c.node);
    result.order.push_back(c.node);
  }
  result.conductance_profile.reserve(result.order.size());

  const double total_volume = g.TotalVolume();
  const std::int64_t count = static_cast<std::int64_t>(result.order.size());

  // The O(vol) part — scanning each node's neighbors to see how the cut
  // changes when it joins the prefix — is a pure function of the ranks
  // ("is the neighbor earlier in the order?"), so every position is
  // computed independently in parallel. Edges to earlier nodes stop
  // crossing, all other (non-loop) incident edges start crossing. The
  // body reads the caller's index through `ranks`.
  const NodeIndex& ranks = index;
  Vector cut_delta(count);
  ParallelFor(0, count, 64, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t k = begin; k < end; ++k) {
      const NodeId u = result.order[k];
      double to_set = 0.0;
      double loops = 0.0;
      const auto heads = g.Heads(u);
      const auto weights = g.Weights(u);
      for (std::size_t i = 0; i < heads.size(); ++i) {
        const std::int32_t rank = ranks.Find(heads[i]);
        if (heads[i] == u) {
          loops += weights[i];
        } else if (rank != NodeIndex::kAbsent && rank < k) {
          to_set += weights[i];
        }
      }
      cut_delta[k] = g.Degree(u) - loops - 2.0 * to_set;
    }
  });
  index.Clear();

  // Sequential prefix scan over the deltas: same accumulation order as
  // a fully serial sweep, hence bit-identical for any thread count.
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
    result.stats = ComputeCutStatsOver(g, result.set, index);
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
  std::vector<SparseEntry> support;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (values[u] > threshold) support.push_back({u, values[u]});
  }
  return RunSweepOver(g, std::move(support), options, ThreadNodeIndex());
}

}  // namespace impreg

#endif  // IMPREG_PARTITION_SWEEP_KERNEL_H_
