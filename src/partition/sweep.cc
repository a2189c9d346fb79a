#include "partition/sweep.h"

#include "partition/sweep_kernel.h"

namespace impreg {

// The kernel bodies live in partition/sweep_kernel.h as templates over
// the adjacency provider; these instantiations over `Graph` are their
// one provider.

SweepResult SweepCut(const Graph& g, const Vector& values,
                     const SweepOptions& options) {
  IMPREG_CHECK(values.size() == static_cast<std::size_t>(g.NumNodes()));
  std::vector<SparseEntry> all(g.NumNodes());
  for (NodeId u = 0; u < g.NumNodes(); ++u) all[u] = {u, values[u]};
  return RunSweepOver(g, std::move(all), options, ThreadNodeIndex());
}

SweepResult SweepCutOverSupport(const Graph& g, const Vector& values,
                                const SweepOptions& options,
                                double threshold) {
  return SweepCutOverSupportOver(g, values, options, threshold);
}

}  // namespace impreg
