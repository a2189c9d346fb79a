#include "partition/sweep.h"

#include "partition/sweep_kernel.h"

namespace impreg {

// The kernel bodies live in partition/sweep_kernel.h as templates over
// the adjacency provider; these instantiations over `Graph` are their
// one provider, bit-identical to the pre-template code.

SweepResult SweepCut(const Graph& g, const Vector& values,
                     const SweepOptions& options) {
  std::vector<NodeId> order(g.NumNodes());
  for (NodeId u = 0; u < g.NumNodes(); ++u) order[u] = u;
  return RunSweepOver(g, values, std::move(order), options);
}

SweepResult SweepCutOverSupport(const Graph& g, const Vector& values,
                                const SweepOptions& options,
                                double threshold) {
  return SweepCutOverSupportOver(g, values, options, threshold);
}

SweepResult SweepCutOverNodes(const Graph& g, const Vector& values,
                              std::vector<NodeId> nodes,
                              const SweepOptions& options) {
  return SweepCutOverNodesOver(g, values, std::move(nodes), options);
}

}  // namespace impreg
