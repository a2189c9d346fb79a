#include "partition/nibble.h"

#include "diffusion/seed.h"
#include "partition/nibble_kernel.h"

namespace impreg {

// The kernel body lives in partition/nibble_kernel.h as a template
// over the adjacency provider; `Graph` is its one provider.
NibbleResult NibbleSparse(const Graph& g, const SparseVector& seed,
                          const NibbleOptions& options,
                          SparseVector& distribution) {
  return NibbleOver(g, seed, options, distribution);
}

NibbleResult NibbleFromDistribution(const Graph& g, const Vector& seed,
                                    const NibbleOptions& options) {
  IMPREG_CHECK(seed.size() == static_cast<std::size_t>(g.NumNodes()));
  SparseVector distribution;
  NibbleResult result =
      NibbleSparse(g, SparseFromDense(seed), options, distribution);
  result.distribution.assign(g.NumNodes(), 0.0);
  ScatterInto(distribution, result.distribution);
  return result;
}

NibbleResult Nibble(const Graph& g, NodeId seed,
                    const NibbleOptions& options) {
  return NibbleFromDistribution(g, SingleNodeSeed(g, seed), options);
}

}  // namespace impreg
