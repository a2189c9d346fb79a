#include "partition/nibble.h"

#include "diffusion/seed.h"
#include "partition/nibble_kernel.h"

namespace impreg {

// The kernel body lives in partition/nibble_kernel.h as a template
// over the adjacency provider; this `Graph` instantiation is its one
// provider, bit-identical to the pre-template code.
NibbleResult NibbleFromDistribution(const Graph& g, const Vector& seed,
                                    const NibbleOptions& options) {
  return NibbleFromDistributionOver(g, seed, options);
}

NibbleResult Nibble(const Graph& g, NodeId seed,
                    const NibbleOptions& options) {
  return NibbleFromDistribution(g, SingleNodeSeed(g, seed), options);
}

}  // namespace impreg
