#include "partition/hkrelax.h"

#include "diffusion/seed.h"
#include "partition/hkrelax_kernel.h"

namespace impreg {

// The kernel body lives in partition/hkrelax_kernel.h as a template
// over the adjacency provider; this `Graph` instantiation is its one
// provider, bit-identical to the pre-template code.
HkRelaxResult HeatKernelRelaxFromDistribution(const Graph& g,
                                              const Vector& seed,
                                              const HkRelaxOptions& options) {
  return HeatKernelRelaxFromDistributionOver(g, seed, options);
}

HkRelaxResult HeatKernelRelax(const Graph& g, NodeId seed,
                              const HkRelaxOptions& options) {
  return HeatKernelRelaxFromDistribution(g, SingleNodeSeed(g, seed), options);
}

}  // namespace impreg
