#include "partition/hkrelax.h"

#include "diffusion/seed.h"
#include "partition/hkrelax_kernel.h"

namespace impreg {

// The kernel body lives in partition/hkrelax_kernel.h as a template
// over the adjacency provider; `Graph` is its one provider.
HkRelaxResult HeatKernelRelaxSparse(const Graph& g, const SparseVector& seed,
                                    const HkRelaxOptions& options,
                                    SparseVector& rho) {
  return HeatKernelRelaxOver(g, seed, options, rho);
}

HkRelaxResult HeatKernelRelaxFromDistribution(const Graph& g,
                                              const Vector& seed,
                                              const HkRelaxOptions& options) {
  IMPREG_CHECK(seed.size() == static_cast<std::size_t>(g.NumNodes()));
  SparseVector rho;
  HkRelaxResult result =
      HeatKernelRelaxSparse(g, SparseFromDense(seed), options, rho);
  result.rho.assign(g.NumNodes(), 0.0);
  ScatterInto(rho, result.rho);
  return result;
}

HkRelaxResult HeatKernelRelax(const Graph& g, NodeId seed,
                              const HkRelaxOptions& options) {
  return HeatKernelRelaxFromDistribution(g, SingleNodeSeed(g, seed), options);
}

}  // namespace impreg
