#ifndef IMPREG_PARTITION_HKRELAX_H_
#define IMPREG_PARTITION_HKRELAX_H_

#include <cstdint>

#include "core/solve_status.h"
#include "core/work_budget.h"
#include "graph/graph.h"
#include "linalg/sparse_vector.h"
#include "linalg/vector_ops.h"
#include "partition/sweep.h"

/// \file
/// Local heat-kernel clustering — the paper's third strongly local
/// method (§3.3, Chung [15]): approximate the heat-kernel PageRank
/// ρ = e^{−t} Σ_k (t^k/k!) M^k s with truncation. We evaluate the
/// Taylor series term by term on sparse vectors, zeroing entries below
/// δ·d(u) after every walk application (so the support stays bounded),
/// and stop when the remaining Poisson tail is below `tail_tolerance`.
/// The dropped mass is tracked and reported: it is exactly the implicit
/// regularization the truncation performs.

namespace impreg {

/// Options for HeatKernelRelax.
struct HkRelaxOptions {
  /// Diffusion time t > 0.
  double t = 10.0;
  /// Per-step truncation threshold (entries < δ·d(u) are dropped).
  double delta = 1e-5;
  /// Taylor series is cut when the Poisson(t) tail falls below this.
  double tail_tolerance = 1e-6;
  /// Optional volume cap for the sweep (0 = none).
  double max_volume = 0.0;
  /// Optional cooperative budget (nullptr = unlimited), checked between
  /// Taylor terms; on exhaustion the series is truncated there
  /// (kBudgetExhausted) — the cut tail mass is reported in dropped_mass
  /// like any other truncation.
  WorkBudget* budget = nullptr;
};

/// Result of a heat-kernel relax run.
struct HkRelaxResult {
  /// Best sweep cut of the approximate heat-kernel vector.
  std::vector<NodeId> set;
  CutStats stats;
  /// The approximate ρ (nonnegative, mass ≤ 1 for a distribution seed);
  /// empty from HeatKernelRelaxSparse, which answers it sparse.
  Vector rho;
  /// Mass lost to truncation plus the discarded Poisson tail.
  double dropped_mass = 0.0;
  /// Taylor terms evaluated.
  int terms = 0;
  /// Σ over terms of support scanned — the work measure.
  std::int64_t work = 0;
  /// kConverged: tail below tolerance. kBudgetExhausted: series cut
  /// early by the budget. kNonFinite: a term went non-finite — poisoned
  /// entries were dropped and the finite prefix swept.
  SolverDiagnostics diagnostics;
};

/// Runs the truncated heat-kernel diffusion from a sparse seed, (node,
/// mass) entries in strictly ascending node order (entries with mass
/// ≤ 0 are ignored), and sweeps the result. Writes ρ's support to `rho`
/// in ascending node order and leaves `result.rho` empty. This is the
/// kernel: a solve costs O(vol(support)), whatever n is.
HkRelaxResult HeatKernelRelaxSparse(const Graph& g, const SparseVector& seed,
                                    const HkRelaxOptions& options,
                                    SparseVector& rho);

/// Same, from an arbitrary nonnegative dense seed distribution, with ρ
/// dense: it cuts the seed (SparseFromDense), runs the kernel and
/// scatters ρ, so it also costs O(n).
HkRelaxResult HeatKernelRelaxFromDistribution(
    const Graph& g, const Vector& seed, const HkRelaxOptions& options = {});

/// Same, from a single seed node.
HkRelaxResult HeatKernelRelax(const Graph& g, NodeId seed,
                              const HkRelaxOptions& options = {});

}  // namespace impreg

#endif  // IMPREG_PARTITION_HKRELAX_H_
