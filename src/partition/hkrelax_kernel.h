#ifndef IMPREG_PARTITION_HKRELAX_KERNEL_H_
#define IMPREG_PARTITION_HKRELAX_KERNEL_H_

#include <cmath>
#include <unordered_map>

#include "core/metrics.h"
#include "core/trace.h"
#include "linalg/vector_ops.h"
#include "partition/hkrelax.h"
#include "partition/sweep_kernel.h"
#include "util/check.h"
#include "util/fault.h"

/// \file
/// The heat-kernel relax kernel as a template over the adjacency
/// provider. hkrelax.cc instantiates it over `Graph`, its one provider
/// today; the pinned `DynamicGraph` view is the planned second one
/// (ROADMAP.md), which would let the serving tier skip the per-epoch
/// CSR freeze. The iteration order of the sparse term map is a function of the
/// insertion sequence alone, so any provider serving the same bits
/// produces a bit-identical ρ, cut, and diagnostics.
///
/// Requirements on `G`: `NumNodes()`, `Degree(u)`, `OutDegree(u)`,
/// `Heads(u)`/`Weights(u)` spans, `TotalVolume()`, `IsValidNode(u)`.

namespace impreg {

template <typename G>
HkRelaxResult HeatKernelRelaxFromDistributionOver(
    const G& g, const Vector& seed, const HkRelaxOptions& options) {
  IMPREG_CHECK(seed.size() == static_cast<std::size_t>(g.NumNodes()));
  IMPREG_CHECK(options.t > 0.0);
  IMPREG_CHECK(options.delta >= 0.0);
  IMPREG_CHECK(options.tail_tolerance > 0.0);

  HkRelaxResult result;
  result.stats.conductance = 1.0;
  result.rho.assign(g.NumNodes(), 0.0);
  SolverTrace* trace = IMPREG_TRACE_BEGIN("hkrelax");
  if (!AllFinite(seed)) {
    result.diagnostics.status = SolveStatus::kNonFinite;
    result.diagnostics.detail =
        "seed has non-finite entries; returning ρ = 0 and no cut";
    IMPREG_TRACE_FINISH(trace, result.diagnostics);
    return result;
  }

  const double t = options.t;
  // Sparse current term (t^k/k!)·(truncated M)^k s.
  std::unordered_map<NodeId, double> term;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (seed[u] > 0.0) term.emplace(u, seed[u]);
  }
  IMPREG_CHECK_MSG(!term.empty(), "seed distribution is empty");

  // Accumulate k = 0 contribution.
  for (const auto& [u, mass] : term) result.rho[u] += mass;

  double poisson = 1.0;            // t^k / k!.
  double tail = std::exp(t) - 1.0;  // Σ_{j>k} t^j/j!.
  int k = 0;
  bool budget_stop = false;
  bool poisoned = false;
  while (tail * std::exp(-t) > options.tail_tolerance && !term.empty()) {
    if (options.budget != nullptr) {
      IMPREG_FAULT_POINT("hkrelax/budget", options.budget);
      if (options.budget->Exhausted()) {
        budget_stop = true;
        IMPREG_TRACE_EVENT(trace, k, kBudget,
                           static_cast<double>(options.budget->Spent()));
        break;
      }
    }
    ++k;
    std::unordered_map<NodeId, double> next;
    next.reserve(term.size() * 2);
    for (const auto& [u, mass] : term) {
      const double d = g.Degree(u);
      if (d <= 0.0) continue;  // M annihilates isolated mass.
      const double spread = mass / d;
      const auto heads = g.Heads(u);
      const auto weights = g.Weights(u);
      for (std::size_t i = 0; i < heads.size(); ++i) {
        next[heads[i]] += spread * weights[i];
      }
      result.work += g.OutDegree(u);
      if (options.budget != nullptr) options.budget->Charge(g.OutDegree(u));
      IMPREG_TRACE_EVENT(trace, k, kArcWork,
                         static_cast<double>(g.OutDegree(u)));
    }
    poisson *= t / static_cast<double>(k);
    tail -= poisson;
    // Scale into the k-th Taylor term and truncate small entries. The
    // threshold scales with the term's Poisson weight t^k/k! so the
    // truncation is uniform in *distribution* units across terms.
    term.clear();
    double scale = t / static_cast<double>(k);
    IMPREG_FAULT_POINT("hkrelax/scale", scale);
    for (const auto& [u, mass] : next) {
      const double value = mass * scale;
      const double d = g.Degree(u);
      if (!std::isfinite(value)) {
        // Drop poisoned mass before it can reach ρ (every ρ update below
        // is gated on this check, so ρ stays finite by construction).
        poisoned = true;
      } else if (d > 0.0 && value < options.delta * d * poisson) {
        result.dropped_mass += value;  // In (t^k/k!)-weighted units.
      } else if (value > 0.0) {
        term.emplace(u, value);
        result.rho[u] += value;
      }
    }
    result.terms = k;
    // Remaining Poisson tail mass: the truncation bound for the series.
    IMPREG_TRACE_EVENT(trace, k, kResidual, tail * std::exp(-t));
    if (poisoned) {
      IMPREG_TRACE_EVENT(trace, k, kFault, result.dropped_mass);
      break;
    }
  }
  // Everything is still in Σ t^k/k! units; apply the e^{−t} prefactor.
  // The discarded Poisson tail also counts as dropped mass.
  for (double& v : result.rho) v *= std::exp(-t);
  result.dropped_mass = result.dropped_mass * std::exp(-t) +
                        std::max(tail, 0.0) * std::exp(-t);

  SolverDiagnostics& diag = result.diagnostics;
  if (poisoned) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail = "a Taylor term went non-finite; poisoned entries were "
                  "dropped and the finite prefix of the series swept";
  } else if (budget_stop) {
    diag.status = SolveStatus::kBudgetExhausted;
    diag.detail = "work budget exhausted; series truncated early (extra "
                  "tail mass counted in dropped_mass)";
  } else {
    diag.status = SolveStatus::kConverged;
  }
  diag.iterations = result.terms;

  SweepOptions sweep;
  sweep.scaling = SweepScaling::kDegreeNormalized;
  sweep.max_volume = options.max_volume;
  const SweepResult swept = SweepCutOverSupportOver(g, result.rho, sweep, 0.0);
  result.set = swept.set;
  result.stats = swept.stats;
  IMPREG_TRACE_EVENT(trace, result.terms, kConductance,
                     result.stats.conductance);
  IMPREG_TRACE_FINISH(trace, diag);
  IMPREG_METRIC_COUNT("solver.hkrelax.solves", 1);
  IMPREG_METRIC_COUNT("solver.hkrelax.terms", result.terms);
  IMPREG_METRIC_COUNT("solver.hkrelax.arc_work", result.work);
  return result;
}

}  // namespace impreg

#endif  // IMPREG_PARTITION_HKRELAX_KERNEL_H_
