#ifndef IMPREG_PARTITION_HKRELAX_KERNEL_H_
#define IMPREG_PARTITION_HKRELAX_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "core/trace.h"
#include "linalg/sparse_vector.h"
#include "partition/hkrelax.h"
#include "partition/sweep_kernel.h"
#include "util/check.h"
#include "util/fault.h"

/// \file
/// The heat-kernel relax kernel as a template over the adjacency
/// provider; hkrelax.cc instantiates it over `Graph`, its one provider
/// today. It costs O(vol(support)) per solve, whatever n is.
///
/// State: the current Taylor term is a (node, mass) list, and every
/// node the walk reaches gets a slot in the calling thread's NodeIndex
/// (linalg/sparse_vector.h), in discovery order, holding its running ρ
/// and its accumulator for the next term. Each step walks the term list
/// in order and sums each reached node's contributions into its
/// accumulator; the next term lists the reached nodes in the order this
/// step first reached them. So every sum runs in an order fixed by the
/// seed and each row's head-sorted arcs alone: any provider serving the
/// same rows produces a bit-identical ρ, cut and diagnostics, at any
/// thread count. The index is cleared on every exit.
///
/// Requirements on `G`: `NumNodes()`, `Degree(u)`, `OutDegree(u)`,
/// `Heads(u)`/`Weights(u)` spans, `TotalVolume()`, `IsValidNode(u)`.

namespace impreg {

/// Runs hk-relax from `seed`, (node, mass) entries in ascending node
/// order; entries with mass ≤ 0 are ignored. Writes ρ's support to
/// `rho` in ascending node order and leaves `result.rho` empty.
template <typename G>
HkRelaxResult HeatKernelRelaxOver(const G& g, const SparseVector& seed,
                                  const HkRelaxOptions& options,
                                  SparseVector& rho) {
  IMPREG_CHECK(options.t > 0.0);
  IMPREG_CHECK(options.delta >= 0.0);
  IMPREG_CHECK(options.tail_tolerance > 0.0);

  HkRelaxResult result;
  result.stats.conductance = 1.0;
  rho.clear();
  SolverTrace* trace = IMPREG_TRACE_BEGIN("hkrelax");
  if (!AllFinite(seed)) {
    result.diagnostics.status = SolveStatus::kNonFinite;
    result.diagnostics.detail =
        "seed has non-finite entries; returning ρ = 0 and no cut";
    IMPREG_TRACE_FINISH(trace, result.diagnostics);
    return result;
  }

  NodeIndex& index = ThreadNodeIndex();
  IMPREG_CHECK(index.empty());
  index.Reserve(g.NumNodes());
  // Per slot: ρ so far and the next term's accumulator, both in
  // Σ t^k/k! units, and whether this step has reached the slot yet.
  std::vector<double> sum;
  std::vector<double> next;
  std::vector<char> reached_now;
  std::vector<std::int32_t> reached;  // This step's slots, first reach first.
  const auto slot_of = [&](NodeId u) {
    std::int32_t s = index.Find(u);
    if (s == NodeIndex::kAbsent) {
      s = index.Insert(u);
      sum.push_back(0.0);
      next.push_back(0.0);
      reached_now.push_back(0);
    }
    return s;
  };

  // The current term (t^k/k!)·(truncated M)^k s; k = 0 is the seed.
  SparseVector term;
  NodeId previous = -1;
  for (const SparseEntry& e : seed) {
    IMPREG_CHECK(g.IsValidNode(e.node) && e.node > previous);
    previous = e.node;
    if (e.value <= 0.0) continue;
    sum[slot_of(e.node)] = e.value;
    term.push_back(e);
  }
  IMPREG_CHECK_MSG(!term.empty(), "seed distribution is empty");

  const double t = options.t;
  const double decay = std::exp(-t);
  double poisson = 1.0;            // t^k / k!.
  double tail = std::exp(t) - 1.0;  // Σ_{j>k} t^j/j!.
  int k = 0;
  bool budget_stop = false;
  bool poisoned = false;
  while (tail * decay > options.tail_tolerance && !term.empty()) {
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
    for (const auto& [u, mass] : term) {
      const double d = g.Degree(u);
      if (d <= 0.0) continue;  // M annihilates isolated mass.
      const double spread = mass / d;
      const auto heads = g.Heads(u);
      const auto weights = g.Weights(u);
      for (std::size_t i = 0; i < heads.size(); ++i) {
        const std::int32_t s = slot_of(heads[i]);
        if (!reached_now[s]) {
          reached_now[s] = 1;
          reached.push_back(s);
        }
        next[s] += spread * weights[i];
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
    for (const std::int32_t s : reached) {
      const NodeId u = index.Nodes()[s];
      const double value = next[s] * scale;
      next[s] = 0.0;
      reached_now[s] = 0;
      const double d = g.Degree(u);
      if (!std::isfinite(value)) {
        // Drop poisoned mass before it can reach ρ (every ρ update below
        // is gated on this check, so ρ stays finite by construction).
        poisoned = true;
      } else if (d > 0.0 && value < options.delta * d * poisson) {
        result.dropped_mass += value;  // In (t^k/k!)-weighted units.
      } else if (value > 0.0) {
        term.push_back({u, value});
        sum[s] += value;
      }
    }
    reached.clear();
    result.terms = k;
    // Remaining Poisson tail mass: the truncation bound for the series.
    IMPREG_TRACE_EVENT(trace, k, kResidual, tail * decay);
    if (poisoned) {
      IMPREG_TRACE_EVENT(trace, k, kFault, result.dropped_mass);
      break;
    }
  }
  // Everything is still in Σ t^k/k! units; apply the e^{−t} prefactor.
  // The discarded Poisson tail also counts as dropped mass.
  for (std::size_t s = 0; s < sum.size(); ++s) {
    const double value = sum[s] * decay;
    if (value > 0.0) rho.push_back({index.Nodes()[s], value});
  }
  index.Clear();
  SortByNode(rho);
  result.dropped_mass =
      result.dropped_mass * decay + std::max(tail, 0.0) * decay;

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
  const SweepResult swept = RunSweepOver(g, rho, sweep, index);
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
