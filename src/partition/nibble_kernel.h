#ifndef IMPREG_PARTITION_NIBBLE_KERNEL_H_
#define IMPREG_PARTITION_NIBBLE_KERNEL_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "core/trace.h"
#include "linalg/sparse_vector.h"
#include "partition/nibble.h"
#include "partition/sweep_kernel.h"
#include "util/check.h"
#include "util/fault.h"

/// \file
/// The Nibble lazy-walk kernel as a template over the adjacency
/// provider; nibble.cc instantiates it over `Graph`, its one provider
/// today. It costs O(vol(support)) per step, whatever n is.
///
/// State: the walk is a (node, mass) list. Each step walks it in order
/// and sums every reached node's contributions into an accumulator at
/// the node's slot in the calling thread's NodeIndex
/// (linalg/sparse_vector.h); the truncated result lists the reached
/// nodes in the order the step first reached them, and the index is
/// cleared before the step's sweep takes it over. So every sum runs in
/// an order fixed by the seed and each row's head-sorted arcs alone:
/// any provider serving the same rows produces a bit-identical walk,
/// cut and diagnostics, at any thread count. The index is clear on
/// every exit.
///
/// Requirements on `G`: `NumNodes()`, `Degree(u)`, `OutDegree(u)`,
/// `Heads(u)`/`Weights(u)` spans, `TotalVolume()`, `IsValidNode(u)`.

namespace impreg {

/// Runs Nibble from `seed`, (node, mass) entries in ascending node
/// order; entries with mass ≤ 0 are ignored. Writes the final truncated
/// walk to `distribution` in ascending node order and leaves
/// `result.distribution` empty.
template <typename G>
NibbleResult NibbleOver(const G& g, const SparseVector& seed,
                        const NibbleOptions& options,
                        SparseVector& distribution) {
  IMPREG_CHECK(options.steps >= 1);
  IMPREG_CHECK(options.epsilon >= 0.0);
  IMPREG_CHECK(options.alpha >= 0.0 && options.alpha <= 1.0);

  NibbleResult result;
  result.stats.conductance = 1.0;
  distribution.clear();
  SolverTrace* trace = IMPREG_TRACE_BEGIN("nibble");
  if (!AllFinite(seed)) {
    result.diagnostics.status = SolveStatus::kNonFinite;
    result.diagnostics.detail =
        "seed has non-finite entries; returning no cut";
    IMPREG_TRACE_FINISH(trace, result.diagnostics);
    return result;
  }

  // The truncation keeps the support bounded (≈ mass/(ε·d_min)
  // entries), so per-step work is independent of n.
  SparseVector current;
  NodeId previous = -1;
  for (const SparseEntry& e : seed) {
    IMPREG_CHECK(g.IsValidNode(e.node) && e.node > previous);
    previous = e.node;
    if (e.value > 0.0) current.push_back(e);
  }
  IMPREG_CHECK_MSG(!current.empty(), "seed distribution is empty");

  NodeIndex& index = ThreadNodeIndex();
  IMPREG_CHECK(index.empty());
  index.Reserve(g.NumNodes());
  std::vector<double> next;  // Per slot: the step's accumulated mass.
  const auto add = [&](NodeId u, double mass) {
    std::int32_t s = index.Find(u);
    if (s == NodeIndex::kAbsent) {
      s = index.Insert(u);
      next.push_back(0.0);
    }
    next[s] += mass;
  };

  const double hold = options.alpha;
  bool budget_stop = false;
  bool poisoned = false;
  int steps_done = 0;
  for (int step = 1; step <= options.steps; ++step) {
    if (options.budget != nullptr) {
      IMPREG_FAULT_POINT("nibble/budget", options.budget);
      if (options.budget->Exhausted()) {
        budget_stop = true;
        IMPREG_TRACE_EVENT(trace, step, kBudget,
                           static_cast<double>(options.budget->Spent()));
        break;
      }
    }
    steps_done = step;
    // One lazy-walk step on the sparse vector.
    for (const auto& [u, mass] : current) {
      const double d = g.Degree(u);
      if (d <= 0.0) {
        add(u, mass);  // Isolated node holds its mass.
        continue;
      }
      add(u, hold * mass);
      const double spread = (1.0 - hold) * mass / d;
      const auto heads = g.Heads(u);
      const auto weights = g.Weights(u);
      for (std::size_t i = 0; i < heads.size(); ++i) {
        add(heads[i], spread * weights[i]);
      }
      result.work += g.OutDegree(u);
      if (options.budget != nullptr) options.budget->Charge(g.OutDegree(u));
      IMPREG_TRACE_EVENT(trace, step, kArcWork,
                         static_cast<double>(g.OutDegree(u)));
    }
    // Truncate: q(u) < ε·d(u) → 0 (the implicit regularization step).
    current.clear();
    for (std::size_t s = 0; s < next.size(); ++s) {
      const NodeId u = index.Nodes()[s];
      double mass = next[s];
      IMPREG_FAULT_POINT("nibble/mass", mass);
      const double d = g.Degree(u);
      if (!std::isfinite(mass)) {
        // Drop poisoned mass before it can enter the distribution (every
        // `current` insert is gated on this check).
        poisoned = true;
      } else if (d > 0.0 && mass < options.epsilon * d) {
        result.truncated_mass += mass;
      } else if (mass > 0.0) {
        current.push_back({u, mass});
      }
    }
    index.Clear();
    next.clear();
    if (poisoned) {
      IMPREG_TRACE_EVENT(trace, step, kFault, result.truncated_mass);
      break;
    }
    if (current.empty()) break;  // Everything truncated away.

    // Sweep the current support only.
    SweepOptions sweep;
    sweep.scaling = SweepScaling::kDegreeNormalized;
    sweep.max_volume = options.max_volume;
    const SweepResult swept = RunSweepOver(g, current, sweep, index);
    if (!swept.set.empty()) {
      IMPREG_TRACE_EVENT(trace, step, kConductance, swept.stats.conductance);
    }
    if (!swept.set.empty() &&
        swept.stats.conductance < result.stats.conductance) {
      result.set = swept.set;
      result.stats = swept.stats;
      result.best_step = step;
    }
  }

  distribution = std::move(current);
  SortByNode(distribution);
  SolverDiagnostics& diag = result.diagnostics;
  if (poisoned) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail = "walk step went non-finite; poisoned mass dropped, best "
                  "cut up to that step returned";
  } else if (budget_stop) {
    diag.status = SolveStatus::kBudgetExhausted;
    diag.detail = "work budget exhausted; best cut so far returned";
  } else {
    diag.status = SolveStatus::kConverged;
  }
  diag.iterations = steps_done;
  IMPREG_TRACE_FINISH(trace, diag);
  IMPREG_METRIC_COUNT("solver.nibble.solves", 1);
  IMPREG_METRIC_COUNT("solver.nibble.steps", steps_done);
  IMPREG_METRIC_COUNT("solver.nibble.arc_work", result.work);
  return result;
}

}  // namespace impreg

#endif  // IMPREG_PARTITION_NIBBLE_KERNEL_H_
