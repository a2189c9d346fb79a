#include "partition/push.h"

#include <cmath>
#include <deque>

#include "core/metrics.h"
#include "core/trace.h"
#include "diffusion/seed.h"
#include "util/check.h"
#include "util/fault.h"

namespace impreg {

double StandardTeleportFromLazy(double alpha) {
  IMPREG_CHECK(alpha > 0.0 && alpha < 1.0);
  return 2.0 * alpha / (1.0 + alpha);
}

double LazyTeleportFromStandard(double gamma) {
  IMPREG_CHECK(gamma > 0.0 && gamma < 1.0);
  return gamma / (2.0 - gamma);
}

PushResult ApproximatePageRank(const Graph& g, const Vector& seed,
                               const PushOptions& options) {
  IMPREG_CHECK(seed.size() == static_cast<std::size_t>(g.NumNodes()));
  IMPREG_CHECK(options.alpha > 0.0 && options.alpha < 1.0);
  IMPREG_CHECK(options.epsilon > 0.0);

  PushResult result;
  result.p.assign(g.NumNodes(), 0.0);
  SolverTrace* trace = IMPREG_TRACE_BEGIN("push");

  // Negative seed mass is a programming error (abort; NaN passes the
  // check because NaN comparisons are false); non-finite mass is a
  // data-poisoning event, rejected gracefully.
  for (double v : seed) {
    IMPREG_CHECK_MSG(!(v < 0.0), "seed must be nonnegative");
  }
  if (!AllFinite(seed)) {
    result.residual.assign(g.NumNodes(), 0.0);
    result.diagnostics.status = SolveStatus::kNonFinite;
    result.diagnostics.detail =
        "seed has non-finite entries; returning p = r = 0";
    IMPREG_TRACE_FINISH(trace, result.diagnostics);
    return result;
  }
  result.residual = seed;

  const double alpha = options.alpha;
  const double eps = options.epsilon;
  double seed_mass = 0.0;
  for (double v : seed) seed_mass += v;
  // Theoretical push bound: total residual mass shrinks by at least
  // α·ε·d(u) per push of node u, and each push moves ≥ ε·d(u) ≥ ε of
  // residual onto p scaled by α ⇒ at most mass/(ε·α) pushes for
  // unit-degree thresholds. Add slack for weighted degrees < 1.
  const std::int64_t push_cap =
      options.max_pushes > 0
          ? options.max_pushes
          : static_cast<std::int64_t>(64.0 + 4.0 * seed_mass / (eps * alpha));

  std::deque<NodeId> queue;
  std::vector<char> queued(g.NumNodes(), 0);
  double residual_mass = 0.0;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    residual_mass += result.residual[u];
    if (g.Degree(u) > 0.0 && result.residual[u] >= eps * g.Degree(u)) {
      queue.push_back(u);
      queued[u] = 1;
    }
  }

  WorkBudget* budget = options.budget;
  bool budget_stop = false;
  bool poisoned = false;
  while (!queue.empty() && result.pushes < push_cap) {
    // Budget check at chunk boundaries (every 256 pushes), so the cut
    // point is deterministic in the arc counter, not the clock.
    if (budget != nullptr && (result.pushes & 255) == 0) {
      IMPREG_FAULT_POINT("push/budget", budget);
      if (budget->Exhausted()) {
        budget_stop = true;
        IMPREG_TRACE_EVENT(trace, static_cast<int>(result.pushes), kBudget,
                           static_cast<double>(budget->Spent()));
        break;
      }
    }
    const NodeId u = queue.front();
    queue.pop_front();
    queued[u] = 0;
    const double d = g.Degree(u);
    double r = result.residual[u];
    IMPREG_FAULT_POINT("push/r", r);
    if (!std::isfinite(r)) {
      // Drop the poisoned mass instead of pushing it into p; p and the
      // other residual entries are still finite by construction.
      result.residual[u] = 0.0;
      poisoned = true;
      IMPREG_TRACE_EVENT(trace, static_cast<int>(result.pushes), kFault, r);
      break;
    }
    if (d <= 0.0 || r < eps * d) continue;

    // push(u): p gains α·r; half of the rest stays (lazy self-loop),
    // half spreads to the neighbors proportionally to edge weight.
    result.p[u] += alpha * r;
    const double stay = (1.0 - alpha) * r / 2.0;
    result.residual[u] = stay;
    const double spread = stay;  // Same amount goes to the neighbors.
    const auto heads = g.Heads(u);
    const auto weights = g.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      const NodeId v = heads[i];
      if (v == u) {
        // Self-loop: the walk returns immediately.
        result.residual[u] += spread * weights[i] / d;
        continue;
      }
      result.residual[v] += spread * weights[i] / d;
      if (!queued[v] && g.Degree(v) > 0.0 &&
          result.residual[v] >= eps * g.Degree(v)) {
        queue.push_back(v);
        queued[v] = 1;
      }
    }
    if (result.residual[u] >= eps * d && !queued[u]) {
      queue.push_back(u);
      queued[u] = 1;
    }
    ++result.pushes;
    result.work += g.OutDegree(u);
    if (budget != nullptr) budget->Charge(g.OutDegree(u));
    // One arc-work event per push, mirroring result.work (and the budget
    // Charge above) exactly: SumValues(kArcWork) == result.work.
    IMPREG_TRACE_EVENT(trace, static_cast<int>(result.pushes), kArcWork,
                       static_cast<double>(g.OutDegree(u)));
    if (options.on_push) {
      residual_mass -= options.alpha * r;  // Exactly the mass moved to p.
      options.on_push(result.pushes, u, residual_mass);
      IMPREG_TRACE_EVENT(trace, static_cast<int>(result.pushes), kResidual,
                         residual_mass);
    }
  }
  const bool drained = queue.empty() && !budget_stop;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (result.p[u] > 0.0) ++result.support;
  }
  SolverDiagnostics& diag = result.diagnostics;
  if (poisoned) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail = "residual went non-finite; poisoned mass dropped and "
                  "the push stopped (p stays a valid partial PPR)";
  } else if (drained) {
    diag.status = SolveStatus::kConverged;
  } else {
    // Both the push cap and a cooperative budget are deliberate early
    // stops: (p, r) is still a valid decomposition, just with residuals
    // above ε·d somewhere.
    diag.status = SolveStatus::kBudgetExhausted;
    diag.detail = budget_stop ? "work budget exhausted mid-push"
                              : "push cap hit before residuals drained";
  }
  diag.iterations = static_cast<int>(result.pushes);
  IMPREG_TRACE_FINISH(trace, diag);
  IMPREG_METRIC_COUNT("solver.push.solves", 1);
  IMPREG_METRIC_COUNT("solver.push.pushes", result.pushes);
  IMPREG_METRIC_COUNT("solver.push.arc_work", result.work);
  return result;
}

LocalClusterResult PushLocalCluster(const Graph& g, NodeId seed,
                                    const PushOptions& options,
                                    const SweepOptions& sweep) {
  LocalClusterResult result;
  result.push = ApproximatePageRank(g, SingleNodeSeed(g, seed), options);
  SweepOptions sweep_options = sweep;
  sweep_options.scaling = SweepScaling::kDegreeNormalized;
  SweepResult swept = SweepCutOverSupport(g, result.push.p, sweep_options);
  result.set = std::move(swept.set);
  result.stats = swept.stats;
  return result;
}

}  // namespace impreg
