#include "ncp/ncp.h"

#include <algorithm>
#include <cmath>

#include "core/metrics.h"
#include "core/trace.h"
#include "diffusion/seed.h"
#include "graph/bridges.h"
#include "flow/mqi.h"
#include "flow/multilevel.h"
#include "linalg/graph_operators.h"
#include "partition/push.h"
#include "partition/sweep.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/rng.h"

namespace impreg {

namespace {

// Shared epilogue of the family portfolios: fill the caller's
// diagnostics (if any) from how the grid ended, and stamp the trace
// with the same summary (iterations = clusters harvested).
void FinishPortfolio(bool budget_stop, SolverDiagnostics* diagnostics,
                     const char* what, SolverTrace* trace,
                     int clusters_found) {
  SolverDiagnostics local;
  SolverDiagnostics& diag = diagnostics != nullptr ? *diagnostics : local;
  diag = SolverDiagnostics{};
  if (budget_stop) {
    diag.status = SolveStatus::kBudgetExhausted;
    diag.detail = std::string("work budget exhausted; the ") + what +
                  " portfolio returned the clusters found so far";
  } else {
    diag.status = SolveStatus::kConverged;
  }
  diag.iterations = clusters_found;
  IMPREG_TRACE_FINISH(trace, diag);
}

// Uniform seed nodes with positive degree (rejection sampling, bounded).
std::vector<NodeId> SamplePositiveDegreeSeeds(const Graph& g, int count,
                                              Rng& rng) {
  std::vector<NodeId> seeds;
  for (int i = 0; i < count; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    for (int tries = 0; tries < 64 && g.Degree(u) <= 0.0; ++tries) {
      u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    }
    if (g.Degree(u) > 0.0) seeds.push_back(u);
  }
  return seeds;
}

}  // namespace

std::vector<NcpCluster> WalkFamilyClusters(const Graph& g,
                                           const WalkFamilyOptions& options,
                                           SolverDiagnostics* diagnostics) {
  IMPREG_CHECK(g.NumNodes() >= 2);
  Rng rng(options.rng_seed);
  SolverTrace* trace = IMPREG_TRACE_BEGIN("ncp.walk");
  const std::vector<NodeId> seeds =
      SamplePositiveDegreeSeeds(g, options.num_seeds, rng);

  std::vector<NcpCluster> clusters;
  if (seeds.empty()) {
    FinishPortfolio(false, diagnostics, "lazy-walk", trace, 0);
    return clusters;
  }

  // All seed columns walk together: each W_α step is one batched SpMM
  // over the adjacency instead of |seeds| separate matvecs.
  std::vector<Vector> cur;
  cur.reserve(seeds.size());
  for (NodeId seed : seeds) cur.push_back(SingleNodeSeed(g, seed));
  const LazyWalkOperator walk(g, options.alpha);

  std::vector<int> checkpoints = options.checkpoints;
  std::sort(checkpoints.begin(), checkpoints.end());

  std::vector<Vector> next;
  int step = 0;
  bool budget_stop = false;
  for (int t : checkpoints) {
    IMPREG_CHECK_MSG(t > 0, "walk checkpoints must be positive");
    // Checkpoint boundary: stopping here means the remaining (larger-t)
    // scales are simply missing from the portfolio.
    if (options.budget != nullptr) {
      IMPREG_FAULT_POINT("ncp/walk_budget", options.budget);
      if (options.budget->Exhausted()) {
        budget_stop = true;
        IMPREG_TRACE_EVENT(trace, t, kBudget,
                           static_cast<double>(options.budget->Spent()));
        break;
      }
    }
    for (; step < t; ++step) {
      if (options.budget != nullptr) {
        options.budget->Charge(g.NumArcs() *
                               static_cast<std::int64_t>(cur.size()));
      }
      walk.ApplyBatch(cur, next);
      cur.swap(next);
    }
    SweepOptions sweep_options;
    sweep_options.scaling = SweepScaling::kDegreeNormalized;
    for (const Vector& column : cur) {
      const SweepResult sweep = SweepCutOverSupport(g, column, sweep_options);
      if (sweep.set.empty() ||
          static_cast<NodeId>(sweep.set.size()) >= g.NumNodes()) {
        continue;
      }
      NcpCluster cluster;
      cluster.nodes = sweep.set;
      std::sort(cluster.nodes.begin(), cluster.nodes.end());
      cluster.stats = sweep.stats;
      cluster.method = "LazyWalk(t=" + std::to_string(t) + ")";
      IMPREG_TRACE_EVENT(trace, t, kConductance, cluster.stats.conductance);
      clusters.push_back(std::move(cluster));
    }
  }
  FinishPortfolio(budget_stop, diagnostics, "lazy-walk", trace,
                  static_cast<int>(clusters.size()));
  IMPREG_METRIC_COUNT("ncp.walk.clusters", clusters.size());
  return clusters;
}

std::vector<NcpCluster> SpectralFamilyClusters(
    const Graph& g, const SpectralFamilyOptions& options,
    SolverDiagnostics* diagnostics) {
  IMPREG_CHECK(g.NumNodes() >= 2);
  Rng rng(options.rng_seed);
  SolverTrace* trace = IMPREG_TRACE_BEGIN("ncp.spectral");
  std::vector<NcpCluster> clusters;

  // Seeds biased toward distinct regions: uniform over nodes with
  // positive degree.
  const std::vector<NodeId> seeds =
      SamplePositiveDegreeSeeds(g, options.num_seeds, rng);

  bool budget_stop = false;
  for (NodeId seed : seeds) {
    for (double alpha : options.alphas) {
      for (double eps : options.epsilons) {
        // Grid boundary: each (seed, α, ε) run is one chunk. The push
        // itself also charges and respects the same budget.
        if (options.budget != nullptr) {
          IMPREG_FAULT_POINT("ncp/spectral_budget", options.budget);
          if (options.budget->Exhausted()) {
            budget_stop = true;
            IMPREG_TRACE_EVENT(
                trace, static_cast<int>(clusters.size()), kBudget,
                static_cast<double>(options.budget->Spent()));
            break;
          }
        }
        PushOptions push;
        push.alpha = alpha;
        push.epsilon = eps;
        push.budget = options.budget;
        const PushResult diffusion =
            ApproximatePageRank(g, SingleNodeSeed(g, seed), push);
        SweepOptions sweep_options;
        sweep_options.scaling = SweepScaling::kDegreeNormalized;
        const SweepResult sweep =
            SweepCutOverSupport(g, diffusion.p, sweep_options);
        if (sweep.order.empty()) continue;
        // Harvest the best prefix of every (doubling) size scale, not
        // just the global winner — this is how NCP portfolios are run:
        // one diffusion yields candidate clusters at all its scales.
        const std::size_t support = sweep.order.size();
        for (std::size_t lo = 1; lo <= support; lo *= 2) {
          const std::size_t hi = std::min(lo * 2 - 1, support);
          std::size_t best = lo - 1;
          for (std::size_t k = lo - 1; k < hi; ++k) {
            if (sweep.conductance_profile[k] <
                sweep.conductance_profile[best]) {
              best = k;
            }
          }
          if (best + 1 >= static_cast<std::size_t>(g.NumNodes())) continue;
          NcpCluster cluster;
          cluster.nodes.assign(sweep.order.begin(),
                               sweep.order.begin() + best + 1);
          std::sort(cluster.nodes.begin(), cluster.nodes.end());
          cluster.stats = ComputeCutStats(g, cluster.nodes);
          cluster.method = "LocalSpectral(push)";
          IMPREG_TRACE_EVENT(trace, static_cast<int>(clusters.size()) + 1,
                             kConductance, cluster.stats.conductance);
          clusters.push_back(std::move(cluster));
        }
      }
      if (budget_stop) break;
    }
    if (budget_stop) break;
  }
  FinishPortfolio(budget_stop, diagnostics, "spectral", trace,
                  static_cast<int>(clusters.size()));
  IMPREG_METRIC_COUNT("ncp.spectral.clusters", clusters.size());
  return clusters;
}

std::vector<NcpCluster> FlowFamilyClusters(const Graph& g,
                                           const FlowFamilyOptions& options,
                                           SolverDiagnostics* diagnostics) {
  IMPREG_CHECK(g.NumNodes() >= 4);
  std::vector<double> fractions = options.fractions;
  if (fractions.empty()) {
    // Log-spaced size targets from ~16 nodes up to n/2.
    const double smallest =
        std::max(16.0 / static_cast<double>(g.NumNodes()), 1e-4);
    const int steps = 12;
    for (int i = 0; i <= steps; ++i) {
      const double frac =
          std::exp(std::log(smallest) +
                   (std::log(0.5) - std::log(smallest)) * i / steps);
      fractions.push_back(std::min(frac, 0.5));
    }
  }

  SolverTrace* trace = IMPREG_TRACE_BEGIN("ncp.flow");
  std::vector<NcpCluster> clusters;

  if (options.include_whiskers) {
    // Exact whiskers, and greedy volume-descending unions of them (the
    // "bag of whiskers"): k whiskers cut exactly k bridges, so unions
    // extend the low-conductance envelope to larger sizes.
    const std::vector<Whisker> whiskers = FindWhiskers(g);
    NcpCluster bag;
    for (std::size_t k = 0; k < whiskers.size(); ++k) {
      NcpCluster single;
      single.nodes = whiskers[k].nodes;
      single.stats = ComputeCutStats(g, single.nodes);
      single.method = "whisker";
      clusters.push_back(std::move(single));

      bag.nodes.insert(bag.nodes.end(), whiskers[k].nodes.begin(),
                       whiskers[k].nodes.end());
      if (k > 0) {
        NcpCluster united;
        united.nodes = bag.nodes;
        std::sort(united.nodes.begin(), united.nodes.end());
        united.stats = ComputeCutStats(g, united.nodes);
        united.method = "bag-of-whiskers";
        clusters.push_back(std::move(united));
      }
    }
  }

  Rng rng(options.rng_seed);
  bool budget_stop = false;
  for (double fraction : fractions) {
    // Fraction boundary: each bisection(+MQI) is one chunk; both also
    // respect the shared budget internally.
    if (options.budget != nullptr) {
      IMPREG_FAULT_POINT("ncp/flow_budget", options.budget);
      if (options.budget->Exhausted()) {
        budget_stop = true;
        IMPREG_TRACE_EVENT(trace, static_cast<int>(clusters.size()),
                           kBudget,
                           static_cast<double>(options.budget->Spent()));
        break;
      }
    }
    MultilevelOptions ml;
    ml.target_fraction = fraction;
    ml.seed = rng.Next();
    ml.budget = options.budget;
    const MultilevelResult bisect = MultilevelBisection(g, ml);
    if (!bisect.set.empty() &&
        static_cast<NodeId>(bisect.set.size()) < g.NumNodes()) {
      NcpCluster cluster;
      cluster.nodes = bisect.set;
      cluster.stats = bisect.stats;
      cluster.method = "Metis-like";
      IMPREG_TRACE_EVENT(trace, static_cast<int>(clusters.size()) + 1,
                         kConductance, cluster.stats.conductance);
      clusters.push_back(cluster);

      if (options.run_mqi) {
        const MqiResult improved = Mqi(g, bisect.set, 64, options.budget);
        NcpCluster sharpened;
        sharpened.nodes = improved.set;
        sharpened.stats = improved.stats;
        sharpened.method = "Metis+MQI";
        IMPREG_TRACE_EVENT(trace, static_cast<int>(clusters.size()) + 1,
                           kConductance, sharpened.stats.conductance);
        clusters.push_back(std::move(sharpened));
      }
    }
  }
  FinishPortfolio(budget_stop, diagnostics, "flow", trace,
                  static_cast<int>(clusters.size()));
  IMPREG_METRIC_COUNT("ncp.flow.clusters", clusters.size());
  return clusters;
}

std::vector<NcpPoint> BestPerSizeBin(const std::vector<NcpCluster>& clusters,
                                     int num_bins, std::int64_t max_size) {
  IMPREG_CHECK(num_bins >= 1);
  IMPREG_CHECK(max_size >= 1);
  const double log_max = std::log(static_cast<double>(max_size) + 1.0);
  std::vector<int> best(num_bins, -1);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const std::int64_t size = clusters[i].stats.size;
    if (size < 1 || size > max_size) continue;
    int bin = static_cast<int>(std::log(static_cast<double>(size)) /
                               log_max * num_bins);
    bin = std::clamp(bin, 0, num_bins - 1);
    if (best[bin] < 0 || clusters[i].stats.conductance <
                             clusters[best[bin]].stats.conductance) {
      best[bin] = static_cast<int>(i);
    }
  }
  std::vector<NcpPoint> profile;
  for (int bin = 0; bin < num_bins; ++bin) {
    if (best[bin] < 0) continue;
    NcpPoint point;
    point.size = clusters[best[bin]].stats.size;
    point.conductance = clusters[best[bin]].stats.conductance;
    point.cluster = clusters[best[bin]];
    profile.push_back(std::move(point));
  }
  return profile;
}

}  // namespace impreg
