#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>

#include "streaming/incremental_ppr.h"

namespace perfbench {

using impreg::DynamicGraph;
using impreg::Graph;
using impreg::NodeId;
using impreg::Query;
using impreg::QueryMethod;
using impreg::QuerySource;
using impreg::SolveStatus;
using impreg::Vector;

namespace {

constexpr std::size_t kMaxDetails = 8;

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Vector DenseScores(const Sample& sample) {
  Vector dense(sample.num_scores, 0.0);
  for (const auto& [u, value] : sample.scores) dense[u] = value;
  return dense;
}

/// Empty when the served scores equal `expected` bit for bit.
std::string CompareBits(const Sample& sample, const Vector& expected) {
  if (sample.num_scores != static_cast<std::int64_t>(expected.size())) {
    return "score length " + std::to_string(sample.num_scores) + " vs " +
           std::to_string(expected.size());
  }
  const Vector served = DenseScores(sample);
  for (std::size_t u = 0; u < expected.size(); ++u) {
    if (!BitsEqual(served[u], expected[u])) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "score[%zu] %.17g vs %.17g", u,
                    served[u], expected[u]);
      return buf;
    }
  }
  return "";
}

double L1(const Vector& v) {
  double sum = 0.0;
  for (double x : v) sum += std::abs(x);
  return sum;
}

/// Checks a push answer that warm-restarted from cached state: its
/// invariant residual on this graph must satisfy the push certificate,
/// and it must sit within both residuals of the cold answer.
std::string CheckWarmPush(const DynamicGraph& g, const Sample& sample,
                          const Vector& seed, const Vector& p_cold,
                          const Vector& r_cold) {
  const Vector p_warm = DenseScores(sample);
  const Vector r_warm =
      impreg::InvariantResidual(g, seed, p_warm, sample.query.gamma);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const double d = g.Degree(u);
    const double threshold =
        d > 0.0 ? sample.query.epsilon * d : sample.query.epsilon;
    // Slack for the recomputed residual's rounding only.
    if (std::abs(r_warm[u]) > threshold * (1.0 + 1e-6) + 1e-14) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "warm certificate broken at %d: |r| %.6g >= %.6g", u,
                    std::abs(r_warm[u]), threshold);
      return buf;
    }
  }
  double distance = 0.0;
  for (std::size_t u = 0; u < p_warm.size(); ++u) {
    distance += std::abs(p_warm[u] - p_cold[u]);
  }
  const double bound = L1(r_warm) + L1(r_cold);
  if (!(distance <= bound * (1.0 + 1e-9) + 1e-12)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "warm answer %.6g from cold, bound %.6g",
                  distance, bound);
    return buf;
  }
  return "";
}

/// Empty when `sample` is a correct answer on `g` (`frozen` is its CSR
/// form, built by the caller for the non-push methods).
std::string CheckOne(const DynamicGraph& g, const Graph* frozen,
                     const Sample& sample) {
  if (!impreg::StatusIsUsable(sample.status)) return "unusable status";
  const Query& q = sample.query;
  const Vector seed = SeedVector(q, g.NumNodes());
  switch (q.method) {
    case QueryMethod::kPprPush: {
      Vector p, r;
      impreg::SolverDiagnostics diag;
      ColdPush(g, q, seed, p, r, diag);
      if (sample.origin == QuerySource::kWarm) {
        return CheckWarmPush(g, sample, seed, p, r);
      }
      if (sample.status != diag.status) return "status differs";
      return CompareBits(sample, p);
    }
    case QueryMethod::kHeatKernel: {
      const impreg::HkRelaxResult hk = BareHeatKernel(*frozen, q, seed);
      if (sample.status != hk.diagnostics.status) return "status differs";
      if (sample.set != hk.set) return "community set differs";
      if (!BitsEqual(sample.conductance, hk.stats.conductance)) {
        return "conductance differs";
      }
      return CompareBits(sample, hk.rho);
    }
    case QueryMethod::kNibble: {
      const impreg::NibbleResult nib = BareNibble(*frozen, q, seed);
      if (sample.status != nib.diagnostics.status) return "status differs";
      if (sample.set != nib.set) return "community set differs";
      if (!BitsEqual(sample.conductance, nib.stats.conductance)) {
        return "conductance differs";
      }
      return CompareBits(sample, nib.distribution);
    }
    case QueryMethod::kPprDense: {
      const impreg::PageRankResult pr = BareDensePpr(*frozen, q, seed);
      if (sample.status != pr.diagnostics.status) return "status differs";
      return CompareBits(sample, pr.scores);
    }
  }
  return "unknown method";
}

}  // namespace

Vector SeedVector(const Query& query, NodeId n) {
  std::vector<NodeId> seeds = query.seeds;
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  Vector seed(n, 0.0);
  const double mass = 1.0 / static_cast<double>(seeds.size());
  for (NodeId s : seeds) seed[s] = mass;
  return seed;
}

std::int64_t ColdPush(const DynamicGraph& g, const Query& query,
                      const Vector& seed, Vector& p, Vector& r,
                      impreg::SolverDiagnostics& diag) {
  const NodeId n = g.NumNodes();
  p.assign(n, 0.0);
  r = seed;
  std::deque<NodeId> queue;
  std::vector<char> queued(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    const double d = g.Degree(u);
    const double threshold = d > 0.0 ? query.epsilon * d : query.epsilon;
    if (std::abs(r[u]) >= threshold) {
      queue.push_back(u);
      queued[u] = 1;
    }
  }
  impreg::IncrementalPprOptions opts;
  opts.gamma = query.gamma;
  opts.epsilon = query.epsilon;
  return impreg::StandardFormPush(g, opts, p, r, queue, queued, diag);
}

impreg::HkRelaxResult BareHeatKernel(const Graph& g, const Query& query,
                                     const Vector& seed) {
  impreg::HkRelaxOptions opts;
  opts.t = query.t;
  opts.delta = query.delta;
  opts.tail_tolerance = query.epsilon;
  return impreg::HeatKernelRelaxFromDistribution(g, seed, opts);
}

impreg::NibbleResult BareNibble(const Graph& g, const Query& query,
                                const Vector& seed) {
  impreg::NibbleOptions opts;
  opts.steps = query.steps;
  opts.epsilon = query.epsilon;
  return impreg::NibbleFromDistribution(g, seed, opts);
}

impreg::PageRankResult BareDensePpr(const Graph& g, const Query& query,
                                    const Vector& seed) {
  impreg::PageRankOptions opts;
  opts.gamma = query.gamma;
  opts.tolerance = query.tolerance;
  opts.max_iterations = query.max_iterations;
  return impreg::PersonalizedPageRank(g, seed, opts);
}

Sample CaptureSample(const Query& query, const impreg::QueryResponse& response,
                     std::int64_t epoch, QuerySource origin) {
  Sample sample;
  sample.epoch = epoch;
  sample.query = query;
  sample.source = response.source;
  sample.origin = origin;
  sample.status = response.status;
  sample.num_scores = static_cast<std::int64_t>(response.scores.size());
  for (std::size_t u = 0; u < response.scores.size(); ++u) {
    if (!BitsEqual(response.scores[u], 0.0)) {
      sample.scores.emplace_back(static_cast<NodeId>(u), response.scores[u]);
    }
  }
  sample.set = response.set;
  sample.conductance = response.conductance;
  return sample;
}

OracleReport CheckSamples(const Graph& base,
                          const std::vector<EditRecord>& edits,
                          std::vector<Sample> samples) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.epoch < b.epoch;
                   });
  OracleReport report;
  DynamicGraph graph = DynamicGraph::FromGraph(base);
  std::int64_t epoch = 0;
  std::unique_ptr<Graph> frozen;
  std::int64_t frozen_epoch = -1;
  for (const Sample& sample : samples) {
    std::string error;
    if (sample.epoch > static_cast<std::int64_t>(edits.size())) {
      error = "epoch beyond the edit log";
    } else {
      for (; epoch < sample.epoch; ++epoch) {
        const EditRecord& e = edits[epoch];
        if (e.remove) {
          graph.RemoveEdge(e.u, e.v);
        } else {
          graph.AddEdge(e.u, e.v);
        }
      }
      if (sample.query.method != QueryMethod::kPprPush &&
          frozen_epoch != epoch) {
        frozen = std::make_unique<Graph>(graph.ToGraph());
        frozen_epoch = epoch;
      }
      error = CheckOne(graph, frozen.get(), sample);
    }
    ++report.checked;
    if (error.empty()) continue;
    ++report.mismatches;
    if (report.details.size() < kMaxDetails) {
      report.details.push_back(
          std::string(impreg::QueryMethodName(sample.query.method)) + " " +
          impreg::QuerySourceName(sample.source) + " answer at epoch " +
          std::to_string(sample.epoch) + ": " + error);
    }
  }
  return report;
}

}  // namespace perfbench
