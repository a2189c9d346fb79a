#ifndef IMPREG_PERFBENCH_ORACLE_H_
#define IMPREG_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "diffusion/pagerank.h"
#include "graph/graph.h"
#include "partition/hkrelax.h"
#include "partition/nibble.h"
#include "service/query_engine.h"
#include "streaming/dynamic_graph.h"

/// \file
/// The benchmark's answer oracle. A served answer is re-solved with the
/// bare solver (StandardFormPush, HeatKernelRelaxFromDistribution,
/// NibbleFromDistribution, PersonalizedPageRank) on a graph rebuilt from
/// the base graph plus the acknowledged edit log. Mahoney–Orecchia
/// (arXiv:1010.0703) is why this is exact: an early-stopped diffusion is
/// a well-defined regularized optimum, so a cold answer, and a cached
/// copy of one, must equal the bare solve bit for bit. A push answer
/// that warm-restarted from cached state is a different point of the
/// same certificate: ‖p_warm − p_cold‖₁ ≤ ‖r_warm‖₁ + ‖r_cold‖₁, each
/// residual below ε·d(u) per node, so the pair is within 2·ε·vol.

namespace perfbench {

/// The engine's seed distribution: uniform over the distinct seeds.
impreg::Vector SeedVector(const impreg::Query& query, impreg::NodeId n);

/// The bare solvers, called with the parameters the engine derives from
/// `query`. A cold push starts as the engine starts one: p = 0, r = seed,
/// every node at or over threshold queued in ascending order; it returns
/// the pushes done.
std::int64_t ColdPush(const impreg::DynamicGraph& g, const impreg::Query& query,
                      const impreg::Vector& seed, impreg::Vector& p,
                      impreg::Vector& r, impreg::SolverDiagnostics& diag);
impreg::HkRelaxResult BareHeatKernel(const impreg::Graph& g,
                                     const impreg::Query& query,
                                     const impreg::Vector& seed);
impreg::NibbleResult BareNibble(const impreg::Graph& g,
                                const impreg::Query& query,
                                const impreg::Vector& seed);
impreg::PageRankResult BareDensePpr(const impreg::Graph& g,
                                    const impreg::Query& query,
                                    const impreg::Vector& seed);

/// One acknowledged edit, in the order the engine applied it. The k-th
/// record moved the engine from epoch k to k + 1.
struct EditRecord {
  bool remove = false;
  impreg::NodeId u = 0;
  impreg::NodeId v = 0;
};

/// A served answer captured for the oracle.
struct Sample {
  std::int64_t epoch = 0;  ///< The pinned epoch it was answered at.
  impreg::Query query;
  impreg::QuerySource source = impreg::QuerySource::kCold;
  /// The computation that produced the served bits: `source`, or for a
  /// cache hit the source of the last fresh answer under the same key.
  impreg::QuerySource origin = impreg::QuerySource::kCold;
  impreg::SolveStatus status = impreg::SolveStatus::kConverged;
  /// Length of the served score vector.
  std::int64_t num_scores = 0;
  /// Every score whose bit pattern is not +0.0, ascending by node.
  std::vector<std::pair<impreg::NodeId, double>> scores;
  std::vector<impreg::NodeId> set;
  double conductance = 0.0;
};

/// Captures `response` as served at `epoch`.
Sample CaptureSample(const impreg::Query& query,
                     const impreg::QueryResponse& response, std::int64_t epoch,
                     impreg::QuerySource origin);

struct OracleReport {
  int checked = 0;
  int mismatches = 0;
  /// One line per mismatch (the first few).
  std::vector<std::string> details;
};

/// Re-solves every sample on `base` + `edits[0, sample.epoch)`.
OracleReport CheckSamples(const impreg::Graph& base,
                          const std::vector<EditRecord>& edits,
                          std::vector<Sample> samples);

}  // namespace perfbench

#endif  // IMPREG_PERFBENCH_ORACLE_H_
