#ifndef IMPREG_NCP_NCP_H_
#define IMPREG_NCP_NCP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/solve_status.h"
#include "core/work_budget.h"
#include "graph/graph.h"
#include "partition/conductance.h"

/// \file
/// Network Community Profile harness — the machinery behind Figure 1.
///
/// Following Leskovec–Lang–Dasgupta–Mahoney [27, 28], each *family* of
/// approximation algorithms is run as a portfolio producing clusters at
/// many scales:
///
///   Spectral family ("LocalSpectral"): ACL push from many random seeds
///   across a grid of (α, ε) — coarser ε ⇒ smaller clusters; the sweep
///   cut of each run contributes one cluster.
///
///   Flow family ("Metis+MQI"): multilevel bisection at a grid of size
///   fractions, each cut then sharpened by MQI; both the raw bisection
///   side and the MQI set contribute clusters.
///
/// The NCP plot keeps, for every (log-spaced) size bin, the minimum
/// conductance cluster the family found. Figure 1(b,c) evaluates the
/// same per-bin winners under the niceness measures.

namespace impreg {

/// One cluster discovered by a portfolio, tagged with its provenance.
struct NcpCluster {
  std::vector<NodeId> nodes;
  CutStats stats;
  std::string method;
};

/// Options for the spectral-family portfolio.
struct SpectralFamilyOptions {
  /// Random seed nodes tried.
  int num_seeds = 24;
  /// Lazy teleportation values of the push runs.
  std::vector<double> alphas = {0.2, 0.1, 0.05, 0.02};
  /// Push tolerance grid (each ε targets a different cluster scale).
  std::vector<double> epsilons = {1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5};
  std::uint64_t rng_seed = 0xacadULL;
  /// Optional cooperative budget shared by all the push runs (nullptr =
  /// unlimited). Checked between runs; the clusters found before
  /// exhaustion are returned.
  WorkBudget* budget = nullptr;
};

/// Options for the flow-family portfolio.
struct FlowFamilyOptions {
  /// Target size fractions for the multilevel bisection; empty = a
  /// log-spaced default grid from ~16/n up to 1/2.
  std::vector<double> fractions;
  /// Sharpen each bisection with MQI.
  bool run_mqi = true;
  /// Also contribute the exact whiskers and their greedy unions (the
  /// "bag of whiskers" lower envelope of [27, 28]).
  bool include_whiskers = true;
  std::uint64_t rng_seed = 0xf10bULL;
  /// Optional cooperative budget shared by the bisections and MQI runs
  /// (nullptr = unlimited). Checked between size fractions.
  WorkBudget* budget = nullptr;
};

/// Options for the lazy-walk-family portfolio.
struct WalkFamilyOptions {
  /// Random seed nodes; their indicator vectors form the columns of one
  /// batched diffusion.
  int num_seeds = 16;
  /// Holding probability of the lazy walk W_α = αI + (1−α)AD^{-1}.
  double alpha = 0.5;
  /// Walk lengths at which each column is swept for a cluster; must be
  /// positive. Unsorted input is fine (sorted internally).
  std::vector<int> checkpoints = {2, 4, 8, 16, 32, 64};
  std::uint64_t rng_seed = 0xa1c3ULL;
  /// Optional cooperative budget (nullptr = unlimited), checked between
  /// checkpoints; the clusters from completed checkpoints are returned.
  WorkBudget* budget = nullptr;
};

/// Runs the lazy-walk-family portfolio: all seed columns are diffused
/// together with the batched SpMM path (`LazyWalkOperator::ApplyBatch`),
/// so each walk step streams the adjacency once for every seed. Each
/// column is sweep-cut at each checkpoint t; clusters are tagged
/// "LazyWalk(t=..)". This is the multi-scale walk portfolio of the
/// paper's §3.1 diffusions, and the NCP driver for the SpMM kernel.
/// All three portfolios accept an optional `diagnostics` out-param:
/// kConverged when the full grid ran, kBudgetExhausted when the
/// options' budget ran out (the clusters found so far are returned —
/// a truncated portfolio is still a valid, just sparser, NCP).
std::vector<NcpCluster> WalkFamilyClusters(
    const Graph& g, const WalkFamilyOptions& options = {},
    SolverDiagnostics* diagnostics = nullptr);

/// Runs the spectral-family portfolio and returns every cluster found.
std::vector<NcpCluster> SpectralFamilyClusters(
    const Graph& g, const SpectralFamilyOptions& options = {},
    SolverDiagnostics* diagnostics = nullptr);

/// Runs the flow-family portfolio and returns every cluster found.
std::vector<NcpCluster> FlowFamilyClusters(
    const Graph& g, const FlowFamilyOptions& options = {},
    SolverDiagnostics* diagnostics = nullptr);

/// One point of a network community profile.
struct NcpPoint {
  std::int64_t size = 0;       ///< Cluster size (|S|).
  double conductance = 1.0;    ///< Best φ found at that bin.
  NcpCluster cluster;          ///< The winning cluster.
};

/// Reduces a cluster list to the per-size-bin minimum-conductance
/// profile. Bins are log-spaced over [1, max_size]; empty bins are
/// omitted. Clusters larger than max_size are ignored.
std::vector<NcpPoint> BestPerSizeBin(const std::vector<NcpCluster>& clusters,
                                     int num_bins, std::int64_t max_size);

}  // namespace impreg

#endif  // IMPREG_NCP_NCP_H_
