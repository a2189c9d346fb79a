#ifndef IMPREG_CORE_IMPREG_H_
#define IMPREG_CORE_IMPREG_H_

/// \file
/// Umbrella header: the full public API of the impreg library —
/// implicit regularization via approximate computation (Mahoney,
/// PODS 2012).
///
/// Substrate layers:
///   graph/       CSR graphs, generators, the Figure-1 social model
///   linalg/      operators, Lanczos, power method, CG, dense eigen
/// Paper machinery:
///   diffusion/   heat kernel, PageRank, lazy walks (§3.1 dynamics)
///   regularization/  Problem (5) SDPs + the exact equivalence (§3.1)
///   partition/   conductance, sweep cuts, spectral + local methods
///                (§3.2 spectral family, §3.3 push/Nibble/hk-relax/MOV)
///   flow/        max-flow, MQI, FlowImprove, multilevel (§3.2 flow
///                family)
///   ncp/         network community profiles + niceness (Figure 1)
///   service/     batched query serving, serve loop, result cache
///   core/        the ApproximateSecondEigenvector facade

#include "core/approx_eigenvector.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/solve_status.h"
#include "core/trace.h"
#include "core/work_budget.h"
#include "diffusion/heat_kernel.h"
#include "diffusion/lazy_walk.h"
#include "diffusion/pagerank.h"
#include "diffusion/seed.h"
#include "flow/flow_improve.h"
#include "flow/maxflow.h"
#include "flow/mqi.h"
#include "flow/multilevel.h"
#include "flow/recursive_partition.h"
#include "graph/algorithms.h"
#include "graph/bridges.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/random_graphs.h"
#include "graph/social.h"
#include "graph/structure.h"
#include "linalg/cg.h"
#include "linalg/chebyshev.h"
#include "linalg/dense_matrix.h"
#include "linalg/graph_operators.h"
#include "linalg/lanczos.h"
#include "linalg/operator.h"
#include "linalg/power_method.h"
#include "linalg/simd/simd.h"
#include "linalg/tridiagonal.h"
#include "linalg/vector_ops.h"
#include "ncp/community.h"
#include "ncp/ncp.h"
#include "ncp/niceness.h"
#include "partition/conductance.h"
#include "partition/hkrelax.h"
#include "partition/mov.h"
#include "partition/nibble.h"
#include "partition/push.h"
#include "partition/spectral.h"
#include "partition/spectral_kway.h"
#include "partition/sweep.h"
#include "regularization/density.h"
#include "regularization/equivalence.h"
#include "regularization/estimators.h"
#include "ranking/centrality.h"
#include "ranking/compare.h"
#include "regularization/sdp.h"
#include "service/durability/recovery.h"
#include "service/durability/snapshot.h"
#include "service/durability/wal.h"
#include "service/query_engine.h"
#include "service/result_cache.h"
#include "service/serve_loop.h"
#include "service/wire.h"
#include "streaming/dynamic_graph.h"
#include "streaming/incremental_ppr.h"
#include "streaming/montecarlo.h"
#include "util/csv.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

#endif  // IMPREG_CORE_IMPREG_H_
