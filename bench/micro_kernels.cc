// Microbenchmarks (google-benchmark) for the computational kernels
// under every experiment: sparse matvec, diffusion steps, push, sweep,
// max-flow, and the eigensolvers. Results are also dumped as an
// impreg-bench-v2 JSON report (BENCH_micro_kernels.json in the build
// tree by default; override with --out=PATH or the IMPREG_BENCH_REPORT
// environment variable) with the process metrics snapshot embedded,
// so the perf trajectory is tracked by impreg_bench_diff — see
// bench/report.h and docs/observability.md. The checked-in
// bench/out/BENCH_micro_kernels.json is the micro_kernels_report_gate
// baseline; refresh it only with an explicit --out. --link-root
// refreshes a BENCH_micro_kernels.json symlink at the repo root for
// the old habit of looking there.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench/report.h"
#include "core/impreg.h"

namespace impreg {
namespace {

const Graph& BenchGraph(std::int64_t n) {
  static std::map<std::int64_t, Graph>* cache = new std::map<std::int64_t, Graph>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    Rng rng(42 + static_cast<std::uint64_t>(n));
    it = cache->emplace(n, ErdosRenyi(static_cast<NodeId>(n), 8.0 / n, rng))
             .first;
  }
  return it->second;
}

// Tags the run with the {n, m, threads} counters the JSON report emits.
void SetReportCounters(benchmark::State& state, std::int64_t n,
                       std::int64_t m, int threads = 1) {
  state.counters["n"] = static_cast<double>(n);
  state.counters["m"] = static_cast<double>(m);
  state.counters["threads"] = static_cast<double>(threads);
}

void SetGraphCounters(benchmark::State& state, const Graph& g,
                      int threads = 1) {
  SetReportCounters(state, g.NumNodes(), g.NumEdges(), threads);
}

void MatvecBody(benchmark::State& state, const Graph& g) {
  const NormalizedLaplacianOperator lap(g);
  Rng rng(1);
  Vector x(g.NumNodes());
  for (double& v : x) v = rng.NextGaussian();
  Vector y(g.NumNodes());
  for (auto _ : state) {
    lap.Apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * g.NumArcs());
  SetGraphCounters(state, g);
}

void BM_NormalizedLaplacianMatvec(benchmark::State& state) {
  MatvecBody(state, BenchGraph(state.range(0)));
}
BENCHMARK(BM_NormalizedLaplacianMatvec)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 17);

// —— SIMD-dispatch sweeps ——
// Scalar-vs-vector pins the dispatch cost model: the two paths are
// bit-identical (tests/determinism_test.cc), so whichever is faster on
// a given machine is always safe to serve.

void BM_NormalizedLaplacianMatvecScalar(benchmark::State& state) {
  const simd::ScopedSimdLevel forced(simd::SimdLevel::kScalar);
  MatvecBody(state, BenchGraph(state.range(0)));
}
BENCHMARK(BM_NormalizedLaplacianMatvecScalar)->Arg(1 << 17);

// Forced kAvx2 clamps to scalar on machines without AVX2+FMA, so this
// sweep runs (and the diff stays meaningful) everywhere.
void BM_NormalizedLaplacianMatvecSimd(benchmark::State& state) {
  const simd::ScopedSimdLevel forced(simd::SimdLevel::kAvx2);
  MatvecBody(state, BenchGraph(state.range(0)));
}
BENCHMARK(BM_NormalizedLaplacianMatvecSimd)->Arg(1 << 17);

void BM_SpMMBatchScalar(benchmark::State& state) {
  const simd::ScopedSimdLevel forced(simd::SimdLevel::kScalar);
  const Graph& g = BenchGraph(1 << 17);
  const NormalizedLaplacianOperator lap(g);
  const int k = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<Vector> xs(k, Vector(g.NumNodes()));
  for (Vector& x : xs) {
    for (double& v : x) v = rng.NextGaussian();
  }
  std::vector<Vector> ys;
  for (auto _ : state) {
    lap.ApplyBatch(xs, ys);
    benchmark::DoNotOptimize(ys.data());
  }
  state.SetItemsProcessed(state.iterations() * g.NumArcs() * k);
  SetGraphCounters(state, g);
}
BENCHMARK(BM_SpMMBatchScalar)->Arg(4);

void BM_DotSimdSweep(benchmark::State& state) {
  const simd::ScopedSimdLevel forced(
      static_cast<simd::SimdLevel>(state.range(0)));
  Rng rng(2);
  Vector x(1 << 20), y(1 << 20);
  for (double& v : x) v = rng.NextGaussian();
  for (double& v : y) v = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(x, y));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
  SetReportCounters(state, static_cast<std::int64_t>(x.size()), 0);
}
BENCHMARK(BM_DotSimdSweep)->Arg(0)->Arg(1);  // 0 = scalar, 1 = avx2.

void BM_AxpySimdSweep(benchmark::State& state) {
  const simd::ScopedSimdLevel forced(
      static_cast<simd::SimdLevel>(state.range(0)));
  Rng rng(2);
  Vector x(1 << 20), y(1 << 20);
  for (double& v : x) v = rng.NextGaussian();
  for (double& v : y) v = rng.NextGaussian();
  for (auto _ : state) {
    Axpy(0.37, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
  SetReportCounters(state, static_cast<std::int64_t>(x.size()), 0);
}
BENCHMARK(BM_AxpySimdSweep)->Arg(0)->Arg(1);

void BM_LazyWalkStep(benchmark::State& state) {
  const Graph& g = BenchGraph(state.range(0));
  const LazyWalkOperator walk(g, 0.5);
  Vector p(g.NumNodes(), 1.0 / g.NumNodes());
  Vector q(g.NumNodes());
  for (auto _ : state) {
    walk.Apply(p, q);
    benchmark::DoNotOptimize(q.data());
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_LazyWalkStep)->Arg(1 << 12)->Arg(1 << 15);

void BM_PushClustering(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 15);
  PushOptions options;
  options.alpha = 0.1;
  options.epsilon = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    const PushResult r = ApproximatePageRank(g, SingleNodeSeed(g, 7), options);
    benchmark::DoNotOptimize(r.p.data());
  }
}
BENCHMARK(BM_PushClustering)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_SweepCut(benchmark::State& state) {
  const Graph& g = BenchGraph(state.range(0));
  Rng rng(3);
  Vector values(g.NumNodes());
  for (double& v : values) v = rng.NextGaussian();
  for (auto _ : state) {
    const SweepResult r = SweepCut(g, values);
    benchmark::DoNotOptimize(r.stats.conductance);
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_SweepCut)->Arg(1 << 12)->Arg(1 << 15);

void BM_Lanczos(benchmark::State& state) {
  const Graph& g = BenchGraph(state.range(0));
  const NormalizedLaplacianOperator lap(g);
  for (auto _ : state) {
    LanczosOptions options;
    options.deflate.push_back(lap.TrivialEigenvector());
    options.max_iterations = 80;
    const LanczosResult r = LanczosSmallest(lap, 1, options);
    benchmark::DoNotOptimize(r.eigenvalues.data());
  }
}
BENCHMARK(BM_Lanczos)->Arg(1 << 12)->Arg(1 << 14);

void BM_Dinic(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(4);
  const Graph g = ErdosRenyi(n, 8.0 / n, rng);
  for (auto _ : state) {
    FlowNetwork net(n);
    for (NodeId u = 0; u < n; ++u) {
      const auto heads = g.Heads(u);
      const auto weights = g.Weights(u);
      for (std::size_t i = 0; i < heads.size(); ++i) {
        if (heads[i] > u) net.AddEdge(u, heads[i], weights[i], weights[i]);
      }
    }
    benchmark::DoNotOptimize(net.MaxFlow(0, n - 1));
  }
}
BENCHMARK(BM_Dinic)->Arg(1 << 10)->Arg(1 << 13);

void BM_JacobiEigen(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(5);
  Graph g = ErdosRenyi(n, 0.2, rng);
  const DenseMatrix lap = DenseNormalizedLaplacian(g);
  for (auto _ : state) {
    const SymmetricEigen eigen = SymmetricEigendecomposition(lap);
    benchmark::DoNotOptimize(eigen.eigenvalues.data());
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(32)->Arg(64)->Arg(128);

void BM_MultilevelBisection(benchmark::State& state) {
  const Graph& g = BenchGraph(state.range(0));
  for (auto _ : state) {
    const MultilevelResult r = MultilevelBisection(g);
    benchmark::DoNotOptimize(r.cut);
  }
}
BENCHMARK(BM_MultilevelBisection)->Arg(1 << 12)->Arg(1 << 14);


void BM_CoreDecomposition(benchmark::State& state) {
  const Graph& g = BenchGraph(state.range(0));
  for (auto _ : state) {
    const std::vector<int> core = CoreNumbers(g);
    benchmark::DoNotOptimize(core.data());
  }
}
BENCHMARK(BM_CoreDecomposition)->Arg(1 << 14)->Arg(1 << 16);

void BM_TriangleCounting(benchmark::State& state) {
  const Graph& g = BenchGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(g));
  }
}
BENCHMARK(BM_TriangleCounting)->Arg(1 << 13)->Arg(1 << 15);

void BM_FindWhiskers(benchmark::State& state) {
  Rng rng(9);
  SocialGraphParams params;
  params.core_nodes = static_cast<NodeId>(state.range(0));
  params.num_whiskers = static_cast<int>(state.range(0) / 80);
  const SocialGraph sg = MakeWhiskeredSocialGraph(params, rng);
  for (auto _ : state) {
    const auto whiskers = FindWhiskers(sg.graph);
    benchmark::DoNotOptimize(whiskers.size());
  }
}
BENCHMARK(BM_FindWhiskers)->Arg(1 << 13)->Arg(1 << 15);

void BM_FastDenseEigen(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(6);
  Graph g = ErdosRenyi(n, 0.2, rng);
  const DenseMatrix lap = DenseNormalizedLaplacian(g);
  for (auto _ : state) {
    const SymmetricEigen eigen = SymmetricEigendecompositionFast(lap);
    benchmark::DoNotOptimize(eigen.eigenvalues.data());
  }
}
BENCHMARK(BM_FastDenseEigen)->Arg(32)->Arg(64)->Arg(128);

// —— Thread-count sweeps for the parallel execution layer ——
// Each benchmark runs the same kernel at 1/2/4/8 pool threads so the
// speedup is measured, not asserted. The SpMV graph has ~8·2^17/2 ≈
// 524k edges (the ISSUE-1 acceptance target is a ≥100k-edge graph).

void BM_SpMVThreads(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 17);
  const ScopedNumThreads threads(static_cast<int>(state.range(0)));
  const NormalizedLaplacianOperator lap(g);
  Rng rng(1);
  Vector x(g.NumNodes());
  for (double& v : x) v = rng.NextGaussian();
  Vector y(g.NumNodes());
  for (auto _ : state) {
    lap.Apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * g.NumArcs());
  SetGraphCounters(state, g, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_SpMVThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DotThreads(benchmark::State& state) {
  const ScopedNumThreads threads(static_cast<int>(state.range(0)));
  Rng rng(2);
  Vector x(1 << 22), y(1 << 22);
  for (double& v : x) v = rng.NextGaussian();
  for (double& v : y) v = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.size()));
  SetReportCounters(state, static_cast<std::int64_t>(x.size()), 0,
                    static_cast<int>(state.range(0)));
}
BENCHMARK(BM_DotThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_PageRankThreads(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 17);
  const ScopedNumThreads threads(static_cast<int>(state.range(0)));
  PageRankOptions options;
  options.gamma = 0.15;
  options.tolerance = 1e-8;
  const Vector seed = SingleNodeSeed(g, 7);
  for (auto _ : state) {
    const PageRankResult r = PersonalizedPageRank(g, seed, options);
    benchmark::DoNotOptimize(r.scores.data());
  }
  SetGraphCounters(state, g, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_PageRankThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_HeatKernelTaylorThreads(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 17);
  const ScopedNumThreads threads(static_cast<int>(state.range(0)));
  const Vector seed = SingleNodeSeed(g, 3);
  for (auto _ : state) {
    const Vector h = HeatKernelWalkTaylor(g, seed, 5.0, 1e-8);
    benchmark::DoNotOptimize(h.data());
  }
  SetGraphCounters(state, g, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_HeatKernelTaylorThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SweepCutThreads(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 17);
  const ScopedNumThreads threads(static_cast<int>(state.range(0)));
  Rng rng(3);
  Vector values(g.NumNodes());
  for (double& v : values) v = rng.NextGaussian();
  for (auto _ : state) {
    const SweepResult r = SweepCut(g, values);
    benchmark::DoNotOptimize(r.stats.conductance);
  }
  SetGraphCounters(state, g, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_SweepCutThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// —— Memory-layout sweeps (ISSUE 2) ——
// AoS-vs-SoA isolates the adjacency layout: the same serial adjacency
// SpMV over {int32, double} structs (16 bytes/arc after padding) versus
// the split heads/weights arrays (12 bytes/arc). SpMV-vs-SpMM measures
// the register-blocked multi-vector path at k = 1, 4, 8.

struct AosArc {
  NodeId head;
  double weight;
};

struct AosGraph {
  std::vector<ArcIndex> offsets;
  std::vector<AosArc> arcs;
};

const AosGraph& AosReplica(std::int64_t n) {
  static std::map<std::int64_t, AosGraph>* cache =
      new std::map<std::int64_t, AosGraph>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    const Graph& g = BenchGraph(n);
    AosGraph aos;
    aos.offsets.assign(g.Offsets().begin(), g.Offsets().end());
    aos.arcs.reserve(static_cast<std::size_t>(g.NumArcs()));
    const auto heads = g.Heads();
    const auto weights = g.Weights();
    for (std::size_t a = 0; a < heads.size(); ++a) {
      aos.arcs.push_back({heads[a], weights[a]});
    }
    it = cache->emplace(n, std::move(aos)).first;
  }
  return it->second;
}

void BM_SpMVAoS(benchmark::State& state) {
  const Graph& g = BenchGraph(state.range(0));
  const AosGraph& aos = AosReplica(state.range(0));
  Rng rng(1);
  Vector x(g.NumNodes());
  for (double& v : x) v = rng.NextGaussian();
  Vector y(g.NumNodes());
  const NodeId n = g.NumNodes();
  for (auto _ : state) {
    for (NodeId u = 0; u < n; ++u) {
      double sum = 0.0;
      const ArcIndex row_end = aos.offsets[u + 1];
      for (ArcIndex a = aos.offsets[u]; a < row_end; ++a) {
        sum += aos.arcs[a].weight * x[aos.arcs[a].head];
      }
      y[u] = sum;
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * g.NumArcs());
  state.SetBytesProcessed(state.iterations() * g.NumArcs() *
                          static_cast<std::int64_t>(sizeof(AosArc)));
  SetGraphCounters(state, g);
}
BENCHMARK(BM_SpMVAoS)->Arg(1 << 15)->Arg(1 << 17);

void BM_SpMVSoA(benchmark::State& state) {
  const Graph& g = BenchGraph(state.range(0));
  Rng rng(1);
  Vector x(g.NumNodes());
  for (double& v : x) v = rng.NextGaussian();
  Vector y(g.NumNodes());
  const NodeId n = g.NumNodes();
  const auto offsets = g.Offsets();
  const auto heads = g.Heads();
  const auto weights = g.Weights();
  for (auto _ : state) {
    for (NodeId u = 0; u < n; ++u) {
      double sum = 0.0;
      const ArcIndex row_end = offsets[u + 1];
      for (ArcIndex a = offsets[u]; a < row_end; ++a) {
        sum += weights[a] * x[heads[a]];
      }
      y[u] = sum;
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * g.NumArcs());
  state.SetBytesProcessed(
      state.iterations() * g.NumArcs() *
      static_cast<std::int64_t>(sizeof(NodeId) + sizeof(double)));
  SetGraphCounters(state, g);
}
BENCHMARK(BM_SpMVSoA)->Arg(1 << 15)->Arg(1 << 17);

// k right-hand sides via the register-blocked SpMM (one adjacency
// traversal for all k columns).
void BM_SpMMBatch(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 17);
  const NormalizedLaplacianOperator lap(g);
  const int k = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<Vector> xs(k, Vector(g.NumNodes()));
  for (Vector& x : xs) {
    for (double& v : x) v = rng.NextGaussian();
  }
  std::vector<Vector> ys;
  for (auto _ : state) {
    lap.ApplyBatch(xs, ys);
    benchmark::DoNotOptimize(ys.data());
  }
  state.SetItemsProcessed(state.iterations() * g.NumArcs() * k);
  SetGraphCounters(state, g);
}
BENCHMARK(BM_SpMMBatch)->Arg(1)->Arg(4)->Arg(8);

// The same k right-hand sides as k independent SpMVs (the baseline the
// SpMM path amortizes away).
void BM_SpMMLooped(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 17);
  const NormalizedLaplacianOperator lap(g);
  const int k = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<Vector> xs(k, Vector(g.NumNodes()));
  for (Vector& x : xs) {
    for (double& v : x) v = rng.NextGaussian();
  }
  std::vector<Vector> ys(k);
  for (auto _ : state) {
    for (int j = 0; j < k; ++j) lap.Apply(xs[j], ys[j]);
    benchmark::DoNotOptimize(ys.data());
  }
  state.SetItemsProcessed(state.iterations() * g.NumArcs() * k);
  SetGraphCounters(state, g);
}
BENCHMARK(BM_SpMMLooped)->Arg(1)->Arg(4)->Arg(8);

void BM_ChebyshevPpr(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 14);
  PageRankOptions options;
  options.gamma = 0.05;
  options.tolerance = 1e-8;
  for (auto _ : state) {
    const PageRankResult r =
        PersonalizedPageRankChebyshev(g, SingleNodeSeed(g, 3), options);
    benchmark::DoNotOptimize(r.scores.data());
  }
}
BENCHMARK(BM_ChebyshevPpr);

// The serving-layer record family: the same PPR push query answered
// cold (cache off), warm (post-AddEdge restart from the cached (p, r)
// pair), and cached (exact hit). The cold/warm/cached ordering is the
// point — impreg_bench_diff tracks all three, so a regression in the
// warm-restart path shows up even while cold stays flat.
Query BenchPprQuery() {
  Query q;
  q.method = QueryMethod::kPprPush;
  q.seeds = {3, 17};
  q.epsilon = 1e-4;
  return q;
}

void BM_QueryServeCold(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 13);
  QueryEngine::Options options;
  options.enable_cache = false;
  QueryEngine engine(g, options);
  const std::vector<Query> batch = {BenchPprQuery()};
  for (auto _ : state) {
    const std::vector<QueryResponse> responses = engine.RunBatch(batch);
    benchmark::DoNotOptimize(responses.front().scores.data());
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_QueryServeCold);

void BM_QueryServeCached(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 13);
  QueryEngine engine(g);
  const std::vector<Query> batch = {BenchPprQuery()};
  engine.RunBatch(batch);  // Prime: every timed iteration is a hit.
  for (auto _ : state) {
    const std::vector<QueryResponse> responses = engine.RunBatch(batch);
    benchmark::DoNotOptimize(responses.front().scores.data());
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_QueryServeCached);

void BM_QueryServeWarm(benchmark::State& state) {
  const Graph& g = BenchGraph(1 << 13);
  QueryEngine engine(g);
  const std::vector<Query> batch = {BenchPprQuery()};
  engine.RunBatch(batch);  // Seed the warm index.
  const NodeId n = g.NumNodes();
  NodeId next = 0;
  for (auto _ : state) {
    // Each edit bumps the epoch, so the exact key misses and the push
    // warm-restarts from the cached (p, r) via InvariantResidual.
    engine.AddEdge(next % n, (next * 7 + 1) % n, 1e-3);
    ++next;
    const std::vector<QueryResponse> responses = engine.RunBatch(batch);
    benchmark::DoNotOptimize(responses.front().scores.data());
  }
  SetGraphCounters(state, g);
}
BENCHMARK(BM_QueryServeWarm);

// Console output as usual, plus one BenchRecord per (non-aggregate)
// run for the JSON report.
class JsonDumpReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type == Run::RT_Aggregate) continue;
      BenchRecord record;
      record.bench = run.benchmark_name();
      record.ns_per_iter = run.GetAdjustedRealTime();
      auto counter = [&](const char* name, double fallback) {
        const auto it = run.counters.find(name);
        return it != run.counters.end()
                   ? static_cast<double>(it->second.value)
                   : fallback;
      };
      record.n = static_cast<std::int64_t>(counter("n", 0.0));
      record.m = static_cast<std::int64_t>(counter("m", 0.0));
      record.threads = static_cast<int>(counter("threads", 1.0));
      records_.push_back(std::move(record));
    }
  }

  const std::vector<BenchRecord>& records() const { return records_; }

 private:
  std::vector<BenchRecord> records_;
};

// The configuration the numbers were measured under: the
// IMPREG_NATIVE_STATUS compile definition records whether -march=native
// was requested and honoured ("off" / "native" / "native-rejected" —
// the CMake warning path), and the per-kernel-class SIMD dispatch
// levels record what actually ran. impreg_bench_diff compares these
// maps and flags cross-machine/cross-configuration baselines.
BenchMetadata MachineMetadata() {
  return {
      {"native", IMPREG_NATIVE_STATUS},
      {"simd_dense",
       simd::SimdLevelName(simd::ActiveSimdLevel(simd::SimdKernel::kDense))},
      {"simd_row_gather", simd::SimdLevelName(simd::ActiveSimdLevel(
                              simd::SimdKernel::kRowGather))},
      {"simd_row_block4", simd::SimdLevelName(simd::ActiveSimdLevel(
                              simd::SimdKernel::kRowBlock4))},
  };
}

std::string DefaultReportPath() {
  if (const char* env = std::getenv("IMPREG_BENCH_REPORT")) {
    return env;
  }
  return std::string(IMPREG_BENCH_REPORT_DIR) + "/BENCH_micro_kernels.json";
}

// Refreshes the repo-root BENCH_micro_kernels.json symlink (the
// pre-bench/out location) to point at `target`. Best-effort: symlink
// failures (exotic filesystems, an existing regular file we should not
// clobber) are reported, not fatal.
void LinkReportAtRepoRoot(const std::string& target) {
  namespace fs = std::filesystem;
  const fs::path link =
      fs::path(IMPREG_BENCH_REPO_ROOT) / "BENCH_micro_kernels.json";
  std::error_code ec;
  if (fs::is_symlink(link, ec)) fs::remove(link, ec);
  if (fs::exists(fs::symlink_status(link, ec))) {
    std::fprintf(stderr,
                 "micro_kernels: not replacing non-symlink %s\n",
                 link.c_str());
    return;
  }
  fs::create_symlink(fs::absolute(target, ec), link, ec);
  if (ec) {
    std::fprintf(stderr, "micro_kernels: cannot link %s: %s\n", link.c_str(),
                 ec.message().c_str());
  } else {
    std::printf("bench report link: %s -> %s\n", link.c_str(), target.c_str());
  }
}

}  // namespace
}  // namespace impreg

int main(int argc, char** argv) {
  // Our own flags come out of argv before google-benchmark sees it
  // (ReportUnrecognizedArguments would reject them).
  std::string report_path = impreg::DefaultReportPath();
  bool link_root = false;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      report_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--link-root") == 0) {
      link_root = true;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  // The report embeds the process metrics snapshot (solver counters,
  // pool busy time); collection is on for the whole run. Kernels'
  // outputs are unaffected — see core/metrics.h.
  impreg::ImpregEnableMetrics(true);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  impreg::JsonDumpReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::string metrics_json =
      impreg::MetricsRegistry::Get().Snapshot().ToJson();
  if (impreg::WriteBenchReport(report_path, reporter.records(), metrics_json,
                               impreg::MachineMetadata())) {
    std::printf("bench report: %s (%zu records)\n", report_path.c_str(),
                reporter.records().size());
    if (link_root) impreg::LinkReportAtRepoRoot(report_path);
  } else {
    std::fprintf(stderr, "failed to write bench report: %s\n",
                 report_path.c_str());
  }
  return 0;
}
