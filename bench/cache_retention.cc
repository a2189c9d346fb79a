// BM_CacheRetention/* — surgical invalidation vs the invalidate-all
// baseline under a mixed add/remove edit stream.
//
// The scenario the surgical path exists for: a ring of cliques serves
// one locality per clique (one cached push answer each), while edits —
// alternating insertions and removals of the same cross-clique pairs —
// land in two cliques only. With surgical (region-fingerprint)
// invalidation, the edits evict or demote only the two entries whose
// read regions they touch; every other locality keeps serving exact
// cache hits. The invalidate-all baseline retires every entry on every
// edit, so the same probe sweep runs warm each round.
//
// The report's `metrics` member carries the machine-independent half:
// served-source counts (cached/warm/cold per mode) and the cache's
// region_retained/demoted/evicted counters — all pure functions of the
// deterministic engine, so drift means lost retention, not timer
// noise. The ns_per_iter fields are wall-clock per probe and gated by
// trajectory via `impreg_bench_diff` with generous thresholds (see the
// cache_retention_gate ctest and bench/cache_retention_gate.cmake).
// The checked-in baseline is bench/out/BENCH_cache_retention.json.
//
// The driver itself asserts the retention property (surgical serves
// strictly more exact hits than invalidate-all), so the gate fails on
// a correctness regression even before the diff runs.
//
// Usage: cache_retention [--out=PATH]
//   (default: BENCH_cache_retention.json in the build tree; refresh the
//   checked-in baseline only with
//   --out=bench/out/BENCH_cache_retention.json)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/report.h"
#include "core/parallel.h"
#include "graph/graph.h"
#include "service/query_engine.h"
#include "util/check.h"

#ifndef IMPREG_BENCH_REPORT_DIR
#define IMPREG_BENCH_REPORT_DIR "bench/out"
#endif

namespace impreg {
namespace {

constexpr int kCliques = 24;
constexpr int kCliqueSize = 16;
constexpr int kEditPairs = 8;  // Each pair is added, then removed.

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Graph RingOfCliques(int cliques, int clique_size) {
  GraphBuilder builder(cliques * clique_size);
  for (int c = 0; c < cliques; ++c) {
    const NodeId base = c * clique_size;
    for (int i = 0; i < clique_size; ++i) {
      for (int j = i + 1; j < clique_size; ++j) {
        builder.AddEdge(base + i, base + j);
      }
    }
    const NodeId next = ((c + 1) % cliques) * clique_size;
    builder.AddEdge(base, next + 1);
  }
  return builder.Build();
}

struct ModeCounts {
  std::int64_t cached = 0;
  std::int64_t warm = 0;
  std::int64_t cold = 0;
  std::int64_t probes = 0;
  double ns_per_probe = 0.0;
  ResultCacheStats stats;
};

/// One clique-interior probe per clique, at a coarse ε so each read
/// region is its clique plus the one-hop ring neighbors — localities
/// that genuinely do not overlap the edit site.
std::vector<Query> MakeProbes() {
  std::vector<Query> probes;
  probes.reserve(kCliques);
  for (int c = 0; c < kCliques; ++c) {
    Query q;
    q.seeds = {static_cast<NodeId>(c * kCliqueSize + 4)};
    q.epsilon = 5e-2;
    probes.push_back(q);
  }
  return probes;
}

ModeCounts RunMode(const Graph& g, bool surgical) {
  QueryEngine::Options options;
  options.surgical_invalidation = surgical;
  options.cache_capacity = 2 * kCliques;
  QueryEngine engine(g, options);
  const std::vector<Query> probes = MakeProbes();

  // Warm fill: every locality lands one exact entry.
  for (const Query& q : probes) engine.Run(q);

  // Mixed edit stream confined to cliques 0 and 1: add a brand-new
  // cross-clique pair, probe-sweep, remove it again, probe-sweep.
  ModeCounts counts;
  const double start = NowNs();
  for (int i = 0; i < kEditPairs; ++i) {
    const NodeId u = static_cast<NodeId>(2 + i);
    const NodeId v = static_cast<NodeId>(kCliqueSize + 2 + i);
    for (const bool remove : {false, true}) {
      if (remove) {
        engine.RemoveEdge(u, v);
      } else {
        engine.AddEdge(u, v, 1.0);
      }
      for (const Query& q : probes) {
        const QueryResponse r = engine.Run(q);
        ++counts.probes;
        switch (r.source) {
          case QuerySource::kCached: ++counts.cached; break;
          case QuerySource::kWarm:   ++counts.warm;   break;
          case QuerySource::kCold:   ++counts.cold;   break;
        }
      }
    }
  }
  counts.ns_per_probe = (NowNs() - start) / counts.probes;
  counts.stats = engine.cache().stats();
  return counts;
}

int Run(int argc, char** argv) {
  std::string out_path =
      std::string(IMPREG_BENCH_REPORT_DIR) + "/BENCH_cache_retention.json";
  if (const char* env = std::getenv("IMPREG_BENCH_REPORT")) out_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  const Graph g = RingOfCliques(kCliques, kCliqueSize);
  const ModeCounts surgical = RunMode(g, /*surgical=*/true);
  const ModeCounts baseline = RunMode(g, /*surgical=*/false);

  // The property this bench guards: with edits confined to two
  // cliques, surgical invalidation keeps the untouched localities
  // servable as exact hits; invalidate-all cannot keep any.
  IMPREG_CHECK_MSG(surgical.cached > baseline.cached,
                   "surgical invalidation retained no more entries than "
                   "invalidate-all");
  IMPREG_CHECK_MSG(surgical.stats.region_retained > 0,
                   "no cache entry survived an edit outside its region");

  std::vector<BenchRecord> records;
  auto emit = [&](const std::string& name, const ModeCounts& counts) {
    BenchRecord r;
    r.bench = name;
    r.n = g.NumNodes();
    r.m = g.NumEdges();
    r.threads = ImpregNumThreads();
    r.ns_per_iter = counts.ns_per_probe;
    records.push_back(r);
    std::printf("%-32s %10.0f ns/probe  cached %5lld  warm %5lld  cold %5lld\n",
                name.c_str(), counts.ns_per_probe,
                static_cast<long long>(counts.cached),
                static_cast<long long>(counts.warm),
                static_cast<long long>(counts.cold));
  };
  emit("BM_CacheRetention/surgical", surgical);
  emit("BM_CacheRetention/invalidate_all", baseline);

  std::ostringstream metrics;
  metrics << "{\"retention.probes\": " << surgical.probes
          << ", \"retention.surgical_cached\": " << surgical.cached
          << ", \"retention.surgical_warm\": " << surgical.warm
          << ", \"retention.surgical_cold\": " << surgical.cold
          << ", \"retention.surgical_region_retained\": "
          << surgical.stats.region_retained
          << ", \"retention.surgical_region_demoted\": "
          << surgical.stats.region_demoted
          << ", \"retention.surgical_region_evicted\": "
          << surgical.stats.region_evicted
          << ", \"retention.baseline_cached\": " << baseline.cached
          << ", \"retention.baseline_warm\": " << baseline.warm
          << ", \"retention.baseline_cold\": " << baseline.cold << "}";

  if (!WriteBenchReport(out_path, records, metrics.str())) {
    std::fprintf(stderr, "cache_retention: cannot write '%s'\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("report: %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace impreg

int main(int argc, char** argv) { return impreg::Run(argc, argv); }
