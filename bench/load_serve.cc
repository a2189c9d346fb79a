// BM_LoadServe — the serving-tier load benchmark family.
//
// Runs the deterministic closed-loop load harness
// (src/service/load/harness.h) through five production-shaped
// scenarios over one synthetic graph and writes the whole family as a
// single impreg-bench-v2 report with p50_ns/p99_ns on every record:
//
//   BM_LoadServe/steady         uniform batches, cache on
//   BM_LoadServe/steady-nocache the same stream, every query cold
//   BM_LoadServe/burst          alternating lulls and 4x spikes
//   BM_LoadServe/ramp-writes    doubling ramp with a 10% AddEdge mix
//   BM_LoadServe/overload       two tenants vs a small admission pool
//
// The report's `metrics` member carries the *reproducible* half of
// each run (event/provenance/shed counts — bit-identical across
// machines and thread counts); the latency fields are wall-clock and
// are gated by trajectory via `impreg_bench_diff --max-regress-p99`
// (see the load_serve_report_gate ctest). A copy of this report is
// checked in at bench/out/BENCH_load_serve.json as the baseline.
//
// Usage: load_serve [--out=PATH]
//   (default: BENCH_load_serve.json in the build tree; refresh the
//   checked-in baseline only with --out=bench/out/BENCH_load_serve.json)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/parallel.h"
#include "graph/random_graphs.h"
#include "service/load/harness.h"
#include "service/load/workload.h"
#include "service/query_engine.h"
#include "util/rng.h"

#ifndef IMPREG_BENCH_REPORT_DIR
#define IMPREG_BENCH_REPORT_DIR "bench/out"
#endif

namespace impreg {
namespace {

struct Scenario {
  std::string name;
  WorkloadOptions workload;
  QueryEngine::Options engine;
};

std::vector<Scenario> Scenarios() {
  WorkloadOptions base;
  base.seed = 42;
  base.num_requests = 768;
  base.zipf_exponent = 1.1;
  base.batch_size = 16;
  base.epsilon = 1e-4;

  std::vector<Scenario> scenarios;

  {
    Scenario s;
    s.name = "BM_LoadServe/steady";
    s.workload = base;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "BM_LoadServe/steady-nocache";
    s.workload = base;
    s.engine.enable_cache = false;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "BM_LoadServe/burst";
    s.workload = base;
    s.workload.pattern = ArrivalPattern::kBurst;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "BM_LoadServe/ramp-writes";
    s.workload = base;
    s.workload.pattern = ArrivalPattern::kRamp;
    s.workload.write_fraction = 0.10;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "BM_LoadServe/overload";
    s.workload = base;
    s.workload.tenants = {"heavy", "light"};
    s.workload.max_work = 4096;
    s.engine.admission.enabled = true;
    s.engine.admission.policy.capacity = 400000;
    s.engine.admission.policy.degrade_fraction = 0.5;
    s.engine.admission.policy.degraded_cap = 1024;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

/// Scenario-prefixed reproducible counts, merged into one JSON object.
std::string FamilyMetricsJson(const std::vector<std::string>& names,
                              const std::vector<LoadStats>& runs) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    // Strip the family prefix: "BM_LoadServe/steady" -> "steady".
    std::string tag = names[i];
    const std::size_t slash = tag.rfind('/');
    if (slash != std::string::npos) tag = tag.substr(slash + 1);
    const LoadStats& s = runs[i];
    const std::string p = "load." + tag + ".";
    auto emit = [&](const char* key, std::int64_t value) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << p << key << "\": " << value;
    };
    emit("queries", s.queries);
    emit("writes", s.writes);
    emit("cold", s.cold);
    emit("warm", s.warm);
    emit("cached", s.cached);
    emit("degraded", s.degraded);
    emit("shed", s.shed);
  }
  out << "}";
  return out.str();
}

int Run(int argc, char** argv) {
  std::string out_path =
      std::string(IMPREG_BENCH_REPORT_DIR) + "/BENCH_load_serve.json";
  if (const char* env = std::getenv("IMPREG_BENCH_REPORT")) out_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  // One shared base graph: all five scenarios serve the same topology,
  // so their latency profiles differ only by workload shape.
  Rng graph_rng(7);
  const Graph graph = ErdosRenyi(512, 8.0 / 511.0, graph_rng);

  std::vector<BenchRecord> records;
  std::vector<std::string> names;
  std::vector<LoadStats> runs;
  for (const Scenario& scenario : Scenarios()) {
    QueryEngine engine(graph, scenario.engine);
    const Workload load =
        GenerateWorkload(scenario.workload, graph.NumNodes());
    const LoadStats stats = RunLoadWorkload(engine, load);
    records.push_back(LoadStatsRecord(scenario.name, stats, graph.NumNodes(),
                                      graph.NumEdges(), ImpregNumThreads()));
    std::printf("%-28s mean %10.0f ns  p50 %10.0f  p99 %10.0f  "
                "cold %4lld warm %4lld cached %4lld degraded %4lld "
                "shed %4lld\n",
                scenario.name.c_str(), stats.mean_ns, stats.p50_ns,
                stats.p99_ns, static_cast<long long>(stats.cold),
                static_cast<long long>(stats.warm),
                static_cast<long long>(stats.cached),
                static_cast<long long>(stats.degraded),
                static_cast<long long>(stats.shed));
    names.push_back(scenario.name);
    runs.push_back(stats);
  }

  if (!WriteBenchReport(out_path, records, FamilyMetricsJson(names, runs))) {
    std::fprintf(stderr, "load_serve: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::printf("report: %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace impreg

int main(int argc, char** argv) { return impreg::Run(argc, argv); }
