// impreg_loadgen — deterministic closed-loop load generator for the
// query-serving layer.
//
// Generates a Zipf-popularity workload (src/service/load/workload.h)
// over a synthetic graph, drives a QueryEngine through it batch by
// batch, and reports the serving story: p50/p95/p99 latency, answer
// provenance (cold/warm/cached), and the admission-control ladder's
// output (degraded/shed, per tenant). With --out=PATH the run is
// written as an impreg-bench-v2 report (p50_ns/p99_ns on the record,
// the reproducible counts in `metrics`) so `impreg_bench_diff
// --max-regress-p99` can gate tail regressions between runs.
//
// Everything except wall-clock latency is a pure function of the
// flags: replaying the same invocation produces the identical request
// stream, identical shed set, and identical per-query digests at any
// thread count (IMPREG_THREADS), cache on or off.
//
// Usage:
//   impreg_loadgen [--seed=1] [--requests=1024] [--nodes=512]
//                  [--avg-degree=8] [--zipf=1.1] [--write-mix=0]
//                  [--remove-fraction=0]
//                  [--pattern=steady|burst|ramp] [--batch=16]
//                  [--seeds-per-query=1] [--method=ppr]
//                  [--epsilon=1e-4] [--max-work=0]
//                  [--tenants=a,b,...] [--capacity=0]
//                  [--degrade-fraction=0.5] [--shed-fraction=1.0]
//                  [--degraded-cap=2048] [--default-cost=4096]
//                  [--no-cache] [--cache-capacity=256]
//                  [--name=BM_LoadServe/steady] [--out=report.json]
//
// --capacity > 0 enables admission control with that many arcs per
// tenant per run. Exit codes: 0 ok, 2 usage error, 4 cannot write
// the report.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/parallel.h"
#include "graph/random_graphs.h"
#include "service/load/harness.h"
#include "service/load/workload.h"
#include "service/query_engine.h"
#include "util/rng.h"

namespace impreg {
namespace {

constexpr int kExitUsage = 2;
constexpr int kExitWrite = 4;

int Usage() {
  std::fprintf(
      stderr,
      "usage: impreg_loadgen [flags]\n"
      "  workload:  --seed=1 --requests=1024 --zipf=1.1 --write-mix=0\n"
      "             --remove-fraction=0 (of mutations, RemoveEdge share)\n"
      "             --pattern=steady|burst|ramp --batch=16\n"
      "             --seeds-per-query=1 --method=ppr|ppr-dense|heat-kernel|"
      "nibble\n"
      "             --epsilon=1e-4 --max-work=0 --tenants=a,b,c\n"
      "  graph:     --nodes=512 --avg-degree=8\n"
      "  admission: --capacity=0 (arcs per tenant; >0 enables)\n"
      "             --degrade-fraction=0.5 --shed-fraction=1.0\n"
      "             --degraded-cap=2048 --default-cost=4096\n"
      "  engine:    --no-cache --cache-capacity=256\n"
      "  report:    --name=BM_LoadServe/steady --out=report.json\n"
      "\n"
      "exit codes: 0 ok, 2 usage, 4 cannot write report\n");
  return kExitUsage;
}

bool FlagValue(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      if (start < text.size()) out.push_back(text.substr(start));
      break;
    }
    if (comma > start) out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

int Run(int argc, char** argv) {
  WorkloadOptions workload;
  QueryEngine::Options engine_options;
  std::int64_t nodes = 512;
  double avg_degree = 8.0;
  std::int64_t capacity = 0;
  std::string name = "BM_LoadServe/run";
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (FlagValue(arg, "--seed", &v)) {
      workload.seed = std::strtoull(v, nullptr, 10);
    } else if (FlagValue(arg, "--requests", &v)) {
      workload.num_requests = std::atoi(v);
    } else if (FlagValue(arg, "--zipf", &v)) {
      workload.zipf_exponent = std::atof(v);
    } else if (FlagValue(arg, "--write-mix", &v)) {
      workload.write_fraction = std::atof(v);
    } else if (FlagValue(arg, "--remove-fraction", &v)) {
      workload.remove_fraction = std::atof(v);
      if (!(workload.remove_fraction >= 0.0) ||
          workload.remove_fraction > 1.0) {
        std::fprintf(stderr,
                     "impreg_loadgen: --remove-fraction must be in [0, 1]\n");
        return kExitUsage;
      }
    } else if (FlagValue(arg, "--pattern", &v)) {
      if (!ArrivalPatternFromName(v, &workload.pattern)) {
        std::fprintf(stderr, "impreg_loadgen: unknown pattern '%s'\n", v);
        return kExitUsage;
      }
    } else if (FlagValue(arg, "--batch", &v)) {
      workload.batch_size = std::atoi(v);
    } else if (FlagValue(arg, "--seeds-per-query", &v)) {
      workload.seeds_per_query = std::atoi(v);
    } else if (FlagValue(arg, "--method", &v)) {
      if (!QueryMethodFromName(v, &workload.method)) {
        std::fprintf(stderr, "impreg_loadgen: unknown method '%s'\n", v);
        return kExitUsage;
      }
    } else if (FlagValue(arg, "--epsilon", &v)) {
      workload.epsilon = std::atof(v);
    } else if (FlagValue(arg, "--max-work", &v)) {
      workload.max_work = std::strtoll(v, nullptr, 10);
    } else if (FlagValue(arg, "--tenants", &v)) {
      workload.tenants = SplitCommas(v);
    } else if (FlagValue(arg, "--nodes", &v)) {
      nodes = std::strtoll(v, nullptr, 10);
    } else if (FlagValue(arg, "--avg-degree", &v)) {
      avg_degree = std::atof(v);
    } else if (FlagValue(arg, "--capacity", &v)) {
      capacity = std::strtoll(v, nullptr, 10);
    } else if (FlagValue(arg, "--degrade-fraction", &v)) {
      engine_options.admission.policy.degrade_fraction = std::atof(v);
    } else if (FlagValue(arg, "--shed-fraction", &v)) {
      engine_options.admission.policy.shed_fraction = std::atof(v);
    } else if (FlagValue(arg, "--degraded-cap", &v)) {
      engine_options.admission.policy.degraded_cap =
          std::strtoll(v, nullptr, 10);
    } else if (FlagValue(arg, "--default-cost", &v)) {
      engine_options.admission.policy.default_cost =
          std::strtoll(v, nullptr, 10);
    } else if (FlagValue(arg, "--cache-capacity", &v)) {
      engine_options.cache_capacity =
          static_cast<std::size_t>(std::strtoll(v, nullptr, 10));
    } else if (FlagValue(arg, "--name", &v)) {
      name = v;
    } else if (FlagValue(arg, "--out", &v)) {
      out_path = v;
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      engine_options.enable_cache = false;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "impreg_loadgen: unknown argument '%s'\n", arg);
      return kExitUsage;
    }
  }
  if (nodes < 2 || workload.num_requests < 1 || workload.batch_size < 1 ||
      workload.seeds_per_query < 1) {
    return Usage();
  }

  if (capacity > 0) {
    engine_options.admission.enabled = true;
    engine_options.admission.policy.capacity = capacity;
  }

  // The base graph is itself seeded from --seed so one flag pins the
  // whole run.
  Rng graph_rng(workload.seed ^ 0x9e3779b97f4a7c15ULL);
  const double p =
      avg_degree / static_cast<double>(nodes > 1 ? nodes - 1 : 1);
  const Graph graph =
      ErdosRenyi(static_cast<NodeId>(nodes), p > 1.0 ? 1.0 : p, graph_rng);

  ImpregEnableMetrics(true);
  QueryEngine engine(graph, engine_options);
  const Workload load = GenerateWorkload(workload, graph.NumNodes());
  const LoadStats stats = RunLoadWorkload(engine, load);

  std::printf("workload: %d events (%d queries, %d writes) in %d batches "
              "[%s, zipf %.2f, seed %llu]\n",
              stats.events, stats.queries, stats.writes, stats.batches,
              ArrivalPatternName(workload.pattern), workload.zipf_exponent,
              static_cast<unsigned long long>(workload.seed));
  std::printf("graph: %lld nodes, %lld edges; threads: %d; cache: %s; "
              "admission: %s\n",
              static_cast<long long>(graph.NumNodes()),
              static_cast<long long>(graph.NumEdges()), ImpregNumThreads(),
              engine_options.enable_cache ? "on" : "off",
              engine_options.admission.enabled ? "on" : "off");
  std::printf("provenance: cold %lld, warm %lld, cached %lld; "
              "degraded %lld, shed %lld, invalid %lld\n",
              static_cast<long long>(stats.cold),
              static_cast<long long>(stats.warm),
              static_cast<long long>(stats.cached),
              static_cast<long long>(stats.degraded),
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.invalid));
  std::printf("latency ns: mean %.0f, p50 %.0f, p95 %.0f, p99 %.0f "
              "(status: %s)\n",
              stats.mean_ns, stats.p50_ns, stats.p95_ns, stats.p99_ns,
              SolveStatusName(stats.status));
  for (const auto& [tenant, t] : stats.tenants) {
    std::printf("tenant %-12s exact %lld, degraded %lld, shed %lld, "
                "spent %lld arcs\n",
                (tenant.empty() ? "\"\"" : tenant.c_str()),
                static_cast<long long>(t.admitted_exact),
                static_cast<long long>(t.admitted_degraded),
                static_cast<long long>(t.shed),
                static_cast<long long>(t.spent_arcs));
  }

  if (!out_path.empty()) {
    const BenchRecord record = LoadStatsRecord(
        name, stats, graph.NumNodes(), graph.NumEdges(), ImpregNumThreads());
    if (!WriteBenchReport(out_path, {record}, LoadMetricsJson(stats))) {
      std::fprintf(stderr, "impreg_loadgen: cannot write '%s'\n",
                   out_path.c_str());
      return kExitWrite;
    }
    std::printf("report: %s (%s)\n", out_path.c_str(), name.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace impreg

int main(int argc, char** argv) { return impreg::Run(argc, argv); }
