// impreg_cli — command-line driver for interactive graph analysis.
//
// The paper's introduction argues that large-scale data analysis "places
// a premium on algorithmic methods that permit the analyst to play with
// the data and work with the data interactively". This tool is that
// workflow over edge-list files: structural stats, spectral summaries,
// seeded clustering, NCP profiles, PageRank and k-way partitioning —
// all built on the strongly local / implicitly regularized machinery,
// so every command is interactive-speed even on large inputs.
//
// Usage:
//   impreg_cli stats      <edgelist>
//   impreg_cli v2         <edgelist>
//   impreg_cli cluster    <edgelist> <seed-node> [seed-node...]
//   impreg_cli ncp        <edgelist>
//   impreg_cli pagerank   <edgelist> [gamma]
//   impreg_cli partition  <edgelist> <k>
//   impreg_cli generate   <family> <n> <out-file> [seed]
//                         (family: social | ba | er | forestfire)
//   impreg_cli query-batch <edgelist> <requests.jsonl>
//   impreg_cli serve      <edgelist> <requests.jsonl> [--wal=FILE]
//                         [--snapshot-dir=DIR] [--snapshot-every=N]
//                         [--sync-every=N]
//   impreg_cli recover    <edgelist> [--wal=FILE] [--snapshot-dir=DIR]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/impreg.h"

namespace impreg {
namespace {

// Exit codes, so scripts can tell *why* a run failed:
//   0 success, 2 usage error, 3 input error (unreadable or malformed
//   graph, bad arguments), 4 solver failure (non-finite values or
//   breakdown — details go to stderr).
constexpr int kExitUsage = 2;
constexpr int kExitInput = 3;
constexpr int kExitSolver = 4;

void PrintHelp(std::FILE* out) {
  std::fprintf(
      out,
      "usage: impreg_cli <command> [args]\n"
      "\n"
      "commands:\n"
      "  stats      <edgelist>                   structural summary\n"
      "  v2         <edgelist>                   lambda2 + spectral sweep "
      "cut\n"
      "  cluster    <edgelist> <seed> [seed...]  seeded local clustering\n"
      "  ncp        <edgelist>                   network community profile\n"
      "  pagerank   <edgelist> [gamma]           global PageRank top-20\n"
      "  partition  <edgelist> <k>               k-way partition\n"
      "  generate   <family> <n> <out> [seed]    family: "
      "social|ba|er|forestfire\n"
      "  query-batch <edgelist> <requests.jsonl> serve a JSONL query batch\n"
      "                                          (schema: docs/serving.md)\n"
      "  serve      <edgelist> <requests.jsonl>  query-batch + durability:\n"
      "             [--wal=FILE] [--snapshot-dir=DIR] [--snapshot-every=N]\n"
      "             [--sync-every=N]             recover, then write-ahead\n"
      "                                          log every accepted edit\n"
      "                                          (docs/durability.md)\n"
      "  recover    <edgelist> [--wal=FILE] [--snapshot-dir=DIR]\n"
      "                                          replay durability state\n"
      "                                          and report what survives\n"
      "\n"
      "global flags (before or after the command):\n"
      "  --metrics            print the metrics snapshot (solver\n"
      "                       counters, pool busy time) to stderr\n"
      "  --trace-json=FILE    record per-solver convergence traces and\n"
      "                       write the impreg-trace-v1 JSON to FILE\n"
      "\n"
      "exit codes:\n"
      "  0  success\n"
      "  2  usage error\n"
      "  3  input error (unreadable/malformed graph, bad arguments;\n"
      "     parse errors name the failing line)\n"
      "  4  solver failure (non-finite values or breakdown; diagnostics\n"
      "     on stderr)\n");
}

int Usage() {
  PrintHelp(stderr);
  return kExitUsage;
}

Graph LoadOrDie(const std::string& path) {
  GraphParseResult parsed = ReadEdgeListOrError(path);
  if (!parsed.ok()) {
    if (parsed.error_line > 0) {
      std::fprintf(stderr, "impreg_cli: %s:%d: %s\n", path.c_str(),
                   parsed.error_line, parsed.error.c_str());
    } else {
      std::fprintf(stderr, "impreg_cli: %s: %s\n", path.c_str(),
                   parsed.error.c_str());
    }
    std::exit(kExitInput);
  }
  return std::move(*parsed.graph);
}

// Surfaces a solver's diagnostics on stderr. Returns false when the
// result is unusable (the caller should exit kExitSolver); a usable
// early stop (budget / iteration cap) is only warned about.
bool ReportDiagnostics(const char* what, const SolverDiagnostics& diag) {
  if (diag.ok()) return true;
  std::fprintf(stderr, "impreg_cli: %s: %s\n", what, diag.Summary().c_str());
  return diag.usable();
}

int CmdStats(const std::string& path) {
  const Graph g = LoadOrDie(path);
  const DegreeStats degrees = ComputeDegreeStats(g);
  std::printf("nodes                 %d\n", g.NumNodes());
  std::printf("edges                 %lld\n",
              static_cast<long long>(g.NumEdges()));
  std::printf("volume                %.6g\n", g.TotalVolume());
  std::printf("degree min/med/mean/max  %.3g / %.3g / %.3g / %.3g\n",
              degrees.min, degrees.median, degrees.mean, degrees.max);
  std::printf("components            %d\n", CountComponents(g));
  if (g.NumNodes() > 0) {
    std::printf("diameter (lower bd.)  %d\n", EstimateDiameter(g));
  }
  std::printf("degeneracy (max core) %d\n", Degeneracy(g));
  std::printf("triangles             %lld\n",
              static_cast<long long>(CountTriangles(g)));
  std::printf("avg clustering coef.  %.4f\n",
              AverageClusteringCoefficient(g));
  const auto whiskers = FindWhiskers(g);
  double whisker_volume = 0.0;
  for (const Whisker& w : whiskers) whisker_volume += w.volume;
  std::printf("whiskers              %zu (%.2f%% of volume)\n",
              whiskers.size(),
              g.TotalVolume() > 0.0
                  ? 100.0 * whisker_volume / g.TotalVolume()
                  : 0.0);
  return 0;
}

int CmdV2(const std::string& path) {
  const Graph g = LoadOrDie(path);
  if (g.NumEdges() == 0) {
    std::fprintf(stderr, "impreg_cli: graph has no edges\n");
    return kExitInput;
  }
  SpectralPartitionOptions options;
  options.lanczos.max_iterations = 800;
  const SpectralPartitionResult result = SpectralPartition(g, options);
  std::printf("lambda2               %.8g\n", result.lambda2);
  std::printf("Cheeger bounds        [%.6g, %.6g]\n", result.cheeger_lower,
              result.cheeger_upper);
  std::printf("sweep cut |S|         %zu\n", result.set.size());
  std::printf("sweep cut conductance %.6g\n", result.stats.conductance);
  std::printf("sweep cut edge weight %.6g\n", result.stats.cut);
  return 0;
}

int CmdCluster(const std::string& path, int argc, char** argv) {
  const Graph g = LoadOrDie(path);
  std::vector<NodeId> seeds;
  for (int i = 0; i < argc; ++i) {
    const long node = std::strtol(argv[i], nullptr, 10);
    if (node < 0 || node >= g.NumNodes()) {
      std::fprintf(stderr, "impreg_cli: seed %ld out of range\n", node);
      return kExitInput;
    }
    seeds.push_back(static_cast<NodeId>(node));
  }
  const SeedExpansionResult result = ExpandSeedSet(g, seeds);
  std::printf("method        %s\n", result.method.c_str());
  std::printf("|S|           %zu\n", result.set.size());
  std::printf("conductance   %.6g\n", result.stats.conductance);
  std::printf("volume        %.6g\n", result.stats.volume);
  const NicenessReport nice = ComputeNiceness(g, result.set);
  std::printf("avg path      %.3f\n", nice.avg_shortest_path);
  std::printf("ext/int ratio %.4g\n", nice.conductance_ratio);
  std::printf("members      ");
  for (std::size_t i = 0; i < result.set.size() && i < 40; ++i) {
    std::printf(" %d", result.set[i]);
  }
  if (result.set.size() > 40) std::printf(" ... (%zu total)",
                                          result.set.size());
  std::printf("\n");
  return 0;
}

int CmdNcp(const std::string& path) {
  const Graph g = LoadOrDie(path);
  SolverDiagnostics spectral_diag, flow_diag;
  const auto spectral = SpectralFamilyClusters(g, {}, &spectral_diag);
  const auto flow = FlowFamilyClusters(g, {}, &flow_diag);
  if (!ReportDiagnostics("spectral portfolio", spectral_diag) ||
      !ReportDiagnostics("flow portfolio", flow_diag)) {
    return kExitSolver;
  }
  Table table({"family", "size", "conductance", "method"});
  for (const auto& family :
       {std::pair(&spectral, "spectral"), std::pair(&flow, "flow")}) {
    for (const NcpPoint& point :
         BestPerSizeBin(*family.first, 12, g.NumNodes() / 2)) {
      table.AddRow({family.second, std::to_string(point.size),
                    FormatG(point.conductance, 4), point.cluster.method});
    }
  }
  table.Print();
  return 0;
}

int CmdPageRank(const std::string& path, double gamma) {
  const Graph g = LoadOrDie(path);
  PageRankOptions options;
  options.gamma = gamma;
  const PageRankResult result = GlobalPageRank(g, options);
  if (!ReportDiagnostics("pagerank", result.diagnostics)) {
    return kExitSolver;
  }
  std::vector<int> ids(g.NumNodes());
  std::iota(ids.begin(), ids.end(), 0);
  const int k = std::min<int>(20, g.NumNodes());
  std::partial_sort(ids.begin(), ids.begin() + k, ids.end(),
                    [&](int a, int b) {
                      return result.scores[a] > result.scores[b];
                    });
  Table table({"rank", "node", "pagerank", "degree"});
  for (int r = 0; r < k; ++r) {
    table.AddRow({std::to_string(r + 1), std::to_string(ids[r]),
                  FormatG(result.scores[ids[r]], 5),
                  FormatG(g.Degree(ids[r]), 4)});
  }
  table.Print();
  return 0;
}

int CmdPartition(const std::string& path, int k) {
  const Graph g = LoadOrDie(path);
  if (k < 1 || k > g.NumNodes()) {
    std::fprintf(stderr, "impreg_cli: k must be in [1, n]\n");
    return kExitInput;
  }
  const KwayResult result = KwayPartition(g, k);
  if (!ReportDiagnostics("partition", result.diagnostics)) {
    return kExitSolver;
  }
  std::printf("blocks  %d\n", k);
  std::printf("cut     %.6g (%.2f%% of edge weight)\n", result.cut,
              g.TotalVolume() > 0.0
                  ? 100.0 * result.cut / (0.5 * g.TotalVolume())
                  : 0.0);
  Table table({"block", "nodes"});
  for (int b = 0; b < k; ++b) {
    table.AddRow({std::to_string(b), std::to_string(result.sizes[b])});
  }
  table.Print();
  return 0;
}

int CmdGenerate(const std::string& family, NodeId n, const std::string& out,
                std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  if (family == "social") {
    SocialGraphParams params;
    params.core_nodes = std::max<NodeId>(n, 100);
    params.num_whiskers = n / 80;
    g = MakeWhiskeredSocialGraph(params, rng).graph;
  } else if (family == "ba") {
    g = BarabasiAlbert(n, 4, rng);
  } else if (family == "er") {
    g = ErdosRenyi(n, 8.0 / std::max<NodeId>(n, 1), rng);
  } else if (family == "forestfire") {
    g = ForestFire(n, 0.35, rng);
  } else {
    std::fprintf(stderr, "impreg_cli: unknown family '%s'\n",
                 family.c_str());
    return kExitInput;
  }
  if (!WriteEdgeList(g, out)) {
    std::fprintf(stderr, "impreg_cli: cannot write '%s'\n", out.c_str());
    return kExitInput;
  }
  std::printf("wrote %s: n=%d m=%lld\n", out.c_str(), g.NumNodes(),
              static_cast<long long>(g.NumEdges()));
  return 0;
}

// `--name=value` flag matcher.
bool FlagValue(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

// Parses a JSONL request file and submits each line to a ServeLoop over
// `engine` (service/serve_loop.h); at end of input, prints every group's
// response lines and, with `snapshot_dir` set, writes one more snapshot.
int ServeRequestFile(QueryEngine& engine, const std::string& requests_path,
                     durability::WriteAheadLog* wal = nullptr,
                     const std::string& snapshot_dir = "",
                     int snapshot_every = 0) {
  std::ifstream in(requests_path);
  if (!in) {
    std::fprintf(stderr, "impreg_cli: cannot read '%s'\n",
                 requests_path.c_str());
    return kExitInput;
  }
  ServeLoop loop(engine, wal, snapshot_dir, snapshot_every);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    QueryRequest request;
    std::string error;
    if (!ParseQueryRequest(line, &request, &error)) {
      std::fprintf(stderr, "impreg_cli: %s:%d: %s\n", requests_path.c_str(),
                   line_number, error.c_str());
      return kExitInput;
    }
    const SubmitResult submitted = loop.Submit(std::move(request));
    if (submitted.outcome == SubmitOutcome::kSnapshotFailed) {
      std::fprintf(stderr, "impreg_cli: %s\n", submitted.detail.c_str());
      return kExitSolver;
    }
    if (submitted.outcome != SubmitOutcome::kAccepted) {
      std::fprintf(stderr, "impreg_cli: %s:%d: %s\n", requests_path.c_str(),
                   line_number, submitted.detail.c_str());
      return submitted.outcome == SubmitOutcome::kRejected ? kExitInput
                                                           : kExitSolver;
    }
  }

  bool any_unusable = false;
  loop.Flush([&any_unusable](ServedGroup& group) {
    for (std::size_t i = 0; i < group.lines.size(); ++i) {
      if (!StatusIsUsable(group.responses[i].status)) any_unusable = true;
      std::printf("%s\n", group.lines[i].c_str());
    }
  });
  if (!snapshot_dir.empty()) {
    const durability::SnapshotWriteResult written = loop.WriteSnapshot();
    if (written.status != SolveStatus::kConverged) {
      std::fprintf(stderr, "impreg_cli: snapshot failed: %s\n",
                   written.detail.c_str());
      return kExitSolver;
    }
  }
  if (any_unusable) {
    std::fprintf(stderr,
                 "impreg_cli: one or more queries returned an unusable "
                 "status (see the \"status\" fields)\n");
    return kExitSolver;
  }
  return 0;
}

int CmdQueryBatch(int argc, char** argv) {
  std::string graph_path, requests_path;
  for (int i = 0; i < argc; ++i) {
    if (graph_path.empty()) {
      graph_path = argv[i];
    } else if (requests_path.empty()) {
      requests_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "impreg_cli: query-batch: unexpected argument '%s'\n",
                   argv[i]);
      return kExitUsage;
    }
  }
  if (graph_path.empty() || requests_path.empty()) {
    std::fprintf(stderr,
                 "impreg_cli: query-batch: need <edgelist> "
                 "<requests.jsonl>\n");
    return kExitUsage;
  }
  const Graph g = LoadOrDie(graph_path);
  QueryEngine engine(g);
  return ServeRequestFile(engine, requests_path);
}

void PrintRecoveryReport(const durability::RecoveryReport& report,
                         std::FILE* out) {
  std::fprintf(out, "status              %s\n",
               SolveStatusName(report.status));
  std::fprintf(out, "epoch               %lld\n",
               static_cast<long long>(report.epoch));
  std::fprintf(out, "snapshot epoch      %lld\n",
               static_cast<long long>(report.snapshot_epoch));
  std::fprintf(out, "snapshots rejected  %lld\n",
               static_cast<long long>(report.snapshots_rejected));
  std::fprintf(out, "wal records         %lld\n",
               static_cast<long long>(report.wal_records));
  std::fprintf(out, "replayed            %lld\n",
               static_cast<long long>(report.replayed));
  std::fprintf(out, "wal truncated       %s\n",
               report.wal_truncated ? "yes" : "no");
  std::fprintf(out, "cache restored      %lld\n",
               static_cast<long long>(report.cache_restored));
  std::fprintf(out, "detail              %s\n", report.detail.c_str());
}

// serve: query-batch + durability. Recovers from --wal/--snapshot-dir
// first (so a restart resumes exactly where the crash left off), then
// appends every accepted edit to the WAL before applying it.
int CmdServe(int argc, char** argv) {
  std::string graph_path, requests_path, wal_path, snapshot_dir, value;
  int snapshot_every = 0;
  int sync_every = 1;
  for (int i = 0; i < argc; ++i) {
    if (FlagValue(argv[i], "--wal", &wal_path)) continue;
    if (FlagValue(argv[i], "--snapshot-dir", &snapshot_dir)) continue;
    if (FlagValue(argv[i], "--snapshot-every", &value)) {
      snapshot_every = static_cast<int>(std::strtol(value.c_str(),
                                                    nullptr, 10));
      continue;
    }
    if (FlagValue(argv[i], "--sync-every", &value)) {
      sync_every = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
      continue;
    }
    if (graph_path.empty()) {
      graph_path = argv[i];
    } else if (requests_path.empty()) {
      requests_path = argv[i];
    } else {
      std::fprintf(stderr, "impreg_cli: serve: unexpected argument '%s'\n",
                   argv[i]);
      return kExitUsage;
    }
  }
  if (graph_path.empty() || requests_path.empty() ||
      (wal_path.empty() && !snapshot_dir.empty())) {
    std::fprintf(stderr,
                 "impreg_cli: serve: need <edgelist> <requests.jsonl>, and "
                 "--snapshot-dir requires --wal\n");
    return kExitUsage;
  }

  const Graph g = LoadOrDie(graph_path);
  std::unique_ptr<QueryEngine> engine;
  durability::WriteAheadLog wal;
  if (wal_path.empty()) {
    engine = std::make_unique<QueryEngine>(g);
  } else {
    durability::RecoveryOptions recovery;
    recovery.wal_path = wal_path;
    recovery.snapshot_dir = snapshot_dir;
    const durability::RecoveryReport report = durability::RecoverEngine(
        DynamicGraph::FromGraph(g), QueryEngine::Options(), recovery,
        &engine);
    if (report.status == SolveStatus::kInvalidInput) {
      std::fprintf(stderr, "impreg_cli: recovery failed: %s\n",
                   report.detail.c_str());
      return kExitInput;
    }
    std::fprintf(stderr, "impreg_cli: %s\n", report.detail.c_str());
    durability::WalOptions wal_options;
    wal_options.sync_every = sync_every;
    std::string detail;
    if (wal.Open(wal_path, wal_options, &detail) != SolveStatus::kConverged) {
      std::fprintf(stderr, "impreg_cli: cannot open WAL '%s': %s\n",
                   wal_path.c_str(), detail.c_str());
      return kExitInput;
    }
  }
  return ServeRequestFile(*engine, requests_path,
                          wal.is_open() ? &wal : nullptr, snapshot_dir,
                          snapshot_every);
}

// recover: run the recovery ladder and report what it found — the
// offline fsck for a serve state directory.
int CmdRecover(int argc, char** argv) {
  std::string graph_path, wal_path, snapshot_dir;
  for (int i = 0; i < argc; ++i) {
    if (FlagValue(argv[i], "--wal", &wal_path)) continue;
    if (FlagValue(argv[i], "--snapshot-dir", &snapshot_dir)) continue;
    if (graph_path.empty()) {
      graph_path = argv[i];
    } else {
      std::fprintf(stderr, "impreg_cli: recover: unexpected argument '%s'\n",
                   argv[i]);
      return kExitUsage;
    }
  }
  if (graph_path.empty() || (wal_path.empty() && snapshot_dir.empty())) {
    std::fprintf(stderr,
                 "impreg_cli: recover: need <edgelist> and --wal and/or "
                 "--snapshot-dir\n");
    return kExitUsage;
  }
  const Graph g = LoadOrDie(graph_path);
  durability::RecoveryOptions recovery;
  recovery.wal_path = wal_path;
  recovery.snapshot_dir = snapshot_dir;
  // Report only — leave a torn tail in place so a later `serve` (which
  // truncates) sees the same evidence.
  recovery.truncate_torn_tail = false;
  std::unique_ptr<QueryEngine> engine;
  const durability::RecoveryReport report =
      durability::RecoverEngine(DynamicGraph::FromGraph(g),
                                QueryEngine::Options(), recovery, &engine);
  PrintRecoveryReport(report, stdout);
  if (engine != nullptr) {
    std::printf("graph nodes         %d\n", engine->graph().NumNodes());
    std::printf("graph edges         %lld\n",
                static_cast<long long>(engine->graph().NumEdges()));
  }
  return report.status == SolveStatus::kInvalidInput ? kExitInput : 0;
}

// Per-command argument floor + usage one-liner: a known command with
// too few arguments gets a specific diagnostic instead of the full
// help dump.
struct CommandSpec {
  const char* name;
  int min_argc;
  const char* usage;
};

constexpr CommandSpec kCommands[] = {
    {"stats", 3, "stats <edgelist>"},
    {"v2", 3, "v2 <edgelist>"},
    {"cluster", 4, "cluster <edgelist> <seed> [seed...]"},
    {"ncp", 3, "ncp <edgelist>"},
    {"pagerank", 3, "pagerank <edgelist> [gamma]"},
    {"partition", 4, "partition <edgelist> <k>"},
    {"generate", 5, "generate <family> <n> <out> [seed]"},
    {"query-batch", 4, "query-batch <edgelist> <requests.jsonl>"},
    {"serve", 4,
     "serve <edgelist> <requests.jsonl> [--wal=FILE] [--snapshot-dir=DIR] "
     "[--snapshot-every=N] [--sync-every=N]"},
    {"recover", 3, "recover <edgelist> [--wal=FILE] [--snapshot-dir=DIR]"},
};

int Run(int argc, char** argv) {
  // Observability flags are position-independent: strip them before
  // command dispatch. Collection is enabled *before* the command runs
  // and never feeds back into it — outputs are bit-identical either
  // way (core/metrics.h, core/trace.h).
  bool want_metrics = false;
  std::string trace_json_path;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      want_metrics = true;
    } else if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      trace_json_path = argv[i] + 13;
      if (trace_json_path.empty()) {
        std::fprintf(stderr, "impreg_cli: --trace-json needs a file name\n");
        return kExitUsage;
      }
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  if (want_metrics) ImpregEnableMetrics(true);
  if (!trace_json_path.empty()) TraceCollector::Get().Enable();

  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0 ||
                    std::strcmp(argv[1], "help") == 0)) {
    PrintHelp(stdout);
    return 0;
  }
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const CommandSpec* spec = nullptr;
  for (const CommandSpec& candidate : kCommands) {
    if (command == candidate.name) {
      spec = &candidate;
      break;
    }
  }
  if (spec == nullptr) return Usage();
  if (argc < spec->min_argc) {
    std::fprintf(stderr,
                 "impreg_cli: %s: missing required argument(s); usage: "
                 "impreg_cli %s\n",
                 command.c_str(), spec->usage);
    return kExitUsage;
  }
  const int code = [&]() -> int {
    if (command == "stats") return CmdStats(argv[2]);
    if (command == "v2") return CmdV2(argv[2]);
    if (command == "cluster") {
      return CmdCluster(argv[2], argc - 3, argv + 3);
    }
    if (command == "ncp") return CmdNcp(argv[2]);
    if (command == "pagerank") {
      const double gamma = argc >= 4 ? std::strtod(argv[3], nullptr) : 0.15;
      return CmdPageRank(argv[2], gamma);
    }
    if (command == "partition") {
      return CmdPartition(argv[2], static_cast<int>(
                                       std::strtol(argv[3], nullptr, 10)));
    }
    if (command == "generate") {
      const std::uint64_t seed =
          argc >= 6 ? std::strtoull(argv[5], nullptr, 10) : 42;
      return CmdGenerate(argv[2],
                         static_cast<NodeId>(std::strtol(argv[3], nullptr, 10)),
                         argv[4], seed);
    }
    if (command == "query-batch") return CmdQueryBatch(argc - 2, argv + 2);
    if (command == "serve") return CmdServe(argc - 2, argv + 2);
    if (command == "recover") return CmdRecover(argc - 2, argv + 2);
    return Usage();
  }();

  // Observability output is emitted even when the command failed —
  // a kExitSolver trace is exactly when you want the trajectory.
  if (want_metrics) {
    std::fprintf(stderr, "%s",
                 MetricsRegistry::Get().Snapshot().ToText().c_str());
  }
  if (!trace_json_path.empty()) {
    if (!TraceCollector::Get().WriteJson(trace_json_path)) {
      std::fprintf(stderr, "impreg_cli: cannot write '%s'\n",
                   trace_json_path.c_str());
      return code == 0 ? kExitInput : code;
    }
    std::fprintf(stderr, "impreg_cli: trace written to %s\n",
                 trace_json_path.c_str());
  }
  return code;
}

}  // namespace
}  // namespace impreg

int main(int argc, char** argv) { return impreg::Run(argc, argv); }
