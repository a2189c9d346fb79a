// BM_Wal* / BM_Snapshot* / BM_Recovery / BM_PinnedEdit / BM_FromGraph /
// BM_ToGraph — the durability benchmark family.
//
// Measures the costs the durability layer and its copy-on-write graph
// add to the serving path, over synthetic graphs and edit streams:
//
//   BM_WalAppend/batched   append throughput, one fsync at the end
//   BM_WalAppend/durable   append with fsync-per-record (sync_every=1)
//   BM_SnapshotWrite       full checksummed image + atomic publish
//   BM_Recovery            snapshot load + WAL suffix replay + engine
//   BM_PinnedEdit/<n>      the first edit after a snapshot pin (page
//                          table copy + <= 2 page clones), at two sizes
//   BM_FromGraph/<n>       CSR -> DynamicGraph load (set-up, recovery)
//   BM_ToGraph/<n>         DynamicGraph -> CSR freeze (per-epoch CSR)
//
// All files live in a scratch directory under the system temp path;
// nothing persists after the run. The report's `metrics` member carries
// the reproducible half (record/byte/epoch counts — identical across
// machines); the ns_per_iter fields are wall-clock and are gated by
// trajectory via `impreg_bench_diff` with generous thresholds (see the
// durability_report_gate ctest and bench/durability_gate.cmake). A copy
// of this report is checked in at bench/out/BENCH_durability.json as
// the baseline — minus BM_WalAppend/durable, whose fsync-bound time
// swings with concurrent disk load and is reported one-sided instead
// of gated.
//
// Usage: durability_bench [--out=PATH]
//   (default: BENCH_durability.json in the build tree; refresh the
//   checked-in baseline only with --out=bench/out/BENCH_durability.json)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/report.h"
#include "core/parallel.h"
#include "graph/random_graphs.h"
#include "service/durability/recovery.h"
#include "service/durability/snapshot.h"
#include "service/durability/wal.h"
#include "service/query_engine.h"
#include "streaming/dynamic_graph.h"
#include "util/check.h"
#include "util/rng.h"

#ifndef IMPREG_BENCH_REPORT_DIR
#define IMPREG_BENCH_REPORT_DIR "bench/out"
#endif

namespace impreg {
namespace {

namespace fs = std::filesystem;

constexpr int kNodes = 2048;
constexpr int kLargeNodes = 131072;
constexpr int kEdits = 1024;
constexpr int kDurableEdits = 128;  // fsync per record: keep it short.
constexpr std::int64_t kSnapshotEpoch = kEdits / 2;

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<durability::WalRecord> MakeEdits(NodeId num_nodes, int count) {
  Rng rng(23);
  std::vector<durability::WalRecord> edits;
  edits.reserve(count);
  while (static_cast<int>(edits.size()) < count) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(num_nodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(num_nodes));
    if (u == v) continue;
    edits.push_back({u, v, 0.5 + rng.NextBounded(4) * 0.25});
  }
  return edits;
}

int Run(int argc, char** argv) {
  std::string out_path =
      std::string(IMPREG_BENCH_REPORT_DIR) + "/BENCH_durability.json";
  if (const char* env = std::getenv("IMPREG_BENCH_REPORT")) out_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  const fs::path dir = fs::temp_directory_path() / "impreg_durability_bench";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);

  Rng graph_rng(7);
  const Graph base = ErdosRenyi(kNodes, 8.0 / (kNodes - 1), graph_rng);
  const std::vector<durability::WalRecord> edits = MakeEdits(kNodes, kEdits);

  std::vector<BenchRecord> records;
  auto emit = [&](const std::string& name, double ns_per_iter,
                  const Graph& graph) {
    BenchRecord r;
    r.bench = name;
    r.n = graph.NumNodes();
    r.m = graph.NumEdges();
    r.threads = ImpregNumThreads();
    r.ns_per_iter = ns_per_iter;
    records.push_back(r);
    std::printf("%-24s %12.0f ns/iter\n", name.c_str(), ns_per_iter);
  };

  // BM_WalAppend/batched: framing + checksum + write(2) per record, one
  // fsync when the batch closes — the bulk-ingest shape.
  {
    constexpr int kReps = 4;
    double total = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::string path =
          (dir / ("batched-" + std::to_string(rep) + ".wal")).string();
      durability::WriteAheadLog wal;
      durability::WalOptions opts;
      opts.sync_every = 0;
      IMPREG_CHECK(wal.Open(path, opts) == SolveStatus::kConverged);
      const double start = NowNs();
      for (const auto& e : edits) {
        IMPREG_CHECK(wal.AppendAddEdge(e.u, e.v, e.weight) ==
                     SolveStatus::kConverged);
      }
      IMPREG_CHECK(wal.Sync() == SolveStatus::kConverged);
      total += NowNs() - start;
      wal.Close();
    }
    emit("BM_WalAppend/batched", total / (kReps * kEdits), base);
  }

  // BM_WalAppend/durable: fsync per record — the per-edit durability
  // cost an acknowledged mutation pays.
  {
    const std::string path = (dir / "durable.wal").string();
    durability::WriteAheadLog wal;
    IMPREG_CHECK(wal.Open(path, {}) == SolveStatus::kConverged);
    const double start = NowNs();
    for (int i = 0; i < kDurableEdits; ++i) {
      const auto& e = edits[i];
      IMPREG_CHECK(wal.AppendAddEdge(e.u, e.v, e.weight) ==
                   SolveStatus::kConverged);
    }
    const double total = NowNs() - start;
    wal.Close();
    emit("BM_WalAppend/durable", total / kDurableEdits, base);
  }

  // The recovery scene both remaining benches share: a snapshot halfway
  // through the edit stream plus the full WAL.
  DynamicGraph graph = DynamicGraph::FromGraph(base);
  const std::string wal_path = (dir / "scene.wal").string();
  const std::string snap_dir = (dir / "snapshots").string();
  {
    durability::WriteAheadLog wal;
    IMPREG_CHECK(wal.Open(wal_path, {}) == SolveStatus::kConverged);
    for (std::int64_t i = 0; i < kEdits; ++i) {
      const auto& e = edits[static_cast<std::size_t>(i)];
      IMPREG_CHECK(wal.AppendAddEdge(e.u, e.v, e.weight) ==
                   SolveStatus::kConverged);
      graph.AddEdge(e.u, e.v, e.weight);
      if (i + 1 == kSnapshotEpoch) {
        IMPREG_CHECK(
            durability::WriteSnapshot(snap_dir, kSnapshotEpoch, graph, {})
                .status == SolveStatus::kConverged);
      }
    }
  }

  // BM_SnapshotWrite: serialize + checksum + atomic publish of the full
  // graph image.
  {
    constexpr int kReps = 8;
    const double start = NowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      IMPREG_CHECK(durability::WriteSnapshot((dir / "snap-bench").string(),
                                             kEdits, graph, {})
                       .status == SolveStatus::kConverged);
    }
    emit("BM_SnapshotWrite", (NowNs() - start) / kReps, base);
  }

  // BM_Recovery: the full ladder — newest snapshot, WAL read + suffix
  // replay, engine rebuild.
  std::int64_t recovered_epoch = 0;
  {
    constexpr int kReps = 8;
    durability::RecoveryOptions ropts;
    ropts.wal_path = wal_path;
    ropts.snapshot_dir = snap_dir;
    const double start = NowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      std::unique_ptr<QueryEngine> engine;
      const durability::RecoveryReport report = durability::RecoverEngine(
          DynamicGraph::FromGraph(base), {}, ropts, &engine);
      IMPREG_CHECK(report.status == SolveStatus::kConverged);
      recovered_epoch = report.epoch;
    }
    emit("BM_Recovery", (NowNs() - start) / kReps, base);
  }

  // BM_PinnedEdit/<n>: what a serving edit pays while a batch holds its
  // snapshot — pin, edit (page table copy + <= 2 page clones), release.
  // The best of several passes, so a preempted pass cannot trip the
  // gate. The large size would cost O(n + m) per edit with a
  // whole-graph copy-on-write.
  Rng large_rng(9);
  const Graph large =
      ErdosRenyi(kLargeNodes, 8.0 / (kLargeNodes - 1), large_rng);
  constexpr int kPasses = 5;
  for (const Graph* g : {&base, &large}) {
    const std::vector<durability::WalRecord> stream =
        MakeEdits(g->NumNodes(), kEdits / 2);
    double best = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < kPasses; ++pass) {
      DynamicGraph live = DynamicGraph::FromGraph(*g);
      const double start = NowNs();
      for (const auto& e : stream) {
        const DynamicGraph::SnapshotView pin = live.Snapshot();
        live.AddEdge(e.u, e.v, e.weight);
      }
      best = std::min(best, (NowNs() - start) / stream.size());
    }
    emit("BM_PinnedEdit/" + std::to_string(g->NumNodes()), best, *g);
  }

  // BM_FromGraph / BM_ToGraph: the bulk conversions — set-up and
  // recovery load every graph with FromGraph; the engine freezes a
  // CSR per epoch with ToGraph (here of a graph with edited rows).
  {
    double best_from = std::numeric_limits<double>::infinity();
    double best_to = std::numeric_limits<double>::infinity();
    DynamicGraph edited = DynamicGraph::FromGraph(large);
    for (const auto& e : MakeEdits(kLargeNodes, kEdits)) {
      edited.AddEdge(e.u, e.v, e.weight);
    }
    for (int pass = 0; pass < kPasses; ++pass) {
      double start = NowNs();
      const DynamicGraph loaded = DynamicGraph::FromGraph(large);
      best_from = std::min(best_from, NowNs() - start);
      IMPREG_CHECK(loaded.NumEdges() == large.NumEdges());
      start = NowNs();
      const Graph frozen = edited.ToGraph();
      best_to = std::min(best_to, NowNs() - start);
      IMPREG_CHECK(frozen.NumEdges() == edited.NumEdges());
    }
    emit("BM_FromGraph/" + std::to_string(kLargeNodes), best_from, large);
    emit("BM_ToGraph/" + std::to_string(kLargeNodes), best_to, large);
  }

  // The reproducible half of the run: counts that must be identical on
  // every machine (drift here means the bench lost coverage, not speed).
  std::ostringstream metrics;
  metrics << "{\"durability.wal_records\": " << kEdits
          << ", \"durability.snapshot_epoch\": " << kSnapshotEpoch
          << ", \"durability.recovered_epoch\": " << recovered_epoch
          << ", \"durability.wal_bytes\": "
          << static_cast<std::int64_t>(fs::file_size(wal_path))
          << ", \"durability.snapshot_bytes\": "
          << static_cast<std::int64_t>(fs::file_size(
                 snap_dir + "/snapshot-" + std::to_string(kSnapshotEpoch)))
          << "}";

  fs::remove_all(dir, ec);

  if (!WriteBenchReport(out_path, records, metrics.str())) {
    std::fprintf(stderr, "durability_bench: cannot write '%s'\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("report: %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace impreg

int main(int argc, char** argv) { return impreg::Run(argc, argv); }
