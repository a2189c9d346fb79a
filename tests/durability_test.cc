// Acceptance test of the durability layer: the mutation WAL, epoch
// snapshots, snapshot-isolated serving, and the restart-recovery chaos
// sweep.
//
// The central contract under test is *bit-identity*: whatever epoch
// recovery reports after a crash — at any WAL record boundary, with a
// torn tail, with corrupt snapshots, under any durability fault site —
// the recovered graph must be bit-for-bit the graph of a process that
// never crashed at that epoch, and a query batch served after recovery
// must be bit-for-bit the batch the uninterrupted process would have
// served, at 1 and 8 threads alike.
//
// Crashes are simulated structurally (truncating the log at every byte,
// appending torn debris, flipping snapshot bytes) so the whole suite
// runs in every build; the fault-site sweeps additionally require the
// injection harness (IMPREG_FAULT_INJECTION=ON — the `faultinject` and
// `sanitize` presets) and skip themselves elsewhere.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/solve_status.h"
#include "graph/generators.h"
#include "service/durability/recovery.h"
#include "service/durability/snapshot.h"
#include "service/durability/wal.h"
#include "service/query_engine.h"
#include "service/serve_loop.h"
#include "streaming/dynamic_graph.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace impreg {
namespace {

namespace fs = std::filesystem;

// WAL geometry pinned by the format doc (docs/durability.md): any drift
// breaks on-disk compatibility and must fail loudly here.
constexpr std::int64_t kWalHeaderBytes = 16;
constexpr std::int64_t kWalRecordBytes = 25;

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Graph BaseGraph() { return CavemanGraph(3, 8); }  // 24 nodes.

// The edit history every crash scenario replays a prefix of. The repeat
// of {0, 9} accumulates weight, so degree/volume bits depend on getting
// the arrival order and the exact accumulated sums right — and the
// trailing removes (one partial decrement of that accumulated weight,
// one full removal) put every crash boundary after a delete into the
// sweep too.
std::vector<durability::WalRecord> Edits() {
  return {{0, 9, 1.0},  {8, 17, 0.5}, {1, 16, 2.0},
          {2, 10, 1.0}, {0, 9, 0.25}, {5, 21, 1.5},
          {0, 9, 0.75, /*remove=*/true}, {8, 17, 0.0, /*remove=*/true}};
}

/// Applies one history entry to a bare graph (the replay ground truth).
void ApplyEdit(DynamicGraph& g, const durability::WalRecord& e) {
  if (e.remove) {
    g.RemoveEdge(e.u, e.v, e.weight);
  } else {
    g.AddEdge(e.u, e.v, e.weight);
  }
}

/// One history entry as the serve loop's request.
QueryRequest EditRequest(const durability::WalRecord& e) {
  QueryRequest edit;
  edit.is_add_edge = !e.remove;
  edit.is_remove_edge = e.remove;
  edit.u = e.u;
  edit.v = e.v;
  edit.weight = e.weight;
  return edit;
}

/// Appends one history entry through the type-matching WAL call.
SolveStatus AppendEdit(durability::WriteAheadLog& wal,
                       const durability::WalRecord& e) {
  return e.remove ? wal.AppendRemoveEdge(e.u, e.v, e.weight)
                  : wal.AppendAddEdge(e.u, e.v, e.weight);
}

/// The graph of a process that applied the first `k` edits and never
/// crashed — the bitwise ground truth for recovery at epoch k.
DynamicGraph ReferenceGraph(std::int64_t k) {
  DynamicGraph g = DynamicGraph::FromGraph(BaseGraph());
  const auto edits = Edits();
  for (std::int64_t i = 0; i < k; ++i) ApplyEdit(g, edits[i]);
  return g;
}

std::unique_ptr<QueryEngine> ReferenceEngine(std::int64_t k) {
  auto engine =
      std::make_unique<QueryEngine>(DynamicGraph::FromGraph(BaseGraph()));
  const auto edits = Edits();
  for (std::int64_t i = 0; i < k; ++i) {
    if (edits[i].remove) {
      engine->RemoveEdge(edits[i].u, edits[i].v, edits[i].weight);
    } else {
      engine->AddEdge(edits[i].u, edits[i].v, edits[i].weight);
    }
  }
  return engine;
}

/// A batch covering every query method (push, dense, heat kernel,
/// nibble) so the bit-identity assertion exercises all serving paths.
std::vector<Query> ServingBatch() {
  std::vector<Query> batch;
  Query push;
  push.method = QueryMethod::kPprPush;
  push.seeds = {0};
  push.epsilon = 1e-5;
  batch.push_back(push);
  Query push2;
  push2.method = QueryMethod::kPprPush;
  push2.seeds = {8, 9};
  push2.epsilon = 1e-4;
  batch.push_back(push2);
  Query dense;
  dense.method = QueryMethod::kPprDense;
  dense.seeds = {1};
  batch.push_back(dense);
  Query hk;
  hk.method = QueryMethod::kHeatKernel;
  hk.seeds = {3};
  hk.t = 3.0;
  hk.delta = 1e-4;
  batch.push_back(hk);
  Query nib;
  nib.method = QueryMethod::kNibble;
  nib.seeds = {17};
  nib.epsilon = 1e-4;
  nib.steps = 20;
  batch.push_back(nib);
  return batch;
}

void ExpectGraphsBitIdentical(const DynamicGraph& a, const DynamicGraph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(Bits(a.TotalVolume()), Bits(b.TotalVolume()));
  for (NodeId u = 0; u < a.NumNodes(); ++u) {
    EXPECT_EQ(Bits(a.Degree(u)), Bits(b.Degree(u))) << "node " << u;
    const auto& na = a.Neighbors(u);
    const auto& nb = b.Neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].head, nb[i].head) << "node " << u << " arc " << i;
      EXPECT_EQ(Bits(na[i].weight), Bits(nb[i].weight))
          << "node " << u << " arc " << i;
    }
  }
}

void ExpectResponsesBitIdentical(const std::vector<QueryResponse>& got,
                                 const std::vector<QueryResponse>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t q = 0; q < got.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    ASSERT_EQ(got[q].scores.size(), want[q].scores.size());
    for (std::size_t i = 0; i < got[q].scores.size(); ++i) {
      EXPECT_EQ(Bits(got[q].scores[i]), Bits(want[q].scores[i]))
          << "score " << i;
    }
    EXPECT_EQ(got[q].set, want[q].set);
    EXPECT_EQ(Bits(got[q].conductance), Bits(want[q].conductance));
    EXPECT_EQ(got[q].work, want[q].work);
    EXPECT_EQ(got[q].status, want[q].status);
    EXPECT_EQ(got[q].source, want[q].source);
    EXPECT_EQ(got[q].degraded, want[q].degraded);
    EXPECT_EQ(got[q].shed, want[q].shed);
  }
}

/// The uniform chaos assertion: recover at `threads` and require the
/// engine to be indistinguishable — graph bits, epoch, and a served
/// batch — from an uninterrupted process at the reported epoch.
void ExpectRecoveryServesReference(const durability::RecoveryOptions& ropts,
                                   const durability::RecoveryReport& report,
                                   QueryEngine& recovered, int threads) {
  ScopedNumThreads scoped(threads);
  const auto reference = ReferenceEngine(report.epoch);
  ExpectGraphsBitIdentical(recovered.graph(), reference->graph());
  EXPECT_EQ(recovered.Epoch(), reference->Epoch());
  const auto got = recovered.RunBatch(ServingBatch());
  const auto want = reference->RunBatch(ServingBatch());
  ExpectResponsesBitIdentical(got, want);
  (void)ropts;
}

/// Recover + assert at both thread counts (fresh recovery per count so
/// each comparison starts from an empty cache on both sides). `prepare`
/// re-creates the crash state before every recovery — the first
/// recovery repairs a torn tail in place, so the scene must be re-torn
/// for the run to test the same crash twice.
void ExpectRecoveredMatchesReference(
    const durability::RecoveryOptions& ropts, std::int64_t expected_epoch,
    SolveStatus expected_status,
    const std::function<void()>& prepare = nullptr) {
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    if (prepare) prepare();
    std::unique_ptr<QueryEngine> recovered;
    const durability::RecoveryReport report = durability::RecoverEngine(
        DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
    ASSERT_EQ(report.status, expected_status) << report.detail;
    ASSERT_EQ(report.epoch, expected_epoch) << report.detail;
    ASSERT_NE(recovered, nullptr);
    ExpectRecoveryServesReference(ropts, report, *recovered, threads);
  }
}

/// Writes the full edit history into a WAL at `path`, returning the raw
/// bytes (for boundary truncation).
std::string WriteFullWal(const std::string& path) {
  durability::WriteAheadLog wal;
  EXPECT_EQ(wal.Open(path, {}), SolveStatus::kConverged);
  for (const durability::WalRecord& e : Edits()) {
    EXPECT_EQ(AppendEdit(wal, e), SolveStatus::kConverged);
  }
  wal.Close();
  return ReadFileBytes(path);
}

// ——— WAL unit coverage ———

TEST(DurabilityTest, WalRoundTripIsBitwise) {
  const fs::path dir = FreshDir("impreg_wal_roundtrip");
  const std::string path = (dir / "wal.log").string();
  const auto edits = Edits();

  {
    durability::WriteAheadLog wal;
    ASSERT_EQ(wal.Open(path, {}), SolveStatus::kConverged);
    ASSERT_TRUE(wal.is_open());
    for (const auto& e : edits) {
      ASSERT_EQ(AppendEdit(wal, e), SolveStatus::kConverged);
    }
    EXPECT_EQ(wal.records_appended(),
              static_cast<std::int64_t>(edits.size()));
    wal.Close();
    EXPECT_FALSE(wal.is_open());
  }
  EXPECT_EQ(static_cast<std::int64_t>(fs::file_size(path)),
            kWalHeaderBytes +
                kWalRecordBytes * static_cast<std::int64_t>(edits.size()));

  const durability::WalReadResult read = durability::ReadWal(path);
  ASSERT_EQ(read.status, SolveStatus::kConverged) << read.detail;
  EXPECT_FALSE(read.truncated);
  ASSERT_EQ(read.entries.size(), edits.size());
  for (std::size_t i = 0; i < edits.size(); ++i) {
    EXPECT_EQ(read.entries[i].u, edits[i].u);
    EXPECT_EQ(read.entries[i].v, edits[i].v);
    EXPECT_EQ(Bits(read.entries[i].weight), Bits(edits[i].weight));
    EXPECT_EQ(read.entries[i].remove, edits[i].remove) << "record " << i;
  }

  // Reopening an existing log verifies the header and keeps appending.
  {
    durability::WriteAheadLog wal;
    ASSERT_EQ(wal.Open(path, {}), SolveStatus::kConverged);
    ASSERT_EQ(wal.AppendAddEdge(6, 22, 0.125), SolveStatus::kConverged);
    wal.Close();
  }
  const durability::WalReadResult reread = durability::ReadWal(path);
  ASSERT_EQ(reread.entries.size(), edits.size() + 1);
  EXPECT_EQ(Bits(reread.entries.back().weight), Bits(0.125));

  // A missing file is an empty log (first boot), not corruption.
  const durability::WalReadResult missing =
      durability::ReadWal((dir / "never-written.log").string());
  EXPECT_EQ(missing.status, SolveStatus::kConverged);
  EXPECT_TRUE(missing.entries.empty());

  // A bad append is rejected before any byte is framed.
  {
    durability::WriteAheadLog wal;
    ASSERT_EQ(wal.Open(path, {}), SolveStatus::kConverged);
    const auto size_before = fs::file_size(path);
    EXPECT_EQ(wal.AppendAddEdge(0, 1, 0.0), SolveStatus::kInvalidInput);
    EXPECT_EQ(wal.AppendAddEdge(0, 1, -2.0), SolveStatus::kInvalidInput);
    EXPECT_EQ(wal.AppendAddEdge(-1, 1, 1.0), SolveStatus::kInvalidInput);
    // RemoveEdge accepts the 0.0 remove-entirely sentinel but rejects
    // negatives, non-finites and bad ids the same way.
    EXPECT_EQ(wal.AppendRemoveEdge(0, 1, -0.5), SolveStatus::kInvalidInput);
    EXPECT_EQ(wal.AppendRemoveEdge(0, 1, std::nan("")),
              SolveStatus::kInvalidInput);
    EXPECT_EQ(wal.AppendRemoveEdge(-1, 1, 0.0), SolveStatus::kInvalidInput);
    EXPECT_EQ(wal.records_appended(), 0);
    wal.Close();
    EXPECT_EQ(fs::file_size(path), size_before);
  }
}

TEST(DurabilityTest, EveryByteTruncationYieldsTheCertifiedPrefix) {
  const fs::path dir = FreshDir("impreg_wal_truncation");
  const std::string full_path = (dir / "wal.log").string();
  const std::string full = WriteFullWal(full_path);
  const std::int64_t num_edits = static_cast<std::int64_t>(Edits().size());
  ASSERT_EQ(static_cast<std::int64_t>(full.size()),
            kWalHeaderBytes + kWalRecordBytes * num_edits);

  const std::string path = (dir / "cut.log").string();
  for (std::int64_t len = 0; len <= static_cast<std::int64_t>(full.size());
       ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    WriteFileBytes(path, full.substr(0, static_cast<std::size_t>(len)));
    const durability::WalReadResult read = durability::ReadWal(path);
    if (len < kWalHeaderBytes) {
      // Not even the header survived: nothing is trusted.
      EXPECT_EQ(read.status, SolveStatus::kInvalidInput);
      continue;
    }
    const std::int64_t prefix = (len - kWalHeaderBytes) / kWalRecordBytes;
    const bool at_boundary =
        len == kWalHeaderBytes + prefix * kWalRecordBytes;
    ASSERT_EQ(static_cast<std::int64_t>(read.entries.size()), prefix);
    EXPECT_EQ(read.valid_bytes, kWalHeaderBytes + prefix * kWalRecordBytes);
    if (at_boundary) {
      EXPECT_EQ(read.status, SolveStatus::kConverged) << read.detail;
      EXPECT_FALSE(read.truncated);
    } else {
      EXPECT_EQ(read.status, SolveStatus::kBreakdown) << read.detail;
      EXPECT_TRUE(read.truncated);
      // Repairing to the certified prefix makes the file clean again.
      ASSERT_EQ(durability::TruncateWal(path, read.valid_bytes),
                SolveStatus::kConverged);
      const durability::WalReadResult repaired = durability::ReadWal(path);
      EXPECT_EQ(repaired.status, SolveStatus::kConverged);
      EXPECT_EQ(static_cast<std::int64_t>(repaired.entries.size()), prefix);
    }
    // The certified prefix replays to exactly the reference graph.
    DynamicGraph g = DynamicGraph::FromGraph(BaseGraph());
    const durability::WalReplayResult replay =
        durability::ReplayWal(read.entries, 0, &g);
    EXPECT_EQ(replay.status, SolveStatus::kConverged);
    EXPECT_EQ(replay.applied, prefix);
    ExpectGraphsBitIdentical(g, ReferenceGraph(prefix));
  }
}

TEST(DurabilityTest, TornTailRepairThenResumeAppending) {
  const fs::path dir = FreshDir("impreg_wal_resume");
  const std::string path = (dir / "wal.log").string();
  const auto edits = Edits();

  {
    durability::WriteAheadLog wal;
    ASSERT_EQ(wal.Open(path, {}), SolveStatus::kConverged);
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(AppendEdit(wal, edits[i]), SolveStatus::kConverged);
    }
  }
  // Crash debris: garbage after the last intact record.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char junk[7] = {'\x7f', '\x00', '\x41', '\x41',
                          '\xff', '\x03', '\x09'};
    out.write(junk, sizeof(junk));
  }

  const durability::WalReadResult torn = durability::ReadWal(path);
  ASSERT_EQ(torn.status, SolveStatus::kBreakdown);
  ASSERT_TRUE(torn.truncated);
  ASSERT_EQ(torn.entries.size(), 3u);
  ASSERT_EQ(durability::TruncateWal(path, torn.valid_bytes),
            SolveStatus::kConverged);

  // The repaired log accepts the rest of the history seamlessly.
  {
    durability::WriteAheadLog wal;
    ASSERT_EQ(wal.Open(path, {}), SolveStatus::kConverged);
    for (std::size_t i = 3; i < edits.size(); ++i) {
      ASSERT_EQ(AppendEdit(wal, edits[i]), SolveStatus::kConverged);
    }
  }
  const durability::WalReadResult resumed = durability::ReadWal(path);
  ASSERT_EQ(resumed.status, SolveStatus::kConverged);
  ASSERT_EQ(resumed.entries.size(), edits.size());
  for (std::size_t i = 0; i < edits.size(); ++i) {
    EXPECT_EQ(resumed.entries[i].u, edits[i].u);
    EXPECT_EQ(Bits(resumed.entries[i].weight), Bits(edits[i].weight));
    EXPECT_EQ(resumed.entries[i].remove, edits[i].remove);
  }
}

TEST(DurabilityTest, Version1LogsStillReplayAndFutureVersionsAreRefused) {
  // Compatibility pin: logs written before RemoveEdge existed carry
  // header version 1 and only AddEdge frames. Patch a freshly written
  // add-only log down to v1 (re-CRC the header) and require ReadWal,
  // ReplayWal and reopen-for-append to treat it exactly like v2.
  const fs::path dir = FreshDir("impreg_wal_v1");
  const std::string path = (dir / "wal.log").string();
  std::vector<durability::WalRecord> adds;
  for (const auto& e : Edits()) {
    if (!e.remove) adds.push_back(e);  // A v1 log cannot hold removes.
  }
  {
    durability::WriteAheadLog wal;
    ASSERT_EQ(wal.Open(path, {}), SolveStatus::kConverged);
    for (const auto& e : adds) {
      ASSERT_EQ(wal.AppendAddEdge(e.u, e.v, e.weight),
                SolveStatus::kConverged);
    }
    wal.Close();
  }
  const auto patch_version = [&](std::uint32_t version) {
    std::string bytes = ReadFileBytes(path);
    ASSERT_GE(static_cast<std::int64_t>(bytes.size()), kWalHeaderBytes);
    bytes[8] = static_cast<char>(version);
    bytes[9] = bytes[10] = bytes[11] = '\0';
    const std::uint32_t crc =
        Crc32c(reinterpret_cast<const std::uint8_t*>(bytes.data()), 12);
    for (int i = 0; i < 4; ++i) {
      bytes[12 + i] = static_cast<char>(crc >> (8 * i));
    }
    WriteFileBytes(path, bytes);
  };

  patch_version(1);
  const durability::WalReadResult read = durability::ReadWal(path);
  ASSERT_EQ(read.status, SolveStatus::kConverged) << read.detail;
  ASSERT_EQ(read.entries.size(), adds.size());
  for (std::size_t i = 0; i < adds.size(); ++i) {
    EXPECT_EQ(read.entries[i].u, adds[i].u);
    EXPECT_EQ(Bits(read.entries[i].weight), Bits(adds[i].weight));
    EXPECT_FALSE(read.entries[i].remove);
  }
  DynamicGraph g = DynamicGraph::FromGraph(BaseGraph());
  const durability::WalReplayResult replay =
      durability::ReplayWal(read.entries, 0, &g);
  EXPECT_EQ(replay.status, SolveStatus::kConverged);
  EXPECT_EQ(replay.applied, static_cast<std::int64_t>(adds.size()));
  {
    // The pre-upgrade restart path: a v1 log reopens for append.
    durability::WriteAheadLog wal;
    EXPECT_EQ(wal.Open(path, {}), SolveStatus::kConverged);
    wal.Close();
  }

  // An unknown future version is refused outright — no guessing at
  // frames this build cannot understand.
  patch_version(3);
  EXPECT_EQ(durability::ReadWal(path).status, SolveStatus::kInvalidInput);
  {
    durability::WriteAheadLog wal;
    EXPECT_EQ(wal.Open(path, {}), SolveStatus::kInvalidInput);
  }
}

// ——— Snapshot unit coverage ———

TEST(DurabilityTest, SnapshotRoundTripIsBitIdentical) {
  const fs::path dir = FreshDir("impreg_snapshot_roundtrip");
  const std::string snap_dir = (dir / "snapshots").string();

  // Populate a cache with state-bearing entries through the real engine
  // so the persisted slice is exactly what serving would produce.
  QueryEngine engine(DynamicGraph::FromGraph(BaseGraph()));
  Query warm;
  warm.seeds = {0};
  warm.epsilon = 1e-4;
  engine.Run(warm);
  Query warm2;
  warm2.seeds = {8};
  warm2.epsilon = 1e-5;
  engine.Run(warm2);
  const DynamicGraph graph = ReferenceGraph(4);
  ASSERT_GE(engine.cache().Size(), 2u);

  const durability::SnapshotWriteResult written = durability::WriteSnapshot(
      snap_dir, 4, graph, engine.cache().ExportEntries());
  ASSERT_EQ(written.status, SolveStatus::kConverged) << written.detail;
  EXPECT_EQ(written.path, snap_dir + "/snapshot-4");
  // Atomic publish left no temp debris behind.
  for (const auto& entry : fs::directory_iterator(snap_dir)) {
    EXPECT_EQ(entry.path().filename().string(), "snapshot-4");
  }

  const durability::SnapshotLoadResult loaded =
      durability::LoadSnapshot(written.path);
  ASSERT_EQ(loaded.status, SolveStatus::kConverged) << loaded.detail;
  EXPECT_EQ(loaded.data.epoch, 4);
  ExpectGraphsBitIdentical(loaded.data.graph, graph);

  // The warm-restartable slice round-trips bitwise, in insertion order.
  const auto exported = engine.cache().ExportEntries();
  ASSERT_EQ(loaded.data.cache_entries.size(), exported.size());
  for (std::size_t i = 0; i < exported.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    const auto& got = loaded.data.cache_entries[i];
    EXPECT_EQ(got.key, *exported[i].key);
    EXPECT_EQ(got.warm_key, *exported[i].warm_key);
    const CachedResult& want = *exported[i].result;
    const auto expect_sparse_bits = [](const SparseVector& got_v,
                                       const SparseVector& want_v) {
      ASSERT_EQ(got_v.size(), want_v.size());
      for (std::size_t j = 0; j < want_v.size(); ++j) {
        EXPECT_EQ(got_v[j].node, want_v[j].node);
        EXPECT_EQ(Bits(got_v[j].value), Bits(want_v[j].value));
      }
    };
    expect_sparse_bits(got.result.scores, want.scores);
    EXPECT_EQ(got.result.status, want.status);
    EXPECT_EQ(got.result.has_state, want.has_state);
    expect_sparse_bits(got.result.p, want.p);
    expect_sparse_bits(got.result.r, want.r);
    EXPECT_EQ(got.result.epoch, want.epoch);
    EXPECT_EQ(Bits(got.result.epsilon), Bits(want.epsilon));
  }

  // ListSnapshots orders newest-first and ignores foreign names.
  ASSERT_EQ(durability::WriteSnapshot(snap_dir, 1, ReferenceGraph(1), {})
                .status,
            SolveStatus::kConverged);
  ASSERT_EQ(durability::WriteSnapshot(snap_dir, 10, ReferenceGraph(6), {})
                .status,
            SolveStatus::kConverged);
  WriteFileBytes(snap_dir + "/README", "not a snapshot");
  // A placement file that older builds wrote beside snapshots.
  WriteFileBytes(snap_dir + "/shard_manifest", "impreg-shard-manifest-v1");
  const auto listed = durability::ListSnapshots(snap_dir);
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].first, 10);
  EXPECT_EQ(listed[1].first, 4);
  EXPECT_EQ(listed[2].first, 1);
}

TEST(DurabilityTest, CorruptSnapshotIsRejectedNeverLoaded) {
  const fs::path dir = FreshDir("impreg_snapshot_corrupt");
  const std::string snap_dir = (dir / "snapshots").string();
  const durability::SnapshotWriteResult written =
      durability::WriteSnapshot(snap_dir, 2, ReferenceGraph(2), {});
  ASSERT_EQ(written.status, SolveStatus::kConverged);

  const std::string clean = ReadFileBytes(written.path);
  // Flip one byte at a sample of positions across header, length, CRC,
  // and payload: every corruption must be rejected, never half-loaded.
  for (std::size_t pos = 0; pos < clean.size();
       pos += 1 + clean.size() / 64) {
    std::string corrupt = clean;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    WriteFileBytes(written.path, corrupt);
    const durability::SnapshotLoadResult loaded =
        durability::LoadSnapshot(written.path);
    EXPECT_EQ(loaded.status, SolveStatus::kInvalidInput)
        << "byte " << pos << " flipped: " << loaded.detail;
  }
  // Truncations are rejected too.
  for (const std::size_t len : {std::size_t{0}, std::size_t{7},
                                clean.size() / 2, clean.size() - 1}) {
    WriteFileBytes(written.path, clean.substr(0, len));
    EXPECT_EQ(durability::LoadSnapshot(written.path).status,
              SolveStatus::kInvalidInput)
        << "truncated to " << len;
  }
  // The intact bytes still load.
  WriteFileBytes(written.path, clean);
  EXPECT_EQ(durability::LoadSnapshot(written.path).status,
            SolveStatus::kConverged);
}

TEST(DurabilityTest, SparsePayloadOutsideTheGraphIsRejected) {
  // A checksum-clean image whose sparse cache payload names a node the
  // graph does not have, or repeats a node, must be rejected: a restore
  // would scatter it past the end of a dense response.
  const fs::path dir = FreshDir("impreg_snapshot_sparse_nodes");
  const DynamicGraph graph = ReferenceGraph(1);
  const NodeId n = graph.NumNodes();
  for (const SparseVector& bad :
       {SparseVector{{0, 0.5}, {n, 0.25}}, SparseVector{{3, 0.5}, {3, 0.25}},
        SparseVector{{-1, 0.5}}}) {
    ResultCache cache(4);
    CachedResult result;
    result.scores = {{0, 1.0}};
    result.has_state = true;
    result.p = {{0, 1.0}};
    result.r = bad;
    ASSERT_TRUE(cache.Insert("k", "warm", std::move(result)));
    const durability::SnapshotWriteResult written = durability::WriteSnapshot(
        (dir / "snapshots").string(), 1, graph, cache.ExportEntries());
    ASSERT_EQ(written.status, SolveStatus::kConverged) << written.detail;
    const durability::SnapshotLoadResult loaded =
        durability::LoadSnapshot(written.path);
    EXPECT_EQ(loaded.status, SolveStatus::kInvalidInput);
    EXPECT_EQ(loaded.detail, "snapshot payload malformed");
  }
}

TEST(DurabilityTest, OlderSnapshotVersionIsRejectedAndTheWalReplayed) {
  const fs::path dir = FreshDir("impreg_snapshot_v2");
  const std::string wal_path = (dir / "wal.log").string();
  const std::string snap_dir = (dir / "snapshots").string();
  WriteFullWal(wal_path);
  const auto engine = ReferenceEngine(4);
  engine->RunBatch(ServingBatch());
  const durability::SnapshotWriteResult written = durability::WriteSnapshot(
      snap_dir, 4, engine->graph(), engine->cache().ExportEntries());
  ASSERT_EQ(written.status, SolveStatus::kConverged) << written.detail;
  ASSERT_EQ(durability::LoadSnapshot(written.path).status,
            SolveStatus::kConverged);

  // Stamp the image as version 2 (the dense-payload format). The
  // checksum covers only the payload, so the version alone rejects it.
  std::string bytes = ReadFileBytes(written.path);
  ASSERT_EQ(bytes[8], 3);
  bytes[8] = 2;
  WriteFileBytes(written.path, bytes);
  const durability::SnapshotLoadResult loaded =
      durability::LoadSnapshot(written.path);
  EXPECT_EQ(loaded.status, SolveStatus::kInvalidInput);
  EXPECT_EQ(loaded.detail, "unsupported snapshot version");

  // Recovery replays the whole WAL onto the base graph, reports the
  // rejected snapshot as kBreakdown, and serves what a process that
  // never crashed serves.
  durability::RecoveryOptions ropts;
  ropts.wal_path = wal_path;
  ropts.snapshot_dir = snap_dir;
  std::unique_ptr<QueryEngine> recovered;
  const durability::RecoveryReport report = durability::RecoverEngine(
      DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
  EXPECT_EQ(report.snapshots_rejected, 1);
  EXPECT_EQ(report.snapshot_epoch, -1);  // None loaded.
  EXPECT_EQ(report.replayed, 8);
  EXPECT_EQ(report.cache_restored, 0);
  ExpectRecoveredMatchesReference(ropts, 8, SolveStatus::kBreakdown);
}

// ——— Recovery ladder ———

TEST(DurabilityTest, CorruptNewestSnapshotFallsBackToOlder) {
  const fs::path dir = FreshDir("impreg_recovery_fallback");
  const std::string wal_path = (dir / "wal.log").string();
  const std::string snap_dir = (dir / "snapshots").string();
  WriteFullWal(wal_path);
  ASSERT_EQ(durability::WriteSnapshot(snap_dir, 2, ReferenceGraph(2), {})
                .status,
            SolveStatus::kConverged);
  const durability::SnapshotWriteResult newest =
      durability::WriteSnapshot(snap_dir, 4, ReferenceGraph(4), {});
  ASSERT_EQ(newest.status, SolveStatus::kConverged);
  // Corrupt the newest snapshot: recovery must fall back to epoch 2 and
  // replay the longer WAL suffix, landing at the same final state.
  std::string bytes = ReadFileBytes(newest.path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x1);
  WriteFileBytes(newest.path, bytes);

  durability::RecoveryOptions ropts;
  ropts.wal_path = wal_path;
  ropts.snapshot_dir = snap_dir;
  std::unique_ptr<QueryEngine> recovered;
  const durability::RecoveryReport report = durability::RecoverEngine(
      DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
  EXPECT_EQ(report.status, SolveStatus::kBreakdown) << report.detail;
  EXPECT_EQ(report.snapshot_epoch, 2);
  EXPECT_EQ(report.snapshots_rejected, 1);
  EXPECT_EQ(report.replayed, 6);
  EXPECT_EQ(report.epoch, 8);
  ExpectGraphsBitIdentical(recovered->graph(), ReferenceGraph(8));
}

TEST(DurabilityTest, UnreadableWalHeaderIsFatalOnlyWithoutSnapshot) {
  const fs::path dir = FreshDir("impreg_recovery_badheader");
  const std::string wal_path = (dir / "wal.log").string();
  const std::string snap_dir = (dir / "snapshots").string();
  std::string bytes = WriteFullWal(wal_path);
  bytes[3] = 'X';  // Corrupt the magic.
  WriteFileBytes(wal_path, bytes);

  durability::RecoveryOptions ropts;
  ropts.wal_path = wal_path;
  std::unique_ptr<QueryEngine> recovered;
  const durability::RecoveryReport no_snap = durability::RecoverEngine(
      DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
  EXPECT_EQ(no_snap.status, SolveStatus::kInvalidInput);

  // With an intact snapshot the service can still come up at that
  // epoch — degraded and loud, but serving.
  ASSERT_EQ(durability::WriteSnapshot(snap_dir, 3, ReferenceGraph(3), {})
                .status,
            SolveStatus::kConverged);
  ropts.snapshot_dir = snap_dir;
  const durability::RecoveryReport with_snap = durability::RecoverEngine(
      DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
  EXPECT_EQ(with_snap.status, SolveStatus::kBreakdown);
  EXPECT_EQ(with_snap.epoch, 3);
  ExpectGraphsBitIdentical(recovered->graph(), ReferenceGraph(3));
}

TEST(DurabilityTest, SnapshotNewerThanLogReplaysNothing) {
  const fs::path dir = FreshDir("impreg_recovery_newer_snap");
  const std::string wal_path = (dir / "wal.log").string();
  const std::string snap_dir = (dir / "snapshots").string();
  const std::string full = WriteFullWal(wal_path);
  WriteFileBytes(wal_path, full.substr(0, static_cast<std::size_t>(
                                              kWalHeaderBytes +
                                              2 * kWalRecordBytes)));
  ASSERT_EQ(durability::WriteSnapshot(snap_dir, 4, ReferenceGraph(4), {})
                .status,
            SolveStatus::kConverged);

  durability::RecoveryOptions ropts;
  ropts.wal_path = wal_path;
  ropts.snapshot_dir = snap_dir;
  std::unique_ptr<QueryEngine> recovered;
  const durability::RecoveryReport report = durability::RecoverEngine(
      DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
  EXPECT_EQ(report.status, SolveStatus::kConverged) << report.detail;
  EXPECT_EQ(report.replayed, 0);
  EXPECT_EQ(report.epoch, 4);
  ExpectGraphsBitIdentical(recovered->graph(), ReferenceGraph(4));
}

// ——— The restart-recovery chaos sweep ———

// Crash at every WAL record boundary (with and without torn debris
// after the boundary), with every snapshot layout a real run could have
// left behind, and require recovery to serve bit-identically to the
// uninterrupted process at 1 and 8 threads.
TEST(DurabilityChaosTest, EveryRecordBoundaryServesBitIdentically) {
  const fs::path dir = FreshDir("impreg_chaos_boundaries");
  const std::string full = WriteFullWal((dir / "full.log").string());
  const std::int64_t num_edits = static_cast<std::int64_t>(Edits().size());

  // Snapshots a serve loop with --snapshot-every=2 would have written.
  const std::string snap_src = (dir / "snap-src").string();
  for (const std::int64_t e : {2, 4}) {
    ASSERT_EQ(durability::WriteSnapshot(snap_src, e, ReferenceGraph(e), {})
                  .status,
              SolveStatus::kConverged);
  }

  int variant = 0;
  for (std::int64_t k = 0; k <= num_edits; ++k) {
    // Torn debris sizes: none (clean shutdown at the boundary), 1 byte,
    // a partial record, and all-but-one byte of the next record.
    for (const std::int64_t torn :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{12},
          kWalRecordBytes - 1}) {
      if (torn > 0 && k == num_edits) continue;  // No next record to tear.
      const fs::path vdir = dir / ("v" + std::to_string(variant++));
      fs::create_directories(vdir);
      const std::string wal_path = (vdir / "wal.log").string();
      const std::int64_t len = kWalHeaderBytes + k * kWalRecordBytes + torn;
      const auto write_crashed_wal = [&wal_path, &full, len] {
        WriteFileBytes(wal_path,
                       full.substr(0, static_cast<std::size_t>(len)));
      };
      write_crashed_wal();
      // Only snapshots the process could have written before dying.
      const std::string snap_dir = (vdir / "snapshots").string();
      fs::create_directories(snap_dir);
      for (const std::int64_t e : {std::int64_t{2}, std::int64_t{4}}) {
        if (e <= k) {
          fs::copy_file(snap_src + "/snapshot-" + std::to_string(e),
                        snap_dir + "/snapshot-" + std::to_string(e));
        }
      }
      SCOPED_TRACE("boundary " + std::to_string(k) + ", torn bytes " +
                   std::to_string(torn));
      durability::RecoveryOptions ropts;
      ropts.wal_path = wal_path;
      ropts.snapshot_dir = snap_dir;
      ExpectRecoveredMatchesReference(ropts, k,
                                      torn == 0 ? SolveStatus::kConverged
                                                : SolveStatus::kBreakdown,
                                      write_crashed_wal);
    }
  }
}

/// Builds the standard crash scene: full WAL + snapshots at 2 and 4.
void PrepareFullScene(const fs::path& dir, std::string* wal_path,
                      std::string* snap_dir) {
  *wal_path = (dir / "wal.log").string();
  *snap_dir = (dir / "snapshots").string();
  WriteFullWal(*wal_path);
  for (const std::int64_t e : {2, 4}) {
    ASSERT_EQ(durability::WriteSnapshot(*snap_dir, e, ReferenceGraph(e), {})
                  .status,
              SolveStatus::kConverged);
  }
}

/// Serves the edit history through the serve loop (snapshot every 2
/// edits) under fault injection; the first refused append is the crash,
/// while a failed snapshot is recorded and serving goes on. Returns the
/// number of *acknowledged* edits and the first failure's status.
std::int64_t ServeEditsUntilFailure(const std::string& wal_path,
                                    const std::string& snap_dir,
                                    SolveStatus* first_failure) {
  *first_failure = SolveStatus::kConverged;
  QueryEngine engine(DynamicGraph::FromGraph(BaseGraph()));
  durability::WriteAheadLog wal;
  const SolveStatus open_status = wal.Open(wal_path, {});
  if (open_status != SolveStatus::kConverged) {
    *first_failure = open_status;
    return 0;
  }
  ServeLoop loop(engine, &wal, snap_dir, /*snapshot_every=*/2);
  std::int64_t acknowledged = 0;
  for (const durability::WalRecord& e : Edits()) {
    const SubmitResult submitted = loop.Submit(EditRequest(e));
    EXPECT_NE(submitted.outcome, SubmitOutcome::kRejected) << submitted.detail;
    if (submitted.outcome == SubmitOutcome::kNotAcknowledged) {
      // Write-ahead contract: the edit was never acknowledged and must
      // not land on the in-memory graph. Treat it as the crash.
      *first_failure = submitted.status;
      EXPECT_EQ(engine.Epoch(), acknowledged);
      return acknowledged;
    }
    ++acknowledged;
    if (submitted.outcome == SubmitOutcome::kSnapshotFailed &&
        *first_failure == SolveStatus::kConverged) {
      *first_failure = submitted.status;
    }
  }
  return acknowledged;
}

// Every durability fault site, injected at its natural moment (serve
// time for the write path, recovery time for the read path), must leave
// a state recovery can reassemble bit-identically.
TEST(DurabilityChaosTest, EveryFaultSiteRecoversConsistently) {
  if (!fault::Compiled()) {
    GTEST_SKIP() << "fault harness not compiled (IMPREG_FAULT_INJECTION=OFF)";
  }
  const std::int64_t num_edits = static_cast<std::int64_t>(Edits().size());

  {
    // wal/append: the 3rd edit is poisoned and rejected before framing.
    // The log holds exactly the 2 acknowledged edits; recovery is clean.
    SCOPED_TRACE("wal/append");
    const fs::path dir = FreshDir("impreg_chaos_append");
    const std::string wal_path = (dir / "wal.log").string();
    fault::Arm("wal/append", fault::FaultKind::kNaN, /*trigger_hit=*/3);
    SolveStatus failure;
    const std::int64_t acked =
        ServeEditsUntilFailure(wal_path, "", &failure);
    EXPECT_GT(fault::InjectionCount(), 0);
    fault::Disarm();
    EXPECT_EQ(failure, SolveStatus::kInvalidInput);
    EXPECT_EQ(acked, 2);
    durability::RecoveryOptions ropts;
    ropts.wal_path = wal_path;
    ExpectRecoveredMatchesReference(ropts, 2, SolveStatus::kConverged);
  }

  {
    // wal/fsync: the 3rd edit's bytes reach the file but fsync fails, so
    // the serve loop refuses to acknowledge it. After the crash the
    // record may legally surface (it was written, just never certified):
    // recovery lands at epoch 3 with a fully consistent state — an
    // unacknowledged edit may commit, but never a half-written one.
    SCOPED_TRACE("wal/fsync");
    const fs::path dir = FreshDir("impreg_chaos_fsync");
    const std::string wal_path = (dir / "wal.log").string();
    fault::Arm("wal/fsync", fault::FaultKind::kNaN, /*trigger_hit=*/4);
    SolveStatus failure;
    const std::int64_t acked =
        ServeEditsUntilFailure(wal_path, "", &failure);
    EXPECT_GT(fault::InjectionCount(), 0);
    fault::Disarm();
    EXPECT_EQ(failure, SolveStatus::kBreakdown);
    EXPECT_EQ(acked, 3);  // 4th append unacknowledged.
    durability::RecoveryOptions ropts;
    ropts.wal_path = wal_path;
    ExpectRecoveredMatchesReference(ropts, 4, SolveStatus::kConverged);
  }

  {
    // snapshot/write: the epoch-4 snapshot write is poisoned and caught
    // before publish. Serving continues; recovery later uses the intact
    // epoch-2 and epoch-6 snapshots as if nothing happened.
    SCOPED_TRACE("snapshot/write");
    const fs::path dir = FreshDir("impreg_chaos_snapwrite");
    const std::string wal_path = (dir / "wal.log").string();
    const std::string snap_dir = (dir / "snapshots").string();
    fault::Arm("snapshot/write", fault::FaultKind::kNaN, /*trigger_hit=*/2);
    SolveStatus failure;
    const std::int64_t acked =
        ServeEditsUntilFailure(wal_path, snap_dir, &failure);
    EXPECT_GT(fault::InjectionCount(), 0);
    fault::Disarm();
    EXPECT_EQ(failure, SolveStatus::kInvalidInput);
    EXPECT_EQ(acked, num_edits);
    const auto listed = durability::ListSnapshots(snap_dir);
    ASSERT_EQ(listed.size(), 3u);  // Epochs 8, 6, 2; no epoch-4 debris.
    EXPECT_EQ(listed[0].first, 8);
    EXPECT_EQ(listed[1].first, 6);
    EXPECT_EQ(listed[2].first, 2);
    durability::RecoveryOptions ropts;
    ropts.wal_path = wal_path;
    ropts.snapshot_dir = snap_dir;
    ExpectRecoveredMatchesReference(ropts, num_edits, SolveStatus::kConverged);
  }

  {
    // wal/torn_tail: frame validation is forced to fail at record 4
    // during recovery. The certified prefix (3 records) is kept, the
    // file is repaired in place, and a second recovery is clean.
    SCOPED_TRACE("wal/torn_tail");
    const fs::path dir = FreshDir("impreg_chaos_torn");
    const std::string wal_path = (dir / "wal.log").string();
    WriteFullWal(wal_path);
    durability::RecoveryOptions ropts;
    ropts.wal_path = wal_path;
    fault::Arm("wal/torn_tail", fault::FaultKind::kNaN, /*trigger_hit=*/4);
    std::unique_ptr<QueryEngine> recovered;
    const durability::RecoveryReport report = durability::RecoverEngine(
        DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
    EXPECT_GT(fault::InjectionCount(), 0);
    fault::Disarm();
    EXPECT_EQ(report.status, SolveStatus::kBreakdown) << report.detail;
    EXPECT_TRUE(report.wal_truncated);
    EXPECT_EQ(report.epoch, 3);
    ExpectRecoveryServesReference(ropts, report, *recovered, 1);
    // The repair truncated the file: the next recovery sees a clean log.
    ExpectRecoveredMatchesReference(ropts, 3, SolveStatus::kConverged);
  }

  {
    // wal/replay_record: a record that passed its CRC is poisoned at
    // apply time. Replay stops at the good prefix; the graph never holds
    // a poisoned edge.
    SCOPED_TRACE("wal/replay_record");
    const fs::path dir = FreshDir("impreg_chaos_replay");
    const std::string wal_path = (dir / "wal.log").string();
    WriteFullWal(wal_path);
    durability::RecoveryOptions ropts;
    ropts.wal_path = wal_path;
    fault::Arm("wal/replay_record", fault::FaultKind::kNaN,
               /*trigger_hit=*/2);
    std::unique_ptr<QueryEngine> recovered;
    const durability::RecoveryReport report = durability::RecoverEngine(
        DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
    EXPECT_GT(fault::InjectionCount(), 0);
    fault::Disarm();
    EXPECT_EQ(report.status, SolveStatus::kBreakdown) << report.detail;
    EXPECT_EQ(report.epoch, 1);
    ExpectRecoveryServesReference(ropts, report, *recovered, 1);
    // The log itself is intact: a clean recovery reaches the full epoch.
    ExpectRecoveredMatchesReference(ropts, num_edits,
                                    SolveStatus::kConverged);
  }

  {
    // wal/append_remove: the first RemoveEdge append (edit 7) is
    // poisoned and rejected before framing — the delete twin of
    // wal/append. The log holds the 6 acknowledged edits and recovery
    // is clean at that epoch.
    SCOPED_TRACE("wal/append_remove");
    const fs::path dir = FreshDir("impreg_chaos_append_remove");
    const std::string wal_path = (dir / "wal.log").string();
    fault::Arm("wal/append_remove", fault::FaultKind::kNaN,
               /*trigger_hit=*/1);
    SolveStatus failure;
    const std::int64_t acked =
        ServeEditsUntilFailure(wal_path, "", &failure);
    EXPECT_GT(fault::InjectionCount(), 0);
    fault::Disarm();
    EXPECT_EQ(failure, SolveStatus::kInvalidInput);
    EXPECT_EQ(acked, 6);
    durability::RecoveryOptions ropts;
    ropts.wal_path = wal_path;
    ExpectRecoveredMatchesReference(ropts, 6, SolveStatus::kConverged);
  }

  {
    // wal/replay_remove: a remove record that passed its CRC is
    // poisoned at apply time. Replay keeps the 6-record good prefix —
    // the graph never sees a poisoned delete — and, the injection gone,
    // a second recovery replays the intact log to the full epoch.
    SCOPED_TRACE("wal/replay_remove");
    const fs::path dir = FreshDir("impreg_chaos_replay_remove");
    const std::string wal_path = (dir / "wal.log").string();
    WriteFullWal(wal_path);
    durability::RecoveryOptions ropts;
    ropts.wal_path = wal_path;
    fault::Arm("wal/replay_remove", fault::FaultKind::kNaN,
               /*trigger_hit=*/1);
    std::unique_ptr<QueryEngine> recovered;
    const durability::RecoveryReport report = durability::RecoverEngine(
        DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
    EXPECT_GT(fault::InjectionCount(), 0);
    fault::Disarm();
    EXPECT_EQ(report.status, SolveStatus::kBreakdown) << report.detail;
    EXPECT_EQ(report.epoch, 6);
    ExpectRecoveryServesReference(ropts, report, *recovered, 1);
    ExpectRecoveredMatchesReference(ropts, num_edits,
                                    SolveStatus::kConverged);
  }

  {
    // snapshot/load: the newest snapshot decodes to a poisoned graph and
    // is rejected exactly like a CRC failure; recovery falls back to the
    // older snapshot and replays the longer suffix to the same state.
    SCOPED_TRACE("snapshot/load");
    const fs::path dir = FreshDir("impreg_chaos_snapload");
    std::string wal_path, snap_dir;
    PrepareFullScene(dir, &wal_path, &snap_dir);
    durability::RecoveryOptions ropts;
    ropts.wal_path = wal_path;
    ropts.snapshot_dir = snap_dir;
    fault::Arm("snapshot/load", fault::FaultKind::kNaN, /*trigger_hit=*/1);
    std::unique_ptr<QueryEngine> recovered;
    const durability::RecoveryReport report = durability::RecoverEngine(
        DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
    EXPECT_GT(fault::InjectionCount(), 0);
    fault::Disarm();
    EXPECT_EQ(report.status, SolveStatus::kBreakdown) << report.detail;
    EXPECT_EQ(report.snapshots_rejected, 1);
    EXPECT_EQ(report.snapshot_epoch, 2);
    EXPECT_EQ(report.epoch, num_edits);
    ExpectRecoveryServesReference(ropts, report, *recovered, 1);
  }
}

// ——— Warm-start survives restart ———

TEST(DurabilityTest, WarmRestartSurvivesRestart) {
  const fs::path dir = FreshDir("impreg_warm_restart");
  const std::string wal_path = (dir / "wal.log").string();
  const std::string snap_dir = (dir / "snapshots").string();
  const auto edits = Edits();

  Query coarse;
  coarse.seeds = {0};
  coarse.epsilon = 1e-4;
  Query tight = coarse;
  tight.epsilon = 1e-6;

  // The doomed process: answer the coarse query (cached with its (p, r)
  // state), apply one edit, snapshot, apply another, crash.
  {
    QueryEngine engine(DynamicGraph::FromGraph(BaseGraph()));
    durability::WriteAheadLog wal;
    ASSERT_EQ(wal.Open(wal_path, {}), SolveStatus::kConverged);
    ServeLoop loop(engine, &wal, snap_dir);
    ASSERT_EQ(engine.Run(coarse).source, QuerySource::kCold);
    ASSERT_EQ(loop.Submit(EditRequest(edits[0])).outcome,
              SubmitOutcome::kAccepted);
    ASSERT_EQ(loop.WriteSnapshot().status, SolveStatus::kConverged);
    ASSERT_EQ(loop.Submit(EditRequest(edits[1])).outcome,
              SubmitOutcome::kAccepted);
    // Crash: no clean shutdown, no final snapshot.
  }

  // The uninterrupted twin.
  QueryEngine reference(DynamicGraph::FromGraph(BaseGraph()));
  reference.Run(coarse);
  reference.AddEdge(edits[0].u, edits[0].v, edits[0].weight);
  reference.AddEdge(edits[1].u, edits[1].v, edits[1].weight);

  durability::RecoveryOptions ropts;
  ropts.wal_path = wal_path;
  ropts.snapshot_dir = snap_dir;
  std::unique_ptr<QueryEngine> recovered;
  const durability::RecoveryReport report = durability::RecoverEngine(
      DynamicGraph::FromGraph(BaseGraph()), {}, ropts, &recovered);
  ASSERT_EQ(report.status, SolveStatus::kConverged) << report.detail;
  EXPECT_EQ(report.snapshot_epoch, 1);
  EXPECT_EQ(report.epoch, 2);
  EXPECT_EQ(report.cache_restored, 1);
  ExpectGraphsBitIdentical(recovered->graph(), reference.graph());

  // The tighter re-query warm-restarts from the restored (p, r) state on
  // both engines and produces bitwise-identical answers: warm-start
  // survived the restart.
  const QueryResponse got = recovered->Run(tight);
  const QueryResponse want = reference.Run(tight);
  EXPECT_EQ(got.source, QuerySource::kWarm);
  EXPECT_EQ(want.source, QuerySource::kWarm);
  ASSERT_EQ(got.scores.size(), want.scores.size());
  for (std::size_t i = 0; i < got.scores.size(); ++i) {
    EXPECT_EQ(Bits(got.scores[i]), Bits(want.scores[i]));
  }
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(recovered->cache().stats().warm_hits, 1);
}

// ——— Snapshot-isolated serving (mixed ingest + query) ———

TEST(DurabilityTest, PinnedBatchIsIsolatedFromConcurrentIngest) {
  const auto edits = Edits();
  const auto batch = ServingBatch();
  for (const bool cache_on : {true, false}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE("cache=" + std::to_string(cache_on) +
                   " threads=" + std::to_string(threads));
      ScopedNumThreads scoped(threads);
      QueryEngine::Options opt;
      opt.enable_cache = cache_on;

      // Engine A: pin, then let the whole edit stream land *before* the
      // batch executes. Engine B: pin, execute, then ingest.
      QueryEngine a(DynamicGraph::FromGraph(BaseGraph()), opt);
      QueryEngine b(DynamicGraph::FromGraph(BaseGraph()), opt);
      const DynamicGraph::SnapshotView view_a = a.PinSnapshot();
      const DynamicGraph::SnapshotView view_b = b.PinSnapshot();
      EXPECT_EQ(view_a.epoch(), 0);

      const auto ingest = [&edits](QueryEngine& engine) {
        for (const auto& e : edits) {
          if (e.remove) {
            engine.RemoveEdge(e.u, e.v, e.weight);
          } else {
            engine.AddEdge(e.u, e.v, e.weight);
          }
        }
      };
      ingest(a);
      const auto responses_a = a.RunBatchOn(view_a, batch);
      const auto responses_b = b.RunBatchOn(view_b, batch);
      ingest(b);

      // The pinned view answered at epoch 0 regardless of ingest
      // interleaving, and both engines end in the same state.
      ExpectResponsesBitIdentical(responses_a, responses_b);
      ExpectGraphsBitIdentical(a.graph(), b.graph());
      EXPECT_EQ(a.Epoch(), b.Epoch());
      ExpectGraphsBitIdentical(view_a.graph(),
                               DynamicGraph::FromGraph(BaseGraph()));

      if (cache_on) {
        // Entries cached through the old view are stamped with the
        // *snapshot* epoch as per-entry validity (keys are epoch-free)
        // — they can never masquerade as current-epoch answers, and a
        // current-epoch lookup of the same key must miss or warm, not
        // serve the stale bits.
        const auto keys_a = a.cache().KeysInInsertionOrder();
        EXPECT_EQ(keys_a, b.cache().KeysInInsertionOrder());
        const std::string pinned_key = QueryEngine::CanonicalKey(batch[0]);
        EXPECT_NE(std::find(keys_a.begin(), keys_a.end(), pinned_key),
                  keys_a.end());
        // A current-epoch batch still agrees bitwise between the two
        // interleavings (warm restarts included).
        ExpectResponsesBitIdentical(a.RunBatch(batch), b.RunBatch(batch));
      }
    }
  }
}

TEST(DurabilityTest, SnapshotViewIsStableUnderConcurrentWrites) {
  // 1,200 nodes span five copy-on-write pages. Generation A is pinned,
  // edits then land on page 0 only, and generation B is pinned: the two
  // pins share every page but the first, and the writer's later edits
  // land on pages both of them hold.
  DynamicGraph g = DynamicGraph::FromGraph(GridGraph(30, 40));
  const NodeId n = g.NumNodes();
  ASSERT_GT(n, 4 * DynamicGraph::kPageRows);
  const DynamicGraph::SnapshotView view_a = g.Snapshot(0);
  const DynamicGraph::Parts parts_a = view_a.graph().ExportParts();
  for (NodeId u = 0; u < 40; ++u) g.AddEdge(u, u + 100, 0.5);
  const DynamicGraph::SnapshotView view_b = g.Snapshot(1);
  const DynamicGraph::Parts parts_b = view_b.graph().ExportParts();

  const auto checksum = [](const DynamicGraph& graph) {
    double sum = 0.0;
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      sum += graph.Degree(u);
      for (const auto& arc : graph.Neighbors(u)) {
        sum += arc.weight * 1e-9 * arc.head;
      }
    }
    return Bits(sum);
  };
  const std::uint64_t sum_a = checksum(view_a.graph());
  const std::uint64_t sum_b = checksum(view_b.graph());

  // Readers traverse both pinned generations while the writer thread
  // mutates the live graph: the table and page clones must keep every
  // pinned page untouched (run under the tsan preset to certify no
  // data race).
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    const DynamicGraph& pinned = t % 2 == 0 ? view_a.graph() : view_b.graph();
    const std::uint64_t want = t % 2 == 0 ? sum_a : sum_b;
    readers.emplace_back([&pinned, &checksum, want] {
      for (int pass = 0; pass < 50; ++pass) {
        ASSERT_EQ(checksum(pinned), want);
      }
    });
  }
  for (int i = 0; i < 400; ++i) {
    const NodeId u = static_cast<NodeId>((i * 97) % n);
    const NodeId v = static_cast<NodeId>((i * 389 + 601) % n);
    g.AddEdge(u, v, 1.0 + 0.25 * (i % 3));
    if (i % 5 == 4) g.RemoveEdge(u, v, 0.125);
  }
  for (std::thread& t : readers) t.join();

  // Each pin still equals the deep copy taken when it was pinned.
  ExpectGraphsBitIdentical(
      view_a.graph(),
      DynamicGraph::FromParts(parts_a.adjacency, parts_a.degrees,
                              parts_a.num_edges, parts_a.total_volume));
  ExpectGraphsBitIdentical(
      view_b.graph(),
      DynamicGraph::FromParts(parts_b.adjacency, parts_b.degrees,
                              parts_b.num_edges, parts_b.total_volume));
  EXPECT_GT(g.NumEdges(), parts_b.num_edges);
}

}  // namespace
}  // namespace impreg
