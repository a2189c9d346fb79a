#ifndef IMPREG_SERVICE_DURABILITY_SNAPSHOT_H_
#define IMPREG_SERVICE_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/solve_status.h"
#include "service/result_cache.h"
#include "streaming/dynamic_graph.h"

/// \file
/// Epoch snapshots: a checksummed binary image of the dynamic graph (and
/// the warm-restartable slice of the result cache) at one epoch, written
/// atomically so a crash mid-write can never shadow a good older
/// snapshot with a half-written new one.
///
/// File layout (little-endian):
///
///   header  := magic "IMPRGSNP" | u32 version (3)
///   body    := u64 payload_size | u32 crc32c(payload) | payload
///   payload := i64 epoch
///            | i64 num_nodes | i64 num_edges | f64 total_volume
///            | f64 degrees[num_nodes]
///            | per node: u32 count | (i32 head, f64 weight)[count]
///            | u32 cache_entries
///            | per entry: entry
///   entry   := str key | str warm_key | sparse scores
///            | u64 set_size | i32 set[set_size]
///            | f64 conductance | i64 work | u8 status | str detail
///            | u8 has_state | sparse p | sparse r
///            | i64 epoch | f64 epsilon
///            | u64 region_words[8] | u8 region_all | u8 warm_only
///   str     := u32 length | bytes
///   sparse  := u64 count | (i32 node, f64 value)[count]
///
/// A sparse list holds its nodes in strictly ascending order, each in
/// [0, num_nodes), and every value whose bits are not +0.0, so it
/// restores the dense vector bit for bit (linalg/sparse_vector.h). v2
/// stored scores, p and r as dense n-vectors; v3 makes an entry cost
/// O(support). The reader is strict-v3 — snapshots are rewritten at
/// every checkpoint, so an older-version file is simply rejected and
/// recovery falls back to full WAL replay (reported as kBreakdown, with
/// the state fully recovered).
///
/// Bit-identical restore is the design constraint that shaped the
/// format: degrees and total_volume are *accumulated* floating-point
/// sums whose bits depend on edge arrival order, and neighbor lists are
/// in per-node insertion order (which the push solvers traverse). Both
/// are serialized exactly as stored — recomputing either on load would
/// produce a graph that answers queries with different low-order bits
/// than the one that never crashed. DynamicGraph::FromParts reassembles
/// the exact representation.
///
/// Atomicity: the image is written to "<final>.tmp", fsynced, renamed
/// into place, and the directory fsynced — the POSIX publish idiom. A
/// reader never observes a partial file under the final name; a crash
/// leaves at most a stale .tmp that the next write overwrites.
///
/// Snapshots are named "snapshot-<epoch>" inside a caller-chosen
/// directory; recovery loads the newest one that passes its checksum
/// and falls back epoch by epoch when one does not
/// (src/service/durability/recovery.h).
///
/// Fault points: "snapshot/write" (a poisoned image is detected before
/// the tmp file is published — the previous snapshot survives),
/// "snapshot/load" (a decoded graph that fails validation is rejected
/// exactly like a CRC mismatch — recovery falls back).

namespace impreg::durability {

/// One persisted cache entry (the warm-restartable slice: entries
/// carrying their (p, r) invariant pair survive restart).
struct SnapshotCacheEntry {
  std::string key;
  std::string warm_key;
  CachedResult result;
};

/// A decoded snapshot.
struct SnapshotData {
  std::int64_t epoch = 0;
  DynamicGraph graph{0};
  /// Oldest-insertion-first — re-inserting in this order reproduces the
  /// cache's FIFO state.
  std::vector<SnapshotCacheEntry> cache_entries;
};

struct SnapshotWriteResult {
  /// kConverged: published under `path`. kInvalidInput: the in-memory
  /// image failed validation before any byte was published (the
  /// injected-poison path). kBreakdown: an I/O step failed; the tmp
  /// file is removed and any previous snapshot is untouched.
  SolveStatus status = SolveStatus::kConverged;
  /// Final path ("<dir>/snapshot-<epoch>") on success.
  std::string path;
  std::string detail;
};

/// Serializes `graph` (+ the state-bearing entries of `cache_entries`)
/// at `epoch` into `dir` (created if missing) via the atomic
/// tmp-fsync-rename publish. Entries without warm state are skipped —
/// they are cheap to recompute and cannot warm-restart anything.
SnapshotWriteResult WriteSnapshot(
    const std::string& dir, std::int64_t epoch, const DynamicGraph& graph,
    const std::vector<ResultCache::ExportedEntry>& cache_entries);

struct SnapshotLoadResult {
  /// kConverged: `data` holds the decoded snapshot. kInvalidInput: the
  /// file is missing, short, or fails its checksum or validation — the
  /// caller falls back to an older snapshot or the base graph; poisoned
  /// state is never returned.
  SolveStatus status = SolveStatus::kConverged;
  SnapshotData data;
  std::string detail;
};

/// Reads and checksum-verifies one snapshot file. Never aborts on a
/// damaged file.
SnapshotLoadResult LoadSnapshot(const std::string& path);

/// The snapshots in `dir`, as (epoch, path), sorted newest-first — the
/// order recovery tries them in. Non-snapshot names are ignored; an
/// absent directory is an empty list.
std::vector<std::pair<std::int64_t, std::string>> ListSnapshots(
    const std::string& dir);

}  // namespace impreg::durability

#endif  // IMPREG_SERVICE_DURABILITY_SNAPSHOT_H_
