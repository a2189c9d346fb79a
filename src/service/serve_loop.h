#ifndef IMPREG_SERVICE_SERVE_LOOP_H_
#define IMPREG_SERVICE_SERVE_LOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/solve_status.h"
#include "service/durability/snapshot.h"
#include "service/durability/wal.h"
#include "service/query_engine.h"
#include "service/wire.h"
#include "streaming/dynamic_graph.h"

/// \file
/// The serve loop: the one driver from a stream of wire requests to a
/// QueryEngine, behind `impreg_cli query-batch` and `serve`.
///
/// Submit takes one request at a time. An edit is validated against the
/// live graph, appended to the write-ahead log when one is attached
/// (before it touches the graph, so an acknowledged edit survives a
/// crash), applied, and counted toward the snapshot cadence. A query
/// joins the group pinned at the current epoch: edits never wait for
/// queued queries, and each group later answers against its pinned
/// SnapshotView exactly what it would have answered when issued
/// (docs/durability.md). Flush runs the pending groups through
/// RunBatchOn, oldest first, and hands each to the caller as it is
/// answered. `serve` flushes once, at end of input.
///
/// Responses, WAL bytes and snapshot files are a pure function of the
/// engine's state and the submitted sequence, at any thread count. One
/// caller, on the thread that edits the engine.

namespace impreg {

/// What Submit did with one request.
enum class SubmitOutcome {
  kAccepted,  ///< The query is queued, or the edit logged and applied.
  /// The live graph refuses the edit (a node out of range, a missing
  /// edge, a removal heavier than the stored weight). Nothing changed.
  kRejected,
  kNotAcknowledged,  ///< The WAL refused the edit; it is not applied.
  /// The edit is logged and applied, but the cadence snapshot after it
  /// failed. The previous snapshot stands and the WAL covers the gap.
  kSnapshotFailed,
};

struct SubmitResult {
  SubmitOutcome outcome = SubmitOutcome::kAccepted;
  /// The failing step's status (kInvalidInput for kRejected).
  SolveStatus status = SolveStatus::kConverged;
  /// Why, in one line, for every outcome but kAccepted.
  std::string detail;
};

/// The queries issued at one epoch, answered against the view pinned
/// when the first of them arrived.
struct ServedGroup {
  DynamicGraph::SnapshotView snap;
  std::vector<QueryRequest> requests;
  std::vector<QueryResponse> responses;  ///< Aligned with `requests`.
  std::vector<std::string> lines;        ///< Their wire lines.
};

class ServeLoop {
 public:
  /// Drives `engine` and, if set, `wal`; both must outlive the loop.
  /// Each edit goes to the WAL before the engine. With a non-empty
  /// `snapshot_dir` and `snapshot_every` > 0, a snapshot is written
  /// after every `snapshot_every` applied edits.
  explicit ServeLoop(QueryEngine& engine,
                     durability::WriteAheadLog* wal = nullptr,
                     std::string snapshot_dir = "", int snapshot_every = 0);

  /// Validates, logs and applies an edit, or queues a query.
  SubmitResult Submit(QueryRequest request);

  /// Answers every queued group, oldest first, and empties the queue.
  /// Each group goes to `answered` (which may move from it) and is
  /// dropped before the next one runs, so only one group's dense
  /// responses are alive at a time.
  void Flush(const std::function<void(ServedGroup&)>& answered);

  /// Writes a snapshot of the engine's graph and cache at its current
  /// epoch into `snapshot_dir` now.
  durability::SnapshotWriteResult WriteSnapshot() const;

 private:
  QueryEngine& engine_;
  durability::WriteAheadLog* wal_;
  std::string snapshot_dir_;
  int snapshot_every_;
  std::int64_t edits_since_snapshot_ = 0;
  std::vector<ServedGroup> pending_;
};

}  // namespace impreg

#endif  // IMPREG_SERVICE_SERVE_LOOP_H_
