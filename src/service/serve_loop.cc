#include "service/serve_loop.h"

#include <cstdio>
#include <utility>

namespace impreg {

namespace {

SubmitResult Rejected(const char* format, auto... args) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, args...);
  return {SubmitOutcome::kRejected, SolveStatus::kInvalidInput, buf};
}

}  // namespace

ServeLoop::ServeLoop(QueryEngine& engine, durability::WriteAheadLog* wal,
                     std::string snapshot_dir, int snapshot_every)
    : engine_(engine),
      wal_(wal),
      snapshot_dir_(std::move(snapshot_dir)),
      snapshot_every_(snapshot_every) {}

SubmitResult ServeLoop::Submit(QueryRequest request) {
  if (!request.is_add_edge && !request.is_remove_edge) {
    if (pending_.empty() || pending_.back().snap.epoch() != engine_.Epoch()) {
      pending_.push_back(ServedGroup{engine_.PinSnapshot(), {}, {}, {}});
    }
    pending_.back().requests.push_back(std::move(request));
    return {};
  }

  const NodeId u = request.u;
  const NodeId v = request.v;
  const double weight = request.weight;
  const NodeId n = engine_.graph().NumNodes();
  if (u < 0 || u >= n || v < 0 || v >= n) {
    return Rejected("%s node out of range [0, %d)",
                    request.is_add_edge ? "add-edge" : "remove-edge", n);
  }
  if (request.is_remove_edge) {
    // Checked against the live graph so a bad request is an input
    // error, never a trip of DynamicGraph::RemoveEdge's abort contract.
    const double stored = engine_.graph().EdgeWeight(u, v);
    if (stored == 0.0) return Rejected("remove-edge: no edge {%d, %d}", u, v);
    if (weight > stored) {
      return Rejected("remove-edge weight %g exceeds stored weight %g",
                      weight, stored);
    }
  }

  if (wal_ != nullptr) {
    std::string detail;
    const SolveStatus appended =
        request.is_add_edge ? wal_->AppendAddEdge(u, v, weight, &detail)
                            : wal_->AppendRemoveEdge(u, v, weight, &detail);
    if (appended != SolveStatus::kConverged) {
      return {SubmitOutcome::kNotAcknowledged, appended,
              "edit not acknowledged: " + detail};
    }
  }
  if (request.is_add_edge) {
    engine_.AddEdge(u, v, weight);
  } else {
    engine_.RemoveEdge(u, v, weight);
  }

  // The cadence counts edits, not successful writes: a failed snapshot
  // is skipped, and the next one is due `snapshot_every` edits later.
  if (snapshot_dir_.empty() || snapshot_every_ <= 0 ||
      ++edits_since_snapshot_ < snapshot_every_) {
    return {};
  }
  edits_since_snapshot_ = 0;
  const durability::SnapshotWriteResult written = WriteSnapshot();
  if (written.status != SolveStatus::kConverged) {
    return {SubmitOutcome::kSnapshotFailed, written.status,
            "snapshot failed: " + written.detail};
  }
  return {};
}

void ServeLoop::Flush(const std::function<void(ServedGroup&)>& answered) {
  std::vector<ServedGroup> groups = std::exchange(pending_, {});
  for (ServedGroup& group : groups) {
    std::vector<Query> queries;
    queries.reserve(group.requests.size());
    for (const QueryRequest& request : group.requests) {
      queries.push_back(request.query);
    }
    group.responses = engine_.RunBatchOn(group.snap, queries);
    group.lines.reserve(group.requests.size());
    for (std::size_t i = 0; i < group.requests.size(); ++i) {
      group.lines.push_back(QueryResponseToJson(
          group.requests[i], group.responses[i], group.snap.epoch()));
    }
    answered(group);
    group = ServedGroup{};
  }
}

durability::SnapshotWriteResult ServeLoop::WriteSnapshot() const {
  return durability::WriteSnapshot(snapshot_dir_, engine_.Epoch(),
                                   engine_.graph(),
                                   engine_.cache().ExportEntries());
}

}  // namespace impreg
