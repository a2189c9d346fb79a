#ifndef IMPREG_SERVICE_QUERY_ENGINE_H_
#define IMPREG_SERVICE_QUERY_ENGINE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/budget_pool.h"
#include "core/solve_status.h"
#include "graph/graph.h"
#include "linalg/vector_ops.h"
#include "service/result_cache.h"
#include "streaming/dynamic_graph.h"

/// \file
/// The query-serving layer: batched seed-set queries over one evolving
/// graph.
///
/// The ROADMAP's target workload is *per-seed queries* — the paper's
/// central objects (push PPR, heat-kernel relaxation, Nibble community
/// sweeps) are all "given this seed set, diffuse locally and answer",
/// which is exactly what a serving system amortizes:
///
///  - identical requests in a batch are deduplicated and answered once;
///  - independent queries execute through the deterministic ParallelFor
///    pool (each inner solver is single-threaded there, so answers are
///    bit-identical at any thread count);
///  - each method runs through exactly one library entry point, on the
///    graph's original labels: StandardFormPush ("ppr"),
///    PersonalizedPageRankBatch ("ppr-dense"),
///    HeatKernelRelaxFromDistribution ("heat-kernel") and
///    NibbleFromDistribution ("nibble");
///  - compatible dense solves (same γ, tolerance and iteration cap) are
///    grouped into one PersonalizedPageRankBatch call — one adjacency
///    traversal per Richardson step for the whole group, each column
///    bit-identical to its solo PersonalizedPageRank;
///  - results land in a deterministic FIFO ResultCache keyed by
///    (method, parameters, seed fingerprint) — epochs are per-entry
///    validity state, not key material, so an edit that misses an
///    entry's read region leaves it exactly servable (surgical
///    invalidation; see service/result_cache.h). Push-family entries
///    keep their (p, r) invariant pair, so a tighter-ε or post-edit
///    re-query warm-restarts from the residual (InvariantResidual — the
///    IncrementalPersonalizedPageRank repair generalized) instead of
///    recomputing.
///
/// Budgeted queries degrade, never lie: a per-query WorkBudget that
/// runs out yields a best-so-far answer carrying kBudgetExhausted and
/// `degraded = true`. See docs/serving.md.
///
/// Under overload, admission control (core/budget_pool.h) extends that
/// contract to whole tenants: per-tenant WorkBudget pools walk the
/// deterministic ladder exact → warm-restart → budget-capped
/// degraded-but-marked → shed (kShed, `shed = true`). Admission runs
/// sequentially in arrival order, so the shed set is a pure function of
/// (tenant, arrival index, pool state) — bit-identical at any thread
/// count, cache on or off. See docs/load_testing.md.

namespace impreg {

/// Which diffusion answers the query.
enum class QueryMethod {
  kPprPush,     ///< Standard-form signed-residual push (warm-restartable).
  kPprDense,    ///< Dense Richardson PPR, grouped into one batch solve.
  kHeatKernel,  ///< hk-relax + sweep (community query).
  kNibble,      ///< Truncated lazy walk + sweep (community query).
};

/// Stable names: "ppr", "ppr-dense", "heat-kernel", "nibble".
const char* QueryMethodName(QueryMethod method);

/// Parses a stable name; false on unknown.
bool QueryMethodFromName(const std::string& name, QueryMethod* method);

/// One seed-set query. Fields beyond `method`/`seeds` are per-method
/// parameters; irrelevant ones are ignored (and excluded from the
/// cache key).
struct Query {
  QueryMethod method = QueryMethod::kPprPush;
  /// Seed nodes (deduplicated and sorted internally; the seed
  /// distribution is uniform over the distinct ids).
  std::vector<NodeId> seeds;
  /// Teleportation γ (kPprPush, kPprDense).
  double gamma = 0.15;
  /// Push residual tolerance (kPprPush) / truncation threshold
  /// (kNibble) / Taylor tail tolerance (kHeatKernel).
  double epsilon = 1e-6;
  /// Dense Richardson L1 stopping tolerance (kPprDense).
  double tolerance = 1e-12;
  /// Dense Richardson iteration cap (kPprDense).
  int max_iterations = 10000;
  /// Diffusion time (kHeatKernel).
  double t = 10.0;
  /// Per-step truncation threshold (kHeatKernel).
  double delta = 1e-5;
  /// Lazy-walk steps (kNibble).
  int steps = 40;
  /// Per-query work budget in arc traversals (0 = unlimited).
  std::int64_t max_work = 0;
  /// Tenant the query bills against ("" = the anonymous tenant).
  /// Admission control accounts per tenant; the cache key does NOT
  /// include the tenant — answers are tenant-independent.
  std::string tenant;
};

/// Where an answer came from.
enum class QuerySource {
  kCold,    ///< Computed from scratch.
  kWarm,    ///< Push warm-restarted from a cached (p, r) pair.
  kCached,  ///< Served verbatim from the cache.
};

/// Stable names: "cold", "warm", "cached".
const char* QuerySourceName(QuerySource source);

/// One answered query.
struct QueryResponse {
  /// The diffusion vector (PPR scores / ρ / nibble distribution).
  Vector scores;
  /// Community set (kHeatKernel, kNibble; empty for the PPR methods).
  std::vector<NodeId> set;
  double conductance = 1.0;
  /// Work spent answering (pushes / terms·support / step·support /
  /// iterations·arcs); 0 for a cache hit.
  std::int64_t work = 0;
  SolveStatus status = SolveStatus::kConverged;
  QuerySource source = QuerySource::kCold;
  /// True when status != kConverged: the answer is early-stopped,
  /// budget-truncated, or a safe fallback — marked, never silent.
  bool degraded = false;
  /// True when admission control refused the query (status == kShed):
  /// no computation happened, `scores`/`set` are empty, and the caller
  /// should retry later. Shed responses also carry degraded = true.
  bool shed = false;
  /// Echoed from the query (admission accounting key).
  std::string tenant;
  std::string detail;
};

/// Serves batches of queries over one evolving graph.
///
/// Determinism: for a fixed request sequence and cache configuration,
/// every response (and the cache contents) is bit-identical at any
/// thread count — cache phases are sequential in batch order, and the
/// parallel execution phase computes each query independently with
/// deterministic kernels. Not thread-safe: one engine, one caller.
class QueryEngine {
 public:
  struct Options {
    /// Retained cache entries (FIFO eviction).
    std::size_t cache_capacity = 256;
    /// Disable to force every query cold (determinism tests, benches).
    bool enable_cache = true;
    /// Surgical invalidation (the default): an edit evicts or demotes
    /// only the cached entries whose region fingerprint it touches;
    /// everything else keeps serving exact bits. Disable to restore
    /// the invalidate-the-world baseline (every edit retires every
    /// exact entry) — kept for the cache-retention benchmark.
    bool surgical_invalidation = true;
    /// Per-tenant admission control (off by default: every query is
    /// admitted exact and no ledgers are kept).
    struct AdmissionControl {
      bool enabled = false;
      /// Ladder thresholds + default capacity for every tenant.
      TenantPolicy policy;
      /// Per-tenant capacity overrides (tenant → arcs; 0 = unlimited).
      std::map<std::string, std::int64_t> tenant_capacity;
    } admission;
  };

  explicit QueryEngine(const Graph& initial);
  QueryEngine(const Graph& initial, const Options& options);
  explicit QueryEngine(const DynamicGraph& initial);
  QueryEngine(const DynamicGraph& initial, const Options& options);

  /// Inserts undirected edge {u, v} and bumps the graph epoch. Cached
  /// entries whose region fingerprint the edit touches are evicted or
  /// demoted to warm-restart-only service (surgical invalidation;
  /// counted in service.cache.region_evicted / region_demoted) —
  /// entries elsewhere keep serving exact bits. Pinned snapshot views
  /// are unaffected — the graph copies its page table and clones the
  /// ≤ 2 pages it writes before mutating them (copy-on-write, O(deg)
  /// plus two page copies; see streaming/dynamic_graph.h).
  void AddEdge(NodeId u, NodeId v, double weight = 1.0);

  /// Removes weight from undirected edge {u, v}
  /// (DynamicGraph::RemoveEdge semantics: 0.0 = remove entirely; the
  /// edge must exist — wire callers pre-validate with
  /// graph().EdgeWeight). Bumps the epoch and invalidates surgically,
  /// exactly like AddEdge: removal is just the other sign of the same
  /// two-column update.
  void RemoveEdge(NodeId u, NodeId v, double weight = 0.0);

  /// Pins the current (graph, epoch) as an immutable O(1) view. A batch
  /// run against the view answers at exactly that epoch no matter how
  /// many AddEdges land in between — the snapshot-isolated serving
  /// contract (see docs/durability.md). Release the view on the thread
  /// that edits the engine (DynamicGraph's one-writer rule).
  DynamicGraph::SnapshotView PinSnapshot() const {
    return graph_.Snapshot(epoch_);
  }

  /// Answers a batch at the *current* epoch: pins a snapshot and
  /// forwards to RunBatchOn. Validate → canonicalize → dedup →
  /// sequential cache lookups → parallel/grouped execution → sequential
  /// cache inserts. Responses align index-for-index with `queries`.
  std::vector<QueryResponse> RunBatch(const std::vector<Query>& queries);

  /// Answers a batch against a pinned snapshot (from PinSnapshot(),
  /// possibly several AddEdges ago). Results and cache mutations are a
  /// pure function of (snapshot, cache state, queries): bit-identical
  /// whether concurrent insertions landed during or after the batch,
  /// at any thread count. Inserted entries are stamped with the
  /// snapshot's epoch (and validated against the edit journal), so
  /// answers computed against an old view never masquerade as
  /// current-epoch entries.
  std::vector<QueryResponse> RunBatchOn(const DynamicGraph::SnapshotView& snap,
                                        const std::vector<Query>& queries);

  /// Convenience single-query form (a batch of one).
  QueryResponse Run(const Query& query);

  /// Restores the epoch counter after crash recovery (monotone: the
  /// restored value must be ≥ the current one). Recovery replays the
  /// WAL onto the graph first, then stamps the epoch it reached
  /// (src/service/durability/recovery.h).
  void RestoreEpoch(std::int64_t epoch);

  /// Re-admits a persisted cache entry (durability snapshot restore).
  /// Same containment as any insert: non-finite payloads are rejected
  /// (returns false). The entry's persisted validity state (epoch
  /// stamp, region fingerprint, warm-only flag) is restored verbatim;
  /// recovery then replays the invalidation of every WAL-suffix edit
  /// (ReplayEditInvalidation), so the restored cache makes exactly the
  /// decisions the live engine made — warm-start survives restart.
  bool RestoreCachedResult(const std::string& key, const std::string& warm_key,
                           CachedResult result);

  /// Re-applies one edit's cache invalidation during crash recovery.
  /// The WAL suffix was already replayed onto the graph before the
  /// engine was built, so this touches only the restored cache entries
  /// — graph and epoch stay as restored. Call once per replayed edit,
  /// in replay order, after the cache entries are restored.
  void ReplayEditInvalidation(NodeId u, NodeId v);

  /// Monotone edit counter. Not part of the cache key — entries carry
  /// their insert epoch as per-entry validity state (a batch pinned at
  /// an older snapshot never sees a newer answer).
  std::int64_t Epoch() const { return epoch_; }

  const DynamicGraph& graph() const { return graph_; }
  const ResultCache& cache() const { return cache_; }

  /// The admission ledgers (meaningful when options.admission.enabled;
  /// exposed for load reports and tests).
  const TenantBudgetPool& admission_pool() const { return pool_; }

  /// Drops every admission ledger and counter (fresh accounting window;
  /// cache and graph are untouched).
  void ResetAdmission() { pool_.Reset(); }

  /// The canonical exact cache key for `query` (exposed so tests can
  /// pin the keying scheme). Seeds are fingerprinted sorted and
  /// deduplicated; parameters print as %.17g. Deliberately epoch-free:
  /// validity lives on the entry (insert-epoch stamp + region
  /// fingerprint + warm-only flag), which is what lets an answer
  /// outlive edits that miss its region.
  static std::string CanonicalKey(const Query& query);

 private:
  struct WorkItem;

  /// One applied edit, journaled so phase-4 inserts from batches
  /// pinned at older snapshots can be validated against the edits they
  /// missed. `epoch` is the counter value the edit produced.
  struct EditRecord {
    std::int64_t epoch;
    NodeId u;
    NodeId v;
  };
  static constexpr std::size_t kEditJournalCapacity = 4096;

  /// Shared edit tail: bump the epoch, retire the old epoch's
  /// accounting, invalidate surgically (or wholesale, per options),
  /// and journal the edit.
  void FinishEdit(NodeId u, NodeId v);

  /// The frozen CSR snapshot of the batch's pinned epoch (rebuilt
  /// lazily when the pinned epoch changes); used by the
  /// dense/heat-kernel/nibble paths.
  const Graph& Frozen(const DynamicGraph::SnapshotView& snap);

  void ExecuteItem(WorkItem& item, const DynamicGraph::SnapshotView& snap,
                   const Graph* frozen);
  void ExecutePush(WorkItem& item, const DynamicGraph::SnapshotView& snap);
  void RunDenseGroup(const Graph& frozen, std::vector<WorkItem*>& group);

  Options options_;
  DynamicGraph graph_;
  std::int64_t epoch_ = 0;
  ResultCache cache_;
  TenantBudgetPool pool_;
  std::unique_ptr<Graph> frozen_;
  std::int64_t frozen_epoch_ = -1;
  /// The last kEditJournalCapacity edits, oldest first (consecutive
  /// epochs). A stale-snapshot insert whose missed window outgrew the
  /// journal is conservatively demoted to warm-only.
  std::deque<EditRecord> edit_journal_;
};

}  // namespace impreg

#endif  // IMPREG_SERVICE_QUERY_ENGINE_H_
