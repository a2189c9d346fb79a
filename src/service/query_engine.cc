#include "service/query_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>

#include "core/metrics.h"
#include "core/parallel.h"
#include "core/work_budget.h"
#include "diffusion/pagerank.h"
#include "partition/hkrelax.h"
#include "partition/nibble.h"
#include "streaming/incremental_ppr.h"
#include "util/check.h"

namespace impreg {

namespace {

std::string FormatParam(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<NodeId> CanonicalSeeds(const std::vector<NodeId>& seeds) {
  std::vector<NodeId> canonical = seeds;
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());
  return canonical;
}

std::string SeedFingerprint(const std::vector<NodeId>& canonical_seeds) {
  std::string fp;
  for (std::size_t i = 0; i < canonical_seeds.size(); ++i) {
    if (i > 0) fp += ',';
    fp += std::to_string(canonical_seeds[i]);
  }
  return fp;
}

/// The warm index key deliberately drops the epoch, ε and budget: any
/// (method, γ, seed) match is a valid warm-restart source — that is the
/// Perry–Mahoney point of treating the regularization parameter as part
/// of the query, with nearby settings cache-servable.
std::string WarmKey(const Query& query) {
  return std::string("warm|") + QueryMethodName(query.method) +
         "|gamma=" + FormatParam(query.gamma) +
         "|seeds=" + SeedFingerprint(query.seeds);
}

/// Empty string = valid; otherwise the kInvalidInput detail.
std::string ValidateQuery(const Query& query, NodeId num_nodes) {
  if (query.seeds.empty()) return "query has no seeds";
  for (NodeId s : query.seeds) {
    if (s < 0 || s >= num_nodes) {
      return "seed " + std::to_string(s) + " out of range [0, " +
             std::to_string(num_nodes) + ")";
    }
  }
  if (!(query.gamma > 0.0 && query.gamma < 1.0)) {
    return "gamma must be in (0, 1)";
  }
  if (!(query.epsilon > 0.0)) return "epsilon must be > 0";
  if (query.method == QueryMethod::kPprDense) {
    if (!(query.tolerance > 0.0)) return "tolerance must be > 0";
    if (query.max_iterations < 1) return "max_iterations must be >= 1";
  }
  if (query.method == QueryMethod::kHeatKernel) {
    if (!(query.t > 0.0)) return "t must be > 0";
    if (!(query.delta > 0.0)) return "delta must be > 0";
  }
  if (query.method == QueryMethod::kNibble && query.steps < 1) {
    return "steps must be >= 1";
  }
  if (query.max_work < 0) return "max_work must be >= 0";
  return "";
}

}  // namespace

const char* QueryMethodName(QueryMethod method) {
  switch (method) {
    case QueryMethod::kPprPush:    return "ppr";
    case QueryMethod::kPprDense:   return "ppr-dense";
    case QueryMethod::kHeatKernel: return "heat-kernel";
    case QueryMethod::kNibble:     return "nibble";
  }
  return "unknown";
}

bool QueryMethodFromName(const std::string& name, QueryMethod* method) {
  if (name == "ppr") *method = QueryMethod::kPprPush;
  else if (name == "ppr-dense") *method = QueryMethod::kPprDense;
  else if (name == "heat-kernel") *method = QueryMethod::kHeatKernel;
  else if (name == "nibble") *method = QueryMethod::kNibble;
  else return false;
  return true;
}

const char* QuerySourceName(QuerySource source) {
  switch (source) {
    case QuerySource::kCold:   return "cold";
    case QuerySource::kWarm:   return "warm";
    case QuerySource::kCached: return "cached";
  }
  return "unknown";
}

struct QueryEngine::WorkItem {
  Query query;  ///< Canonicalized (seeds sorted + deduplicated).
  Vector seed;  ///< Uniform distribution over the canonical seeds.
  std::string key;
  std::string warm_key;
  QueryResponse response;
  bool done = false;   ///< Answered (cache hit) — skip execution.
  bool fresh = false;  ///< Computed this batch — candidate for insert.
  bool warm = false;
  Vector warm_p;
  Vector warm_r;
  std::int64_t warm_epoch = 0;
  /// Push state captured for caching after execution.
  bool has_state = false;
  Vector state_p;
  Vector state_r;
  /// Read region of the computed answer (push fills an explicit
  /// fingerprint; whole-graph methods keep the default all-region).
  RegionFingerprint region;
};

QueryEngine::QueryEngine(const Graph& initial)
    : QueryEngine(initial, Options()) {}

QueryEngine::QueryEngine(const Graph& initial, const Options& options)
    : options_(options),
      graph_(DynamicGraph::FromGraph(initial)),
      cache_(options.cache_capacity),
      pool_(options.admission.policy) {
  for (const auto& entry : options_.admission.tenant_capacity) {
    pool_.SetCapacity(entry.first, entry.second);
  }
}

QueryEngine::QueryEngine(const DynamicGraph& initial)
    : QueryEngine(initial, Options()) {}

QueryEngine::QueryEngine(const DynamicGraph& initial, const Options& options)
    : options_(options),
      graph_(initial),
      cache_(options.cache_capacity),
      pool_(options.admission.policy) {
  for (const auto& entry : options_.admission.tenant_capacity) {
    pool_.SetCapacity(entry.first, entry.second);
  }
}

void QueryEngine::FinishEdit(NodeId u, NodeId v) {
  ++epoch_;
  // The edit retired epoch_ - 1: entries stamped with it stop being
  // current-epoch answers (O(1) accounting from the per-epoch counts).
  // The surgical pass below then decides, per entry, whether the edit
  // actually touches its read region — only those evict or demote.
  cache_.NoteEpochBump(epoch_ - 1);
  if (options_.surgical_invalidation) {
    cache_.InvalidateRegion(u, v);
  } else {
    cache_.InvalidateAll();
  }
  edit_journal_.push_back(EditRecord{epoch_, u, v});
  if (edit_journal_.size() > kEditJournalCapacity) edit_journal_.pop_front();
}

void QueryEngine::AddEdge(NodeId u, NodeId v, double weight) {
  graph_.AddEdge(u, v, weight);
  FinishEdit(u, v);
  IMPREG_METRIC_COUNT("service.engine.add_edges", 1);
}

void QueryEngine::RemoveEdge(NodeId u, NodeId v, double weight) {
  graph_.RemoveEdge(u, v, weight);
  FinishEdit(u, v);
  IMPREG_METRIC_COUNT("service.engine.remove_edges", 1);
}

void QueryEngine::ReplayEditInvalidation(NodeId u, NodeId v) {
  if (options_.surgical_invalidation) {
    cache_.InvalidateRegion(u, v);
  } else {
    cache_.InvalidateAll();
  }
}

void QueryEngine::RestoreEpoch(std::int64_t epoch) {
  IMPREG_CHECK_MSG(epoch >= epoch_,
                   "restored epoch must not move backwards");
  epoch_ = epoch;
}

bool QueryEngine::RestoreCachedResult(const std::string& key,
                                      const std::string& warm_key,
                                      CachedResult result) {
  return cache_.Insert(key, warm_key, std::move(result));
}

std::string QueryEngine::CanonicalKey(const Query& query) {
  const std::vector<NodeId> seeds = CanonicalSeeds(query.seeds);
  std::string key = QueryMethodName(query.method);
  switch (query.method) {
    case QueryMethod::kPprPush:
      key += "|gamma=" + FormatParam(query.gamma) +
             "|epsilon=" + FormatParam(query.epsilon);
      break;
    case QueryMethod::kPprDense:
      key += "|gamma=" + FormatParam(query.gamma) +
             "|tolerance=" + FormatParam(query.tolerance) +
             "|iters=" + std::to_string(query.max_iterations);
      break;
    case QueryMethod::kHeatKernel:
      key += "|t=" + FormatParam(query.t) +
             "|delta=" + FormatParam(query.delta) +
             "|tail=" + FormatParam(query.epsilon);
      break;
    case QueryMethod::kNibble:
      key += "|steps=" + std::to_string(query.steps) +
             "|epsilon=" + FormatParam(query.epsilon);
      break;
  }
  key += "|work=" + std::to_string(query.max_work);
  key += "|seeds=" + SeedFingerprint(seeds);
  // Deliberately absent: the graph epoch (per-entry validity state —
  // the insert stamp, region fingerprint, and warm-only flag say
  // whether an entry may serve).
  return key;
}

const Graph& QueryEngine::Frozen(const DynamicGraph::SnapshotView& snap) {
  if (frozen_ == nullptr || frozen_epoch_ != snap.epoch()) {
    IMPREG_METRIC_TIMER("service.engine.freeze_ns");
    IMPREG_METRIC_COUNT("service.engine.freezes", 1);
    frozen_ = std::make_unique<Graph>(snap.graph().ToGraph());
    frozen_epoch_ = snap.epoch();
  }
  return *frozen_;
}

void QueryEngine::ExecutePush(WorkItem& item,
                              const DynamicGraph::SnapshotView& snap) {
  const DynamicGraph& graph = snap.graph();
  const Query& q = item.query;
  const NodeId n = graph.NumNodes();
  WorkBudget budget(q.max_work);
  IncrementalPprOptions opts;
  opts.gamma = q.gamma;
  opts.epsilon = q.epsilon;
  opts.budget = q.max_work > 0 ? &budget : nullptr;

  Vector p, r;
  if (item.warm) {
    p = std::move(item.warm_p);
    if (item.warm_epoch == snap.epoch()) {
      // Same graph: the cached residual is exact — continue the push
      // (a tighter ε simply drains r further).
      r = std::move(item.warm_r);
    } else {
      // The graph changed since the state was cached: restore the push
      // invariant on the *pinned* graph with one column scatter over
      // supp(p) — the AddEdge repair generalized to any edit distance.
      r = InvariantResidual(graph, item.seed, p, q.gamma);
    }
  } else {
    p.assign(n, 0.0);
    r = item.seed;
  }

  std::deque<NodeId> queue;
  std::vector<char> queued(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    const double d = graph.Degree(u);
    const double threshold = d > 0.0 ? q.epsilon * d : q.epsilon;
    if (std::abs(r[u]) >= threshold) {
      queue.push_back(u);
      queued[u] = 1;
    }
  }

  SolverDiagnostics diag;
  const std::int64_t pushes =
      StandardFormPush(graph, opts, p, r, queue, queued, diag);

  // Fingerprint the read region: every row this push — or a
  // from-scratch recompute of it — can read lies in supp(p) ∪ supp(r)
  // ∪ supp(seed) plus their one-hop neighborhoods (the threshold check
  // reads the degree of every node residual is scattered to). An edit
  // outside that region leaves the cached answer exactly valid — bit
  // for bit — which is what surgical invalidation serves on.
  item.region.Reset();
  for (NodeId s : q.seeds) item.region.Add(s);
  for (NodeId u = 0; u < n; ++u) {
    if (p[u] == 0.0 && r[u] == 0.0) continue;
    item.region.Add(u);
    for (const DynamicGraph::Neighbor& nb : graph.Neighbors(u)) {
      item.region.Add(nb.head);
    }
  }

  item.response.scores = p;
  item.response.work = pushes;
  item.response.status = diag.status;
  item.response.detail = diag.detail;
  item.response.source = item.warm ? QuerySource::kWarm : QuerySource::kCold;
  item.state_p = std::move(p);
  item.state_r = std::move(r);
  item.has_state = true;
  if (item.warm) {
    IMPREG_METRIC_COUNT("service.engine.warm", 1);
    IMPREG_METRIC_COUNT("service.engine.warm_pushes", pushes);
  } else {
    IMPREG_METRIC_COUNT("service.engine.cold", 1);
    IMPREG_METRIC_COUNT("service.engine.cold_pushes", pushes);
  }
}

void QueryEngine::ExecuteItem(WorkItem& item,
                              const DynamicGraph::SnapshotView& snap,
                              const Graph* frozen) {
  IMPREG_METRIC_TIMER("service.query.latency_ns");
  const Query& q = item.query;
  switch (q.method) {
    case QueryMethod::kPprPush:
      ExecutePush(item, snap);
      break;
    case QueryMethod::kHeatKernel: {
      IMPREG_CHECK(frozen != nullptr);
      WorkBudget budget(q.max_work);
      HkRelaxOptions opts;
      opts.t = q.t;
      opts.delta = q.delta;
      opts.tail_tolerance = q.epsilon;
      opts.budget = q.max_work > 0 ? &budget : nullptr;
      HkRelaxResult hk =
          HeatKernelRelaxFromDistribution(*frozen, item.seed, opts);
      item.response.scores = std::move(hk.rho);
      item.response.set = std::move(hk.set);
      item.response.conductance = hk.stats.conductance;
      item.response.work = hk.work;
      item.response.status = hk.diagnostics.status;
      item.response.detail = hk.diagnostics.detail;
      item.response.source = QuerySource::kCold;
      IMPREG_METRIC_COUNT("service.engine.cold", 1);
      break;
    }
    case QueryMethod::kNibble: {
      IMPREG_CHECK(frozen != nullptr);
      WorkBudget budget(q.max_work);
      NibbleOptions opts;
      opts.steps = q.steps;
      opts.epsilon = q.epsilon;
      opts.budget = q.max_work > 0 ? &budget : nullptr;
      NibbleResult nib = NibbleFromDistribution(*frozen, item.seed, opts);
      item.response.scores = std::move(nib.distribution);
      item.response.set = std::move(nib.set);
      item.response.conductance = nib.stats.conductance;
      item.response.work = nib.work;
      item.response.status = nib.diagnostics.status;
      item.response.detail = nib.diagnostics.detail;
      item.response.source = QuerySource::kCold;
      IMPREG_METRIC_COUNT("service.engine.cold", 1);
      break;
    }
    case QueryMethod::kPprDense:
      IMPREG_CHECK_MSG(false, "dense queries run through RunDenseGroup");
      break;
  }
  item.response.degraded =
      item.response.status != SolveStatus::kConverged;
  item.fresh = true;
  item.done = true;
}

void QueryEngine::RunDenseGroup(const Graph& frozen,
                                std::vector<WorkItem*>& group) {
  IMPREG_METRIC_TIMER("service.dense_group.latency_ns");
  // All group members share (γ, tolerance, max_iterations) by
  // construction; budgets stay per-item.
  const Query& shared = group.front()->query;
  PageRankOptions options;
  options.gamma = shared.gamma;
  options.tolerance = shared.tolerance;
  options.max_iterations = shared.max_iterations;
  std::vector<Vector> seeds;
  std::vector<WorkBudget> budgets;
  std::vector<WorkBudget*> budget_ptrs;
  seeds.reserve(group.size());
  budgets.reserve(group.size());
  for (WorkItem* item : group) {
    seeds.push_back(std::move(item->seed));
    budgets.emplace_back(item->query.max_work);
    budget_ptrs.push_back(item->query.max_work > 0 ? &budgets.back()
                                                   : nullptr);
  }
  std::vector<PageRankResult> solved =
      PersonalizedPageRankBatch(frozen, std::move(seeds), options, budget_ptrs);

  const std::int64_t arcs_per_iter =
      std::max<std::int64_t>(frozen.NumArcs(), 1);
  for (std::size_t j = 0; j < group.size(); ++j) {
    WorkItem& item = *group[j];
    PageRankResult& pr = solved[j];
    item.response.scores = std::move(pr.scores);
    item.response.work =
        static_cast<std::int64_t>(pr.iterations) * arcs_per_iter;
    item.response.status = pr.diagnostics.status;
    item.response.detail = std::move(pr.diagnostics.detail);
    item.response.source = QuerySource::kCold;
    item.response.degraded =
        item.response.status != SolveStatus::kConverged;
    item.fresh = true;
    item.done = true;
    IMPREG_METRIC_COUNT("service.engine.cold", 1);
  }
}

std::vector<QueryResponse> QueryEngine::RunBatch(
    const std::vector<Query>& queries) {
  return RunBatchOn(PinSnapshot(), queries);
}

std::vector<QueryResponse> QueryEngine::RunBatchOn(
    const DynamicGraph::SnapshotView& snap,
    const std::vector<Query>& queries) {
  IMPREG_METRIC_COUNT("service.engine.batches", 1);
  IMPREG_METRIC_COUNT("service.engine.queries",
                      static_cast<std::int64_t>(queries.size()));
  const NodeId n = snap.graph().NumNodes();
  std::vector<QueryResponse> out(queries.size());
  std::vector<int> slot(queries.size(), -1);
  std::vector<std::unique_ptr<WorkItem>> items;
  std::unordered_map<std::string, int> dedup;
  // Per-arrival admission bookkeeping: -1 = not admitted (shed,
  // invalid, or admission disabled).
  const bool admit = options_.admission.enabled;
  std::vector<std::int64_t> billed(queries.size(), -1);
  std::vector<char> owner(queries.size(), 0);

  // Phase 1 (sequential, arrival order): validate, admit,
  // canonicalize, deduplicate. Admission runs here — before dedup and
  // before any cache lookup — so each shed decision is a pure function
  // of (tenant, arrival index, pool state): identical at any thread
  // count, cache on or off.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string error = ValidateQuery(queries[i], n);
    if (!error.empty()) {
      out[i].scores.assign(n, 0.0);
      out[i].status = SolveStatus::kInvalidInput;
      out[i].degraded = true;
      out[i].detail = error;
      IMPREG_METRIC_COUNT("service.engine.invalid", 1);
      continue;
    }
    Query canonical = queries[i];
    canonical.seeds = CanonicalSeeds(canonical.seeds);
    if (admit) {
      std::int64_t granted = 0;
      const AdmissionDecision decision =
          pool_.Admit(canonical.tenant, canonical.max_work, &granted);
      if (decision == AdmissionDecision::kShed) {
        // No computation, no answer — an explicit refusal, never a
        // silent drop. scores/set stay empty.
        out[i].status = SolveStatus::kShed;
        out[i].degraded = true;
        out[i].shed = true;
        out[i].detail = "tenant '" + canonical.tenant +
                        "' work pool exhausted; shed by admission control";
        IMPREG_METRIC_COUNT("service.engine.shed", 1);
        continue;
      }
      billed[i] = granted;
      if (decision == AdmissionDecision::kDegraded) {
        // The granted cap flows into max_work *before* the cache key is
        // computed, so capped queries key (and cache) separately from
        // their exact twins.
        canonical.max_work = canonical.max_work > 0
                                 ? std::min(canonical.max_work, granted)
                                 : granted;
      }
    }
    std::string key = CanonicalKey(canonical);
    const auto duplicate = dedup.find(key);
    if (duplicate != dedup.end()) {
      slot[i] = duplicate->second;
      IMPREG_METRIC_COUNT("service.engine.deduped", 1);
      continue;
    }
    auto item = std::make_unique<WorkItem>();
    item->query = std::move(canonical);
    item->key = std::move(key);
    if (item->query.method == QueryMethod::kPprPush) {
      item->warm_key = WarmKey(item->query);
    }
    item->seed.assign(n, 0.0);
    const double mass = 1.0 / static_cast<double>(item->query.seeds.size());
    for (NodeId s : item->query.seeds) item->seed[s] = mass;
    slot[i] = static_cast<int>(items.size());
    owner[i] = 1;
    dedup.emplace(item->key, static_cast<int>(items.size()));
    items.push_back(std::move(item));
  }

  // Phase 2 (sequential, batch order): cache lookups. Doing every
  // lookup — and later every insert — in batch order on one thread is
  // what keeps the cache contents identical at any thread count.
  if (options_.enable_cache) {
    for (auto& owned : items) {
      WorkItem& item = *owned;
      // Epoch-aware: an entry serves only when it is still exactly
      // valid (not demoted) and was inserted at or before the pinned
      // snapshot's epoch.
      const CachedResult* hit = cache_.Lookup(item.key, snap.epoch());
      if (hit != nullptr) {
        item.response.scores = hit->scores;
        item.response.set = hit->set;
        item.response.conductance = hit->conductance;
        item.response.work = 0;
        item.response.status = hit->status;
        item.response.source = QuerySource::kCached;
        item.response.degraded = hit->status != SolveStatus::kConverged;
        item.response.detail = hit->detail.empty()
                                   ? "served from cache"
                                   : hit->detail + " (served from cache)";
        item.done = true;
        IMPREG_METRIC_COUNT("service.engine.cached", 1);
        continue;
      }
      if (item.query.method == QueryMethod::kPprPush) {
        const CachedResult* warm = cache_.WarmLookup(item.warm_key);
        if (warm != nullptr && warm->has_state) {
          item.warm = true;
          item.warm_p = warm->p;
          item.warm_r = warm->r;
          item.warm_epoch = warm->epoch;
        }
      }
    }
  }

  // Freeze the CSR snapshot once, before any parallel work needs it.
  bool needs_frozen = false;
  for (const auto& owned : items) {
    if (!owned->done && owned->query.method != QueryMethod::kPprPush) {
      needs_frozen = true;
    }
  }
  const Graph* frozen = needs_frozen ? &Frozen(snap) : nullptr;

  // Phase 3a (grouped): compatible dense solves, one
  // PersonalizedPageRankBatch call per group. std::map keys the groups
  // deterministically.
  std::map<std::string, std::vector<WorkItem*>> dense_groups;
  for (auto& owned : items) {
    if (owned->done || owned->query.method != QueryMethod::kPprDense) {
      continue;
    }
    const Query& q = owned->query;
    dense_groups["gamma=" + FormatParam(q.gamma) +
                 "|tolerance=" + FormatParam(q.tolerance) +
                 "|iters=" + std::to_string(q.max_iterations)]
        .push_back(owned.get());
  }
  for (auto& entry : dense_groups) {
    RunDenseGroup(*frozen, entry.second);
  }

  // Phase 3b (parallel): everything else, one item per task. Each
  // inner solver runs serially inside the pool (nested parallelism
  // falls back to serial), so answers are thread-count-invariant.
  std::vector<WorkItem*> pending;
  for (auto& owned : items) {
    if (!owned->done) pending.push_back(owned.get());
  }
  ParallelFor(0, static_cast<std::int64_t>(pending.size()), 1,
              [&](std::int64_t begin, std::int64_t end) {
                for (std::int64_t i = begin; i < end; ++i) {
                  ExecuteItem(*pending[i], snap, frozen);
                }
              });

  // Phase 4 (sequential, batch order): cache inserts. Only usable
  // answers are cached; kInvalidInput/kNonFinite never enter.
  if (options_.enable_cache) {
    for (auto& owned : items) {
      WorkItem& item = *owned;
      if (!item.fresh || !StatusIsUsable(item.response.status)) continue;
      CachedResult cached;
      cached.scores = item.response.scores;
      cached.set = item.response.set;
      cached.conductance = item.response.conductance;
      cached.work = item.response.work;
      cached.status = item.response.status;
      cached.detail = item.response.detail;
      // Epoch-stamped unconditionally: the stamp drives the
      // invalidation accounting at the next edit (NoteEpochBump), and
      // it records the epoch the answer is exact at — older pinned
      // snapshots never see it.
      cached.epoch = snap.epoch();
      cached.region = item.region;
      if (item.has_state) {
        cached.has_state = true;
        cached.p = std::move(item.state_p);
        cached.r = std::move(item.state_r);
        cached.epsilon = item.query.epsilon;
      }
      // A batch pinned at an older snapshot may have missed edits that
      // landed since. Consult the edit journal: if any missed edit
      // touches this answer's region — or the missed window outgrew
      // the journal — the exact answer is already stale on the live
      // graph, so keep it as a warm-restart source only (or drop it
      // when it carries no state).
      if (snap.epoch() < epoch_) {
        bool stale = !options_.surgical_invalidation ||
                     epoch_ - snap.epoch() >
                         static_cast<std::int64_t>(edit_journal_.size());
        if (!stale) {
          for (const EditRecord& e : edit_journal_) {
            if (e.epoch <= snap.epoch()) continue;
            if (cached.region.CoversEdit(e.u, e.v)) {
              stale = true;
              break;
            }
          }
        }
        if (stale) {
          if (!cached.has_state) continue;
          cached.warm_only = true;
        }
      }
      cache_.Insert(item.key, item.warm_key, std::move(cached));
    }
  }

  // Phase 5 (sequential, arrival order): record observed solver work
  // into the admission stats. Reporting only — deduped and cached
  // arrivals settle at 0, and nothing here feeds back into shed
  // decisions (see core/budget_pool.h).
  if (admit) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (billed[i] < 0) continue;
      const std::int64_t actual =
          owner[i] ? items[slot[i]]->response.work : 0;
      pool_.Settle(queries[i].tenant, actual);
    }
  }

  // Fan responses out to the original batch positions.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (slot[i] >= 0) out[i] = items[slot[i]]->response;
    out[i].tenant = queries[i].tenant;
  }
  return out;
}

QueryResponse QueryEngine::Run(const Query& query) {
  std::vector<QueryResponse> responses = RunBatch({query});
  return std::move(responses.front());
}

}  // namespace impreg
