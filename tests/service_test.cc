// Acceptance suite for the query-serving layer (service/): the
// deterministic FIFO ResultCache, the QueryEngine's dedup / cache /
// warm-restart / dense-grouping behavior, and the JSONL wire schema
// pin. The thread-count invariance of the whole engine is pinned in
// determinism_test.cc; the fault-containment path of the cache insert
// in robustness_test.cc.

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/solve_status.h"
#include "core/work_budget.h"
#include "diffusion/pagerank.h"
#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "partition/hkrelax.h"
#include "partition/nibble.h"
#include "service/query_engine.h"
#include "service/result_cache.h"
#include "service/wire.h"
#include "streaming/dynamic_graph.h"
#include "streaming/incremental_ppr.h"
#include "util/json.h"
#include "util/rng.h"

namespace impreg {
namespace {

CachedResult MakeResult(double value) {
  CachedResult result;
  result.scores = {{0, value}, {1, value / 2.0}};
  return result;
}

// —— ResultCache unit behavior ———————————————————————————————————

TEST(ResultCacheTest, HitAndMissCountsAreExact) {
  ResultCache cache(4);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_TRUE(cache.Insert("a", "", MakeResult(1.0)));
  const CachedResult* hit = cache.Lookup("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->scores[0].value, 1.0);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().insertions, 1);
}

TEST(ResultCacheTest, FifoEvictionBoundsSizeAndDropsOldestInsertion) {
  ResultCache cache(2);
  cache.Insert("a", "", MakeResult(1.0));
  cache.Insert("b", "", MakeResult(2.0));
  // Replacing "a" keeps its insertion-order slot: it is still oldest.
  cache.Insert("a", "", MakeResult(3.0));
  cache.Insert("c", "", MakeResult(4.0));  // Evicts "a", not "b".
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.KeysInInsertionOrder(),
            (std::vector<std::string>{"b", "c"}));
}

TEST(ResultCacheTest, NonFinitePayloadIsRejectedNotStored) {
  ResultCache cache(4);
  CachedResult poisoned = MakeResult(1.0);
  poisoned.scores[1].value = std::nan("");
  EXPECT_FALSE(cache.Insert("a", "", std::move(poisoned)));
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_EQ(cache.stats().rejected, 1);
  EXPECT_EQ(cache.stats().insertions, 0);

  CachedResult bad_state = MakeResult(1.0);
  bad_state.has_state = true;
  bad_state.p = {{0, 1.0}};
  bad_state.r = {{0, std::numeric_limits<double>::infinity()}};
  EXPECT_FALSE(cache.Insert("b", "warm", std::move(bad_state)));
  EXPECT_EQ(cache.stats().rejected, 2);
}

TEST(ResultCacheTest, WarmIndexTracksLatestStatefulEntryAndEviction) {
  ResultCache cache(2);
  CachedResult first = MakeResult(1.0);
  first.has_state = true;
  first.p = {{0, 1.0}};
  first.r = {{0, 0.5}};
  first.epoch = 0;
  cache.Insert("k0", "warm", std::move(first));
  ASSERT_NE(cache.WarmLookup("warm"), nullptr);
  EXPECT_EQ(cache.WarmLookup("warm")->epoch, 0);

  CachedResult second = MakeResult(2.0);
  second.has_state = true;
  second.p = {{0, 2.0}};
  second.r = {{0, 0.25}};
  second.epoch = 1;
  cache.Insert("k1", "warm", std::move(second));
  // Latest insertion wins the warm slot.
  EXPECT_EQ(cache.WarmLookup("warm")->epoch, 1);

  // Filling the cache evicts k0 (oldest) — the warm slot, which points
  // at k1, must survive; evicting k1 next clears it.
  cache.Insert("k2", "", MakeResult(3.0));
  EXPECT_EQ(cache.Lookup("k0"), nullptr);
  ASSERT_NE(cache.WarmLookup("warm"), nullptr);
  EXPECT_EQ(cache.WarmLookup("warm")->epoch, 1);
  cache.Insert("k3", "", MakeResult(4.0));  // Evicts k1.
  EXPECT_EQ(cache.WarmLookup("warm"), nullptr);
}

TEST(ResultCacheTest, ReplaceInPlaceDroppingStateClearsTheWarmSlot) {
  ResultCache cache(4);
  CachedResult stateful = MakeResult(1.0);
  stateful.has_state = true;
  stateful.p = {{0, 1.0}};
  stateful.r = {{0, 0.5}};
  cache.Insert("k", "warm", std::move(stateful));
  ASSERT_NE(cache.WarmLookup("warm"), nullptr);

  // Replacing the warm-slot holder with a stateless result must drop
  // the warm registration — a stale pointer here would serve a (p, r)
  // pair that no longer exists.
  cache.Insert("k", "warm", MakeResult(2.0));
  EXPECT_EQ(cache.WarmLookup("warm"), nullptr);
  ASSERT_NE(cache.Lookup("k"), nullptr);
  EXPECT_DOUBLE_EQ(cache.Lookup("k")->scores[0].value, 2.0);
}

TEST(ResultCacheTest, WarmSlotHandsOffBetweenEntriesSharingAKey) {
  ResultCache cache(4);
  CachedResult first = MakeResult(1.0);
  first.has_state = true;
  first.p = {{0, 1.0}};
  first.r = {{0, 0.5}};
  first.epoch = 0;
  cache.Insert("k0", "warm", std::move(first));
  CachedResult second = MakeResult(2.0);
  second.has_state = true;
  second.p = {{0, 2.0}};
  second.r = {{0, 0.25}};
  second.epoch = 1;
  cache.Insert("k1", "warm", std::move(second));
  ASSERT_NE(cache.WarmLookup("warm"), nullptr);
  EXPECT_EQ(cache.WarmLookup("warm")->epoch, 1);

  // Replacing the holder k1 with a stateless result (from an
  // equal-or-newer epoch — older inserts are rejected outright) clears
  // the slot — it does NOT silently hand back to k0, whose state may
  // be older than what the caller last observed under this warm key.
  CachedResult stateless = MakeResult(3.0);
  stateless.epoch = 1;
  cache.Insert("k1", "warm", std::move(stateless));
  EXPECT_EQ(cache.WarmLookup("warm"), nullptr);
  // k0's state still exists and can retake the slot on its next
  // insertion.
  CachedResult again = MakeResult(4.0);
  again.has_state = true;
  again.p = {{0, 4.0}};
  again.r = {{0, 0.125}};
  again.epoch = 2;
  cache.Insert("k0", "warm", std::move(again));
  ASSERT_NE(cache.WarmLookup("warm"), nullptr);
  EXPECT_EQ(cache.WarmLookup("warm")->epoch, 2);
}

TEST(ResultCacheTest, RegionInvalidationDemotesStatefulEvictsStateless) {
  ResultCache cache(8);
  CachedResult stateless = MakeResult(1.0);
  stateless.region.Reset();
  stateless.region.Add(1);
  cache.Insert("a", "", std::move(stateless));

  CachedResult stateful = MakeResult(2.0);
  stateful.has_state = true;
  stateful.p = {{0, 1.0}};
  stateful.r = {{0, 0.5}};
  stateful.region.Reset();
  stateful.region.Add(1);
  stateful.region.Add(2);
  cache.Insert("b", "warm-b", std::move(stateful));

  CachedResult distant = MakeResult(3.0);
  distant.region.Reset();
  distant.region.Add(300);
  cache.Insert("c", "", std::move(distant));

  // An edit touching node 1: "a" has nothing to warm-restart → gone;
  // "b" carries (p, r) → demoted but warm-servable; "c"'s region is
  // disjoint → untouched, still an exact hit.
  cache.InvalidateRegion(1, 1);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  ASSERT_NE(cache.WarmLookup("warm-b"), nullptr);
  EXPECT_DOUBLE_EQ(cache.WarmLookup("warm-b")->scores[0].value, 2.0);
  ASSERT_NE(cache.Lookup("c"), nullptr);
  EXPECT_DOUBLE_EQ(cache.Lookup("c")->scores[0].value, 3.0);
  EXPECT_EQ(cache.stats().region_evicted, 1);
  EXPECT_EQ(cache.stats().region_demoted, 1);
  EXPECT_EQ(cache.stats().region_retained, 1);
  EXPECT_EQ(cache.ExactSize(), 1u);
}

TEST(ResultCacheTest, DefaultRegionIsConservativeWholeGraph) {
  // A result whose region was never declared must behave like the old
  // invalidate-the-world scheme: every edit hits it.
  ResultCache cache(4);
  cache.Insert("a", "", MakeResult(1.0));  // region.all == true.
  cache.InvalidateRegion(500, 501);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.stats().region_evicted, 1);
}

// —— QueryEngine behavior ————————————————————————————————————————

Graph ServiceGraph() { return CavemanGraph(8, 10); }

// The engine's frozen snapshot is FromGraph→ToGraph; bitwise
// comparisons against direct solver calls must use the same arc order.
Graph RoundTripped(const Graph& g) {
  return DynamicGraph::FromGraph(g).ToGraph();
}

Query PushQuery(std::vector<NodeId> seeds, double epsilon = 1e-6) {
  Query q;
  q.seeds = std::move(seeds);
  q.epsilon = epsilon;
  return q;
}

TEST(QueryEngineTest, RepeatedSeedBatchServesFromCacheWithoutPush) {
  QueryEngine engine(ServiceGraph());
  const Query query = PushQuery({0, 11});
  const QueryResponse cold = engine.Run(query);
  EXPECT_EQ(cold.source, QuerySource::kCold);
  EXPECT_EQ(cold.status, SolveStatus::kConverged);
  EXPECT_GT(cold.work, 0);

  const QueryResponse cached = engine.Run(query);
  EXPECT_EQ(cached.source, QuerySource::kCached);
  EXPECT_EQ(cached.work, 0);  // No pushes re-run.
  EXPECT_EQ(cached.scores, cold.scores);
  EXPECT_EQ(engine.cache().stats().hits, 1);
  EXPECT_EQ(engine.cache().stats().insertions, 1);
}

TEST(QueryEngineTest, IdenticalQueriesInOneBatchAreDeduplicated) {
  QueryEngine engine(ServiceGraph());
  // Seed canonicalization makes {7, 3} and {3, 7, 7} the same query.
  std::vector<Query> batch = {PushQuery({7, 3}), PushQuery({3, 7, 7}),
                              PushQuery({5})};
  const std::vector<QueryResponse> responses = engine.RunBatch(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].scores, responses[1].scores);
  EXPECT_EQ(responses[0].work, responses[1].work);
  // One insertion per distinct query, not per request.
  EXPECT_EQ(engine.cache().stats().insertions, 2);
}

TEST(QueryEngineTest, WarmRestartMatchesColdSolveAfterAddEdge) {
  const Graph g = ServiceGraph();
  QueryEngine warm_engine(g);
  const Query query = PushQuery({0}, 1e-7);
  const QueryResponse before = warm_engine.Run(query);
  ASSERT_EQ(before.source, QuerySource::kCold);

  warm_engine.AddEdge(0, 35, 2.0);
  const QueryResponse warm = warm_engine.Run(query);
  EXPECT_EQ(warm.source, QuerySource::kWarm);

  // Cold reference on the same post-edit graph.
  QueryEngine::Options no_cache;
  no_cache.enable_cache = false;
  QueryEngine cold_engine(g, no_cache);
  cold_engine.AddEdge(0, 35, 2.0);
  const QueryResponse cold = cold_engine.Run(query);
  ASSERT_EQ(cold.source, QuerySource::kCold);

  // Both satisfy ‖PPR − p‖₁ ≤ ε·vol, so they agree within 2·ε·vol.
  const double bound =
      2.0 * query.epsilon * warm_engine.graph().TotalVolume() + 1e-12;
  double distance = 0.0;
  for (std::size_t i = 0; i < cold.scores.size(); ++i) {
    distance += std::abs(cold.scores[i] - warm.scores[i]);
  }
  EXPECT_LT(distance, bound);
  // The warm restart is the point: far fewer pushes than the cold run.
  EXPECT_LT(warm.work, cold.work);
}

TEST(QueryEngineTest, TighterEpsilonWarmRestartsFromCachedResidual) {
  QueryEngine engine(ServiceGraph());
  const QueryResponse loose = engine.Run(PushQuery({0}, 1e-4));
  ASSERT_EQ(loose.source, QuerySource::kCold);

  const Query tight = PushQuery({0}, 1e-8);
  const QueryResponse refined = engine.Run(tight);
  EXPECT_EQ(refined.source, QuerySource::kWarm);

  QueryEngine::Options no_cache;
  no_cache.enable_cache = false;
  QueryEngine cold_engine(ServiceGraph(), no_cache);
  const QueryResponse cold = cold_engine.Run(tight);
  const double bound =
      2.0 * tight.epsilon * engine.graph().TotalVolume() + 1e-12;
  double distance = 0.0;
  for (std::size_t i = 0; i < cold.scores.size(); ++i) {
    distance += std::abs(cold.scores[i] - refined.scores[i]);
  }
  EXPECT_LT(distance, bound);
  EXPECT_LT(refined.work, cold.work);
}

TEST(QueryEngineTest, EditInsideTheRegionDemotesTheEntryToWarm) {
  QueryEngine engine(ServiceGraph());
  const Query query = PushQuery({0});
  EXPECT_EQ(engine.Run(query).source, QuerySource::kCold);
  EXPECT_EQ(engine.Run(query).source, QuerySource::kCached);
  const std::int64_t epoch_before = engine.Epoch();
  // Nodes 1 and 2 sit in seed 0's clique — inside the cached entry's
  // region fingerprint — so this edit demotes the exact entry.
  engine.AddEdge(1, 2);
  EXPECT_EQ(engine.Epoch(), epoch_before + 1);
  // The key itself is epoch-free (per-entry validity replaced the old
  // invalidate-the-world epoch suffix); the demoted entry exact-misses
  // and the push family warm-restarts instead of serving stale scores.
  EXPECT_EQ(engine.Run(query).source, QuerySource::kWarm);
}

TEST(QueryEngineTest, SurgicalInvalidationRetainsEntriesOutsideTheRegion) {
  // CavemanGraph(8, 10): cliques 0 (nodes 0–9) and 4 (nodes 40–49) sit
  // on opposite sides of the ring. At ε = 1e-3 a push from clique 4
  // never reads clique 0's rows, so an edit inside clique 0 must leave
  // the clique-4 entry serving exact bits — this is the retention the
  // surgical scheme exists for.
  QueryEngine engine(ServiceGraph());
  const Query near_query = PushQuery({0}, 1e-3);
  const Query far_query = PushQuery({45}, 1e-3);
  const QueryResponse far_cold = engine.Run(far_query);
  ASSERT_EQ(far_cold.source, QuerySource::kCold);
  ASSERT_EQ(engine.Run(near_query).source, QuerySource::kCold);

  engine.AddEdge(1, 2);  // Inside clique 0, far from clique 4.

  const QueryResponse far_after = engine.Run(far_query);
  EXPECT_EQ(far_after.source, QuerySource::kCached);
  EXPECT_EQ(far_after.scores, far_cold.scores);
  EXPECT_GT(engine.cache().stats().region_retained, 0);
  // The entry whose region the edit did touch was demoted, not served.
  EXPECT_EQ(engine.Run(near_query).source, QuerySource::kWarm);
  EXPECT_EQ(engine.cache().stats().region_demoted, 1);
}

TEST(QueryEngineTest, InvalidateAllBaselineRetiresDistantEntriesToo) {
  // With surgical invalidation disabled the same sequence retires the
  // clique-4 entry as well: the old invalidate-the-world contract,
  // kept as the retention benchmark's baseline.
  QueryEngine::Options options;
  options.surgical_invalidation = false;
  QueryEngine engine(ServiceGraph(), options);
  const Query far_query = PushQuery({45}, 1e-3);
  ASSERT_EQ(engine.Run(far_query).source, QuerySource::kCold);

  engine.AddEdge(1, 2);

  EXPECT_NE(engine.Run(far_query).source, QuerySource::kCached);
  EXPECT_EQ(engine.cache().stats().region_retained, 0);
}

TEST(QueryEngineTest, StalePinnedInsertIsCheckedAgainstTheEditsItMissed) {
  // A batch pinned before some edits inserts its answer stamped with
  // the pinned epoch. The insert is checked against the edits the
  // batch missed: if none touched the answer's region it is still
  // exact on the live graph and serves verbatim; if one did — or the
  // missed window outgrew the engine's 4,096-edit journal — it is kept
  // for warm restarts only. The query is the clique-4 push of the
  // retention test above; clique 0 (nodes 0–9) lies outside its region.
  const Query query = PushQuery({45}, 1e-3);
  struct Served {
    bool region_covers_edit;
    QuerySource source;
    Vector scores;
  };
  const auto serve_after_missed_edits = [&query](NodeId u, NodeId v,
                                                 int edits) {
    QueryEngine engine(ServiceGraph());
    const DynamicGraph::SnapshotView snap = engine.PinSnapshot();
    for (int i = 0; i < edits; ++i) engine.AddEdge(u, v, 0.5);
    EXPECT_EQ(engine.RunBatchOn(snap, {query})[0].source, QuerySource::kCold);
    // The region fingerprint is lossy; read the stored one to be sure
    // the edit really misses (or hits) it.
    const auto entries = engine.cache().ExportEntries();
    EXPECT_EQ(entries.size(), 1u);
    const bool covers = entries.at(0).result->region.CoversEdit(u, v);
    QueryResponse now = engine.Run(query);
    return Served{covers, now.source, std::move(now.scores)};
  };

  const Served outside = serve_after_missed_edits(1, 2, 1);
  ASSERT_FALSE(outside.region_covers_edit);
  EXPECT_EQ(outside.source, QuerySource::kCached);
  // Served verbatim, it is bitwise the cold answer on the edited graph.
  QueryEngine::Options no_cache;
  no_cache.enable_cache = false;
  QueryEngine cold(ServiceGraph(), no_cache);
  cold.AddEdge(1, 2, 0.5);
  EXPECT_EQ(outside.scores, cold.Run(query).scores);

  const Served inside = serve_after_missed_edits(44, 46, 1);
  ASSERT_TRUE(inside.region_covers_edit);
  EXPECT_EQ(inside.source, QuerySource::kWarm);

  const Served overflow = serve_after_missed_edits(1, 2, 4096 + 1);
  ASSERT_FALSE(overflow.region_covers_edit);
  EXPECT_EQ(overflow.source, QuerySource::kWarm);
}

TEST(QueryEngineTest, RemoveEdgeUndoesAddEdgeBitwise) {
  // The tentpole round-trip at the serving layer: add two edges, remove
  // them, and a fresh query answers bit-identically (scores and work)
  // to an engine that never saw the edits.
  const Graph g = ServiceGraph();
  QueryEngine edited(g);
  ASSERT_EQ(edited.Run(PushQuery({0})).source, QuerySource::kCold);
  edited.AddEdge(2, 55, 0.5);
  edited.AddEdge(7, 63);
  edited.RemoveEdge(2, 55);  // Full removal (weight 0.0 sentinel).
  edited.RemoveEdge(7, 63, 1.0);  // Removing the full weight: same thing.
  EXPECT_EQ(edited.Epoch(), 4);

  QueryEngine untouched(g);
  const Query probe = PushQuery({12});
  const QueryResponse after = edited.Run(probe);
  const QueryResponse fresh = untouched.Run(probe);
  ASSERT_EQ(after.source, QuerySource::kCold);
  ASSERT_EQ(after.scores.size(), fresh.scores.size());
  for (std::size_t i = 0; i < fresh.scores.size(); ++i) {
    EXPECT_EQ(after.scores[i], fresh.scores[i]) << "node " << i;
  }
  EXPECT_EQ(after.work, fresh.work);
}

TEST(QueryEngineTest, CacheCapacityBoundsRetainedEntries) {
  QueryEngine::Options options;
  options.cache_capacity = 3;
  QueryEngine engine(ServiceGraph(), options);
  for (NodeId s = 0; s < 5; ++s) engine.Run(PushQuery({s}));
  EXPECT_EQ(engine.cache().Size(), 3u);
  EXPECT_EQ(engine.cache().stats().evictions, 2);
  // The two oldest (seeds 0, 1) were evicted → cold again.
  EXPECT_EQ(engine.Run(PushQuery({0})).source, QuerySource::kCold);
  EXPECT_EQ(engine.Run(PushQuery({4})).source, QuerySource::kCached);
}

TEST(QueryEngineTest, DensePprMatchesPersonalizedPageRankBitwise) {
  const Graph frozen = RoundTripped(ServiceGraph());
  QueryEngine engine(ServiceGraph());
  Query a;
  a.method = QueryMethod::kPprDense;
  a.seeds = {3};
  a.tolerance = 1e-10;
  a.max_iterations = 500;
  Query b = a;
  b.seeds = {41};  // Same parameters → same lockstep ApplyBatch group.
  const std::vector<QueryResponse> responses = engine.RunBatch({a, b});
  ASSERT_EQ(responses.size(), 2u);

  PageRankOptions reference;
  reference.gamma = a.gamma;
  reference.tolerance = a.tolerance;
  reference.max_iterations = a.max_iterations;
  for (std::size_t i = 0; i < 2; ++i) {
    Vector seed(frozen.NumNodes(), 0.0);
    seed[i == 0 ? 3 : 41] = 1.0;
    const PageRankResult solo =
        PersonalizedPageRank(frozen, seed, reference);
    EXPECT_EQ(responses[i].scores, solo.scores)
        << "grouped dense column " << i << " diverged from its solo solve";
    EXPECT_EQ(responses[i].status, solo.diagnostics.status);
  }
}

TEST(QueryEngineTest, DenseBudgetStopsOnlyItsOwnColumn) {
  const Graph frozen = RoundTripped(ServiceGraph());
  const std::int64_t arcs = frozen.NumArcs();
  QueryEngine engine(ServiceGraph());
  Query capped;
  capped.method = QueryMethod::kPprDense;
  capped.seeds = {3};
  capped.tolerance = 1e-10;
  capped.max_iterations = 500;
  capped.max_work = 3 * arcs;  // Runs out after the third iteration.
  Query uncapped = capped;
  uncapped.seeds = {41};  // Same lockstep group, no cap.
  uncapped.max_work = 0;
  const std::vector<QueryResponse> responses =
      engine.RunBatch({capped, uncapped});
  ASSERT_EQ(responses.size(), 2u);

  // The capped column is the early-stopped diffusion after three steps:
  // exactly a solo solve with a three-iteration cap.
  Vector seed3(frozen.NumNodes(), 0.0);
  seed3[3] = 1.0;
  PageRankOptions three;
  three.gamma = capped.gamma;
  three.tolerance = capped.tolerance;
  three.max_iterations = 3;
  const PageRankResult early = PersonalizedPageRank(frozen, seed3, three);
  EXPECT_EQ(responses[0].status, SolveStatus::kBudgetExhausted);
  EXPECT_TRUE(responses[0].degraded);
  EXPECT_FALSE(responses[0].detail.empty());
  EXPECT_EQ(responses[0].work, 3 * arcs);
  EXPECT_EQ(responses[0].scores, early.scores);

  // The uncapped column runs on, unaffected, to its own convergence.
  Vector seed41(frozen.NumNodes(), 0.0);
  seed41[41] = 1.0;
  PageRankOptions reference;
  reference.gamma = uncapped.gamma;
  reference.tolerance = uncapped.tolerance;
  reference.max_iterations = uncapped.max_iterations;
  const PageRankResult solo = PersonalizedPageRank(frozen, seed41, reference);
  ASSERT_GT(solo.iterations, 3);
  EXPECT_EQ(responses[1].status, solo.diagnostics.status);
  EXPECT_FALSE(responses[1].degraded);
  EXPECT_EQ(responses[1].work, solo.iterations * arcs);
  EXPECT_EQ(responses[1].scores, solo.scores);
}

TEST(QueryEngineTest, HeatKernelAndNibbleQueriesMatchDirectCalls) {
  const Graph frozen = RoundTripped(ServiceGraph());
  QueryEngine engine(ServiceGraph());

  Query hk;
  hk.method = QueryMethod::kHeatKernel;
  hk.seeds = {12};
  hk.t = 8.0;
  hk.delta = 1e-5;
  hk.epsilon = 1e-6;
  const QueryResponse hk_response = engine.Run(hk);
  Vector hk_seed(frozen.NumNodes(), 0.0);
  hk_seed[12] = 1.0;
  HkRelaxOptions hk_options;
  hk_options.t = hk.t;
  hk_options.delta = hk.delta;
  hk_options.tail_tolerance = hk.epsilon;
  const HkRelaxResult hk_direct =
      HeatKernelRelaxFromDistribution(frozen, hk_seed, hk_options);
  EXPECT_EQ(hk_response.scores, hk_direct.rho);
  EXPECT_EQ(hk_response.set, hk_direct.set);
  EXPECT_DOUBLE_EQ(hk_response.conductance, hk_direct.stats.conductance);

  Query nibble;
  nibble.method = QueryMethod::kNibble;
  nibble.seeds = {25};
  nibble.steps = 30;
  nibble.epsilon = 1e-4;
  const QueryResponse nib_response = engine.Run(nibble);
  Vector nib_seed(frozen.NumNodes(), 0.0);
  nib_seed[25] = 1.0;
  NibbleOptions nib_options;
  nib_options.steps = nibble.steps;
  nib_options.epsilon = nibble.epsilon;
  const NibbleResult nib_direct =
      NibbleFromDistribution(frozen, nib_seed, nib_options);
  EXPECT_EQ(nib_response.scores, nib_direct.distribution);
  EXPECT_EQ(nib_response.set, nib_direct.set);
  EXPECT_DOUBLE_EQ(nib_response.conductance, nib_direct.stats.conductance);
}

// Degenerate topologies serve every method: each answer is usable and
// finite, before and after edits that add a long edge and a self-loop,
// and the dense, hk-relax and Nibble answers equal direct solver calls
// on the engine's current graph bit for bit.
TEST(QueryEngineTest, DegenerateTopologiesServeEveryMethod) {
  GraphBuilder loops(6);
  for (NodeId u = 0; u < 6; ++u) loops.AddEdge(u, u);
  loops.AddEdge(0, 1);
  GraphBuilder two_k5(10);
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = i + 1; j < 5; ++j) {
      two_k5.AddEdge(i, j);
      two_k5.AddEdge(5 + i, 5 + j);
    }
  }
  GraphBuilder path(4);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  path.AddEdge(2, 3);
  const std::pair<const char*, Graph> topologies[] = {
      {"single node", GraphBuilder(1).Build()},
      {"8 isolated nodes", GraphBuilder(8).Build()},
      {"self-loops", loops.Build()},
      {"two disconnected K5", two_k5.Build()},
      {"path P4", path.Build()}};

  for (const auto& [name, g] : topologies) {
    SCOPED_TRACE(name);
    const NodeId n = g.NumNodes();
    std::vector<Query> batch;
    for (QueryMethod method :
         {QueryMethod::kPprPush, QueryMethod::kPprDense,
          QueryMethod::kHeatKernel, QueryMethod::kNibble}) {
      for (NodeId s : {NodeId{0}, NodeId(n / 2), NodeId(n - 1)}) {
        Query q;
        q.method = method;
        q.seeds = {s};
        q.epsilon = 1e-4;
        q.steps = 8;
        q.t = 3.0;
        batch.push_back(std::move(q));
      }
    }
    QueryEngine engine(g);
    const auto serve_and_check = [&](const char* phase) {
      SCOPED_TRACE(phase);
      const std::vector<QueryResponse> responses = engine.RunBatch(batch);
      ASSERT_EQ(responses.size(), batch.size());
      const Graph current = engine.graph().ToGraph();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Query& q = batch[i];
        const QueryResponse& got = responses[i];
        SCOPED_TRACE(std::string(QueryMethodName(q.method)) + " seed " +
                     std::to_string(q.seeds[0]));
        EXPECT_TRUE(StatusIsUsable(got.status)) << got.detail;
        for (double v : got.scores) ASSERT_TRUE(std::isfinite(v));
        Vector seed(n, 0.0);
        seed[q.seeds[0]] = 1.0;
        switch (q.method) {
          case QueryMethod::kPprPush:
            break;
          case QueryMethod::kPprDense: {
            PageRankOptions options;
            options.gamma = q.gamma;
            options.tolerance = q.tolerance;
            options.max_iterations = q.max_iterations;
            const PageRankResult direct =
                PersonalizedPageRank(current, seed, options);
            EXPECT_EQ(got.scores, direct.scores);
            EXPECT_EQ(got.status, direct.diagnostics.status);
            break;
          }
          case QueryMethod::kHeatKernel: {
            HkRelaxOptions options;
            options.t = q.t;
            options.delta = q.delta;
            options.tail_tolerance = q.epsilon;
            const HkRelaxResult direct =
                HeatKernelRelaxFromDistribution(current, seed, options);
            EXPECT_EQ(got.scores, direct.rho);
            EXPECT_EQ(got.set, direct.set);
            EXPECT_EQ(got.conductance, direct.stats.conductance);
            EXPECT_EQ(got.status, direct.diagnostics.status);
            break;
          }
          case QueryMethod::kNibble: {
            NibbleOptions options;
            options.steps = q.steps;
            options.epsilon = q.epsilon;
            const NibbleResult direct =
                NibbleFromDistribution(current, seed, options);
            EXPECT_EQ(got.scores, direct.distribution);
            EXPECT_EQ(got.set, direct.set);
            EXPECT_EQ(got.conductance, direct.stats.conductance);
            EXPECT_EQ(got.status, direct.diagnostics.status);
            break;
          }
        }
      }
    };
    serve_and_check("before edits");
    engine.AddEdge(0, n - 1, 2.0);
    engine.AddEdge(0, 0, 1.0);
    serve_and_check("after edits");
  }
}

TEST(QueryEngineTest, BudgetExhaustedQueryIsMarkedDegradedNeverSilent) {
  Rng rng(31);
  QueryEngine engine(ErdosRenyi(400, 0.05, rng));
  Query query = PushQuery({0}, 1e-12);
  query.max_work = 16;  // Far too little for this epsilon.
  const QueryResponse response = engine.Run(query);
  EXPECT_EQ(response.status, SolveStatus::kBudgetExhausted);
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.detail.empty());
  for (double v : response.scores) ASSERT_TRUE(std::isfinite(v));

  // A degraded-but-usable answer is cacheable and keeps its marking.
  const QueryResponse replay = engine.Run(query);
  EXPECT_EQ(replay.source, QuerySource::kCached);
  EXPECT_EQ(replay.status, SolveStatus::kBudgetExhausted);
  EXPECT_TRUE(replay.degraded);
}

// The answer of a bare dense StandardFormPush: a full ascending scan
// queues the seeds, and no state is shared with any engine.
Vector DensePushAnswer(const Graph& g, const Query& q) {
  const DynamicGraph graph = DynamicGraph::FromGraph(g);
  const NodeId n = graph.NumNodes();
  std::vector<NodeId> seeds = q.seeds;
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  Vector p(n, 0.0);
  Vector r(n, 0.0);
  for (NodeId s : seeds) r[s] = 1.0 / static_cast<double>(seeds.size());
  std::deque<NodeId> queue;
  std::vector<char> queued(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    const double d = graph.Degree(u);
    if (std::abs(r[u]) >= (d > 0.0 ? q.epsilon * d : q.epsilon)) {
      queue.push_back(u);
      queued[u] = 1;
    }
  }
  WorkBudget budget(q.max_work);
  IncrementalPprOptions options;
  options.gamma = q.gamma;
  options.epsilon = q.epsilon;
  options.budget = q.max_work > 0 ? &budget : nullptr;
  SolverDiagnostics diag;
  StandardFormPush(graph, options, p, r, queue, queued, diag);
  return p;
}

TEST(QueryEngineTest, BudgetStoppedPushLeavesNoStateForLaterQueries) {
  // Pushes run in per-thread workspaces that outlive the query. A push
  // its budget stops leaves residual, flags and a queue behind; the
  // next query on that thread must not see any of it. Four stopped
  // pushes put one on every pool thread; eight later queries reuse
  // every thread twice.
  Rng rng(31);
  const Graph g = ErdosRenyi(400, 0.05, rng);
  std::vector<Query> stopped;
  std::vector<Query> later;
  for (NodeId i = 0; i < 4; ++i) {
    Query q = PushQuery({i}, 1e-12);
    q.max_work = 16;
    stopped.push_back(q);
  }
  for (NodeId i = 0; i < 8; ++i) later.push_back(PushQuery({100 + i}, 1e-4));
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedNumThreads scoped(threads);
    QueryEngine engine(g);
    for (const std::vector<Query>* batch : {&stopped, &later}) {
      const std::vector<QueryResponse> served = engine.RunBatch(*batch);
      for (std::size_t i = 0; i < batch->size(); ++i) {
        EXPECT_EQ(served[i].status, batch == &stopped
                                        ? SolveStatus::kBudgetExhausted
                                        : SolveStatus::kConverged);
        EXPECT_EQ(served[i].scores, DensePushAnswer(g, (*batch)[i]))
            << "query " << i;
      }
    }
  }
}

TEST(QueryEngineTest, InvalidQueriesAreRejectedAndNeverCached) {
  QueryEngine engine(ServiceGraph());
  Query empty;  // No seeds.
  Query out_of_range = PushQuery({9999});
  Query bad_gamma = PushQuery({0});
  bad_gamma.gamma = 1.5;
  const std::vector<QueryResponse> responses =
      engine.RunBatch({empty, out_of_range, bad_gamma});
  for (const QueryResponse& r : responses) {
    EXPECT_EQ(r.status, SolveStatus::kInvalidInput);
    EXPECT_TRUE(r.degraded);
    EXPECT_FALSE(r.detail.empty());
  }
  EXPECT_EQ(engine.cache().Size(), 0u);
}

TEST(QueryEngineTest, CanonicalKeyIsStableAcrossSeedOrderings) {
  Query a = PushQuery({5, 3, 5});
  Query b = PushQuery({3, 5});
  EXPECT_EQ(QueryEngine::CanonicalKey(a), QueryEngine::CanonicalKey(b));
  Query tighter = PushQuery({3, 5}, 1e-9);
  EXPECT_NE(QueryEngine::CanonicalKey(b), QueryEngine::CanonicalKey(tighter));
  // Keys are deliberately epoch-free: entry validity lives on the
  // entry (insert-epoch stamp + region fingerprint), not in the key.
  EXPECT_EQ(QueryEngine::CanonicalKey(a).find("epoch="), std::string::npos);
}

// —— Wire format ————————————————————————————————————————————————

TEST(WireTest, ParsesQueryAndAddEdgeLines) {
  QueryRequest request;
  std::string error;
  ASSERT_TRUE(ParseQueryRequest(
      R"({"id":"q1","method":"heat-kernel","seeds":[4,2],"t":5.0,"top":3})",
      &request, &error))
      << error;
  EXPECT_EQ(request.id, "q1");
  EXPECT_FALSE(request.is_add_edge);
  EXPECT_EQ(request.query.method, QueryMethod::kHeatKernel);
  EXPECT_EQ(request.query.seeds, (std::vector<NodeId>{4, 2}));
  EXPECT_DOUBLE_EQ(request.query.t, 5.0);
  EXPECT_EQ(request.top, 3);

  ASSERT_TRUE(ParseQueryRequest(
      R"({"op":"add-edge","u":3,"v":7,"weight":0.5})", &request, &error))
      << error;
  EXPECT_TRUE(request.is_add_edge);
  EXPECT_EQ(request.u, 3);
  EXPECT_EQ(request.v, 7);
  EXPECT_DOUBLE_EQ(request.weight, 0.5);

  EXPECT_FALSE(ParseQueryRequest(R"({"method":"ppr"})", &request, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseQueryRequest(
      R"({"method":"bogus","seeds":[0]})", &request, &error));
  EXPECT_FALSE(
      ParseQueryRequest(R"({"op":"add-edge","u":1})", &request, &error));
  EXPECT_FALSE(ParseQueryRequest("not json", &request, &error));
}

TEST(WireTest, IntParametersOutsideIntRangeAreParseErrors) {
  // `steps` and `max_iterations` are ints: an integral value past the
  // int range is refused by name, never wrapped (2^32 + 1 once read as
  // 1, and 2^31 as INT_MIN). The ends of the range parse as before.
  for (const std::string field : {"steps", "max_iterations"}) {
    QueryRequest request;
    std::string error;
    const auto parse = [&](const std::string& value) {
      return ParseQueryRequest(R"({"method":"nibble","seeds":[0],")" +
                                   field + "\":" + value + "}",
                               &request, &error);
    };
    for (const char* value :
         {"4294967297", "2147483648", "-2147483649", "1e20"}) {
      EXPECT_FALSE(parse(value)) << field << " = " << value;
      EXPECT_EQ(error, "\"" + field + "\" must be an integer in int range");
    }
    for (const int value : {std::numeric_limits<int>::max(),
                            std::numeric_limits<int>::min(), 7}) {
      ASSERT_TRUE(parse(std::to_string(value))) << error;
      EXPECT_EQ(field == "steps" ? request.query.steps
                                 : request.query.max_iterations,
                value);
    }
  }
}

TEST(WireTest, ShedResponseMatchesGoldenLine) {
  // A shed is a refusal serialized honestly: status "shed", both the
  // shed and degraded flags set, zero work, empty result arrays. The
  // exact line is pinned in tests/golden/query_response_shed.jsonl
  // (parsed independently by golden_test).
  QueryEngine::Options options;
  options.admission.enabled = true;
  options.admission.policy.capacity = 1;
  options.admission.policy.shed_fraction = 0.0;  // Shed from arrival 0.
  QueryEngine engine(ServiceGraph(), options);

  QueryRequest request;
  std::string error;
  ASSERT_TRUE(ParseQueryRequest(
      R"({"id":"q-shed","seeds":[0],"tenant":"heavy"})", &request, &error))
      << error;
  const QueryResponse response = engine.Run(request.query);
  EXPECT_EQ(response.status, SolveStatus::kShed);
  EXPECT_TRUE(response.shed);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.work, 0);
  EXPECT_TRUE(response.scores.empty());

  const std::string json =
      QueryResponseToJson(request, response, engine.Epoch());
  EXPECT_EQ(json,
            "{\"schema\":\"impreg-query-response-v1\",\"id\":\"q-shed\","
            "\"method\":\"ppr\",\"status\":\"shed\",\"source\":\"cold\","
            "\"degraded\":true,\"shed\":true,\"tenant\":\"heavy\","
            "\"epoch\":0,\"support\":0,\"work\":0,\"conductance\":1,"
            "\"set\":[],\"top\":[]}");
}

TEST(WireTest, TopBeyondTheSupportRanksTheWholeSupport) {
  // `top` comes from the client: a value far above the support ranks
  // the whole support, sized by it, and prints the line a request
  // whose `top` is exactly the support gets.
  QueryResponse response;
  response.scores.resize(40);
  for (std::size_t u = 0; u < response.scores.size(); ++u) {
    // Ties, zeros and negatives; exact in binary, so they print exactly.
    response.scores[u] = 0.25 * static_cast<double>(u % 7) - 0.5;
  }
  response.scores[5] = std::nan("");
  response.scores[6] = -0.0;
  std::vector<std::pair<double, NodeId>> expected;
  for (NodeId u = 0; u < 40; ++u) {
    if (response.scores[u] > 0.0) expected.emplace_back(response.scores[u], u);
  }
  std::sort(expected.begin(), expected.end(),
            [](const std::pair<double, NodeId>& a,
               const std::pair<double, NodeId>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  ASSERT_GT(expected.size(), 10u);

  QueryRequest huge;
  QueryRequest exact;
  std::string error;
  ASSERT_TRUE(ParseQueryRequest(R"({"id":"q","seeds":[0],"top":2147483647})",
                                &huge, &error))
      << error;
  ASSERT_EQ(huge.top, std::numeric_limits<int>::max());
  // Past INT_MAX the value saturates instead of wrapping: 2^32 + 5 must
  // not read as 5.
  QueryRequest wrapped;
  ASSERT_TRUE(ParseQueryRequest(R"({"id":"q","seeds":[0],"top":4294967301})",
                                &wrapped, &error))
      << error;
  EXPECT_EQ(wrapped.top, std::numeric_limits<int>::max());
  ASSERT_TRUE(ParseQueryRequest(R"({"id":"q","seeds":[0],"top":)" +
                                    std::to_string(expected.size()) + "}",
                                &exact, &error))
      << error;
  const std::string line = QueryResponseToJson(huge, response, 3);
  EXPECT_EQ(line, QueryResponseToJson(exact, response, 3));

  const JsonParseResult parsed = JsonParse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << line;
  EXPECT_EQ(parsed.value.Find("support")->AsDouble(),
            static_cast<double>(expected.size()));
  const JsonValue* top =
      parsed.value.FindOfType("top", JsonValue::Type::kArray);
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->Items().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const JsonValue& entry = top->Items()[i];
    ASSERT_EQ(entry.Items().size(), 2u);
    EXPECT_EQ(entry.Items()[0].AsDouble(), expected[i].second) << i;
    EXPECT_EQ(entry.Items()[1].AsDouble(), expected[i].first) << i;
  }
}

TEST(QueryEngineTest, HeavyTenantOverloadLeavesLightTenantBitIdentical) {
  // Tenant isolation: a heavy tenant draining its pool must not
  // perturb a co-resident light tenant — the light tenant's responses
  // are bit-identical to a solo run against a fresh engine. Disjoint
  // seed sets keep the shared cache out of the comparison.
  const Graph g = ServiceGraph();
  QueryEngine::Options options;
  options.admission.enabled = true;
  options.admission.policy.degrade_fraction = 0.4;
  options.admission.policy.shed_fraction = 0.6;
  options.admission.policy.degraded_cap = 256;
  options.admission.tenant_capacity["heavy"] = 20000;  // light: unlimited.

  std::vector<Query> mixed;
  std::vector<std::size_t> light_at;
  std::vector<Query> light_only;
  for (int i = 0; i < 40; ++i) {
    Query heavy = PushQuery({i % 10});
    heavy.max_work = 4096;
    heavy.tenant = "heavy";
    mixed.push_back(heavy);
    if (i % 4 == 0) {
      Query light = PushQuery({40 + i});
      light.tenant = "light";
      light_at.push_back(mixed.size());
      mixed.push_back(light);
      light_only.push_back(light);
    }
  }

  QueryEngine loaded(g, options);
  const std::vector<QueryResponse> combined = loaded.RunBatch(mixed);
  QueryEngine solo(g, options);
  const std::vector<QueryResponse> alone = solo.RunBatch(light_only);

  // The overload really happened on the heavy side...
  std::int64_t heavy_shed = 0;
  std::int64_t heavy_degraded = 0;
  for (std::size_t i = 0; i < combined.size(); ++i) {
    if (combined[i].tenant != "heavy") continue;
    if (combined[i].shed) ++heavy_shed;
    if (combined[i].degraded && !combined[i].shed) ++heavy_degraded;
  }
  EXPECT_GT(heavy_shed, 0);
  EXPECT_GT(heavy_degraded, 0);

  // ...and the light tenant never noticed.
  ASSERT_EQ(light_at.size(), alone.size());
  for (std::size_t k = 0; k < light_at.size(); ++k) {
    const QueryResponse& in_mix = combined[light_at[k]];
    const QueryResponse& by_itself = alone[k];
    EXPECT_EQ(in_mix.status, SolveStatus::kConverged);
    EXPECT_FALSE(in_mix.degraded);
    EXPECT_FALSE(in_mix.shed);
    EXPECT_EQ(in_mix.scores, by_itself.scores) << "light query " << k;
    EXPECT_EQ(in_mix.work, by_itself.work);
    EXPECT_EQ(in_mix.status, by_itself.status);
    EXPECT_EQ(in_mix.conductance, by_itself.conductance);
  }
}

TEST(QueryEngineTest, AdmissionDisabledLeavesResponsesUnmarked) {
  // The default engine has no admission control: no shed flags, no
  // tenant ledgers, and the tenant string is still echoed through.
  QueryEngine engine(ServiceGraph());
  Query q = PushQuery({3});
  q.tenant = "whoever";
  const QueryResponse response = engine.Run(q);
  EXPECT_EQ(response.status, SolveStatus::kConverged);
  EXPECT_FALSE(response.shed);
  EXPECT_EQ(response.tenant, "whoever");
  EXPECT_TRUE(engine.admission_pool().stats().empty());
}

TEST(WireTest, GoldenResponseSchemaPin) {
  // The exact member set of impreg-query-response-v1, pinned: adding,
  // renaming, or dropping a field is a schema change and must be a
  // conscious one (bump the version in wire.cc and update
  // docs/serving.md).
  QueryEngine engine(ServiceGraph());
  QueryRequest request;
  std::string error;
  ASSERT_TRUE(ParseQueryRequest(
      R"({"id":"golden","seeds":[0],"epsilon":1e-5,"top":4})", &request,
      &error))
      << error;
  const QueryResponse response = engine.Run(request.query);
  const std::string json =
      QueryResponseToJson(request, response, engine.Epoch());

  const JsonParseResult parsed = JsonParse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << json;
  ASSERT_TRUE(parsed.value.is_object());
  std::set<std::string> members;
  for (const auto& [key, value] : parsed.value.Members()) members.insert(key);
  const std::set<std::string> expected = {
      "schema",  "id",   "method",      "status", "source", "degraded",
      "shed",    "tenant", "epoch",     "support", "work",
      "conductance", "set", "top"};
  EXPECT_EQ(members, expected);
  EXPECT_EQ(parsed.value.Find("schema")->AsString(),
            "impreg-query-response-v1");
  EXPECT_EQ(parsed.value.Find("id")->AsString(), "golden");
  EXPECT_EQ(parsed.value.Find("status")->AsString(), "converged");
  EXPECT_EQ(parsed.value.Find("source")->AsString(), "cold");
  const JsonValue* top =
      parsed.value.FindOfType("top", JsonValue::Type::kArray);
  ASSERT_NE(top, nullptr);
  ASSERT_LE(top->Items().size(), 4u);
  ASSERT_FALSE(top->Items().empty());
  // Each entry is a [node, score] pair, scores descending.
  double previous = 2.0;
  for (const JsonValue& entry : top->Items()) {
    ASSERT_TRUE(entry.is_array());
    ASSERT_EQ(entry.Items().size(), 2u);
    const double score = entry.Items()[1].AsDouble();
    EXPECT_LE(score, previous);
    previous = score;
  }
}

}  // namespace
}  // namespace impreg
