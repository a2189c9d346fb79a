// The serving engine's strongly local paths (push, hk-relax, Nibble)
// must cost the same however large the graph around the query is —
// the paper's §3.3 claim, held to the serving tier. Cost here is bytes
// allocated, which, unlike time, is exact: this binary replaces the
// global operator new to count them.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "graph/graph.h"
#include "service/query_engine.h"
#include "service/wire.h"
#include "util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_counted_bytes{0};

void* CountedAlloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_counted_bytes.fetch_add(static_cast<std::int64_t>(size),
                              std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form is replaced, so whatever a library pairs with
// what (a nothrow new with a sized delete, say) meets malloc and free.
// GCC 12 flags free() inside a replacement operator delete as a
// mismatched deallocation; with these operators new it is the match.
void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace impreg {
namespace {

constexpr NodeId kCoreNodes = 300;
constexpr NodeId kPadding = 16;

/// A small-world graph on nodes [0, kCoreNodes): a ring lattice of
/// degree 6 plus seeded weighted chords. Nodes from kCoreNodes up to
/// `num_nodes` form a separate path, so every padded size serves the
/// core's queries on identical rows.
Graph PaddedGraph(NodeId num_nodes) {
  GraphBuilder builder(num_nodes);
  for (NodeId u = 0; u < kCoreNodes; ++u) {
    for (NodeId k = 1; k <= 3; ++k) builder.AddEdge(u, (u + k) % kCoreNodes);
  }
  Rng rng(17);
  for (int i = 0; i < kCoreNodes / 2; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(kCoreNodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(kCoreNodes));
    if (u != v) builder.AddEdge(u, v, 0.5 + rng.NextDouble());
  }
  for (NodeId u = kCoreNodes; u + 1 < num_nodes; ++u) {
    builder.AddEdge(u, u + 1);
  }
  return builder.Build();
}

std::vector<Query> PushBatch() {
  std::vector<Query> batch;
  for (const std::vector<NodeId>& seeds :
       {std::vector<NodeId>{3}, std::vector<NodeId>{40, 41},
        std::vector<NodeId>{150}, std::vector<NodeId>{3},
        std::vector<NodeId>{222, 7, 99}}) {
    Query q;
    q.seeds = seeds;
    q.epsilon = 1e-5;
    batch.push_back(q);
  }
  batch.back().max_work = 400;  // Stopped by its budget mid-push.
  return batch;
}

/// hk-relax and Nibble queries whose every swept prefix stays under
/// half the core's volume, so the sweep's denominator — the smaller
/// side's volume — is the prefix on both graphs and the answers match.
std::vector<Query> CommunityBatch() {
  std::vector<Query> batch;
  const auto add = [&batch](QueryMethod method, std::vector<NodeId> seeds) {
    Query q;
    q.method = method;
    q.seeds = std::move(seeds);
    q.t = 3.0;
    q.delta = 1e-3;
    q.epsilon = method == QueryMethod::kNibble ? 1e-3 : 1e-6;
    q.steps = 12;
    batch.push_back(q);
  };
  add(QueryMethod::kHeatKernel, {3});
  add(QueryMethod::kNibble, {150});
  add(QueryMethod::kHeatKernel, {40, 41});
  add(QueryMethod::kNibble, {222, 7, 99});
  add(QueryMethod::kHeatKernel, {3});  // Deduplicated: a copied response.
  add(QueryMethod::kNibble, {260});
  batch.back().max_work = 150;  // Stopped by its budget mid-walk.
  return batch;
}

struct Served {
  std::int64_t bytes = 0;
  std::vector<std::string> lines;
  std::vector<QuerySource> sources;
};

/// Serves `batch` and counts the bytes RunBatchOn allocates.
Served ServeCounted(QueryEngine& engine, const std::vector<Query>& batch) {
  const DynamicGraph::SnapshotView snap = engine.PinSnapshot();
  g_counted_bytes.store(0);
  g_counting.store(true);
  const std::vector<QueryResponse> responses = engine.RunBatchOn(snap, batch);
  g_counting.store(false);
  Served served;
  served.bytes = g_counted_bytes.load();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    QueryRequest request;
    request.id = "q" + std::to_string(i);
    request.query = batch[i];
    served.lines.push_back(
        QueryResponseToJson(request, responses[i], snap.epoch()));
    served.sources.push_back(responses[i].source);
  }
  return served;
}

TEST(LocalCostTest, PushBatchCostsTheSameOnAGraphSixteenTimesLarger) {
  ScopedNumThreads threads(1);
  const Graph small = PaddedGraph(kCoreNodes);
  const Graph large = PaddedGraph(kPadding * kCoreNodes);
  const std::vector<Query> batch = PushBatch();
  const std::int64_t dense_gap =
      static_cast<std::int64_t>(batch.size()) *
      (large.NumNodes() - small.NumNodes()) *
      static_cast<std::int64_t>(sizeof(double));

  // Serve cold, then warm after an edit the cached regions contain,
  // then from the cache. The first pass warms up what lives across
  // queries (the per-thread push arrays and lists) on these very
  // queries; the second pass is measured.
  for (const bool measured : {false, true}) {
    QueryEngine on_small(small);
    QueryEngine on_large(large);
    for (const QuerySource expected :
         {QuerySource::kCold, QuerySource::kWarm, QuerySource::kCached}) {
      SCOPED_TRACE(QuerySourceName(expected));
      if (expected == QuerySource::kWarm) {
        on_small.AddEdge(3, 41, 2.0);
        on_large.AddEdge(3, 41, 2.0);
      }
      const Served a = ServeCounted(on_small, batch);
      const Served b = ServeCounted(on_large, batch);
      if (!measured) continue;
      EXPECT_EQ(a.lines, b.lines);
      EXPECT_EQ(a.sources, b.sources);
      EXPECT_EQ(a.sources.front(), expected);
      // One dense response per arrival, and nothing else, grows with n.
      EXPECT_EQ(b.bytes - a.bytes, dense_gap)
          << "small graph " << a.bytes << " B, large graph " << b.bytes
          << " B";
    }
  }
}

TEST(LocalCostTest, CommunityBatchCostsTheSameOnAGraphSixteenTimesLarger) {
  ScopedNumThreads threads(1);
  const Graph small = PaddedGraph(kCoreNodes);
  const Graph large = PaddedGraph(kPadding * kCoreNodes);
  const std::vector<Query> batch = CommunityBatch();
  const std::int64_t dense_gap =
      static_cast<std::int64_t>(batch.size()) *
      (large.NumNodes() - small.NumNodes()) *
      static_cast<std::int64_t>(sizeof(double));
  // Freezes the epoch's CSR, which is O(n + m) once per epoch, before
  // anything is counted.
  Query freeze;
  freeze.method = QueryMethod::kHeatKernel;
  freeze.seeds = {100};

  // Serve cold, then from the cache. The first pass warms up what lives
  // across queries (the thread's NodeIndex) on these very queries; the
  // second pass is measured.
  for (const bool measured : {false, true}) {
    QueryEngine on_small(small);
    QueryEngine on_large(large);
    on_small.RunBatch({freeze});
    on_large.RunBatch({freeze});
    for (const QuerySource expected :
         {QuerySource::kCold, QuerySource::kCached}) {
      SCOPED_TRACE(QuerySourceName(expected));
      const Served a = ServeCounted(on_small, batch);
      const Served b = ServeCounted(on_large, batch);
      if (!measured) continue;
      EXPECT_EQ(a.lines, b.lines);
      EXPECT_EQ(a.sources, b.sources);
      EXPECT_EQ(a.sources.front(), expected);
      // One dense response per arrival, and nothing else, grows with n.
      EXPECT_EQ(b.bytes - a.bytes, dense_gap)
          << "small graph " << a.bytes << " B, large graph " << b.bytes
          << " B";
    }
  }
}

}  // namespace
}  // namespace impreg
