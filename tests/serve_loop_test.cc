// Tests of the serve loop (service/serve_loop.h), the one driver behind
// `impreg_cli query-batch` and `serve`: refused edits change nothing,
// queries answer at the epoch they were issued at, and the snapshot
// cadence counts edits. Then admission control (core/budget_pool.h) as
// that loop serves a two-tenant request list that overloads one tenant:
// the same responses at 1 and 8 threads, the same shed set with the
// cache on and off, no unmarked degradation, and exact tenant ledgers.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "graph/generators.h"
#include "service/durability/snapshot.h"
#include "service/durability/wal.h"
#include "service/query_engine.h"
#include "service/serve_loop.h"
#include "service/wire.h"

namespace impreg {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

QueryRequest Edit(bool add, NodeId u, NodeId v, double weight) {
  QueryRequest request;
  request.is_add_edge = add;
  request.is_remove_edge = !add;
  request.u = u;
  request.v = v;
  request.weight = weight;
  return request;
}

QueryRequest PushQuery(const std::string& id, NodeId seed) {
  QueryRequest request;
  request.id = id;
  request.query.seeds = {seed};
  request.query.epsilon = 1e-5;
  return request;
}

TEST(ServeLoopTest, RefusedEditsChangeNothing) {
  const fs::path dir = FreshDir("impreg_serve_loop_refused");
  QueryEngine engine(CavemanGraph(3, 8));  // 24 nodes; {0, 22} absent.
  durability::WriteAheadLog wal;
  ASSERT_EQ(wal.Open((dir / "wal.log").string(), {}), SolveStatus::kConverged);
  ServeLoop loop(engine, &wal);

  const struct {
    QueryRequest edit;
    SubmitOutcome outcome;
    const char* detail;
  } refused[] = {
      {Edit(true, 0, 24, 1.0), SubmitOutcome::kRejected,
       "add-edge node out of range [0, 24)"},
      {Edit(false, -1, 3, 0.0), SubmitOutcome::kRejected,
       "remove-edge node out of range [0, 24)"},
      {Edit(false, 0, 22, 0.0), SubmitOutcome::kRejected,
       "remove-edge: no edge {0, 22}"},
      {Edit(false, 0, 1, 1.5), SubmitOutcome::kRejected,
       "remove-edge weight 1.5 exceeds stored weight 1"},
      // A weight the wire parser would refuse reaches the WAL, which
      // refuses it before the graph is touched.
      {Edit(true, 0, 22, -1.0), SubmitOutcome::kNotAcknowledged,
       "edit not acknowledged: record rejected: id out of range or bad "
       "weight"},
  };
  for (const auto& c : refused) {
    const SubmitResult result = loop.Submit(c.edit);
    EXPECT_EQ(result.outcome, c.outcome) << c.detail;
    EXPECT_EQ(result.status, SolveStatus::kInvalidInput) << c.detail;
    EXPECT_EQ(result.detail, c.detail);
    EXPECT_EQ(engine.Epoch(), 0);
  }
  EXPECT_EQ(engine.graph().EdgeWeight(0, 22), 0.0);
  EXPECT_EQ(wal.records_appended(), 0);

  // An accepted edit is logged, then applied.
  EXPECT_EQ(loop.Submit(Edit(true, 0, 22, 0.5)).outcome,
            SubmitOutcome::kAccepted);
  EXPECT_EQ(wal.records_appended(), 1);
  EXPECT_EQ(engine.Epoch(), 1);
  EXPECT_EQ(engine.graph().EdgeWeight(0, 22), 0.5);
}

TEST(ServeLoopTest, QueriesAnswerAtTheEpochTheyWereIssuedAt) {
  const Graph base = CavemanGraph(3, 8);
  const std::vector<QueryRequest> requests = {
      PushQuery("a", 0), PushQuery("b", 9), Edit(true, 0, 9, 1.0),
      PushQuery("c", 0), Edit(false, 0, 1, 0.0), PushQuery("d", 0),
      PushQuery("e", 1)};
  // Cache off, so every answer is cold and must print exactly what an
  // engine that runs each query the moment it arrives prints.
  QueryEngine::Options options;
  options.enable_cache = false;
  QueryEngine at_arrival(base, options);
  std::vector<std::string> want;
  for (const QueryRequest& r : requests) {
    if (r.is_add_edge) {
      at_arrival.AddEdge(r.u, r.v, r.weight);
    } else if (r.is_remove_edge) {
      at_arrival.RemoveEdge(r.u, r.v, r.weight);
    } else {
      want.push_back(QueryResponseToJson(r, at_arrival.Run(r.query),
                                         at_arrival.Epoch()));
    }
  }
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedNumThreads scoped(threads);
    QueryEngine engine(base, options);
    ServeLoop loop(engine);
    for (const QueryRequest& r : requests) loop.Submit(r);
    EXPECT_EQ(engine.Epoch(), 2);  // Every edit landed before any query ran.
    std::vector<std::int64_t> epochs;
    std::vector<std::string> got;
    const auto take = [&](ServedGroup& group) {
      epochs.push_back(group.snap.epoch());
      EXPECT_EQ(group.responses.size(), group.requests.size());
      got.insert(got.end(), group.lines.begin(), group.lines.end());
    };
    loop.Flush(take);
    loop.Flush(take);  // The queue is empty now.
    EXPECT_EQ(epochs, (std::vector<std::int64_t>{0, 1, 2}));
    EXPECT_EQ(got, want);
  }
}

TEST(ServeLoopTest, SnapshotCadenceCountsEdits) {
  const fs::path dir = FreshDir("impreg_serve_loop_cadence");
  const std::string snap_dir = (dir / "snapshots").string();
  QueryEngine engine(CavemanGraph(3, 8));
  durability::WriteAheadLog wal;
  ASSERT_EQ(wal.Open((dir / "wal.log").string(), {}), SolveStatus::kConverged);
  ServeLoop loop(engine, &wal, snap_dir, /*snapshot_every=*/2);
  for (NodeId u = 0; u < 5; ++u) {
    loop.Submit(Edit(true, u, u + 10, 1.0));
    loop.Submit(PushQuery("q", u));  // Queries do not count.
  }
  const auto listed = durability::ListSnapshots(snap_dir);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].first, 4);
  EXPECT_EQ(listed[1].first, 2);
  EXPECT_EQ(loop.WriteSnapshot().status, SolveStatus::kConverged);
  EXPECT_EQ(durability::ListSnapshots(snap_dir).front().first, 5);
}

// ——— Admission control on the serve loop ———

/// 256 push queries over CavemanGraph(8, 10), stamped with two tenants
/// ("heavy" three arrivals in four, "light" the fourth). Half the seeds
/// come from five hot nodes, so repeats reach the cache, and an
/// add-edge after every 64th query splits the stream into four pinned
/// groups.
std::vector<QueryRequest> TenantRequests(std::int64_t max_work,
                                         double epsilon) {
  constexpr NodeId kHot[] = {0, 13, 27, 42, 66};
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 256; ++i) {
    const NodeId seed = i % 2 == 0 ? kHot[(i / 2) % 5] : i * 37 % 80;
    QueryRequest request = PushQuery("q" + std::to_string(i), seed);
    request.query.epsilon = epsilon;
    request.query.max_work = max_work;
    request.query.tenant = i % 4 == 3 ? "light" : "heavy";
    requests.push_back(std::move(request));
    if (i % 64 == 63) requests.push_back(Edit(true, i % 80, i / 8, 1.0));
  }
  return requests;
}

/// A pool small enough that the heavy tenant drains it.
QueryEngine::Options Overloaded() {
  QueryEngine::Options options;
  options.admission.enabled = true;
  options.admission.policy.capacity = 200000;
  options.admission.policy.degrade_fraction = 0.4;
  options.admission.policy.shed_fraction = 0.6;
  options.admission.policy.degraded_cap = 512;
  return options;
}

/// One run through the serve loop, flushed once at the end as `serve`
/// does: lines and responses in arrival order, and the tenant ledgers.
struct Served {
  std::vector<std::string> lines;
  std::vector<QueryResponse> responses;
  std::map<std::string, TenantAdmissionStats> tenants;

  std::vector<std::size_t> Where(bool (*pred)(const QueryResponse&)) const {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (pred(responses[i])) at.push_back(i);
    }
    return at;
  }
};

Served Serve(const QueryEngine::Options& options,
             const std::vector<QueryRequest>& requests, int threads) {
  ScopedNumThreads scoped(threads);
  QueryEngine engine(CavemanGraph(8, 10), options);
  ServeLoop loop(engine);
  for (const QueryRequest& request : requests) {
    EXPECT_EQ(loop.Submit(request).outcome, SubmitOutcome::kAccepted);
  }
  Served served;
  loop.Flush([&served](ServedGroup& group) {
    for (std::size_t q = 0; q < group.lines.size(); ++q) {
      served.lines.push_back(std::move(group.lines[q]));
      served.responses.push_back(std::move(group.responses[q]));
    }
  });
  served.tenants = engine.admission_pool().stats();
  return served;
}

bool IsShed(const QueryResponse& r) { return r.shed; }
bool IsCachedOrWarm(const QueryResponse& r) {
  return !r.shed && r.source != QuerySource::kCold;
}

TEST(ServeLoopAdmissionTest, OverloadAnswersTheSameAtOneAndEightThreads) {
  const std::vector<QueryRequest> requests = TenantRequests(4096, 1e-4);
  for (const bool cache_on : {true, false}) {
    SCOPED_TRACE(cache_on ? "cache on" : "cache off");
    QueryEngine::Options options = Overloaded();
    options.enable_cache = cache_on;
    const Served one = Serve(options, requests, 1);
    const Served eight = Serve(options, requests, 8);

    // The whole response stream — wire lines and every score — not just
    // the shed set.
    ASSERT_EQ(one.responses.size(), 256u);
    ASSERT_EQ(eight.responses.size(), one.responses.size());
    EXPECT_EQ(one.lines, eight.lines);
    for (std::size_t i = 0; i < one.responses.size(); ++i) {
      EXPECT_EQ(one.responses[i].scores, eight.responses[i].scores) << i;
    }
    // And the overload really happened: some queries shed, never all.
    EXPECT_GT(one.Where(IsShed).size(), 0u);
    EXPECT_LT(one.Where(IsShed).size(), 256u);
  }
}

TEST(ServeLoopAdmissionTest, ShedSetIsIdenticalWithCacheOnAndOff) {
  const std::vector<QueryRequest> requests = TenantRequests(4096, 1e-4);
  QueryEngine::Options options = Overloaded();
  const Served with_cache = Serve(options, requests, 4);
  options.enable_cache = false;
  const Served without_cache = Serve(options, requests, 4);

  // Admission bills deterministic admission-time estimates, never the
  // measured work a cache hit would zero out — so the shed set cannot
  // move when the cache is switched off.
  EXPECT_EQ(with_cache.Where(IsShed), without_cache.Where(IsShed));
  EXPECT_GT(with_cache.Where(IsShed).size(), 0u);
  // The cache did change execution, which is why this invariance is a
  // design property and not a tautology.
  EXPECT_GT(with_cache.Where(IsCachedOrWarm).size(), 0u);
  EXPECT_TRUE(without_cache.Where(IsCachedOrWarm).empty());
}

TEST(ServeLoopAdmissionTest, EveryNonConvergedAnswerIsMarked) {
  // A tight per-query budget, so budget-capped degraded answers appear
  // beside shed ones; the pool shrinks to match.
  QueryEngine::Options options = Overloaded();
  options.admission.policy.capacity = 4000;
  const Served served = Serve(options, TenantRequests(64, 1e-7), 4);

  bool saw_degraded = false;
  for (const QueryResponse& response : served.responses) {
    if (response.status != SolveStatus::kConverged) {
      EXPECT_TRUE(response.degraded) << "unmarked non-converged answer: "
                                     << SolveStatusName(response.status);
    } else {
      EXPECT_FALSE(response.degraded);
      EXPECT_FALSE(response.shed);
    }
    if (response.shed) {
      // A shed is a refusal: no computation, no answer, marked twice.
      EXPECT_EQ(response.status, SolveStatus::kShed);
      EXPECT_TRUE(response.degraded);
      EXPECT_EQ(response.work, 0);
      EXPECT_TRUE(response.scores.empty());
      EXPECT_TRUE(response.set.empty());
    }
    if (response.degraded && !response.shed) saw_degraded = true;
  }
  EXPECT_TRUE(saw_degraded) << "setup produced no degraded answers";
  EXPECT_GT(served.Where(IsShed).size(), 0u) << "setup produced no shed";
}

TEST(ServeLoopAdmissionTest, TenantLedgersAccountForEveryQuery) {
  const Served served = Serve(Overloaded(), TenantRequests(4096, 1e-4), 4);
  std::int64_t admitted = 0;
  std::int64_t shed = 0;
  for (const auto& [tenant, t] : served.tenants) {
    EXPECT_TRUE(tenant == "heavy" || tenant == "light") << tenant;
    admitted += t.admitted_exact + t.admitted_degraded;
    shed += t.shed;
  }
  EXPECT_EQ(shed, static_cast<std::int64_t>(served.Where(IsShed).size()));
  EXPECT_EQ(admitted + shed, 256);
  // Only the heavy tenant drained its pool.
  EXPECT_EQ(served.tenants.at("light").shed, 0);
  EXPECT_GT(served.tenants.at("heavy").shed, 0);
}

}  // namespace
}  // namespace impreg
