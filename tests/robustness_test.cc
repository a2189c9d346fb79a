// Acceptance test of the numerical-failure containment layer.
//
// The fault-point catalog is enumerated from the code itself: each
// scenario runs its solver once under recording mode to discover the
// sites it passes through, then re-runs it with a fault armed at every
// site it owns and asserts graceful degradation — a non-kConverged
// status, finite outputs, no abort, no hang. Sites named *budget* (plus
// the budget hooks "maxflow/phase" and "kway/recurse") get a simulated
// WorkBudget exhaustion; every other site gets a NaN.
//
// The whole suite is compiled into every build but the injection sweeps
// skip themselves unless the harness was compiled in
// (IMPREG_FAULT_INJECTION=ON — see the `faultinject` CMake preset); the
// real-budget-exhaustion test runs everywhere.

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/solve_status.h"
#include "core/work_budget.h"
#include "diffusion/heat_kernel.h"
#include "diffusion/lazy_walk.h"
#include "diffusion/pagerank.h"
#include "diffusion/seed.h"
#include "flow/maxflow.h"
#include "flow/mqi.h"
#include "flow/multilevel.h"
#include "flow/recursive_partition.h"
#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "linalg/cg.h"
#include "linalg/sparse_vector.h"
#include "linalg/chebyshev.h"
#include "linalg/graph_operators.h"
#include "linalg/lanczos.h"
#include "linalg/power_method.h"
#include "ncp/ncp.h"
#include "partition/hkrelax.h"
#include "partition/nibble.h"
#include "partition/push.h"
#include "service/durability/snapshot.h"
#include "service/durability/wal.h"
#include "service/query_engine.h"
#include "service/serve_loop.h"
#include "streaming/dynamic_graph.h"
#include "util/fault.h"
#include "util/rng.h"

namespace impreg {
namespace {

/// What a scenario reports back: how the solve ended and whether every
/// advertised output stayed finite/valid.
struct Outcome {
  SolveStatus status = SolveStatus::kConverged;
  bool finite = true;
};

/// One hardened solver: a deterministic healthy run (must converge) and
/// the site prefixes it owns in the fault-point catalog. Sites recorded
/// but not owned (e.g. the maxflow sites inside the NCP flow family)
/// are exercised by the scenario that owns them.
struct Scenario {
  const char* name;
  std::vector<const char*> prefixes;
  std::function<Outcome()> run;
};

void ExpectBitIdentical(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i;
  }
}

bool Owns(const Scenario& scenario, const std::string& site) {
  for (const char* prefix : scenario.prefixes) {
    if (site.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Budget hooks take a WorkBudget* target; everything else takes a
/// vector or scalar. The kind must match the hook or the injection is a
/// no-op and the degradation assertion would be vacuous.
bool IsBudgetSite(const std::string& site) {
  return site.find("budget") != std::string::npos ||
         site == "maxflow/phase" || site == "kway/recurse";
}

/// Generous cap: never exhausts on these tiny inputs, so the healthy
/// runs converge while the budget hooks still see a real budget.
constexpr std::int64_t kGenerousArcs = std::int64_t{1} << 40;

/// Diagonal test operator with an unambiguous dominant eigenvalue.
class DiagOperator : public LinearOperator {
 public:
  explicit DiagOperator(Vector d) : d_(std::move(d)) {}
  int Dimension() const override { return static_cast<int>(d_.size()); }
  void Apply(const Vector& x, Vector& y) const override {
    y.resize(d_.size());
    for (std::size_t i = 0; i < d_.size(); ++i) y[i] = d_[i] * x[i];
  }

 private:
  Vector d_;
};

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;

  scenarios.push_back({"cg", {"cg/"}, [] {
    Rng rng(1);
    const Graph g = ErdosRenyi(40, 0.15, rng);
    const NormalizedLaplacianOperator lap(g);
    const ShiftedOperator system(lap, 1.0, 1.0);
    Vector b(40);
    for (double& v : b) v = rng.NextGaussian();
    const CgResult r = ConjugateGradient(system, b);
    return Outcome{r.diagnostics.status, AllFinite(r.x)};
  }});

  scenarios.push_back({"chebyshev", {"chebyshev/"}, [] {
    Rng rng(2);
    const Graph g = ErdosRenyi(40, 0.15, rng);
    const NormalizedLaplacianOperator lap(g);
    const ShiftedOperator system(lap, 0.8, 0.2);
    Vector b(40);
    for (double& v : b) v = rng.NextGaussian();
    const ChebyshevResult r = ChebyshevSolve(system, b, 0.2, 1.8);
    return Outcome{r.diagnostics.status, AllFinite(r.x)};
  }});

  scenarios.push_back({"power_method", {"power_method/"}, [] {
    const DiagOperator op({2.0, 1.0, 0.5, 0.25, 0.1, 0.05});
    const PowerMethodResult r = PowerMethod(op, Vector(6, 1.0));
    return Outcome{r.diagnostics.status,
                   AllFinite(r.eigenvector) && std::isfinite(r.eigenvalue)};
  }});

  scenarios.push_back({"lanczos", {"lanczos/"}, [] {
    Rng rng(3);
    const Graph g = ErdosRenyi(50, 0.15, rng);
    const NormalizedLaplacianOperator lap(g);
    const LanczosResult r = LanczosSmallest(lap, 2);
    bool finite = AllFinite(r.eigenvalues);
    for (const Vector& v : r.eigenvectors) finite = finite && AllFinite(v);
    return Outcome{r.diagnostics.status, finite};
  }});

  scenarios.push_back({"krylov_exp", {"krylov_exp/"}, [] {
    const Graph g = CycleGraph(12);
    const NormalizedLaplacianOperator lap(g);
    Vector v(12, 0.0);
    v[4] = 1.0;
    SolverDiagnostics diag;
    const Vector out = KrylovExpMultiply(lap, -1.0, v, 40, &diag);
    return Outcome{diag.status, AllFinite(out)};
  }});

  scenarios.push_back({"pagerank", {"pagerank/"}, [] {
    const Graph g = CavemanGraph(3, 8);
    const PageRankResult r = PersonalizedPageRank(g, SingleNodeSeed(g, 0));
    return Outcome{r.diagnostics.status, AllFinite(r.scores)};
  }});

  scenarios.push_back({"heat_kernel", {"heat_kernel/"}, [] {
    const Graph g = CavemanGraph(3, 8);
    SolverDiagnostics diag;
    // t = 3 ⇒ ≥ 8 Taylor terms: the amortized finite check fires.
    const Vector rho =
        HeatKernelWalkTaylor(g, SingleNodeSeed(g, 0), 3.0, 1e-12, &diag);
    return Outcome{diag.status, AllFinite(rho)};
  }});

  scenarios.push_back({"lazy_walk", {"lazy_walk/"}, [] {
    const Graph g = CavemanGraph(3, 8);
    LazyWalkOptions options;
    options.steps = 12;
    SolverDiagnostics diag;
    const Vector out = LazyWalk(g, SingleNodeSeed(g, 0), options, &diag);
    return Outcome{diag.status, AllFinite(out)};
  }});

  scenarios.push_back({"push", {"push/"}, [] {
    const Graph g = CavemanGraph(4, 8);
    WorkBudget budget(kGenerousArcs);
    PushOptions options;
    options.budget = &budget;
    const PushResult r = ApproximatePageRank(g, SingleNodeSeed(g, 0), options);
    return Outcome{r.diagnostics.status,
                   AllFinite(r.p) && AllFinite(r.residual)};
  }});

  scenarios.push_back({"hkrelax", {"hkrelax/"}, [] {
    const Graph g = CavemanGraph(4, 8);
    WorkBudget budget(kGenerousArcs);
    HkRelaxOptions options;
    options.budget = &budget;
    const HkRelaxResult r = HeatKernelRelax(g, 0, options);
    return Outcome{r.diagnostics.status, AllFinite(r.rho)};
  }});

  scenarios.push_back({"nibble", {"nibble/"}, [] {
    const Graph g = CavemanGraph(4, 8);
    WorkBudget budget(kGenerousArcs);
    NibbleOptions options;
    options.budget = &budget;
    const NibbleResult r = Nibble(g, 0, options);
    return Outcome{r.diagnostics.status, AllFinite(r.distribution)};
  }});

  scenarios.push_back({"maxflow", {"maxflow/"}, [] {
    FlowNetwork network(4);
    network.AddEdge(0, 1, 1.0);
    network.AddEdge(0, 2, 1.0);
    network.AddEdge(1, 2, 1.0);
    network.AddEdge(1, 3, 1.0);
    network.AddEdge(2, 3, 1.0);
    WorkBudget budget(kGenerousArcs);
    const double flow = network.MaxFlow(0, 3, &budget);
    return Outcome{network.Diagnostics().status, std::isfinite(flow)};
  }});

  scenarios.push_back({"multilevel", {"multilevel/"}, [] {
    const Graph g = GridGraph(16, 16);
    WorkBudget budget(kGenerousArcs);
    MultilevelOptions options;
    options.budget = &budget;
    const MultilevelResult r = MultilevelBisection(g, options);
    return Outcome{r.diagnostics.status,
                   !r.set.empty() && std::isfinite(r.cut)};
  }});

  scenarios.push_back({"kway", {"kway/"}, [] {
    const Graph g = GridGraph(12, 12);
    WorkBudget budget(kGenerousArcs);
    KwayOptions options;
    options.bisection.budget = &budget;
    const KwayResult r = KwayPartition(g, 4, options);
    bool complete = r.part.size() == static_cast<std::size_t>(g.NumNodes());
    for (const int block : r.part) {
      complete = complete && block >= 0 && block < 4;
    }
    return Outcome{r.diagnostics.status, complete};
  }});

  scenarios.push_back({"ncp_walk", {"ncp/walk"}, [] {
    const Graph g = CavemanGraph(4, 8);
    WorkBudget budget(kGenerousArcs);
    WalkFamilyOptions options;
    options.num_seeds = 4;
    options.checkpoints = {2, 4, 8};
    options.budget = &budget;
    SolverDiagnostics diag;
    WalkFamilyClusters(g, options, &diag);
    return Outcome{diag.status, true};
  }});

  scenarios.push_back({"ncp_spectral", {"ncp/spectral"}, [] {
    const Graph g = CavemanGraph(4, 8);
    WorkBudget budget(kGenerousArcs);
    SpectralFamilyOptions options;
    options.num_seeds = 4;
    options.alphas = {0.1};
    options.epsilons = {1e-2, 1e-3};
    options.budget = &budget;
    SolverDiagnostics diag;
    SpectralFamilyClusters(g, options, &diag);
    return Outcome{diag.status, true};
  }});

  scenarios.push_back({"admission", {"service/admission"}, [] {
    // The serve loop under admission control: an exhausted pool must
    // shed explicitly. Cache off keeps the unowned service/cache_insert
    // site (armed by its own test below) out of this sweep; the pool is
    // unlimited, so the healthy run admits everything exact.
    const Graph g = CavemanGraph(3, 8);
    QueryEngine::Options engine_options;
    engine_options.enable_cache = false;
    engine_options.admission.enabled = true;
    QueryEngine engine(g, engine_options);
    ServeLoop loop(engine);
    for (NodeId i = 0; i < 24; ++i) {
      QueryRequest request;
      request.query.seeds = {i};
      request.query.epsilon = 1e-4;
      request.query.tenant = "a";
      loop.Submit(request);
    }
    SolveStatus status = SolveStatus::kConverged;
    bool finite = true;
    loop.Flush([&](ServedGroup& group) {
      for (const QueryResponse& response : group.responses) {
        status = MergeStatus(status, response.status);
        for (const double score : response.scores) {
          finite = finite && std::isfinite(score);
        }
      }
    });
    return Outcome{status, finite};
  }});

  scenarios.push_back({"ncp_flow", {"ncp/flow"}, [] {
    const Graph g = CavemanGraph(3, 8);
    WorkBudget budget(kGenerousArcs);
    FlowFamilyOptions options;
    options.fractions = {0.25, 0.5};
    options.budget = &budget;
    SolverDiagnostics diag;
    FlowFamilyClusters(g, options, &diag);
    return Outcome{diag.status, true};
  }});

  scenarios.push_back({"durability", {"wal/", "snapshot/"}, [] {
    // The durability pipeline end to end: append to the WAL, read it
    // back, replay onto the graph, snapshot, reload. A fault at any of
    // the six wal/* and snapshot/* sites must surface as a non-usable
    // status with nothing poisoned — a rejected record, a torn tail
    // kept to its certified prefix, an unpublished snapshot.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "impreg_robustness_durability";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    const std::string wal_path = (dir / "wal.log").string();
    const std::string snap_dir = (dir / "snapshots").string();

    SolveStatus status = SolveStatus::kConverged;
    {
      durability::WriteAheadLog wal;
      status = MergeStatus(status, wal.Open(wal_path, {}));
      if (wal.is_open()) {
        status = MergeStatus(status, wal.AppendAddEdge(0, 7, 1.0));
        status = MergeStatus(status, wal.AppendAddEdge(1, 8, 0.5));
      }
    }
    const durability::WalReadResult read = durability::ReadWal(wal_path);
    status = MergeStatus(status, read.status);
    DynamicGraph replayed = DynamicGraph::FromGraph(CavemanGraph(2, 6));
    const durability::WalReplayResult replay =
        durability::ReplayWal(read.entries, 0, &replayed);
    status = MergeStatus(status, replay.status);
    const durability::SnapshotWriteResult written = durability::WriteSnapshot(
        snap_dir, static_cast<std::int64_t>(read.entries.size()), replayed,
        {});
    status = MergeStatus(status, written.status);
    bool finite = std::isfinite(replayed.TotalVolume());
    if (written.status == SolveStatus::kConverged) {
      const durability::SnapshotLoadResult loaded =
          durability::LoadSnapshot(written.path);
      status = MergeStatus(status, loaded.status);
      finite = finite && std::isfinite(loaded.data.graph.TotalVolume());
    }
    return Outcome{status, finite};
  }});

  return scenarios;
}

TEST(RobustnessTest, EveryFaultSiteDegradesGracefully) {
  if (!fault::Compiled()) {
    GTEST_SKIP() << "fault harness not compiled (IMPREG_FAULT_INJECTION=OFF)";
  }
  std::set<std::string> recorded_all;
  std::set<std::string> armed_all;
  for (const Scenario& scenario : AllScenarios()) {
    fault::Disarm();
    fault::StartRecording();
    const Outcome healthy = scenario.run();
    const std::vector<std::string> sites = fault::StopRecording();
    EXPECT_EQ(healthy.status, SolveStatus::kConverged) << scenario.name;
    EXPECT_TRUE(healthy.finite) << scenario.name;
    recorded_all.insert(sites.begin(), sites.end());

    std::vector<std::string> owned;
    for (const std::string& site : sites) {
      if (Owns(scenario, site)) owned.push_back(site);
    }
    EXPECT_FALSE(owned.empty())
        << scenario.name << ": healthy run reached no owned fault site";

    for (const std::string& site : owned) {
      const fault::FaultKind kind = IsBudgetSite(site)
                                        ? fault::FaultKind::kBudget
                                        : fault::FaultKind::kNaN;
      fault::Arm(site, kind);
      const Outcome faulted = scenario.run();
      EXPECT_GT(fault::InjectionCount(), 0)
          << scenario.name << " @ " << site << ": trigger never fired";
      EXPECT_NE(faulted.status, SolveStatus::kConverged)
          << scenario.name << " @ " << site
          << ": injected fault went unreported";
      EXPECT_TRUE(faulted.finite)
          << scenario.name << " @ " << site << ": poison leaked into output";
      armed_all.insert(site);
      fault::Disarm();
    }
  }
  // Every site any scenario passed through must have been exercised by
  // the scenario that owns it — a site reachable only through a
  // composite driver would otherwise silently escape the sweep.
  for (const std::string& site : recorded_all) {
    EXPECT_TRUE(armed_all.count(site) > 0)
        << "fault site " << site << " recorded but never injected; "
        << "add it to a scenario's prefixes";
  }
}

TEST(RobustnessTest, MqiKeepsSetWhenInnerMaxflowIsPoisoned) {
  if (!fault::Compiled()) {
    GTEST_SKIP() << "fault harness not compiled (IMPREG_FAULT_INJECTION=OFF)";
  }
  const Graph g = CavemanGraph(2, 8);
  std::vector<NodeId> set;
  for (NodeId u = 0; u < 8; ++u) set.push_back(u);
  fault::Arm("maxflow/pushed", fault::FaultKind::kNaN);
  const MqiResult r = Mqi(g, set);
  fault::Disarm();
  // A non-maximal flow certifies nothing: MQI must keep the set from
  // the completed rounds and surface the inner failure.
  EXPECT_NE(r.diagnostics.status, SolveStatus::kConverged);
  EXPECT_FALSE(r.diagnostics.usable());
  EXPECT_FALSE(r.set.empty());
  EXPECT_LE(r.stats.conductance, Conductance(g, set) + 1e-12);
}

TEST(RobustnessTest, PoisonedCacheInsertIsRejectedAndNeverServed) {
  if (!fault::Compiled()) {
    GTEST_SKIP() << "fault harness not compiled (IMPREG_FAULT_INJECTION=OFF)";
  }
  const Graph g = CavemanGraph(4, 8);
  QueryEngine engine(g);
  Query query;
  query.seeds = {0};
  query.epsilon = 1e-5;

  fault::Arm("service/cache_insert", fault::FaultKind::kNaN);
  const QueryResponse first = engine.Run(query);
  EXPECT_GT(fault::InjectionCount(), 0) << "cache_insert site never fired";
  fault::Disarm();

  // The response was materialized before the insert, so the caller's
  // answer is clean; the poisoned payload must be rejected at the
  // cache boundary — dropped, never cached, never served.
  EXPECT_TRUE(AllFinite(first.scores));
  EXPECT_EQ(first.source, QuerySource::kCold);
  EXPECT_EQ(engine.cache().stats().rejected, 1);
  EXPECT_EQ(engine.cache().Size(), 0u);

  // A repeat of the same query cold-solves (no poisoned hit) and
  // reproduces the original answer bitwise.
  const QueryResponse second = engine.Run(query);
  EXPECT_EQ(second.source, QuerySource::kCold);
  EXPECT_EQ(second.scores, first.scores);
  EXPECT_EQ(engine.cache().Size(), 1u);
}

TEST(RobustnessTest, PoisonedDenseColumnIsContainedAndNeverCached) {
  if (!fault::Compiled()) {
    GTEST_SKIP() << "fault harness not compiled (IMPREG_FAULT_INJECTION=OFF)";
  }
  const Graph g = CavemanGraph(4, 8);
  Query a;
  a.method = QueryMethod::kPprDense;
  a.seeds = {0};
  a.tolerance = 1e-10;
  Query b = a;
  b.seeds = {17};  // Same lockstep group as a.
  QueryEngine clean(g);
  const std::vector<QueryResponse> expected = clean.RunBatch({a, b});

  // Hit 1 of the walk site is column a's first step, hit 2 column b's.
  QueryEngine engine(g);
  fault::Arm("pagerank/walked", fault::FaultKind::kNaN, 2);
  const std::vector<QueryResponse> served = engine.RunBatch({a, b});
  EXPECT_EQ(fault::InjectionCount(), 1) << "walk site never fired";
  fault::Disarm();

  // The poisoned column is marked and keeps its last finite iterate;
  // its neighbour in the group never sees the poison.
  EXPECT_EQ(served[1].status, SolveStatus::kNonFinite);
  EXPECT_TRUE(served[1].degraded);
  EXPECT_TRUE(AllFinite(served[1].scores));
  EXPECT_EQ(served[0].status, expected[0].status);
  EXPECT_EQ(served[0].work, expected[0].work);
  ExpectBitIdentical(served[0].scores, expected[0].scores);

  // Only the clean column was cached, so b solves again from scratch.
  EXPECT_EQ(engine.cache().Size(), 1u);
  const QueryResponse again = engine.Run(b);
  EXPECT_EQ(again.source, QuerySource::kCold);
  EXPECT_EQ(again.status, expected[1].status);
  ExpectBitIdentical(again.scores, expected[1].scores);
}

/// hk-relax and Nibble answers flattened into one vector — ρ, the walk,
/// sets, cut statistics, work and status — for a single bit comparison.
Vector LocalSolves(const Graph& g) {
  HkRelaxOptions hk;
  hk.delta = 1e-6;
  const HkRelaxResult a = HeatKernelRelax(g, 0, hk);
  NibbleOptions nibble;
  nibble.steps = 20;
  nibble.epsilon = 1e-6;
  const NibbleResult b = Nibble(g, 31, nibble);
  Vector out = a.rho;
  out.insert(out.end(), b.distribution.begin(), b.distribution.end());
  for (const auto* set : {&a.set, &b.set}) {
    out.push_back(static_cast<double>(set->size()));
    out.insert(out.end(), set->begin(), set->end());
  }
  for (const CutStats* stats : {&a.stats, &b.stats}) {
    out.insert(out.end(), {stats->cut, stats->volume,
                           stats->complement_volume, stats->conductance});
  }
  out.insert(out.end(),
             {a.dropped_mass, b.truncated_mass, static_cast<double>(a.work),
              static_cast<double>(b.work), static_cast<double>(a.terms),
              static_cast<double>(b.best_step),
              static_cast<double>(a.diagnostics.status),
              static_cast<double>(b.diagnostics.status)});
  return out;
}

// Every exit of hk-relax and Nibble — a budget stop, a walk truncated
// to nothing, a poisoned term — leaves the thread's NodeIndex clear, so
// ordinary solves after it on the same thread answer exactly what a
// fresh thread (fresh index, as in a fresh process) answers.
TEST(RobustnessTest, LocalKernelExitsLeaveTheThreadIndexClean) {
  Rng rng(7);
  const Graph g = ErdosRenyi(3000, 6.0 / 3000.0, rng);
  std::vector<std::pair<std::string, std::function<void()>>> exits;
  exits.push_back({"budget-stopped hk-relax", [&g] {
    WorkBudget budget(200);
    HkRelaxOptions options;
    options.budget = &budget;
    const HkRelaxResult r = HeatKernelRelax(g, 5, options);
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kBudgetExhausted);
  }});
  exits.push_back({"budget-stopped Nibble", [&g] {
    WorkBudget budget(200);
    NibbleOptions options;
    options.budget = &budget;
    const NibbleResult r = Nibble(g, 5, options);
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kBudgetExhausted);
  }});
  exits.push_back({"Nibble walk truncated to nothing", [&g] {
    NibbleOptions options;
    options.epsilon = 0.5;
    const NibbleResult r = Nibble(g, 5, options);
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kConverged);
    EXPECT_EQ(r.diagnostics.iterations, 1);
    EXPECT_NEAR(r.truncated_mass, 1.0, 1e-12);
  }});
  if (fault::Compiled()) {
    exits.push_back({"hk-relax poisoned at hkrelax/scale", [&g] {
      fault::Arm("hkrelax/scale", fault::FaultKind::kNaN, 2);
      const HkRelaxResult r = HeatKernelRelax(g, 5, {});
      EXPECT_EQ(fault::InjectionCount(), 1);
      fault::Disarm();
      EXPECT_EQ(r.diagnostics.status, SolveStatus::kNonFinite);
    }});
    exits.push_back({"Nibble poisoned at nibble/mass", [&g] {
      fault::Arm("nibble/mass", fault::FaultKind::kNaN, 20);
      const NibbleResult r = Nibble(g, 5, {});
      EXPECT_EQ(fault::InjectionCount(), 1);
      fault::Disarm();
      EXPECT_EQ(r.diagnostics.status, SolveStatus::kNonFinite);
    }});
  }
  for (const int threads : {1, 4}) {
    const ScopedNumThreads scoped(threads);
    Vector fresh;
    std::thread([&] { fresh = LocalSolves(g); }).join();
    for (const auto& [name, run] : exits) {
      SCOPED_TRACE(name + " at " + std::to_string(threads) + " threads");
      run();
      EXPECT_TRUE(ThreadNodeIndex().empty());
      ExpectBitIdentical(LocalSolves(g), fresh);
    }
  }
}

// Runs in every build (no injection needed): a pre-exhausted budget
// must stop each driver at its first chunk boundary and still produce
// a complete, valid answer.
TEST(RobustnessTest, RealBudgetExhaustionDegradesGracefully) {
  {
    const Graph g = GridGraph(16, 16);
    WorkBudget budget(1);
    budget.Charge(10);  // Exhausted at the first boundary check.
    MultilevelOptions options;
    options.budget = &budget;
    const MultilevelResult r = MultilevelBisection(g, options);
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kBudgetExhausted);
    EXPECT_FALSE(r.set.empty());
    EXPECT_TRUE(std::isfinite(r.cut));
  }
  {
    const Graph g = GridGraph(12, 12);
    WorkBudget budget(1);
    budget.Charge(10);
    KwayOptions options;
    options.bisection.budget = &budget;
    const KwayResult r = KwayPartition(g, 4, options);
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kBudgetExhausted);
    ASSERT_EQ(r.part.size(), static_cast<std::size_t>(g.NumNodes()));
    for (const int block : r.part) {
      EXPECT_GE(block, 0);
      EXPECT_LT(block, 4);
    }
  }
  {
    const Graph g = CavemanGraph(4, 8);
    WorkBudget budget(1);
    budget.Charge(10);
    NibbleOptions options;
    options.budget = &budget;
    const NibbleResult r = Nibble(g, 0, options);
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kBudgetExhausted);
    EXPECT_TRUE(AllFinite(r.distribution));
  }
  {
    const Graph g = CavemanGraph(4, 8);
    WorkBudget budget(1);
    budget.Charge(10);
    PushOptions options;
    options.budget = &budget;
    const PushResult r = ApproximatePageRank(g, SingleNodeSeed(g, 0), options);
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kBudgetExhausted);
    EXPECT_TRUE(AllFinite(r.p));
    EXPECT_TRUE(AllFinite(r.residual));
  }
  {
    FlowNetwork network(4);
    network.AddEdge(0, 1, 1.0);
    network.AddEdge(1, 3, 1.0);
    WorkBudget budget(1);
    budget.Charge(10);
    const double flow = network.MaxFlow(0, 3, &budget);
    EXPECT_EQ(network.Diagnostics().status, SolveStatus::kBudgetExhausted);
    EXPECT_TRUE(std::isfinite(flow));
  }
}

}  // namespace
}  // namespace impreg
