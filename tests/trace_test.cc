// The observability invariants (ISSUE 4): convergence traces must
// faithfully mirror what the solvers did. Three anchor properties —
// the CG residual trajectory is non-increasing on a well-conditioned
// SPD system, the Chebyshev trajectory stays under its a-priori
// (√κ−1)/(√κ+1) bound, and the push arc-work total equals the
// WorkBudget accounting *exactly* — plus the bounded-memory contracts
// of the ring and the collector, and the metrics registry semantics.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/impreg.h"
#include "util/json.h"

namespace impreg {
namespace {

#ifdef IMPREG_OBSERVABILITY

// Metrics collection is process-global; leave it the way we found it.
class ScopedMetrics {
 public:
  ScopedMetrics() {
    ImpregEnableMetrics(true);
    MetricsRegistry::Get().Reset();
  }
  ~ScopedMetrics() { ImpregEnableMetrics(false); }
};

Graph RingOfCliques() { return CavemanGraph(12, 8); }

// —— Solver-trajectory invariants ————————————————————————————————

TEST(TraceTest, CgResidualTraceIsMonotoneNonIncreasingOnSpd) {
  const Graph g = RingOfCliques();
  const NormalizedLaplacianOperator lap(g);
  // γI + (1−γ)ℒ with γ = 0.5: spectrum in [0.5, 1.5], κ = 3 — well
  // conditioned, where the CG residual-norm trajectory is monotone
  // (CG only guarantees monotone A-norm error in general).
  const ShiftedOperator a(lap, 0.5, 0.5);
  Vector b(g.NumNodes());
  Rng rng(7);
  for (double& v : b) v = rng.NextGaussian();

  ScopedTraceCapture capture;
  const CgResult result = ConjugateGradient(a, b);
  ASSERT_EQ(result.diagnostics.status, SolveStatus::kConverged);

  const SolverTrace* trace = TraceCollector::Get().Latest("cg");
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->finished());
  EXPECT_EQ(trace->status(), SolveStatus::kConverged);
  EXPECT_EQ(trace->iterations(), result.iterations);

  std::vector<double> residuals;
  for (const TraceEvent& e : trace->Events()) {
    if (e.kind == TraceEventKind::kResidual) residuals.push_back(e.value);
  }
  ASSERT_GE(residuals.size(), 3u);
  for (std::size_t i = 1; i < residuals.size(); ++i) {
    EXPECT_LE(residuals[i], residuals[i - 1] * (1.0 + 1e-12))
        << "residual rose at iteration " << i;
  }
  EXPECT_DOUBLE_EQ(residuals.back(), result.diagnostics.final_residual);
}

TEST(TraceTest, ChebyshevTraceStaysUnderAprioriBound) {
  const Graph g = RingOfCliques();
  const NormalizedLaplacianOperator lap(g);
  const double lo = 0.5, hi = 1.5;  // Exact bounds for γI + (1−γ)ℒ, γ=.5.
  const ShiftedOperator a(lap, 0.5, 0.5);
  Vector b(g.NumNodes());
  Rng rng(8);
  for (double& v : b) v = rng.NextGaussian();

  ScopedTraceCapture capture;
  const ChebyshevResult result = ChebyshevSolve(a, b, lo, hi);
  ASSERT_EQ(result.diagnostics.status, SolveStatus::kConverged);

  const SolverTrace* trace = TraceCollector::Get().Latest("chebyshev");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->status(), SolveStatus::kConverged);

  // A-priori shape: ‖r_k‖ ≲ C·ρ^k·‖b‖ with ρ = (√κ−1)/(√κ+1). The
  // classical bound is on the A-norm of the error with C = 2; going
  // through the residual 2-norm costs at most another √κ·κ factor, so
  // C = 10 is a safe envelope for κ = 3.
  const double kappa = hi / lo;
  const double rho = (std::sqrt(kappa) - 1.0) / (std::sqrt(kappa) + 1.0);
  const double norm_b = Norm2(b);
  for (const TraceEvent& e : trace->Events()) {
    if (e.kind != TraceEventKind::kResidual) continue;
    const double bound = 10.0 * std::pow(rho, e.iteration) * norm_b;
    EXPECT_LE(e.value, bound)
        << "iteration " << e.iteration << " above the Chebyshev envelope";
  }
}

TEST(TraceTest, PushArcWorkTotalEqualsWorkBudgetAccountingExactly) {
  const Graph g = RingOfCliques();
  WorkBudget budget(1 << 30);  // Effectively unlimited; push charges it.
  PushOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-5;
  options.budget = &budget;

  ScopedTraceCapture capture;
  const PushResult result = ApproximatePageRank(g, SingleNodeSeed(g, 0), options);
  ASSERT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  ASSERT_GT(result.pushes, 0);

  const SolverTrace* trace = TraceCollector::Get().Latest("push");
  ASSERT_NE(trace, nullptr);
  // One kArcWork event per push, value = outdegree of the pushed node:
  // the trace total, the result's work field, and the budget's charge
  // are three accountings of the same quantity and must agree exactly.
  EXPECT_EQ(trace->KindCount(TraceEventKind::kArcWork), result.pushes);
  EXPECT_EQ(static_cast<std::int64_t>(trace->KindTotal(TraceEventKind::kArcWork)),
            result.work);
  EXPECT_EQ(budget.Spent(), result.work);
}

TEST(TraceTest, PushArcWorkEqualityHoldsThroughBudgetExhaustion) {
  const Graph g = RingOfCliques();
  WorkBudget budget(40);  // Exhausts almost immediately.
  PushOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-6;
  options.budget = &budget;

  ScopedTraceCapture capture;
  const PushResult result = ApproximatePageRank(g, SingleNodeSeed(g, 3), options);
  ASSERT_EQ(result.diagnostics.status, SolveStatus::kBudgetExhausted);

  const SolverTrace* trace = TraceCollector::Get().Latest("push");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(trace->KindTotal(TraceEventKind::kArcWork)),
            result.work);
  EXPECT_EQ(budget.Spent(), result.work);
  // The budget event records the arcs spent at the stop.
  EXPECT_EQ(trace->KindCount(TraceEventKind::kBudget), 1);
  EXPECT_EQ(static_cast<std::int64_t>(trace->KindTotal(TraceEventKind::kBudget)),
            budget.Spent());
}

TEST(TraceTest, LocalClusterTracesMatchBudgetAndMetrics) {
  ScopedMetrics metrics;
  const Graph g = RingOfCliques();
  WorkBudget hk_budget(1 << 30);  // Never exhausts; the walks charge it.
  WorkBudget nibble_budget(1 << 30);
  HkRelaxOptions hk;
  hk.budget = &hk_budget;
  NibbleOptions nibble;
  nibble.budget = &nibble_budget;

  ScopedTraceCapture capture;
  const HkRelaxResult a = HeatKernelRelax(g, 0, hk);
  const NibbleResult b = Nibble(g, 0, nibble);
  ASSERT_EQ(a.diagnostics.status, SolveStatus::kConverged);
  ASSERT_EQ(b.diagnostics.status, SolveStatus::kConverged);

  // One kArcWork event per walked row, value = its outdegree: the trace
  // total, the result's work and the budget's charge agree exactly.
  const SolverTrace* hk_trace = TraceCollector::Get().Latest("hkrelax");
  const SolverTrace* nibble_trace = TraceCollector::Get().Latest("nibble");
  ASSERT_NE(hk_trace, nullptr);
  ASSERT_NE(nibble_trace, nullptr);
  EXPECT_EQ(
      static_cast<std::int64_t>(hk_trace->KindTotal(TraceEventKind::kArcWork)),
      a.work);
  EXPECT_EQ(static_cast<std::int64_t>(
                nibble_trace->KindTotal(TraceEventKind::kArcWork)),
            b.work);
  EXPECT_EQ(hk_budget.Spent(), a.work);
  EXPECT_EQ(nibble_budget.Spent(), b.work);

  MetricsRegistry& registry = MetricsRegistry::Get();
  EXPECT_EQ(registry.FindOrCreateCounter("solver.hkrelax.solves")->Value(), 1);
  EXPECT_EQ(registry.FindOrCreateCounter("solver.hkrelax.terms")->Value(),
            a.terms);
  EXPECT_EQ(registry.FindOrCreateCounter("solver.hkrelax.arc_work")->Value(),
            a.work);
  EXPECT_EQ(registry.FindOrCreateCounter("solver.nibble.solves")->Value(), 1);
  EXPECT_EQ(registry.FindOrCreateCounter("solver.nibble.steps")->Value(),
            b.diagnostics.iterations);
  EXPECT_EQ(registry.FindOrCreateCounter("solver.nibble.arc_work")->Value(),
            b.work);
}

TEST(TraceTest, IncrementalPprTraceMatchesBudgetAndMetrics) {
  ScopedMetrics metrics;
  Rng rng(21);
  const Graph base = ErdosRenyi(50, 0.15, rng);
  Vector seed(50, 0.0);
  seed[0] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-7;
  WorkBudget budget(1 << 30);  // Never exhausts; push still charges it.
  options.budget = &budget;

  ScopedTraceCapture capture;
  IncrementalPersonalizedPageRank inc(DynamicGraph::FromGraph(base), seed,
                                      options);
  const SolverTrace* trace =
      TraceCollector::Get().Latest("incremental_ppr");
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->finished());
  EXPECT_EQ(trace->status(), SolveStatus::kConverged);
  // One kArcWork event per push (value = outdegree): the trace total,
  // the push count, and the budget's charge must agree exactly.
  EXPECT_EQ(trace->KindCount(TraceEventKind::kArcWork), inc.TotalPushes());
  EXPECT_EQ(
      static_cast<std::int64_t>(trace->KindTotal(TraceEventKind::kArcWork)),
      budget.Spent());

  MetricsRegistry& registry = MetricsRegistry::Get();
  EXPECT_EQ(
      registry.FindOrCreateCounter("solver.incremental_ppr.solves")->Value(),
      1);
  EXPECT_EQ(
      registry.FindOrCreateCounter("solver.incremental_ppr.pushes")->Value(),
      inc.TotalPushes());

  inc.AddEdge(0, 7);
  EXPECT_EQ(registry.FindOrCreateCounter("solver.incremental_ppr.add_edges")
                ->Value(),
            1);
  EXPECT_GE(
      registry.FindOrCreateCounter("solver.incremental_ppr.repaired_columns")
          ->Value(),
      1);
  EXPECT_EQ(
      registry.FindOrCreateCounter("solver.incremental_ppr.pushes")->Value(),
      inc.TotalPushes());
}

TEST(TraceTest, MonteCarloTraceAndMetricsMirrorWalksAndSteps) {
  ScopedMetrics metrics;
  const Graph g = CavemanGraph(4, 6);
  MonteCarloOptions options;
  options.walks_per_node = 64;

  ScopedTraceCapture capture;
  const MonteCarloResult result =
      MonteCarloPersonalizedPageRankSolve(g, 0, options);
  ASSERT_EQ(result.diagnostics.status, SolveStatus::kConverged);

  const SolverTrace* trace = TraceCollector::Get().Latest("montecarlo");
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->finished());
  // One kArcWork event per walk (value = edges traversed): counts and
  // totals are the result's own walk/step accounting.
  EXPECT_EQ(trace->KindCount(TraceEventKind::kArcWork), result.walks);
  EXPECT_EQ(
      static_cast<std::int64_t>(trace->KindTotal(TraceEventKind::kArcWork)),
      result.steps);

  MetricsRegistry& registry = MetricsRegistry::Get();
  EXPECT_EQ(registry.FindOrCreateCounter("solver.montecarlo.solves")->Value(),
            1);
  EXPECT_EQ(registry.FindOrCreateCounter("solver.montecarlo.walks")->Value(),
            result.walks);
  EXPECT_EQ(registry.FindOrCreateCounter("solver.montecarlo.steps")->Value(),
            result.steps);
}

TEST(TraceTest, RegionInvalidationCountersMirrorCacheStats) {
  ScopedMetrics metrics;
  const Graph g = CavemanGraph(4, 6);
  QueryEngine engine(g);

  // Two push queries (state-bearing) + one nibble (whole-graph region,
  // no warm state), all inserted at epoch 0.
  Query push1;
  push1.seeds = {0};
  Query push2;
  push2.seeds = {7};
  Query nib;
  nib.method = QueryMethod::kNibble;
  nib.seeds = {3};
  engine.RunBatch({push1, push2, nib});
  ASSERT_EQ(engine.cache().Size(), 3u);

  MetricsRegistry& registry = MetricsRegistry::Get();
  const auto expect_counters_mirror_stats = [&] {
    const ResultCacheStats& stats = engine.cache().stats();
    EXPECT_EQ(
        registry.FindOrCreateCounter("service.cache.region_evicted")->Value(),
        stats.region_evicted);
    EXPECT_EQ(
        registry.FindOrCreateCounter("service.cache.region_demoted")->Value(),
        stats.region_demoted);
    EXPECT_EQ(
        registry.FindOrCreateCounter("service.cache.region_retained")->Value(),
        stats.region_retained);
  };

  // Every exact entry is evicted, demoted or retained by an edit: the
  // nibble entry (whole graph) is evicted, push1 (its seed is an
  // endpoint) is demoted to warm service.
  engine.AddEdge(0, 12);
  expect_counters_mirror_stats();
  const ResultCacheStats first = engine.cache().stats();
  EXPECT_GE(first.region_evicted, 1);
  EXPECT_GE(first.region_demoted, 1);
  EXPECT_EQ(first.region_evicted + first.region_demoted +
                first.region_retained,
            3);

  // push1 warm-restarts back into exact service; the second edit
  // touches its seed's clique again.
  engine.RunBatch({push1});
  const auto exact_before =
      static_cast<std::int64_t>(engine.cache().ExactSize());
  engine.AddEdge(1, 13);
  expect_counters_mirror_stats();
  const ResultCacheStats& second = engine.cache().stats();
  EXPECT_GT(second.region_demoted, first.region_demoted);
  EXPECT_EQ(second.region_evicted + second.region_demoted +
                second.region_retained,
            3 + exact_before);
}

// —— Bounded-memory contracts ————————————————————————————————————

TEST(TraceTest, RingOverwritesOldestAndKeepsEvictionProofTotals) {
  SolverTrace trace("test", /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    trace.Record(i, TraceEventKind::kResidual, static_cast<double>(i + 1));
  }
  EXPECT_EQ(trace.TotalRecorded(), 10);
  EXPECT_EQ(trace.EventsDropped(), 6);

  const std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: iterations 6, 7, 8, 9 survive.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].iteration, 6 + i);
    EXPECT_DOUBLE_EQ(events[i].value, 7.0 + i);
  }
  // SumValues covers the retained tail only; KindTotal survives
  // eviction (1 + 2 + … + 10 = 55, tail is 7 + 8 + 9 + 10 = 34).
  EXPECT_DOUBLE_EQ(trace.SumValues(TraceEventKind::kResidual), 34.0);
  EXPECT_DOUBLE_EQ(trace.KindTotal(TraceEventKind::kResidual), 55.0);
  EXPECT_EQ(trace.KindCount(TraceEventKind::kResidual), 10);
  EXPECT_EQ(trace.KindCount(TraceEventKind::kFault), 0);
}

TEST(TraceTest, CollectorRefusesBeginPastTheTraceCap) {
  TraceCollector& collector = TraceCollector::Get();
  collector.Enable(/*ring_capacity=*/16, /*max_traces=*/2);
  collector.Clear();
  SolverTrace* a = collector.Begin("a");
  SolverTrace* b = collector.Begin("b");
  SolverTrace* c = collector.Begin("c");
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
  EXPECT_EQ(c, nullptr);  // Refused, not evicted: a and b stay valid.
  EXPECT_EQ(collector.TracesDropped(), 1);
  EXPECT_EQ(collector.Traces().size(), 2u);
  EXPECT_EQ(collector.Latest("b"), b);
  EXPECT_EQ(collector.Latest("c"), nullptr);
  collector.Disable();
}

TEST(TraceTest, BeginReturnsNullWhenDisabled) {
  TraceCollector& collector = TraceCollector::Get();
  collector.Disable();
  EXPECT_EQ(collector.Begin("cg"), nullptr);
}

TEST(TraceTest, CollectorJsonIsParseableAndCarriesTheSchema) {
  const Graph g = RingOfCliques();
  ScopedTraceCapture capture;
  ApproximatePageRank(g, SingleNodeSeed(g, 0), {});
  const std::string json = TraceCollector::Get().ToJson();
  const JsonParseResult parsed = JsonParse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue* schema =
      parsed.value.FindOfType("schema", JsonValue::Type::kString);
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->AsString(), "impreg-trace-v1");
  const JsonValue* traces =
      parsed.value.FindOfType("traces", JsonValue::Type::kArray);
  ASSERT_NE(traces, nullptr);
  ASSERT_FALSE(traces->Items().empty());
}

// —— Metrics registry semantics ——————————————————————————————————

TEST(MetricsTest, CounterMergesShardsDeterministically) {
  ScopedMetrics metrics;
  Counter* counter = MetricsRegistry::Get().FindOrCreateCounter("test.adds");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < 1000; ++i) counter->Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), 8000);
}

TEST(MetricsTest, RegistryHandlesAreStableAndSnapshotIsNameSorted) {
  ScopedMetrics metrics;
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* c1 = registry.FindOrCreateCounter("test.zeta");
  Counter* c2 = registry.FindOrCreateCounter("test.alpha");
  EXPECT_EQ(registry.FindOrCreateCounter("test.zeta"), c1);
  c1->Add(2);
  c2->Add(1);
  registry.FindOrCreateGauge("test.gauge")->Set(3.5);
  registry.FindOrCreateHistogram("test.hist")->Observe(100.0);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_TRUE(std::is_sorted(
      snapshot.counters.begin(), snapshot.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  bool saw_alpha = false, saw_zeta = false;
  for (const auto& c : snapshot.counters) {
    if (c.name == "test.alpha") {
      saw_alpha = true;
      EXPECT_EQ(c.value, 1);
    }
    if (c.name == "test.zeta") {
      saw_zeta = true;
      EXPECT_EQ(c.value, 2);
    }
  }
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_zeta);

  // The snapshot JSON must parse with our own parser.
  const JsonParseResult parsed = JsonParse(snapshot.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_NE(parsed.value.FindOfType("counters", JsonValue::Type::kObject),
            nullptr);
}

TEST(MetricsTest, HistogramBucketsByLog2AndKeepsSum) {
  ScopedMetrics metrics;
  Histogram* hist = MetricsRegistry::Get().FindOrCreateHistogram("test.h");
  hist->Observe(0.5);  // Bucket 0 absorbs values < 1.
  hist->Observe(1.0);  // [1, 2) → bucket 0.
  hist->Observe(5.0);  // [4, 8) → bucket 2.
  hist->Observe(5.5);
  EXPECT_EQ(hist->Count(), 4);
  EXPECT_DOUBLE_EQ(hist->Sum(), 12.0);
  const std::vector<std::int64_t> buckets = hist->BucketCounts();
  EXPECT_EQ(buckets[0], 2);
  EXPECT_EQ(buckets[2], 2);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsHandles) {
  ScopedMetrics metrics;
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* counter = registry.FindOrCreateCounter("test.reset");
  counter->Add(7);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(registry.FindOrCreateCounter("test.reset"), counter);
  counter->Add(1);
  EXPECT_EQ(counter->Value(), 1);
}

TEST(MetricsTest, ScopedTimerRecordsIntoItsHistogram) {
  ScopedMetrics metrics;
  { ScopedMetricTimer timer("test.timer_ns"); }
  Histogram* hist =
      MetricsRegistry::Get().FindOrCreateHistogram("test.timer_ns");
  EXPECT_EQ(hist->Count(), 1);
}

TEST(MetricsTest, SolverCountersFlowThroughTheMacros) {
  ScopedMetrics metrics;
  const Graph g = RingOfCliques();
  const PushResult result = ApproximatePageRank(g, SingleNodeSeed(g, 0), {});
  MetricsRegistry& registry = MetricsRegistry::Get();
  EXPECT_EQ(registry.FindOrCreateCounter("solver.push.solves")->Value(), 1);
  EXPECT_EQ(registry.FindOrCreateCounter("solver.push.pushes")->Value(),
            result.pushes);
  EXPECT_EQ(registry.FindOrCreateCounter("solver.push.arc_work")->Value(),
            result.work);
}

#endif  // IMPREG_OBSERVABILITY

}  // namespace
}  // namespace impreg
