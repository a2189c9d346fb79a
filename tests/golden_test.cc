// Golden-file tests for the observability export formats. The
// fixtures under tests/golden/ pin the *shape* of the two stable
// schemas — impreg-trace-v1 (core/trace.h) and impreg-bench-v2
// (bench/report.h) — so a field rename or type change breaks a test
// before it breaks a downstream consumer. Live exports are run
// through the same schema checker as the committed fixtures, which
// keeps fixture and implementation from drifting apart. The
// bench-diff round trip (identical reports pass the gate, a 2×
// slowdown fails it) is checked both here at the API level and as
// ctest invocations of the impreg_bench_diff binary.

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bench/report.h"
#include "core/impreg.h"
#include "util/json.h"

namespace impreg {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(IMPREG_GOLDEN_DIR) + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// —— impreg-trace-v1 shape ———————————————————————————————————————

const std::set<std::string> kEventKinds = {
    "residual", "conductance", "arc-work", "rollback",
    "fault",    "budget",      "phase",
};

void CheckTraceDocumentShape(const std::string& json) {
  const JsonParseResult parsed = JsonParse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue& doc = parsed.value;

  const JsonValue* schema = doc.FindOfType("schema", JsonValue::Type::kString);
  ASSERT_NE(schema, nullptr) << "missing \"schema\"";
  EXPECT_EQ(schema->AsString(), "impreg-trace-v1");
  ASSERT_NE(doc.FindOfType("traces_dropped", JsonValue::Type::kNumber),
            nullptr);
  const JsonValue* traces = doc.FindOfType("traces", JsonValue::Type::kArray);
  ASSERT_NE(traces, nullptr) << "missing \"traces\" array";

  for (const JsonValue& trace : traces->Items()) {
    ASSERT_TRUE(trace.is_object());
    const JsonValue* solver =
        trace.FindOfType("solver", JsonValue::Type::kString);
    ASSERT_NE(solver, nullptr);
    SCOPED_TRACE("solver " + solver->AsString());
    const JsonValue* status =
        trace.FindOfType("status", JsonValue::Type::kString);
    ASSERT_NE(status, nullptr);
    // Status strings come from SolveStatusName.
    const std::set<std::string> statuses = {
        "converged",        "max-iterations", "non-finite",
        "breakdown",        "budget-exhausted", "invalid-input",
        "shed"};
    EXPECT_TRUE(statuses.count(status->AsString()))
        << "unknown status " << status->AsString();
    EXPECT_NE(trace.FindOfType("iterations", JsonValue::Type::kNumber),
              nullptr);
    EXPECT_NE(trace.FindOfType("final_residual", JsonValue::Type::kNumber),
              nullptr);
    EXPECT_NE(trace.FindOfType("events_recorded", JsonValue::Type::kNumber),
              nullptr);
    EXPECT_NE(trace.FindOfType("events_dropped", JsonValue::Type::kNumber),
              nullptr);
    const JsonValue* totals =
        trace.FindOfType("totals", JsonValue::Type::kObject);
    ASSERT_NE(totals, nullptr);
    for (const auto& [kind, value] : totals->Members()) {
      EXPECT_TRUE(kEventKinds.count(kind)) << "unknown total kind " << kind;
      EXPECT_TRUE(value.is_number());
    }
    const JsonValue* events =
        trace.FindOfType("events", JsonValue::Type::kArray);
    ASSERT_NE(events, nullptr);
    for (const JsonValue& event : events->Items()) {
      ASSERT_TRUE(event.is_object());
      EXPECT_NE(event.FindOfType("iter", JsonValue::Type::kNumber), nullptr);
      const JsonValue* kind =
          event.FindOfType("kind", JsonValue::Type::kString);
      ASSERT_NE(kind, nullptr);
      EXPECT_TRUE(kEventKinds.count(kind->AsString()))
          << "unknown event kind " << kind->AsString();
      EXPECT_NE(event.FindOfType("value", JsonValue::Type::kNumber), nullptr);
    }
  }
}

TEST(GoldenTest, CommittedTraceFixtureMatchesTheV1Shape) {
  CheckTraceDocumentShape(ReadFileOrDie(GoldenPath("trace_cluster.json")));
}

#ifdef IMPREG_OBSERVABILITY
TEST(GoldenTest, LiveTraceExportMatchesTheV1Shape) {
  const Graph g = CavemanGraph(10, 8);
  ScopedTraceCapture capture;
  ApproximatePageRank(g, SingleNodeSeed(g, 0), {});
  HeatKernelRelax(g, /*seed=*/5, {});
  CheckTraceDocumentShape(TraceCollector::Get().ToJson());
}
#endif  // IMPREG_OBSERVABILITY

// —— impreg-bench-v2 shape and the diff round trip ———————————————

TEST(GoldenTest, BenchFixturesParseWithExpectedRecords) {
  const BenchParseResult baseline =
      ReadBenchReport(GoldenPath("bench_baseline.json"));
  ASSERT_TRUE(baseline.ok()) << baseline.error;
  EXPECT_EQ(baseline.schema, "impreg-bench-v2");
  ASSERT_EQ(baseline.records.size(), 4u);
  EXPECT_EQ(baseline.records[0].bench, "BM_SpMVSoA/131072");
  EXPECT_EQ(baseline.records[0].n, 131072);
  EXPECT_EQ(baseline.records[0].m, 524288);
  EXPECT_EQ(baseline.records[3].threads, 8);

  // The raw fixture must also carry a metrics object (the schema's
  // third member), even though the diff only consumes records.
  const JsonParseResult parsed =
      JsonParse(ReadFileOrDie(GoldenPath("bench_baseline.json")));
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed.value.FindOfType("metrics", JsonValue::Type::kObject),
            nullptr);
}

TEST(GoldenTest, V1BareArrayReportsStillParse) {
  const BenchParseResult v1 = ParseBenchReport(
      "[{\"bench\": \"BM_X/1\", \"n\": 1, \"m\": 0, \"threads\": 1, "
      "\"ns_per_iter\": 10.5}]");
  ASSERT_TRUE(v1.ok()) << v1.error;
  EXPECT_EQ(v1.schema, "v1-array");
  ASSERT_EQ(v1.records.size(), 1u);
  EXPECT_DOUBLE_EQ(v1.records[0].ns_per_iter, 10.5);
}

TEST(GoldenTest, MalformedReportsAreErrorsNotEmptyDiffs) {
  EXPECT_FALSE(ParseBenchReport("{\"schema\": \"bogus\"}").ok());
  EXPECT_FALSE(ParseBenchReport("[{\"n\": 3}]").ok());  // No bench/ns.
  EXPECT_FALSE(ParseBenchReport("not json").ok());
}

TEST(GoldenTest, MachineMetadataRoundTripsAndStaysOptional) {
  std::vector<BenchRecord> records(1);
  records[0].bench = "BM_X/1";
  records[0].ns_per_iter = 10.5;
  // No metadata: the document is byte-identical to the pre-metadata
  // serializer (no "machine" member at all), and parses to an empty map.
  const std::string bare = BenchReportToJson(records);
  EXPECT_EQ(bare.find("machine"), std::string::npos);
  EXPECT_TRUE(ParseBenchReport(bare).machine.empty());

  const BenchMetadata machine = {
      {"native", "off"}, {"simd_dense", "avx2"}, {"simd_row_gather", "scalar"}};
  const BenchParseResult parsed =
      ParseBenchReport(BenchReportToJson(records, "", machine));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.machine, machine);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.records[0].ns_per_iter, 10.5);
}

TEST(GoldenTest, MetadataDiffFlagsCrossMachineComparisons) {
  const BenchMetadata native = {{"native", "native"}, {"simd_dense", "avx2"}};
  const BenchMetadata fallback = {{"native", "off"}, {"simd_dense", "avx2"}};
  // Agreement (including the both-empty v1 case) is silent.
  EXPECT_TRUE(DiffBenchMetadata(native, native).empty());
  EXPECT_TRUE(DiffBenchMetadata({}, {}).empty());
  // A changed value and a one-sided key are both mismatches.
  const std::vector<std::string> changed = DiffBenchMetadata(native, fallback);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], "native: 'native' vs 'off'");
  const std::vector<std::string> one_sided = DiffBenchMetadata({}, fallback);
  ASSERT_EQ(one_sided.size(), 2u);
  EXPECT_EQ(one_sided[0], "native: <absent> vs 'off'");
  EXPECT_EQ(one_sided[1], "simd_dense: <absent> vs 'avx2'");
}

TEST(GoldenTest, SelfDiffPassesAndTwoXSlowdownFailsTheGate) {
  const BenchParseResult baseline =
      ReadBenchReport(GoldenPath("bench_baseline.json"));
  const BenchParseResult slowdown =
      ReadBenchReport(GoldenPath("bench_slowdown.json"));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(slowdown.ok());

  const BenchDiffResult self =
      DiffBenchReports(baseline.records, baseline.records, 0.10);
  EXPECT_TRUE(self.ok());
  EXPECT_EQ(self.regressions, 0);
  ASSERT_EQ(self.entries.size(), 4u);
  for (const BenchDiffEntry& e : self.entries) {
    EXPECT_DOUBLE_EQ(e.ratio, 1.0);
  }

  const BenchDiffResult slow =
      DiffBenchReports(baseline.records, slowdown.records, 0.10);
  EXPECT_FALSE(slow.ok());
  EXPECT_EQ(slow.regressions, 4);
  for (const BenchDiffEntry& e : slow.entries) {
    EXPECT_TRUE(e.regressed);
    EXPECT_NEAR(e.ratio, 2.0, 1e-12);
  }

  // A 2x slowdown is *within* a 150% allowance — the threshold is a
  // real parameter, not a constant.
  EXPECT_TRUE(DiffBenchReports(baseline.records, slowdown.records, 1.5).ok());
}

// —— p99 gate fixtures (percentile records) and the shed line ——

TEST(GoldenTest, LoadFixturesCarryPercentilesAndTheP99GateTrips) {
  const BenchParseResult baseline =
      ReadBenchReport(GoldenPath("load_baseline.json"));
  const BenchParseResult slowdown =
      ReadBenchReport(GoldenPath("load_p99_slowdown.json"));
  ASSERT_TRUE(baseline.ok()) << baseline.error;
  ASSERT_TRUE(slowdown.ok()) << slowdown.error;
  ASSERT_EQ(baseline.records.size(), 2u);
  EXPECT_EQ(baseline.records[0].bench, "BM_LoadServe/steady");
  EXPECT_GT(baseline.records[0].p50_ns, 0.0);
  EXPECT_GT(baseline.records[0].p99_ns, baseline.records[0].p50_ns);

  // The fixture pair has identical means but a doubled tail: the mean
  // gate alone passes it...
  const BenchDiffResult mean_only =
      DiffBenchReports(baseline.records, slowdown.records, 0.10);
  EXPECT_TRUE(mean_only.ok());
  EXPECT_EQ(mean_only.p99_regressions, 0);  // Gate off by default.
  // ...and only the one-sided p99 gate catches it.
  const BenchDiffResult gated =
      DiffBenchReports(baseline.records, slowdown.records, 0.10, 0.25);
  EXPECT_FALSE(gated.ok());
  EXPECT_EQ(gated.regressions, 0);
  EXPECT_EQ(gated.p99_regressions, 2);
  // One-sided means tail *improvements* never trip it.
  const BenchDiffResult improved =
      DiffBenchReports(slowdown.records, baseline.records, 0.10, 0.25);
  EXPECT_TRUE(improved.ok());
  EXPECT_EQ(improved.p99_regressions, 0);
}

TEST(GoldenTest, ShedResponseFixtureMatchesTheWireShape) {
  // The committed shed line — the wire form of an admission refusal.
  // service_test pins the live serializer to this same line; here the
  // fixture itself is checked so the two cannot drift apart silently.
  const JsonParseResult parsed =
      JsonParse(ReadFileOrDie(GoldenPath("query_response_shed.jsonl")));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue& doc = parsed.value;
  const JsonValue* schema = doc.FindOfType("schema", JsonValue::Type::kString);
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->AsString(), "impreg-query-response-v1");
  const JsonValue* status = doc.FindOfType("status", JsonValue::Type::kString);
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->AsString(), "shed");
  const JsonValue* degraded =
      doc.FindOfType("degraded", JsonValue::Type::kBool);
  ASSERT_NE(degraded, nullptr);
  EXPECT_TRUE(degraded->AsBool());
  const JsonValue* shed = doc.FindOfType("shed", JsonValue::Type::kBool);
  ASSERT_NE(shed, nullptr);
  EXPECT_TRUE(shed->AsBool());
  const JsonValue* tenant = doc.FindOfType("tenant", JsonValue::Type::kString);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->AsString(), "heavy");
  const JsonValue* work = doc.FindOfType("work", JsonValue::Type::kNumber);
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->AsDouble(), 0.0);
  const JsonValue* top = doc.FindOfType("top", JsonValue::Type::kArray);
  ASSERT_NE(top, nullptr);
  EXPECT_TRUE(top->Items().empty());
}

TEST(GoldenTest, BenchesOnOneSideOnlyAreReportedNotCounted) {
  std::vector<BenchRecord> old_records, new_records;
  old_records.push_back({"BM_Shared", 1, 0, 1, 100.0});
  old_records.push_back({"BM_Removed", 1, 0, 1, 100.0});
  new_records.push_back({"BM_Shared", 1, 0, 1, 101.0});
  new_records.push_back({"BM_Added", 1, 0, 1, 100.0});
  const BenchDiffResult diff =
      DiffBenchReports(old_records, new_records, 0.10);
  EXPECT_TRUE(diff.ok());
  ASSERT_EQ(diff.entries.size(), 1u);
  ASSERT_EQ(diff.only_old.size(), 1u);
  EXPECT_EQ(diff.only_old[0], "BM_Removed");
  ASSERT_EQ(diff.only_new.size(), 1u);
  EXPECT_EQ(diff.only_new[0], "BM_Added");
}

}  // namespace
}  // namespace impreg
