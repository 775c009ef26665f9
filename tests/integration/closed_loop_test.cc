#include <gtest/gtest.h>

#include "../core/golden_digest.h"
#include "clean/cleaner.h"
#include "clean/config.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "scenarios/closed_loop.h"
#include "scenarios/scenarios.h"

namespace icewafl {
namespace scenarios {
namespace {

// The closed pollute -> detect -> clean -> re-validate loop on the
// stock software-update scenario: every deterministic polluter family
// must be detected with F1 >= 0.9, and the windowed re-validation must
// improve on the polluted stream.
TEST(ClosedLoopTest, SoftwareUpdateDeterministicFamiliesScoreHighF1) {
  Result<ClosedLoopReport> report = RunClosedLoop("software_update");
  ASSERT_TRUE(report.ok()) << report.status().message();
  const ClosedLoopReport& r = report.ValueOrDie();

  EXPECT_EQ(r.scenario, "software_update");
  EXPECT_GT(r.clean_rows, 0u);
  EXPECT_EQ(r.clean_rows, r.polluted_rows);
  EXPECT_GT(r.injections, 0u);
  EXPECT_GT(r.detections, 0u);

  // Families: distance, calories, bpm-zero (deterministic) + bpm-null
  // (random condition).
  ASSERT_GE(r.families.size(), 4u);
  EXPECT_GE(r.MinDeterministicF1(), 0.9)
      << r.ToJson().DumpPretty();
  for (const FamilyScore& f : r.families) {
    EXPECT_GT(f.ground_truth, 0u) << f.family;
    if (f.deterministic) {
      EXPECT_GE(f.f1, 0.9) << f.family << ": " << f.ToJson().Dump();
    }
  }

  // Repair accuracy is reported over every non-drop repair.
  EXPECT_GT(r.repairs_scored, 0u);
  EXPECT_GT(r.repair_accuracy, 0.0);

  // Re-validation: cleaning must strictly reduce windowed violations.
  // The series are copied out first: a range-for over a member of the
  // temporary Result would iterate freed storage.
  const Json polluted = r.monitor_polluted.Get("series").ValueOrDie();
  const Json cleaned = r.monitor_cleaned.Get("series").ValueOrDie();
  int64_t before = 0;
  for (const Json& w : polluted.items()) before += w.GetInt("violations", 0);
  int64_t after = 0;
  for (const Json& w : cleaned.items()) after += w.GetInt("violations", 0);
  EXPECT_GT(before, 0);
  EXPECT_LT(after, before) << r.ToJson().DumpPretty();
}

TEST(ClosedLoopTest, ReportJsonCarriesScoringSeries) {
  Result<ClosedLoopReport> report = RunClosedLoop("software_update");
  ASSERT_TRUE(report.ok()) << report.status().message();
  const Json json = report.ValueOrDie().ToJson();
  EXPECT_TRUE(json.Has("families"));
  EXPECT_TRUE(json.Has("min_deterministic_f1"));
  EXPECT_TRUE(json.Has("repair_accuracy"));
  EXPECT_TRUE(json.Has("monitor_polluted"));
  EXPECT_TRUE(json.Has("monitor_cleaned"));
  const Json fam = json.Get("families").ValueOrDie();
  ASSERT_GT(fam.size(), 0u);
  EXPECT_TRUE(fam.items().front().Has("f1"));
}

// The stock software-update loop's cleaned stream, pinned byte for
// byte (the same bytes `icewafl_cli clean --scenario software_update
// --output` writes, whose sha256 tools/check.sh bench pins).
TEST(ClosedLoopTest, CleanedStreamBytesPinned) {
  TupleVector cleaned;
  Result<ClosedLoopReport> report =
      RunClosedLoop("software_update", {}, nullptr, &cleaned);
  ASSERT_TRUE(report.ok()) << report.status().message();
  Result<ResolvedScenario> resolved = ResolveScenario("software_update", 0);
  ASSERT_TRUE(resolved.ok());
  golden::Digest digest;
  digest.Str(ToCsvString(resolved.ValueOrDie().schema, cleaned));
  EXPECT_EQ(cleaned.size(), 1059u);
  EXPECT_EQ(report.ValueOrDie().detections, 1369u);
  EXPECT_EQ(digest.value(), 0x9639a0d567879b66ULL);
}

TEST(ClosedLoopTest, RandomTemporalLoopRepairsNulls) {
  Result<ClosedLoopReport> report = RunClosedLoop("random_temporal");
  ASSERT_TRUE(report.ok()) << report.status().message();
  const ClosedLoopReport& r = report.ValueOrDie();
  ASSERT_EQ(r.families.size(), 1u);
  // NULL detection is exact even though the injection is random.
  EXPECT_DOUBLE_EQ(r.families[0].f1, 1.0) << r.ToJson().DumpPretty();
  EXPECT_FALSE(r.families[0].deterministic);
  EXPECT_EQ(r.cleaned_rows, r.polluted_rows);
}

TEST(ClosedLoopTest, ScenariosWithoutCleanerAreRejected) {
  EXPECT_FALSE(RunClosedLoop("network_delay").ok());
  EXPECT_FALSE(RunClosedLoop("no_such_scenario").ok());
}

TEST(ClosedLoopTest, CleanerMetricsPublishedThroughRegistry) {
  obs::MetricRegistry registry;
  Result<ClosedLoopReport> report =
      RunClosedLoop("software_update", {}, &registry);
  ASSERT_TRUE(report.ok()) << report.status().message();
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("icewafl_cleaner_tuples_total"), std::string::npos);
  EXPECT_NE(text.find("icewafl_cleaner_fired_total"), std::string::npos);
  EXPECT_NE(text.find("icewafl_dq_windows_total"), std::string::npos);
}

TEST(ClosedLoopTest, BuildPlanWithCleanerValidatesAgainstSchema) {
  Result<std::shared_ptr<PlanSnapshot>> plan =
      BuildScenarioPlan("software_update", 42, 1);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  const PlanSnapshot& base = *plan.ValueOrDie();

  Result<ScenarioCleaner> cleaner = CleanerForScenario("software_update");
  ASSERT_TRUE(cleaner.ok());
  Result<std::shared_ptr<PlanSnapshot>> with =
      BuildPlanWithCleaner(base, cleaner.ValueOrDie().rules);
  ASSERT_TRUE(with.ok()) << with.status().message();
  EXPECT_FALSE(with.ValueOrDie()->cleaner.is_null());

  // Unknown column: rejected with a JSON-pointer path, no snapshot.
  Json bad = Json::Parse(R"({"rules": [{"label": "x", "column": "Nope",
    "detect": {"type": "not_null"}, "repair": "drop"}]})")
                 .ValueOrDie();
  Result<std::shared_ptr<PlanSnapshot>> rejected =
      BuildPlanWithCleaner(base, bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("/rules/0"), std::string::npos)
      << rejected.status().message();

  // Null removes the cleaner.
  Result<std::shared_ptr<PlanSnapshot>> removed =
      BuildPlanWithCleaner(*with.ValueOrDie(), Json());
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(removed.ValueOrDie()->cleaner.is_null());
}

// A served segment with a cleaner equals its offline twin.
TEST(ClosedLoopTest, CleanedPlanSegmentOfflineIsDeterministic) {
  Result<std::shared_ptr<PlanSnapshot>> plan =
      BuildScenarioPlan("software_update", 42, 1);
  ASSERT_TRUE(plan.ok());
  Result<ScenarioCleaner> cleaner = CleanerForScenario("software_update");
  ASSERT_TRUE(cleaner.ok());
  Result<std::shared_ptr<PlanSnapshot>> with =
      BuildPlanWithCleaner(*plan.ValueOrDie(), cleaner.ValueOrDie().rules);
  ASSERT_TRUE(with.ok());
  std::shared_ptr<PlanSnapshot> snapshot = with.ValueOrDie();
  snapshot->version = 1;

  Result<TupleVector> a = RunPlanSegmentOffline(*snapshot, 0, 200);
  Result<TupleVector> b = RunPlanSegmentOffline(*snapshot, 0, 200);
  ASSERT_TRUE(a.ok()) << a.status().message();
  ASSERT_TRUE(b.ok());
  const SchemaPtr schema = snapshot->schema;
  EXPECT_EQ(ToCsvString(schema, a.ValueOrDie()),
            ToCsvString(schema, b.ValueOrDie()));

  // The cleaner actually ran: the polluted twin differs.
  std::shared_ptr<PlanSnapshot> bare = ClonePlan(*snapshot);
  bare->cleaner = Json();
  Result<TupleVector> polluted = RunPlanSegmentOffline(*bare, 0, 200);
  ASSERT_TRUE(polluted.ok());
  EXPECT_NE(ToCsvString(schema, a.ValueOrDie()),
            ToCsvString(schema, polluted.ValueOrDie()));
}

// The one segment runner, pinned against its definition: a plan with a
// cleaner produces exactly a fresh sequential CleanerOperator run
// over the same plan's cleaner-less output, at any parallelism and for
// any row slice.
TEST(ClosedLoopTest, SegmentRunnerEqualsPolluteThenSequentialClean) {
  Result<ScenarioCleaner> cleaner = CleanerForScenario("software_update");
  ASSERT_TRUE(cleaner.ok());
  class CollectEmitter : public Emitter {
   public:
    explicit CollectEmitter(TupleVector* out) : out_(out) {}
    Status Emit(Tuple tuple) override {
      out_->push_back(std::move(tuple));
      return Status::OK();
    }

   private:
    TupleVector* out_;
  };
  for (int parallelism : {1, 2}) {
    Result<std::shared_ptr<PlanSnapshot>> bare =
        BuildScenarioPlan("software_update", 42, parallelism);
    ASSERT_TRUE(bare.ok());
    const PlanSnapshot& plan = *bare.ValueOrDie();
    Result<std::shared_ptr<PlanSnapshot>> with =
        BuildPlanWithCleaner(plan, cleaner.ValueOrDie().rules);
    ASSERT_TRUE(with.ok());
    Result<clean::CleaningRules> rules =
        clean::RulesFromJson(cleaner.ValueOrDie().rules, plan.schema);
    ASSERT_TRUE(rules.ok());

    const uint64_t rows = plan.clean->size();
    for (auto [start, end] : {std::pair<uint64_t, uint64_t>{0, rows},
                              std::pair<uint64_t, uint64_t>{300, 700}}) {
      Result<TupleVector> polluted = RunPlanSegmentOffline(plan, start, end);
      ASSERT_TRUE(polluted.ok()) << polluted.status().message();
      clean::CleanerOperator op(rules.ValueOrDie());
      TupleVector reference;
      CollectEmitter emitter(&reference);
      for (Tuple& t : polluted.ValueOrDie()) {
        ASSERT_TRUE(op.Process(std::move(t), &emitter).ok());
      }
      ASSERT_TRUE(op.Finish(&emitter).ok());
      ASSERT_GT(op.stats().repaired, 0u);

      Result<TupleVector> cleaned =
          RunPlanSegmentOffline(*with.ValueOrDie(), start, end);
      ASSERT_TRUE(cleaned.ok()) << cleaned.status().message();
      EXPECT_EQ(ToCsvString(plan.schema, cleaned.ValueOrDie()),
                ToCsvString(plan.schema, reference))
          << "parallelism " << parallelism << ", rows [" << start << ", "
          << end << ")";
    }
  }
}

}  // namespace
}  // namespace scenarios
}  // namespace icewafl
