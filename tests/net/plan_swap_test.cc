// Live-reconfiguration tests: versioned plan snapshots swapped under a
// running server (DESIGN.md section 14). The load-bearing test is the
// cutover determinism contract: a subscriber's stream across a mid-run
// swap is byte-identical to offline runs of each recorded segment's
// plan over its clean-row slice, concatenated at the cutover boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/plan.h"
#include "io/csv.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "scenarios/scenarios.h"

namespace icewafl {
namespace net {
namespace {

std::shared_ptr<PlanSnapshot> ScenarioPlan(const std::string& name,
                                           uint64_t seed,
                                           double tuples_per_sec = 0.0,
                                           int parallelism = 1) {
  auto plan =
      scenarios::BuildScenarioPlan(name, seed, parallelism, tuples_per_sec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? plan.ValueOrDie() : nullptr;
}

/// Polls until the session reports `state` (runs are asynchronous).
void WaitForState(const PollutionServer& server, const std::string& id,
                  const std::string& state) {
  while (true) {
    auto info = server.session_info(id);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    if (info.ValueOrDie().state == state) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------
// The cutover determinism contract.
// ---------------------------------------------------------------------

/// Serves a paced v1 at `parallelism`, swaps to v2 mid-run, and checks
/// the subscriber's stream against the offline segment concatenation.
/// Above P=1 the paced segment batches by its pace (SegmentBatchSize)
/// and the unpaced one by 256, so the interleave of both must match.
void CheckMidRunCutover(int parallelism) {
  // Pacing (~1500 rows/s over ~1059 rows) keeps the run alive long
  // enough to swap mid-stream without any timing heroics.
  std::shared_ptr<PlanSnapshot> v1 = ScenarioPlan(
      "random_temporal", 42, /*tuples_per_sec=*/1500.0, parallelism);
  ASSERT_NE(v1, nullptr);
  // Same seed, same wearable dataset, different pipeline — the swap the
  // paper's reconfiguration story cares about. Unpaced, so the post-
  // cutover remainder streams fast.
  std::shared_ptr<PlanSnapshot> v2 =
      ScenarioPlan("software_update", 42, /*tuples_per_sec=*/0.0, parallelism);
  ASSERT_NE(v2, nullptr);
  const SchemaPtr schema = v1->schema;

  obs::MetricRegistry registry;
  ServerOptions server_options;
  server_options.metrics = &registry;
  PollutionServer server(std::move(server_options));
  SessionOptions options;
  options.max_runs = 1;
  options.plan = v1;
  ASSERT_TRUE(server
                  .AddSession("live", nullptr, scenarios::ServePlanToSink,
                              std::move(options))
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  auto client = StreamClient::Connect("127.0.0.1", server.port(), "live");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  WaitForState(server, "live", "running");
  // Let the paced source make some progress under version 1, then
  // publish version 2 while rows are in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(server.SwapPlan("live", v2).ok());

  // The subscriber is never disconnected: one continuous stream, one
  // End frame whose count the client cross-checks against its receipts.
  TupleVector received;
  Tuple tuple;
  while (true) {
    auto next = client.ValueOrDie()->Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ValueOrDie()) break;
    received.push_back(std::move(tuple));
  }
  EXPECT_TRUE(server.Wait().ok());

  auto info = server.session_info("live");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().plan_version, 2u);
  EXPECT_EQ(info.ValueOrDie().plan_swaps, 1u);
  const std::vector<PlanSegment>& segments = info.ValueOrDie().segments;
  ASSERT_EQ(segments.size(), 2u)
      << "the swap must have landed mid-run (pacing guarantees it)";
  EXPECT_EQ(segments[0].version, 1u);
  EXPECT_EQ(segments[0].start_row, 0u);
  EXPECT_EQ(segments[1].version, 2u);
  EXPECT_GT(segments[1].start_row, 0u);
  EXPECT_LT(segments[1].start_row, v2->clean->size());

  // Offline twin: old plan over [0, cut), new plan over [cut, end) —
  // concatenated, byte-identical to what the subscriber received. No
  // row dropped, duplicated, or polluted by two plans.
  TupleVector expected;
  for (size_t i = 0; i < segments.size(); ++i) {
    const PlanSnapshot& plan = segments[i].version == 1 ? *v1 : *v2;
    const uint64_t start = segments[i].start_row;
    const uint64_t end = i + 1 < segments.size() ? segments[i + 1].start_row
                                                 : plan.clean->size();
    auto part = scenarios::RunPlanSegmentOffline(plan, start, end);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    for (Tuple& t : part.ValueOrDie()) expected.push_back(std::move(t));
  }
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_EQ(ToCsvString(schema, received), ToCsvString(schema, expected));

  // The swap is observable: gauge at the new version, counter bumped.
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("icewafl_server_plan_version{session=\"live\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("icewafl_server_plan_swaps_total{session=\"live\"} 1"),
            std::string::npos)
      << prom;
}

TEST(PlanSwap, MidRunCutoverIsByteIdenticalToSegmentConcatenation) {
  for (int parallelism : {1, 2, 4}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    CheckMidRunCutover(parallelism);
    if (HasFatalFailure()) return;
  }
}

// Tuple ids travel in every tuple frame, so they must name the clean row
// a tuple came from: unique across parallel workers, and continuing (not
// restarting at 0) in a segment that starts mid-stream.
TEST(PlanSwap, SegmentTupleIdsAreCleanRowIndices) {
  auto built = scenarios::BuildScenarioPlan("temporal_noise", 42,
                                            /*parallelism=*/2, 0.0);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const PlanSnapshot& plan = *built.ValueOrDie();
  const size_t rows = plan.clean->size();

  auto full = scenarios::RunPlanSegmentOffline(plan, 0, rows);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full.ValueOrDie().size(), rows);
  std::vector<int> seen(rows, 0);
  for (const Tuple& t : full.ValueOrDie()) {
    ASSERT_LT(t.id(), rows);
    ++seen[t.id()];
  }
  for (size_t i = 0; i < rows; ++i) {
    ASSERT_EQ(seen[i], 1) << "row " << i;
  }

  auto part = scenarios::RunPlanSegmentOffline(plan, 1000, 1010);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  // Workers interleave their outputs, so only the first id is fixed.
  ASSERT_EQ(part.ValueOrDie().size(), 10u);
  EXPECT_EQ(part.ValueOrDie().front().id(), 1000u);
  std::vector<TupleId> ids;
  for (const Tuple& t : part.ValueOrDie()) ids.push_back(t.id());
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], 1000 + i);
}

// ---------------------------------------------------------------------
// Swap semantics around the session lifecycle.
// ---------------------------------------------------------------------

TEST(PlanSwap, WaitingSessionAdoptsNewestPlanAtNextRun) {
  std::shared_ptr<PlanSnapshot> v1 = ScenarioPlan("random_temporal", 42);
  std::shared_ptr<PlanSnapshot> v2 = ScenarioPlan("software_update", 42);
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);

  PollutionServer server;
  SessionOptions options;
  options.max_runs = 1;
  options.plan = v1;
  ASSERT_TRUE(server
                  .AddSession("live", nullptr, scenarios::ServePlanToSink,
                              std::move(options))
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  // Swap while the session is still waiting for its subscriber: the
  // whole run then executes under version 2.
  ASSERT_TRUE(server.SwapPlan("live", v2).ok());

  auto client = StreamClient::Connect("127.0.0.1", server.port(), "live");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  TupleVector received;
  Tuple tuple;
  while (true) {
    auto next = client.ValueOrDie()->Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ValueOrDie()) break;
    received.push_back(std::move(tuple));
  }
  EXPECT_TRUE(server.Wait().ok());

  auto info = server.session_info("live");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info.ValueOrDie().segments.size(), 1u);
  EXPECT_EQ(info.ValueOrDie().segments[0].version, 2u);
  auto offline =
      scenarios::RunPlanSegmentOffline(*v2, 0, v2->clean->size());
  ASSERT_TRUE(offline.ok());
  EXPECT_EQ(ToCsvString(v2->schema, received),
            ToCsvString(v2->schema, offline.ValueOrDie()));
}

TEST(PlanSwap, RejectsSchemaMismatchUnknownSessionAndRetired) {
  std::shared_ptr<PlanSnapshot> wearable = ScenarioPlan("random_temporal", 42);
  // temporal_noise runs against the air-quality schema — a swap would
  // invalidate the Schema frame subscribers hold from their handshake.
  std::shared_ptr<PlanSnapshot> airquality = ScenarioPlan("temporal_noise", 42);
  ASSERT_NE(wearable, nullptr);
  ASSERT_NE(airquality, nullptr);

  PollutionServer server;
  SessionOptions options;
  options.plan = wearable;
  ASSERT_TRUE(server
                  .AddSession("live", nullptr, scenarios::ServePlanToSink,
                              std::move(options))
                  .ok());

  Status mismatch = server.SwapPlan("live", airquality);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.message().find("schema"), std::string::npos)
      << mismatch.ToString();

  EXPECT_EQ(server.SwapPlan("nope", ScenarioPlan("random_temporal", 42)).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(server.SwapPlan("live", nullptr).ok());

  ASSERT_TRUE(server.StopSession("live").ok());
  Status retired =
      server.SwapPlan("live", ScenarioPlan("software_update", 42));
  EXPECT_FALSE(retired.ok()) << "a retired session accepts no new plans";

  server.RequestStop();
}

TEST(PlanSwap, RejectsPlanLessSessionsAndUpdateRepublishes) {
  std::shared_ptr<PlanSnapshot> plan = ScenarioPlan("random_temporal", 42);
  ASSERT_NE(plan, nullptr);
  PollutionServer server;
  // A legacy plan-less session: explicit schema, hand-rolled fn.
  ASSERT_TRUE(server
                  .AddSession("legacy", plan->schema,
                              [](const PlanContext&, Sink*) {
                                return Status::OK();
                              })
                  .ok());
  EXPECT_FALSE(
      server.SwapPlan("legacy", ScenarioPlan("random_temporal", 42)).ok());
  EXPECT_FALSE(
      server.UpdateSession("legacy", [](PlanSnapshot*) {}).ok());

  // A plan session: UpdateSession clones, mutates, republishes.
  SessionOptions options;
  options.plan = plan;
  ASSERT_TRUE(server
                  .AddSession("live", nullptr, scenarios::ServePlanToSink,
                              std::move(options))
                  .ok());
  ASSERT_TRUE(server
                  .UpdateSession("live",
                                 [](PlanSnapshot* next) {
                                   next->tuples_per_sec = 250.0;
                                 })
                  .ok());
  auto published = server.session_plan("live");
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published.ValueOrDie()->version, 2u);
  EXPECT_EQ(published.ValueOrDie()->tuples_per_sec, 250.0);
  // The original snapshot is immutable — the update cloned it.
  EXPECT_EQ(plan->tuples_per_sec, 0.0);
  EXPECT_EQ(plan->version, 1u);

  server.RequestStop();
}

TEST(PlanSwap, BackToBackSwapsCollapseToNewestVersion) {
  std::shared_ptr<PlanSnapshot> v1 =
      ScenarioPlan("random_temporal", 42, /*tuples_per_sec=*/1500.0);
  ASSERT_NE(v1, nullptr);
  // Both swap targets are compiled up front, so nothing slow (dataset
  // generation, more so under a sanitizer) runs between the two
  // publications and a cutover probe cannot land between them.
  std::shared_ptr<PlanSnapshot> v2 = ScenarioPlan("software_update", 42);
  std::shared_ptr<PlanSnapshot> v3 = ScenarioPlan("software_update", 42, 0.0);
  PollutionServer server;
  SessionOptions options;
  options.max_runs = 1;
  options.plan = v1;
  ASSERT_TRUE(server
                  .AddSession("live", nullptr, scenarios::ServePlanToSink,
                              std::move(options))
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  auto client = StreamClient::Connect("127.0.0.1", server.port(), "live");
  ASSERT_TRUE(client.ok());
  WaitForState(server, "live", "running");
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // Two publications between cutover probes: the runner adopts the
  // newest and the intermediate version never produces a row.
  ASSERT_TRUE(server.SwapPlan("live", std::move(v2)).ok());
  ASSERT_TRUE(server.SwapPlan("live", std::move(v3)).ok());

  TupleVector received;
  Tuple tuple;
  while (true) {
    auto next = client.ValueOrDie()->Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ValueOrDie()) break;
    received.push_back(std::move(tuple));
  }
  EXPECT_TRUE(server.Wait().ok());

  auto info = server.session_info("live");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().plan_version, 3u);
  for (const PlanSegment& segment : info.ValueOrDie().segments) {
    EXPECT_NE(segment.version, 2u)
        << "version 2 was superseded before any cutover adopted it";
  }
}

}  // namespace
}  // namespace net
}  // namespace icewafl
