// Admin control-plane tests: the JSON-RPC-style channel over
// AdminRequest/AdminResponse frames, its lint gate (IW61x envelopes,
// IW1xx..IW4xx swapped pipelines), and the live mutations it drives.

#include "net/admin.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "analysis/analyzer.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "scenarios/closed_loop.h"
#include "scenarios/scenarios.h"
#include "util/json.h"

namespace icewafl {
namespace net {
namespace {

std::shared_ptr<PlanSnapshot> ScenarioPlan(const std::string& name) {
  auto plan = scenarios::BuildScenarioPlan(name, 42, /*parallelism=*/1);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? plan.ValueOrDie() : nullptr;
}

/// The same mutation hooks `icewafl_cli serve` installs: compile through
/// the scenarios layer, lint pipeline documents against the session's
/// schema first, load cleaning documents bound to it.
AdminHooks TestHooks(PollutionServer* server) {
  AdminHooks hooks;
  hooks.known_scenarios = scenarios::ScenarioNames();
  hooks.compile_swap = [](const PlanSnapshot& current, const Json& params,
                          Json* diagnostics)
      -> Result<std::shared_ptr<PlanSnapshot>> {
    if (params.Has("scenario")) {
      return scenarios::BuildScenarioPlan(params.GetString("scenario", ""),
                                          current.seed, current.parallelism,
                                          current.tuples_per_sec);
    }
    auto doc = params.Get("pipeline");
    if (!doc.ok()) return doc.status();
    analysis::AnalyzeOptions options;
    options.schema = current.schema;
    Diagnostics diags =
        analysis::AnalyzePipeline(doc.ValueOrDie(), options);
    if (diags.HasErrors()) {
      *diagnostics = diags.ToJson();
      return Status::InvalidArgument(diags.ToReport());
    }
    return scenarios::BuildPlanFromPipelineJson(current, doc.ValueOrDie());
  };
  hooks.compile_cleaner = [](const PlanSnapshot& current, const Json& params,
                             Json* diagnostics)
      -> Result<std::shared_ptr<PlanSnapshot>> {
    Json rules;
    if (params.Has("rules")) rules = params.Get("rules").ValueOrDie();
    Diagnostics diags;
    auto next = scenarios::BuildPlanWithCleaner(current, rules, &diags);
    if (!next.ok()) *diagnostics = diags.ToJson();
    return next;
  };
  hooks.create_session = [server](const Json& params, Json*) -> Status {
    auto entry = params.Get("session");
    if (!entry.ok()) return entry.status();
    auto plan = scenarios::BuildScenarioPlan(
        entry.ValueOrDie().GetString("scenario", ""), 42, 1);
    if (!plan.ok()) return plan.status();
    SessionOptions options;
    options.plan = std::move(plan).ValueOrDie();
    return server->AddSession(entry.ValueOrDie().GetString("name", ""),
                              nullptr, scenarios::ServePlanToSink,
                              std::move(options));
  };
  return hooks;
}

Json Request(const std::string& method, Json params) {
  Json request = Json::MakeObject();
  request.Set("id", Json(static_cast<int64_t>(1)));
  request.Set("method", Json(method));
  request.Set("params", std::move(params));
  return request;
}

std::string ErrorCode(const Json& response) {
  if (!response.Has("error")) return "";
  return response.Get("error").ValueOrDie().GetString("code", "");
}

// ---------------------------------------------------------------------
// The in-process lint gate (no sockets).
// ---------------------------------------------------------------------

TEST(AdminServerTest, HandleRejectsMalformedEnvelopes) {
  PollutionServer server;
  AdminServer admin(&server, nullptr);

  // Not an object at all.
  Json bad_envelope = Json(42.0);
  EXPECT_EQ(ErrorCode(admin.Handle(bad_envelope)), "IW610");

  // Missing method.
  EXPECT_EQ(ErrorCode(admin.Handle(Json::MakeObject())), "IW610");

  // Unknown method, with the vocabulary in the diagnostics hint.
  Json response = admin.Handle(Request("frobnicate", Json::MakeObject()));
  EXPECT_EQ(ErrorCode(response), "IW611");
  ASSERT_TRUE(response.Get("error").ValueOrDie().Has("diagnostics"));

  // swap_pipeline with neither payload form.
  EXPECT_EQ(
      ErrorCode(admin.Handle(Request(
          "swap_pipeline",
          Json::Parse(R"({"session": "s"})").ValueOrDie()))),
      "IW613");

  // set_rate with a negative rate.
  EXPECT_EQ(
      ErrorCode(admin.Handle(Request(
          "set_rate",
          Json::Parse(R"({"session": "s", "tuples_per_sec": -1})")
              .ValueOrDie()))),
      "IW614");

  // Missing session target.
  EXPECT_EQ(ErrorCode(admin.Handle(Request("stop_session", Json::MakeObject()))),
            "IW612");
  server.RequestStop();
}

TEST(AdminServerTest, HandleEchoesTheRequestId) {
  PollutionServer server;
  AdminServer admin(&server, nullptr);
  Json request = Request("list_sessions", Json::MakeObject());
  request.Set("id", Json(std::string("my-id")));
  Json response = admin.Handle(request);
  EXPECT_EQ(response.GetString("id", ""), "my-id");
  EXPECT_TRUE(response.Has("result"));
  server.RequestStop();
}

// ---------------------------------------------------------------------
// The wire: AdminClient against a live endpoint.
// ---------------------------------------------------------------------

class AdminWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    plan_ = ScenarioPlan("random_temporal");
    ASSERT_NE(plan_, nullptr);
    ServerOptions server_options;
    server_options.metrics = &registry_;
    server_ = std::make_unique<PollutionServer>(std::move(server_options));
    SessionOptions options;
    options.plan = plan_;
    ASSERT_TRUE(server_
                    ->AddSession("live", nullptr,
                                 scenarios::ServePlanToSink,
                                 std::move(options))
                    .ok());
    admin_ = std::make_unique<AdminServer>(server_.get(), &registry_,
                                           AdminOptions{},
                                           TestHooks(server_.get()));
    ASSERT_TRUE(admin_->Start().ok());
    auto client = AdminClient::Connect("127.0.0.1", admin_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(client).ValueOrDie();
  }

  void TearDown() override {
    admin_->Stop();
    server_->RequestStop();
  }

  Json Call(const std::string& method, const std::string& params_json) {
    auto response = client_->Call(
        method, Json::Parse(params_json).ValueOrDie());
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response.ValueOrDie() : Json();
  }

  std::shared_ptr<PlanSnapshot> plan_;
  obs::MetricRegistry registry_;
  std::unique_ptr<PollutionServer> server_;
  std::unique_ptr<AdminServer> admin_;
  std::unique_ptr<AdminClient> client_;
};

TEST_F(AdminWireTest, ListSessionsAndGetConfig) {
  Json listed = Call("list_sessions", "{}");
  ASSERT_TRUE(listed.Has("result"));
  const Json sessions =
      listed.Get("result").ValueOrDie().Get("sessions").ValueOrDie();
  ASSERT_EQ(sessions.items().size(), 1u);
  EXPECT_EQ(sessions.items()[0].GetString("id", ""), "live");
  EXPECT_EQ(sessions.items()[0].GetInt("plan_version", 0), 1);

  Json config = Call("get_config", R"({"session": "live"})");
  ASSERT_TRUE(config.Has("result"));
  const Json result = config.Get("result").ValueOrDie();
  EXPECT_EQ(result.GetString("scenario", ""), "random_temporal");
  EXPECT_EQ(result.GetInt("plan_version", 0), 1);
  EXPECT_TRUE(result.Get("pipeline").ValueOrDie().is_object());

  // Unknown session: a NotFound error response, not a dead connection.
  auto missing = client_->Call(
      "get_config", Json::Parse(R"({"session": "nope"})").ValueOrDie());
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(ErrorCode(missing.ValueOrDie()), "NotFound");
}

TEST_F(AdminWireTest, SwapSetRateAndMetrics) {
  Json swapped =
      Call("swap_pipeline", R"({"session": "live",
                                "scenario": "software_update"})");
  ASSERT_TRUE(swapped.Has("result")) << swapped.Dump();
  EXPECT_EQ(swapped.Get("result").ValueOrDie().GetInt("plan_version", 0), 2);

  Json paced =
      Call("set_rate", R"({"session": "live", "tuples_per_sec": 500})");
  ASSERT_TRUE(paced.Has("result")) << paced.Dump();
  EXPECT_EQ(paced.Get("result").ValueOrDie().GetInt("plan_version", 0), 3);
  auto published = server_->session_plan("live");
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published.ValueOrDie()->tuples_per_sec, 500.0);
  EXPECT_EQ(published.ValueOrDie()->scenario, "software_update");

  // The swap is observable over the admin channel itself.
  Json metrics = Call("get_metrics", "{}");
  ASSERT_TRUE(metrics.Has("result"));
  const std::string text =
      metrics.Get("result").ValueOrDie().GetString("text", "");
  EXPECT_NE(text.find("icewafl_server_plan_version{session=\"live\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("icewafl_server_plan_swaps_total{session=\"live\"} 2"),
      std::string::npos)
      << text;
}

TEST_F(AdminWireTest, SwapPipelineIsLintGatedWithFullDiagnostics) {
  // A pipeline document referencing a column the wearable schema does
  // not have: rejected by the analyzer before any snapshot exists.
  auto response = client_->Call(
      "swap_pipeline",
      Json::Parse(R"({
        "session": "live",
        "pipeline": {
          "name": "broken",
          "polluters": [
            {"type": "standard", "label": "bad",
             "attributes": ["NoSuchColumn"],
             "condition": {"type": "always"},
             "error": {"type": "missing_value"}}
          ]
        }
      })")
          .ValueOrDie());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const Json& body = response.ValueOrDie();
  ASSERT_TRUE(body.Has("error")) << body.Dump();
  const Json error = body.Get("error").ValueOrDie();
  EXPECT_EQ(error.GetString("code", ""), "InvalidArgument");
  ASSERT_TRUE(error.Has("diagnostics")) << body.Dump();
  EXPECT_GE(error.Get("diagnostics").ValueOrDie().GetInt("errors", 0), 1);
  // Nothing was applied: still version 1.
  auto published = server_->session_plan("live");
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published.ValueOrDie()->version, 1u);
}

TEST_F(AdminWireTest, ValidPipelineDocumentSwapApplies) {
  Json swapped = Call("swap_pipeline", R"({
    "session": "live",
    "pipeline": {
      "name": "null_distance",
      "polluters": [
        {"type": "standard", "label": "null_distance",
         "attributes": ["Distance"],
         "condition": {"type": "always"},
         "error": {"type": "missing_value"}}
      ]
    }
  })");
  ASSERT_TRUE(swapped.Has("result")) << swapped.Dump();
  auto published = server_->session_plan("live");
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published.ValueOrDie()->version, 2u);
  EXPECT_EQ(published.ValueOrDie()->scenario, "custom");
}

TEST_F(AdminWireTest, CreateAndStopSessions) {
  Json created = Call("create_session", R"({
    "session": {"name": "second", "scenario": "network_delay"}
  })");
  ASSERT_TRUE(created.Has("result")) << created.Dump();

  Json listed = Call("list_sessions", "{}");
  const Json sessions =
      listed.Get("result").ValueOrDie().Get("sessions").ValueOrDie();
  ASSERT_EQ(sessions.items().size(), 2u);
  EXPECT_EQ(sessions.items()[1].GetString("id", ""), "second");

  Json stopped = Call("stop_session", R"({"session": "second"})");
  ASSERT_TRUE(stopped.Has("result")) << stopped.Dump();
  auto info = server_->session_info("second");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().state, "retired");

  // A duplicate create is an AlreadyExists error response.
  auto duplicate = client_->Call(
      "create_session",
      Json::Parse(R"({"session": {"name": "live",
                                  "scenario": "network_delay"}})")
          .ValueOrDie());
  ASSERT_TRUE(duplicate.ok());
  EXPECT_TRUE(duplicate.ValueOrDie().Has("error"));
}

TEST_F(AdminWireTest, SetCleanerInstallsSwapsAndRemoves) {
  // Install: the plan version bumps and get_config reports the rules.
  Json installed = Call("set_cleaner", R"({
    "session": "live",
    "rules": {"name": "live_clean", "rules": [
      {"label": "bpm_null", "column": "BPM",
       "detect": {"type": "not_null"}, "repair": "last_good"}]}
  })");
  ASSERT_TRUE(installed.Has("result")) << installed.Dump();
  EXPECT_TRUE(installed.Get("result").ValueOrDie().GetBool("cleaning", false));
  EXPECT_EQ(installed.Get("result").ValueOrDie().GetInt("plan_version", 0), 2);
  auto published = server_->session_plan("live");
  ASSERT_TRUE(published.ok());
  EXPECT_FALSE(published.ValueOrDie()->cleaner.is_null());

  Json config = Call("get_config", R"({"session": "live"})");
  const Json result = config.Get("result").ValueOrDie();
  ASSERT_TRUE(result.Has("cleaner"));
  EXPECT_EQ(result.Get("cleaner").ValueOrDie().GetString("name", ""),
            "live_clean");

  // Swap in a different document: run-atomic like a pipeline swap.
  Json swapped = Call("set_cleaner", R"({
    "session": "live",
    "rules": {"name": "v2", "rules": [
      {"label": "bpm_range", "column": "BPM",
       "detect": {"type": "range", "min": 20, "max": 250},
       "repair": "clamp"}]}
  })");
  ASSERT_TRUE(swapped.Has("result")) << swapped.Dump();
  EXPECT_EQ(swapped.Get("result").ValueOrDie().GetInt("plan_version", 0), 3);

  // Remove with null: served output reverts to the raw polluted stream.
  Json removed = Call("set_cleaner", R"({"session": "live", "rules": null})");
  ASSERT_TRUE(removed.Has("result")) << removed.Dump();
  EXPECT_FALSE(removed.Get("result").ValueOrDie().GetBool("cleaning", true));
  published = server_->session_plan("live");
  ASSERT_TRUE(published.ok());
  EXPECT_TRUE(published.ValueOrDie()->cleaner.is_null());
}

TEST_F(AdminWireTest, SetCleanerIsLintGatedWithJsonPointers) {
  // Missing "rules" entirely: the IW616 envelope gate, before any hook.
  auto no_rules = client_->Call(
      "set_cleaner", Json::Parse(R"({"session": "live"})").ValueOrDie());
  ASSERT_TRUE(no_rules.ok());
  EXPECT_EQ(ErrorCode(no_rules.ValueOrDie()), "IW616");

  // A document referencing an unknown column: rejected by the hook's
  // schema-aware lint with a JSON-pointer path; no snapshot published.
  auto rejected = client_->Call("set_cleaner", Json::Parse(R"({
    "session": "live",
    "rules": {"rules": [
      {"label": "x", "column": "Ghost",
       "detect": {"type": "not_null"}, "repair": "drop"}]}
  })").ValueOrDie());
  ASSERT_TRUE(rejected.ok());
  const Json& body = rejected.ValueOrDie();
  ASSERT_TRUE(body.Has("error")) << body.Dump();
  const Json error = body.Get("error").ValueOrDie();
  ASSERT_TRUE(error.Has("diagnostics")) << body.Dump();
  EXPECT_NE(error.Get("diagnostics").ValueOrDie().Dump().find("/rules/0"),
            std::string::npos)
      << body.Dump();
  auto published = server_->session_plan("live");
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published.ValueOrDie()->version, 1u);
  EXPECT_TRUE(published.ValueOrDie()->cleaner.is_null());
}

TEST_F(AdminWireTest, WarningsRideAlongWithResults) {
  // An unknown params key is an IW604 warning, not an error: the call
  // succeeds and the response carries the diagnostics.
  auto response = client_->Call(
      "get_config",
      Json::Parse(R"({"session": "live", "tpyo": 1})").ValueOrDie());
  ASSERT_TRUE(response.ok());
  const Json& body = response.ValueOrDie();
  EXPECT_TRUE(body.Has("result")) << body.Dump();
  ASSERT_TRUE(body.Has("diagnostics")) << body.Dump();
  EXPECT_GE(body.Get("diagnostics").ValueOrDie().GetInt("warnings", 0), 1);
}

}  // namespace
}  // namespace net
}  // namespace icewafl
