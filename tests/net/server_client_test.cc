#include <sys/socket.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/csv.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "scenarios/closed_loop.h"
#include "scenarios/scenarios.h"
#include "stream/runtime.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace icewafl {
namespace net {
namespace {

using scenarios::ResolvedScenario;

/// One pollution run over the resolved scenario — the same replay
/// `icewafl_cli serve` hosts, so served bytes must match the offline run.
PollutionServer::SessionFn MakeScenarioSession(
    std::shared_ptr<const ResolvedScenario> scenario, uint64_t seed,
    int parallelism) {
  return [scenario, seed, parallelism](const PlanContext&, Sink* sink) {
    VectorSource source(scenario->schema, scenario->clean);
    return scenarios::StreamPipelineToSink(
        &source, scenario->pipeline, seed, parallelism, sink, nullptr, nullptr,
        nullptr, scenario->stream_start, scenario->stream_end);
  };
}

Result<std::shared_ptr<const ResolvedScenario>> Resolve(
    const std::string& name, uint64_t seed) {
  ICEWAFL_ASSIGN_OR_RETURN(ResolvedScenario resolved,
                           scenarios::ResolveScenario(name, seed));
  return std::make_shared<const ResolvedScenario>(std::move(resolved));
}

/// The offline reference run (what `icewafl_cli run --output` writes).
std::string OfflineCsv(const std::shared_ptr<const ResolvedScenario>& scenario,
                       uint64_t seed, int parallelism) {
  TupleVector clean_copy = scenario->clean;
  VectorSource source(scenario->schema, std::move(clean_copy));
  VectorSink offline;
  Status status = scenarios::StreamPipelineToSink(
      &source, scenario->pipeline, seed, parallelism, &offline, nullptr,
      nullptr, nullptr, scenario->stream_start, scenario->stream_end);
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (!status.ok()) return "";
  return ToCsvString(scenario->schema, offline.tuples());
}

/// Drains one subscription completely; empty csv on error.
struct TailResult {
  std::string csv;
  Status status = Status::OK();
  uint64_t received = 0;
};

TailResult TailAll(uint16_t port, const std::string& session_id = "") {
  TailResult result;
  auto client = StreamClient::Connect("127.0.0.1", port, session_id);
  if (!client.ok()) {
    result.status = client.status();
    return result;
  }
  StreamClient& stream = *client.ValueOrDie();
  TupleVector tuples;
  Tuple tuple;
  while (true) {
    auto next = stream.Next(&tuple);
    if (!next.ok()) {
      result.status = next.status();
      return result;
    }
    if (!next.ValueOrDie()) break;
    tuples.push_back(std::move(tuple));
  }
  result.received = stream.tuples_received();
  result.csv = ToCsvString(stream.schema(), tuples);
  return result;
}

void WaitForRuns(const PollutionServer& server, uint64_t n) {
  while (server.runs_completed() < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------
// Multi-session soak: one server, three named sessions, four
// subscribers each, all concurrent — every subscriber's bytes are
// identical to that session's offline CSV.
// ---------------------------------------------------------------------

TEST(PollutionServer, ThreeSessionsFourSubscribersEachMatchOfflineRuns) {
  struct Tenant {
    std::string name;
    std::string scenario;
    uint64_t seed;
  };
  const std::vector<Tenant> tenants = {{"alpha", "random_temporal", 42},
                                       {"beta", "network_delay", 7},
                                       {"gamma", "temporal_noise", 9}};
  constexpr int kSubscribers = 4;

  obs::MetricRegistry registry;
  ServerOptions options;
  options.workers = 2;  // three sessions share two workers
  options.metrics = &registry;
  PollutionServer server(options);
  std::map<std::string, std::string> expected;
  for (const Tenant& tenant : tenants) {
    auto scenario = Resolve(tenant.scenario, tenant.seed);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    expected[tenant.name] =
        OfflineCsv(scenario.ValueOrDie(), tenant.seed, 1);
    SessionOptions session;
    session.min_subscribers = kSubscribers;
    session.max_runs = 1;
    ASSERT_TRUE(server
                    .AddSession(tenant.name,
                                scenario.ValueOrDie()->schema,
                                MakeScenarioSession(scenario.ValueOrDie(),
                                                    tenant.seed, 1),
                                session)
                    .ok());
  }
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.session_ids(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));

  std::vector<std::pair<std::string, TailResult>> results(
      tenants.size() * kSubscribers);
  std::vector<std::thread> tails;
  for (size_t t = 0; t < tenants.size(); ++t) {
    for (int i = 0; i < kSubscribers; ++i) {
      const size_t slot = t * kSubscribers + static_cast<size_t>(i);
      const std::string name = tenants[t].name;
      tails.emplace_back([&, slot, name] {
        results[slot] = {name, TailAll(server.port(), name)};
      });
    }
  }
  for (std::thread& t : tails) t.join();
  ASSERT_TRUE(server.Wait().ok());

  for (const auto& [name, result] : results) {
    ASSERT_TRUE(result.status.ok())
        << "subscriber of '" << name << "': " << result.status.ToString();
    EXPECT_EQ(result.csv, expected[name])
        << "subscriber of '" << name << "' diverged from the offline run";
  }
  EXPECT_EQ(server.runs_completed(), tenants.size());

  // Serve metrics carry the session label.
  const std::string prom = registry.ToPrometheusText();
  for (const Tenant& tenant : tenants) {
    EXPECT_NE(prom.find("icewafl_server_sessions_total{session=\"" +
                        tenant.name + "\"} 1"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("icewafl_server_tuples_sent_total{session=\"" +
                        tenant.name + "\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("icewafl_server_send_latency_seconds"),
              std::string::npos);
  }
  EXPECT_NE(prom.find("icewafl_server_clients_accepted_total 12"),
            std::string::npos)
      << prom;
}

// A single worker still serves many sessions — they just run in turn.
TEST(PollutionServer, SingleWorkerDrivesThreeSessions) {
  PollutionServer server(ServerOptions{.workers = 1});
  for (const std::string name : {"a", "b", "c"}) {
    auto scenario = Resolve("random_temporal", 42);
    ASSERT_TRUE(scenario.ok());
    ASSERT_TRUE(server
                    .AddSession(name, scenario.ValueOrDie()->schema,
                                MakeScenarioSession(scenario.ValueOrDie(),
                                                    42, 1),
                                {.max_runs = 1})
                    .ok());
  }
  ASSERT_TRUE(server.Start().ok());
  std::vector<TailResult> results(3);
  std::vector<std::thread> tails;
  const std::vector<std::string> names = {"a", "b", "c"};
  for (size_t i = 0; i < names.size(); ++i) {
    tails.emplace_back(
        [&, i] { results[i] = TailAll(server.port(), names[i]); });
  }
  for (std::thread& t : tails) t.join();
  ASSERT_TRUE(server.Wait().ok());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    EXPECT_EQ(results[i].csv, results[0].csv);
  }
}

// ---------------------------------------------------------------------
// Golden digest per scenario (the PR 5 guarantee, per session).
// ---------------------------------------------------------------------

TEST(PollutionServer, AllScenariosByteIdenticalToOfflineRunFourSubscribers) {
  constexpr uint64_t kSeed = 42;
  constexpr int kSubscribers = 4;
  for (const std::string& name : scenarios::ScenarioNames()) {
    SCOPED_TRACE(name);
    auto scenario = Resolve(name, kSeed);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const std::string expected_csv =
        OfflineCsv(scenario.ValueOrDie(), kSeed, 1);

    PollutionServer server;
    SessionOptions session;
    session.min_subscribers = kSubscribers;
    session.max_runs = 1;
    ASSERT_TRUE(server
                    .AddSession(name, scenario.ValueOrDie()->schema,
                                MakeScenarioSession(scenario.ValueOrDie(),
                                                    kSeed, 1),
                                session)
                    .ok());
    ASSERT_TRUE(server.Start().ok());

    std::vector<TailResult> results(kSubscribers);
    std::vector<std::thread> tails;
    for (int i = 0; i < kSubscribers; ++i) {
      tails.emplace_back([&, i] {
        results[static_cast<size_t>(i)] = TailAll(server.port(), name);
      });
    }
    for (std::thread& t : tails) t.join();
    ASSERT_TRUE(server.Wait().ok());

    for (int i = 0; i < kSubscribers; ++i) {
      const TailResult& r = results[static_cast<size_t>(i)];
      ASSERT_TRUE(r.status.ok())
          << "subscriber " << i << ": " << r.status.ToString();
      EXPECT_EQ(r.csv, expected_csv) << "subscriber " << i
                                     << " diverged from the offline run";
    }
    EXPECT_EQ(server.runs_completed(), 1u);
  }
}

TEST(PollutionServer, ParallelSessionMatchesParallelOfflineRun) {
  constexpr uint64_t kSeed = 7;
  constexpr int kParallelism = 2;
  auto scenario = Resolve("random_temporal", kSeed);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("par", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  kSeed, kParallelism),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  TailResult tail = TailAll(server.port(), "par");
  ASSERT_TRUE(server.Wait().ok());
  ASSERT_TRUE(tail.status.ok()) << tail.status.ToString();
  EXPECT_EQ(tail.csv, OfflineCsv(scenario.ValueOrDie(), kSeed, kParallelism));
}

// ---------------------------------------------------------------------
// Replays and late joiners: a session's consecutive runs are identical,
// and a late joiner subscribing by name gets the next run.
// ---------------------------------------------------------------------

TEST(PollutionServer, LateJoinerByNameGetsAnIdenticalReplay) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 2})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  TailResult first = TailAll(server.port(), "alpha");
  // The first run is over; a late joiner names the session and waits for
  // its second run.
  TailResult second = TailAll(server.port(), "alpha");
  ASSERT_TRUE(server.Wait().ok());
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_FALSE(first.csv.empty());
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(server.runs_completed(), 2u);
}

// ---------------------------------------------------------------------
// Subscribe handshake failures (all surfaced as handshake Error frames
// with an attributable client-side message).
// ---------------------------------------------------------------------

TEST(PollutionServer, UnknownSessionIsRejectedWithAttributableError) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "nope");
  ASSERT_FALSE(client.ok());
  // The full message shape is part of the contract: it names the
  // session, the peer, and what went wrong.
  EXPECT_EQ(client.status().message(),
            "session 'nope' at 127.0.0.1:" +
                std::to_string(server.port()) +
                ": server error during handshake: unknown session 'nope' "
                "(available: alpha)");
  server.RequestStop();
  ASSERT_TRUE(server.Wait().ok());
}

TEST(PollutionServer, EmptyIdResolvesOnlyWhenOneSessionExists) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server
                  .AddSession("beta", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  // Ambiguous with two sessions: the client must name one.
  auto anonymous = StreamClient::Connect("127.0.0.1", server.port());
  ASSERT_FALSE(anonymous.ok());
  EXPECT_NE(anonymous.status().message().find(
                "subscribe must name one of the sessions: alpha, beta"),
            std::string::npos)
      << anonymous.status().ToString();
  TailResult a = TailAll(server.port(), "alpha");
  TailResult b = TailAll(server.port(), "beta");
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_TRUE(b.status.ok()) << b.status.ToString();
}

/// Raw-socket hello: sends `frame` and returns the server's first
/// answer frame (type + payload).
void RawHello(uint16_t port, const std::string& frame, uint8_t* type,
              std::string* payload) {
  auto fd = ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd.ValueOrDie().get(), frame.data() + off,
                             frame.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed";
    off += static_cast<size_t>(n);
  }
  FrameDecoder decoder;
  char buf[4096];
  while (true) {
    std::string_view view;  // points into `decoder`: copied out below
    auto have = decoder.Next(type, &view);
    ASSERT_TRUE(have.ok()) << have.status().ToString();
    if (have.ValueOrDie()) {
      payload->assign(view);
      return;
    }
    const ssize_t n = ::recv(fd.ValueOrDie().get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server closed before answering the hello";
    decoder.Feed(buf, static_cast<size_t>(n));
  }
}

TEST(PollutionServer, WrongWireVersionGetsErrorFrame) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  uint8_t type = 0;
  std::string payload;
  RawHello(server.port(), EncodeSubscribeFrame(/*version=*/1, "alpha"),
           &type, &payload);
  EXPECT_EQ(type, kFrameError);
  EXPECT_EQ(payload, "unsupported wire version 1 (server speaks 2)");
  server.RequestStop();
  ASSERT_TRUE(server.Wait().ok());
}

TEST(PollutionServer, NonSubscribeHelloGetsErrorFrame) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  uint8_t type = 0;
  std::string payload;
  RawHello(server.port(), EncodeEndFrame(0), &type, &payload);
  EXPECT_EQ(type, kFrameError);
  EXPECT_NE(payload.find("expected a Subscribe hello frame"),
            std::string::npos)
      << payload;
  server.RequestStop();
  ASSERT_TRUE(server.Wait().ok());
}

// ---------------------------------------------------------------------
// Session lifecycle: runtime add, runtime stop (waiting and running
// paths), retirement.
// ---------------------------------------------------------------------

TEST(PollutionServer, AddSessionAfterStartServesIt) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  // Runtime session creation: registered only after the server is live.
  ASSERT_TRUE(server
                  .AddSession("beta", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  TailResult a = TailAll(server.port(), "alpha");
  TailResult b = TailAll(server.port(), "beta");
  ASSERT_TRUE(server.Wait().ok());
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(a.csv, b.csv);
}

TEST(PollutionServer, AddSessionRejectsDuplicatesAndBadIds) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  SchemaPtr schema = scenario.ValueOrDie()->schema;
  auto fn = MakeScenarioSession(scenario.ValueOrDie(), 42, 1);
  PollutionServer server;
  ASSERT_TRUE(server.AddSession("alpha", schema, fn, {}).ok());
  Status dup = server.AddSession("alpha", schema, fn, {});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists) << dup.ToString();
  EXPECT_FALSE(server.AddSession("", schema, fn, {}).ok());
  EXPECT_FALSE(
      server
          .AddSession(std::string(kMaxSessionIdBytes + 1, 'x'), schema, fn, {})
          .ok());
  EXPECT_FALSE(server.AddSession("noschema", nullptr, fn, {}).ok());
  EXPECT_FALSE(server.AddSession("nofn", schema, nullptr, {}).ok());
}

TEST(PollutionServer, StopSessionReleasesWaitingSubscribers) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  SessionOptions options;
  options.min_subscribers = 2;  // one subscriber alone waits forever
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              options)
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "alpha");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(server.StopSession("alpha").ok());
  Tuple tuple;
  auto next = client.ValueOrDie()->Next(&tuple);
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("session 'alpha' stopped"),
            std::string::npos)
      << next.status().ToString();
  // Retirement is idempotent; unknown sessions are NotFound.
  EXPECT_TRUE(server.StopSession("alpha").ok());
  EXPECT_EQ(server.StopSession("ghost").code(), StatusCode::kNotFound);
  ASSERT_TRUE(server.Wait().ok());
}

SchemaPtr FatSchema() {
  auto schema = Schema::Make(
      {{"t", ValueType::kInt64}, {"blob", ValueType::kString}}, "t");
  return schema.ValueOrDie();
}

/// ~32 KiB per tuple, `count` tuples — enough total volume that a
/// non-reading subscriber overflows its queue no matter how much the
/// kernel buffers on loopback.
PollutionServer::SessionFn MakeFatSession(SchemaPtr schema, int count) {
  return [schema, count](const PlanContext&, Sink* sink) {
    const std::string blob(32 * 1024, 'x');
    for (int i = 0; i < count; ++i) {
      Tuple tuple(schema, {Value(static_cast<int64_t>(i)), Value(blob)});
      tuple.set_id(static_cast<TupleId>(i));
      tuple.set_event_time(i);
      ICEWAFL_RETURN_NOT_OK(sink->Write(tuple));
    }
    return Status::OK();
  };
}

TEST(PollutionServer, StopSessionAbortsARunInProgress) {
  SchemaPtr schema = FatSchema();
  // Small queue + blocking policy so the run wedges on a non-reading
  // subscriber — exactly what a runtime stop must unwedge.
  ServerOptions options;
  options.queue_capacity = 4;
  options.slow_consumer = SlowConsumerPolicy::kBlock;
  PollutionServer server(options);
  ASSERT_TRUE(
      server.AddSession("fat", schema, MakeFatSession(schema, 100000), {})
          .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok());
  Tuple tuple;
  for (int i = 0; i < 3; ++i) {
    auto next = client.ValueOrDie()->Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.ValueOrDie());
  }
  ASSERT_TRUE(server.StopSession("fat").ok());
  // A session stop retires the sole session, so Wait() returns — and a
  // requested stop is not an error.
  ASSERT_TRUE(server.Wait().ok());
  Status status = Status::OK();
  while (status.ok()) {
    auto next = client.ValueOrDie()->Next(&tuple);
    if (!next.ok()) {
      status = next.status();
    } else if (!next.ValueOrDie()) {
      break;
    }
  }
  EXPECT_FALSE(status.ok()) << "an aborted run must not end cleanly";
}

TEST(PollutionServer, RetiredSessionRejectsNewSubscribers) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  TailResult first = TailAll(server.port(), "alpha");
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  WaitForRuns(server, 1);
  auto late = StreamClient::Connect("127.0.0.1", server.port(), "alpha");
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.status().message().find("session 'alpha' has ended"),
            std::string::npos)
      << late.status().ToString();
  ASSERT_TRUE(server.Wait().ok());
}

// ---------------------------------------------------------------------
// Slow-consumer policies (synthetic fat-tuple session so the bounded
// queue — not kernel socket buffering — is what overflows).
// ---------------------------------------------------------------------

TEST(PollutionServer, DropOldestKeepsRunGoingAndCountsDrops) {
  constexpr int kTuples = 700;  // ~22 MiB total
  obs::MetricRegistry registry;
  ServerOptions options;
  options.queue_capacity = 8;
  options.slow_consumer = SlowConsumerPolicy::kDropOldest;
  options.metrics = &registry;
  SchemaPtr schema = FatSchema();
  PollutionServer server(options);
  ASSERT_TRUE(server
                  .AddSession("fat", schema, MakeFatSession(schema, kTuples),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  // Connect but do not read until the run has finished server-side:
  // the pipeline must not stall on this slow consumer.
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  WaitForRuns(server, 1);

  // Now drain: the subscriber sees gaps, surfaced as a count mismatch
  // when the End frame's total disagrees with what arrived.
  StreamClient& stream = *client.ValueOrDie();
  Tuple tuple;
  Status status;
  while (true) {
    auto next = stream.Next(&tuple);
    if (!next.ok()) {
      status = next.status();
      break;
    }
    if (!next.ValueOrDie()) break;
  }
  EXPECT_FALSE(status.ok()) << "a lossy stream must not end cleanly";
  EXPECT_LT(stream.tuples_received(), static_cast<uint64_t>(kTuples));
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_NE(registry.ToPrometheusText().find(
                "icewafl_server_slow_drops_total{session=\"fat\"}"),
            std::string::npos)
      << registry.ToPrometheusText();
  // Reconciliation: every drop began life as a kFull TryPush on the
  // subscriber's frame queue, so the channel-level counter must account
  // for at least the session-level drop total (retired queues included —
  // the connection is gone by the time Wait() returns).
  const uint64_t slow_drops =
      registry.GetCounter("icewafl_server_slow_drops_total",
                          {{"session", "fat"}})
          ->value();
  EXPECT_GT(slow_drops, 0u);
  EXPECT_GE(server.frame_queue_stats().try_push_full, slow_drops);
}

// ---------------------------------------------------------------------
// Batch-frame capability: a negotiated subscriber receives columnar
// Batch frames, a default subscriber receives tuple frames, and both
// decode to byte-identical CSV — the offline run's bytes.
// ---------------------------------------------------------------------

TEST(PollutionServer, BatchAndTupleSubscribersSeeIdenticalStreams) {
  const uint64_t seed = 77;
  auto scenario = Resolve("random_temporal", seed);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const std::string offline = OfflineCsv(scenario.ValueOrDie(), seed, 1);

  obs::MetricRegistry registry;
  ServerOptions options;
  options.metrics = &registry;
  options.batch_rows = 64;  // several full batches plus a partial tail
  PollutionServer server(options);
  SessionOptions session;
  session.min_subscribers = 2;  // both clients share one fanout
  session.max_runs = 1;
  ASSERT_TRUE(
      server
          .AddSession("wear", scenario.ValueOrDie()->schema,
                      MakeScenarioSession(scenario.ValueOrDie(), seed, 1),
                      session)
          .ok());
  ASSERT_TRUE(server.Start().ok());

  // One batch-capable and one plain subscriber share the run's fanout.
  auto batch_client =
      StreamClient::Connect("127.0.0.1", server.port(), "wear",
                            kCapBatchFrames);
  ASSERT_TRUE(batch_client.ok()) << batch_client.status().ToString();
  std::string tuple_csv;
  std::thread tuple_tail([&] {
    TailResult r = TailAll(server.port(), "wear");
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    tuple_csv = std::move(r.csv);
  });
  StreamClient& stream = *batch_client.ValueOrDie();
  TupleVector tuples;
  Tuple tuple;
  while (true) {
    auto next = stream.Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ValueOrDie()) break;
    tuples.push_back(std::move(tuple));
  }
  tuple_tail.join();
  const std::string batch_csv = ToCsvString(stream.schema(), tuples);
  EXPECT_EQ(batch_csv, offline);
  EXPECT_EQ(tuple_csv, offline);
  // The End-frame accounting holds across unpacked batches.
  EXPECT_EQ(stream.tuples_received(), stream.reported_total());
  ASSERT_TRUE(server.Wait().ok());
  const uint64_t batches =
      registry.GetCounter("icewafl_server_batches_sent_total",
                          {{"session", "wear"}})
          ->value();
  EXPECT_GT(batches, 0u) << registry.ToPrometheusText();
}

TEST(PollutionServer, DisconnectPolicyCutsSlowConsumer) {
  constexpr int kTuples = 700;
  obs::MetricRegistry registry;
  ServerOptions options;
  options.queue_capacity = 8;
  options.slow_consumer = SlowConsumerPolicy::kDisconnect;
  options.metrics = &registry;
  SchemaPtr schema = FatSchema();
  PollutionServer server(options);
  ASSERT_TRUE(server
                  .AddSession("fat", schema, MakeFatSession(schema, kTuples),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok());
  WaitForRuns(server, 1);

  StreamClient& stream = *client.ValueOrDie();
  Tuple tuple;
  Status status;
  while (true) {
    auto next = stream.Next(&tuple);
    if (!next.ok()) {
      status = next.status();
      break;
    }
    if (!next.ValueOrDie()) break;
  }
  // The victim observes a mid-stream disconnect (never a clean End).
  EXPECT_FALSE(status.ok());
  ASSERT_TRUE(server.Wait().ok());
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(
      prom.find("icewafl_server_slow_disconnects_total{session=\"fat\"} 1"),
      std::string::npos)
      << prom;
}

// ---------------------------------------------------------------------
// Batch fan-out: the runtime hands the fan-out whole batches; the bytes
// on every socket are those of the per-row path, and the frame queue
// stays bounded in frames.
// ---------------------------------------------------------------------

/// Overrides only the per-row Write, so the fan-out behind it receives
/// one row per call.
class PerRowSink : public Sink {
 public:
  explicit PerRowSink(Sink* inner) : inner_(inner) {}
  Status Write(const Tuple& tuple) override { return inner_->Write(tuple); }
  Status Write(Tuple&& tuple) override {
    return inner_->Write(std::move(tuple));
  }
  Status Flush() override { return inner_->Flush(); }

 private:
  Sink* inner_;
};

/// Subscribes over a raw socket and returns every byte the server sent
/// until it closed the connection (empty when the connect failed).
std::string RawTail(uint16_t port, const std::string& session_id,
                    uint64_t capabilities) {
  auto fd = ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return "";
  const int sock = fd.ValueOrDie().get();
  const std::string hello =
      EncodeSubscribeFrame(kWireVersion, session_id, capabilities);
  if (::send(sock, hello.data(), hello.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(hello.size())) {
    return "";
  }
  std::string bytes;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(sock, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      return bytes;
    }
  }
}

/// Decodes a recorded stream (Schema, Tuple and Batch frames, End) to
/// CSV; counts its Batch frames.
std::string RecordedCsv(const std::string& bytes, int* batch_frames) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  SchemaPtr schema;
  TupleVector rows;
  uint8_t type = 0;
  std::string_view payload;
  while (true) {
    auto have = decoder.Next(&type, &payload);
    EXPECT_TRUE(have.ok()) << have.status().ToString();
    if (!have.ok() || !have.ValueOrDie()) break;
    if (type == kFrameSchema) {
      schema = DecodeSchemaPayload(payload).ValueOrDie();
    } else if (type == kFrameTuple) {
      rows.push_back(DecodeTuplePayload(payload, schema).ValueOrDie());
    } else if (type == kFrameBatch) {
      ++*batch_frames;
      for (Tuple& t :
           DecodeBatchPayload(payload, schema).ValueOrDie().ToTuples()) {
        rows.push_back(std::move(t));
      }
    } else {
      EXPECT_EQ(type, kFrameEnd) << "unexpected frame type";
    }
  }
  return schema == nullptr ? "" : ToCsvString(schema, rows);
}

TEST(PollutionServer, BatchAndPerRowFanoutSendTheSameBytes) {
  constexpr uint64_t kSeed = 42;
  constexpr int kTupleSubscribers = 4;
  auto scenario = Resolve("random_temporal", kSeed);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const std::string offline = OfflineCsv(scenario.ValueOrDie(), kSeed, 1);

  ServerOptions options;
  options.batch_rows = 100;  // Batch cut points off the runtime's 256
  PollutionServer server(options);
  SessionOptions session;
  session.min_subscribers = kTupleSubscribers + 1;
  session.max_runs = 1;
  PollutionServer::SessionFn batched =
      MakeScenarioSession(scenario.ValueOrDie(), kSeed, 1);
  const SchemaPtr schema = scenario.ValueOrDie()->schema;
  ASSERT_TRUE(server.AddSession("batched", schema, batched, session).ok());
  ASSERT_TRUE(server
                  .AddSession("per_row", schema,
                              [batched](const PlanContext& ctx, Sink* sink) {
                                PerRowSink rows(sink);
                                return batched(ctx, &rows);
                              },
                              session)
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  // Per session: four tuple subscribers, then one Batch subscriber.
  const std::vector<std::string> names = {"batched", "per_row"};
  constexpr size_t kPerSession = kTupleSubscribers + 1;
  std::vector<std::string> streams(names.size() * kPerSession);
  std::vector<std::thread> tails;
  for (size_t slot = 0; slot < streams.size(); ++slot) {
    const uint64_t caps =
        slot % kPerSession == kTupleSubscribers ? kCapBatchFrames : 0;
    tails.emplace_back([&, slot, caps] {
      streams[slot] = RawTail(server.port(), names[slot / kPerSession], caps);
    });
  }
  for (std::thread& t : tails) t.join();
  ASSERT_TRUE(server.Wait().ok());

  for (size_t slot = 0; slot < streams.size(); ++slot) {
    SCOPED_TRACE(names[slot / kPerSession] + " subscriber " +
                 std::to_string(slot % kPerSession));
    const bool batch = slot % kPerSession == kTupleSubscribers;
    // The same bytes as the per-row run's subscriber of the same kind.
    EXPECT_EQ(streams[slot],
              streams[kPerSession + (batch ? kTupleSubscribers : 0)]);
    int batch_frames = 0;
    EXPECT_EQ(RecordedCsv(streams[slot], &batch_frames), offline);
    EXPECT_EQ(batch_frames > 0, batch);
  }
}

/// A runtime-fed session of `count` ~4 KiB rows: the runtime hands the
/// fan-out batches of 256 rows, wider than the small queues below, and
/// the stream (~24 MiB at 6,000 rows) outgrows what loopback socket
/// buffers absorb for a subscriber that does not read.
PollutionServer::SessionFn MakeFatRuntimeSession(SchemaPtr schema,
                                                 int count) {
  return [schema, count](const PlanContext&, Sink* sink) {
    const std::string blob(4 * 1024, 'x');
    TupleVector rows;
    rows.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      rows.emplace_back(schema, std::vector<Value>{
                                    Value(static_cast<int64_t>(i)), Value(blob)});
      rows.back().set_id(static_cast<TupleId>(i));
      rows.back().set_event_time(i);
    }
    VectorSource source(schema, std::move(rows));
    PipelineRuntime runtime;
    return runtime.Run(&source, [](int) { return OperatorChain{}; }, sink);
  };
}

/// Waits until the frame queues have taken no push for 50 ms: the run
/// is then blocked on (or done with) its subscribers.
void WaitForQueuesToStall(const PollutionServer& server) {
  uint64_t last = 0;
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t pushes = server.frame_queue_stats().pushes;
    if (pushes > 0 && pushes == last) return;
    last = pushes;
  }
}

TEST(PollutionServer, RuntimeFedQueueHoldsAtMostItsCapacityInFrames) {
  constexpr int kTuples = 6000;
  ServerOptions options;
  options.queue_capacity = 8;
  options.slow_consumer = SlowConsumerPolicy::kBlock;
  SchemaPtr schema = FatSchema();
  PollutionServer server(options);
  ASSERT_TRUE(server
                  .AddSession("fat", schema,
                              MakeFatRuntimeSession(schema, kTuples),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  // Subscribe, then read nothing until the run is blocked on us.
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  WaitForQueuesToStall(server);
  EXPECT_EQ(server.runs_completed(), 0u) << "the run must wait for us";

  StreamClient& stream = *client.ValueOrDie();
  Tuple tuple;
  while (true) {
    auto next = stream.Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ValueOrDie()) break;
  }
  EXPECT_EQ(stream.tuples_received(), static_cast<uint64_t>(kTuples));
  ASSERT_TRUE(server.Wait().ok());
  const ChannelStats stats = server.frame_queue_stats();
  EXPECT_LE(stats.peak_queued, 8u) << "the queue bound counts frames";
  EXPECT_GT(stats.blocked_pushes, 0u);
}

TEST(PollutionServer, RuntimeFedDropOldestCountsEveryDroppedFrame) {
  constexpr int kTuples = 6000;
  obs::MetricRegistry registry;
  ServerOptions options;
  options.queue_capacity = 8;
  options.slow_consumer = SlowConsumerPolicy::kDropOldest;
  options.metrics = &registry;
  SchemaPtr schema = FatSchema();
  PollutionServer server(options);
  ASSERT_TRUE(server
                  .AddSession("fat", schema,
                              MakeFatRuntimeSession(schema, kTuples),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  WaitForRuns(server, 1);

  StreamClient& stream = *client.ValueOrDie();
  Tuple tuple;
  Status status;
  while (true) {
    auto next = stream.Next(&tuple);
    if (!next.ok()) {
      status = next.status();
      break;
    }
    if (!next.ValueOrDie()) break;
  }
  EXPECT_FALSE(status.ok()) << "a lossy stream must not end cleanly";
  ASSERT_TRUE(server.Wait().ok());
  const uint64_t slow_drops =
      registry.GetCounter("icewafl_server_slow_drops_total",
                          {{"session", "fat"}})
          ->value();
  EXPECT_GT(slow_drops, 0u);
  // A drop discards one frame: every row either arrived or was counted.
  EXPECT_EQ(stream.tuples_received() + slow_drops,
            static_cast<uint64_t>(kTuples));
  EXPECT_GE(server.frame_queue_stats().try_push_full, slow_drops);
}

TEST(PollutionServer, CleanerThatDropsRowsServesTheOfflineStream) {
  // The closed loop's plan with its stock cleaner, plus a rule that
  // drops rows, so the fan-out gets batches shorter than the runtime's.
  auto stock = scenarios::CleanerForScenario("software_update");
  ASSERT_TRUE(stock.ok()) << stock.status().ToString();
  Json rules = Json::MakeArray();
  rules.Append(Json::Parse(R"({"label": "drop_missing_bpm", "column": "BPM",
      "detect": {"type": "not_null"}, "repair": "drop"})")
                   .ValueOrDie());
  const Json stock_rules = stock.ValueOrDie().rules.Get("rules").ValueOrDie();
  for (const Json& rule : stock_rules.items()) rules.Append(rule);
  Json doc = stock.ValueOrDie().rules;
  doc.Set("rules", std::move(rules));
  for (const int parallelism : {1, 2}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    auto base = scenarios::BuildScenarioPlan("software_update", 42, parallelism);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    auto plan = scenarios::BuildPlanWithCleaner(*base.ValueOrDie(), doc);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const PlanSnapshot& snapshot = *plan.ValueOrDie();
    auto offline =
        scenarios::RunPlanSegmentOffline(snapshot, 0, snapshot.clean->size());
    ASSERT_TRUE(offline.ok()) << offline.status().ToString();
    ASSERT_LT(offline.ValueOrDie().size(), snapshot.clean->size())
        << "the cleaner must drop rows";

    PollutionServer server;
    SessionOptions session;
    session.max_runs = 1;
    session.plan = plan.ValueOrDie();
    ASSERT_TRUE(server
                    .AddSession("loop", nullptr, scenarios::ServePlanToSink,
                                std::move(session))
                    .ok());
    ASSERT_TRUE(server.Start().ok());
    TailResult served = TailAll(server.port(), "loop");
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    ASSERT_TRUE(server.Wait().ok());
    EXPECT_EQ(served.csv, ToCsvString(snapshot.schema, offline.ValueOrDie()));
  }
}

TEST(PollutionServer, NegativeZeroDistancesServeTheOfflineBytes) {
  // A sign flip turns the wearable stream's 0.0 distances into -0.0;
  // the binary frames and the offline CSV must both keep the sign.
  const Json flip = Json::Parse(R"({"name": "negative_zero", "polluters": [
      {"type": "standard", "label": "flip", "attributes": ["Distance"],
       "condition": {"type": "always"}, "error": {"type": "sign_flip"}}]})")
                        .ValueOrDie();
  for (const int parallelism : {1, 2}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    auto base =
        scenarios::BuildScenarioPlan("random_temporal", 42, parallelism);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    auto plan = scenarios::BuildPlanFromPipelineJson(*base.ValueOrDie(), flip);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const PlanSnapshot& snapshot = *plan.ValueOrDie();
    auto offline =
        scenarios::RunPlanSegmentOffline(snapshot, 0, snapshot.clean->size());
    ASSERT_TRUE(offline.ok()) << offline.status().ToString();
    const size_t distance = snapshot.schema->IndexOf("Distance").ValueOrDie();
    size_t negative_zeros = 0;
    for (const Tuple& t : offline.ValueOrDie()) {
      const Value& v = t.value(distance);
      if (v.is_double() && v.AsDouble() == 0.0 && std::signbit(v.AsDouble())) {
        ++negative_zeros;
      }
    }
    ASSERT_GT(negative_zeros, 0u);

    PollutionServer server;
    SessionOptions session;
    session.max_runs = 1;
    session.plan = plan.ValueOrDie();
    ASSERT_TRUE(server
                    .AddSession("flip", nullptr, scenarios::ServePlanToSink,
                                std::move(session))
                    .ok());
    ASSERT_TRUE(server.Start().ok());
    TailResult served = TailAll(server.port(), "flip");
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    ASSERT_TRUE(server.Wait().ok());
    const std::string want = ToCsvString(snapshot.schema, offline.ValueOrDie());
    EXPECT_NE(want.find(",-0,"), std::string::npos);
    EXPECT_EQ(served.csv, want);
  }
}

TEST(StreamClient, ReusedRowDecodesEveryServedRowInPlace) {
  // A subscriber that reads every row into one Tuple takes the in-place
  // decode: string slots (the air-quality `station` and `WD` columns)
  // and NULL/double slots (random_temporal's `Distance`) are overwritten
  // row by row, and each row equals the offline segment's.
  auto same_value = [](const Value& a, const Value& b) {
    if (a.type() != b.type()) return false;
    if (!a.is_double()) return a == b;
    const double ad = a.AsDouble(), bd = b.AsDouble();
    return std::memcmp(&ad, &bd, sizeof(ad)) == 0;
  };
  for (const std::string name : {"temporal_noise", "random_temporal"}) {
    for (const int parallelism : {1, 2}) {
      SCOPED_TRACE(name + " at parallelism " + std::to_string(parallelism));
      auto plan = scenarios::BuildScenarioPlan(name, 42, parallelism);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const PlanSnapshot& snapshot = *plan.ValueOrDie();
      auto offline = scenarios::RunPlanSegmentOffline(snapshot, 0,
                                                      snapshot.clean->size());
      ASSERT_TRUE(offline.ok()) << offline.status().ToString();
      const TupleVector& want = offline.ValueOrDie();

      PollutionServer server;
      SessionOptions session;
      session.max_runs = 1;
      session.plan = plan.ValueOrDie();
      ASSERT_TRUE(server
                      .AddSession("reuse", nullptr, scenarios::ServePlanToSink,
                                  std::move(session))
                      .ok());
      ASSERT_TRUE(server.Start().ok());
      auto client = StreamClient::Connect("127.0.0.1", server.port(), "reuse");
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      StreamClient& stream = *client.ValueOrDie();
      Tuple row;
      const Value* slots = nullptr;
      size_t rows = 0, strings = 0, nulls = 0;
      while (true) {
        auto next = stream.Next(&row);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (!next.ValueOrDie()) break;
        ASSERT_LT(rows, want.size()) << "more rows than the offline run";
        // The first decode builds the row; every later one reuses it.
        if (slots == nullptr) slots = row.values().data();
        EXPECT_EQ(row.values().data(), slots) << "row " << rows;
        const Tuple& expected = want[rows];
        EXPECT_EQ(row.id(), expected.id()) << "row " << rows;
        EXPECT_EQ(row.arrival_time(), expected.arrival_time())
            << "row " << rows;
        EXPECT_EQ(row.substream(), expected.substream()) << "row " << rows;
        ASSERT_EQ(row.num_values(), expected.num_values());
        for (size_t i = 0; i < row.num_values(); ++i) {
          EXPECT_TRUE(same_value(row.value(i), expected.value(i)))
              << "row " << rows << " value " << i;
          strings += row.value(i).is_string() ? 1 : 0;
          nulls += row.value(i).is_null() ? 1 : 0;
        }
        ++rows;
      }
      ASSERT_TRUE(server.Wait().ok());
      EXPECT_EQ(rows, want.size());
      if (name == "temporal_noise") {
        EXPECT_GT(strings, 0u) << "no string column reached the client";
      } else {
        EXPECT_GT(nulls, 0u) << "no NULL reached the client";
      }
    }
  }
}

// ---------------------------------------------------------------------
// Server lifecycle edges
// ---------------------------------------------------------------------

TEST(PollutionServer, DrainTellsAPendingHandshakeTheServerIsShuttingDown) {
  auto scenario = Resolve("random_temporal", 42);
  ASSERT_TRUE(scenario.ok());
  PollutionServer server;
  ASSERT_TRUE(server
                  .AddSession("alpha", scenario.ValueOrDie()->schema,
                              MakeScenarioSession(scenario.ValueOrDie(),
                                                  42, 1),
                              {.max_runs = 1})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  TailResult first = TailAll(server.port(), "alpha");
  ASSERT_TRUE(first.status.ok());
  WaitForRuns(server, 1);

  // A connection that never says hello: Wait()'s drain still owes it a
  // courteous Error frame before hanging up, whether the reactor has
  // accepted it yet or it still sits in the listen backlog.
  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(server.Wait().ok());
  FrameDecoder decoder;
  char buf[4096];
  uint8_t type = 0;
  std::string_view payload;
  while (true) {
    auto have = decoder.Next(&type, &payload);
    ASSERT_TRUE(have.ok()) << have.status().ToString();
    if (have.ValueOrDie()) break;
    const ssize_t n = ::recv(fd.ValueOrDie().get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server closed without an Error frame";
    decoder.Feed(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(type, kFrameError);
  EXPECT_EQ(payload, "server shutting down");
}

TEST(PollutionServer, RequestStopAbortsARunInProgress) {
  SchemaPtr schema = FatSchema();
  ServerOptions options;
  options.queue_capacity = 4;
  options.slow_consumer = SlowConsumerPolicy::kBlock;
  PollutionServer server(options);
  ASSERT_TRUE(
      server.AddSession("fat", schema, MakeFatSession(schema, 100000), {})
          .ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "fat");
  ASSERT_TRUE(client.ok());
  Tuple tuple;
  for (int i = 0; i < 3; ++i) {
    auto next = client.ValueOrDie()->Next(&tuple);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.ValueOrDie());
  }
  server.RequestStop();
  ASSERT_TRUE(server.Wait().ok());  // a requested stop is not an error
  // The abandoned subscriber observes a broken stream, not a clean end.
  Status status = Status::OK();
  while (status.ok()) {
    auto next = client.ValueOrDie()->Next(&tuple);
    if (!next.ok()) {
      status = next.status();
    } else if (!next.ValueOrDie()) {
      break;
    }
  }
  EXPECT_FALSE(status.ok());
}

TEST(PollutionServer, DestructorAbortsCleanly) {
  SchemaPtr schema = FatSchema();
  PollutionServer server;
  ASSERT_TRUE(
      server.AddSession("fat", schema, MakeFatSession(schema, 10), {}).ok());
  ASSERT_TRUE(server.Start().ok());
  // No Wait(), no RequestStop(): the destructor must tear down every
  // thread and fd without leaking or hanging.
}

TEST(StreamClient, ConnectToClosedPortFails) {
  auto client = StreamClient::Connect("127.0.0.1", 1);
  EXPECT_FALSE(client.ok());
}

TEST(PollutionServer, RunErrorReachesSubscriberAndWait) {
  SchemaPtr schema = FatSchema();
  PollutionServer::SessionFn failing = [schema](const PlanContext&,
                                                Sink* sink) {
    Tuple tuple(schema, {Value(int64_t{0}), Value("v")});
    ICEWAFL_RETURN_NOT_OK(sink->Write(tuple));
    return Status::Internal("polluter exploded");
  };
  PollutionServer server;
  ASSERT_TRUE(
      server.AddSession("boom", schema, failing, {.max_runs = 1}).ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = StreamClient::Connect("127.0.0.1", server.port(), "boom");
  ASSERT_TRUE(client.ok());
  Tuple tuple;
  Status status = Status::OK();
  while (status.ok()) {
    auto next = client.ValueOrDie()->Next(&tuple);
    if (!next.ok()) {
      status = next.status();
    } else if (!next.ValueOrDie()) {
      break;
    }
  }
  EXPECT_NE(status.ToString().find("polluter exploded"), std::string::npos)
      << status.ToString();
  // The subscriber-visible error names the session and the peer.
  EXPECT_NE(status.message().find("session 'boom' at 127.0.0.1:"),
            std::string::npos)
      << status.ToString();
  // The run failure is also Wait()'s verdict.
  Status wait_status = server.Wait();
  EXPECT_FALSE(wait_status.ok());
  EXPECT_NE(wait_status.ToString().find("polluter exploded"),
            std::string::npos);
}

}  // namespace
}  // namespace net
}  // namespace icewafl
