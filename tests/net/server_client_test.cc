#include <sys/socket.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
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
#include "scenarios/scenarios.h"
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
    auto have = decoder.Next(type, payload);
    ASSERT_TRUE(have.ok()) << have.status().ToString();
    if (have.ValueOrDie()) return;
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
  // courteous Error frame before hanging up.
  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  while (server.clients_connected() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.Wait().ok());
  FrameDecoder decoder;
  char buf[4096];
  uint8_t type = 0;
  std::string payload;
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
