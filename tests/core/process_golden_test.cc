#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <vector>

#include "stream/sink.h"

#include "core/process.h"
#include "golden_digest.h"

namespace icewafl {
namespace {

// Golden digests captured from the materializing (pre-pipelined)
// implementation of PollutionProcess. The streamed implementation must
// reproduce these byte-for-byte: every tuple id, sub-stream tag, event /
// arrival time, value bit pattern, and log entry feeds the digest.
constexpr uint64_t kGoldenDigests[3] = {
    0xa98025fead1ba4c8ULL,  // m=1, seed 42
    0x620fe59ada9adaacULL,  // m=3, overlap 0.35, seed 7
    0x9d6cf58493d0219bULL,  // m=2, overlap 0.1, log disabled
};

class GoldenDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenDeterminismTest, SequentialMatchesGolden) {
  const int config = GetParam();
  auto result = golden::RunGoldenConfig(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(golden::DigestResult(result.ValueOrDie()),
            kGoldenDigests[config]);
}

TEST_P(GoldenDeterminismTest, RepeatedRunsAreIdentical) {
  const int config = GetParam();
  auto a = golden::RunGoldenConfig(config);
  auto b = golden::RunGoldenConfig(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(golden::DigestResult(a.ValueOrDie()),
            golden::DigestResult(b.ValueOrDie()));
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, GoldenDeterminismTest,
                         ::testing::Values(0, 1, 2));

/// Runs `body` on its own thread and aborts the test binary when it has
/// not returned within 60 s, so a deadlocked run fails instead of hanging.
template <typename F>
auto WithinDeadline(F body) {
  auto done = std::async(std::launch::async, std::move(body));
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "deadline exceeded: the run is deadlocked\n");
    std::abort();
  }
  return done.get();
}

// Input that is not in timestamp order (a hand-made CSV) still gets
// Algorithm 1's step 3: the polluted stream ordered by arrival time.
// The digest was recorded before the process moved onto the runtime.
TEST(GoldenOrderTest, DescendingInputWithOverlapMatchesGolden) {
  auto result = WithinDeadline([] {
    SchemaPtr schema = golden::GoldenSchema();
    TupleVector rows = golden::GoldenStream(schema, 400);
    std::reverse(rows.begin(), rows.end());
    VectorSource source(schema, std::move(rows));
    ProcessOptions options;
    options.num_substreams = 2;
    options.overlap_fraction = 0.5;
    options.seed = 11;
    PollutionProcess process(options);
    process.AddPipeline(golden::GoldenPipeline(1));
    process.AddPipeline(golden::GoldenPipeline(0));
    return process.Run(&source);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(golden::DigestResult(result.ValueOrDie()), 0x5ed671405e4c7f76ULL)
      << std::hex << golden::DigestResult(result.ValueOrDie());
}

// The narrowest runtime cannot deadlock on an uneven split: with
// overlap 1.0 every row also lands on a second worker, delays make the
// workers hold rows back, and batches of 1 meet channels of 1. The
// bytes still equal Run's at its default batching.
TEST(GoldenOrderTest, FullOverlapWithDelaysOnNarrowestChannels) {
  auto narrow = WithinDeadline([] {
    SchemaPtr schema = golden::GoldenSchema();
    TupleVector rows = golden::GoldenStream(schema, 300);
    for (size_t i = 0; i < rows.size(); ++i) {  // Algorithm 1's step 1
      rows[i].set_id(i);
      rows[i].set_event_time(rows[i].GetTimestamp().ValueOrDie());
      rows[i].set_arrival_time(rows[i].event_time());
    }
    VectorSource source(schema, std::move(rows));
    std::vector<PollutionPipeline> pipelines;
    for (int s = 0; s < 3; ++s) pipelines.push_back(golden::GoldenPipeline(1));
    RuntimeOptions options;
    options.batch_size = 1;
    options.channel_capacity = 1;
    const Timestamp start = TimestampFromCivil({2016, 3, 1, 0, 0, 0});
    VectorSink sink;
    Status st = RunSubstreams(&source, std::move(pipelines), 13, 1.0, options,
                              start, start + 299 * 900, &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return sink.TakeTuples();
  });
  ASSERT_EQ(narrow.size(), 600u);
  EXPECT_TRUE(std::is_sorted(narrow.begin(), narrow.end(), ArrivesBefore));

  SchemaPtr schema = golden::GoldenSchema();
  VectorSource source(schema, golden::GoldenStream(schema, 300));
  ProcessOptions options;
  options.num_substreams = 3;
  options.overlap_fraction = 1.0;
  options.seed = 13;
  PollutionProcess process(options);
  for (int s = 0; s < 3; ++s) process.AddPipeline(golden::GoldenPipeline(1));
  auto run = process.Run(&source);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  PollutionResult narrow_result;
  narrow_result.polluted = std::move(narrow);
  PollutionResult run_polluted;
  run_polluted.polluted = std::move(run.ValueOrDie().polluted);
  EXPECT_EQ(golden::DigestResult(narrow_result),
            golden::DigestResult(run_polluted));
}

TEST(ProcessBoundsTest, ExplicitBoundsAccepted) {
  SchemaPtr schema = golden::GoldenSchema();
  TupleVector tuples = golden::GoldenStream(schema, 50);
  VectorSource source(schema, std::move(tuples));
  ProcessOptions options;
  options.num_substreams = 1;
  options.seed = 42;
  options.stream_start = 0;
  options.stream_end = 1;
  PollutionProcess process(options);
  process.AddPipeline(golden::GoldenPipeline(0));
  EXPECT_TRUE(process.Run(&source).ok());
}

TEST(ProcessBoundsTest, EqualBoundsAccepted) {
  SchemaPtr schema = golden::GoldenSchema();
  VectorSource source(schema, golden::GoldenStream(schema, 10));
  ProcessOptions options;
  options.stream_start = 1456790400;
  options.stream_end = 1456790400;
  PollutionProcess process(options);
  process.AddPipeline(golden::GoldenPipeline(0));
  EXPECT_TRUE(process.Run(&source).ok());
}

TEST(ProcessBoundsTest, StartAfterEndRejected) {
  SchemaPtr schema = golden::GoldenSchema();
  VectorSource source(schema, golden::GoldenStream(schema, 10));
  ProcessOptions options;
  options.stream_start = 100;
  options.stream_end = 50;
  PollutionProcess process(options);
  process.AddPipeline(golden::GoldenPipeline(0));
  Status status = process.Run(&source).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("stream_start must be <= stream_end"),
            std::string::npos);
}

TEST(ProcessBoundsTest, OnlyOneBoundRejected) {
  SchemaPtr schema = golden::GoldenSchema();
  VectorSource source(schema, golden::GoldenStream(schema, 10));
  ProcessOptions options;
  options.stream_start = 100;  // stream_end left unset
  PollutionProcess process(options);
  process.AddPipeline(golden::GoldenPipeline(0));
  Status status = process.Run(&source).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("set together"), std::string::npos);
}

TEST(ProcessBoundsTest, UnsetBoundsDerivedFromInput) {
  // Default-constructed options (no bounds) must still run and derive
  // bounds from the stream; identical to setting min/max explicitly.
  SchemaPtr schema = golden::GoldenSchema();
  ProcessOptions derived_options;
  derived_options.seed = 9;
  VectorSource s1(schema, golden::GoldenStream(schema, 100));
  PollutionProcess derived(derived_options);
  derived.AddPipeline(golden::GoldenPipeline(1));
  auto a = derived.Run(&s1);
  ASSERT_TRUE(a.ok());

  ProcessOptions explicit_options = derived_options;
  const TupleVector& clean = a.ValueOrDie().clean;
  explicit_options.stream_start = clean.front().event_time();
  explicit_options.stream_end = clean.back().event_time();
  VectorSource s2(schema, golden::GoldenStream(schema, 100));
  PollutionProcess explicit_process(explicit_options);
  explicit_process.AddPipeline(golden::GoldenPipeline(1));
  auto b = explicit_process.Run(&s2);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(golden::DigestResult(a.ValueOrDie()),
            golden::DigestResult(b.ValueOrDie()));
}

TEST(ProcessBoundsTest, EmptySourceRuns) {
  SchemaPtr schema = golden::GoldenSchema();
  VectorSource source(schema, {});
  ProcessOptions options;
  options.num_substreams = 2;
  PollutionProcess process(options);
  process.AddPipeline(golden::GoldenPipeline(0));
  process.AddPipeline(golden::GoldenPipeline(1));
  auto result = process.Run(&source);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().polluted.empty());
}

}  // namespace
}  // namespace icewafl
