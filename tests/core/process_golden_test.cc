#include <gtest/gtest.h>

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
