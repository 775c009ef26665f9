// Property-based tests: parameterized sweeps over probabilities, seeds,
// and process configurations asserting the pollution model's invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <tuple>

#include "core/errors_numeric.h"
#include "core/errors_value.h"
#include "core/process.h"
#include "io/csv.h"

namespace icewafl {
namespace {

SchemaPtr PropertySchema() {
  return Schema::Make({{"ts", ValueType::kInt64},
                       {"a", ValueType::kDouble},
                       {"b", ValueType::kDouble},
                       {"label", ValueType::kString}},
                      "ts")
      .ValueOrDie();
}

TupleVector PropertyStream(const SchemaPtr& schema, size_t n,
                           uint64_t seed) {
  Rng rng(seed);
  TupleVector tuples;
  for (size_t i = 0; i < n; ++i) {
    tuples.emplace_back(
        schema,
        std::vector<Value>{
            Value(static_cast<int64_t>(i) * kSecondsPerHour),
            Value(rng.Gaussian(50.0, 10.0)), Value(rng.Uniform(0.0, 1.0)),
            Value(rng.Bernoulli(0.5) ? "x" : "y")});
  }
  return tuples;
}

PollutionPipeline NullPipeline(double p) {
  PollutionPipeline pipeline("nulls");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "nuller", std::make_unique<MissingValueError>(),
      std::make_unique<RandomCondition>(p), std::vector<std::string>{"a"}));
  return pipeline;
}

// ---------------------------------------------------------------------
// Property: realized pollution rate concentrates around the configured
// probability, for any probability and seed.
// ---------------------------------------------------------------------
class PollutionRateProperty
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(PollutionRateProperty, RealizedRateMatchesProbability) {
  const auto [p, seed] = GetParam();
  const size_t n = 20000;
  SchemaPtr schema = PropertySchema();
  VectorSource source(schema, PropertyStream(schema, n, seed));
  auto result = PollutionProcess::Pollute(&source, NullPipeline(p), seed);
  ASSERT_TRUE(result.ok());
  const double rate =
      static_cast<double>(result.ValueOrDie().log.size()) /
      static_cast<double>(n);
  // 5 sigma of a binomial proportion.
  const double tolerance =
      5.0 * std::sqrt(p * (1.0 - p) / static_cast<double>(n)) + 1e-9;
  EXPECT_NEAR(rate, p, tolerance) << "p=" << p << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    RateSweep, PollutionRateProperty,
    ::testing::Combine(::testing::Values(0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 1.0),
                       ::testing::Values(1u, 42u, 31337u)));

// ---------------------------------------------------------------------
// Property: the process is deterministic and its seed drives every
// draw, for any sub-stream count and overlap.
// ---------------------------------------------------------------------
class ProcessConfigProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

std::vector<std::pair<TupleId, std::string>> Fingerprint(
    const PollutionResult& result) {
  std::vector<std::pair<TupleId, std::string>> fp;
  for (const Tuple& t : result.polluted) {
    fp.emplace_back(t.id(), t.value(1).ToString("NULL") + "|" +
                                std::to_string(t.substream()));
  }
  return fp;
}

TEST_P(ProcessConfigProperty, DeterministicAndParallelConsistent) {
  const auto [m, overlap] = GetParam();
  SchemaPtr schema = PropertySchema();
  const TupleVector stream = PropertyStream(schema, 3000, 77);
  auto run = [&](uint64_t seed) {
    ProcessOptions options;
    options.num_substreams = m;
    options.overlap_fraction = overlap;
    options.seed = seed;
    PollutionProcess process(options);
    for (int i = 0; i < m; ++i) process.AddPipeline(NullPipeline(0.3));
    VectorSource source(schema, stream);
    auto result = process.Run(&source);
    EXPECT_TRUE(result.ok());
    return Fingerprint(result.ValueOrDie());
  };
  const auto first = run(5);
  EXPECT_EQ(first, run(5));  // deterministic
  EXPECT_NE(first, run(6));  // seed changes the draw
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, ProcessConfigProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 8),
                       ::testing::Values(0.0, 0.25)));

// ---------------------------------------------------------------------
// Property: polluters only touch their target attributes; everything
// else survives bit-identical, for every error type.
// ---------------------------------------------------------------------
class TargetIsolationProperty : public ::testing::TestWithParam<int> {};

ErrorFunctionPtr MakeError(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<GaussianNoiseError>(5.0);
    case 1:
      return std::make_unique<UniformNoiseError>(0.1, 0.5);
    case 2:
      return std::make_unique<ScaleError>(0.125);
    case 3:
      return std::make_unique<OffsetError>(-3.0);
    case 4:
      return std::make_unique<RoundError>(1);
    case 5:
      return std::make_unique<MissingValueError>();
    case 6:
      return std::make_unique<SetConstantError>(Value(0.0));
    default:
      return std::make_unique<OutlierError>(5.0, 10.0);
  }
}

TEST_P(TargetIsolationProperty, UntargetedAttributesUntouched) {
  SchemaPtr schema = PropertySchema();
  const TupleVector stream = PropertyStream(schema, 500, 11);
  PollutionPipeline pipeline("isolation");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "only_a", MakeError(GetParam()), std::make_unique<AlwaysCondition>(),
      std::vector<std::string>{"a"}));
  VectorSource source(schema, stream);
  auto result = PollutionProcess::Pollute(&source, std::move(pipeline), 3);
  ASSERT_TRUE(result.ok());
  const TupleVector& polluted = result.ValueOrDie().polluted;
  ASSERT_EQ(polluted.size(), stream.size());
  for (size_t i = 0; i < polluted.size(); ++i) {
    // ts (0), b (2), label (3) are never touched.
    EXPECT_EQ(polluted[i].value(0), stream[i].value(0)) << i;
    EXPECT_EQ(polluted[i].value(2), stream[i].value(2)) << i;
    EXPECT_EQ(polluted[i].value(3), stream[i].value(3)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ErrorKinds, TargetIsolationProperty,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Property: ids form a ground-truth bijection between clean tuples and
// polluted outputs (with duplicates only under overlap).
// ---------------------------------------------------------------------
class GroundTruthProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroundTruthProperty, IdsLinkCleanAndPolluted) {
  SchemaPtr schema = PropertySchema();
  const TupleVector stream = PropertyStream(schema, 2000, GetParam());
  VectorSource source(schema, stream);
  auto result =
      PollutionProcess::Pollute(&source, NullPipeline(0.5), GetParam());
  ASSERT_TRUE(result.ok());
  const PollutionResult& r = result.ValueOrDie();
  std::set<TupleId> clean_ids;
  for (const Tuple& t : r.clean) clean_ids.insert(t.id());
  EXPECT_EQ(clean_ids.size(), stream.size());
  std::set<TupleId> polluted_ids;
  for (const Tuple& t : r.polluted) {
    EXPECT_TRUE(clean_ids.count(t.id())) << t.id();
    polluted_ids.insert(t.id());
  }
  EXPECT_EQ(polluted_ids, clean_ids);  // no tuple lost, none invented
  for (const PollutionLogEntry& e : r.log.entries()) {
    EXPECT_TRUE(clean_ids.count(e.tuple_id));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroundTruthProperty,
                         ::testing::Values(1u, 7u, 99u, 12345u));

// ---------------------------------------------------------------------
// Property: for discrete errors, severity acts as a monotone
// application probability — higher severity can only pollute more.
// ---------------------------------------------------------------------
class SeverityMonotonicityProperty : public ::testing::TestWithParam<int> {};

TEST_P(SeverityMonotonicityProperty, HigherSeverityPollutesMore) {
  SchemaPtr schema = PropertySchema();
  const TupleVector stream = PropertyStream(schema, 4000, 17);
  auto pollute_count = [&](double severity) {
    ErrorFunctionPtr error = MakeError(GetParam());
    Rng rng(5);
    uint64_t changed = 0;
    for (const Tuple& original : stream) {
      Tuple t = original;
      PollutionContext ctx;
      ctx.tau = t.event_time();
      ctx.severity = severity;
      ctx.rng = &rng;
      error->Apply(&t, {1}, &ctx);
      if (!t.ValuesEqual(original)) ++changed;
    }
    return changed;
  };
  const uint64_t at_zero = pollute_count(0.0);
  const uint64_t at_half = pollute_count(0.5);
  const uint64_t at_full = pollute_count(1.0);
  EXPECT_EQ(at_zero, 0u);
  EXPECT_LE(at_half, at_full);
  EXPECT_GT(at_full, 0u);
  // At severity 0.5 a discrete error applies to roughly half the tuples;
  // continuous errors (noise/scale/offset) still change every tuple but
  // by a smaller amount — both satisfy the monotone bound above.
  EXPECT_GE(at_half, stream.size() / 3);
}

INSTANTIATE_TEST_SUITE_P(ErrorKinds, SeverityMonotonicityProperty,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Property: every change pattern stays within [0, 1] across a broad
// sweep of event times and stream bounds.
// ---------------------------------------------------------------------
TEST(ProfileRangeProperty, AllProfilesClampToUnitInterval) {
  std::vector<TimeProfilePtr> profiles;
  profiles.push_back(std::make_unique<ConstantProfile>(0.7));
  profiles.push_back(std::make_unique<AbruptProfile>(5000, -2.0, 3.0));
  profiles.push_back(
      std::make_unique<IncrementalProfile>(0, 10000, -1.0, 2.0));
  profiles.push_back(
      std::make_unique<IntermediateProfile>(0, 10000, 0.0, 1.0));
  profiles.push_back(std::make_unique<SinusoidalProfile>(24.0, 2.0, 0.0));
  profiles.push_back(std::make_unique<StreamRampProfile>(5.0));
  profiles.push_back(std::make_unique<ReoccurringProfile>(4.0, -1.0, 2.0));
  profiles.push_back(std::make_unique<SpikeProfile>(5000, 100, 2.0));
  Rng rng(23);
  for (const TimeProfilePtr& profile : profiles) {
    for (int i = 0; i < 2000; ++i) {
      PollutionContext ctx;
      ctx.tau = rng.UniformInt(-100000, 100000);
      ctx.stream_start = 0;
      ctx.stream_end = 50000;
      ctx.rng = &rng;
      const double v = profile->Evaluate(ctx);
      ASSERT_GE(v, 0.0) << profile->name() << " at " << ctx.tau;
      ASSERT_LE(v, 1.0) << profile->name() << " at " << ctx.tau;
    }
  }
}

// ---------------------------------------------------------------------
// Property: CSV serialization round-trips arbitrary polluted streams,
// including NULLs, for several null representations and delimiters.
// ---------------------------------------------------------------------
class CsvRoundTripProperty
    : public ::testing::TestWithParam<std::tuple<char, std::string>> {};

TEST_P(CsvRoundTripProperty, PollutedStreamSurvivesCsv) {
  const auto [delimiter, null_repr] = GetParam();
  SchemaPtr schema = PropertySchema();
  VectorSource source(schema, PropertyStream(schema, 300, 21));
  auto result = PollutionProcess::Pollute(&source, NullPipeline(0.4), 21);
  ASSERT_TRUE(result.ok());
  const TupleVector& polluted = result.ValueOrDie().polluted;
  CsvOptions options;
  options.delimiter = delimiter;
  options.null_repr = null_repr;
  const std::string csv = ToCsvString(schema, polluted, options);
  auto reparsed = FromCsvString(schema, csv, options);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed.ValueOrDie().size(), polluted.size());
  for (size_t i = 0; i < polluted.size(); ++i) {
    ASSERT_TRUE(reparsed.ValueOrDie()[i].ValuesEqual(polluted[i])) << i;
  }
}

// ---------------------------------------------------------------------
// Property: every Value survives WriteCsvFile -> ReadCsvFile in bits.
// Doubles are random bit patterns (denormals, infinities and NaNs come
// up) plus the edge cases, of which NaN keeps only its sign.
// ---------------------------------------------------------------------
class CsvValueBitsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvValueBitsProperty, RandomValuesRoundTripInBits) {
  SchemaPtr schema = Schema::Make({{"i", ValueType::kInt64},
                                   {"d", ValueType::kDouble},
                                   {"b", ValueType::kBool},
                                   {"s", ValueType::kString}},
                                  "i")
                         .ValueOrDie();
  const double edges[] = {-0.0,
                          0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min() / 3,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          -std::numeric_limits<double>::quiet_NaN()};
  const int64_t int_edges[] = {std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max(), 0, -1};
  const std::string chars = "ab,;\"-.09 xZ";
  Rng rng(GetParam());
  TupleVector rows;
  for (size_t i = 0; i < 2000; ++i) {
    double d = 0.0;
    if (i < std::size(edges)) {
      d = edges[i];
    } else {
      const uint64_t bits = rng.Next();
      std::memcpy(&d, &bits, sizeof(d));
    }
    const int64_t n = i < std::size(int_edges)
                          ? int_edges[i]
                          : static_cast<int64_t>(rng.Next());
    std::string s = "s";
    for (int64_t k = rng.UniformInt(0, 6); k > 0; --k) {
      s += chars[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(chars.size()) - 1))];
    }
    rows.emplace_back(schema, std::vector<Value>{Value(n), Value(d),
                                                 Value(rng.Bernoulli(0.5)),
                                                 Value(s)});
  }
  rows.emplace_back(schema, std::vector<Value>{Value(int64_t{1}), Value::Null(),
                                               Value::Null(), Value::Null()});
  const std::string path = testing::TempDir() + "/icewafl_csv_bits_" +
                           std::to_string(GetParam()) + ".csv";
  ASSERT_TRUE(WriteCsvFile(schema, rows, path).ok());
  auto back = ReadCsvFile(schema, path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.ValueOrDie().size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < 4; ++c) {
      const Value& want = rows[r].value(c);
      const Value& got = back.ValueOrDie()[r].value(c);
      if (want.is_double() && std::isnan(want.AsDouble())) {
        ASSERT_TRUE(got.is_double() && std::isnan(got.AsDouble())) << r;
        EXPECT_EQ(std::signbit(got.AsDouble()), std::signbit(want.AsDouble()))
            << "row " << r;
      } else if (want.is_double()) {
        uint64_t x = 0;
        uint64_t y = 0;
        const double dw = want.AsDouble();
        ASSERT_TRUE(got.is_double()) << "row " << r;
        const double dg = got.AsDouble();
        std::memcpy(&x, &dw, sizeof(x));
        std::memcpy(&y, &dg, sizeof(y));
        EXPECT_EQ(x, y) << "row " << r << ": " << want.ToString() << " read as "
                        << got.ToString();
      } else {
        EXPECT_TRUE(got == want) << "row " << r << ", column " << c << ": "
                                 << want.ToString() << " read as "
                                 << got.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvValueBitsProperty,
                         ::testing::Values(1u, 2u, 3u));

INSTANTIATE_TEST_SUITE_P(
    Formats, CsvRoundTripProperty,
    ::testing::Combine(::testing::Values(',', ';', '\t'),
                       ::testing::Values(std::string(""),
                                         std::string("NULL"),
                                         std::string("NA"))));

}  // namespace
}  // namespace icewafl
