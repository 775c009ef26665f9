#include "io/csv.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string_view>
#include <thread>

namespace icewafl {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make({{"ts", ValueType::kInt64},
                       {"v", ValueType::kDouble},
                       {"name", ValueType::kString},
                       {"flag", ValueType::kBool}},
                      "ts")
      .ValueOrDie();
}

TupleVector TestTuples(const SchemaPtr& schema) {
  TupleVector tuples;
  tuples.emplace_back(
      schema, std::vector<Value>{Value(int64_t{1}), Value(1.5), Value("a"),
                                 Value(true)});
  tuples.emplace_back(
      schema, std::vector<Value>{Value(int64_t{2}), Value::Null(),
                                 Value("with,comma"), Value(false)});
  tuples.emplace_back(
      schema, std::vector<Value>{Value(int64_t{3}), Value(-0.25),
                                 Value("quo\"te"), Value(true)});
  return tuples;
}

TEST(CsvTest, ParseSimpleRecords) {
  auto r = ParseCsvText("a,b\n1,2\n");
  ASSERT_TRUE(r.ok());
  const auto& recs = r.ValueOrDie();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(recs[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, ParseQuotedFieldWithDelimiterAndNewline) {
  auto r = ParseCsvText("\"a,b\",\"line1\nline2\",\"qu\"\"ote\"\n");
  ASSERT_TRUE(r.ok());
  const auto& recs = r.ValueOrDie();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0][0], "a,b");
  EXPECT_EQ(recs[0][1], "line1\nline2");
  EXPECT_EQ(recs[0][2], "qu\"ote");
}

TEST(CsvTest, ParseHandlesCrLfAndMissingTrailingNewline) {
  auto r = ParseCsvText("a,b\r\nc,d");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().size(), 2u);
  EXPECT_EQ(r.ValueOrDie()[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, ParseRejectsUnterminatedQuote) {
  EXPECT_EQ(ParseCsvText("\"open").status().code(), StatusCode::kParseError);
}

TEST(CsvTest, ParseEmptyInput) {
  EXPECT_EQ(ParseCsvText("").ValueOrDie().size(), 0u);
}

TEST(CsvTest, EscapeCsvField) {
  EXPECT_EQ(EscapeCsvField("plain", ','), "plain");
  EXPECT_EQ(EscapeCsvField("a,b", ','), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("q\"t", ','), "\"q\"\"t\"");
  EXPECT_EQ(EscapeCsvField("nl\n", ','), "\"nl\n\"");
}

TEST(CsvTest, StringRoundTripPreservesTypesAndNulls) {
  SchemaPtr schema = TestSchema();
  TupleVector tuples = TestTuples(schema);
  const std::string csv = ToCsvString(schema, tuples);
  auto parsed = FromCsvString(schema, csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TupleVector& out = parsed.ValueOrDie();
  ASSERT_EQ(out.size(), tuples.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i].ValuesEqual(tuples[i])) << "tuple " << i;
  }
  EXPECT_TRUE(out[1].value(1).is_null());
  EXPECT_TRUE(out[0].value(3).is_bool());
}

TEST(CsvTest, HeaderMismatchRejected) {
  SchemaPtr schema = TestSchema();
  auto r = FromCsvString(schema, "wrong,header,row,x\n1,2,a,true\n");
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, FieldCountMismatchRejected) {
  SchemaPtr schema = TestSchema();
  auto r = FromCsvString(schema, "ts,v,name,flag\n1,2,a\n");
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, TypeConversionFailureRejected) {
  SchemaPtr schema = TestSchema();
  auto r = FromCsvString(schema, "ts,v,name,flag\nnot_an_int,2,a,true\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvTest, CustomNullReprAndDelimiter) {
  SchemaPtr schema = TestSchema();
  TupleVector tuples = TestTuples(schema);
  CsvOptions options;
  options.delimiter = ';';
  options.null_repr = "NA";
  const std::string csv = ToCsvString(schema, tuples, options);
  EXPECT_NE(csv.find("NA"), std::string::npos);
  auto parsed = FromCsvString(schema, csv, options);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.ValueOrDie()[1].value(1).is_null());
}

TEST(CsvTest, NoHeaderMode) {
  SchemaPtr schema = TestSchema();
  CsvOptions options;
  options.header = false;
  const std::string csv = ToCsvString(schema, TestTuples(schema), options);
  EXPECT_EQ(csv.find("ts,"), std::string::npos);
  auto parsed = FromCsvString(schema, csv, options);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie().size(), 3u);
}

TEST(CsvTest, FileRoundTrip) {
  SchemaPtr schema = TestSchema();
  TupleVector tuples = TestTuples(schema);
  const std::string path = testing::TempDir() + "/icewafl_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(schema, tuples, path).ok());
  auto parsed = ReadCsvFile(schema, path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().size(), 3u);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileIsIOError) {
  SchemaPtr schema = TestSchema();
  EXPECT_EQ(ReadCsvFile(schema, "/nonexistent/path.csv").status().code(),
            StatusCode::kIOError);
}

// ---------------------------------------------------------------------
// Round-trip hardening: hostile field content must survive the writer →
// parser cycle byte-for-byte, for both the whole-string and the file
// reader, under default and custom delimiters.
// ---------------------------------------------------------------------

SchemaPtr StringPairSchema() {
  return Schema::Make(
             {{"ts", ValueType::kInt64}, {"payload", ValueType::kString}},
             "ts")
      .ValueOrDie();
}

std::vector<std::string> HostilePayloads() {
  return {
      "plain",
      "comma,inside",
      "semi;inside",
      "quote\"inside",
      "\"leading quote",
      "trailing quote\"",
      "\"wrapped in quotes\"",
      "\"\"",                       // just two quote chars
      "line1\nline2",               // embedded LF
      "line1\r\nline2",             // embedded CRLF
      "bare\rreturn",               // embedded bare CR
      "\n",                         // newline only
      "\r\n",                       // CRLF only
      "  padded  ",                 // spaces preserved unquoted
      "tab\tinside",
      "mixed,\"all\"\nof\r\nit\r",  // everything at once
  };
}

TEST(CsvHardening, HostilePayloadsRoundTripDefaultDelimiter) {
  SchemaPtr schema = StringPairSchema();
  TupleVector tuples;
  int64_t ts = 0;
  for (const std::string& payload : HostilePayloads()) {
    tuples.emplace_back(schema,
                        std::vector<Value>{Value(ts++), Value(payload)});
  }
  const std::string text = ToCsvString(schema, tuples);
  auto back = FromCsvString(schema, text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.ValueOrDie().size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(back.ValueOrDie()[i].value(1).AsString(),
              tuples[i].value(1).AsString())
        << "payload " << i << " corrupted by the round trip";
  }
}

TEST(CsvHardening, HostilePayloadsRoundTripCustomDelimiter) {
  SchemaPtr schema = StringPairSchema();
  CsvOptions options;
  options.delimiter = ';';
  TupleVector tuples;
  int64_t ts = 0;
  for (const std::string& payload : HostilePayloads()) {
    tuples.emplace_back(schema,
                        std::vector<Value>{Value(ts++), Value(payload)});
  }
  const std::string text = ToCsvString(schema, tuples, options);
  auto back = FromCsvString(schema, text, options);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.ValueOrDie().size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(back.ValueOrDie()[i].value(1).AsString(),
              tuples[i].value(1).AsString())
        << "payload " << i;
  }
}

TEST(CsvHardening, StreamingParserAgreesOnHostileFile) {
  SchemaPtr schema = StringPairSchema();
  TupleVector tuples;
  int64_t ts = 0;
  for (const std::string& payload : HostilePayloads()) {
    tuples.emplace_back(schema,
                        std::vector<Value>{Value(ts++), Value(payload)});
  }
  const std::string path = testing::TempDir() + "/icewafl_csv_hostile.csv";
  ASSERT_TRUE(WriteCsvFile(schema, tuples, path).ok());
  auto read = ReadCsvFile(schema, path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.ValueOrDie().size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(read.ValueOrDie()[i].value(1).AsString(),
              tuples[i].value(1).AsString())
        << "payload " << i << " corrupted by the file scanner";
  }
  std::remove(path.c_str());
}

TEST(CsvHardening, EscapeQuotesExactlyWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("plain", ','), "plain");
  EXPECT_EQ(EscapeCsvField("semi;fine", ','), "semi;fine");
  EXPECT_EQ(EscapeCsvField("a,b", ','), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("a\rb", ','), "\"a\rb\"");
  EXPECT_EQ(EscapeCsvField("a\nb", ','), "\"a\nb\"");
  EXPECT_EQ(EscapeCsvField("a\"b", ','), "\"a\"\"b\"");
  // The delimiter, not a hard-coded comma, decides the quoting.
  EXPECT_EQ(EscapeCsvField("a,b", ';'), "a,b");
  EXPECT_EQ(EscapeCsvField("a;b", ';'), "\"a;b\"");
}

TEST(CsvHardening, BareCarriageReturnTerminatesRecord) {
  auto r = ParseCsvText("a,b\rc,d\r");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().size(), 2u);
  EXPECT_EQ(r.ValueOrDie()[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r.ValueOrDie()[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvHardening, CarriageReturnsInsideQuotesArePreserved) {
  auto r = ParseCsvText("\"a\rb\",\"c\r\nd\"\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().size(), 1u);
  EXPECT_EQ(r.ValueOrDie()[0][0], "a\rb");
  EXPECT_EQ(r.ValueOrDie()[0][1], "c\r\nd");
}

TEST(CsvHardening, HostileHeaderNamesRoundTripThroughFiles) {
  auto schema = Schema::Make({{"t,s", ValueType::kInt64},
                              {"na\"me", ValueType::kString},
                              {"li\nne", ValueType::kDouble}},
                             "t,s");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  TupleVector tuples;
  tuples.emplace_back(
      schema.ValueOrDie(),
      std::vector<Value>{Value(int64_t{9}), Value("v"), Value(0.5)});
  const std::string path = testing::TempDir() + "/icewafl_csv_header.csv";
  ASSERT_TRUE(WriteCsvFile(schema.ValueOrDie(), tuples, path).ok());
  auto back = ReadCsvFile(schema.ValueOrDie(), path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie().size(), 1u);
  std::remove(path.c_str());
}

TEST(CsvHardening, QuotedEmptyFieldStaysDistinctFromMissingRecord) {
  auto r = ParseCsvText("\"\"\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().size(), 1u);
  EXPECT_EQ(r.ValueOrDie()[0], (std::vector<std::string>{""}));
}

// ---------------------------------------------------------------------
// One scanner, two ways in: text in memory (ParseCsvText, FromCsvString)
// and a file read in chunks (ReadCsvFile).
// ---------------------------------------------------------------------

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

// Every record of the file at `path`, through the file scanner.
Result<std::vector<std::vector<std::string>>> ScanFile(const std::string& path) {
  ICEWAFL_ASSIGN_OR_RETURN(std::unique_ptr<CsvScanner> scanner,
                           CsvScanner::OpenFile(path, ','));
  std::vector<std::vector<std::string>> records;
  std::vector<std::string_view> fields;
  while (true) {
    ICEWAFL_ASSIGN_OR_RETURN(bool more, scanner->Next(&fields));
    if (!more) return records;
    records.emplace_back(fields.begin(), fields.end());
  }
}

TEST(CsvHardening, RawCasesAgreeAcrossEntryPoints) {
  const std::string cases[] = {
      "a,b\n1,2\n",                                  // plain
      "a,b\r\nc,d",                                  // CRLF, no final newline
      "a,b\rc,d\r",                                  // bare CR
      "\"a,b\",\"line1\nline2\",\"qu\"\"ote\"\n",    // quotes, delimiters
      "\"a\rb\",\"c\r\nd\"\n",                       // CRs inside quotes
      "\"\"\n",                                      // quoted empty field
      "x\"y,\"\"z\n",                                // quote mid-field
      "\"open",                                      // unterminated quote
      "a,\"b\nc",                                    // unterminated, later
      "",                                            // empty input
      ",\n,,\n",                                     // empty fields
  };
  const std::string path = testing::TempDir() + "/icewafl_csv_raw.csv";
  for (const std::string& text : cases) {
    WriteText(path, text);
    auto in_memory = ParseCsvText(text);
    auto from_file = ScanFile(path);
    ASSERT_EQ(in_memory.status().code(), from_file.status().code())
        << "'" << text << "'";
    if (in_memory.ok()) {
      EXPECT_EQ(in_memory.ValueOrDie(), from_file.ValueOrDie())
          << "'" << text << "'";
    }
  }
  EXPECT_EQ(ParseCsvText("a,\"b\nc").status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CsvHardening, ChunkBoundariesInsideQuotesAndLineEnds) {
  // The file scanner reads 64 KiB at a time. Slide a run of doubled
  // quotes, CRLFs and bare CRs across the first chunk boundary, one byte
  // at a time: every split must read like the text in memory.
  SchemaPtr schema = StringPairSchema();
  const std::string head = "ts,payload\n0,";
  const std::string tail =
      "\n1,\"q\"\"x\"\r\n2,\"a\r\nb\"\r3,\"\"\"\"\r\n4,z\r";
  const std::string path = testing::TempDir() + "/icewafl_csv_chunks.csv";
  for (size_t shift = 0; shift < tail.size() + 2; ++shift) {
    const size_t filler = 64 * 1024 - head.size() - tail.size() + shift;
    const std::string text = head + std::string(filler, 'f') + tail;
    WriteText(path, text);
    auto in_memory = FromCsvString(schema, text);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    ASSERT_EQ(in_memory.ValueOrDie().size(), 5u);
    EXPECT_EQ(in_memory.ValueOrDie()[1].value(1).AsString(), "q\"x");
    EXPECT_EQ(in_memory.ValueOrDie()[2].value(1).AsString(), "a\r\nb");
    EXPECT_EQ(in_memory.ValueOrDie()[3].value(1).AsString(), "\"");
    auto read = ReadCsvFile(schema, path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(read.ValueOrDie().size(), 5u) << "shift " << shift;
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(read.ValueOrDie()[i].ValuesEqual(in_memory.ValueOrDie()[i]))
          << "shift " << shift << " record " << i;
    }
  }
  std::remove(path.c_str());
}

// A character-at-a-time reference for CsvScanner's rules: the oracle for
// its memchr fast path and its buffer moves (same records, same
// failures).
Result<std::vector<std::vector<std::string>>> ReferenceScan(
    std::string_view text, char delimiter) {
  std::vector<std::vector<std::string>> records;
  size_t pos = 0;
  while (pos < text.size()) {
    std::vector<std::string> fields(1);
    bool in_quotes = false;
    bool ended = false;
    while (pos < text.size() && !ended) {
      const char c = text[pos++];
      std::string& field = fields.back();
      if (in_quotes) {
        if (c != '"') {
          field.push_back(c);
        } else if (pos < text.size() && text[pos] == '"') {
          field.push_back('"');
          ++pos;
        } else {
          in_quotes = false;
        }
      } else if (c == '"' && field.empty()) {
        in_quotes = true;
      } else if (c == delimiter) {
        fields.emplace_back();
      } else if (c == '\n') {
        ended = true;
      } else if (c == '\r') {
        if (pos < text.size() && text[pos] == '\n') ++pos;
        ended = true;
      } else {
        field.push_back(c);
      }
    }
    if (in_quotes) return Status::ParseError("unterminated quoted CSV field");
    records.push_back(std::move(fields));
  }
  return records;
}

void ExpectSameScan(const Result<std::vector<std::vector<std::string>>>& want,
                    const Result<std::vector<std::vector<std::string>>>& got,
                    const std::string& what) {
  ASSERT_EQ(want.status().code(), got.status().code()) << what;
  if (want.ok()) {
    EXPECT_EQ(want.ValueOrDie(), got.ValueOrDie()) << what;
  }
}

TEST(CsvHardening, ScannerMatchesCharacterReferenceOnRandomTexts) {
  // 5,000 seeded texts over the characters the scanner treats specially,
  // each scanned in memory, from a file, and from a file where it
  // straddles the first 64 KiB read (a plain filler record before it).
  constexpr size_t kChunk = 64 * 1024;
  const char alphabet[] = {'a', 'b', ',', ';', '"', '\r', '\n'};
  std::mt19937_64 rng(20250326);
  const std::string path = testing::TempDir() + "/icewafl_csv_oracle.csv";
  for (int i = 0; i < 5000; ++i) {
    std::string text(rng() % 201, '\0');
    for (char& c : text) c = alphabet[rng() % sizeof(alphabet)];
    const std::string what = "text " + std::to_string(i);
    const auto want = ReferenceScan(text, ',');
    ExpectSameScan(want, ParseCsvText(text), what + " in memory");
    WriteText(path, text);
    ExpectSameScan(want, ScanFile(path), what + " from a file");

    // The read boundary falls before text[split].
    const size_t split = rng() % (text.size() + 1);
    const std::string filler(kChunk - split - 1, 'f');
    const std::string placed = filler + "\n" + text;
    WriteText(path, placed);
    auto placed_want = want;
    if (placed_want.ok()) {
      placed_want.ValueOrDie().insert(placed_want.ValueOrDie().begin(),
                                      std::vector<std::string>{filler});
    }
    ExpectSameScan(placed_want, ScanFile(path),
                   what + " across the read boundary at " +
                       std::to_string(split));
    ExpectSameScan(placed_want, ParseCsvText(placed), what + " placed");
    if (HasFailure()) break;  // one failing text is enough to read
  }
  std::remove(path.c_str());
}

TEST(CsvHardening, NumbersThatMeetTheDelimiterRoundTripThroughFiles) {
  // The writer skips the quoting scan for bool/int64/double text unless
  // the delimiter can occur in it; a wrongly skipped quote splits a value
  // and the read-back fails or differs.
  SchemaPtr schema = Schema::Make({{"i", ValueType::kInt64},
                                   {"d", ValueType::kDouble},
                                   {"b", ValueType::kBool},
                                   {"s", ValueType::kString}},
                                  "i")
                         .ValueOrDie();
  const double doubles[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::ldexp(1.0, 60), -std::ldexp(1.0, -20), std::ldexp(1.0, -1074),
      1e15, -1e15, 1.5, -0.25, 2.2250738585072009e-308, 0.0,
  };
  const int64_t ints[] = {std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(), -1, 0, 10};
  TupleVector tuples;
  for (size_t i = 0; i < std::size(doubles); ++i) {
    tuples.emplace_back(
        schema, std::vector<Value>{Value(ints[i % std::size(ints)]),
                                   Value(doubles[i]), Value(i % 2 == 0),
                                   Value("s")});
  }
  tuples.emplace_back(schema, std::vector<Value>{Value(int64_t{1}),
                                                 Value::Null(), Value::Null(),
                                                 Value::Null()});
  auto same_value = [](const Value& a, const Value& b) {
    if (a.is_double() && b.is_double()) {
      uint64_t x = 0;
      uint64_t y = 0;
      const double da = a.AsDouble();
      const double db = b.AsDouble();
      std::memcpy(&x, &da, sizeof(x));
      std::memcpy(&y, &db, sizeof(y));
      return x == y;
    }
    return a == b;
  };
  const std::string path = testing::TempDir() + "/icewafl_csv_numbers.csv";
  for (const char delimiter : {',', '.', '-', '+', 'e', 'n', 'a', '1', 't'}) {
    for (const std::string& null_repr :
         {std::string(), std::string("NULL"), std::string(1, delimiter) + "x",
          std::string("q\"")}) {
      const CsvOptions options{delimiter, null_repr, true};
      const std::string what = std::string("delimiter '") + delimiter +
                               "', null '" + null_repr + "'";
      ASSERT_TRUE(WriteCsvFile(schema, tuples, path, options).ok()) << what;
      auto back = ReadCsvFile(schema, path, options);
      ASSERT_TRUE(back.ok()) << what << ": " << back.status().ToString();
      ASSERT_EQ(back.ValueOrDie().size(), tuples.size()) << what;
      for (size_t r = 0; r < tuples.size(); ++r) {
        for (size_t c = 0; c < 4; ++c) {
          EXPECT_TRUE(same_value(back.ValueOrDie()[r].value(c),
                                 tuples[r].value(c)))
              << what << ", row " << r << ", column " << c << ": '"
              << back.ValueOrDie()[r].value(c).ToString() << "' vs '"
              << tuples[r].value(c).ToString() << "'";
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, ReadDirectoryIsIOErrorNamingThePath) {
  SchemaPtr schema = TestSchema();
  const std::string dir = testing::TempDir();
  const Status read = ReadCsvFile(schema, dir).status();
  EXPECT_EQ(read.code(), StatusCode::kIOError) << read.ToString();
  EXPECT_NE(read.message().find(dir), std::string::npos) << read.ToString();
}

TEST(CsvTest, ReadsFromAFifo) {
  SchemaPtr schema = TestSchema();
  const std::string text = ToCsvString(schema, TestTuples(schema));
  const std::string path = testing::TempDir() + "/icewafl_csv_fifo";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  // Opening a FIFO blocks until both ends are open: feed it from a
  // thread.
  std::thread writer([&] { WriteText(path, text); });
  auto read = ReadCsvFile(schema, path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie().size(), 3u);
}

}  // namespace
}  // namespace icewafl
