#include "util/regex.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "stream/value.h"
#include "util/json.h"

// std::regex is the reference here: the matcher must decide every
// accepted pattern exactly as std::regex_match does under ECMAScript.

namespace icewafl {
namespace {

/// What the cleaner and the suite match against: rendered values of
/// every type, plus strings with line terminators.
std::vector<std::string> RenderedInputs() {
  const std::vector<Value> values = {
      Value(0.0),
      Value(-0.0),
      Value(1e21),
      Value(-1e21),
      Value(1.5e-7),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(std::numeric_limits<double>::infinity()),
      Value(5.0),
      Value(12.5),
      Value(3.14159),
      Value(1.234),
      Value(0.001),
      Value(2.25),
      Value(int64_t{0}),
      Value(int64_t{42}),
      Value(int64_t{-7}),
      Value(true),
      Value(false),
      Value(""),
      Value("ok"),
      Value("warn"),
      Value("a\nb"),
      Value("1.234\n"),
      Value("\r"),
      Value("\n"),
      Value("ab\r"),
      Value("x y_z"),
  };
  std::vector<std::string> out;
  for (const Value& v : values) out.push_back(v.ToString());
  return out;
}

void ExpectAgrees(const std::string& pattern,
                  const std::vector<std::string>& inputs) {
  Result<Regex> compiled = Regex::Compile(pattern);
  ASSERT_TRUE(compiled.ok()) << pattern << ": " << compiled.status().ToString();
  const std::regex reference(pattern, std::regex::ECMAScript);
  for (const std::string& input : inputs) {
    EXPECT_EQ(compiled.ValueOrDie().FullMatch(input),
              std::regex_match(input, reference))
        << "pattern '" << pattern << "' on '" << input << "'";
  }
}

/// Every "regex" / regex-rule "pattern" string in a JSON document.
void CollectPatterns(const Json& json, std::vector<std::string>* out) {
  if (json.is_object()) {
    for (const auto& [key, value] : json.fields()) {
      if ((key == "regex" || key == "pattern") && value.is_string()) {
        out->push_back(value.AsString());
      }
      CollectPatterns(value, out);
    }
  } else if (json.is_array()) {
    for (const Json& item : json.items()) CollectPatterns(item, out);
  }
}

TEST(RegexOracleTest, ShippedAndTestPatternsAgreeWithStdRegex) {
  std::vector<std::string> patterns = {
      R"(0|\d+\.\d{3,})", R"(\d+\.\d{3,})", R"(\d+\.\d{3})", R"(\d+)",
      ".*",               "ok|warn",        R"(\d{2})",      R"(\d{2,4})",
  };
  size_t from_configs = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(ICEWAFL_CONFIG_DIR)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    Result<Json> json = Json::Parse(text.str());
    ASSERT_TRUE(json.ok()) << entry.path();
    const size_t before = patterns.size();
    CollectPatterns(json.ValueOrDie(), &patterns);
    from_configs += patterns.size() - before;
  }
  // wearable_suite.json and software_update_clean.json carry one each.
  EXPECT_GE(from_configs, 2u);
  const std::vector<std::string> inputs = RenderedInputs();
  for (const std::string& p : patterns) ExpectAgrees(p, inputs);
}

/// Seeded patterns from the accepted grammar.
class PatternGenerator {
 public:
  explicit PatternGenerator(uint64_t seed) : rng_(seed) {}

  std::string Pattern() {
    std::string p;
    if (Chance(10)) p += '^';
    p += Alternation(0, false);
    if (Chance(10)) p += '$';
    return p;
  }

 private:
  bool Chance(int percent) { return Pick(100) < percent; }
  int Pick(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng_);
  }
  template <typename T>
  const T& OneOf(const std::vector<T>& items) {
    return items[static_cast<size_t>(Pick(static_cast<int>(items.size())))];
  }

  // `in_loop`: inside a group under an unbounded quantifier, where no
  // quantifier follows: std::regex backtracks without end on a loop
  // over quantified parts that can match empty.
  std::string Alternation(int depth, bool in_loop) {
    std::string p = Concat(depth, in_loop);
    while (Chance(25)) p += "|" + Concat(depth, in_loop);
    return p;
  }

  std::string Concat(int depth, bool in_loop) {
    std::string p;
    const int items = Pick(4);
    for (int i = 0; i < items; ++i) p += Item(depth, in_loop);
    return p;
  }

  std::string Item(int depth, bool in_loop) {
    static const std::vector<std::string> kBounded = {"?", "{2}", "{0,2}",
                                                       "{2,3}", "{0}"};
    static const std::vector<std::string> kUnbounded = {"*", "+", "{1,}",
                                                         "{3,}"};
    std::string quantifier;
    bool unbounded = false;
    if (!in_loop && Chance(40)) {
      unbounded = Chance(50);
      quantifier = OneOf(unbounded ? kUnbounded : kBounded);
      if (Chance(20)) quantifier += '?';
    }
    return Atom(depth, in_loop || unbounded) + quantifier;
  }

  std::string Atom(int depth, bool in_loop) {
    static const std::vector<std::string> kAtoms = {
        "a",   "b",   "0",   "1",   "9",   "-",   "x",   "e",
        ".",   "\\.", "\\d", "\\D", "\\w", "\\W", "\\s", "\\S", "\\n",
        "\\r", "\\t", "\\-", "\\+", "\\x41", "\\0", "]", "}", " ", "_"};
    const int kind = Pick(depth < 3 ? 10 : 7);
    if (kind < 5) return OneOf(kAtoms);
    if (kind < 7) return Class();
    if (kind < 9) return "(" + Alternation(depth + 1, in_loop) + ")";
    return "(?:" + Alternation(depth + 1, in_loop) + ")";
  }

  std::string Class() {
    static const std::vector<std::string> kMembers = {
        "a",   "b",   "0",   "9",   "x",   ".",   "e",   "a-c",
        "0-9", "a-z", "\\d", "\\w", "\\s", "\\D", "\\W", "\\S",
        "\\]", "\\-", "\\n", "\\r", "+",   "_",   " ",   "\\\\"};
    std::string p = "[";
    if (Chance(30)) p += '^';
    if (Chance(10)) p += '-';
    const int members = 1 + Pick(3);
    for (int i = 0; i < members; ++i) p += OneOf(kMembers);
    if (Chance(10)) p += '-';
    return p + "]";
  }

  std::mt19937_64 rng_;
};

std::vector<std::string> RandomInputs(std::mt19937_64* rng) {
  static const std::string kAlphabet = "ab019.-xe+ _]}\n\r\tA";
  std::vector<std::string> inputs = RenderedInputs();
  for (int i = 0; i < 40; ++i) {
    const int length = std::uniform_int_distribution<int>(0, 7)(*rng);
    std::string s;
    for (int k = 0; k < length; ++k) {
      s += kAlphabet[std::uniform_int_distribution<size_t>(
          0, kAlphabet.size() - 1)(*rng)];
    }
    inputs.push_back(s);
  }
  return inputs;
}

TEST(RegexOracleTest, GeneratedPatternsAgreeWithStdRegex) {
  PatternGenerator generator(20241022);
  std::mt19937_64 input_rng(7);
  int compared = 0;
  int matched = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::string pattern = generator.Pattern();
    Result<Regex> compiled = Regex::Compile(pattern);
    if (!compiled.ok()) {
      // Only the state cap may refuse a pattern of this grammar.
      EXPECT_NE(compiled.status().message().find("states"), std::string::npos)
          << pattern << ": " << compiled.status().ToString();
      continue;
    }
    const std::regex reference(pattern, std::regex::ECMAScript);
    for (const std::string& input : RandomInputs(&input_rng)) {
      const bool expected = std::regex_match(input, reference);
      ASSERT_EQ(compiled.ValueOrDie().FullMatch(input), expected)
          << "pattern '" << pattern << "' on '" << input << "'";
      matched += expected ? 1 : 0;
    }
    ++compared;
  }
  EXPECT_GT(compared, 1400);
  // Both outcomes occur often enough to tell a wrong table from a
  // right one.
  EXPECT_GT(matched, 5000);
}

TEST(RegexTest, LazyQuantifiersMatchTheSameStrings) {
  for (const char* pattern : {"a*?b", "a+?", "a??b", "a{1,3}?", "(ab)*?"}) {
    ExpectAgrees(pattern, {"", "a", "b", "ab", "aab", "aaab", "aaaa", "abab"});
  }
}

TEST(RegexTest, DotExcludesLineTerminators) {
  Regex dot = Regex::Compile(".*").ValueOrDie();
  EXPECT_TRUE(dot.FullMatch("any thing"));
  EXPECT_FALSE(dot.FullMatch("a\nb"));
  EXPECT_FALSE(dot.FullMatch("\r"));
  EXPECT_TRUE(Regex::Compile("[^a]").ValueOrDie().FullMatch("\n"));
}

TEST(RegexTest, KeepsItsPattern) {
  EXPECT_EQ(Regex::Compile("ok|warn").ValueOrDie().pattern(), "ok|warn");
}

/// Each refused construct: a diagnostic that names it, never a throw.
TEST(RegexTest, RefusesConstructsOutsideTheSubset) {
  const std::vector<std::pair<std::string, std::string>> refused = {
      {R"((a)\1)", "backreference '\\1'"},
      {"a(?=b)", "lookahead '(?='"},
      {"a(?!b)", "lookahead '(?!'"},
      {"(?<=a)b", "lookbehind"},
      {R"(\bword)", "word boundary '\\b'"},
      {R"(a\B)", "word boundary '\\B'"},
      {"a^b", "anchor '^'"},
      {"a$b", "anchor '$'"},
      {R"(\cA)", "control escape"},
      {R"(\u0041)", "unicode escape"},
      {R"(\q)", "escape '\\q'"},
      {"[[:alpha:]]", "POSIX bracket"},
      {R"([\b])", "backspace escape"},
      {"[]", "empty class"},
      {"[^]", "empty class"},
      {"a**", "stacked quantifier"},
      {"a{2}{3}", "stacked quantifier"},
      {"[a-c-e]", "after a range"},
      {"[--a]", "range endpoint"},
      {"[\x80-\xff]", "non-ASCII range endpoint"},
      {"a{1001}", "repetition count over 1000"},
      {"(a|b)*a(a|b){12}", "DFA states"},
      {"(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
       "((a))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))"
       ")",
       "nested"},
  };
  for (const auto& [pattern, construct] : refused) {
    Result<Regex> compiled = Regex::Compile(pattern);
    ASSERT_FALSE(compiled.ok()) << pattern;
    EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(compiled.status().message().find("not supported"),
              std::string::npos)
        << pattern << ": " << compiled.status().message();
    EXPECT_NE(compiled.status().message().find(construct), std::string::npos)
        << pattern << ": " << compiled.status().message();
  }
}

/// Patterns std::regex rejects are errors here too.
TEST(RegexTest, InvalidPatternsAreErrors) {
  for (const char* pattern :
       {"(unclosed", "a)", "a{2", "a{,3}", "a{3,2}", "[z-a]", "[a", R"(\x4)",
        "*a", "+", "{", R"(a\)", "(?x)", R"([\d-z])"}) {
    Result<Regex> compiled = Regex::Compile(pattern);
    ASSERT_FALSE(compiled.ok()) << pattern;
    EXPECT_NE(compiled.status().message().find("invalid regex"),
              std::string::npos)
        << pattern << ": " << compiled.status().message();
    EXPECT_THROW(std::regex(pattern, std::regex::ECMAScript), std::regex_error)
        << pattern;
  }
}

}  // namespace
}  // namespace icewafl
