#include "util/diag.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace icewafl {
namespace {

TEST(DiagTest, ToStringFormatsSeverityCodePathMessage) {
  Diagnostic d{DiagSeverity::kError, "IW101", "/polluters/0",
               "unknown attribute 'X'", ""};
  EXPECT_EQ(d.ToString(), "error IW101 at /polluters/0: unknown attribute 'X'");
  d.hint = "check the schema";
  EXPECT_EQ(d.ToString(),
            "error IW101 at /polluters/0: unknown attribute 'X' "
            "(hint: check the schema)");
}

TEST(DiagTest, CountsBySeverity) {
  Diagnostics diags;
  diags.AddError("IW101", "/a", "e1");
  diags.AddError("IW102", "/b", "e2");
  diags.AddWarning("IW401", "/c", "w1");
  diags.AddNote("IW999", "/d", "n1");
  EXPECT_EQ(diags.size(), 4u);
  EXPECT_EQ(diags.ErrorCount(), 2u);
  EXPECT_EQ(diags.WarningCount(), 1u);
  EXPECT_TRUE(diags.HasErrors());
  EXPECT_TRUE(diags.HasCode("IW401"));
  EXPECT_FALSE(diags.HasCode("IW500"));
}

TEST(DiagTest, MergeAppendsInOrder) {
  Diagnostics a;
  a.AddError("IW101", "/a", "first");
  Diagnostics b;
  b.AddWarning("IW401", "/b", "second");
  a.Merge(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.items()[0].code, "IW101");
  EXPECT_EQ(a.items()[1].code, "IW401");
}

TEST(DiagTest, ReportEndsWithSummaryLine) {
  Diagnostics diags;
  EXPECT_EQ(diags.ToReport(), "0 errors, 0 warnings\n");
  diags.AddError("IW101", "/a", "boom");
  const std::string report = diags.ToReport();
  EXPECT_NE(report.find("error IW101 at /a: boom"), std::string::npos);
  EXPECT_NE(report.find("1 error, 0 warnings"), std::string::npos);
}

TEST(DiagTest, ToJsonCarriesCounts) {
  Diagnostics diags;
  diags.AddError("IW101", "/a", "boom", "fix it");
  Json json = diags.ToJson();
  EXPECT_EQ(json.GetInt("errors", -1), 1);
  EXPECT_EQ(json.GetInt("warnings", -1), 0);
  const Json& items = json.fields().at("diagnostics");
  ASSERT_EQ(items.items().size(), 1u);
  EXPECT_EQ(items.items()[0].GetString("code", ""), "IW101");
  EXPECT_EQ(items.items()[0].GetString("severity", ""), "error");
  EXPECT_EQ(items.items()[0].GetString("hint", ""), "fix it");
}

TEST(DiagTest, ReadIntFieldRejectsFractionsAndOverflowInsteadOfTruncating) {
  const Json doc = Json::Parse(
      R"({"max_int": 2147483647, "past_int": 2147483648, "fraction": 2.5,
          "port": 65535, "past_port": 65536, "negative": -1, "huge": 1e300,
          "text": "7"})").ValueOrDie();
  Diagnostics diags;
  int i = -7;
  EXPECT_TRUE(ReadIntField<int>(doc, "absent", "", "IW1", 0, &i, &diags));
  EXPECT_EQ(i, -7);
  EXPECT_TRUE(ReadIntField<int>(doc, "max_int", "", "IW1", 0, &i, &diags));
  EXPECT_EQ(i, 2147483647);
  uint16_t port = 0;
  EXPECT_TRUE(
      ReadIntField<uint16_t>(doc, "port", "", "IW1", 0, &port, &diags));
  EXPECT_EQ(port, 65535);
  EXPECT_TRUE(diags.empty()) << diags.ToReport();

  i = -7;
  EXPECT_FALSE(ReadIntField<int>(doc, "past_int", "/x", "IW2", 0, &i, &diags));
  EXPECT_FALSE(ReadIntField<int>(doc, "fraction", "/x", "IW2", 0, &i, &diags));
  EXPECT_FALSE(ReadIntField<int>(doc, "negative", "/x", "IW2", 0, &i, &diags));
  EXPECT_FALSE(ReadIntField<int>(doc, "text", "/x", "IW2", 0, &i, &diags));
  EXPECT_EQ(i, -7);
  uint64_t seed = 3;
  EXPECT_FALSE(
      ReadIntField<uint64_t>(doc, "huge", "/x", "IW2", 0, &seed, &diags));
  EXPECT_FALSE(
      ReadIntField<uint16_t>(doc, "past_port", "/x", "IW2", 0, &port, &diags));
  EXPECT_EQ(seed, 3u);
  ASSERT_EQ(diags.ErrorCount(), 6u) << diags.ToReport();
  EXPECT_EQ(diags.items()[0].path, "/x/past_int");
  EXPECT_EQ(diags.items()[0].code, "IW2");
}

}  // namespace
}  // namespace icewafl
