#include "core/json.h"

#include <gtest/gtest.h>

namespace fsct {
namespace {

TEST(Json, ParsesScalarsArraysObjects) {
  const std::string text = R"({
  "s": "a\nb\"c\\d",
  "n": -12.5e1,
  "t": true, "f": false, "z": null,
  "a": [1, 2, 3],
  "o": {"k": 7}
})";
  JsonParser p(text, "t.json");
  const JVal root = p.parse();
  ASSERT_EQ(root.kind, JVal::Obj);
  EXPECT_EQ(root.find("s")->str, "a\nb\"c\\d");
  EXPECT_DOUBLE_EQ(root.find("n")->num, -125.0);
  EXPECT_TRUE(root.find("t")->b);
  EXPECT_FALSE(root.find("f")->b);
  EXPECT_EQ(root.find("z")->kind, JVal::Null);
  ASSERT_EQ(root.find("a")->arr.size(), 3u);
  EXPECT_DOUBLE_EQ(root.find("a")->arr[2].num, 3.0);
  EXPECT_DOUBLE_EQ(root.find("o")->find("k")->num, 7.0);
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(Json, ErrorsCarryNameAndLineAnchor) {
  const std::string text = "{\n  \"a\": 1,\n  \"b\": bogus\n}";
  JsonParser p(text, "broken.json");
  try {
    p.parse();
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("broken.json: line 3"),
              std::string::npos)
        << e.what();
  }
}

TEST(Json, RejectsTrailingContent) {
  const std::string text = "{} extra";
  JsonParser p(text, "t.json");
  EXPECT_THROW(p.parse(), JsonParseError);
}

TEST(Json, HelpersValidateTypesAndRequiredness) {
  const std::string text = R"({"n": 3, "s": "x", "m": {"a": 1, "b": "skip"}})";
  JsonParser p(text, "t.json");
  const JVal root = p.parse();
  EXPECT_DOUBLE_EQ(json_num(p, root, "n"), 3.0);
  EXPECT_DOUBLE_EQ(json_num(p, root, "absent", 9.0), 9.0);
  EXPECT_THROW(json_num(p, root, "absent", 0, /*required=*/true),
               JsonParseError);
  EXPECT_THROW(json_num(p, root, "s"), JsonParseError);
  EXPECT_EQ(json_str(p, root, "s"), "x");
  EXPECT_EQ(json_str(p, root, "absent", "d"), "d");
  std::vector<std::pair<std::string, std::uint64_t>> out;
  json_uint_map(p, *root.find("m"), out);
  ASSERT_EQ(out.size(), 1u);  // the string member is tolerated and skipped
  EXPECT_EQ(out[0].first, "a");
  EXPECT_EQ(out[0].second, 1u);
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string raw = "a\"b\\c\nd\te\x01f";
  const std::string doc = "{\"k\": \"" + json_escape(raw) + "\"}";
  JsonParser p(doc, "t.json");
  const JVal root = p.parse();
  EXPECT_EQ(root.find("k")->str, raw);
}

TEST(Json, EscapePassesValidUtf8Through) {
  EXPECT_EQ(json_escape("caf\xC3\xA9"), "caf\xC3\xA9");          // U+00E9
  EXPECT_EQ(json_escape("\xE2\x82\xAC"), "\xE2\x82\xAC");        // U+20AC
  EXPECT_EQ(json_escape("\xF0\x9F\x99\x82"), "\xF0\x9F\x99\x82");  // U+1F642
}

TEST(Json, EscapeReplacesInvalidBytesWithReplacementChar) {
  const std::string fffd = "\xEF\xBF\xBD";  // U+FFFD
  // A Latin-1 gate name ("café" as 0xE9): the lone byte is not UTF-8 and
  // must come out as U+FFFD, never as a raw byte that breaks the document.
  EXPECT_EQ(json_escape("caf\xE9"), "caf" + fffd);
  // Lone continuation byte.
  EXPECT_EQ(json_escape("\x80"), fffd);
  // Sequence truncated by end of string: lead and stray continuation each
  // become one replacement.
  EXPECT_EQ(json_escape("a\xE2\x82"), "a" + fffd + fffd);
  // Overlong encoding (of '/') and a UTF-16 surrogate are invalid UTF-8.
  EXPECT_EQ(json_escape("\xE0\x80\xAF"), fffd + fffd + fffd);
  EXPECT_EQ(json_escape("\xED\xA0\x80"), fffd + fffd + fffd);
  // Above U+10FFFF.
  EXPECT_EQ(json_escape("\xF4\x90\x80\x80"), fffd + fffd + fffd + fffd);
}

TEST(Json, NormalizedReportStripsVolatileKeysAndSortsKeys) {
  const std::string a =
      "{\"z\": 1, \"elapsed_seconds\": 2.5, \"rss_phases\": {\"x\": 1}, "
      "\"pool\": {\"w\": 3}, "
      "\"a\": {\"cpu_time_ms\": 3, \"n\": 4, \"sim_passes\": 7}}";
  const std::string b =
      "{\"a\": {\"n\": 4, \"cpu_time_ms\": 9}, \"z\": 1, "
      "\"rss_phases\": {\"y\": 2}}";
  EXPECT_EQ(normalized_report(a), "{\"a\":{\"n\":4},\"z\":1}");
  EXPECT_EQ(normalized_report(a), normalized_report(b));
}

}  // namespace
}  // namespace fsct
