// Minimal line-anchored JSON reader shared by the bench-document parser and
// the profile/run-report loader (`fsct profile`).  Values carry the source
// line of their first byte so schema errors in CI logs point at the offending
// place ("baseline.json: line 37: ...").  This is deliberately not a general
// JSON library: no surrogate pairs, numbers as double, ASCII documents.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace fsct {

/// Thrown on malformed input or schema violations; the message is anchored
/// "<name>: line N: ...".
struct JsonParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parsed JSON value.  Objects keep insertion order.
struct JVal {
  enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JVal> arr;
  std::vector<std::pair<std::string, JVal>> obj;  // insertion order
  int line = 1;

  const JVal* find(const char* key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Recursive-descent parser over a borrowed text buffer.  parse() returns the
/// single root value and rejects trailing content; fail_at() lets schema
/// validation layered on top reuse the same "<name>: line N:" anchoring.
class JsonParser {
 public:
  /// `text` is borrowed and must outlive the parser; `name` is copied (it is
  /// small and often a temporary at call sites).
  JsonParser(const std::string& text, std::string name)
      : text_(text), name_(std::move(name)) {}

  JVal parse();

  [[noreturn]] void fail_at(int line, const std::string& msg) const {
    throw JsonParseError(name_ + ": line " + std::to_string(line) + ": " +
                         msg);
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const { fail_at(line_, msg); }
  void skip_ws();
  char peek();
  void expect(char c);
  JVal value();
  void object(JVal& v);
  void array(JVal& v);
  std::string string();
  double number();
  void literal(const char* word);

  const std::string& text_;
  const std::string name_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// Required-field helpers shared by the schema readers.
double json_num(const JsonParser& p, const JVal& obj, const char* key,
                double fallback = 0, bool required = false);
std::string json_str(const JsonParser& p, const JVal& obj, const char* key,
                     const char* fallback = "");
/// Flattens every numeric member of object `v` into (key, value) pairs;
/// non-numeric members are tolerated and skipped.
void json_uint_map(const JsonParser& p, const JVal& v,
                   std::vector<std::pair<std::string, std::uint64_t>>& out);

/// JSON string escaping for the writers (control chars to \uXXXX).
std::string json_escape(const std::string& s);

/// Canonical comparison form of a run report: parsed, every key containing
/// "seconds"/"time"/"passes"/"cycles"/"rss" and the scheduler-dependent
/// "pool" section dropped recursively (timings, RSS, pass counts and worker
/// stats legitimately vary), keys sorted, re-serialized compactly.  Two
/// reports describe the same screening result iff their normalized forms
/// are bytewise equal.  tools/check.sh's strip.py mirrors these rules.
std::string normalized_report(const std::string& report_json);

}  // namespace fsct
