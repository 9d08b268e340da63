#include "core/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace fsct {

JVal JsonParser::parse() {
  JVal v = value();
  skip_ws();
  if (pos_ != text_.size()) fail("trailing content after JSON value");
  return v;
}

void JsonParser::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '\n') ++line_;
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

char JsonParser::peek() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonParser::expect(char c) {
  if (pos_ >= text_.size() || text_[pos_] != c) {
    fail(std::string("expected '") + c + "'");
  }
  ++pos_;
}

JVal JsonParser::value() {
  skip_ws();
  JVal v;
  v.line = line_;
  const char c = peek();
  switch (c) {
    case '{': object(v); break;
    case '[': array(v); break;
    case '"':
      v.kind = JVal::Str;
      v.str = string();
      break;
    case 't':
    case 'f':
      v.kind = JVal::Bool;
      v.b = (c == 't');
      literal(c == 't' ? "true" : "false");
      break;
    case 'n':
      literal("null");
      break;
    default:
      if (c == '-' || (c >= '0' && c <= '9')) {
        v.kind = JVal::Num;
        v.num = number();
      } else {
        fail(std::string("unexpected character '") + c + "'");
      }
  }
  return v;
}

void JsonParser::object(JVal& v) {
  v.kind = JVal::Obj;
  expect('{');
  skip_ws();
  if (peek() == '}') {
    ++pos_;
    return;
  }
  while (true) {
    skip_ws();
    std::string key = string();
    skip_ws();
    expect(':');
    v.obj.emplace_back(std::move(key), value());
    skip_ws();
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect('}');
    return;
  }
}

void JsonParser::array(JVal& v) {
  v.kind = JVal::Arr;
  expect('[');
  skip_ws();
  if (peek() == ']') {
    ++pos_;
    return;
  }
  while (true) {
    v.arr.push_back(value());
    skip_ws();
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect(']');
    return;
  }
}

std::string JsonParser::string() {
  if (peek() != '"') fail("expected string");
  ++pos_;
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    char c = text_[pos_++];
    if (c == '"') return out;
    if (c == '\n') fail("unterminated string");
    if (c == '\\') {
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          // Decoded as a raw byte; our documents are ASCII in practice.
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          out += static_cast<char>(code < 0x80 ? code : '?');
          break;
        }
        default:
          fail(std::string("bad escape '\\") + e + "'");
      }
    } else {
      out += c;
    }
  }
}

double JsonParser::number() {
  const std::size_t start = pos_;
  if (peek() == '-') ++pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
          text_[pos_] == '+' || text_[pos_] == '-')) {
    ++pos_;
  }
  try {
    return std::stod(text_.substr(start, pos_ - start));
  } catch (const std::exception&) {
    fail("invalid number");
  }
}

void JsonParser::literal(const char* word) {
  const std::size_t n = std::strlen(word);
  if (text_.compare(pos_, n, word) != 0) {
    fail(std::string("expected '") + word + "'");
  }
  pos_ += n;
}

double json_num(const JsonParser& p, const JVal& obj, const char* key,
                double fallback, bool required) {
  const JVal* v = obj.find(key);
  if (!v) {
    if (required) {
      p.fail_at(obj.line,
                std::string("missing required field \"") + key + "\"");
    }
    return fallback;
  }
  if (v->kind != JVal::Num) {
    p.fail_at(v->line, std::string("field \"") + key + "\" must be a number");
  }
  return v->num;
}

std::string json_str(const JsonParser& p, const JVal& obj, const char* key,
                     const char* fallback) {
  const JVal* v = obj.find(key);
  if (!v) return fallback;
  if (v->kind != JVal::Str) {
    p.fail_at(v->line, std::string("field \"") + key + "\" must be a string");
  }
  return v->str;
}

void json_uint_map(const JsonParser& p, const JVal& v,
                   std::vector<std::pair<std::string, std::uint64_t>>& out) {
  if (v.kind != JVal::Obj) p.fail_at(v.line, "expected an object of numbers");
  for (const auto& [k, e] : v.obj) {
    if (e.kind != JVal::Num) continue;  // tolerate non-numeric extras
    out.emplace_back(k, static_cast<std::uint64_t>(e.num));
  }
}

namespace {

/// Length of the valid UTF-8 sequence starting at s[i], or 0 if the bytes
/// there are not well-formed UTF-8 (bad lead byte, truncated or non-
/// continuation tail, overlong encoding, surrogate, or > U+10FFFF).
std::size_t utf8_seq_len(const std::string& s, std::size_t i) {
  const auto b = [&](std::size_t k) {
    return static_cast<unsigned char>(s[i + k]);
  };
  const unsigned char lead = b(0);
  std::size_t len = 0;
  if (lead < 0x80) return 1;
  if (lead >= 0xC2 && lead <= 0xDF) len = 2;        // C0/C1 are overlong
  else if (lead >= 0xE0 && lead <= 0xEF) len = 3;
  else if (lead >= 0xF0 && lead <= 0xF4) len = 4;   // F5+ exceed U+10FFFF
  else return 0;
  if (i + len > s.size()) return 0;
  for (std::size_t k = 1; k < len; ++k) {
    if ((b(k) & 0xC0) != 0x80) return 0;
  }
  // Reject overlong 3/4-byte forms, surrogates, and > U+10FFFF.
  if (len == 3) {
    if (lead == 0xE0 && b(1) < 0xA0) return 0;           // overlong
    if (lead == 0xED && b(1) >= 0xA0) return 0;          // UTF-16 surrogate
  } else if (len == 4) {
    if (lead == 0xF0 && b(1) < 0x90) return 0;           // overlong
    if (lead == 0xF4 && b(1) >= 0x90) return 0;          // > U+10FFFF
  }
  return len;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
      ++i;
    } else if (u < 0x80) {
      out += c;
      ++i;
    } else {
      // Non-ASCII: pass through only well-formed UTF-8.  Anything else (a
      // Latin-1 gate name, a truncated sequence) would make the whole run
      // report unparseable, so each bad byte becomes U+FFFD instead.
      const std::size_t len = utf8_seq_len(s, i);
      if (len == 0) {
        out += "\xEF\xBF\xBD";  // U+FFFD REPLACEMENT CHARACTER
        ++i;
      } else {
        out.append(s, i, len);
        i += len;
      }
    }
  }
  return out;
}

namespace {

/// Integers print as integers (counter values must round-trip bytewise);
/// everything else gets enough digits to be unambiguous.
std::string fmt_num(double d) {
  if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

bool normalized_drop(const std::string& key) {
  return key == "pool" || key.find("seconds") != std::string::npos ||
         key.find("time") != std::string::npos ||
         key.find("passes") != std::string::npos ||
         key.find("cycles") != std::string::npos ||
         key.find("rss") != std::string::npos;
}

void dump_normalized(const JVal& v, std::string& out) {
  switch (v.kind) {
    case JVal::Null: out += "null"; break;
    case JVal::Bool: out += v.b ? "true" : "false"; break;
    case JVal::Num: out += fmt_num(v.num); break;
    case JVal::Str:
      out += '"';
      out += json_escape(v.str);
      out += '"';
      break;
    case JVal::Arr:
      out += '[';
      for (std::size_t i = 0; i < v.arr.size(); ++i) {
        if (i) out += ',';
        dump_normalized(v.arr[i], out);
      }
      out += ']';
      break;
    case JVal::Obj: {
      std::vector<const std::pair<std::string, JVal>*> kept;
      for (const auto& kv : v.obj) {
        if (!normalized_drop(kv.first)) kept.push_back(&kv);
      }
      std::sort(kept.begin(), kept.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      out += '{';
      for (std::size_t i = 0; i < kept.size(); ++i) {
        if (i) out += ',';
        out += '"';
        out += json_escape(kept[i]->first);
        out += "\":";
        dump_normalized(kept[i]->second, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string normalized_report(const std::string& report_json) {
  JsonParser p(report_json, "report");
  const JVal v = p.parse();
  std::string out;
  dump_normalized(v, out);
  return out;
}

}  // namespace fsct
