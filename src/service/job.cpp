#include "service/job.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace btsc::service {
namespace {

[[noreturn]] void fail(const std::string& why) { throw JobError(why); }

/// Cursor over one protocol line.
struct Cursor {
  const std::string& s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                              s[pos] == '\r' || s[pos] == '\n')) {
      ++pos;
    }
  }
  bool eof() {
    skip_ws();
    return pos >= s.size();
  }
  char peek() {
    skip_ws();
    if (pos >= s.size()) fail("json: unexpected end of input");
    return s[pos];
  }
  char take() {
    const char c = peek();
    ++pos;
    return c;
  }
  void expect(char c) {
    const char got = take();
    if (got != c) {
      fail(std::string("json: expected '") + c + "', got '" + got + "'");
    }
  }
  bool consume_literal(const char* lit) {
    skip_ws();
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s.compare(pos, n, lit) != 0) return false;
    pos += n;
    return true;
  }
};

std::string parse_string(Cursor& c) {
  c.expect('"');
  std::string out;
  for (;;) {
    if (c.pos >= c.s.size()) fail("json: unterminated string");
    const char ch = c.s[c.pos++];
    if (ch == '"') return out;
    if (ch != '\\') {
      out.push_back(ch);
      continue;
    }
    if (c.pos >= c.s.size()) fail("json: unterminated escape");
    const char esc = c.s[c.pos++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (c.pos + 4 > c.s.size()) fail("json: truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = c.s[c.pos++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else fail("json: bad \\u escape");
        }
        // The protocol is ASCII in practice; encode BMP code points as
        // UTF-8 so round-trips are lossless anyway.
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        fail("json: unknown escape");
    }
  }
}

JsonValue parse_value(Cursor& c) {
  JsonValue v;
  const char ch = c.peek();
  if (ch == '"') {
    v.kind = JsonValue::Kind::kString;
    v.text = parse_string(c);
    return v;
  }
  if (ch == '{' || ch == '[') {
    fail("json: nested objects/arrays are not part of the job protocol");
  }
  if (c.consume_literal("true")) {
    v.kind = JsonValue::Kind::kBool;
    v.boolean = true;
    return v;
  }
  if (c.consume_literal("false")) {
    v.kind = JsonValue::Kind::kBool;
    v.boolean = false;
    return v;
  }
  if (c.consume_literal("null")) {
    v.kind = JsonValue::Kind::kNull;
    return v;
  }
  // Number: take the maximal [-+0-9.eE] run and validate lazily in the
  // typed accessors.
  const std::size_t start = c.pos;
  while (c.pos < c.s.size()) {
    const char d = c.s[c.pos];
    if ((d >= '0' && d <= '9') || d == '-' || d == '+' || d == '.' ||
        d == 'e' || d == 'E') {
      ++c.pos;
    } else {
      break;
    }
  }
  if (c.pos == start) fail("json: unexpected character");
  v.kind = JsonValue::Kind::kNumber;
  v.text = c.s.substr(start, c.pos - start);
  return v;
}

}  // namespace

std::uint64_t JsonValue::as_u64(const std::string& key) const {
  if (kind != Kind::kNumber) fail("field '" + key + "' must be a number");
  if (!text.empty() && text[0] == '-') {
    fail("field '" + key + "' must be non-negative");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    fail("field '" + key + "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

int JsonValue::as_int(const std::string& key) const {
  if (kind != Kind::kNumber) fail("field '" + key + "' must be a number");
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || v < -1000000000 ||
      v > 1000000000) {
    fail("field '" + key + "' must be an integer");
  }
  return static_cast<int>(v);
}

double JsonValue::as_double(const std::string& key) const {
  if (kind != Kind::kNumber) fail("field '" + key + "' must be a number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    fail("field '" + key + "' must be a number");
  }
  return v;
}

bool JsonValue::as_bool(const std::string& key) const {
  if (kind != Kind::kBool) fail("field '" + key + "' must be true/false");
  return boolean;
}

const std::string& JsonValue::as_string(const std::string& key) const {
  if (kind != Kind::kString) fail("field '" + key + "' must be a string");
  return text;
}

JsonObject parse_json_object(const std::string& line) {
  Cursor c{line};
  c.expect('{');
  JsonObject obj;
  if (c.peek() == '}') {
    c.take();
  } else {
    for (;;) {
      const std::string key = parse_string(c);
      c.expect(':');
      if (!obj.emplace(key, parse_value(c)).second) {
        fail("json: duplicate key '" + key + "'");
      }
      const char sep = c.take();
      if (sep == ',') continue;
      if (sep == '}') break;
      fail("json: expected ',' or '}'");
    }
  }
  if (!c.eof()) fail("json: trailing bytes after object");
  return obj;
}

JobSpec job_from_json(const JsonObject& obj, const std::string& allow_extra) {
  JobSpec spec;
  bool have_id = false, have_scenario = false;
  for (const auto& [key, val] : obj) {
    if (key == allow_extra) continue;
    if (key == "id") {
      spec.id = val.as_string(key);
      have_id = true;
    } else if (key == "scenario") {
      spec.scenario = val.as_string(key);
      have_scenario = true;
    } else if (key == "threads") {
      spec.threads = val.as_int(key);
    } else if (key == "replications") {
      spec.replications = val.as_int(key);
    } else if (key == "quick") {
      spec.quick = val.as_bool(key);
    } else if (key == "base_seed") {
      spec.base_seed = val.as_u64(key);
    } else if (key == "max_points") {
      spec.max_points = val.as_int(key);
    } else if (key == "rep_timeout_s") {
      spec.rep_timeout_s = val.as_double(key);
    } else if (key == "max_retries") {
      spec.max_retries = val.as_int(key);
    } else if (key == "keep_going") {
      spec.keep_going = val.as_bool(key);
    } else {
      fail("unknown job field '" + key + "'");
    }
  }
  if (!have_id || spec.id.empty()) fail("job is missing a non-empty 'id'");
  if (spec.id.size() > 64) fail("job id longer than 64 characters");
  for (const char ch : spec.id) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '.' &&
        ch != '_' && ch != '-') {
      fail("job id may only contain [A-Za-z0-9._-]: '" + spec.id + "'");
    }
  }
  if (!have_scenario || spec.scenario.empty()) {
    fail("job '" + spec.id + "' is missing a 'scenario'");
  }
  if (spec.threads < 0 || spec.replications < 0 || spec.max_points < 0 ||
      spec.max_retries < 0) {
    fail("job '" + spec.id + "': negative counts are invalid");
  }
  return spec;
}

JobSpec parse_job_line(const std::string& line) {
  return job_from_json(parse_json_object(line));
}

std::string format_job_line(const JobSpec& spec) {
  std::ostringstream out;
  out << "{\"id\": \"" << json_escape(spec.id) << "\", \"scenario\": \""
      << json_escape(spec.scenario) << "\", \"threads\": " << spec.threads
      << ", \"replications\": " << spec.replications << ", \"quick\": "
      << (spec.quick ? "true" : "false")
      << ", \"base_seed\": " << spec.base_seed
      << ", \"max_points\": " << spec.max_points
      << ", \"rep_timeout_s\": " << spec.rep_timeout_s
      << ", \"max_retries\": " << spec.max_retries << ", \"keep_going\": "
      << (spec.keep_going ? "true" : "false") << "}";
  return out.str();
}

}  // namespace btsc::service
