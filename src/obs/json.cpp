#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace dfw::json {
namespace {

constexpr std::size_t kMaxDepth = 128;

struct Parser {
  std::string_view in;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < in.size() &&
           std::isspace(static_cast<unsigned char>(in[pos])) != 0) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos >= in.size() || in[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  bool peek(char c) {
    skip_ws();
    return pos < in.size() && in[pos] == c;
  }

  bool parse_string(std::string* out) {
    skip_ws();
    if (pos >= in.size() || in[pos] != '"') {
      return fail("expected string");
    }
    ++pos;
    std::string s;
    while (pos < in.size() && in[pos] != '"') {
      char c = in[pos];
      if (c == '\\') {
        if (pos + 1 >= in.size()) {
          return fail("truncated escape");
        }
        const char esc = in[pos + 1];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos + 5 >= in.size()) {
              return fail("truncated \\u escape");
            }
            for (std::size_t i = 2; i < 6; ++i) {
              if (std::isxdigit(static_cast<unsigned char>(in[pos + i])) ==
                  0) {
                return fail("bad \\u escape");
              }
            }
            pos += 4;  // validators only need structure, not code points
            c = '?';
            break;
          }
          default:
            return fail("bad escape");
        }
        pos += 2;
      } else {
        ++pos;
      }
      s += c;
    }
    if (pos >= in.size()) {
      return fail("unterminated string");
    }
    ++pos;
    if (out != nullptr) {
      *out = std::move(s);
    }
    return true;
  }

  bool parse_number(double* out) {
    skip_ws();
    const std::size_t start = pos;
    if (pos < in.size() && in[pos] == '-') {
      ++pos;
    }
    bool digits = false;
    while (pos < in.size() &&
           (std::isdigit(static_cast<unsigned char>(in[pos])) != 0 ||
            in[pos] == '.' || in[pos] == 'e' || in[pos] == 'E' ||
            in[pos] == '-' || in[pos] == '+')) {
      digits =
          digits || std::isdigit(static_cast<unsigned char>(in[pos])) != 0;
      ++pos;
    }
    if (!digits) {
      return fail("expected number");
    }
    *out = std::strtod(std::string(in.substr(start, pos - start)).c_str(),
                       nullptr);
    return true;
  }

  bool parse_value(Value& out, std::size_t depth) {
    if (depth > kMaxDepth) {
      return fail("nesting too deep");
    }
    skip_ws();
    if (pos >= in.size()) {
      return fail("unexpected end of input");
    }
    const char c = in[pos];
    if (c == '"') {
      out.kind = Value::Kind::kString;
      return parse_string(&out.string);
    }
    if (c == '{') {
      out.kind = Value::Kind::kObject;
      ++pos;
      if (peek('}')) {
        ++pos;
        return true;
      }
      for (;;) {
        std::string key;
        Value member;
        if (!parse_string(&key) || !consume(':') ||
            !parse_value(member, depth + 1)) {
          return false;
        }
        out.object.emplace_back(std::move(key), std::move(member));
        if (peek(',')) {
          ++pos;
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      out.kind = Value::Kind::kArray;
      ++pos;
      if (peek(']')) {
        ++pos;
        return true;
      }
      for (;;) {
        Value element;
        if (!parse_value(element, depth + 1)) {
          return false;
        }
        out.array.push_back(std::move(element));
        if (peek(',')) {
          ++pos;
          continue;
        }
        return consume(']');
      }
    }
    if (c == 't' || c == 'f' || c == 'n') {
      static constexpr std::string_view kWords[] = {"true", "false", "null"};
      for (const std::string_view w : kWords) {
        if (in.substr(pos, w.size()) == w) {
          pos += w.size();
          out.kind = w[0] == 'n' ? Value::Kind::kNull : Value::Kind::kBool;
          out.boolean = w[0] == 't';
          return true;
        }
      }
      return fail("bad literal");
    }
    out.kind = Value::Kind::kNumber;
    return parse_number(&out.number);
  }
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  const Value* found = nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) {
      found = &value;
    }
  }
  return found;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  Parser p{text, 0, {}};
  Value root;
  if (!p.parse_value(root, 0)) {
    if (error != nullptr) {
      *error = p.error;
    }
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing garbage at byte " + std::to_string(p.pos);
    }
    return std::nullopt;
  }
  return root;
}

void escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  escape(out, s);
  out += '"';
  return out;
}

}  // namespace dfw::json
