// A small JSON document model, shared by the structural validators.
//
// trace.cpp validates Chrome traces with a streaming reader because a
// trace is one flat array of small events; SARIF logs (lint/sarif.hpp) are
// deeply nested objects whose checks cross-reference each other (results
// point at rule ids declared elsewhere), which wants a document tree. This
// parser builds that tree: strict enough for validation work (rejects
// trailing garbage, truncated escapes, unbounded nesting), small enough to
// stay dependency-free. Writers keep hand-emitting JSON — only escape() and
// quote() are shared on that side, so every emitter escapes strings
// identically.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dfw::json {

/// One JSON value. Object members keep document order; find() does the
/// usual last-writer-wins lookup validators want.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
};

/// Parses a complete JSON document. Returns nullopt and fills `error`
/// (when non-null) with a byte-positioned message on malformed input,
/// trailing garbage, or nesting deeper than 128 levels — the depth cap
/// keeps adversarial inputs from overflowing the stack.
std::optional<Value> parse(std::string_view text, std::string* error);

/// Appends `s` to `out` as a JSON string body (no surrounding quotes),
/// escaping quotes, backslashes, and control characters.
void escape(std::string& out, std::string_view s);

/// `s` as a JSON string literal: escape() between double quotes.
std::string quote(std::string_view s);

}  // namespace dfw::json
