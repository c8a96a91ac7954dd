#include "serve/snapshot.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "fw/format.hpp"
#include "fw/parser.hpp"
#include "rt/fault.hpp"
#include "rt/govern.hpp"

namespace dfw::serve::snapshot {
namespace {

/// FNV-1a 64 — the integrity seal, not a cryptographic one: it catches
/// torn renames and bit rot, which is the crash-consistency contract.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[noreturn]] void fail_parse(const std::string& message) {
  throw Error(ErrorCode::kParseError, "snapshot: " + message);
}

std::string_view take_line(std::string_view text, std::size_t& pos) {
  if (pos >= text.size()) {
    fail_parse("unexpected end of input");
  }
  const std::size_t nl = text.find('\n', pos);
  if (nl == std::string_view::npos) {
    fail_parse("unterminated line");
  }
  const std::string_view line = text.substr(pos, nl - pos);
  pos = nl + 1;
  return line;
}

std::string_view expect_keyword(std::string_view line, std::string_view key) {
  if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
      line[key.size()] != ' ') {
    fail_parse("expected \"" + std::string(key) + " ...\", got \"" +
               std::string(line) + "\"");
  }
  return line.substr(key.size() + 1);
}

std::uint64_t parse_u64(std::string_view token, const char* what) {
  if (token.empty()) {
    fail_parse(std::string(what) + ": empty number");
  }
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      fail_parse(std::string(what) + ": not a number: \"" +
                 std::string(token) + "\"");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      fail_parse(std::string(what) + ": number overflows");
    }
    value = value * 10 + digit;
  }
  return value;
}

std::uint64_t parse_hex64(std::string_view token) {
  if (token.size() != 16) {
    fail_parse("checksum: want 16 hex digits");
  }
  std::uint64_t value = 0;
  for (const char c : token) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      fail_parse("checksum: not hex");
    }
    value = (value << 4) | digit;
  }
  return value;
}

/// A counted payload block: `<key> <bytes>\n<bytes...>\n`. The count is
/// bounded by the remaining input before any allocation (no size bombs).
std::string_view take_block(std::string_view text, std::size_t& pos,
                            std::string_view key) {
  const std::uint64_t count = parse_u64(
      expect_keyword(take_line(text, pos), key), std::string(key).c_str());
  if (count > text.size() - pos) {
    fail_parse(std::string(key) + ": byte count exceeds input");
  }
  const std::string_view block = text.substr(pos, count);
  pos += count;
  if (pos >= text.size() || text[pos] != '\n') {
    fail_parse(std::string(key) + ": missing separator after block");
  }
  ++pos;
  return block;
}

}  // namespace

std::string encode(std::uint64_t sequence, const Policy& policy,
                   const DecisionSet& decisions, FaultPlan* faults) {
  fault::hit(faults, fault::sites::kSnapshotSave);
  const std::string policy_text = format_policy(policy, decisions);
  std::ostringstream body;
  body << "dfws 2\n"
       << "sequence " << sequence << '\n'
       << "policy " << policy_text.size() << '\n'
       << policy_text << '\n';
  std::string out = body.str();
  char seal[32];
  std::snprintf(seal, sizeof seal, "checksum %016llx\n",
                static_cast<unsigned long long>(fnv1a(out)));
  out += seal;
  return out;
}

SnapshotData decode(const Schema& schema, const DecisionSet& decisions,
                    std::string_view text, FaultPlan* faults) {
  fault::hit(faults, fault::sites::kSnapshotLoad);
  std::size_t pos = 0;
  const std::string_view magic = take_line(text, pos);
  const bool legacy = magic == "dfws 1";
  if (!legacy && magic != "dfws 2") {
    fail_parse("bad magic (want \"dfws 2\" or \"dfws 1\")");
  }
  const std::uint64_t sequence =
      parse_u64(expect_keyword(take_line(text, pos), "sequence"), "sequence");
  if (sequence == 0) {
    fail_parse("sequence must be >= 1");
  }
  if (legacy) {
    const std::string_view backend_name =
        expect_keyword(take_line(text, pos), "backend");
    if (backend_name != "flat_slab" && backend_name != "prefix_trie") {
      fail_parse("unknown backend \"" + std::string(backend_name) + "\"");
    }
  }
  const std::string_view policy_text = take_block(text, pos, "policy");
  if (legacy) {
    // The diagram a dfws 1 writer compiled from: the policy text
    // determines it, so it is sealed by the checksum but never parsed.
    (void)take_block(text, pos, "fdd");
  }

  // Verify integrity before parsing a single payload byte: a torn or
  // bit-flipped file must be rejected as corrupt, not half-understood.
  const std::size_t body_end = pos;
  const std::uint64_t recorded =
      parse_hex64(expect_keyword(take_line(text, pos), "checksum"));
  if (pos != text.size()) {
    fail_parse("trailing bytes after checksum");
  }
  if (recorded != fnv1a(text.substr(0, body_end))) {
    throw Error(ErrorCode::kInvalidInput,
                "snapshot: checksum mismatch (torn or corrupt file)");
  }

  try {
    return SnapshotData{sequence,
                        parse_policy(schema, decisions, policy_text)};
  } catch (const ParseError& error) {
    throw Error(ErrorCode::kParseError,
                std::string("snapshot payload: ") + error.what());
  } catch (const std::invalid_argument& error) {
    throw Error(ErrorCode::kParseError,
                std::string("snapshot payload: ") + error.what());
  } catch (const std::logic_error& error) {
    throw Error(ErrorCode::kInvalidInput,
                std::string("snapshot payload: ") + error.what());
  }
}

void write_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw Error(ErrorCode::kInternal, "snapshot: cannot open " + tmp);
  }
  const std::size_t written =
      text.empty() ? 0 : std::fwrite(text.data(), 1, text.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    throw Error(ErrorCode::kInternal, "snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error(ErrorCode::kInternal,
                "snapshot: cannot rename " + tmp + " over " + path);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error(ErrorCode::kInvalidInput,
                "snapshot: cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw Error(ErrorCode::kInvalidInput,
                "snapshot: read failure on " + path);
  }
  return buffer.str();
}

}  // namespace dfw::serve::snapshot
