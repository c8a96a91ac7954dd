// IPv4 address parsing and formatting.
//
// The paper's firewalls examine 32-bit source/destination IP addresses
// "regarded as 32-bit integers" (Section 7.1). This module converts between
// dotted-quad text and the integer form used by every algorithm.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dfw {

/// Parses "a.b.c.d" into a 32-bit big-endian integer. Returns nullopt on any
/// syntax error (missing octets, values > 255, stray characters).
std::optional<std::uint32_t> parse_ipv4(std::string_view text);

/// Formats a 32-bit integer as dotted-quad "a.b.c.d".
std::string format_ipv4(std::uint32_t addr);

/// format_ipv4 appended to `out`.
void append_ipv4(std::string& out, std::uint32_t addr);

}  // namespace dfw
