#include "net/ipv4.hpp"

#include <charconv>

namespace dfw {

std::optional<std::uint32_t> parse_ipv4(std::string_view text) {
  std::uint32_t addr = 0;
  int octets = 0;
  std::size_t i = 0;
  while (octets < 4) {
    if (i >= text.size() || text[i] < '0' || text[i] > '9') {
      return std::nullopt;
    }
    std::uint32_t octet = 0;
    std::size_t digits = 0;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      octet = octet * 10 + static_cast<std::uint32_t>(text[i] - '0');
      if (octet > 255 || ++digits > 3) {
        return std::nullopt;
      }
      ++i;
    }
    addr = (addr << 8) | octet;
    ++octets;
    if (octets < 4) {
      if (i >= text.size() || text[i] != '.') {
        return std::nullopt;
      }
      ++i;
    }
  }
  if (i != text.size()) {
    return std::nullopt;
  }
  return addr;
}

std::string format_ipv4(std::uint32_t addr) {
  std::string out;
  append_ipv4(out, addr);
  return out;
}

void append_ipv4(std::string& out, std::uint32_t addr) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    char octet[3];
    const auto end =
        std::to_chars(octet, octet + sizeof octet, (addr >> shift) & 0xff).ptr;
    out.append(octet, end);
    if (shift != 0) {
      out += '.';
    }
  }
}

}  // namespace dfw
