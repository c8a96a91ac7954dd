// Field schemas.
//
// A field F_i is "a variable whose domain D(F_i) is a finite interval of
// nonnegative integers" (paper, Section 3.1). A Schema fixes the ordered
// list of fields a firewall examines — their names, domains, and display
// kinds — and every algorithm in the library is generic over it.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/interval.hpp"
#include "net/interval_set.hpp"

namespace dfw {

/// How a field's values should be parsed and printed.
enum class FieldKind {
  kInteger,   ///< plain nonnegative integers (ports, interface ids)
  kIpv4,      ///< dotted-quad / CIDR prefixes over a 32-bit domain
  kProtocol,  ///< integer with tcp/udp/icmp mnemonics
  kIpv6Hi,    ///< high 64 bits of an IPv6 address (next field must be kIpv6Lo)
  kIpv6Lo,    ///< low 64 bits; addressed through its kIpv6Hi partner
};

/// One packet field: a name, a domain [0, max], and a display kind.
struct Field {
  std::string name;
  Interval domain;
  FieldKind kind = FieldKind::kInteger;
};

/// An ordered list of fields F_1 ... F_d. Immutable once built.
class Schema {
 public:
  explicit Schema(std::vector<Field> fields);

  std::size_t field_count() const { return fields_.size(); }
  const Field& field(std::size_t i) const;
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of a field by name, or nullopt.
  std::optional<std::size_t> index_of(std::string_view name) const;

  /// The domain of field i as a single-interval set; requires i < d.
  const Interval& domain(std::size_t i) const { return field(i).domain; }

  /// The domain of field i as an IntervalSet: one run, held inline, so
  /// making it allocates nothing.
  IntervalSet domain_set(std::size_t i) const { return field(i).domain; }

  /// Total number of distinct packets |Sigma| = prod |D(F_i)|, saturating
  /// at UINT64_MAX. Used by exhaustive property tests on tiny schemas.
  Value packet_space_size() const;

  friend bool operator==(const Schema& a, const Schema& b);

 private:
  std::vector<Field> fields_;
};

inline bool operator==(const Field& a, const Field& b) {
  return a.name == b.name && a.domain == b.domain && a.kind == b.kind;
}

/// The paper's five-field schema: interface I (domain [0,1] as in the
/// running example), source/destination IPv4 addresses S and D, destination
/// port N, and protocol P in {0 = TCP, 1 = UDP} (Section 2).
Schema example_schema();

/// The classic real-life five-tuple (Section 7.1): 32-bit src/dst IPv4,
/// 16-bit src/dst ports, 8-bit protocol.
Schema five_tuple_schema();

/// The IPv6 five-tuple: each 128-bit address is a (hi, lo) pair of 64-bit
/// fields (see net/ipv6.hpp for why that is exact for CIDR rules), then
/// 16-bit src/dst ports and the 8-bit protocol — 7 fields in total.
Schema five_tuple_v6_schema();

}  // namespace dfw
