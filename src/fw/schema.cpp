#include "fw/schema.hpp"

#include <stdexcept>

namespace dfw {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  if (fields_.empty()) {
    throw std::invalid_argument("Schema: at least one field required");
  }
  for (const Field& f : fields_) {
    if (f.name.empty()) {
      throw std::invalid_argument("Schema: field names must be nonempty");
    }
    if (f.domain.lo() != 0) {
      throw std::invalid_argument("Schema: domains must start at 0");
    }
  }
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    for (std::size_t j = i + 1; j < fields_.size(); ++j) {
      if (fields_[i].name == fields_[j].name) {
        throw std::invalid_argument("Schema: duplicate field name " +
                                    fields_[i].name);
      }
    }
  }
  // IPv6 halves must come in adjacent (hi, lo) pairs with full 64-bit
  // domains, or the CIDR-to-conjunct mapping breaks.
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].kind == FieldKind::kIpv6Hi) {
      if (i + 1 >= fields_.size() ||
          fields_[i + 1].kind != FieldKind::kIpv6Lo) {
        throw std::invalid_argument(
            "Schema: kIpv6Hi field must be followed by its kIpv6Lo half");
      }
      if (!(fields_[i].domain == Interval(0, UINT64_MAX)) ||
          !(fields_[i + 1].domain == Interval(0, UINT64_MAX))) {
        throw std::invalid_argument(
            "Schema: IPv6 halves must span the full 64-bit domain");
      }
    } else if (fields_[i].kind == FieldKind::kIpv6Lo) {
      if (i == 0 || fields_[i - 1].kind != FieldKind::kIpv6Hi) {
        throw std::invalid_argument(
            "Schema: kIpv6Lo field must follow its kIpv6Hi half");
      }
    }
  }
}

const Field& Schema::field(std::size_t i) const {
  if (i >= fields_.size()) {
    throw std::out_of_range("Schema::field: index out of range");
  }
  return fields_[i];
}

std::optional<std::size_t> Schema::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) {
      return i;
    }
  }
  return std::nullopt;
}

Value Schema::packet_space_size() const {
  Value total = 1;
  for (const Field& f : fields_) {
    const Value n = f.domain.size();
    if (n != 0 && total > UINT64_MAX / n) {
      return UINT64_MAX;
    }
    total *= n;
  }
  return total;
}

bool operator==(const Schema& a, const Schema& b) {
  return a.fields_ == b.fields_;
}

Schema example_schema() {
  return Schema({
      {"I", Interval(0, 1), FieldKind::kInteger},
      {"S", Interval(0, UINT32_MAX), FieldKind::kIpv4},
      {"D", Interval(0, UINT32_MAX), FieldKind::kIpv4},
      {"N", Interval(0, 65535), FieldKind::kInteger},
      {"P", Interval(0, 1), FieldKind::kProtocol},
  });
}

Schema five_tuple_v6_schema() {
  return Schema({
      {"sip", Interval(0, UINT64_MAX), FieldKind::kIpv6Hi},
      {"sip.lo", Interval(0, UINT64_MAX), FieldKind::kIpv6Lo},
      {"dip", Interval(0, UINT64_MAX), FieldKind::kIpv6Hi},
      {"dip.lo", Interval(0, UINT64_MAX), FieldKind::kIpv6Lo},
      {"sport", Interval(0, 65535), FieldKind::kInteger},
      {"dport", Interval(0, 65535), FieldKind::kInteger},
      {"proto", Interval(0, 255), FieldKind::kProtocol},
  });
}

Schema five_tuple_schema() {
  return Schema({
      {"sip", Interval(0, UINT32_MAX), FieldKind::kIpv4},
      {"dip", Interval(0, UINT32_MAX), FieldKind::kIpv4},
      {"sport", Interval(0, 65535), FieldKind::kInteger},
      {"dport", Interval(0, 65535), FieldKind::kInteger},
      {"proto", Interval(0, 255), FieldKind::kProtocol},
  });
}

}  // namespace dfw
