#include "net/prefix.hpp"

#include <cmath>
#include <stdexcept>

#include "util/strings.hpp"

namespace ipd::net {

Prefix::Prefix(const IpAddress& addr, int len) : len_(len) {
  // Checked before masking: masked() shifts by width - len.
  if (len < 0 || len > addr.width()) {
    throw std::invalid_argument("prefix length " + std::to_string(len) +
                                " out of range for family");
  }
  addr_ = addr.masked(len);
}

Prefix Prefix::from_string(std::string_view text) {
  text = util::trim(text);
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    throw std::invalid_argument("prefix missing '/': " + std::string(text));
  }
  const IpAddress addr = IpAddress::from_string(text.substr(0, slash));
  const auto len = util::parse_uint(text.substr(slash + 1),
                                    static_cast<std::uint64_t>(addr.width()));
  return Prefix(addr, static_cast<int>(len));
}

double Prefix::address_count() const noexcept {
  return std::pow(2.0, static_cast<double>(host_bits()));
}

Prefix Prefix::parent() const noexcept {
  Prefix p;
  p.addr_ = addr_.masked(len_ - 1);
  p.len_ = len_ - 1;
  return p;
}

Prefix Prefix::sibling() const noexcept {
  Prefix p;
  p.addr_ = addr_.with_bit(len_ - 1, !addr_.bit(len_ - 1));
  p.len_ = len_;
  return p;
}

Prefix Prefix::child(int bit) const noexcept {
  Prefix p;
  p.addr_ = bit ? addr_.with_bit(len_, true) : addr_;
  p.len_ = len_ + 1;
  return p;
}

Prefix Prefix::nth_subprefix(std::uint64_t idx, int sub_len) const noexcept {
  IpAddress addr = addr_;
  const int gap = sub_len - len_;
  for (int j = 0; j < gap; ++j) {
    const bool bit = (idx >> (gap - 1 - j)) & 1ULL;
    if (bit) addr = addr.with_bit(len_ + j, true);
  }
  Prefix p;
  p.addr_ = addr;
  p.len_ = sub_len;
  return p;
}

std::string Prefix::to_string() const {
  return addr_.to_string() + "/" + std::to_string(len_);
}

}  // namespace ipd::net
