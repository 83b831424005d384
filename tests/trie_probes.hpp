// Probe addresses for trie descent tests: the edges of a prefix and of the
// locate directory's top-bits blocks it touches, where a stale or
// misaligned directory entry would show first.
#pragma once

#include <cstdint>
#include <vector>

#include "core/trie.hpp"
#include "net/ip_address.hpp"
#include "net/prefix.hpp"

namespace ipd::test {

/// The highest address `prefix` covers.
inline net::IpAddress last_address(const net::Prefix& prefix) {
  const int len = prefix.length();
  const net::IpAddress& a = prefix.address();
  if (a.is_v4()) {
    const std::uint32_t host = len == 32 ? 0u : ~0u >> len;
    return net::IpAddress::v4(a.v4_value() | host);
  }
  const std::uint64_t hi_host = len >= 64 ? 0 : ~0ull >> len;
  const std::uint64_t lo_host =
      len <= 64 ? ~0ull : (len == 128 ? 0 : ~0ull >> (len - 64));
  return net::IpAddress::v6(a.hi() | hi_host, a.lo() | lo_host);
}

/// Append the first and last address of `prefix`, and of every directory
/// block it overlaps: each block it spans when shorter than the directory
/// width, else the one block holding it.
inline void append_edge_probes(const net::Prefix& prefix,
                               std::vector<net::IpAddress>& out) {
  constexpr int kBits = core::IpdTrie::kDirectoryBits;
  out.push_back(prefix.address());
  out.push_back(last_address(prefix));
  const net::IpAddress& a = prefix.address();
  const std::uint64_t first_block =
      a.is_v4() ? a.v4_value() >> (32 - kBits) : a.hi() >> (64 - kBits);
  const std::uint64_t blocks =
      prefix.length() < kBits ? std::uint64_t{1} << (kBits - prefix.length())
                              : 1;
  for (std::uint64_t b = first_block; b < first_block + blocks; ++b) {
    const net::IpAddress start =
        a.is_v4() ? net::IpAddress::v4(static_cast<std::uint32_t>(
                        b << (32 - kBits)))
                  : net::IpAddress::v6(b << (64 - kBits), 0);
    out.push_back(start);
    out.push_back(last_address(net::Prefix(start, kBits)));
  }
}

}  // namespace ipd::test
