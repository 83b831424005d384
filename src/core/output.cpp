#include "core/output.hpp"

#include <cstdlib>
#include <stdexcept>

#include "core/engine.hpp"
#include "util/strings.hpp"

namespace ipd::core {

Snapshot take_snapshot(const IpdEngine& engine, util::Timestamp ts,
                       bool classified_only) {
  Snapshot snapshot;
  for (const net::Family family : {net::Family::V4, net::Family::V6}) {
    engine.for_each_leaf(family, [&](const RangeNode& leaf) {
      const bool classified = leaf.state() == RangeNode::State::Classified;
      if (classified_only && !classified) return;
      if (leaf.counts().empty() && !classified) return;  // idle monitoring
      RangeOutput row;
      row.ts = ts;
      row.classified = classified;
      row.s_ipcount = leaf.counts().total();
      row.n_cidr = engine.params().n_cidr(family, leaf.prefix().length());
      row.range = leaf.prefix();
      if (classified) {
        row.ingress = leaf.ingress();
      } else if (!leaf.counts().empty()) {
        row.ingress = IngressId(leaf.counts().top_link());
      }
      row.s_ingress =
          row.ingress.valid() ? leaf.counts().share_of(row.ingress) : 0.0;
      row.breakdown = leaf.counts().sorted_entries();
      snapshot.push_back(std::move(row));
    });
  }
  return snapshot;
}

std::string format_row(const RangeOutput& row, const topology::Topology* topo) {
  const auto link_name = [&](topology::LinkId link) {
    return topo ? topo->link_name(link)
                : util::format("R%u.%u", link.router, link.iface);
  };
  std::string ingress_text =
      row.ingress.valid()
          ? (topo && !row.ingress.is_bundle() ? link_name(row.ingress.primary_link())
                                              : row.ingress.to_string())
          : std::string("-");
  ingress_text += '(';
  for (std::size_t i = 0; i < row.breakdown.size(); ++i) {
    if (i) ingress_text += ',';
    ingress_text += link_name(row.breakdown[i].first) + "=" +
                    util::format("%.0f", row.breakdown[i].second);
  }
  ingress_text += ')';
  return util::format(
      "%lld %d %.3f %.0f %.0f %s %s", static_cast<long long>(row.ts),
      row.range.family() == net::Family::V4 ? 4 : 6, row.s_ingress,
      row.s_ipcount, row.n_cidr, row.range.to_string().c_str(),
      ingress_text.c_str());
}

namespace {

topology::LinkId parse_link(std::string_view text) {
  // "R<router>.<iface>"
  if (text.empty() || text.front() != 'R') {
    throw std::invalid_argument("parse_row: bad link '" + std::string(text) + "'");
  }
  const std::size_t dot = text.find('.');
  if (dot == std::string_view::npos) {
    throw std::invalid_argument("parse_row: bad link '" + std::string(text) + "'");
  }
  return topology::LinkId{
      static_cast<topology::RouterId>(util::parse_uint(text.substr(1, dot - 1),
                                                       0xFFFFFFFEull)),
      static_cast<topology::InterfaceIndex>(
          util::parse_uint(text.substr(dot + 1), 0xFFFFull))};
}

IngressId parse_ingress(std::string_view text) {
  // "R7.3" or "R7.{1,3}" or "-"
  if (text == "-") return IngressId{};
  const std::size_t brace = text.find('{');
  if (brace == std::string_view::npos) {
    return IngressId(parse_link(text));
  }
  if (text.empty() || text.front() != 'R' || text.back() != '}') {
    throw std::invalid_argument("parse_row: bad bundle '" + std::string(text) + "'");
  }
  const std::size_t dot = text.find('.');
  const auto router = static_cast<topology::RouterId>(
      util::parse_uint(text.substr(1, dot - 1), 0xFFFFFFFEull));
  std::vector<topology::InterfaceIndex> ifaces;
  for (const auto part :
       util::split(text.substr(brace + 1, text.size() - brace - 2), ',')) {
    ifaces.push_back(static_cast<topology::InterfaceIndex>(
        util::parse_uint(part, 0xFFFFull)));
  }
  return IngressId(router, std::move(ifaces));
}

}  // namespace

RangeOutput parse_row(std::string_view line, double q_hint) {
  const auto fields = util::split(util::trim(line), ' ');
  if (fields.size() != 7) {
    throw std::invalid_argument("parse_row: expected 7 fields, got " +
                                std::to_string(fields.size()));
  }
  RangeOutput row;
  row.ts = static_cast<util::Timestamp>(
      util::parse_uint(fields[0], ~0ull >> 1));
  const auto family = util::parse_uint(fields[1], 6);
  row.s_ingress = std::strtod(std::string(fields[2]).c_str(), nullptr);
  row.s_ipcount = std::strtod(std::string(fields[3]).c_str(), nullptr);
  row.n_cidr = std::strtod(std::string(fields[4]).c_str(), nullptr);
  row.range = net::Prefix::from_string(fields[5]);
  if ((family == 4) != (row.range.family() == net::Family::V4)) {
    throw std::invalid_argument("parse_row: family tag/prefix mismatch");
  }

  // "R2.4(R2.4=4798963,R3.54=12220)"
  const std::string_view ingress_text = fields[6];
  const std::size_t paren = ingress_text.find('(');
  if (paren == std::string_view::npos || ingress_text.back() != ')') {
    throw std::invalid_argument("parse_row: bad ingress field");
  }
  row.ingress = parse_ingress(ingress_text.substr(0, paren));
  const std::string_view breakdown =
      ingress_text.substr(paren + 1, ingress_text.size() - paren - 2);
  if (!breakdown.empty()) {
    for (const auto part : util::split(breakdown, ',')) {
      const std::size_t eq = part.find('=');
      if (eq == std::string_view::npos) {
        throw std::invalid_argument("parse_row: bad breakdown entry");
      }
      row.breakdown.emplace_back(
          parse_link(part.substr(0, eq)),
          std::strtod(std::string(part.substr(eq + 1)).c_str(), nullptr));
    }
  }
  row.classified = row.ingress.valid() && row.s_ingress >= q_hint;
  return row;
}

}  // namespace ipd::core
