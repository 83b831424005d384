// Exporter round-trips: the Prometheus text output is re-parsed with a
// small exposition-format parser (names, escaped labels, histogram series
// invariants), and the JSON-lines output is checked with a strict JSON
// syntax walker — both against hand-built registries and against a live
// engine's full metric surface.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>

#include "core/engine.hpp"
#include "json_check.hpp"

namespace ipd::obs {
namespace {

using LabelMap = std::map<std::string, std::string>;

struct PromSample {
  std::string name;
  LabelMap labels;
  double value = 0.0;
};

/// A parsed exposition: family metadata plus every sample line.
struct PromExposition {
  std::map<std::string, std::string> types;  // family name -> type
  std::map<std::string, std::string> helps;
  std::vector<PromSample> samples;

  std::vector<PromSample> find(const std::string& name) const {
    std::vector<PromSample> out;
    for (const auto& s : samples) {
      if (s.name == name) out.push_back(s);
    }
    return out;
  }

  std::optional<double> value_of(const std::string& name,
                                 const LabelMap& labels) const {
    for (const auto& s : samples) {
      if (s.name == name && s.labels == labels) return s.value;
    }
    return std::nullopt;
  }
};

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') {
      return false;
    }
  }
  return !std::isdigit(static_cast<unsigned char>(name[0]));
}

/// Parse the Prometheus text exposition format (the subset the exporter
/// emits: HELP/TYPE comments and `name{labels} value` samples). Any
/// malformed line fails the calling test via ADD_FAILURE and is skipped.
PromExposition parse_prometheus(const std::string& text) {
  PromExposition out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      ADD_FAILURE() << "exposition must end with a newline";
      break;
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type"
      const bool is_help = line.rfind("# HELP ", 0) == 0;
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      if (!is_help && !is_type) {
        ADD_FAILURE() << "unknown comment line: " << line;
        continue;
      }
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      if (sp == std::string::npos || !valid_metric_name(rest.substr(0, sp))) {
        ADD_FAILURE() << "malformed metadata line: " << line;
        continue;
      }
      (is_help ? out.helps : out.types)[rest.substr(0, sp)] =
          rest.substr(sp + 1);
      continue;
    }
    // Sample line: name[{k="v",...}] value
    PromSample sample;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    sample.name = line.substr(0, i);
    if (!valid_metric_name(sample.name)) {
      ADD_FAILURE() << "bad metric name in: " << line;
      continue;
    }
    bool bad = false;
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string::npos || line.size() <= eq + 1 ||
            line[eq + 1] != '"') {
          bad = true;
          break;
        }
        const std::string key = line.substr(i, eq - i);
        std::string value;
        std::size_t j = eq + 2;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\') {
            if (j + 1 >= line.size()) {
              bad = true;
              break;
            }
            const char esc = line[j + 1];
            if (esc == 'n') {
              value += '\n';
            } else if (esc == '\\' || esc == '"') {
              value += esc;
            } else {
              bad = true;
              break;
            }
            j += 2;
          } else {
            value += line[j++];
          }
        }
        if (bad || j >= line.size()) {
          bad = true;
          break;
        }
        sample.labels[key] = value;
        i = j + 1;  // past closing quote
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (bad || i >= line.size() || line[i] != '}') {
        ADD_FAILURE() << "malformed labels in: " << line;
        continue;
      }
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
      ADD_FAILURE() << "missing value in: " << line;
      continue;
    }
    const std::string value_text = line.substr(i + 1);
    if (value_text == "+Inf") {
      sample.value = std::numeric_limits<double>::infinity();
    } else {
      try {
        std::size_t used = 0;
        sample.value = std::stod(value_text, &used);
        if (used != value_text.size()) bad = true;
      } catch (const std::exception&) {
        bad = true;
      }
    }
    if (bad) {
      ADD_FAILURE() << "unparseable value in: " << line;
      continue;
    }
    out.samples.push_back(std::move(sample));
  }
  return out;
}

/// Check the histogram series invariants for one (name, base-labels)
/// sample: cumulative buckets are non-decreasing, the +Inf bucket matches
/// _count, and the _sum/_count series exist.
void expect_valid_histogram(const PromExposition& exposition,
                            const std::string& name, const LabelMap& labels) {
  ASSERT_EQ(exposition.types.at(name), "histogram") << name;
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  for (const auto& s : exposition.find(name + "_bucket")) {
    LabelMap base = s.labels;
    const auto le = base.find("le");
    ASSERT_NE(le, base.end()) << name << " bucket without le";
    const double bound =
        le->second == "+Inf" ? std::numeric_limits<double>::infinity()
                             : std::stod(le->second);
    base.erase("le");
    if (base == labels) buckets.emplace_back(bound, s.value);
  }
  ASSERT_GE(buckets.size(), 2u) << name << " has no bucket series";
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GT(buckets[i].first, buckets[i - 1].first) << name;
    EXPECT_GE(buckets[i].second, buckets[i - 1].second)
        << name << ": cumulative counts must be non-decreasing";
  }
  EXPECT_TRUE(std::isinf(buckets.back().first)) << name << " missing +Inf";
  const auto count = exposition.value_of(name + "_count", labels);
  const auto sum = exposition.value_of(name + "_sum", labels);
  ASSERT_TRUE(count.has_value()) << name << "_count missing";
  ASSERT_TRUE(sum.has_value()) << name << "_sum missing";
  EXPECT_DOUBLE_EQ(buckets.back().second, *count)
      << name << ": +Inf bucket must equal _count";
}

using ::ipd::testing::JsonChecker;

TEST(FormatValue, PrometheusConventions) {
  EXPECT_EQ(format_value(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(format_value(-std::numeric_limits<double>::infinity()), "-Inf");
  EXPECT_EQ(format_value(std::nan("")), "NaN");
  EXPECT_EQ(format_value(0.0), "0");
  EXPECT_EQ(format_value(42.0), "42");
  EXPECT_EQ(format_value(-17.0), "-17");
  EXPECT_EQ(std::stod(format_value(0.125)), 0.125);
  // Doubles must round-trip exactly.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(format_value(v)), v);
}

TEST(Prometheus, RoundTripsCountersGaugesAndLabels) {
  MetricsRegistry registry;
  registry.counter("requests_total", "Requests seen").inc(42);
  registry.counter("requests_total", "", {{"code", "500"}}).inc(7);
  registry.gauge("temperature", "Degrees").set(-3.25);
  // Escape-worthy label value: quote, backslash, newline.
  registry.counter("odd_total", "h", {{"path", "a\"b\\c\nd"}}).inc(1);

  const auto exposition = parse_prometheus(to_prometheus(registry));
  EXPECT_EQ(exposition.types.at("requests_total"), "counter");
  EXPECT_EQ(exposition.helps.at("requests_total"), "Requests seen");
  EXPECT_EQ(exposition.types.at("temperature"), "gauge");
  EXPECT_EQ(exposition.value_of("requests_total", {}), 42.0);
  EXPECT_EQ(exposition.value_of("requests_total", {{"code", "500"}}), 7.0);
  EXPECT_EQ(exposition.value_of("temperature", {}), -3.25);
  // The escaped label value survives the round trip byte-for-byte.
  EXPECT_EQ(exposition.value_of("odd_total", {{"path", "a\"b\\c\nd"}}), 1.0);
}

TEST(Prometheus, HistogramSeriesAreWellFormed) {
  MetricsRegistry registry;
  Histogram& h =
      registry.histogram("latency_seconds", "Latency", {0.1, 0.5, 1.0},
                         {{"op", "read"}});
  h.observe(0.05);
  h.observe(0.3);
  h.observe(0.3);
  h.observe(2.0);

  const auto exposition = parse_prometheus(to_prometheus(registry));
  expect_valid_histogram(exposition, "latency_seconds", {{"op", "read"}});
  EXPECT_EQ(exposition.value_of("latency_seconds_bucket",
                                {{"op", "read"}, {"le", format_value(0.1)}}),
            1.0);
  EXPECT_EQ(exposition.value_of("latency_seconds_bucket",
                                {{"op", "read"}, {"le", format_value(0.5)}}),
            3.0);
  EXPECT_EQ(exposition.value_of("latency_seconds_count", {{"op", "read"}}),
            4.0);
  const auto sum =
      exposition.value_of("latency_seconds_sum", {{"op", "read"}});
  ASSERT_TRUE(sum.has_value());
  EXPECT_NEAR(*sum, 2.65, 1e-12);
}

TEST(Prometheus, EngineExpositionParsesWithPhaseHistograms) {
  // Acceptance check: a live engine's exposition must parse cleanly and
  // contain the per-phase cycle timing histograms.
  obs::MetricsRegistry registry;
  core::IpdParams params;
  params.ncidr_factor4 = 0.001;
  params.ncidr_factor6 = 1e-7;
  core::IpdEngine engine(params);
  engine.observe({.metrics = &registry});

  const topology::LinkId link{1, 0};
  for (int minute = 0; minute < 5; ++minute) {
    for (std::uint32_t i = 0; i < 200; ++i) {
      engine.ingest(minute * 60, net::IpAddress::v4(i << 16), link);
    }
    engine.run_cycle((minute + 1) * 60);
  }

  const auto exposition = parse_prometheus(to_prometheus(registry));

  // Every family has HELP and TYPE metadata.
  for (const auto& [name, type] : exposition.types) {
    EXPECT_TRUE(exposition.helps.count(name)) << name << " lacks # HELP";
    (void)type;
  }
  // Ingest counters were flushed at cycle time.
  EXPECT_EQ(exposition.value_of("ipd_ingest_flows_total", {{"family", "v4"}}),
            1000.0);
  EXPECT_EQ(exposition.value_of("ipd_cycles_total", {}), 5.0);

  // The cycle histogram and all five per-phase histograms are present and
  // internally consistent, with one observation per cycle.
  expect_valid_histogram(exposition, "ipd_cycle_seconds", {});
  EXPECT_EQ(exposition.value_of("ipd_cycle_seconds_count", {}), 5.0);
  for (const char* phase : {"expire", "classify", "split", "join", "compact"}) {
    const LabelMap labels{{"phase", phase}};
    expect_valid_histogram(exposition, "ipd_cycle_phase_seconds", labels);
    EXPECT_EQ(exposition.value_of("ipd_cycle_phase_seconds_count", labels),
              5.0)
        << phase;
  }
}

TEST(JsonLines, EmitsOneValidObjectPerLine) {
  MetricsRegistry registry;
  registry.counter("flows_total", "h", {{"family", "v4"}}).inc(11);
  registry.gauge("depth", "h").set(2.5);
  registry.histogram("lat", "h", {0.1, 1.0}).observe(0.25);

  const std::string line = to_json_line(registry, 300);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "must be a single line";
  EXPECT_TRUE(JsonChecker(line).valid()) << line;
  EXPECT_NE(line.find("\"ts\":300"), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"flows_total\""), std::string::npos);
  EXPECT_NE(line.find("\"family\":\"v4\""), std::string::npos);
  EXPECT_NE(line.find("\"value\":11"), std::string::npos);
  EXPECT_NE(line.find("\"buckets\":[{\"le\":" + format_value(0.1) +
                      ",\"n\":0},{\"le\":1,\"n\":1}]"),
            std::string::npos);
}

TEST(JsonLines, EscapesHostileLabelValues) {
  MetricsRegistry registry;
  registry.counter("c", "h", {{"k", "a\"b\\c\n\t\x01z"}}).inc(1);
  const std::string line = to_json_line(registry, 0);
  EXPECT_TRUE(JsonChecker(line).valid()) << line;
  EXPECT_NE(line.find("a\\\"b\\\\c\\n\\t\\u0001z"), std::string::npos);
}

TEST(JsonLines, EngineRegistryIsValidJson) {
  obs::MetricsRegistry registry;
  core::IpdParams params;
  params.ncidr_factor4 = 0.001;
  params.ncidr_factor6 = 1e-7;
  core::IpdEngine engine(params);
  engine.observe({.metrics = &registry});
  for (std::uint32_t i = 0; i < 100; ++i) {
    engine.ingest(10, net::IpAddress::v4(i << 20), topology::LinkId{2, 1});
  }
  engine.run_cycle(60);
  const std::string line = to_json_line(registry, 60);
  EXPECT_TRUE(JsonChecker(line).valid());
  EXPECT_NE(line.find("ipd_cycle_phase_seconds"), std::string::npos);
}

}  // namespace
}  // namespace ipd::obs
