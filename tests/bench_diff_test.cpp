#include "analysis/bench_diff.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "io/json_parse.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace mcs::analysis {
namespace {

// Fixtures are built the same way the real pipeline builds them: fill a
// MetricsRegistry, export it with write_metrics_json, and (for wrapper
// documents) splice the per-bench reports into a mcs.bench_telemetry.v1
// object -- exactly what scripts/collect_bench.sh does with `tr`/printf.

std::string export_registry(const obs::MetricsRegistry& registry,
                            const std::string& tool) {
  std::ostringstream os;
  obs::write_metrics_json(os, registry, nullptr, {{"tool", tool}});
  std::string text = os.str();
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

std::string wrap_sections(
    const std::vector<std::pair<std::string, std::string>>& sections) {
  std::string out = "{\"schema\":\"mcs.bench_telemetry.v1\"";
  for (const auto& [name, report] : sections) {
    out += ",\"" + name + "\":" + report;
  }
  out += "}";
  return out;
}

/// A registry resembling one bench section: headline counters, one
/// deterministic distribution histogram, one duration histogram.
void fill_section(obs::MetricsRegistry& registry, std::int64_t iterations,
                  double pool_sample, double duration_us) {
  obs::preregister_headline_counters(registry);
  registry.counter("matching.hungarian.iterations").add(iterations);
  registry.counter("auction.critical_value.probes").add(7);
  const std::vector<double> pool_edges{2.0, 4.0, 8.0};
  registry.histogram("auction.greedy.pool_size", &pool_edges)
      .observe(pool_sample);
  registry.histogram("span.allocation_us").observe(duration_us);
}

io::JsonValue parse(const std::string& text) { return io::parse_json(text); }

TEST(BenchDiff, SelfCompareIsClean) {
  obs::MetricsRegistry registry;
  fill_section(registry, 42, 3.0, 100.0);
  const std::string doc =
      wrap_sections({{"perf_matching", export_registry(registry, "perf_matching")}});
  const BenchDiffReport report =
      diff_bench_telemetry(parse(doc), parse(doc));

  EXPECT_TRUE(report.deterministic_clean());
  EXPECT_FALSE(report.timings_regressed());
  EXPECT_FALSE(report.regression({}));
  // All eight headline counters plus nothing else.
  EXPECT_EQ(report.counters_compared, 8);
  EXPECT_EQ(report.histograms_compared, 1);
  ASSERT_EQ(report.timings.size(), 1u);
  EXPECT_EQ(report.timings[0].name, "span.allocation_us");
  EXPECT_DOUBLE_EQ(report.timings[0].ratio_p50, 1.0);
  EXPECT_DOUBLE_EQ(report.timings[0].ratio_p99, 1.0);
  EXPECT_FALSE(report.timings[0].regressed);
}

TEST(BenchDiff, CounterDriftIsNamedAndFailsTheGate) {
  obs::MetricsRegistry baseline;
  fill_section(baseline, 42, 3.0, 100.0);
  obs::MetricsRegistry candidate;
  fill_section(candidate, 45, 3.0, 100.0);  // iterations drifted 42 -> 45
  const BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections(
          {{"perf_matching", export_registry(baseline, "perf_matching")}})),
      parse(wrap_sections(
          {{"perf_matching", export_registry(candidate, "perf_matching")}})));

  EXPECT_FALSE(report.deterministic_clean());
  EXPECT_TRUE(report.regression({}));  // even without gate_timings
  ASSERT_EQ(report.counter_drifts.size(), 1u);
  EXPECT_EQ(report.counter_drifts[0].bench, "perf_matching");
  EXPECT_EQ(report.counter_drifts[0].name, "matching.hungarian.iterations");
  EXPECT_EQ(report.counter_drifts[0].baseline, 42);
  EXPECT_EQ(report.counter_drifts[0].candidate, 45);

  // The markdown verdict names the drifted counter.
  std::ostringstream md;
  write_bench_diff_markdown(md, report);
  EXPECT_NE(md.str().find("REGRESSION"), std::string::npos);
  EXPECT_NE(md.str().find("matching.hungarian.iterations"), std::string::npos);
}

TEST(BenchDiff, MissingCounterIsDrift) {
  obs::MetricsRegistry baseline;
  fill_section(baseline, 42, 3.0, 100.0);
  baseline.counter("matching.flow.spfa_pops").add(9);
  obs::MetricsRegistry candidate;
  fill_section(candidate, 42, 3.0, 100.0);
  const BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections({{"b", export_registry(baseline, "b")}})),
      parse(wrap_sections({{"b", export_registry(candidate, "b")}})));

  ASSERT_EQ(report.counter_drifts.size(), 1u);
  EXPECT_EQ(report.counter_drifts[0].name, "matching.flow.spfa_pops");
  EXPECT_TRUE(report.counter_drifts[0].in_baseline);
  EXPECT_FALSE(report.counter_drifts[0].in_candidate);
  EXPECT_TRUE(report.regression({}));
}

TEST(BenchDiff, MissingSectionIsANote) {
  obs::MetricsRegistry a;
  fill_section(a, 1, 2.0, 10.0);
  const std::string section = export_registry(a, "a");
  const BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections({{"a", section}, {"b", section}})),
      parse(wrap_sections({{"a", section}})));

  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("b"), std::string::npos);
  EXPECT_TRUE(report.regression({}));
}

TEST(BenchDiff, DeterministicHistogramDriftFails) {
  obs::MetricsRegistry baseline;
  fill_section(baseline, 42, 3.0, 100.0);  // pool sample in (2, 4]
  obs::MetricsRegistry candidate;
  fill_section(candidate, 42, 7.0, 100.0);  // pool sample in (4, 8]
  const BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections({{"b", export_registry(baseline, "b")}})),
      parse(wrap_sections({{"b", export_registry(candidate, "b")}})));

  ASSERT_EQ(report.histogram_drifts.size(), 1u);
  EXPECT_EQ(report.histogram_drifts[0].name, "auction.greedy.pool_size");
  EXPECT_TRUE(report.regression({}));
}

TEST(BenchDiff, TimingRegressionGatesOnlyWhenAsked) {
  obs::MetricsRegistry baseline;
  fill_section(baseline, 42, 3.0, 100.0);
  obs::MetricsRegistry candidate;
  fill_section(candidate, 42, 3.0, 1000.0);  // ~10x slower span
  const BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections({{"b", export_registry(baseline, "b")}})),
      parse(wrap_sections({{"b", export_registry(candidate, "b")}})));

  EXPECT_TRUE(report.deterministic_clean());
  ASSERT_EQ(report.timings.size(), 1u);
  EXPECT_TRUE(report.timings[0].regressed);
  EXPECT_GT(report.timings[0].max_ratio, 5.0);
  EXPECT_TRUE(report.timings_regressed());
  // Report-only by default; fails only with the opt-in gate.
  EXPECT_FALSE(report.regression({}));
  BenchDiffOptions gated;
  gated.gate_timings = true;
  EXPECT_TRUE(report.regression(gated));
  // A looser threshold un-flags it.
  BenchDiffOptions loose;
  loose.timing_ratio_threshold = 100.0;
  const BenchDiffReport relaxed = diff_bench_telemetry(
      parse(wrap_sections({{"b", export_registry(baseline, "b")}})),
      parse(wrap_sections({{"b", export_registry(candidate, "b")}})), loose);
  EXPECT_FALSE(relaxed.timings_regressed());
}

TEST(BenchDiff, BareTelemetryReportsDiffAsOneSection) {
  obs::MetricsRegistry registry;
  fill_section(registry, 42, 3.0, 100.0);
  const std::string doc = export_registry(registry, "mcs_cli run");
  const BenchDiffReport report = diff_bench_telemetry(parse(doc), parse(doc));
  EXPECT_TRUE(report.deterministic_clean());
  EXPECT_EQ(report.counters_compared, 8);
  ASSERT_EQ(report.timings.size(), 1u);
  // The single section is named after meta.tool.
  EXPECT_EQ(report.timings[0].bench, "mcs_cli run");
}

TEST(BenchDiff, RejectsNonTelemetryDocuments) {
  EXPECT_THROW(
      (void)diff_bench_telemetry(parse("{\"schema\":\"other.v1\"}"),
                                 parse("{\"schema\":\"other.v1\"}")),
      InvalidArgumentError);
}

TEST(BenchDiff, JsonVerdictRoundTrips) {
  obs::MetricsRegistry baseline;
  fill_section(baseline, 42, 3.0, 100.0);
  obs::MetricsRegistry candidate;
  fill_section(candidate, 43, 3.0, 100.0);
  BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections({{"b", export_registry(baseline, "b")}})),
      parse(wrap_sections({{"b", export_registry(candidate, "b")}})));
  report.baseline_label = "base.json";
  report.candidate_label = "cand.json";

  std::ostringstream os;
  write_bench_diff_json(os, report);
  const io::JsonValue doc = parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "mcs.bench_diff.v1");
  EXPECT_EQ(doc.at("verdict").as_string(), "regression");
  EXPECT_EQ(doc.at("baseline").as_string(), "base.json");
  const auto& drifts = doc.at("counters").at("drifts").as_array();
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].at("name").as_string(), "matching.hungarian.iterations");
  EXPECT_EQ(doc.at("counters").at("compared").as_int(), 8);
  EXPECT_EQ(doc.at("timings").as_array().size(), 1u);
}

}  // namespace
}  // namespace mcs::analysis
