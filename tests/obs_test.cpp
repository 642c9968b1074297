// Tests for the telemetry subsystem: instrument semantics, deterministic
// registry merging (the simulate_parallel reduction identity), span
// nesting, scoped installation, and exporter golden output.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "io/json_parse.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace mcs::obs {
namespace {

// ------------------------------------------------------------ instruments

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Gauge, TracksLastValueAndSetFlag) {
  Gauge g;
  EXPECT_FALSE(g.has_value());
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.0);
  EXPECT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, LeBucketPlacement) {
  // Prometheus semantics: bucket i counts samples <= boundaries[i].
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (boundary is inclusive)
  h.observe(1.001);  // <= 10
  h.observe(100.0);  // <= 100
  h.observe(100.5);  // overflow
  const std::vector<std::int64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 100.0 + 100.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.5);
}

TEST(Histogram, RejectsUnsortedBoundaries) {
  EXPECT_THROW(Histogram({2.0, 1.0}), ContractViolation);
  EXPECT_THROW(Histogram({1.0, 1.0}), ContractViolation);
}

TEST(Histogram, ExponentialBoundaries) {
  const std::vector<double> edges = Histogram::exponential_boundaries(1.0, 2.0, 4);
  EXPECT_EQ(edges, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_EQ(Histogram::default_latency_boundaries_us().size(), 24u);
}

TEST(Histogram, MergeSumsBucketsAndExtrema) {
  Histogram a({10.0, 20.0});
  Histogram b({10.0, 20.0});
  a.observe(5.0);
  b.observe(15.0);
  b.observe(25.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.bucket_counts(), (std::vector<std::int64_t>{1, 1, 1}));
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 25.0);
  EXPECT_DOUBLE_EQ(a.sum(), 45.0);
}

TEST(Histogram, MergeOfEmptyKeepsExtrema) {
  Histogram a({10.0});
  Histogram empty({10.0});
  a.observe(4.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1);
  EXPECT_DOUBLE_EQ(a.min(), 4.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(Histogram, MergeRequiresIdenticalBoundaries) {
  Histogram a({10.0});
  Histogram b({20.0});
  EXPECT_THROW(a.merge(b), ContractViolation);
}

// --------------------------------------------------------------- registry

TEST(MetricsRegistry, InstrumentsAreStableByName) {
  MetricsRegistry registry;
  Counter& c1 = registry.counter("x.count");
  Counter& c2 = registry.counter("x.count");
  EXPECT_EQ(&c1, &c2);
  Histogram& h1 = registry.histogram("x.latency_us");
  Histogram& h2 = registry.histogram("x.latency_us");
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.boundaries(), Histogram::default_latency_boundaries_us());
}

TEST(MetricsRegistry, HistogramReRegistrationMustAgreeOnBoundaries) {
  MetricsRegistry registry;
  const std::vector<double> edges{1.0, 2.0};
  registry.histogram("h", &edges);
  const std::vector<double> other{3.0};
  EXPECT_THROW(registry.histogram("h", &other), ContractViolation);
}

TEST(MetricsRegistry, SnapshotSkipsUnsetGauges) {
  MetricsRegistry registry;
  registry.gauge("unset");
  registry.gauge("set").set(7.0);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("set"), 7.0);
}

TEST(MetricsRegistry, MergeIsAssociativeOnCountersAndHistograms) {
  // merge(merge(a, b), c) == merge(a, merge(b, c)) -- the property that
  // makes the simulate_parallel reduction order-independent.
  MetricsRegistry left_a, left_b, left_c;
  left_a.counter("work.items").add(1);
  left_b.counter("work.items").add(2);
  left_c.counter("work.items").add(4);
  left_a.histogram("work.size").observe(3.0);
  left_b.histogram("work.size").observe(30.0);
  left_c.histogram("work.size").observe(300.0);

  MetricsRegistry right_a, right_b, right_c;
  right_a.counter("work.items").add(1);
  right_b.counter("work.items").add(2);
  right_c.counter("work.items").add(4);
  right_a.histogram("work.size").observe(3.0);
  right_b.histogram("work.size").observe(30.0);
  right_c.histogram("work.size").observe(300.0);

  left_a.merge(left_b);   // (a+b)
  left_a.merge(left_c);   // (a+b)+c
  right_b.merge(right_c); // (b+c)
  right_a.merge(right_b); // a+(b+c)

  const MetricsSnapshot left = left_a.snapshot();
  const MetricsSnapshot right = right_a.snapshot();
  EXPECT_EQ(left.counters, right.counters);
  ASSERT_EQ(left.histograms.size(), right.histograms.size());
  const auto& lh = left.histograms.at("work.size");
  const auto& rh = right.histograms.at("work.size");
  EXPECT_EQ(lh.bucket_counts, rh.bucket_counts);
  EXPECT_EQ(lh.count, rh.count);
  EXPECT_DOUBLE_EQ(lh.sum, rh.sum);
  EXPECT_DOUBLE_EQ(lh.min, rh.min);
  EXPECT_DOUBLE_EQ(lh.max, rh.max);
}

TEST(MetricsRegistry, MergeKeepsAlreadySetGauges) {
  MetricsRegistry dst, src;
  dst.gauge("knob").set(1.0);
  src.gauge("knob").set(2.0);
  src.gauge("other").set(9.0);
  dst.merge(src);
  const MetricsSnapshot snap = dst.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("knob"), 1.0);   // destination wins
  EXPECT_DOUBLE_EQ(snap.gauges.at("other"), 9.0);  // adopted from source
}

TEST(MetricsRegistry, MergeIntoSelfIsRejected) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.merge(registry), ContractViolation);
}

// ------------------------------------------------------ scoped installation

TEST(ScopedRegistry, InstallsNestsAndRestores) {
  EXPECT_EQ(current_registry(), nullptr);
  MetricsRegistry outer, inner;
  {
    const ScopedRegistry outer_guard(&outer);
    EXPECT_EQ(current_registry(), &outer);
    count("hits");
    {
      const ScopedRegistry inner_guard(&inner);
      EXPECT_EQ(current_registry(), &inner);
      count("hits", 10);
      // nullptr disables telemetry within the scope.
      const ScopedRegistry off_guard(nullptr);
      EXPECT_EQ(current_registry(), nullptr);
      count("hits", 100);  // dropped
    }
    EXPECT_EQ(current_registry(), &outer);
    count("hits");
  }
  EXPECT_EQ(current_registry(), nullptr);
  count("hits", 1000);  // dropped
  EXPECT_EQ(outer.counter("hits").value(), 2);
  EXPECT_EQ(inner.counter("hits").value(), 10);
}

TEST(ScopedRegistry, HelpersAreNoOpsWhenUninstalled) {
  ASSERT_EQ(current_registry(), nullptr);
  count("free.counter");
  observe("free.histogram", 1.0);
  set_gauge("free.gauge", 1.0);
  // Nothing to assert beyond "does not crash": there is no registry.
}

// ------------------------------------------------------------------ spans

TEST(TraceSpan, RecordsNestingDepthAndParent) {
  TraceCollector trace;
  MetricsRegistry registry;
  {
    const ScopedTrace trace_guard(&trace);
    const ScopedRegistry registry_guard(&registry);
    const TraceSpan root("run");
    {
      const TraceSpan child("allocation");
      const TraceSpan grandchild("probe");
      (void)grandchild;
    }
    const TraceSpan sibling("payments");
    (void)sibling;
  }
  const std::vector<SpanRecord>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "run");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "allocation");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].name, "probe");
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].name, "payments");
  EXPECT_EQ(spans[3].depth, 1);
  EXPECT_EQ(spans[3].parent, 0);
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.duration_us, 0) << span.name;
    EXPECT_GE(span.start_us, 0) << span.name;
  }
  // The root cannot be shorter than any of its children.
  EXPECT_GE(spans[0].duration_us, spans[1].duration_us);
  // Each closed span also landed in the registry's span histogram.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.histograms.at("span.run_us").count, 1);
  EXPECT_EQ(snap.histograms.at("span.allocation_us").count, 1);
}

TEST(TraceSpan, NoOpWithoutCollectorOrRegistry) {
  ASSERT_EQ(current_trace(), nullptr);
  ASSERT_EQ(current_registry(), nullptr);
  const TraceSpan span("orphan");
  (void)span;
}

TEST(ScopedTimer, RecordsIntoRegistryOnly) {
  TraceCollector trace;
  MetricsRegistry registry;
  {
    const ScopedTrace trace_guard(&trace);
    const ScopedRegistry registry_guard(&registry);
    const ScopedTimer timer("phase.duration_us");
    (void)timer;
  }
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(registry.histogram("phase.duration_us").count(), 1);
}

// -------------------------------------------------------------- exporters

void fill_golden_registry(MetricsRegistry& registry) {
  registry.counter("b.counter", "events of kind b").add(7);
  registry.counter("a.counter").add(3);  // no help: no # HELP line
  registry.gauge("g.level", "configured level knob").set(2.5);
  const std::vector<double> edges{1.0, 10.0};
  Histogram& h = registry.histogram("h.sizes", &edges, "observed sizes");
  h.observe(1.0);
  h.observe(4.0);
  h.observe(40.0);
}

TEST(Exporters, JsonGolden) {
  MetricsRegistry registry;
  fill_golden_registry(registry);
  std::ostringstream out;
  write_metrics_json(out, registry, nullptr, {{"tool", "obs_test"}});
  EXPECT_EQ(out.str(),
            "{\"schema\":\"mcs.telemetry.v1\",\"meta\":{\"tool\":\"obs_test\"},"
            "\"counters\":{\"a.counter\":3,\"b.counter\":7},"
            "\"gauges\":{\"g.level\":2.5},"
            "\"histograms\":{\"h.sizes\":{\"count\":3,\"sum\":45,\"min\":1,"
            "\"max\":40,\"buckets\":[{\"le\":1,\"count\":1},"
            "{\"le\":10,\"count\":1},{\"le\":\"+Inf\",\"count\":1}]}}}\n");
}

TEST(Exporters, JsonIncludesTraceWhenGiven) {
  MetricsRegistry registry;
  TraceCollector trace;
  {
    const ScopedTrace guard(&trace);
    const TraceSpan span("root");
    (void)span;
  }
  std::ostringstream out;
  write_metrics_json(out, registry, &trace);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"trace\":[{\"name\":\"root\",\"depth\":0,"
                      "\"parent\":-1,"),
            std::string::npos)
      << text;
}

TEST(Exporters, CsvGolden) {
  MetricsRegistry registry;
  fill_golden_registry(registry);
  std::ostringstream out;
  write_metrics_csv(out, registry);
  EXPECT_EQ(out.str(),
            "kind,name,field,value\n"
            "counter,a.counter,value,3\n"
            "counter,b.counter,value,7\n"
            "gauge,g.level,value,2.5\n"
            "histogram,h.sizes,count,3\n"
            "histogram,h.sizes,sum,45\n"
            "histogram,h.sizes,min,1\n"
            "histogram,h.sizes,max,40\n"
            "histogram,h.sizes,le=1,1\n"
            "histogram,h.sizes,le=10,1\n"
            "histogram,h.sizes,le=+Inf,1\n");
}

TEST(Exporters, PrometheusGolden) {
  MetricsRegistry registry;
  fill_golden_registry(registry);
  std::ostringstream out;
  write_prometheus(out, registry);
  EXPECT_EQ(out.str(),
            "# TYPE mcs_a_counter counter\n"
            "mcs_a_counter 3\n"
            "# HELP mcs_b_counter events of kind b\n"
            "# TYPE mcs_b_counter counter\n"
            "mcs_b_counter 7\n"
            "# HELP mcs_g_level configured level knob\n"
            "# TYPE mcs_g_level gauge\n"
            "mcs_g_level 2.5\n"
            "# HELP mcs_h_sizes observed sizes\n"
            "# TYPE mcs_h_sizes histogram\n"
            "mcs_h_sizes_bucket{le=\"1\"} 1\n"
            "mcs_h_sizes_bucket{le=\"10\"} 2\n"
            "mcs_h_sizes_bucket{le=\"+Inf\"} 3\n"
            "mcs_h_sizes_sum 45\n"
            "mcs_h_sizes_count 3\n");
}

TEST(Exporters, PrometheusNameSanitizationGolden) {
  // Exposition-format grammar: [a-zA-Z_:][a-zA-Z0-9_:]*. Arbitrary input
  // -- dots, dashes, spaces, user-influenced mechanism strings -- must
  // always come out scrapable.
  EXPECT_EQ(prometheus_name("serve.econ.shard.0.rounds"),
            "mcs_serve_econ_shard_0_rounds");
  EXPECT_EQ(prometheus_name("a-b c/d"), "mcs_a_b_c_d");
  EXPECT_EQ(prometheus_name("colon:kept_underscore_kept"),
            "mcs_colon:kept_underscore_kept");
  EXPECT_EQ(prometheus_name("9starts.with.digit"), "mcs_9starts_with_digit");
  EXPECT_EQ(prometheus_name(""), "mcs_");
  EXPECT_EQ(prometheus_name("na\xc3\xafve"), "mcs_na__ve")
      << "every non-ASCII byte maps to _";
}

TEST(Exporters, PrometheusLabelValueEscapingGolden) {
  EXPECT_EQ(prometheus_label_value("plain"), "plain");
  EXPECT_EQ(prometheus_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(prometheus_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_label_value("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(prometheus_label_value("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Exporters, PrometheusRenderingSanitizesHostileMetricNames) {
  // A name carrying every class of illegal byte still renders as a legal,
  // stable exposition line.
  MetricsRegistry registry;
  registry.counter("serve.econ.shard-0/weird name").add(2);
  std::ostringstream out;
  write_prometheus(out, registry);
  EXPECT_EQ(out.str(),
            "# TYPE mcs_serve_econ_shard_0_weird_name counter\n"
            "mcs_serve_econ_shard_0_weird_name 2\n");
}

TEST(MetricsRegistry, FirstNonEmptyHelpWins) {
  MetricsRegistry registry;
  registry.counter("c");                   // no help yet
  registry.counter("c", "first");          // adopted
  registry.counter("c", "second");         // ignored
  registry.gauge("g", "gauge help");
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.help.at("c"), "first");
  EXPECT_EQ(snap.help.at("g"), "gauge help");
  EXPECT_EQ(snap.help.size(), 2u);
}

TEST(MetricsRegistry, MergeAdoptsMissingHelp) {
  MetricsRegistry dst, src;
  dst.counter("shared", "dst text").add(1);
  src.counter("shared", "src text").add(1);
  src.counter("only.src", "src only").add(1);
  dst.merge(src);
  const MetricsSnapshot snap = dst.snapshot();
  EXPECT_EQ(snap.help.at("shared"), "dst text");   // destination wins
  EXPECT_EQ(snap.help.at("only.src"), "src only"); // adopted
}

// -------------------------------------------------------------- quantiles

MetricsSnapshot::HistogramData snapshot_histogram(const Histogram& h) {
  MetricsSnapshot::HistogramData data;
  data.boundaries = h.boundaries();
  data.bucket_counts = h.bucket_counts();
  data.count = h.count();
  data.sum = h.sum();
  data.min = h.min();
  data.max = h.max();
  return data;
}

TEST(EstimateQuantile, ExactBucketBoundaryAndExtrema) {
  Histogram h({10.0, 20.0, 30.0});
  for (const double v : {2.0, 4.0, 6.0, 8.0, 10.0}) h.observe(v);    // <= 10
  for (const double v : {12.0, 14.0, 16.0, 18.0, 20.0}) h.observe(v);  // <= 20
  const MetricsSnapshot::HistogramData data = snapshot_histogram(h);
  // The p50 rank (5 of 10) lands exactly on the first bucket's upper edge.
  EXPECT_DOUBLE_EQ(estimate_quantile(data, 0.50), 10.0);
  // q <= 0 / q >= 1 return the tracked extrema, not bucket edges.
  EXPECT_DOUBLE_EQ(estimate_quantile(data, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(estimate_quantile(data, 1.0), 20.0);
}

TEST(EstimateQuantile, InterpolatesWithinBucket) {
  Histogram h({10.0, 20.0, 30.0});
  for (const double v : {2.0, 4.0, 6.0, 8.0, 10.0}) h.observe(v);
  for (const double v : {12.0, 14.0, 16.0, 18.0, 20.0}) h.observe(v);
  const MetricsSnapshot::HistogramData data = snapshot_histogram(h);
  // Rank 7.5 of 10: halfway through the (10, 20] bucket.
  EXPECT_DOUBLE_EQ(estimate_quantile(data, 0.75), 15.0);
  // The first bucket interpolates from the observed min, not from zero.
  EXPECT_DOUBLE_EQ(estimate_quantile(data, 0.25), 2.0 + (10.0 - 2.0) * 0.5);
}

TEST(EstimateQuantile, OverflowBucketInterpolatesTowardMax) {
  Histogram h({10.0});
  h.observe(5.0);
  h.observe(15.0);
  h.observe(25.0);
  h.observe(35.0);
  const MetricsSnapshot::HistogramData data = snapshot_histogram(h);
  // Rank 3.96 of 4 lies in the +Inf bucket: interpolate between the last
  // finite edge (10) and the observed max (35).
  const double p99 = estimate_quantile(data, 0.99);
  EXPECT_NEAR(p99, 10.0 + (35.0 - 10.0) * ((3.96 - 1.0) / 3.0), 1e-9);
  EXPECT_LE(p99, data.max);
  EXPECT_DOUBLE_EQ(estimate_quantile(data, 1.0), 35.0);
}

TEST(EstimateQuantile, EmptyHistogramIsNaN) {
  Histogram h({10.0});
  const MetricsSnapshot::HistogramData data = snapshot_histogram(h);
  EXPECT_TRUE(std::isnan(estimate_quantile(data, 0.5)));
}

// ----------------------------------------------------------- chrome trace

TEST(ChromeTrace, GoldenOutput) {
  const std::vector<SpanRecord> spans{
      {"run", 0, -1, 0, 100},
      {"allocation", 1, 0, 10, 40},
      {"payments", 1, 0, 60, 30},
  };
  std::ostringstream out;
  write_chrome_trace(out, spans, {{"tool", "obs_test"}});
  EXPECT_EQ(
      out.str(),
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"mcs\"}},"
      "{\"name\":\"run\",\"cat\":\"mcs\",\"ph\":\"X\",\"ts\":0,\"dur\":100,"
      "\"pid\":1,\"tid\":1,\"args\":{\"depth\":0,\"parent\":-1}},"
      "{\"name\":\"allocation\",\"cat\":\"mcs\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":40,\"pid\":1,\"tid\":1,\"args\":{\"depth\":1,\"parent\":0}},"
      "{\"name\":\"payments\",\"cat\":\"mcs\",\"ph\":\"X\",\"ts\":60,"
      "\"dur\":30,\"pid\":1,\"tid\":1,\"args\":{\"depth\":1,\"parent\":0}}"
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"obs_test\"}}\n");
}

TEST(ChromeTrace, LiveCollectorMatchesRenderTraceText) {
  TraceCollector trace;
  {
    const ScopedTrace guard(&trace);
    const TraceSpan root("run");
    {
      const TraceSpan child("allocation");
      (void)child;
    }
    const TraceSpan sibling("payments");
    (void)sibling;
  }
  std::ostringstream chrome;
  write_chrome_trace(chrome, trace.spans());
  const io::JsonValue doc = io::parse_json(chrome.str());  // valid JSON
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u + trace.spans().size());
  EXPECT_EQ(events[0].at("ph").as_string(), "M");

  // The event sequence is the same preorder render_trace_text walks, with
  // identical names, depths, and parent links.
  std::ostringstream text;
  render_trace_text(text, trace);
  std::istringstream lines(text.str());
  std::string line;
  std::int64_t previous_ts = 0;
  for (std::size_t i = 0; i < trace.spans().size(); ++i) {
    const io::JsonValue& event = events[i + 1];
    ASSERT_TRUE(std::getline(lines, line));
    const std::size_t indent = line.find_first_not_of(' ');
    EXPECT_EQ(static_cast<std::int64_t>(indent) / 2,
              event.at("args").at("depth").as_int())
        << line;
    EXPECT_EQ(line.substr(indent, line.find("  ", indent) - indent),
              event.at("name").as_string());
    EXPECT_EQ(event.at("args").at("parent").as_int(),
              trace.spans()[i].parent);
    // Complete events arrive in open order: timestamps never go backwards.
    EXPECT_GE(event.at("ts").as_int(), previous_ts);
    previous_ts = event.at("ts").as_int();
  }
  EXPECT_FALSE(std::getline(lines, line));  // text had no extra spans
}

// ------------------------------------------------- headline preregistration

TEST(PreregisterHeadlineCounters, StableKeySetWithHelp) {
  MetricsRegistry registry;
  preregister_headline_counters(registry);
  const MetricsSnapshot snap = registry.snapshot();
  for (const char* name :
       {"matching.hungarian.iterations", "matching.hungarian.augmenting_paths",
        "matching.flow.augmenting_paths", "auction.critical_value.probes",
        "auction.greedy.allocation_runs",
        "auction.settlement.slots_walked",
        "auction.counterfactual.probe_forks",
        "auction.counterfactual.slots_replayed",
        "auction.counterfactual.slots_skipped"}) {
    ASSERT_TRUE(snap.counters.count(name) == 1) << name;
    EXPECT_EQ(snap.counters.at(name), 0) << name;
    EXPECT_FALSE(snap.help.at(name).empty()) << name;
  }
}

TEST(Exporters, TraceTextIndentsByDepth) {
  TraceCollector trace;
  {
    const ScopedTrace guard(&trace);
    const TraceSpan root("run");
    const TraceSpan child("allocation");
    (void)child;
  }
  std::ostringstream out;
  render_trace_text(out, trace);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("run  ", 0), 0u) << text;
  EXPECT_NE(text.find("\n  allocation  "), std::string::npos) << text;
}

}  // namespace
}  // namespace mcs::obs
