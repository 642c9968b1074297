// mcs_cli -- the command-line face of the library.
//
//   mcs_cli generate --out campaign.mcs --slots 50 --lambda 6 ...
//   mcs_cli run      --file campaign.mcs --mechanism online [--reserve 40]
//   mcs_cli audit    --file campaign.mcs --mechanism second-price
//   mcs_cli figure   --id fig6 [--reps 50] [--csv fig6.csv]
//   mcs_cli replay   events.jsonl
//   mcs_cli explain  events.jsonl --phone 3
//   mcs_cli serve    --loadgen --rounds 64 --shards 4 [--verify]
//   mcs_cli serve    --replay stream.jsonl --shards 4 [--batch 64]
//   mcs_cli serve    --listen 7777 --shards 8          (socket front-end)
//   mcs_cli serve    --connect 127.0.0.1:7777 --wire   (load client)
//   mcs_cli transcode --in stream.jsonl --out stream.bin
//
// generate draws a Table-I-style round and saves it as a plain-text
// scenario file; run executes a mechanism on a scenario file and prints
// the outcome (--events-out records the decision log); audit runs the
// truthfulness/IR deviation grids; figure regenerates one of the paper's
// evaluation figures; replay re-executes a recorded run and verifies the
// outcome byte-for-byte; explain narrates one phone's round from the log.
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <fstream>
#include <sstream>

#include "analysis/bench_diff.hpp"
#include "analysis/econ_report.hpp"
#include "arena/arena.hpp"
#include "arena/leaderboard.hpp"
#include "analysis/flight.hpp"
#include "analysis/metrics.hpp"
#include "analysis/report_json.hpp"
#include "analysis/rationality.hpp"
#include "analysis/trace_report.hpp"
#include "analysis/truthfulness.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/cli.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "model/scenario_io.hpp"
#include "model/workload.hpp"
#include "obs/event_log.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/replay.hpp"
#include "serve/socket.hpp"
#include "serve/telemetry.hpp"
#include "serve/trace_plane.hpp"
#include "serve/verify.hpp"
#include "serve/wire.hpp"
#include "sim/experiments.hpp"
#include "sim/html_report.hpp"

namespace {

using namespace mcs;

/// Telemetry session for a subcommand: installs a registry + trace
/// collector for the calling thread when --metrics-out, --trace, or
/// --trace-out asked for them (otherwise everything stays a no-op), and
/// writes the report(s) / renders the trace in finish().
class CliTelemetry {
 public:
  CliTelemetry(std::string metrics_path, bool trace_to_stdout,
               std::string trace_path = {})
      : metrics_path_(std::move(metrics_path)),
        trace_path_(std::move(trace_path)),
        trace_to_stdout_(trace_to_stdout) {
    if (!enabled()) return;
    registry_guard_.emplace(&registry_);
    trace_guard_.emplace(&trace_);
    // Pre-register the headline counters so every report carries the same
    // schema keys regardless of which mechanism ran (zero means "this run
    // never exercised that path") -- the smoke test and bench-diff key on
    // their presence.
    obs::preregister_headline_counters(registry_);
  }

  [[nodiscard]] bool enabled() const {
    return !metrics_path_.empty() || !trace_path_.empty() || trace_to_stdout_;
  }

  /// Writes the JSON report(s) and/or prints the span tree. Must be
  /// called after every traced span has closed.
  void finish(const std::map<std::string, std::string>& meta) {
    if (!enabled()) return;
    trace_guard_.reset();
    registry_guard_.reset();
    if (trace_to_stdout_) {
      std::cout << "trace:\n";
      obs::render_trace_text(std::cout, trace_);
    }
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      if (!out) throw IoError("cannot open trace file: " + trace_path_);
      obs::write_chrome_trace(out, trace_.spans(), meta);
      std::cout << "chrome trace written to " << trace_path_
                << " (load in Perfetto or chrome://tracing)\n";
    }
    if (metrics_path_.empty()) return;
    std::ofstream out(metrics_path_);
    if (!out) throw IoError("cannot open metrics file: " + metrics_path_);
    obs::write_metrics_json(out, registry_, &trace_, meta);
    std::cout << "telemetry written to " << metrics_path_ << '\n';
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
  bool trace_to_stdout_;
  obs::MetricsRegistry registry_;
  obs::TraceCollector trace_;
  std::optional<obs::ScopedRegistry> registry_guard_;
  std::optional<obs::ScopedTrace> trace_guard_;
};

void print_usage(std::ostream& os) {
  os <<
      R"(mcs_cli -- truthful crowdsourcing auctions (ICDCS 2014 reproduction)

Subcommands:
  generate   draw a random round and save it as a scenario file
  run        run a mechanism on a scenario file (--events-out records the
             structured decision log for replay/explain)
  audit      truthfulness + individual-rationality audit on a scenario file
  figure     regenerate one of the paper's evaluation figures
  report     all figures as one self-contained HTML file
  replay     re-execute a recorded decision log and verify the outcome
  explain    narrate one phone's round from a recorded decision log
  serve      streaming auction engine: sharded event-driven rounds fed by
             the seeded load generator, a recorded stream (--replay,
             JSONL or binary, autodetected), or a TCP socket (--listen);
             --connect turns the CLI into a load client pushing the
             loadgen stream to a listening server
             (--econ-out turns on the live economic plane + sentinel)
  transcode  losslessly convert a recorded serve stream between
             mcs.serve.v1 JSONL and the mcs.serve.b1 binary wire format
  econ-report economic leaderboard: batch-simulate mechanisms into a
             markdown welfare/overpayment table, or summarize a live
             mcs.serve_econ.v1 snapshot stream (--from)
  trace-report digest an mcs.trace.v1 round-trace stream (serve
             --trace-jsonl) into per-phase p50/p99 and the slowest
             retained rounds as ASCII span waterfalls
  bench-diff compare two bench telemetry reports: exact on deterministic
             work counters, p50/p95/p99 ratios on duration histograms;
             exit 1 on regression
  arena      strategic-agent arena: populations of bidder policies
             (truthful, cost-shading, arrival-delaying, best-responding)
             attack each mechanism over seeded rounds; emits a
             deterministic mcs.arena.v1 leaderboard with per-policy
             incentive-to-deviate scores

Run 'mcs_cli <subcommand> --help' (or 'mcs_cli help <subcommand>') for the
flags of each subcommand.
)";
}

/// RunSpec from the common mechanism-selection flags (run and audit).
analysis::RunSpec spec_from_cli(const io::CliParser& cli) {
  analysis::RunSpec spec;
  spec.mechanism = cli.get_string("mechanism");
  spec.reserve = cli.get_double("reserve");
  spec.profitable_only = cli.get_switch("profitable-only");
  spec.batch = cli.get_int("batch");
  return spec;
}

/// Splits "subcommand FILE --flags..." argument lists: when the first
/// argument after the subcommand is not a flag it is taken as the file
/// path, and the strict flag parser sees the rest. Returns "" when the
/// file must come from --file instead.
std::string take_leading_positional(int& argc, const char* const*& argv,
                                    std::vector<const char*>& rest) {
  if (argc < 2 || argv[1][0] == '-') return "";
  const std::string positional = argv[1];
  rest.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
  --argc;
  argv = rest.data();
  return positional;
}

int cmd_generate(int argc, const char* const* argv) {
  io::CliParser cli("Draws one auction round and saves it as a scenario file.");
  cli.add_string("out", "scenario.mcs", "output path");
  cli.add_int("slots", 50, "slots per round (m)");
  cli.add_double("lambda", 6.0, "smartphone arrival rate per slot");
  cli.add_double("lambda-t", 3.0, "task arrival rate per slot");
  cli.add_double("mean-cost", 25.0, "average real cost");
  cli.add_double("mean-active", 5.0, "average active-window length");
  cli.add_double("value", 50.0, "task value nu");
  cli.add_string("distribution", "uniform", "cost family: uniform|normal|exponential");
  cli.add_int("seed", 42, "RNG seed");
  if (!cli.parse(argc, argv)) return 0;

  model::WorkloadConfig workload;
  workload.num_slots = static_cast<Slot::rep_type>(cli.get_int("slots"));
  workload.phone_arrival_rate = cli.get_double("lambda");
  workload.task_arrival_rate = cli.get_double("lambda-t");
  workload.mean_cost = cli.get_double("mean-cost");
  workload.mean_active_length = cli.get_double("mean-active");
  workload.task_value = Money::from_double(cli.get_double("value"));
  const std::string family = cli.get_string("distribution");
  if (family == "uniform") {
    workload.cost_distribution = model::CostDistribution::kUniform;
  } else if (family == "normal") {
    workload.cost_distribution = model::CostDistribution::kNormal;
  } else if (family == "exponential") {
    workload.cost_distribution = model::CostDistribution::kExponential;
  } else {
    throw InvalidArgumentError("unknown cost distribution: " + family);
  }

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const model::Scenario scenario = model::generate_scenario(workload, rng);
  model::save_scenario(cli.get_string("out"), scenario);
  std::cout << "wrote " << cli.get_string("out") << ": "
            << scenario.phone_count() << " phones, " << scenario.task_count()
            << " tasks over " << scenario.num_slots << " slots\n";
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  io::CliParser cli("Runs a mechanism on a scenario file (truthful bids).");
  cli.add_string("file", "scenario.mcs", "scenario file");
  cli.add_string("mechanism", "online",
                 "online | offline | second-price | batched");
  cli.add_double("reserve", 0.0, "online reserve price (0 = none)");
  cli.add_switch("profitable-only", "skip bids above the task value");
  cli.add_int("batch", 5, "batch size for --mechanism batched");
  cli.add_switch("allocation", "also print the per-task allocation");
  cli.add_string("json", "", "also write a machine-readable round report");
  cli.add_string("events-out", "",
                 "record the structured decision log (JSONL, mcs.events.v1)");
  cli.add_switch("probe-critical",
                 "with --events-out: log each winner's critical-value "
                 "bisection probes (online mechanism)");
  cli.add_string("metrics-out", "",
                 "write a telemetry report (counters, histograms, trace) as JSON");
  cli.add_switch("trace", "print the nested phase-timing tree");
  cli.add_string("trace-out", "",
                 "write the span tree in Chrome Trace Event Format "
                 "(Perfetto / chrome://tracing)");
  if (!cli.parse(argc, argv)) return 0;

  CliTelemetry telemetry(cli.get_string("metrics-out"),
                         cli.get_switch("trace"),
                         cli.get_string("trace-out"));

  auction::Outcome outcome;
  analysis::RoundMetrics metrics;
  std::unique_ptr<auction::Mechanism> mechanism;
  model::Scenario scenario;
  model::BidProfile bids;
  const std::string events_path = cli.get_string("events-out");
  std::uint64_t events_recorded = 0;
  {
    const obs::TraceSpan span("cli.run");
    {
      const obs::TraceSpan load_span("cli.load_scenario");
      scenario = model::load_scenario(cli.get_string("file"));
    }
    const analysis::RunSpec spec = spec_from_cli(cli);
    mechanism = analysis::make_mechanism(spec);
    {
      const obs::TraceSpan intake_span("cli.bid_intake");
      bids = scenario.truthful_bids();
    }
    if (events_path.empty()) {
      outcome = mechanism->run(scenario, bids);
    } else {
      std::ofstream events_file(events_path);
      if (!events_file) {
        throw IoError("cannot open events file: " + events_path);
      }
      obs::JsonlEventSink sink(events_file);
      obs::EventLog log(&sink);
      outcome = analysis::record_run(log, spec, scenario, bids,
                                     cli.get_switch("probe-critical"));
      events_recorded = log.count();
    }
    {
      const obs::TraceSpan metrics_span("cli.compute_metrics");
      metrics = analysis::compute_metrics(scenario, bids, outcome);
    }
  }
  telemetry.finish({{"tool", "mcs_cli run"},
                    {"scenario", cli.get_string("file")},
                    {"mechanism", mechanism->name()}});
  if (!events_path.empty()) {
    std::cout << "decision log written to " << events_path << " ("
              << events_recorded << " events)\n";
  }

  std::cout << mechanism->name() << " on " << cli.get_string("file") << ":\n"
            << analysis::describe(metrics);
  if (const std::string json_path = cli.get_string("json");
      !json_path.empty()) {
    std::ofstream json_file(json_path);
    if (!json_file) throw IoError("cannot open JSON report file: " + json_path);
    analysis::write_round_report_json(json_file, scenario, bids, outcome,
                                      mechanism->name());
    std::cout << "JSON report written to " << json_path << '\n';
  }
  if (cli.get_switch("allocation")) {
    io::TextTable table({"task", "slot", "phone", "payment"});
    for (const model::Task& task : scenario.tasks) {
      const auto phone = outcome.allocation.phone_for(task.id);
      table.add_row(
          {std::to_string(task.id.value()), std::to_string(task.slot.value()),
           phone ? std::to_string(phone->value()) : "-",
           phone ? outcome.payments[static_cast<std::size_t>(phone->value())]
                       .to_string()
                 : "-"});
    }
    table.print(std::cout);
  }
  return 0;
}

int cmd_audit(int argc, const char* const* argv) {
  io::CliParser cli(
      "Runs the truthfulness and individual-rationality audits on a "
      "scenario file.");
  cli.add_string("file", "scenario.mcs", "scenario file");
  cli.add_string("mechanism", "online",
                 "online | offline | second-price | batched");
  cli.add_double("reserve", 0.0, "online reserve price (0 = none)");
  cli.add_switch("profitable-only", "skip bids above the task value");
  cli.add_int("batch", 5, "batch size for --mechanism batched");
  if (!cli.parse(argc, argv)) return 0;

  const model::Scenario scenario = model::load_scenario(cli.get_string("file"));
  const auto mechanism = analysis::make_mechanism(spec_from_cli(cli));

  const analysis::TruthfulnessReport truth =
      analysis::audit_truthfulness(*mechanism, scenario);
  const analysis::RationalityReport rationality =
      analysis::audit_individual_rationality(*mechanism, scenario);
  std::cout << mechanism->name() << " on " << cli.get_string("file") << ":\n"
            << "  truthfulness: " << truth.summary() << '\n'
            << "  rationality:  " << rationality.summary() << '\n';
  if (!truth.truthful()) {
    const analysis::DeviationViolation& worst =
        *std::max_element(truth.violations.begin(), truth.violations.end(),
                          [](const auto& a, const auto& b) {
                            return a.gain() < b.gain();
                          });
    std::cout << "  worst manipulation: phone " << worst.phone << " reports "
              << worst.deviant_bid << " and gains " << worst.gain() << '\n';
    return 1;
  }
  return 0;
}

int cmd_report(int argc, const char* const* argv) {
  io::CliParser cli(
      "Regenerates ALL evaluation figures and writes them as one "
      "self-contained HTML report (inline SVG charts + data tables).");
  cli.add_string("out", "report.html", "output HTML path");
  cli.add_int("reps", 50, "repetitions per sweep point");
  cli.add_int("seed", 42, "base RNG seed");
  if (!cli.parse(argc, argv)) return 0;

  sim::SimulationConfig base;
  base.repetitions = static_cast<int>(cli.get_int("reps"));
  base.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const int figures = sim::write_html_report(cli.get_string("out"), base);
  std::cout << "wrote " << figures << " figures to " << cli.get_string("out")
            << '\n';
  return 0;
}

int cmd_figure(int argc, const char* const* argv) {
  io::CliParser cli("Regenerates one of the paper's evaluation figures.");
  cli.add_string("id", "fig6", "fig6 | fig7 | fig8 | fig9 | fig10 | fig11");
  cli.add_int("reps", 50, "repetitions per sweep point");
  cli.add_int("seed", 42, "base RNG seed");
  cli.add_string("csv", "", "also write the series as CSV");
  cli.add_string("metrics-out", "",
                 "write a telemetry report (counters, histograms, trace) as JSON");
  cli.add_switch("trace", "print the nested phase-timing tree");
  cli.add_string("trace-out", "",
                 "write the span tree in Chrome Trace Event Format "
                 "(Perfetto / chrome://tracing)");
  if (!cli.parse(argc, argv)) return 0;

  const sim::FigureSpec& spec = sim::figure(cli.get_string("id"));
  sim::SimulationConfig base;
  base.repetitions = static_cast<int>(cli.get_int("reps"));
  base.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  CliTelemetry telemetry(cli.get_string("metrics-out"),
                         cli.get_switch("trace"),
                         cli.get_string("trace-out"));
  std::cout << spec.id << ": " << spec.title << '\n';
  sim::FigureSeries series;
  {
    const obs::TraceSpan span("cli.figure");
    series = sim::run_figure(spec, base);
  }
  telemetry.finish({{"tool", "mcs_cli figure"}, {"figure", spec.id}});
  series.to_table().print(std::cout);
  std::cout << '\n' << series.to_chart();
  if (const std::string path = cli.get_string("csv"); !path.empty()) {
    io::write_csv_file(path, series.header, series.rows);
    std::cout << "series written to " << path << '\n';
  }
  return 0;
}

int cmd_replay(int argc, const char* const* argv) {
  std::vector<const char*> rest;
  const std::string positional = take_leading_positional(argc, argv, rest);
  io::CliParser cli(
      "Re-executes the run recorded in a decision log (mcs.events.v1 "
      "JSONL) and byte-compares the reproduced outcome against the "
      "recorded one. Exit 0 = identical, 1 = divergence.");
  cli.add_string("file", positional, "events.jsonl decision log");
  if (!cli.parse(argc, argv)) return 0;

  const std::string path = cli.get_string("file");
  if (path.empty()) {
    throw InvalidArgumentError(
        "usage: mcs_cli replay <events.jsonl> (or --file <events.jsonl>)");
  }
  std::ifstream events(path);
  if (!events) throw IoError("cannot open events file: " + path);
  const analysis::ReplayReport report = analysis::replay_run(events);
  std::cout << "replayed " << report.mechanism << " run from " << path << " ("
            << report.events << " events)\n";
  if (report.clean) {
    std::cout << "outcome reproduced byte-for-byte: " << report.recorded
              << '\n';
    return 0;
  }
  std::cout << "REPLAY DIVERGED: " << report.diff << '\n';
  return 1;
}

int cmd_transcode(int argc, const char* const* argv) {
  io::CliParser cli(
      "Losslessly converts a recorded serve event stream between "
      "mcs.serve.v1 JSONL and the mcs.serve.b1 binary wire format. The "
      "input format is autodetected from its first bytes; by default the "
      "output is the other format (a JSONL->binary->JSONL round trip is "
      "byte-exact). Both decoders are strict: a malformed input fails "
      "with the offending line / byte offset instead of producing a "
      "partial output.");
  cli.add_string("in", "", "input stream (JSONL or binary, autodetected)");
  cli.add_string("out", "", "output path");
  cli.add_string("to", "",
                 "target format: jsonl | binary (default: the opposite of "
                 "the input)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string in_path = cli.get_string("in");
  const std::string out_path = cli.get_string("out");
  if (in_path.empty() || out_path.empty()) {
    throw InvalidArgumentError(
        "usage: mcs_cli transcode --in <stream> --out <stream> [--to "
        "jsonl|binary]");
  }
  std::ifstream in(in_path, std::ios::binary);
  if (!in) throw IoError("cannot open input stream: " + in_path);
  const serve::WireFormat from = serve::detect_stream_format(in);

  serve::WireFormat to = from == serve::WireFormat::kBinary
                             ? serve::WireFormat::kJsonl
                             : serve::WireFormat::kBinary;
  if (const std::string target = cli.get_string("to"); !target.empty()) {
    if (target == "jsonl") {
      to = serve::WireFormat::kJsonl;
    } else if (target == "binary") {
      to = serve::WireFormat::kBinary;
    } else {
      throw InvalidArgumentError("unknown target format: " + target);
    }
  }

  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw IoError("cannot open output stream: " + out_path);
  const std::int64_t events = serve::transcode_serve_stream(in, out, to);
  out.flush();
  if (!out) throw IoError("write failed: " + out_path);
  std::cout << "transcoded " << events << " events: " << in_path << " ("
            << serve::to_string(from) << ") -> " << out_path << " ("
            << serve::to_string(to) << ")\n";
  return 0;
}

int cmd_bench_diff(int argc, const char* const* argv) {
  // Accept "bench-diff <baseline> <candidate> [--flags]" with the two
  // leading positionals, or fully flagged --baseline/--candidate.
  std::vector<const char*> rest;
  std::vector<std::string> positionals;
  rest.push_back(argc > 0 ? argv[0] : "bench-diff");
  int i = 1;
  for (; i < argc && positionals.size() < 2; ++i) {
    if (argv[i][0] == '-') break;
    positionals.emplace_back(argv[i]);
  }
  for (; i < argc; ++i) rest.push_back(argv[i]);

  io::CliParser cli(
      "Compares two bench telemetry reports (mcs.bench_telemetry.v1 or "
      "mcs.telemetry.v1): deterministic work counters and non-duration "
      "histograms must match exactly; duration (*_us) histograms are "
      "compared as p50/p95/p99 ratios against a threshold. Exit 0 = no "
      "regression, 1 = regression.");
  cli.add_string("baseline", positionals.empty() ? "" : positionals[0],
                 "baseline telemetry JSON (e.g. BENCH_telemetry.json)");
  cli.add_string("candidate", positionals.size() < 2 ? "" : positionals[1],
                 "candidate telemetry JSON to judge");
  cli.add_double("timing-threshold", 1.5,
                 "flag a duration histogram when a quantile ratio "
                 "(candidate/baseline) exceeds this");
  cli.add_switch("gate-timings",
                 "timing regressions also fail the verdict (default: "
                 "report-only; counter drift always fails)");
  cli.add_string("json", "", "also write the verdict as mcs.bench_diff.v1 JSON");
  if (!cli.parse(static_cast<int>(rest.size()), rest.data())) return 0;

  const std::string baseline = cli.get_string("baseline");
  const std::string candidate = cli.get_string("candidate");
  if (baseline.empty() || candidate.empty()) {
    throw InvalidArgumentError(
        "usage: mcs_cli bench-diff <baseline.json> <candidate.json>");
  }
  analysis::BenchDiffOptions options;
  options.timing_ratio_threshold = cli.get_double("timing-threshold");
  options.gate_timings = cli.get_switch("gate-timings");

  const analysis::BenchDiffReport report =
      analysis::diff_bench_telemetry_files(baseline, candidate, options);
  analysis::write_bench_diff_markdown(std::cout, report, options);
  if (const std::string json_path = cli.get_string("json");
      !json_path.empty()) {
    std::ofstream json_file(json_path);
    if (!json_file) {
      throw IoError("cannot open JSON verdict file: " + json_path);
    }
    analysis::write_bench_diff_json(json_file, report, options);
    std::cout << "\nJSON verdict written to " << json_path << '\n';
  }
  return report.regression(options) ? 1 : 0;
}

/// Splits "[HOST:]PORT"; the host defaults to loopback.
std::pair<std::string, int> parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  const std::string host =
      colon == std::string::npos ? "127.0.0.1" : spec.substr(0, colon);
  const std::string port_text =
      colon == std::string::npos ? spec : spec.substr(colon + 1);
  int port = -1;
  try {
    port = std::stoi(port_text);
  } catch (const std::exception&) {
  }
  if (host.empty() || port < 0 || port > 65535) {
    throw InvalidArgumentError("bad endpoint (want [HOST:]PORT): " + spec);
  }
  return {host, port};
}

/// --events-out recorder, in either wire format. Binary frames are
/// buffered and flushed in 64 KiB chunks like the library writers.
class EventRecorder {
 public:
  void open(const std::string& path, bool wire) {
    file_.open(path, std::ios::binary);
    if (!file_) throw IoError("cannot open events file: " + path);
    wire_ = wire;
    if (wire_) {
      serve::append_wire_header(buffer_);
    } else {
      serve::write_stream_header(file_);
    }
  }

  void record(const serve::ServeEvent& event) {
    if (!file_.is_open()) return;
    if (wire_) {
      serve::append_wire_frame(buffer_, event);
      if (buffer_.size() >= std::size_t{64} * 1024) flush_buffer();
    } else {
      serve::write_serve_event(file_, event);
    }
  }

  void finish() {
    if (file_.is_open() && wire_ && !buffer_.empty()) flush_buffer();
  }

 private:
  void flush_buffer() {
    file_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

  std::ofstream file_;
  bool wire_ = false;
  std::string buffer_;
};

/// serve --connect: push the loadgen stream to a listening server.
int run_connect_client(const std::string& endpoint,
                       const serve::LoadGenConfig& load, bool wire) {
  const auto [host, port] = parse_endpoint(endpoint);
  serve::SocketClient client = serve::SocketClient::connect(host, port);
  std::int64_t sent = 0;
  std::int64_t bytes = 0;
  std::string buffer;
  const auto flush = [&] {
    if (buffer.empty()) return;
    bytes += static_cast<std::int64_t>(buffer.size());
    client.send(buffer);
    buffer.clear();
  };
  if (wire) {
    serve::append_wire_header(buffer);
    sent = serve::generate_events(load, [&](const serve::ServeEvent& e) {
      serve::append_wire_frame(buffer, e);
      if (buffer.size() >= std::size_t{64} * 1024) flush();
      return true;
    });
  } else {
    std::ostringstream header;
    serve::write_stream_header(header);
    buffer = header.str();
    sent = serve::generate_events(load, [&](const serve::ServeEvent& e) {
      std::ostringstream line;
      serve::write_serve_event(line, e);
      buffer += line.str();
      if (buffer.size() >= std::size_t{64} * 1024) flush();
      return true;
    });
  }
  flush();
  client.close();
  std::cout << "sent " << sent << " events (" << bytes << " bytes, "
            << (wire ? "binary" : "jsonl") << ") to " << host << ":" << port
            << '\n';
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  io::CliParser cli(
      "Long-running streaming auction engine: shards rounds across worker "
      "threads fed by bounded queues. Traffic comes from the seeded load "
      "generator (--loadgen, the default) or a recorded mcs.serve.v1 "
      "stream (--replay). --verify batch-compares every completed "
      "loadgen round against the batch online mechanism (the "
      "streaming/batch equivalence oracle); exit 1 on divergence.");
  cli.add_string("replay", "",
                 "replay a recorded event stream (mcs.serve.v1 JSONL or "
                 "mcs.serve.b1 binary, autodetected)");
  cli.add_switch("loadgen", "synthesize traffic (default when no --replay)");
  cli.add_string("listen", "",
                 "serve events arriving over TCP: [HOST:]PORT (0 = pick an "
                 "ephemeral port); each connection carries one stream, "
                 "JSONL or binary per connection (autodetected)");
  cli.add_int("listen-conns", 1,
              "listen: drain after this many client connections have been "
              "accepted (their streams are still read to EOF)");
  cli.add_string("connect", "",
                 "act as a load client instead of serving: push the "
                 "loadgen stream to a listening server at [HOST:]PORT");
  cli.add_switch("wire",
                 "use the mcs.serve.b1 binary wire format for --events-out "
                 "and --connect (--replay and --listen autodetect)");
  cli.add_int("batch", 1,
              "producer-side batch size: events buffered per shard before "
              "one queue handoff (1 = per-event submit)");
  cli.add_int("rounds", 64, "loadgen: rounds to stream");
  cli.add_int("slots", 50, "loadgen: slots per round (m)");
  cli.add_double("lambda", 6.0, "loadgen: smartphone arrival rate per slot");
  cli.add_double("lambda-t", 3.0, "loadgen: task arrival rate per slot");
  cli.add_int("seed", 42, "loadgen: base RNG seed (round k forks stream k)");
  cli.add_int("shards", 4, "worker shards (rounds are hashed across them)");
  cli.add_int("queue-depth",
              static_cast<std::int64_t>(serve::ServeConfig{}.queue_capacity),
              "bounded per-shard queue capacity");
  cli.add_string("admission", "block",
                 "backpressure policy: block | reject (shed when full)");
  cli.add_double("reserve", 0.0, "platform reserve price (0 = none)");
  cli.add_switch("profitable-only", "skip bids above the task value");
  cli.add_string("events-out", "",
                 "also record the generated stream as mcs.serve.v1 JSONL");
  cli.add_switch("verify",
                 "batch-compare every completed round (loadgen only)");
  cli.add_string("metrics-out", "",
                 "write a telemetry report (counters, histograms, trace) as JSON");
  cli.add_switch("trace", "print the nested phase-timing tree");
  cli.add_string("trace-out", "",
                 "write the span tree in Chrome Trace Event Format "
                 "(Perfetto / chrome://tracing)");
  cli.add_string("stats-out", "",
                 "stream live mcs.serve_stats.v1 snapshots (JSONL) while "
                 "serving; enables the wall-clock telemetry plane");
  cli.add_int("stats-period-ms", 100, "live snapshot period in milliseconds");
  cli.add_string("stats-prom", "",
                 "write the final live snapshot as Prometheus text");
  cli.add_double("target-eps", 0.0,
                 "open-loop pacing: offered events/sec (0 = as fast as "
                 "possible; loadgen only)");
  cli.add_string("econ-out", "",
                 "stream live mcs.serve_econ.v1 snapshots (JSONL); enables "
                 "the economic telemetry plane + invariant sentinel");
  cli.add_string("econ-prom", "",
                 "write the final econ snapshot as Prometheus text");
  cli.add_string("econ-events", "",
                 "record sentinel econ_violation events (JSONL, "
                 "mcs.events.v1)");
  cli.add_int("econ-probe-every", 16,
              "deep-probe 1-in-N rounds through the counterfactual engine "
              "(0 = cheap invariants only)");
  cli.add_int("econ-probe-seed", 0, "seed of the deep-probe round sampler");
  cli.add_string("trace-jsonl", "",
                 "write retained per-round traces as mcs.trace.v1 JSONL; "
                 "enables the causal trace plane (tail-based sampling)");
  cli.add_string("trace-chrome", "",
                 "write retained per-round traces in Chrome Trace Event "
                 "Format (one lane per shard, flow events across lanes)");
  cli.add_int("trace-threshold-us", 0,
              "retain every round slower than this many microseconds "
              "(0 = auto: track the rolling per-shard p99)");
  cli.add_int("trace-capacity", 256,
              "per-shard retained-trace ring capacity");
  if (!cli.parse(argc, argv)) return 0;

  serve::ServeConfig config;
  config.shards = static_cast<int>(cli.get_int("shards"));
  config.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue-depth"));
  const std::string admission = cli.get_string("admission");
  if (admission == "block") {
    config.admission = serve::ServeConfig::Admission::kBlock;
  } else if (admission == "reject") {
    config.admission = serve::ServeConfig::Admission::kReject;
  } else {
    throw InvalidArgumentError("unknown admission policy: " + admission);
  }
  if (const double reserve = cli.get_double("reserve"); reserve > 0.0) {
    config.greedy.reserve_price = Money::from_double(reserve);
  }
  config.greedy.allocate_only_profitable = cli.get_switch("profitable-only");
  if (const std::int64_t batch = cli.get_int("batch"); batch >= 1) {
    config.batch_size = static_cast<std::size_t>(batch);
  } else {
    throw InvalidArgumentError("--batch must be >= 1");
  }

  serve::LoadGenConfig load;
  load.rounds = cli.get_int("rounds");
  load.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  load.workload.num_slots = static_cast<Slot::rep_type>(cli.get_int("slots"));
  load.workload.phone_arrival_rate = cli.get_double("lambda");
  load.workload.task_arrival_rate = cli.get_double("lambda-t");

  const std::string replay_path = cli.get_string("replay");
  const std::string listen_spec = cli.get_string("listen");
  const std::string connect_spec = cli.get_string("connect");
  if (!connect_spec.empty()) {
    if (!replay_path.empty() || !listen_spec.empty()) {
      throw InvalidArgumentError(
          "--connect streams the load generator to a remote server; it "
          "cannot be combined with --replay or --listen");
    }
    return run_connect_client(connect_spec, load, cli.get_switch("wire"));
  }
  const bool use_listen = !listen_spec.empty();
  if (use_listen && !replay_path.empty()) {
    throw InvalidArgumentError(
        "--listen and --replay are both event sources; pick one");
  }
  const bool use_loadgen = replay_path.empty() && !use_listen;
  if (!use_loadgen && cli.get_switch("verify")) {
    throw InvalidArgumentError(
        "--verify regenerates rounds from loadgen seeds; it cannot be "
        "combined with --replay or --listen");
  }

  const std::string stats_path = cli.get_string("stats-out");
  const std::string prom_path = cli.get_string("stats-prom");
  const double target_eps = cli.get_double("target-eps");
  if (target_eps > 0.0 && !use_loadgen) {
    throw InvalidArgumentError(
        "--target-eps paces the load generator; it cannot be combined "
        "with --replay or --listen");
  }
  // Any live flag turns on the wall-clock plane (it is off by default so
  // the deterministic plane never pays for clock reads it does not need).
  std::unique_ptr<serve::LiveTelemetry> live;
  if (!stats_path.empty() || !prom_path.empty() || target_eps > 0.0) {
    live = std::make_unique<serve::LiveTelemetry>();
    config.live = live.get();
  }

  // Any econ flag turns on the economic plane (off by default: capture
  // mode and per-round audits are paid only when asked for).
  const std::string econ_path = cli.get_string("econ-out");
  const std::string econ_prom_path = cli.get_string("econ-prom");
  const std::string econ_events_path = cli.get_string("econ-events");
  std::ofstream econ_events_file;
  std::unique_ptr<obs::JsonlEventSink> econ_events_sink;
  std::unique_ptr<obs::EventLog> econ_events_log;
  std::unique_ptr<serve::EconTelemetry> econ;
  if (!econ_path.empty() || !econ_prom_path.empty() ||
      !econ_events_path.empty()) {
    serve::EconTelemetryConfig econ_config;
    econ_config.greedy = config.greedy;
    econ_config.probe_every = cli.get_int("econ-probe-every");
    econ_config.probe_seed =
        static_cast<std::uint64_t>(cli.get_int("econ-probe-seed"));
    if (!econ_events_path.empty()) {
      econ_events_file.open(econ_events_path);
      if (!econ_events_file) {
        throw IoError("cannot open econ events file: " + econ_events_path);
      }
      econ_events_sink =
          std::make_unique<obs::JsonlEventSink>(econ_events_file);
      econ_events_log = std::make_unique<obs::EventLog>(econ_events_sink.get());
      econ_config.events = econ_events_log.get();
    }
    econ = std::make_unique<serve::EconTelemetry>(econ_config);
    config.econ = econ.get();
  }

  // Any trace flag turns on the causal trace plane. Like the live plane it
  // is quarantined from the deterministic counters: trace-on and trace-off
  // runs produce bit-identical registry state.
  const std::string trace_jsonl_path = cli.get_string("trace-jsonl");
  const std::string trace_chrome_path = cli.get_string("trace-chrome");
  std::unique_ptr<serve::TracePlane> trace_plane;
  if (!trace_jsonl_path.empty() || !trace_chrome_path.empty()) {
    serve::TracePlaneConfig trace_config;
    trace_config.ring_capacity =
        static_cast<std::size_t>(cli.get_int("trace-capacity"));
    trace_config.slow_threshold_ns =
        static_cast<std::uint64_t>(cli.get_int("trace-threshold-us")) *
        1000ULL;
    trace_plane = std::make_unique<serve::TracePlane>(trace_config);
    config.trace = trace_plane.get();
  }

  CliTelemetry telemetry(cli.get_string("metrics-out"),
                         cli.get_switch("trace"),
                         cli.get_string("trace-out"));

  std::int64_t offered = 0;
  std::int64_t shed = 0;
  serve::PaceReport pace_report;
  std::vector<serve::RoundOutcome> outcomes;
  serve::ServeStats stats;
  const auto start = std::chrono::steady_clock::now();
  {
    const obs::TraceSpan span("cli.serve");
    serve::ServeEngine engine(config);

    std::ofstream stats_file;
    std::ofstream econ_file;
    if (!econ_path.empty()) {
      econ_file.open(econ_path);
      if (!econ_file) throw IoError("cannot open econ file: " + econ_path);
    }
    std::unique_ptr<serve::StatsPublisher> publisher;
    if (!stats_path.empty()) {
      stats_file.open(stats_path);
      if (!stats_file) throw IoError("cannot open stats file: " + stats_path);
      publisher = std::make_unique<serve::StatsPublisher>(
          *live, stats_file,
          std::chrono::milliseconds(cli.get_int("stats-period-ms")),
          econ.get(), econ_file.is_open() ? &econ_file : nullptr);
    }

    // Producer-side batching: one ShardBatcher per (single) producer; the
    // replay path batches internally instead.
    std::unique_ptr<serve::ShardBatcher> batcher;
    if (config.batch_size > 1 && (use_loadgen || use_listen)) {
      batcher = std::make_unique<serve::ShardBatcher>(engine);
    }
    EventRecorder recorder;
    if (const std::string events_path = cli.get_string("events-out");
        !events_path.empty()) {
      recorder.open(events_path, cli.get_switch("wire"));
    }

    if (use_loadgen) {
      const auto submit = [&](const serve::ServeEvent& e) {
        recorder.record(e);
        const serve::SubmitStatus status =
            batcher ? batcher->add(e) : engine.submit(e);
        return status == serve::SubmitStatus::kAccepted;
      };
      if (target_eps > 0.0) {
        serve::PaceConfig pace;
        pace.target_eps = target_eps;
        pace_report = serve::run_paced_load(load, pace, submit);
        offered = pace_report.offered;
        shed = pace_report.shed;
      } else {
        offered = serve::generate_events(load, [&](const serve::ServeEvent& e) {
          if (!submit(e)) ++shed;
          return true;
        });
      }
    } else if (use_listen) {
      const auto [host, port] = parse_endpoint(listen_spec);
      serve::SocketServerConfig socket_config;
      socket_config.host = host;
      socket_config.port = static_cast<std::uint16_t>(port);
      // The server's reader threads share this sink; one lock serializes
      // the recorder and the batcher (both single-producer by contract).
      std::mutex sink_mutex;
      std::int64_t socket_shed = 0;
      serve::SocketServer server(
          socket_config, [&](const serve::ServeEvent& e) {
            const std::lock_guard<std::mutex> lock(sink_mutex);
            recorder.record(e);
            const serve::SubmitStatus status =
                batcher ? batcher->add(e) : engine.submit(e);
            if (status == serve::SubmitStatus::kRejectedQueueFull) {
              ++socket_shed;
            }
          });
      server.start();
      const std::int64_t want_conns =
          std::max<std::int64_t>(cli.get_int("listen-conns"), 1);
      std::cout << "listening on " << host << ":" << server.port()
                << ", draining after " << want_conns << " connection(s)\n"
                << std::flush;
      while (server.stats().connections < want_conns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      server.drain();
      const serve::SocketServerStats socket_stats = server.stats();
      offered = socket_stats.events;
      shed = socket_shed;
      if (socket_stats.decode_errors > 0) {
        std::cout << socket_stats.decode_errors
                  << " connection(s) aborted on malformed or truncated "
                     "input\n";
      }
    } else {
      std::ifstream stream(replay_path, std::ios::binary);
      if (!stream) throw IoError("cannot open event stream: " + replay_path);
      const serve::ReplayStats replayed =
          serve::replay_event_stream(stream, engine, config.batch_size > 1);
      offered = replayed.events;
      shed = replayed.shed;
    }
    if (batcher) {
      batcher->flush();
      shed = batcher->rejected_events();  // exact under batch granularity
    }
    recorder.finish();
    engine.drain();
    if (publisher) publisher->stop();  // flushes the final tail snapshot
    if (econ_file.is_open() && !publisher) {
      // No publisher thread to emit the tail; write one snapshot so even a
      // stats-less run produces a non-empty econ stream.
      serve::write_econ_snapshot(econ_file, econ->take_snapshot());
    }
    if (!prom_path.empty()) {
      std::ofstream prom_file(prom_path);
      if (!prom_file) throw IoError("cannot open stats file: " + prom_path);
      const serve::ServeSnapshot tail = live->take_snapshot();
      serve::render_live_prometheus(prom_file, tail);
    }
    if (!econ_prom_path.empty()) {
      std::ofstream prom_file(econ_prom_path);
      if (!prom_file) {
        throw IoError("cannot open econ stats file: " + econ_prom_path);
      }
      serve::render_econ_prometheus(prom_file, econ->take_snapshot());
    }
    if (trace_plane) {
      if (!trace_jsonl_path.empty()) {
        std::ofstream trace_file(trace_jsonl_path);
        if (!trace_file) {
          throw IoError("cannot open trace stream file: " + trace_jsonl_path);
        }
        serve::write_trace_stream(trace_file, *trace_plane);
      }
      if (!trace_chrome_path.empty()) {
        std::ofstream trace_file(trace_chrome_path);
        if (!trace_file) {
          throw IoError("cannot open trace chrome file: " + trace_chrome_path);
        }
        serve::write_trace_chrome(trace_file, *trace_plane);
      }
    }
    outcomes = engine.take_outcomes();
    stats = engine.stats();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  telemetry.finish({{"tool", "mcs_cli serve"},
                    {"source", use_loadgen
                                   ? std::string("loadgen")
                                   : (use_listen ? "listen " + listen_spec
                                                 : replay_path)},
                    {"shards", std::to_string(config.shards)}});

  Money total_paid;
  for (const serve::RoundOutcome& outcome : outcomes) {
    total_paid += outcome.total_paid;
  }
  std::cout << "served " << stats.processed << "/" << offered
            << " events across " << config.shards << " shard(s): "
            << stats.rounds_completed << " rounds completed, "
            << stats.tasks_announced << " tasks, " << stats.bids_admitted
            << " bids admitted (" << stats.bids_rejected_reserve
            << " reserve-rejected), total paid " << total_paid << '\n';
  if (shed > 0) {
    std::cout << "admission control shed " << shed
              << " events (policy: " << admission << "); downstream: "
              << stats.orphaned_events << " orphaned events dropped, "
              << stats.rounds_corrupted << " rounds abandoned mid-flight\n";
  }
  if (seconds > 0.0) {
    std::cout << "sustained "
              << static_cast<std::int64_t>(
                     static_cast<double>(stats.processed) / seconds)
              << " events/sec over " << seconds << " s\n";
  }
  if (target_eps > 0.0) {
    std::cout << "pacing: offered " << pace_report.offered
              << " events at target " << target_eps << " events/sec, "
              << pace_report.late_events << " late sends (max lag "
              << static_cast<double>(pace_report.max_lag_ns) / 1e6
              << " ms)\n";
  }
  if (live) {
    const serve::LiveSummary summary = live->summary();
    std::cout << "live: queue_wait p50/p99 "
              << summary.queue_wait.quantile_us(0.5) << "/"
              << summary.queue_wait.quantile_us(0.99)
              << " us, round_close p50/p99 "
              << summary.round_latency.quantile_us(0.5) << "/"
              << summary.round_latency.quantile_us(0.99) << " us, "
              << static_cast<std::int64_t>(summary.events_per_sec())
              << " events/sec live, queue high watermark "
              << summary.queue_high_watermark << '\n';
  }

  if (econ) {
    const std::int64_t violations = econ->violations();
    std::cout << "econ: "
              << obs::to_string(obs::classify_econ_health(violations))
              << ", " << violations << " sentinel violation(s)\n";
  }

  if (trace_plane) {
    const serve::TraceSummary trace_summary = trace_plane->summary();
    std::cout << "trace: " << trace_summary.rounds_traced
              << " rounds traced, " << trace_summary.retained << " retained ("
              << trace_summary.retained_slow << " slow, "
              << trace_summary.retained_econ << " econ, "
              << trace_summary.retained_error << " error), "
              << trace_summary.dropped << " folded into summary, threshold ";
    if (trace_summary.slow_threshold_ns == ~0ULL) {
      std::cout << "not warmed up";
    } else {
      std::cout << static_cast<double>(trace_summary.slow_threshold_ns) / 1e3
                << " us";
    }
    std::cout << '\n';
  }

  if (cli.get_switch("verify")) {
    const serve::VerifyReport report =
        serve::verify_against_batch(load, outcomes, config.greedy);
    if (!report.clean()) {
      std::cout << "VERIFY FAILED: " << report.rounds_diverged << "/"
                << report.rounds_checked << " rounds diverged; first: "
                << report.first_diff << '\n';
      return 1;
    }
    std::cout << "verify: all " << report.rounds_checked
              << " rounds byte-identical to the batch mechanism\n";
  }
  return 0;
}

int cmd_econ_report(int argc, const char* const* argv) {
  io::CliParser cli(
      "Economic leaderboard. Batch mode (default): run a set of mechanisms "
      "over seeded loadgen rounds with truthful bids and render a markdown "
      "welfare/payment/overpayment table (the Fig. 9-11 numbers, computed "
      "through the same analysis::compute_metrics as the offline audits). "
      "Stream mode (--from): summarize an mcs.serve_econ.v1 JSONL snapshot "
      "stream written by 'serve --econ-out'.");
  cli.add_string("from", "",
                 "summarize an mcs.serve_econ.v1 snapshot stream instead of "
                 "simulating");
  cli.add_string("mechanisms", "online,offline,second-price",
                 "comma-separated list: online | offline | second-price | "
                 "batched");
  cli.add_int("rounds", 16, "rounds to simulate per mechanism");
  cli.add_int("slots", 20, "loadgen: slots per round (m)");
  cli.add_double("lambda", 4.0, "loadgen: smartphone arrival rate per slot");
  cli.add_double("lambda-t", 2.0, "loadgen: task arrival rate per slot");
  cli.add_int("seed", 42, "loadgen: base RNG seed (round k forks stream k)");
  cli.add_double("reserve", 0.0, "online reserve price (0 = none)");
  cli.add_switch("profitable-only", "skip bids above the task value");
  cli.add_int("batch", 5, "batch size for the batched mechanism");
  cli.add_string("out", "", "also write the markdown to a file");
  if (!cli.parse(argc, argv)) return 0;

  std::string rendered;
  const std::string from_path = cli.get_string("from");
  if (!from_path.empty()) {
    std::ifstream stream(from_path);
    if (!stream) throw IoError("cannot open econ stream: " + from_path);
    const analysis::EconStreamSummary summary =
        analysis::summarize_econ_stream(stream);
    std::ostringstream os;
    analysis::render_econ_stream(os, summary);
    rendered = os.str();
  } else {
    serve::LoadGenConfig load;
    load.rounds = cli.get_int("rounds");
    load.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    load.workload.num_slots =
        static_cast<Slot::rep_type>(cli.get_int("slots"));
    load.workload.phone_arrival_rate = cli.get_double("lambda");
    load.workload.task_arrival_rate = cli.get_double("lambda-t");
    const analysis::ScenarioGenerator generator =
        [&load](std::int64_t round) {
          return serve::loadgen_scenario(load, round);
        };

    std::vector<analysis::MechanismEconSummary> summaries;
    std::string names = cli.get_string("mechanisms");
    std::istringstream split(names);
    for (std::string name; std::getline(split, name, ',');) {
      if (name.empty()) continue;
      analysis::RunSpec spec;
      spec.mechanism = name;
      spec.reserve = cli.get_double("reserve");
      spec.profitable_only = cli.get_switch("profitable-only");
      spec.batch = cli.get_int("batch");
      const std::unique_ptr<auction::Mechanism> mechanism =
          analysis::make_mechanism(spec);
      summaries.push_back(analysis::summarize_mechanism(
          *mechanism, generator, cli.get_int("rounds")));
    }
    if (summaries.empty()) {
      throw InvalidArgumentError("econ-report: no mechanisms selected");
    }
    std::ostringstream os;
    analysis::render_econ_leaderboard(os, std::move(summaries));
    rendered = os.str();
  }

  std::cout << rendered;
  if (const std::string out = cli.get_string("out"); !out.empty()) {
    std::ofstream file(out);
    if (!file) throw IoError("cannot open output file: " + out);
    file << rendered;
    std::cout << "report written to " << out << '\n';
  }
  return 0;
}

int cmd_trace_report(int argc, const char* const* argv) {
  std::vector<const char*> rest;
  const std::string positional = take_leading_positional(argc, argv, rest);
  io::CliParser cli(
      "Digests an mcs.trace.v1 round-trace stream (written by 'serve "
      "--trace-jsonl') into per-phase p50/p99 latency, the slowest retained "
      "rounds rendered as ASCII span waterfalls, and sketch exemplars.");
  cli.add_string("from", positional, "mcs.trace.v1 JSONL stream to digest");
  cli.add_int("top", 5, "slowest retained rounds to render");
  if (!cli.parse(argc, argv)) return 0;

  const std::string path = cli.get_string("from");
  if (path.empty()) {
    throw InvalidArgumentError(
        "usage: mcs_cli trace-report <trace.jsonl> [--top N]");
  }
  std::ifstream stream(path);
  if (!stream) throw IoError("cannot open trace stream: " + path);
  const analysis::TraceStreamSummary summary =
      analysis::summarize_trace_stream(stream);
  analysis::render_trace_report(std::cout, summary,
                                static_cast<int>(cli.get_int("top")));
  return 0;
}

int cmd_explain(int argc, const char* const* argv) {
  std::vector<const char*> rest;
  const std::string positional = take_leading_positional(argc, argv, rest);
  io::CliParser cli(
      "Narrates one phone's round from a decision log: admission, "
      "candidate-pool standing, wins, critical-value probes, and the "
      "payment derivation.");
  cli.add_string("file", positional, "events.jsonl decision log");
  cli.add_int("phone", 0, "phone id to explain");
  if (!cli.parse(argc, argv)) return 0;

  const std::string path = cli.get_string("file");
  if (path.empty()) {
    throw InvalidArgumentError(
        "usage: mcs_cli explain <events.jsonl> --phone <id>");
  }
  std::ifstream events(path);
  if (!events) throw IoError("cannot open events file: " + path);
  std::cout << analysis::explain_phone(events,
                                       static_cast<int>(cli.get_int("phone")));
  return 0;
}

int cmd_arena(int argc, const char* const* argv) {
  io::CliParser cli(
      "Strategic-agent arena: assigns a population of bidder policies to "
      "every phone of seeded workload rounds and pits each (mechanism x "
      "policy mix) cell over the same round stream. Reports welfare, "
      "payment vs the offline-VCG-on-truthful reference, overpayment "
      "sigma, Jain fairness, per-policy mean utility, and an "
      "incentive-to-deviate score (utility of the policy's bid minus the "
      "truthful bid, all else fixed; for truthful agents, the best gain "
      "over the canonical shade(1.5)/delay(2) deviations). The leaderboard "
      "is byte-identical across runs and worker-thread counts.");
  cli.add_string("mechanisms", "online,offline,second-price",
                 "comma-separated: online | offline | second-price | "
                 "posted(P) | patience(K)");
  cli.add_string("policies",
                 "truthful;"
                 "shaded=truthful:3,shade(1.5):1;"
                 "delayed=truthful:3,delay(2):1",
                 "semicolon-separated mixes, each [name=]policy:weight,... "
                 "(policies: truthful | shade(F) | delay(K) | early(K) | "
                 "best-response)");
  cli.add_int("rounds", 400, "seeded rounds per cell");
  cli.add_int("slots", 12, "slots per round (m)");
  cli.add_double("lambda", 4.0, "smartphone arrival rate per slot");
  cli.add_double("lambda-t", 2.0, "task arrival rate per slot");
  cli.add_int("seed", 42, "arena seed (rounds, assignment, probes)");
  cli.add_int("threads", 1, "worker threads for the cell fan-out "
                            "(0 = hardware; any value, same bytes)");
  cli.add_int("probes", 4, "deviation probes per (round, policy)");
  cli.add_double("reserve", 0.0, "online reserve price (0 = none)");
  cli.add_switch("profitable-only", "skip bids above the task value");
  cli.add_string("json", "", "write the mcs.arena.v1 leaderboard JSON");
  cli.add_string("out", "", "also write the markdown leaderboard to a file");
  cli.add_string("metrics-out", "", "write a telemetry JSON report");
  if (!cli.parse(argc, argv)) return 0;

  arena::ArenaConfig config;
  config.rounds = cli.get_int("rounds");
  config.threads = static_cast<int>(cli.get_int("threads"));
  config.match.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.match.probes_per_policy = cli.get_int("probes");
  config.match.workload.num_slots =
      static_cast<Slot::rep_type>(cli.get_int("slots"));
  config.match.workload.phone_arrival_rate = cli.get_double("lambda");
  config.match.workload.task_arrival_rate = cli.get_double("lambda-t");
  if (cli.get_double("reserve") > 0.0) {
    config.match.greedy.reserve_price =
        Money::from_double(cli.get_double("reserve"));
  }
  config.match.greedy.allocate_only_profitable =
      cli.get_switch("profitable-only");
  {
    std::istringstream split(cli.get_string("mechanisms"));
    for (std::string spec; std::getline(split, spec, ',');) {
      if (!spec.empty()) config.mechanisms.push_back(spec);
    }
  }
  {
    std::istringstream split(cli.get_string("policies"));
    for (std::string spec; std::getline(split, spec, ';');) {
      if (!spec.empty()) config.mixes.push_back(spec);
    }
  }

  CliTelemetry telemetry(cli.get_string("metrics-out"), false);
  const arena::ArenaResult result = arena::run_arena(config);

  std::ostringstream markdown;
  arena::render_arena_markdown(markdown, result);
  std::cout << markdown.str();
  if (const std::string out = cli.get_string("out"); !out.empty()) {
    std::ofstream file(out);
    if (!file) throw IoError("cannot open output file: " + out);
    file << markdown.str();
    std::cout << "leaderboard written to " << out << '\n';
  }
  if (const std::string json = cli.get_string("json"); !json.empty()) {
    std::ofstream file(json);
    if (!file) throw IoError("cannot open output file: " + json);
    arena::write_arena_json(file, result);
    std::cout << "mcs.arena.v1 written to " << json << '\n';
  }
  telemetry.finish({{"tool", "mcs_cli arena"}});
  return 0;
}

/// Dispatches one subcommand; returns -1 when the name is unknown (the
/// caller owns the unknown-subcommand diagnostics, so 'help X' and plain
/// 'X' report identically).
int dispatch(const std::string& subcommand, int argc,
             const char* const* argv) {
  if (subcommand == "generate") return cmd_generate(argc, argv);
  if (subcommand == "run") return cmd_run(argc, argv);
  if (subcommand == "audit") return cmd_audit(argc, argv);
  if (subcommand == "figure") return cmd_figure(argc, argv);
  if (subcommand == "report") return cmd_report(argc, argv);
  if (subcommand == "replay") return cmd_replay(argc, argv);
  if (subcommand == "explain") return cmd_explain(argc, argv);
  if (subcommand == "serve") return cmd_serve(argc, argv);
  if (subcommand == "transcode") return cmd_transcode(argc, argv);
  if (subcommand == "econ-report") return cmd_econ_report(argc, argv);
  if (subcommand == "trace-report") return cmd_trace_report(argc, argv);
  if (subcommand == "bench-diff") return cmd_bench_diff(argc, argv);
  if (subcommand == "arena") return cmd_arena(argc, argv);
  return -1;
}

int unknown_subcommand(const std::string& subcommand) {
  std::cerr << "unknown subcommand: " << subcommand << "\n\n";
  print_usage(std::cerr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Exit-code contract: requested help prints to stdout and exits 0
  // (banner for 'help'/'--help', per-command usage for 'help <sub>' and
  // '<sub> --help'); usage errors -- no arguments, unknown subcommand --
  // diagnose on stderr and exit 2; runtime failures exit 1.
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string subcommand = argv[1];
  try {
    if (subcommand == "--help" || subcommand == "help") {
      if (subcommand == "help" && argc >= 3) {
        const char* help_argv[] = {argv[2], "--help"};
        const int code = dispatch(argv[2], 2, help_argv);
        return code == -1 ? unknown_subcommand(argv[2]) : code;
      }
      print_usage(std::cout);
      return 0;
    }
    const int code = dispatch(subcommand, argc - 1, argv + 1);
    return code == -1 ? unknown_subcommand(subcommand) : code;
  } catch (const mcs::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
