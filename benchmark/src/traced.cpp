// The traced run: per-layer numbers, never a source of end-to-end ones.
//
// Every layer is timed from outside, around calls into its public
// functions, on the workload's traced stream:
//   decode      decode_wire_frame / decode_serve_line, in blocks of frames
//   round       RoundMachine: constructor, apply() by event kind (runs of
//               admits within a slot as one call group), close + take_outcome
//   econ        EconTelemetry::observe_round on capture-mode machines
//   auction     run_greedy_allocation and OnlineGreedyMechanism::run, the
//               batch core the serve path is compared against
//   engine      a 1-shard ServeEngine with the planes off, then live on,
//               then trace on (producer CPU, queue waits, plane overheads)
//   socket      a SocketServer with a counting sink, one binary and one
//               JSONL connection
// Spans {name, start, end, parent, round} of the first kTracedRounds rounds
// go into a preallocated buffer and are written as Chrome Trace JSON when
// the run ends; the aggregates cover every round.
//
// The ratios of two timings (plane overheads, layer sum over wall) come from
// kRepeats back-to-back groups of the round pass and the three engine
// passes, and report the median group: the host's speed drifts by tens of
// percent over seconds, and a ratio of two passes in one group cancels it.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "auction/online_greedy.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "io/json.hpp"
#include "model/scenario.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/engine.hpp"
#include "serve/telemetry.hpp"
#include "serve/trace_plane.hpp"
#include "serve/wire.hpp"

namespace mcs_bench {

namespace serve = mcs::serve;
using serve::ServeEventKind;

namespace {

constexpr std::size_t kTracedRounds = 256;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;
constexpr std::size_t kDecodeBlock = 1024;
constexpr int kRepeats = 5;

enum Lane : int {
  kLaneWire = 1,
  kLaneJsonl,
  kLaneRound,
  kLaneEcon,
  kLaneAuction,
  kLaneEngine,
};

struct Span {
  const char* name;
  int lane;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t parent;  ///< span index, -1 = none
  std::int64_t round;   ///< -1 = not tied to one round
};

/// Fixed-capacity span store: appends past the capacity are counted, not
/// stored, so recording never allocates while timing.
class SpanBuffer {
 public:
  SpanBuffer() { spans_.reserve(kSpanCapacity); }

  std::int32_t add(const char* name, int lane, std::uint64_t start,
                   std::uint64_t end, std::int32_t parent,
                   std::int64_t round) {
    if (spans_.size() == kSpanCapacity) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, lane, start, end, parent, round});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void set_end(std::int32_t index, std::uint64_t end) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end;
  }

  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

  void write_chrome(std::ostream& os, std::uint64_t origin_ns) const {
    static constexpr const char* kLaneNames[] = {
        "", "wire decode", "jsonl decode", "round machine",
        "econ audit", "auction core", "engine + socket passes"};
    mcs::io::JsonWriter json(os);
    json.begin_object();
    json.field("displayTimeUnit", "ns");
    json.key("traceEvents").begin_array();
    for (int lane = kLaneWire; lane <= kLaneEngine; ++lane) {
      json.begin_object();
      json.field("name", "thread_name").field("ph", "M");
      json.field("pid", std::int64_t{1}).field("tid", std::int64_t{lane});
      json.key("args").begin_object().field("name", kLaneNames[lane]);
      json.end_object().end_object();
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      json.begin_object();
      json.field("name", span.name).field("ph", "X");
      json.field("pid", std::int64_t{1});
      json.field("tid", std::int64_t{span.lane});
      json.field("ts", static_cast<double>(span.start_ns - origin_ns) / 1e3);
      json.field("dur",
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      json.key("args").begin_object();
      json.field("id", static_cast<std::int64_t>(i));
      json.field("parent", std::int64_t{span.parent});
      json.field("round", span.round);
      json.end_object().end_object();
    }
    json.end_array().end_object();
    os << '\n';
  }

 private:
  std::vector<Span> spans_;
  std::int64_t dropped_{0};
};

bool is_admit(ServeEventKind kind) {
  return kind == ServeEventKind::kTaskArrived ||
         kind == ServeEventKind::kBidSubmitted;
}

double per(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

struct EngineRun {
  double wall_s{0.0};
  std::uint64_t producer_cpu_ns{0};
  std::vector<serve::RoundOutcome> outcomes;
};

/// One pass of the stream through a fresh engine (construction untimed).
EngineRun run_engine(const serve::ServeConfig& config,
                     const std::vector<ServeEvent>& events) {
  EngineRun run;
  serve::ServeEngine engine(config);
  serve::ShardBatcher batcher(engine);
  const std::uint64_t cpu = thread_cpu_ns();
  const std::uint64_t start = now_ns();
  for (const ServeEvent& event : events) batcher.add(event);
  batcher.flush();
  engine.drain();
  run.wall_s = seconds_since(start);
  run.producer_cpu_ns = thread_cpu_ns() - cpu;
  run.outcomes = engine.take_outcomes();
  return run;
}

/// Time spent in each RoundMachine call kind over one single-thread pass.
struct RoundPass {
  std::uint64_t open_ns{0};
  std::uint64_t admit_ns{0};
  std::uint64_t admit_events{0};
  std::uint64_t tick_ns{0};
  std::uint64_t ticks{0};
  std::uint64_t departing_ns{0};  ///< ticks with a departing winner
  std::uint64_t departing{0};
  std::uint64_t close_ns{0};
  std::int64_t bids{0};
  std::int64_t payments{0};
  std::vector<double> service_us;                    ///< per round
  std::unordered_map<std::int64_t, std::uint64_t> digests;

  [[nodiscard]] std::uint64_t total_ns() const {
    return open_ns + admit_ns + tick_ns + close_ns;
  }
};

/// Drives every round of `events` through its own RoundMachine on this
/// thread. Spans of the rounds in `traced` go to `spans` when it is set.
RoundPass run_round_machines(const std::vector<ServeEvent>& events,
                             const mcs::auction::OnlineGreedyConfig& greedy,
                             const std::unordered_set<std::int64_t>& traced,
                             SpanBuffer* spans) {
  struct RoundState {
    std::optional<serve::RoundMachine> machine;
    std::uint64_t service_ns{0};
    std::int32_t span{-1};
    std::vector<std::pair<std::int32_t, std::uint64_t>> ticks;  // slot, ns
    std::vector<std::int32_t> window_end;  // by agent id
  };
  RoundPass pass;
  std::unordered_map<std::int64_t, RoundState> open;
  for (std::size_t i = 0; i < events.size();) {
    const ServeEvent& event = events[i];
    if (event.kind == ServeEventKind::kRoundOpen) {
      RoundState& state = open[event.round];
      const std::uint64_t start = now_ns();
      state.machine.emplace(event, greedy, /*capture=*/false);
      const std::uint64_t end = now_ns();
      pass.open_ns += end - start;
      state.service_ns += end - start;
      if (spans != nullptr && traced.contains(event.round)) {
        state.span =
            spans->add("round", kLaneRound, start, end, -1, event.round);
        spans->add("round_machine.open", kLaneRound, start, end, state.span,
                   event.round);
      }
      ++i;
      continue;
    }
    RoundState& state = open.at(event.round);
    serve::RoundMachine& machine = *state.machine;
    if (is_admit(event.kind)) {
      std::size_t stop = i;
      const std::uint64_t start = now_ns();
      while (stop < events.size() && events[stop].round == event.round &&
             is_admit(events[stop].kind)) {
        machine.apply(events[stop]);
        ++stop;
      }
      const std::uint64_t end = now_ns();
      pass.admit_ns += end - start;
      pass.admit_events += stop - i;
      state.service_ns += end - start;
      if (state.span >= 0) {
        spans->add("round_machine.admit", kLaneRound, start, end, state.span,
                   event.round);
      }
      for (; i < stop; ++i) {
        if (events[i].kind != ServeEventKind::kBidSubmitted) continue;
        const auto agent = static_cast<std::size_t>(events[i].agent.value());
        if (agent >= state.window_end.size()) {
          state.window_end.resize(agent + 1);
        }
        state.window_end[agent] = events[i].window.end().value();
        ++pass.bids;
      }
      continue;
    }
    const std::uint64_t start = now_ns();
    machine.apply(event);
    if (event.kind == ServeEventKind::kSlotTick) {
      const std::uint64_t end = now_ns();
      pass.tick_ns += end - start;
      ++pass.ticks;
      state.service_ns += end - start;
      state.ticks.emplace_back(event.slot.value(), end - start);
      if (state.span >= 0) {
        spans->add("round_machine.tick", kLaneRound, start, end, state.span,
                   event.round);
      }
      ++i;
      continue;
    }
    // round_close: settle and materialize.
    const serve::RoundOutcome outcome = machine.take_outcome();
    const std::uint64_t end = now_ns();
    pass.close_ns += end - start;
    state.service_ns += end - start;
    if (state.span >= 0) {
      spans->add("round_machine.close", kLaneRound, start, end, state.span,
                 event.round);
      spans->set_end(state.span, end);
    }
    std::unordered_set<std::int32_t> departure_slots;
    for (const mcs::PhoneId winner : outcome.outcome.allocation.winners()) {
      departure_slots.insert(
          state.window_end[static_cast<std::size_t>(winner.value())]);
    }
    for (const auto& [slot, ns] : state.ticks) {
      if (departure_slots.contains(slot)) {
        pass.departing_ns += ns;
        ++pass.departing;
      }
    }
    for (const mcs::Money& paid : outcome.outcome.payments) {
      if (paid.micros() > 0) ++pass.payments;
    }
    pass.service_us.push_back(static_cast<double>(state.service_ns) / 1e3);
    pass.digests[event.round] = outcome_digest(outcome.outcome);
    open.erase(event.round);
    ++i;
  }
  return pass;
}

}  // namespace

Result run_traced(const WorkloadSpec& spec, const Options& options) {
  Result result;
  const auto add = [&result](const char* name, const char* unit,
                             double value) {
    result.metrics.push_back(summarize(name, unit, {value}));
  };
  SpanBuffer spans;
  const std::uint64_t origin = now_ns();
  const mcs::auction::OnlineGreedyConfig greedy;

  const std::vector<ServeEvent> events = traced_events(spec, options.seed);
  const auto n_events = static_cast<double>(events.size());
  std::vector<std::int64_t> round_order;
  for (const ServeEvent& event : events) {
    if (event.kind == ServeEventKind::kRoundOpen) {
      round_order.push_back(event.round);
    }
  }
  const auto n_rounds = static_cast<double>(round_order.size());
  const std::unordered_set<std::int64_t> traced_ids(
      round_order.begin(),
      round_order.begin() + static_cast<std::ptrdiff_t>(
                                std::min(kTracedRounds, round_order.size())));
  const auto traced = [&traced_ids](std::int64_t round) {
    return traced_ids.contains(round);
  };
  result.attempted = static_cast<std::int64_t>(round_order.size());

  // ---- serve/wire, serve/replay: decode ------------------------------
  const Stream binary = binary_stream(events);
  const Stream jsonl = jsonl_stream(events);
  std::int64_t decode_mismatch = 0;
  std::vector<ServeEvent> block;
  block.reserve(kDecodeBlock);
  const auto check_block = [&](std::size_t& index) {
    for (const ServeEvent& event : block) {
      if (index >= events.size() || !(event == events[index])) {
        ++decode_mismatch;
      }
      ++index;
    }
    block.clear();
  };

  std::uint64_t wire_ns = 0;
  {
    std::string_view rest(binary.bytes);
    rest.remove_prefix(serve::decode_wire_header(rest).value());
    std::size_t index = 0;
    while (!rest.empty()) {
      const std::uint64_t start = now_ns();
      while (block.size() < kDecodeBlock && !rest.empty()) {
        const std::optional<serve::DecodedFrame> frame =
            serve::decode_wire_frame(rest);
        if (!frame) throw mcs::InvalidArgumentError("truncated binary stream");
        block.push_back(frame->event);
        rest.remove_prefix(frame->consumed);
      }
      const std::uint64_t end = now_ns();
      wire_ns += end - start;
      if (traced(block.front().round)) {
        spans.add("wire.decode_block", kLaneWire, start, end, -1,
                  block.front().round);
      }
      check_block(index);
    }
  }

  std::uint64_t jsonl_ns = 0;
  {
    std::vector<std::string_view> lines;
    const std::string_view text(jsonl.bytes);
    for (std::size_t at = 0; at < text.size();) {
      const std::size_t nl = text.find('\n', at);
      lines.push_back(text.substr(at, nl - at));
      at = nl + 1;
    }
    std::size_t index = 0;
    for (std::size_t at = 0; at < lines.size();) {
      const std::uint64_t start = now_ns();
      const std::size_t stop = std::min(at + kDecodeBlock, lines.size());
      for (; at < stop; ++at) {
        std::optional<ServeEvent> event = serve::decode_serve_line(lines[at]);
        if (event) block.push_back(*event);
      }
      const std::uint64_t end = now_ns();
      jsonl_ns += end - start;
      if (!block.empty() && traced(block.front().round)) {
        spans.add("jsonl.decode_block", kLaneJsonl, start, end, -1,
                  block.front().round);
      }
      check_block(index);
    }
  }
  if (decode_mismatch != 0) {
    result.fail(std::to_string(decode_mismatch) +
                " decoded event(s) differ from the generated stream");
  }
  add("wire.decode_ns_per_event", "ns",
      per(static_cast<double>(wire_ns), n_events));
  add("jsonl.decode_ns_per_event", "ns",
      per(static_cast<double>(jsonl_ns), n_events));
  add("wire.bytes_per_event", "bytes",
      per(static_cast<double>(binary.bytes.size()), n_events));
  add("jsonl.bytes_per_event", "bytes",
      per(static_cast<double>(jsonl.bytes.size()), n_events));

  // ---- serve/socket: counting sink, one binary + one JSONL client ------
  {
    std::atomic<std::int64_t> delivered{0};
    serve::SocketServer server(serve::SocketServerConfig{},
                               [&delivered](const ServeEvent&) {
                                 delivered.fetch_add(
                                     1, std::memory_order_relaxed);
                               });
    server.start();
    const std::uint64_t start = now_ns();
    std::vector<serve::SocketClient> clients;
    clients.push_back(serve::SocketClient::connect("127.0.0.1", server.port()));
    clients.push_back(serve::SocketClient::connect("127.0.0.1", server.port()));
    send_interleaved(clients, {binary.bytes, jsonl.bytes});
    server.drain();
    const std::uint64_t end = now_ns();
    spans.add("socket.ingest", kLaneEngine, start, end, -1, -1);
    const serve::SocketServerStats stats = server.stats();
    if (stats.events != binary.events + jsonl.events ||
        delivered.load() != stats.events) {
      result.fail("socket delivered " + std::to_string(stats.events) +
                  " of " + std::to_string(binary.events + jsonl.events) +
                  " events");
    }
    if (stats.decode_errors != 0) result.fail("socket decode errors");
    add("socket.ingest_events_per_s", "events/s",
        static_cast<double>(stats.events) /
            (static_cast<double>(end - start) / 1e9));
    add("socket.decode_errors", "count",
        static_cast<double>(stats.decode_errors));
  }

  // ---- serve/round_machine -> platform, serve/engine, serve/queue ------
  // Each group runs the single-thread round pass, then a 1-shard engine
  // with the planes off, live on, trace on. Spans, digests and the
  // per-layer aggregates come from the first group.
  serve::ServeConfig config;
  config.shards = 1;
  config.batch_size = kBatch;
  config.admission = serve::ServeConfig::Admission::kBlock;
  std::int64_t diverged = 0;
  RoundPass rounds;
  EngineRun off;
  serve::LiveSummary live_summary;
  std::vector<double> live_overhead;
  std::vector<double> trace_overhead;
  std::vector<double> layer_sum_over_wall;
  for (int group = 0; group < kRepeats; ++group) {
    RoundPass pass = run_round_machines(events, greedy, traced_ids,
                                        group == 0 ? &spans : nullptr);
    const double pass_s = static_cast<double>(pass.total_ns()) / 1e9;
    if (group == 0) rounds = std::move(pass);
    const auto engine_pass = [&](const char* name,
                                 const serve::ServeConfig& c) {
      const std::uint64_t start = now_ns();
      EngineRun run = run_engine(c, events);
      if (group == 0) spans.add(name, kLaneEngine, start, now_ns(), -1, -1);
      for (const serve::RoundOutcome& outcome : run.outcomes) {
        const auto it = rounds.digests.find(outcome.round);
        if (it == rounds.digests.end() ||
            it->second != outcome_digest(outcome.outcome)) {
          ++diverged;
        }
      }
      diverged += static_cast<std::int64_t>(round_order.size()) -
                  static_cast<std::int64_t>(run.outcomes.size());
      return run;
    };
    EngineRun planes_off = engine_pass("engine.planes_off", config);
    serve::LiveTelemetry live;
    serve::ServeConfig live_config = config;
    live_config.live = &live;
    const EngineRun live_on = engine_pass("engine.live_on", live_config);
    serve::TracePlane trace;
    serve::ServeConfig trace_config = config;
    trace_config.trace = &trace;
    const EngineRun trace_on = engine_pass("engine.trace_on", trace_config);

    live_overhead.push_back(live_on.wall_s / planes_off.wall_s - 1.0);
    trace_overhead.push_back(trace_on.wall_s / planes_off.wall_s - 1.0);
    layer_sum_over_wall.push_back(pass_s / planes_off.wall_s);
    if (group == 0) {
      off = std::move(planes_off);
      live_summary = live.summary();
    }
  }

  // ---- auction: the batch core on the same rounds ----------------------
  std::uint64_t allocate_ns = 0;
  std::uint64_t run_ns = 0;
  for (const std::int64_t round : round_order) {
    const mcs::model::Scenario scenario =
        mcs::model::round_scenario(spec.workload, options.seed, round);
    const mcs::model::BidProfile truthful = scenario.truthful_bids();
    const std::uint64_t start = now_ns();
    const mcs::auction::GreedyRun allocation =
        mcs::auction::run_greedy_allocation(scenario, truthful, greedy);
    const std::uint64_t mid = now_ns();
    const mcs::auction::Outcome batch =
        mcs::auction::OnlineGreedyMechanism(greedy).run(scenario, truthful);
    const std::uint64_t end = now_ns();
    allocate_ns += mid - start;
    run_ns += end - mid;
    if (traced(round)) {
      spans.add("auction.run_greedy_allocation", kLaneAuction, start, mid, -1,
                round);
      spans.add("auction.online_greedy_run", kLaneAuction, mid, end, -1, round);
    }
    const auto it = rounds.digests.find(round);
    if (it == rounds.digests.end() || it->second != outcome_digest(batch) ||
        allocation.allocation.allocated_count() !=
            batch.allocation.allocated_count()) {
      ++diverged;
    }
  }

  // ---- serve/econ_telemetry -> analysis: capture-mode machines ---------
  std::uint64_t audit_ns = 0;
  serve::EconTelemetry econ;
  econ.attach(1);
  {
    std::unordered_map<std::int64_t, serve::RoundMachine> machines;
    for (const ServeEvent& event : events) {
      if (event.kind == ServeEventKind::kRoundOpen) {
        machines.emplace(event.round,
                         serve::RoundMachine(event, greedy, /*capture=*/true));
        continue;
      }
      const auto it = machines.find(event.round);
      if (!it->second.apply(event)) continue;
      const serve::RoundOutcome outcome = it->second.take_outcome();
      const std::uint64_t start = now_ns();
      econ.observe_round(0, it->second, outcome);
      const std::uint64_t end = now_ns();
      audit_ns += end - start;
      if (traced(event.round)) {
        spans.add("econ.observe_round", kLaneEcon, start, end, -1, event.round);
      }
      machines.erase(it);
    }
  }
  const serve::EconSnapshot econ_totals = econ.take_snapshot();
  if (econ.violations() != 0) {
    result.fail(std::to_string(econ.violations()) + " econ violation(s)");
  }

  std::vector<std::int64_t> per_shard(static_cast<std::size_t>(spec.shards), 0);
  for (const ServeEvent& event : events) {
    ++per_shard[static_cast<std::size_t>(
        serve::shard_of_round(event.round, spec.shards))];
  }
  const auto busiest = *std::max_element(per_shard.begin(), per_shard.end());
  const double skew = static_cast<double>(busiest) /
                      (n_events / static_cast<double>(spec.shards));

  add("engine.submit_ns_per_event", "ns",
      per(static_cast<double>(off.producer_cpu_ns), n_events));
  add("engine.queue_wait_p50_us", "us",
      live_summary.queue_wait.quantile_us(0.5));
  add("engine.queue_wait_p99_us", "us",
      live_summary.queue_wait.quantile_us(0.99));
  add("engine.round_close_p50_us", "us",
      live_summary.round_latency.quantile_us(0.5));
  add("engine.round_close_p99_us", "us",
      live_summary.round_latency.quantile_us(0.99));
  add("engine.queue_high_watermark", "count",
      static_cast<double>(live_summary.queue_high_watermark));
  add("engine.shard_skew", "ratio", skew);

  add("round.open_ns", "ns",
      per(static_cast<double>(rounds.open_ns), n_rounds));
  add("round.admit_ns_per_event", "ns",
      per(static_cast<double>(rounds.admit_ns),
          static_cast<double>(rounds.admit_events)));
  add("round.tick_us", "us",
      per(static_cast<double>(rounds.tick_ns) / 1e3,
          static_cast<double>(rounds.ticks)));
  add("round.tick_us_departing", "us",
      per(static_cast<double>(rounds.departing_ns) / 1e3,
          static_cast<double>(rounds.departing)));
  add("round.tick_us_quiet", "us",
      per(static_cast<double>(rounds.tick_ns - rounds.departing_ns) / 1e3,
          static_cast<double>(rounds.ticks - rounds.departing)));
  add("round.close_us", "us",
      per(static_cast<double>(rounds.close_ns) / 1e3, n_rounds));
  add("round.service_us_p50", "us", quantile(rounds.service_us, 0.5));
  add("round.service_us_p99", "us", quantile(rounds.service_us, 0.99));
  add("round.bids_per_round", "count",
      per(static_cast<double>(rounds.bids), n_rounds));
  add("round.payments_per_round", "count",
      per(static_cast<double>(rounds.payments), n_rounds));

  add("auction.allocate_us_per_round", "us",
      per(static_cast<double>(allocate_ns) / 1e3, n_rounds));
  const double settle_ns =
      static_cast<double>(run_ns) - static_cast<double>(allocate_ns);
  add("auction.settle_us_per_round", "us", per(settle_ns / 1e3, n_rounds));

  add("econ.audit_us_per_round", "us",
      per(static_cast<double>(audit_ns) / 1e3, n_rounds));
  add("econ.probe_rounds", "count",
      static_cast<double>(econ_totals.cumulative.probe_rounds));
  add("econ.violations", "count", static_cast<double>(econ.violations()));

  add("plane.live_overhead", "ratio", quantile(live_overhead, 0.5));
  add("plane.trace_overhead", "ratio", quantile(trace_overhead, 0.5));
  add("trace.layer_sum_over_wall", "ratio",
      quantile(layer_sum_over_wall, 0.5));

  result.failed = std::min(diverged, result.attempted);
  if (diverged != 0) {
    result.notes.push_back(std::to_string(diverged) +
                           " round outcome(s) differ between layers");
  }
  const auto diagnose = [&result](const char* name, const char* unit,
                                  double value) {
    result.diagnostics.push_back(summarize(name, unit, {value}));
  };
  diagnose("traced_events", "events", n_events);
  diagnose("traced_rounds", "rounds", n_rounds);
  diagnose("engine_wall_planes_off_s", "s", off.wall_s);
  const double round_ns = static_cast<double>(rounds.total_ns());
  diagnose("round_layer_sum_s", "s", round_ns / 1e9);
  // The property each workload stands for, as a share of the single-thread
  // serve work (decode of the format it sends + every RoundMachine call).
  const double sent_decode_ns =
      spec.connections > 0 ? static_cast<double>(wire_ns + jsonl_ns) / 2.0
                           : static_cast<double>(wire_ns);
  const double serve_ns = sent_decode_ns + round_ns;
  diagnose("settle_share", "ratio",
           per(static_cast<double>(rounds.departing_ns), serve_ns));
  diagnose("decode_share", "ratio", per(sent_decode_ns, serve_ns));
  diagnose("spans_dropped", "count", static_cast<double>(spans.dropped()));

  const std::string trace_path =
      options.out_dir + "/" + spec.name + ".trace.json";
  std::ofstream trace_file(trace_path);
  if (!trace_file) throw mcs::IoError("cannot write " + trace_path);
  spans.write_chrome(trace_file, origin);
  return result;
}

}  // namespace mcs_bench
