#include "serve/trace_plane.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "io/json.hpp"
#include "obs/export.hpp"

namespace mcs::serve {

namespace {

/// Auto mode: refresh the rolling-p99 threshold every this many closes...
constexpr std::int64_t kAutoRefreshEvery = 16;
/// ...once the shard has at least this many round latencies (warm-up: an
/// unwarmed sampler retains nothing as slow, so startup jitter does not
/// flood the rings).
constexpr std::uint64_t kAutoWarmupSamples = 32;

std::int64_t i64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

}  // namespace

TracePlane::TracePlane(TracePlaneConfig config)
    : config_(config), exemplars_(config.exemplar_threshold_ns) {}

void TracePlane::attach(int shards) {
  MCS_EXPECTS(shards >= 1, "trace plane: shards must be >= 1");
  lanes_.clear();
  lanes_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    lanes_.push_back(std::make_unique<Lane>(config_));
    if (config_.slow_threshold_ns != 0) {
      lanes_.back()->auto_threshold_ns = config_.slow_threshold_ns;
      lanes_.back()->effective_threshold_ns.store(config_.slow_threshold_ns,
                                                  std::memory_order_relaxed);
    }
  }
}

void TracePlane::on_event(int shard, std::uint64_t queue_wait_ns,
                          std::uint64_t client_lag_ns) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  lane.phase_sketch[static_cast<std::size_t>(obs::TracePhase::kQueueWait)]
      .record_ns(queue_wait_ns);
  lane.phase_sketch[static_cast<std::size_t>(obs::TracePhase::kIngest)]
      .record_ns(client_lag_ns);
}

void TracePlane::on_round_open(int shard, std::int64_t round,
                               std::uint64_t enqueue_ns,
                               std::uint64_t begin_ns,
                               std::uint64_t client_lag_ns) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  obs::RoundTrace trace;
  trace.trace_id = obs::trace_id_of(round);
  trace.round = round;
  trace.shard = shard;
  trace.open_ns = begin_ns;
  // Producer-side spans: the ingest span reaches back by the client's
  // schedule lag (how late the paced sender was), the queue span covers
  // enqueue -> worker pickup.
  const std::uint64_t intended_ns =
      enqueue_ns >= client_lag_ns ? enqueue_ns - client_lag_ns : 0;
  trace.add_span(obs::TracePhase::kIngest, -1, intended_ns, enqueue_ns,
                 config_.max_spans);
  trace.add_span(obs::TracePhase::kQueueWait, -1, enqueue_ns,
                 std::max(begin_ns, enqueue_ns), config_.max_spans);
  lane.open.insert_or_assign(round, std::move(trace));
  lane.rounds_traced.fetch_add(1, std::memory_order_relaxed);
}

void TracePlane::on_slot_tick(int shard, std::int64_t round, std::int32_t slot,
                              std::uint64_t begin_ns, std::uint64_t end_ns) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  const auto it = lane.open.find(round);
  if (it == lane.open.end()) return;
  it->second.add_span(obs::TracePhase::kSlotTick, slot, begin_ns, end_ns,
                      config_.max_spans);
  lane.phase_sketch[static_cast<std::size_t>(obs::TracePhase::kSlotTick)]
      .record_ns(end_ns >= begin_ns ? end_ns - begin_ns : 0);
}

void TracePlane::on_round_complete(int shard, std::int64_t round,
                                   std::uint64_t close_begin_ns,
                                   std::uint64_t settled_ns,
                                   std::uint64_t done_ns,
                                   std::int64_t econ_violations) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  const auto it = lane.open.find(round);
  if (it == lane.open.end()) return;
  obs::RoundTrace trace = std::move(it->second);
  lane.open.erase(it);

  trace.add_span(obs::TracePhase::kPayment, -1, close_begin_ns, settled_ns,
                 config_.max_spans);
  if (done_ns > settled_ns) {
    trace.add_span(obs::TracePhase::kAudit, -1, settled_ns, done_ns,
                   config_.max_spans);
  }
  trace.add_span(obs::TracePhase::kRoundClose, -1, done_ns, done_ns,
                 config_.max_spans);
  trace.status = obs::TraceStatus::kCompleted;
  trace.violations = econ_violations;
  trace.close_ns = done_ns;
  // Same latency definition as the live plane: close processing begin
  // minus open processing begin, so trace-report quantiles line up with
  // the live sketch snapshots.
  trace.latency_ns =
      close_begin_ns >= trace.open_ns ? close_begin_ns - trace.open_ns : 0;

  lane.phase_sketch[static_cast<std::size_t>(obs::TracePhase::kPayment)]
      .record_ns(settled_ns >= close_begin_ns ? settled_ns - close_begin_ns
                                              : 0);
  if (done_ns > settled_ns) {
    lane.phase_sketch[static_cast<std::size_t>(obs::TracePhase::kAudit)]
        .record_ns(done_ns - settled_ns);
  }
  auto& close_sketch =
      lane.phase_sketch[static_cast<std::size_t>(obs::TracePhase::kRoundClose)];
  close_sketch.record_ns(trace.latency_ns);
  lane.rounds_completed.fetch_add(1, std::memory_order_relaxed);

  // Tail sampler. In auto mode the threshold trails the shard's own p99
  // round latency (refreshed every few closes after a warm-up).
  if (config_.slow_threshold_ns == 0) {
    if (++lane.closes_since_refresh >= kAutoRefreshEvery) {
      lane.closes_since_refresh = 0;
      if (close_sketch.count() >= kAutoWarmupSamples) {
        const double p99 = close_sketch.snapshot().quantile_ns(0.99);
        lane.auto_threshold_ns =
            p99 > 0.0 ? static_cast<std::uint64_t>(p99) : ~0ULL;
        lane.effective_threshold_ns.store(lane.auto_threshold_ns,
                                          std::memory_order_relaxed);
      }
    }
  }
  unsigned reasons = 0;
  if (trace.latency_ns >= lane.auto_threshold_ns) reasons |= obs::retain::kSlow;
  if (econ_violations > 0) reasons |= obs::retain::kEconViolation;

  exemplars_.offer(trace.latency_ns, trace.trace_id, round);
  seal(lane, std::move(trace), reasons);
}

void TracePlane::on_round_corrupted(int shard, std::int64_t round,
                                    std::uint64_t at_ns) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  const auto it = lane.open.find(round);
  if (it == lane.open.end()) return;
  obs::RoundTrace trace = std::move(it->second);
  lane.open.erase(it);
  trace.status = obs::TraceStatus::kCorrupted;
  trace.close_ns = at_ns;
  trace.latency_ns = at_ns >= trace.open_ns ? at_ns - trace.open_ns : 0;
  seal(lane, std::move(trace), obs::retain::kError);
}

void TracePlane::on_orphaned_event(int shard, std::int64_t round,
                                   std::uint64_t at_ns) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  // One stub per shed round: later orphans of the same round (or of a
  // round we already sealed as corrupted) do not multiply records.
  if (lane.open.contains(round) || !lane.orphan_rounds.insert(round).second) {
    return;
  }
  obs::RoundTrace trace;
  trace.trace_id = obs::trace_id_of(round);
  trace.round = round;
  trace.shard = shard;
  trace.status = obs::TraceStatus::kOrphaned;
  trace.open_ns = at_ns;
  lane.rounds_traced.fetch_add(1, std::memory_order_relaxed);
  lane.open.insert_or_assign(round, std::move(trace));
}

void TracePlane::on_worker_exit(int shard, std::uint64_t at_ns) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  // Seal leftovers in round order so the ring contents are deterministic
  // for a given event stream.
  std::vector<std::int64_t> rounds;
  rounds.reserve(lane.open.size());
  for (const auto& [round, trace] : lane.open) rounds.push_back(round);
  std::sort(rounds.begin(), rounds.end());
  for (const std::int64_t round : rounds) {
    const auto it = lane.open.find(round);
    obs::RoundTrace trace = std::move(it->second);
    lane.open.erase(it);
    if (trace.status == obs::TraceStatus::kOpen) {
      trace.status = obs::TraceStatus::kAbandoned;
    }
    trace.close_ns = at_ns;
    trace.latency_ns = at_ns >= trace.open_ns ? at_ns - trace.open_ns : 0;
    seal(lane, std::move(trace), obs::retain::kError);
  }
  lane.orphan_rounds.clear();
}

void TracePlane::seal(Lane& lane, obs::RoundTrace trace,
                      unsigned extra_reasons) {
  trace.retained |= extra_reasons;
  const unsigned reasons = trace.retained;
  lane.spans_truncated.fetch_add(trace.spans_dropped,
                                 std::memory_order_relaxed);
  if (reasons != 0) {
    lane.retained.fetch_add(1, std::memory_order_relaxed);
    if ((reasons & obs::retain::kSlow) != 0) {
      lane.retained_slow.fetch_add(1, std::memory_order_relaxed);
    }
    if ((reasons & obs::retain::kEconViolation) != 0) {
      lane.retained_econ.fetch_add(1, std::memory_order_relaxed);
    }
    if ((reasons & obs::retain::kError) != 0) {
      lane.retained_error.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    lane.dropped.fetch_add(1, std::memory_order_relaxed);
  }
  const obs::TraceRing::PushResult push =
      lane.ring.push(std::move(trace), reasons != 0);
  if (push.evicted_pinned) {
    lane.retained_evicted.fetch_add(1, std::memory_order_relaxed);
  }
}

TraceSummary TracePlane::summary() const {
  TraceSummary out;
  out.slow_threshold_ns = 0;
  for (std::size_t p = 0; p < obs::kTracePhaseCount; ++p) {
    out.phases[p].phase = static_cast<obs::TracePhase>(p);
  }
  for (const auto& lane : lanes_) {
    out.rounds_traced += lane->rounds_traced.load(std::memory_order_relaxed);
    out.rounds_completed +=
        lane->rounds_completed.load(std::memory_order_relaxed);
    out.retained += lane->retained.load(std::memory_order_relaxed);
    out.retained_slow +=
        lane->retained_slow.load(std::memory_order_relaxed);
    out.retained_econ +=
        lane->retained_econ.load(std::memory_order_relaxed);
    out.retained_error +=
        lane->retained_error.load(std::memory_order_relaxed);
    out.dropped += lane->dropped.load(std::memory_order_relaxed);
    out.retained_evicted +=
        lane->retained_evicted.load(std::memory_order_relaxed);
    out.spans_truncated +=
        lane->spans_truncated.load(std::memory_order_relaxed);
    out.slow_threshold_ns =
        std::max(out.slow_threshold_ns,
                 lane->effective_threshold_ns.load(std::memory_order_relaxed));
    for (std::size_t p = 0; p < obs::kTracePhaseCount; ++p) {
      out.phases[p].sketch.merge(lane->phase_sketch[p].snapshot());
    }
  }
  if (lanes_.empty()) out.slow_threshold_ns = ~0ULL;
  return out;
}

std::vector<obs::RoundTrace> TracePlane::retained() const {
  std::vector<obs::RoundTrace> out;
  for (const auto& lane : lanes_) {
    for (const obs::TraceRing::Entry& entry : lane->ring.entries()) {
      if (entry.pinned) out.push_back(entry.trace);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const obs::RoundTrace& a, const obs::RoundTrace& b) {
              return a.round < b.round;
            });
  return out;
}

// ---------------------------------------------------------------- export

void write_trace_stream(std::ostream& os, const TracePlane& plane) {
  const TraceSummary summary = plane.summary();
  {
    io::JsonWriter json(os);
    json.begin_object();
    json.field("schema", obs::kTraceSchema);
    json.field("shards", static_cast<std::int64_t>(plane.shards()));
    json.field("ring_capacity",
               static_cast<std::int64_t>(plane.config().ring_capacity));
    json.field("max_spans",
               static_cast<std::int64_t>(plane.config().max_spans));
    json.key("slow_threshold_ns");
    if (plane.config().slow_threshold_ns == 0) {
      json.value("auto");
    } else {
      json.value(i64(plane.config().slow_threshold_ns));
    }
    json.end_object();
    os << '\n';
  }
  for (const obs::RoundTrace& trace : plane.retained()) {
    io::JsonWriter json(os);
    json.begin_object();
    json.field("type", "trace");
    json.field("trace_id", obs::format_trace_id(trace.trace_id));
    json.field("round", trace.round);
    json.field("shard", static_cast<std::int64_t>(trace.shard));
    json.field("status", obs::to_string(trace.status));
    json.key("retained").begin_array();
    if ((trace.retained & obs::retain::kSlow) != 0) json.value("slow");
    if ((trace.retained & obs::retain::kEconViolation) != 0) {
      json.value("econ_violation");
    }
    if ((trace.retained & obs::retain::kError) != 0) json.value("error");
    json.end_array();
    json.field("violations", trace.violations);
    json.field("open_ns", i64(trace.open_ns));
    json.field("close_ns", i64(trace.close_ns));
    json.field("latency_ns", i64(trace.latency_ns));
    json.field("spans_dropped", static_cast<std::int64_t>(trace.spans_dropped));
    json.key("spans").begin_array();
    for (const obs::RoundSpan& span : trace.spans) {
      json.begin_object();
      json.field("phase", obs::to_string(span.phase));
      if (span.slot >= 0) {
        json.field("slot", static_cast<std::int64_t>(span.slot));
      }
      json.field("start_ns", i64(span.start_ns));
      json.field("end_ns", i64(span.end_ns));
      json.end_object();
    }
    json.end_array();
    json.end_object();
    os << '\n';
  }
  {
    io::JsonWriter json(os);
    json.begin_object();
    json.field("type", "summary");
    json.field("rounds", summary.rounds_traced);
    json.field("completed", summary.rounds_completed);
    json.field("retained", summary.retained);
    json.field("retained_slow", summary.retained_slow);
    json.field("retained_econ", summary.retained_econ);
    json.field("retained_error", summary.retained_error);
    json.field("dropped", summary.dropped);
    json.field("retained_evicted", summary.retained_evicted);
    json.field("spans_truncated", summary.spans_truncated);
    json.key("slow_threshold_ns");
    if (summary.slow_threshold_ns == ~0ULL) {
      json.null();  // auto sampler never warmed up
    } else {
      json.value(i64(summary.slow_threshold_ns));
    }
    json.key("phases").begin_object();
    for (const TracePhaseSummary& phase : summary.phases) {
      json.key(obs::to_string(phase.phase)).begin_object();
      json.field("count", static_cast<std::int64_t>(phase.sketch.count));
      if (phase.sketch.empty()) {
        json.key("p50_ns").null();
        json.key("p99_ns").null();
        json.field("max_ns", std::int64_t{0});
      } else {
        json.field("p50_ns", phase.sketch.quantile_ns(0.50));
        json.field("p99_ns", phase.sketch.quantile_ns(0.99));
        json.field("max_ns", i64(phase.sketch.max_ns));
      }
      json.end_object();
    }
    json.end_object();
    json.end_object();
    os << '\n';
  }
  {
    io::JsonWriter json(os);
    json.begin_object();
    json.field("type", "exemplars");
    json.field("threshold_ns", i64(plane.exemplars().threshold_ns()));
    json.key("entries").begin_array();
    for (const auto& exemplar : plane.exemplars().snapshot()) {
      json.begin_object();
      json.field("le_ns", i64(exemplar.bucket_le_ns));
      json.field("latency_ns", i64(exemplar.value_ns));
      json.field("trace_id", obs::format_trace_id(exemplar.trace_id));
      json.field("round", exemplar.round);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    os << '\n';
  }
}

void write_trace_chrome(std::ostream& os, const TracePlane& plane) {
  std::vector<obs::ChromeLane> lanes;
  lanes.push_back(obs::ChromeLane{1, 1, "producer"});
  for (int s = 0; s < plane.shards(); ++s) {
    lanes.push_back(
        obs::ChromeLane{1, 2 + s, "shard " + std::to_string(s)});
  }
  std::vector<obs::ChromeEvent> events;
  for (const obs::RoundTrace& trace : plane.retained()) {
    const std::int64_t shard_tid = 2 + trace.shard;
    obs::ChromeEvent round_event;
    round_event.name = "round " + std::to_string(trace.round);
    round_event.tid = shard_tid;
    round_event.ts_us = i64(trace.open_ns / 1000);
    round_event.dur_us = i64(trace.close_ns >= trace.open_ns
                                 ? (trace.close_ns - trace.open_ns) / 1000
                                 : 0);
    round_event.flow_in = trace.round;
    events.push_back(std::move(round_event));
    for (const obs::RoundSpan& span : trace.spans) {
      if (span.phase == obs::TracePhase::kRoundClose) continue;
      obs::ChromeEvent event;
      const bool producer_side = span.phase == obs::TracePhase::kIngest ||
                                 span.phase == obs::TracePhase::kQueueWait;
      event.name = span.phase == obs::TracePhase::kSlotTick
                       ? "slot " + std::to_string(span.slot)
                       : std::string(obs::to_string(span.phase));
      event.tid = producer_side ? 1 : shard_tid;
      event.ts_us = i64(span.start_ns / 1000);
      event.dur_us = i64(span.duration_ns() / 1000);
      if (span.phase == obs::TracePhase::kQueueWait) {
        event.flow_out = trace.round;
      }
      events.push_back(std::move(event));
    }
  }
  write_chrome_trace_events(os, lanes, events,
                            {{"schema", std::string(obs::kTraceSchema)}});
}

}  // namespace mcs::serve
