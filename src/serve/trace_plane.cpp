#include "serve/trace_plane.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "io/json.hpp"
#include "obs/export.hpp"

namespace mcs::serve {

namespace {

/// Auto mode: refresh the rolling-p99 threshold every this many closes...
constexpr std::uint64_t kAutoRefreshEvery = 16;
/// ...once the shard has at least this many round latencies (warm-up: an
/// unwarmed sampler retains nothing as slow, so startup jitter does not
/// flood the rings).
constexpr std::uint64_t kAutoWarmupSamples = 32;

/// Stamps and latencies are written saturated at INT64_MAX (quantiles at
/// 2^63, its value as a double), the domain the trace reader reads back.
std::int64_t i64(std::uint64_t v) {
  return static_cast<std::int64_t>(std::min<std::uint64_t>(v, INT64_MAX));
}

}  // namespace

void TracePlaneConfig::validate() const {
  if (ring_capacity < 1 || ring_capacity > kMaxRingCapacity) {
    throw InvalidArgumentError("trace plane: ring_capacity must be in [1, " +
                               std::to_string(kMaxRingCapacity) + "]");
  }
}

TracePlane::TracePlane(TracePlaneConfig config)
    : config_(config), exemplars_(kTraceExemplarThresholdNs) {
  config_.validate();
}

void TracePlane::attach(std::shared_ptr<const SystemLanes> system) {
  MCS_EXPECTS(system && !system->empty(), "trace plane: shards must be >= 1");
  system_ = std::move(system);
  lanes_.clear();
  lanes_.reserve(system_->size());
  for (std::size_t i = 0; i < system_->size(); ++i) {
    lanes_.push_back(std::make_unique<Lane>(config_));
  }
}

void TracePlane::on_batch(int shard, const RingView& batch) {
  obs::LatencySketch& ingest = lanes_[static_cast<std::size_t>(shard)]->ingest;
  for_each_stretch(
      batch.events,
      [](const ServeEvent& event) { return event.client_lag_ns; },
      [&](std::uint64_t lag_ns, std::size_t n) {
        ingest.record_ns(lag_ns, n);
      });
}

obs::RoundTrace TracePlane::on_round_open(int shard, std::int64_t round,
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
                 kTraceMaxSpans);
  trace.add_span(obs::TracePhase::kQueueWait, -1, enqueue_ns,
                 std::max(begin_ns, enqueue_ns), kTraceMaxSpans);
  lane.rounds_traced.fetch_add(1, std::memory_order_relaxed);
  return trace;
}

void TracePlane::on_slot_tick(int shard, obs::RoundTrace& trace,
                              std::int32_t slot, std::uint64_t begin_ns,
                              std::uint64_t end_ns) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  trace.add_span(obs::TracePhase::kSlotTick, slot, begin_ns, end_ns,
                 kTraceMaxSpans);
  lane.slot_tick.record_ns(end_ns >= begin_ns ? end_ns - begin_ns : 0);
}

void TracePlane::on_round_complete(int shard, obs::RoundTrace trace,
                                   std::uint64_t close_begin_ns,
                                   std::uint64_t settled_ns,
                                   std::uint64_t done_ns,
                                   std::int64_t econ_violations) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  trace.add_span(obs::TracePhase::kPayment, -1, close_begin_ns, settled_ns,
                 kTraceMaxSpans);
  if (done_ns > settled_ns) {
    trace.add_span(obs::TracePhase::kAudit, -1, settled_ns, done_ns,
                   kTraceMaxSpans);
  }
  trace.add_span(obs::TracePhase::kRoundClose, -1, done_ns, done_ns,
                 kTraceMaxSpans);
  trace.status = obs::TraceStatus::kCompleted;
  trace.violations = econ_violations;
  trace.close_ns = done_ns;
  trace.latency_ns =
      close_begin_ns >= trace.open_ns ? close_begin_ns - trace.open_ns : 0;

  lane.payment.record_ns(
      settled_ns >= close_begin_ns ? settled_ns - close_begin_ns : 0);
  if (done_ns > settled_ns) lane.audit.record_ns(done_ns - settled_ns);

  // Tail sampler. In auto mode the threshold trails the shard's own p99
  // round latency, refreshed every few closes after a warm-up from its
  // system lane, which already holds this round.
  const obs::LatencySketch& close_sketch =
      (*system_)[static_cast<std::size_t>(shard)].round_latency;
  const std::uint64_t closes = close_sketch.count();
  if (config_.slow_threshold_ns == 0 && closes % kAutoRefreshEvery == 0 &&
      closes >= kAutoWarmupSamples) {
    const double p99 = close_sketch.snapshot().quantile_ns(0.99);
    lane.effective_threshold_ns.store(
        p99 > 0.0 ? static_cast<std::uint64_t>(p99) : ~0ULL,
        std::memory_order_relaxed);
  }
  unsigned reasons = 0;
  if (trace.latency_ns >=
      lane.effective_threshold_ns.load(std::memory_order_relaxed)) {
    reasons |= obs::retain::kSlow;
  }
  if (econ_violations > 0) reasons |= obs::retain::kEconViolation;

  exemplars_.offer(trace.latency_ns, trace.trace_id, trace.round);
  seal(lane, std::move(trace), reasons);
}

void TracePlane::on_round_failed(int shard, obs::RoundTrace trace,
                                 obs::TraceStatus status,
                                 std::uint64_t at_ns) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  // The round's later events arrive as orphans; they belong to this trace.
  lane.orphan_rounds.insert(trace.round);
  trace.status = status;
  trace.close_ns = at_ns;
  trace.latency_ns = at_ns >= trace.open_ns ? at_ns - trace.open_ns : 0;
  seal(lane, std::move(trace), obs::retain::kError);
}

void TracePlane::on_orphaned_event(int shard, std::int64_t round,
                                   std::uint64_t at_ns) {
  Lane& lane = *lanes_[static_cast<std::size_t>(shard)];
  // One stub per shed round: later orphans of the same round (or of a
  // round we already sealed as corrupted) do not multiply records. The
  // stub has no spans, so it is sealed at once with zero latency.
  if (!lane.orphan_rounds.insert(round).second) return;
  obs::RoundTrace trace;
  trace.trace_id = obs::trace_id_of(round);
  trace.round = round;
  trace.shard = shard;
  trace.status = obs::TraceStatus::kOrphaned;
  trace.open_ns = at_ns;
  trace.close_ns = at_ns;
  lane.rounds_traced.fetch_add(1, std::memory_order_relaxed);
  seal(lane, std::move(trace), obs::retain::kError);
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
  for (std::size_t s = 0; s < lanes_.size(); ++s) {
    const std::unique_ptr<Lane>& lane = lanes_[s];
    const SystemLane& system = (*system_)[s];
    out.rounds_traced += lane->rounds_traced.load(std::memory_order_relaxed);
    out.rounds_completed +=
        system.rounds_closed.load(std::memory_order_relaxed);
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
    // In obs::TracePhase order.
    const std::array<const obs::LatencySketch*, obs::kTracePhaseCount>
        sketches = {&lane->ingest,  &system.queue_wait, &lane->slot_tick,
                    &lane->payment, &lane->audit,       &system.round_latency};
    for (std::size_t p = 0; p < obs::kTracePhaseCount; ++p) {
      out.phases[p].sketch.merge(sketches[p]->snapshot());
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
    json.field("max_spans", static_cast<std::int64_t>(kTraceMaxSpans));
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
        json.field("p50_ns", std::min(phase.sketch.quantile_ns(0.50), 0x1p63));
        json.field("p99_ns", std::min(phase.sketch.quantile_ns(0.99), 0x1p63));
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
