#include "obs/round_trace.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace mcs::obs {

std::string_view to_string(TracePhase phase) {
  switch (phase) {
    case TracePhase::kIngest:
      return "ingest";
    case TracePhase::kQueueWait:
      return "queue_wait";
    case TracePhase::kSlotTick:
      return "slot_tick";
    case TracePhase::kPayment:
      return "payment";
    case TracePhase::kAudit:
      return "audit";
    case TracePhase::kRoundClose:
      return "round_close";
  }
  return "unknown";
}

bool trace_phase_from_string(std::string_view name, TracePhase& out) {
  for (std::size_t i = 0; i < kTracePhaseCount; ++i) {
    const auto phase = static_cast<TracePhase>(i);
    if (to_string(phase) == name) {
      out = phase;
      return true;
    }
  }
  return false;
}

std::string_view to_string(TraceStatus status) {
  switch (status) {
    case TraceStatus::kOpen:
      return "open";
    case TraceStatus::kCompleted:
      return "completed";
    case TraceStatus::kCorrupted:
      return "corrupted";
    case TraceStatus::kOrphaned:
      return "orphaned";
    case TraceStatus::kAbandoned:
      return "abandoned";
  }
  return "unknown";
}

std::uint64_t trace_id_of(std::int64_t round) {
  // The finalizer the engine's shard router uses, so a trace id is a pure
  // function of the round id: replaying the same stream yields the same
  // ids regardless of shard count or wall-clock.
  return SplitMix64(static_cast<std::uint64_t>(round)).next();
}

std::string format_trace_id(std::uint64_t trace_id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[trace_id & 0xF];
    trace_id >>= 4;
  }
  return out;
}

void RoundTrace::add_span(TracePhase phase, std::int32_t slot,
                          std::uint64_t start_ns, std::uint64_t end_ns,
                          std::size_t max_spans) {
  if (spans.size() >= max_spans) {
    ++spans_dropped;
    return;
  }
  spans.push_back(RoundSpan{phase, slot, start_ns, end_ns});
}

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  slots_.reserve(capacity_);
}

TraceRing::PushResult TraceRing::push(RoundTrace trace, bool pinned) {
  PushResult result;
  if (slots_.size() < capacity_) {
    slots_.push_back(Entry{std::move(trace), pinned, next_seq_++});
    return result;
  }
  // Victim selection: oldest unpinned slot; only when every slot is
  // pinned does the oldest pinned trace fall out.
  std::size_t victim = slots_.size();
  std::uint64_t victim_seq = ~0ULL;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].pinned && slots_[i].seq < victim_seq) {
      victim = i;
      victim_seq = slots_[i].seq;
    }
  }
  if (victim == slots_.size()) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].seq < victim_seq) {
        victim = i;
        victim_seq = slots_[i].seq;
      }
    }
    result.evicted_pinned = true;
  }
  MCS_EXPECTS(victim < slots_.size(), "trace ring victim selection failed");
  result.evicted = true;
  slots_[victim] = Entry{std::move(trace), pinned, next_seq_++};
  return result;
}

void SketchExemplars::offer(std::uint64_t value_ns, std::uint64_t trace_id,
                            std::int64_t round) {
  if (value_ns < threshold_ns_) {
    return;
  }
  const std::size_t bucket = sketch_detail::bucket_of(value_ns);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (slots_.empty()) {
    slots_.resize(sketch_detail::kBucketCount);
  }
  Slot& slot = slots_[bucket];
  if (slot.round < 0 || value_ns > slot.value_ns) {
    slot = Slot{value_ns, trace_id, round};
  }
}

std::vector<SketchExemplars::Exemplar> SketchExemplars::snapshot() const {
  std::vector<Exemplar> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t bucket = 0; bucket < slots_.size(); ++bucket) {
    const Slot& slot = slots_[bucket];
    if (slot.round < 0) {
      continue;
    }
    out.push_back(Exemplar{sketch_detail::bucket_upper_edge(bucket),
                           slot.value_ns, slot.trace_id, slot.round});
  }
  return out;
}

}  // namespace mcs::obs
