// Structured decision event log -- the "flight recorder" of the auction
// stack and the third observability pillar next to the metrics registry
// and the phase traces.
//
// Metrics say *how much* work a run did and traces say *where the time
// went*; neither can answer "why was phone 3 dropped in slot 2" or "which
// counterfactual winner set phone 1's payment to 9" after the run ended.
// The event log records those decisions as append-only structured records
// (JSONL, schema "mcs.events.v1"): bid admissions and reserve rejections,
// per-slot candidate pools, winner selections with runner-up weights,
// and each payment with its derivation and its certificate. The log is complete enough to *replay* a run
// (mcs_cli replay) and to narrate one bidder's round (mcs_cli explain).
//
// Design constraints mirror obs/metrics.hpp exactly:
//
//  1. Zero cost when disabled. No log installed for the current thread
//     (ScopedEventLog) means every instrumentation site is one
//     thread-local load and a branch; events are only *built* inside the
//     branch, so the disabled path performs no allocations. Use the
//     log_event() helper to make that structure explicit.
//  2. Deterministic output. Event fields serialize in a fixed order and
//     Money amounts travel as exact decimal strings, so logs of the same
//     run are byte-identical -- the property the replay oracle and the
//     golden tests rely on.
//  3. This layer only speaks the common vocabulary (slots, phone/task
//     ids, Money). Higher layers attach their record types by name;
//     docs/observability.md is the registry of record types.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/money.hpp"

namespace mcs::obs {

/// One structured decision record. `type` names the record kind
/// ("task_assigned", "payment_certificate", ...); slot/phone/task are the
/// common correlation keys (negative = not applicable); everything else
/// rides in `attrs`, serialized in insertion order.
struct Event {
  /// Attribute value: integers, reals, flags, exact money amounts
  /// (serialized as decimal strings), free text, or an id list.
  using Value = std::variant<std::int64_t, double, bool, Money, std::string,
                             std::vector<std::int64_t>>;

  std::string type;
  std::int32_t slot{-1};
  std::int32_t phone{-1};
  std::int32_t task{-1};
  std::vector<std::pair<std::string, Value>> attrs;

  Event() = default;
  explicit Event(std::string type_name) : type(std::move(type_name)) {}

  /// Fluent attribute append: Event("x").with("k", 1).with("m", money).
  Event&& with(std::string key, Value value) && {
    attrs.emplace_back(std::move(key), std::move(value));
    return std::move(*this);
  }
  Event& with(std::string key, Value value) & {
    attrs.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  friend bool operator==(const Event&, const Event&) = default;
};

/// Serializes one event as a single JSON object (no trailing newline).
/// Field order is fixed: seq, type, then slot/phone/task when set, then
/// attrs in insertion order. Money renders as an exact decimal string.
void write_event_json(std::ostream& os, const Event& event, std::uint64_t seq);

/// Where appended events go. Implementations must tolerate being called
/// under the owning EventLog's lock (keep append cheap).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void append(const Event& event, std::uint64_t seq) = 0;
};

/// Writes one JSON line per event to a stream ("events.jsonl").
class JsonlEventSink final : public EventSink {
 public:
  explicit JsonlEventSink(std::ostream& os) : os_(os) {}
  void append(const Event& event, std::uint64_t seq) override;

 private:
  std::ostream& os_;
};

/// Bounded in-memory ring: keeps the most recent `capacity` events (the
/// "black box" for tests and in-process inspection). Oldest events are
/// overwritten once full.
class RingEventSink final : public EventSink {
 public:
  explicit RingEventSink(std::size_t capacity);
  void append(const Event& event, std::uint64_t seq) override;

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<Event> events() const;
  /// Total events ever appended (>= events().size()).
  [[nodiscard]] std::uint64_t total_appended() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Event> ring_;  // ring_[seq % capacity_]
  std::uint64_t appended_{0};
};

/// Appends events to a sink with a process-ordered sequence number. On
/// construction emits the schema header record
///   {"seq":0,"type":"log_header","schema":"mcs.events.v1"}
/// so every log file self-identifies. Thread-safe: a single log may be
/// shared, appends are serialized.
class EventLog {
 public:
  static constexpr std::string_view kSchema = "mcs.events.v1";

  /// `sink` is non-owning and must outlive the log.
  explicit EventLog(EventSink* sink);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  void append(Event event);

  /// Events appended so far, header included.
  [[nodiscard]] std::uint64_t count() const;

 private:
  EventSink* sink_;
  mutable std::mutex mutex_;
  std::uint64_t next_seq_{0};
};

/// Event log installed for the current thread, or nullptr (recording off).
[[nodiscard]] EventLog* current_event_log() noexcept;

/// RAII install/restore of the current thread's event log, nesting like
/// ScopedRegistry. Passing nullptr *suppresses* recording within the scope
/// -- how counterfactual re-runs (payment probes) keep their inner
/// allocation decisions out of the primary trail.
class ScopedEventLog {
 public:
  explicit ScopedEventLog(EventLog* log) noexcept;
  ~ScopedEventLog();
  ScopedEventLog(const ScopedEventLog&) = delete;
  ScopedEventLog& operator=(const ScopedEventLog&) = delete;

 private:
  EventLog* previous_;
};

/// Deferred-build append: the factory runs -- and the event is built --
/// only when a log is installed, so instrumented hot paths stay
/// allocation-free when recording is off.
///   obs::log_event([&] { return Event("task_assigned").with(...); });
template <typename MakeEvent>
inline void log_event(MakeEvent&& make) {
  if (EventLog* log = current_event_log()) {
    log->append(std::forward<MakeEvent>(make)());
  }
}

}  // namespace mcs::obs
