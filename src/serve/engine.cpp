#include "serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <span>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/wallclock.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/telemetry.hpp"
#include "serve/trace_plane.hpp"

namespace mcs::serve {

namespace {

/// Counter name of one processed event kind.
std::string_view event_counter_name(ServeEventKind kind) {
  switch (kind) {
    case ServeEventKind::kRoundOpen:
      return "serve.events.round_open";
    case ServeEventKind::kTaskArrived:
      return "serve.events.task_arrived";
    case ServeEventKind::kBidSubmitted:
      return "serve.events.bid_submitted";
    case ServeEventKind::kSlotTick:
      return "serve.events.slot_tick";
    case ServeEventKind::kRoundClose:
      return "serve.events.round_close";
  }
  return "serve.events.unknown";
}

}  // namespace

void ServeConfig::validate() const {
  if (shards < 1) throw InvalidArgumentError("serve: shards must be >= 1");
  if (queue_capacity < 1 || queue_capacity > kMaxQueueCapacity) {
    throw InvalidArgumentError("serve: queue_capacity must be in [1, " +
                               std::to_string(kMaxQueueCapacity) + "]");
  }
  if (batch_size < 1 || batch_size > queue_capacity) {
    throw InvalidArgumentError(
        "serve: batch_size must be in [1, queue_capacity]");
  }
}

std::string_view to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kRejectedQueueFull:
      return "rejected:queue-full";
    case SubmitStatus::kRejectedStopped:
      return "rejected:stopped";
  }
  return "unknown";
}

int shard_of_round(std::int64_t round, int shards) {
  // splitmix64 finalizer: deterministic and well-mixed regardless of the
  // platform's std::hash.
  const std::uint64_t x = SplitMix64(static_cast<std::uint64_t>(round)).next();
  return static_cast<int>(x % static_cast<std::uint64_t>(shards));
}

// ---------------------------------------------------------------- engine

ServeEngine::ServeEngine(ServeConfig config)
    : config_(std::move(config)), parent_registry_(obs::current_registry()) {
  config_.validate();
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, config_.queue_capacity));
  }
  // Lanes come after the rings: made first, while a plane still held the
  // previous run's lanes, they made engine setup ~40% slower at 3 shards.
  if (config_.live != nullptr || config_.trace != nullptr) {
    epoch_ns_ = obs::steady_clock().now_ns();
    lanes_ = std::make_shared<SystemLanes>(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->lane = &(*lanes_)[i];
    }
  }
  if (config_.live != nullptr) {
    config_.live->attach(lanes_,
                         static_cast<std::int64_t>(config_.queue_capacity));
  }
  if (config_.econ != nullptr) config_.econ->attach(config_.shards);
  if (config_.trace != nullptr) config_.trace->attach(lanes_);
  // Start the workers only after every shard exists (a batcher may place
  // a round on any of them from the first handoff on).
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, raw = shard.get()] {
      worker_main(*raw);
    });
  }
}

ServeEngine::~ServeEngine() {
  if (drained_) return;
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

std::uint64_t ServeEngine::stamp_ns() const {
  if (lanes_ == nullptr) return 0;
  const std::uint64_t now = obs::steady_clock().now_ns();
  return now >= epoch_ns_ ? now - epoch_ns_ : 0;
}

SubmitStatus ServeEngine::submit_batch(int shard_index,
                                       const ServeEvent* events,
                                       std::size_t count) {
  if (count == 0) return SubmitStatus::kAccepted;
  if (shard_index < 0 || shard_index >= config_.shards) {
    throw InvalidArgumentError("serve: submit_batch shard out of range");
  }
  if (stopping_.load(std::memory_order_relaxed)) {
    return SubmitStatus::kRejectedStopped;
  }
  LiveTelemetry* const live = config_.live;
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  // One clock read per handoff: the whole batch is enqueued at a single
  // instant, so its events legitimately share the stamp.
  const std::int64_t depth =
      config_.admission == ServeConfig::Admission::kBlock
          ? shard.queue.push_block(events, count, stamp_ns())
          : shard.queue.try_push(events, count, stamp_ns());
  if (depth < 0) {
    if (stopping_.load(std::memory_order_relaxed)) {
      return SubmitStatus::kRejectedStopped;
    }
    const auto shed = static_cast<std::int64_t>(count);
    rejected_.fetch_add(shed, std::memory_order_relaxed);
    if (live != nullptr) live->on_reject(shard_index, shed);
    return SubmitStatus::kRejectedQueueFull;
  }
  submitted_.fetch_add(static_cast<std::int64_t>(count),
                       std::memory_order_relaxed);
  if (live != nullptr) {
    live->on_submit(shard_index, static_cast<std::int64_t>(count), depth);
  }
  return SubmitStatus::kAccepted;
}

void ServeEngine::worker_main(Shard& shard) {
  // Telemetry: record into the shard's own registry (merged at drain) so
  // reduction stays deterministic; with telemetry off nothing installs and
  // the whole path stays on the no-op fast branch.
  std::optional<obs::ScopedRegistry> guard;
  if (parent_registry_ != nullptr) guard.emplace(&shard.registry);

  SystemLane* const lane = shard.lane;
  TracePlane* const trace = config_.trace;
  Rounds rounds;
  // The worker consumes its ring in place: each acquire exposes up to
  // kBatch queued events and releases the previous batch. Taking up to
  // 1024 events per ring lock keeps the worker off the mutex the producers
  // push under; an acquire still takes only what is queued, so a short
  // queue is picked up at once. The held slots count as occupied for a
  // rejecting producer, which sheds sooner but in longer runs that leave
  // fewer rounds with holes (docs/serving.md has the measurement). One
  // clock read per batch is every event's pickup stamp (the lane's queue
  // wait); span edges read their own stamps in process_event.
  constexpr std::size_t kBatch = 1024;
  RingView batch;
  std::size_t released = 0;
  while ((released = shard.queue.acquire(batch, kBatch, released)) > 0) {
    if (lane != nullptr) lane->record_batch(batch, stamp_ns());
    if (trace != nullptr) trace->on_batch(shard.index, batch);
    for (std::size_t run = 0; run < batch.events.size(); ++run) {
      const std::span<const ServeEvent> events = batch.events[run];
      const std::span<const std::uint64_t> stamps = batch.stamps[run];
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (!shard.error.empty()) break;  // poisoned: drain without work
        try {
          process_event(shard, rounds, events[i], stamps[i]);
        } catch (const std::exception& e) {
          // Any failure -- a malformed stream (mcs::Error) or a resource
          // failure such as std::bad_alloc on a hostile round -- stays
          // with its round or its stream; it never unwinds the worker.
          if (config_.admission == ServeConfig::Admission::kReject) {
            // Shedding already made the stream lossy; a hole in one
            // round's event sequence drops that round, not the engine.
            if (const auto it = rounds.find(events[i].round);
                it != rounds.open.end()) {
              end_round(shard, rounds, it, obs::TraceStatus::kCorrupted,
                        stamp_ns());
            }
            ++shard.stats.rounds_corrupted;
            obs::count("serve.rounds_corrupted");
          } else {
            shard.error = e.what();
          }
        }
      }
    }
  }
  // Per-kind event counts and per-round totals publish once, at exit. A
  // counter nothing was added to stays absent, so the key set matches
  // counting at every event or round.
  for (std::size_t kind = 0; kind < shard.event_counts.size(); ++kind) {
    if (shard.event_counts[kind] > 0) {
      obs::count(event_counter_name(static_cast<ServeEventKind>(kind)),
                 shard.event_counts[kind]);
    }
  }
  if (shard.stats.rounds_completed > 0) {
    obs::count("serve.rounds_completed", shard.stats.rounds_completed);
    obs::count("serve.payments_micros", shard.stats.total_paid.micros());
  }
  // Rounds still open at drain are abandoned, in round-id order so the
  // trace rings fill deterministically.
  std::vector<std::int64_t> abandoned;
  for (const auto& [round, open] : rounds.open) abandoned.push_back(round);
  std::sort(abandoned.begin(), abandoned.end());
  const std::uint64_t exit_ns = stamp_ns();
  for (const std::int64_t round : abandoned) {
    end_round(shard, rounds, rounds.open.find(round),
              obs::TraceStatus::kAbandoned, exit_ns);
  }
  shard.stats.rounds_abandoned = static_cast<std::int64_t>(abandoned.size());
  if (shard.stats.rounds_abandoned > 0) {
    obs::count("serve.rounds_abandoned", shard.stats.rounds_abandoned);
  }
  if (shard.slots_walked > 0) {
    obs::count("auction.settlement.slots_walked", shard.slots_walked);
  }
  shard.stats.queue_high_watermark = shard.queue.high_watermark();
  obs::set_gauge(
      "serve.shard." + std::to_string(shard.index) + ".queue_high_watermark",
      static_cast<double>(shard.stats.queue_high_watermark));
}

void ServeEngine::process_event(Shard& shard, Rounds& rounds,
                                const ServeEvent& event,
                                std::uint64_t enqueue_ns) {
  ++shard.stats.processed;
  ++shard.event_counts[static_cast<std::size_t>(event.kind)];
  TracePlane* const trace = config_.trace;

  if (event.kind == ServeEventKind::kRoundOpen) {
    if (rounds.open.contains(event.round)) {
      throw InvalidArgumentError("serve stream, round " +
                                 std::to_string(event.round) +
                                 ": duplicate round_open");
    }
    // Span edge: the open pickup, which round latency is measured from.
    const std::uint64_t open_ns = stamp_ns();
    RoundTable::iterator it;
    if (rounds.spares.empty()) {
      it = rounds.emplace(event.round,
                          RoundMachine(event, config_.greedy,
                                       /*capture=*/config_.econ != nullptr));
    } else {
      // A malformed round_open throws here and leaves the spare as it was.
      RoundTable::node_type& spare = rounds.spares.back();
      spare.mapped().machine.reset(event);
      spare.key() = event.round;
      it = rounds.insert(std::move(spare));
      rounds.spares.pop_back();
    }
    OpenRound& open = it->second;
    open.trace = trace != nullptr
                     ? trace->on_round_open(shard.index, event.round,
                                            enqueue_ns, open_ns,
                                            event.client_lag_ns)
                     : obs::RoundTrace{};
    open.trace.open_ns = open_ns;
    return;
  }

  const auto it = rounds.find(event.round);
  if (it == rounds.open.end()) {
    if (config_.admission == ServeConfig::Admission::kReject) {
      // The round's open (or the whole round) was shed; drop silently.
      ++shard.stats.orphaned_events;
      obs::count("serve.events.orphaned");
      if (trace != nullptr) {
        trace->on_orphaned_event(shard.index, event.round, stamp_ns());
      }
      return;
    }
    throw InvalidArgumentError(
        "serve stream, round " + std::to_string(event.round) + ": " +
        std::string(to_string(event.kind)) + " for a round never opened");
  }
  // Span edges: the close pickup (round latency stays exact) and, with the
  // trace plane on, each slot_tick's begin.
  const bool traced_tick =
      trace != nullptr && event.kind == ServeEventKind::kSlotTick;
  const std::uint64_t begin_ns =
      traced_tick || event.kind == ServeEventKind::kRoundClose ? stamp_ns()
                                                               : 0;
  RoundMachine& machine = it->second.machine;
  const bool done = machine.apply(event);
  if (traced_tick) {
    trace->on_slot_tick(shard.index, it->second.trace,
                        static_cast<std::int32_t>(event.slot.value()),
                        begin_ns, stamp_ns());
  }
  if (!done) return;

  // The dense outcome is built only for a caller that takes outcomes or
  // for the econ audit of a complete capture; the trace's payment span
  // covers the build. The totals are copied: end_round may free the machine.
  const RoundTotals totals = machine.totals();
  std::optional<RoundOutcome> outcome;
  if (config_.retain_outcomes ||
      (config_.econ != nullptr && machine.capture_complete())) {
    outcome.emplace(machine.take_outcome());
  }
  // Econ sentinel: audit the closed round while its capture is still
  // alive; it counts an incomplete capture skipped without reading the
  // outcome. The shard registry is installed on this thread, so the one
  // sanctioned counter (econ.violations) lands in the deterministic merge.
  const std::uint64_t settled_ns = trace != nullptr ? stamp_ns() : 0;
  std::int64_t violations = 0;
  if (config_.econ != nullptr) {
    static const RoundOutcome kUnread;
    violations = config_.econ->observe_round(shard.index, machine,
                                             outcome ? *outcome : kUnread);
  }
  end_round(shard, rounds, it, obs::TraceStatus::kCompleted, begin_ns,
            settled_ns, violations);
  ++shard.stats.rounds_completed;
  shard.stats.tasks_announced += totals.tasks_announced;
  shard.stats.bids_admitted += totals.bids_admitted;
  shard.stats.bids_rejected_reserve += totals.bids_rejected;
  shard.stats.total_paid += totals.total_paid;
  if (config_.retain_outcomes) {
    shard.outcomes.emplace_back(completions_.fetch_add(1), std::move(*outcome));
  }
}

void ServeEngine::end_round(Shard& shard, Rounds& rounds,
                            RoundTable::iterator it, obs::TraceStatus status,
                            std::uint64_t end_ns, std::uint64_t settled_ns,
                            std::int64_t violations) {
  shard.slots_walked += it->second.machine.slots_walked();
  obs::RoundTrace round_trace = std::move(it->second.trace);
  RoundTable::node_type retired = rounds.extract(it);
  if (rounds.spares.size() < kMaxSpareRounds &&
      retired.mapped().machine.retained_bytes() <= kMaxSpareBytes) {
    rounds.spares.push_back(std::move(retired));
  }
  const bool completed = status == obs::TraceStatus::kCompleted;
  // Round latency: close pickup minus open pickup, recorded before the
  // trace plane's sampler reads the lane.
  if (completed && shard.lane != nullptr) {
    shard.lane->record_round(
        end_ns >= round_trace.open_ns ? end_ns - round_trace.open_ns : 0);
  }
  if (config_.trace == nullptr) return;
  if (completed) {
    // Without the econ plane nothing ran after settlement: no audit span.
    const std::uint64_t done_ns =
        config_.econ != nullptr ? stamp_ns() : settled_ns;
    config_.trace->on_round_complete(shard.index, std::move(round_trace),
                                     end_ns, settled_ns, done_ns, violations);
  } else {
    config_.trace->on_round_failed(shard.index, std::move(round_trace),
                                   status, end_ns);
  }
}

void ServeEngine::drain() {
  if (drained_) return;
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Deterministic reduction: fold shard registries and stats in shard
  // order (merge is associative/commutative on counters and histograms,
  // so the totals equal a single-threaded run over the same events).
  for (auto& shard : shards_) {
    if (parent_registry_ != nullptr) parent_registry_->merge(shard->registry);
    totals_.processed += shard->stats.processed;
    totals_.rounds_completed += shard->stats.rounds_completed;
    totals_.rounds_abandoned += shard->stats.rounds_abandoned;
    totals_.orphaned_events += shard->stats.orphaned_events;
    totals_.rounds_corrupted += shard->stats.rounds_corrupted;
    totals_.tasks_announced += shard->stats.tasks_announced;
    totals_.bids_admitted += shard->stats.bids_admitted;
    totals_.bids_rejected_reserve += shard->stats.bids_rejected_reserve;
    totals_.queue_high_watermark = std::max(
        totals_.queue_high_watermark, shard->stats.queue_high_watermark);
    totals_.total_paid += shard->stats.total_paid;
  }
  if (parent_registry_ != nullptr) {
    parent_registry_
        ->gauge("serve.queue_high_watermark",
                "highest queue depth any shard reached (max over shards)")
        .set(static_cast<double>(totals_.queue_high_watermark));
  }
  totals_.submitted = submitted_.load(std::memory_order_relaxed);
  totals_.rejected_backpressure = rejected_.load(std::memory_order_relaxed);
  drained_ = true;
  for (const auto& shard : shards_) {
    if (!shard->error.empty()) {
      throw InvalidArgumentError("serve engine: " + shard->error);
    }
  }
}

std::vector<RoundOutcome> ServeEngine::take_outcomes() {
  MCS_EXPECTS(drained_, "take_outcomes requires drain()");
  MCS_EXPECTS(config_.retain_outcomes,
              "take_outcomes requires ServeConfig::retain_outcomes");
  std::vector<std::pair<std::uint64_t, RoundOutcome>> ticketed;
  for (auto& shard : shards_) {
    for (auto& entry : shard->outcomes) ticketed.push_back(std::move(entry));
    shard->outcomes.clear();
  }
  // Rounds that reuse an id may complete on different shards; their
  // completion tickets keep them in the order they completed.
  std::sort(ticketed.begin(), ticketed.end(), [](auto& a, auto& b) {
    return std::tie(a.second.round, a.first) <
           std::tie(b.second.round, b.first);
  });
  std::vector<RoundOutcome> all;
  for (auto& entry : ticketed) all.push_back(std::move(entry.second));
  return all;
}

const ServeStats& ServeEngine::stats() const {
  MCS_EXPECTS(drained_, "stats requires drain()");
  return totals_;
}

// ---------------------------------------------------------- ShardBatcher

ShardBatcher::ShardBatcher(ServeEngine& engine)
    : engine_(engine), batch_size_(engine.config().batch_size) {
  buffers_.resize(static_cast<std::size_t>(engine.config().shards));
  for (auto& buffer : buffers_) buffer.reserve(batch_size_);
}

ShardBatcher::~ShardBatcher() {
  (void)flush();  // best effort; call flush() yourself for the verdict
}

SubmitStatus ShardBatcher::flush_shard(std::size_t shard) {
  std::vector<ServeEvent>& buffer = buffers_[shard];
  if (buffer.empty()) return SubmitStatus::kAccepted;
  const std::int64_t count = static_cast<std::int64_t>(buffer.size());
  const SubmitStatus status = engine_.submit_batch(
      static_cast<int>(shard), buffer.data(), buffer.size());
  buffer.clear();
  if (status == SubmitStatus::kAccepted) {
    accepted_ += count;
  } else {
    rejected_ += count;
  }
  return status;
}

int ShardBatcher::route(const ServeEvent& event) {
  const auto it = open_.find(event.round);
  if (it != open_.end()) return it->second;
  const int shards = static_cast<int>(buffers_.size());
  if (event.kind != ServeEventKind::kRoundOpen) {
    return shard_of_round(event.round, shards);
  }
  std::size_t least = SIZE_MAX;
  for (int step = 1, from = last_placed_; step <= shards; ++step) {
    const int shard = (from + step) % shards;
    const std::size_t load = engine_.shard_load(shard) +
                             buffers_[static_cast<std::size_t>(shard)].size();
    if (load < least) std::tie(last_placed_, least) = std::tie(shard, load);
  }
  if (spare_.empty()) {
    return open_.emplace(event.round, last_placed_).first->second;
  }
  spare_.key() = event.round;
  spare_.mapped() = last_placed_;
  return open_.insert(std::move(spare_)).position->second;
}

SubmitStatus ShardBatcher::add(const ServeEvent& event) {
  // Events of one round arrive in runs; the table is read only when the
  // round changes, and a round_open always places its round.
  if (event.kind == ServeEventKind::kRoundOpen || last_shard_ < 0 ||
      event.round != last_round_) {
    last_round_ = event.round;
    last_shard_ = route(event);
  }
  // A closed round's node is reused, so sequential rounds allocate nothing.
  if (event.kind == ServeEventKind::kRoundClose) {
    if (auto node = open_.extract(event.round)) spare_ = std::move(node);
  }
  std::vector<ServeEvent>& buffer =
      buffers_[static_cast<std::size_t>(last_shard_)];
  buffer.push_back(event);
  if (buffer.size() < batch_size_) return SubmitStatus::kAccepted;
  return flush_shard(static_cast<std::size_t>(last_shard_));
}

SubmitStatus ShardBatcher::flush() {
  SubmitStatus verdict = SubmitStatus::kAccepted;
  for (std::size_t shard = 0; shard < buffers_.size(); ++shard) {
    const SubmitStatus status = flush_shard(shard);
    if (status != SubmitStatus::kAccepted &&
        verdict == SubmitStatus::kAccepted) {
      verdict = status;
    }
  }
  return verdict;
}

}  // namespace mcs::serve
