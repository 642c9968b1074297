// The sharded, event-driven streaming auction engine.
//
// Rounds are independent auctions, so the engine scales horizontally by
// hashing each event's round id onto one of N shards; every shard owns a
// bounded MPSC queue and one worker thread that drives the per-round
// RoundMachines to completion. Determinism: a round's events are consumed
// in submission order by exactly one worker, so the merged outcomes (and
// the merged per-shard work counters) are identical for any shard count --
// the same reduction identity the parallel simulator relies on.
//
// Backpressure is an explicit admission-control policy, chosen at
// construction:
//   * kBlock  -- submit() waits for queue space (lossless ingestion; the
//                producer absorbs the backpressure),
//   * kReject -- submit() returns kRejectedQueueFull immediately and the
//                event is dropped (the caller absorbs it; load shedding).
//
// Telemetry: when a MetricsRegistry is installed on the constructing
// thread, each worker records into its own shard registry and drain()
// folds them into the installed one via the deterministic registry merge.
// That is the deterministic plane. The optional live, econ and trace
// planes in the config are the wall-clock side (serve/telemetry.hpp,
// serve/econ_telemetry.hpp, serve/trace_plane.hpp). The engine is their
// one clock: with a live or trace plane attached it stamps each event on
// the steady clock at handoff and at pickup, and keeps each round's open
// stamp next to its RoundMachine, so both timed planes get the same queue
// wait and round latency (close pickup minus open pickup). With every
// plane off the clock is never read. No plane writes a registry counter
// (econ's deliberate `econ.violations` aside), so the deterministic merge
// stays bit-identical whether they are on or off.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "auction/online_greedy.hpp"
#include "obs/metrics.hpp"
#include "serve/event.hpp"
#include "serve/queue.hpp"
#include "serve/round_machine.hpp"

namespace mcs::serve {

class LiveTelemetry;
class EconTelemetry;
class TracePlane;

struct ServeConfig {
  /// Worker shards; rounds are hashed across them.
  int shards = 1;
  /// Bounded depth of each shard's event queue. Room for several of the
  /// largest rounds the paper evaluates (m=80, lambda=8: ~960 events):
  /// rounds are hashed to shards, so a ring that holds only one lets an
  /// in-order producer stall on one shard while the others run dry.
  std::size_t queue_capacity = 4096;
  /// Producer-side batch size used by ShardBatcher (and the flush
  /// threshold of each of its per-shard buffers). 1 keeps the historical
  /// event-at-a-time handoff; larger values amortize the queue lock over
  /// the batch. Must stay <= queue_capacity (an oversized batch could
  /// never fit). Batching changes only handoff granularity -- event order
  /// per round, outcomes, and deterministic counters are unaffected.
  std::size_t batch_size = 1;

  /// The admission policy also fixes how workers treat broken round
  /// streams: under kBlock nothing is ever shed, so a hole in a round's
  /// event sequence is a malformed stream and fails the run; under kReject
  /// holes are the expected cost of shedding, so orphaned events are
  /// dropped and the affected round is abandoned, both counted in stats.
  enum class Admission {
    kBlock,   ///< submit() blocks until the shard queue has space
    kReject,  ///< submit() fails fast with kRejectedQueueFull
  };
  Admission admission = Admission::kBlock;

  /// Mechanism knobs applied to every round (reserve, profitability, ...).
  auction::OnlineGreedyConfig greedy;

  /// Optional wall-clock plane (non-owning; must outlive the engine). The
  /// engine attaches it at construction and records queue waits, round
  /// latencies, and watermarks into it while serving.
  LiveTelemetry* live = nullptr;

  /// Optional economic plane (non-owning; must outlive the engine). When
  /// set, round machines run in capture mode and every closed round is
  /// handed to the plane's sentinel (serve/econ_telemetry.hpp). Apart from
  /// the deliberate `econ.violations` counter this leaves the
  /// deterministic plane untouched.
  EconTelemetry* econ = nullptr;

  /// Optional causal tracing plane (non-owning; must outlive the engine).
  /// When set, every round gets a bounded span timeline and the
  /// tail-based sampler decides at round_close what to retain
  /// (serve/trace_plane.hpp). Its hooks take the engine's stamps, the
  /// same ones `live` gets. Same quarantine discipline as `live`: no
  /// registry counter is ever written, so the deterministic merge is
  /// bit-identical trace-on vs trace-off.
  TracePlane* trace = nullptr;

  /// Throws InvalidArgumentError when out of domain.
  void validate() const;
};

/// Admission verdict of one submit() call.
enum class SubmitStatus {
  kAccepted,          ///< enqueued on its shard
  kRejectedQueueFull, ///< kReject policy and the shard queue was full
  kRejectedStopped,   ///< engine already draining / shut down
};

[[nodiscard]] std::string_view to_string(SubmitStatus status);

/// Aggregated across all shards; available after drain().
struct ServeStats {
  std::int64_t submitted{0};             ///< events accepted by submit()
  std::int64_t rejected_backpressure{0}; ///< kRejectedQueueFull verdicts
  std::int64_t processed{0};             ///< events consumed by workers
  std::int64_t rounds_completed{0};
  std::int64_t rounds_abandoned{0};  ///< open at shutdown, never closed
  /// kReject only: events whose round was never opened (its round_open was
  /// shed) -- dropped, not fatal.
  std::int64_t orphaned_events{0};
  /// kReject only: rounds dropped mid-flight because shedding punched a
  /// hole in their event sequence (e.g. a lost slot_tick).
  std::int64_t rounds_corrupted{0};
  std::int64_t tasks_announced{0};
  std::int64_t bids_admitted{0};
  std::int64_t bids_rejected_reserve{0};
  /// Highest queue depth any shard reached (max-merged at drain). The
  /// value itself is scheduling-dependent; only the merge is deterministic.
  std::int64_t queue_high_watermark{0};
  Money total_paid;
};

/// Deterministic shard assignment of a round (splitmix64 of the round id,
/// independent of std::hash so streams replay identically everywhere).
[[nodiscard]] int shard_of_round(std::int64_t round, int shards);

class ServeEngine {
 public:
  explicit ServeEngine(ServeConfig config);
  /// Joins the workers; pending events are still drained, but outcomes and
  /// stats of an un-drained engine are discarded.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  [[nodiscard]] const ServeConfig& config() const { return config_; }

  /// Routes one event to its shard. Thread-safe (any number of producers).
  SubmitStatus submit(const ServeEvent& event);

  /// Hands a batch of events to ONE shard under a single queue-lock
  /// acquisition. All events must hash to `shard_index` (checked); the
  /// batch is enqueued all-or-nothing: under kReject a full queue sheds
  /// the entire batch (counted per event), under kBlock the call waits
  /// until the whole batch fits. Thread-safe. Prefer ShardBatcher, which
  /// does the routing and flushing.
  SubmitStatus submit_batch(int shard_index, const ServeEvent* events,
                            std::size_t count);

  /// Graceful shutdown: closes the queues, waits for every queued event to
  /// be processed, joins the workers, merges shard telemetry into the
  /// registry installed at construction, and aggregates stats. Idempotent.
  /// Throws InvalidArgumentError when any shard hit a stream error (first
  /// error by shard index).
  void drain();

  /// Completed rounds, sorted by round id. Requires drain(); moves out.
  [[nodiscard]] std::vector<RoundOutcome> take_outcomes();

  /// Aggregated stats. Requires drain().
  [[nodiscard]] const ServeStats& stats() const;

 private:
  struct Shard {
    Shard(int shard_index, std::size_t queue_capacity)
        : index(shard_index), queue(queue_capacity) {}

    int index;
    EventRing queue;  ///< preallocated bounded ring; see serve/queue.hpp
    std::thread worker;
    obs::MetricsRegistry registry;  ///< used only when telemetry is on
    std::vector<RoundOutcome> outcomes;
    ServeStats stats;    ///< worker-local; folded into totals at drain
    std::string error;   ///< first stream error, empty = clean
  };

  /// One in-flight round of a worker: its machine and the stamp of its
  /// round_open pickup (0 when no timed plane is attached).
  struct OpenRound {
    RoundMachine machine;
    std::uint64_t open_ns;
  };
  using RoundTable = std::unordered_map<std::int64_t, OpenRound>;

  void worker_main(Shard& shard);
  void process_event(Shard& shard, RoundTable& rounds,
                     const ServeEvent& event, std::uint64_t now_ns,
                     std::uint64_t enqueue_ns);
  /// Nanoseconds since construction on the steady clock when a live or
  /// trace plane is attached; 0 (and no clock read) otherwise.
  [[nodiscard]] std::uint64_t stamp_ns() const;

  ServeConfig config_;
  bool timed_{false};           ///< a live or trace plane is attached
  std::uint64_t epoch_ns_{0};   ///< steady-clock reading at construction
  obs::MetricsRegistry* parent_registry_;  ///< merge target; may be null
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<bool> stopping_{false};
  bool drained_{false};
  ServeStats totals_;
};

/// Producer-side batching front of submit_batch(): one ShardBatcher per
/// producer thread (NOT thread-safe itself; the engine handoff underneath
/// is). Events accumulate in a per-shard buffer and are flushed to their
/// shard's queue when the buffer reaches the engine's configured
/// batch_size -- so the queue lock is taken once per batch instead of once
/// per event. Events of one round keep their submission order (they share
/// a shard and a buffer), which preserves the engine's determinism
/// guarantee.
///
/// Under kReject admission the shed granularity becomes the batch: a full
/// queue drops the whole flushed buffer (every event counted rejected).
/// flush() pushes out every partial buffer; the destructor flushes too,
/// swallowing the verdict -- call flush() explicitly when you need it.
class ShardBatcher {
 public:
  explicit ShardBatcher(ServeEngine& engine);
  ~ShardBatcher();

  ShardBatcher(const ShardBatcher&) = delete;
  ShardBatcher& operator=(const ShardBatcher&) = delete;

  /// Buffers one event; flushes its shard's buffer when full. Returns
  /// kAccepted when merely buffered, otherwise the flush verdict.
  SubmitStatus add(const ServeEvent& event);

  /// Flushes every non-empty buffer (in shard order). Returns kAccepted
  /// only if every flush was accepted, else the first failure's verdict.
  SubmitStatus flush();

  /// Events currently buffered and not yet handed to the engine.
  [[nodiscard]] std::int64_t buffered() const;

  /// Exact per-event accounting across all flushes so far: events the
  /// engine admitted, and events lost to non-accepted flushes (shed or
  /// stopped -- whole batches under the all-or-nothing handoff).
  [[nodiscard]] std::int64_t accepted_events() const { return accepted_; }
  [[nodiscard]] std::int64_t rejected_events() const { return rejected_; }

 private:
  SubmitStatus flush_shard(std::size_t shard);

  ServeEngine& engine_;
  std::size_t batch_size_;
  std::vector<std::vector<ServeEvent>> buffers_;  ///< one per shard
  std::int64_t accepted_{0};
  std::int64_t rejected_{0};
};

}  // namespace mcs::serve
