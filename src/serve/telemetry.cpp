#include "serve/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/assert.hpp"
#include "io/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "serve/econ_telemetry.hpp"

namespace mcs::serve {

// ---------------------------------------------------------- LiveTelemetry

namespace {

/// classify_health reads only the newest dwell windows, so that is all
/// each shard's ring keeps.
constexpr std::size_t kWindowRing =
    static_cast<std::size_t>(obs::HealthConfig{}.dwell_windows);

}  // namespace

LiveTelemetry::LiveTelemetry(LiveTelemetryConfig config)
    : clock_(config.clock != nullptr ? config.clock : &obs::steady_clock()) {}

void LiveTelemetry::attach(int shards, std::int64_t queue_capacity) {
  MCS_EXPECTS(shards >= 1, "live telemetry requires >= 1 shard");
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  start_ns_ = clock_->now_ns();
  queue_capacity_ = queue_capacity;
  slots_.clear();
  aggregators_.clear();
  next_window_ = 0;
  for (int i = 0; i < shards; ++i) {
    slots_.push_back(std::make_unique<ShardSlot>());
    aggregators_.emplace_back(0, kWindowRing);
  }
}

std::uint64_t LiveTelemetry::now_ns() {
  const std::uint64_t now = clock_->now_ns();
  return now >= start_ns_ ? now - start_ns_ : 0;
}

void LiveTelemetry::on_submit(int shard, std::int64_t count,
                              std::int64_t depth_after) {
  ShardSlot& slot = *slots_[static_cast<std::size_t>(shard)];
  slot.submitted.fetch_add(count, std::memory_order_relaxed);
  slot.depth.store(depth_after, std::memory_order_relaxed);
  std::int64_t seen = slot.window_watermark.load(std::memory_order_relaxed);
  while (depth_after > seen &&
         !slot.window_watermark.compare_exchange_weak(
             seen, depth_after, std::memory_order_relaxed)) {
  }
  seen = slot.high_watermark.load(std::memory_order_relaxed);
  while (depth_after > seen &&
         !slot.high_watermark.compare_exchange_weak(
             seen, depth_after, std::memory_order_relaxed)) {
  }
}

void LiveTelemetry::on_reject(int shard, std::int64_t count) {
  slots_[static_cast<std::size_t>(shard)]->rejected.fetch_add(
      count, std::memory_order_relaxed);
}

void LiveTelemetry::on_process(int shard, std::uint64_t queue_wait_ns,
                               std::int64_t depth_after) {
  ShardSlot& slot = *slots_[static_cast<std::size_t>(shard)];
  slot.processed.fetch_add(1, std::memory_order_relaxed);
  slot.depth.store(depth_after, std::memory_order_relaxed);
  slot.queue_wait.record_ns(queue_wait_ns);
}

void LiveTelemetry::on_round_close(int shard,
                                   std::uint64_t round_latency_ns) {
  ShardSlot& slot = *slots_[static_cast<std::size_t>(shard)];
  slot.rounds_closed.fetch_add(1, std::memory_order_relaxed);
  slot.round_latency.record_ns(round_latency_ns);
}

obs::LiveCumulative LiveTelemetry::sample_shard(ShardSlot& slot,
                                                std::uint64_t at_ns) {
  obs::LiveCumulative sample;
  sample.at_ns = at_ns;
  sample.submitted = slot.submitted.load(std::memory_order_relaxed);
  sample.processed = slot.processed.load(std::memory_order_relaxed);
  sample.rejected = slot.rejected.load(std::memory_order_relaxed);
  sample.rounds_closed = slot.rounds_closed.load(std::memory_order_relaxed);
  sample.queue_depth = slot.depth.load(std::memory_order_relaxed);
  // The window watermark resets to the current depth, not zero: a queue
  // that stays backlogged across a whole window must still show it.
  sample.window_watermark =
      slot.window_watermark.exchange(sample.queue_depth,
                                     std::memory_order_relaxed);
  sample.queue_high_watermark =
      slot.high_watermark.load(std::memory_order_relaxed);
  sample.queue_wait = slot.queue_wait.snapshot();
  sample.round_latency = slot.round_latency.snapshot();
  return sample;
}

ServeSnapshot LiveTelemetry::take_snapshot() {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  const std::uint64_t now = now_ns();
  ServeSnapshot snapshot;
  snapshot.window = next_window_++;
  snapshot.at_ns = now;
  snapshot.total.index = snapshot.window;
  snapshot.total.end_ns = now;
  snapshot.total.begin_ns = now;
  snapshot.shards.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ShardWindow shard;
    shard.shard = static_cast<int>(i);
    shard.window = aggregators_[i].roll(sample_shard(*slots_[i], now));
    shard.state =
        obs::classify_health(aggregators_[i].windows(), queue_capacity_);
    snapshot.state = obs::worse(snapshot.state, shard.state);
    snapshot.total.begin_ns =
        std::min(snapshot.total.begin_ns, shard.window.begin_ns);
    snapshot.total.submitted += shard.window.submitted;
    snapshot.total.processed += shard.window.processed;
    snapshot.total.rejected += shard.window.rejected;
    snapshot.total.rounds_closed += shard.window.rounds_closed;
    snapshot.total.queue_depth += shard.window.queue_depth;
    snapshot.total.queue_watermark =
        std::max(snapshot.total.queue_watermark, shard.window.queue_watermark);
    snapshot.total.queue_wait.merge(shard.window.queue_wait);
    snapshot.total.round_latency.merge(shard.window.round_latency);
    snapshot.shards.push_back(std::move(shard));
  }
  const double seconds = snapshot.total.seconds();
  if (seconds > 0.0) {
    snapshot.total.events_per_sec =
        static_cast<double>(snapshot.total.processed) / seconds;
    snapshot.total.rounds_per_sec =
        static_cast<double>(snapshot.total.rounds_closed) / seconds;
  }
  const std::int64_t offered =
      snapshot.total.submitted + snapshot.total.rejected;
  if (offered > 0) {
    snapshot.total.reject_rate =
        static_cast<double>(snapshot.total.rejected) /
        static_cast<double>(offered);
  }
  return snapshot;
}

LiveSummary LiveTelemetry::summary() {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  LiveSummary total;
  total.uptime_ns = now_ns();
  for (const std::unique_ptr<ShardSlot>& slot : slots_) {
    total.submitted += slot->submitted.load(std::memory_order_relaxed);
    total.processed += slot->processed.load(std::memory_order_relaxed);
    total.rejected += slot->rejected.load(std::memory_order_relaxed);
    total.rounds_closed +=
        slot->rounds_closed.load(std::memory_order_relaxed);
    total.queue_high_watermark =
        std::max(total.queue_high_watermark,
                 slot->high_watermark.load(std::memory_order_relaxed));
    total.queue_wait.merge(slot->queue_wait.snapshot());
    total.round_latency.merge(slot->round_latency.snapshot());
  }
  return total;
}

// -------------------------------------------------------- JSONL rendering

namespace {

std::int64_t to_ms(std::uint64_t ns) {
  return static_cast<std::int64_t>(ns / 1'000'000ULL);
}

/// Quantile triple of one window sketch as *_us fields (null when empty).
void write_latency_fields(io::JsonWriter& json, std::string_view prefix,
                          const obs::LatencySketchSnapshot& sketch) {
  const auto field = [&](std::string_view suffix, double value) {
    json.field(std::string(prefix) + std::string(suffix), value);
  };
  field("_p50_us", sketch.quantile_us(0.50));
  field("_p95_us", sketch.quantile_us(0.95));
  field("_p99_us", sketch.quantile_us(0.99));
  field("_max_us",
        sketch.empty() ? std::numeric_limits<double>::quiet_NaN()
                       : static_cast<double>(sketch.max_ns) / 1000.0);
}

}  // namespace

void write_serve_snapshot(std::ostream& os, const ServeSnapshot& snapshot) {
  {
    io::JsonWriter json(os);
    json.begin_object();
    json.field("schema", "mcs.serve_stats.v1");
    json.field("window", snapshot.window);
    json.field("at_ms", to_ms(snapshot.at_ns));
    json.field("span_ms",
               to_ms(snapshot.total.end_ns - snapshot.total.begin_ns));
    json.field("state", obs::to_string(snapshot.state));
    json.field("submitted", snapshot.total.submitted);
    json.field("processed", snapshot.total.processed);
    json.field("rejected", snapshot.total.rejected);
    json.field("reject_rate", snapshot.total.reject_rate);
    json.field("rounds_closed", snapshot.total.rounds_closed);
    json.field("events_per_sec", snapshot.total.events_per_sec);
    json.field("rounds_per_sec", snapshot.total.rounds_per_sec);
    write_latency_fields(json, "round_close", snapshot.total.round_latency);
    write_latency_fields(json, "queue_wait", snapshot.total.queue_wait);
    json.field("queue_depth", snapshot.total.queue_depth);
    json.field("queue_watermark", snapshot.total.queue_watermark);
    json.key("shards");
    json.begin_array();
    for (const ShardWindow& shard : snapshot.shards) {
      json.begin_object();
      json.field("shard", static_cast<std::int64_t>(shard.shard));
      json.field("state", obs::to_string(shard.state));
      json.field("processed", shard.window.processed);
      json.field("rejected", shard.window.rejected);
      json.field("events_per_sec", shard.window.events_per_sec);
      json.field("queue_depth", shard.window.queue_depth);
      json.field("queue_watermark", shard.window.queue_watermark);
      json.field("round_close_p99_us",
                 shard.window.round_latency.quantile_us(0.99));
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  os << '\n';
}

// --------------------------------------------------- Prometheus rendering

void render_live_prometheus(std::ostream& os, const ServeSnapshot& snapshot) {
  obs::MetricsRegistry registry;
  const auto gauge = [&](const std::string& name, double value,
                         std::string_view help = {}) {
    if (std::isfinite(value)) registry.gauge(name, help).set(value);
  };
  gauge("serve.live.window", static_cast<double>(snapshot.window),
        "monotone snapshot window index");
  gauge("serve.live.state", static_cast<double>(snapshot.state),
        "health severity: 0 healthy, 1 saturated, 2 shedding, 3 stalled, "
        "4 degraded-economics");
  gauge("serve.live.events_per_sec", snapshot.total.events_per_sec,
        "events processed per second in the last window");
  gauge("serve.live.rounds_per_sec", snapshot.total.rounds_per_sec,
        "rounds closed per second in the last window");
  gauge("serve.live.reject_rate", snapshot.total.reject_rate,
        "fraction of offered events shed in the last window");
  gauge("serve.live.queue_depth",
        static_cast<double>(snapshot.total.queue_depth),
        "queued events across all shards at the window edge");
  gauge("serve.live.queue_watermark",
        static_cast<double>(snapshot.total.queue_watermark),
        "highest shard queue depth within the last window");
  gauge("serve.live.round_close_p50_us",
        snapshot.total.round_latency.quantile_us(0.50),
        "round open->close wall latency, window p50");
  gauge("serve.live.round_close_p99_us",
        snapshot.total.round_latency.quantile_us(0.99),
        "round open->close wall latency, window p99");
  gauge("serve.live.queue_wait_p99_us",
        snapshot.total.queue_wait.quantile_us(0.99),
        "submit->process queue wait, window p99");
  for (const ShardWindow& shard : snapshot.shards) {
    const std::string prefix =
        "serve.live.shard." + std::to_string(shard.shard) + ".";
    gauge(prefix + "state", static_cast<double>(shard.state));
    gauge(prefix + "queue_depth",
          static_cast<double>(shard.window.queue_depth));
    gauge(prefix + "queue_watermark",
          static_cast<double>(shard.window.queue_watermark));
    gauge(prefix + "events_per_sec", shard.window.events_per_sec);
  }
  obs::write_prometheus(os, registry);
}

// --------------------------------------------------------- StatsPublisher

StatsPublisher::StatsPublisher(LiveTelemetry& live, std::ostream& os,
                               std::chrono::milliseconds period,
                               EconTelemetry* econ, std::ostream* econ_os)
    : live_(live), os_(os), period_(period), econ_(econ), econ_os_(econ_os) {
  MCS_EXPECTS(period_.count() > 0, "stats period must be positive");
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      if (cv_.wait_for(lock, period_, [this] { return stopping_; })) break;
      lock.unlock();
      publish();
      lock.lock();
    }
  });
}

StatsPublisher::~StatsPublisher() { stop(); }

void StatsPublisher::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopping_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  publish();  // tail window, so even sub-period runs emit one snapshot
}

void StatsPublisher::publish() {
  write_serve_snapshot(os_, live_.take_snapshot());
  os_.flush();
  if (econ_ != nullptr && econ_os_ != nullptr) {
    write_econ_snapshot(*econ_os_, econ_->take_snapshot());
    econ_os_->flush();
  }
  written_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mcs::serve
