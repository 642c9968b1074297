// Loopback TCP front-end for the serving engine.
//
// The engine itself is transport-agnostic: it consumes ServeEvents from
// whatever hands them off through a ShardBatcher. This front-end puts a
// socket in front of that handoff so producers in other processes can feed
// rounds over the wire. One acceptor thread owns the listening socket;
// each accepted connection gets a reader thread that decodes its byte
// stream and hands every event to that connection's own sink, made by the
// server's sink factory. The engine-facing sink, EngineConnection, batches
// through the connection's own ShardBatcher (which places the rounds, so a
// round's events must arrive on one connection); connections never wait on
// each other's locks, only on the engine's queues. A connection's sink is
// closed when the connection ends, which flushes whatever it still holds.
//
// Each connection's bytes go, one read() chunk at a time, through its own
// StreamDecoder (serve/wire.hpp), the reader replay and transcode use too:
// the same format autodetection and the same end-of-stream rule, so a
// stream a replay accepts a connection accepts. Malformed or truncated
// input poisons only its own connection -- the connection is dropped and
// counted in stats().decode_errors; other connections and the engine keep
// running. That containment is what makes the socket path safe to expose
// to untrusted producers.
//
// Lifecycle: construct, start() (binds; an ephemeral port is readable via
// port()), stop() (idempotent; wakes the acceptor, shuts down every open
// connection, joins all threads). The destructor calls stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/wire.hpp"

namespace mcs::serve {

struct SocketServerConfig {
  std::string host{"127.0.0.1"};  ///< bind address (loopback by default)
  int port{0};                    ///< 0 picks an ephemeral port
};

struct SocketServerStats {
  std::int64_t connections{0};    ///< connections accepted so far
  std::int64_t events{0};         ///< events delivered to the sink
  std::int64_t decode_errors{0};  ///< connections dropped on malformed input
};

class SocketServer {
 public:
  using Sink = std::function<void(const ServeEvent&)>;

  /// One connection's consumer of decoded events. Each connection gets its
  /// own, used only from that connection's reader thread.
  class ConnectionSink {
   public:
    ConnectionSink() = default;
    virtual ~ConnectionSink() = default;
    ConnectionSink(const ConnectionSink&) = delete;
    ConnectionSink& operator=(const ConnectionSink&) = delete;
    ConnectionSink(ConnectionSink&&) = delete;
    ConnectionSink& operator=(ConnectionSink&&) = delete;

    /// One decoded event. A throw poisons the connection exactly like a
    /// decode error.
    virtual void on_event(const ServeEvent& event) = 0;
    /// Called once when the connection ends (EOF, malformed input, or
    /// stop()), after its last on_event. A throw counts the connection as
    /// failed.
    virtual void on_close() = 0;
  };
  using SinkFactory = std::function<std::unique_ptr<ConnectionSink>()>;

  /// `sink` is shared by every connection: it is invoked from connection
  /// reader threads, potentially concurrently, so it must be thread-safe.
  SocketServer(SocketServerConfig config, Sink sink);
  /// `factory` makes one sink per connection, called from that
  /// connection's reader thread (so possibly concurrently).
  SocketServer(SocketServerConfig config, SinkFactory factory);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the acceptor thread. Throws IoError when
  /// the address cannot be bound.
  void start();

  /// The bound port (resolves an ephemeral request). Valid after start().
  [[nodiscard]] int port() const { return port_; }

  /// Graceful shutdown: accepts whatever connections are already pending
  /// in the kernel backlog, then waits for every connection to reach EOF
  /// naturally (producers that sent-and-closed lose nothing) and joins all
  /// threads. Blocks for as long as the slowest producer keeps its
  /// connection open.
  void drain();

  /// Forced shutdown: stops accepting and shuts down open connections
  /// (in-flight buffered bytes are dropped), joins all threads.
  /// Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] SocketServerStats stats() const;

 private:
  void accept_loop();
  void drain_backlog();
  bool accept_one(bool blocking);
  void connection_loop(int fd);
  void join_all();
  void close_fds();

  SocketServerConfig config_;
  SinkFactory factory_;
  int listen_fd_{-1};
  int wake_pipe_[2]{-1, -1};  ///< self-pipe: stop() wakes the acceptor poll
  int port_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  bool started_{false};

  mutable std::mutex mutex_;  ///< guards conn_fds_, threads_, rare counters
  std::vector<int> conn_fds_;
  std::vector<std::thread> threads_;
  std::thread acceptor_;
  std::int64_t connections_{0};
  std::atomic<std::int64_t> events_{0};  ///< added once per read chunk
  std::int64_t decode_errors_{0};
};

/// Exact handoff accounting summed over connections, each adding its own
/// totals once, when it closes.
struct HandoffTotals {
  std::atomic<std::int64_t> accepted{0};  ///< events the engine admitted
  std::atomic<std::int64_t> shed{0};      ///< events lost to admission
};

/// The engine-facing connection sink. The connection hands off through
/// its own ShardBatcher (at batch_size 1 each event is its own
/// submit_batch), so connections never wait on each other; its last
/// partial batches go out at close, when it adds the batcher's exact
/// accepted and rejected event counts to `totals`. `tap`, when set, sees
/// every event before the handoff (the caller serializes it if it is
/// shared).
class EngineConnection final : public SocketServer::ConnectionSink {
 public:
  EngineConnection(ServeEngine& engine, HandoffTotals& totals,
                   SocketServer::Sink tap = {});

  void on_event(const ServeEvent& event) override;
  void on_close() override;

 private:
  HandoffTotals& totals_;
  SocketServer::Sink tap_;
  ShardBatcher batcher_;
};

/// Blocking client: connects to host:port and streams bytes. The serve CLI
/// uses it to push loadgen / replay traffic at a --listen'ing engine.
class SocketClient {
 public:
  SocketClient() = default;
  ~SocketClient();

  SocketClient(SocketClient&& other) noexcept;
  SocketClient& operator=(SocketClient&& other) noexcept;
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  /// Connects (throws IoError on refusal / resolution failure).
  [[nodiscard]] static SocketClient connect(const std::string& host, int port);

  /// Sends the whole buffer (throws IoError on a broken connection).
  void send(std::string_view bytes);

  /// Half-closes the write side so the server sees EOF, then closes.
  void close();

 private:
  int fd_{-1};
};

}  // namespace mcs::serve
