#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace mcs::serve {

namespace {

constexpr int kListenBacklog = 64;  ///< pending connections for listen()

[[noreturn]] void socket_fail(const std::string& what) {
  throw IoError("serve socket: " + what + " (" + std::strerror(errno) + ")");
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw IoError("serve socket: invalid IPv4 address '" + host + "'");
  }
  return addr;
}

/// The shared-sink form: every connection forwards to one callable.
class SharedSink final : public SocketServer::ConnectionSink {
 public:
  explicit SharedSink(std::shared_ptr<const SocketServer::Sink> sink)
      : sink_(std::move(sink)) {}

  void on_event(const ServeEvent& event) override { (*sink_)(event); }
  void on_close() override {}

 private:
  std::shared_ptr<const SocketServer::Sink> sink_;
};

}  // namespace

// ------------------------------------------------------------ SocketServer

SocketServer::SocketServer(SocketServerConfig config, Sink sink)
    : SocketServer(std::move(config),
                   [shared = std::make_shared<const Sink>(std::move(sink))] {
                     return std::make_unique<SharedSink>(shared);
                   }) {}

SocketServer::SocketServer(SocketServerConfig config, SinkFactory factory)
    : config_(std::move(config)), factory_(std::move(factory)) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  if (started_) throw IoError("serve socket: start() called twice");
  if (::pipe(wake_pipe_) != 0) socket_fail("pipe");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) socket_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(config_.host, config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    socket_fail("bind to " + config_.host + ":" +
                std::to_string(config_.port));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) socket_fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    socket_fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
}

void SocketServer::drain() {
  if (!started_) return;
  draining_.store(true);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
  // The acceptor empties the kernel backlog before exiting, so producers
  // that connected-sent-closed before this call lose nothing; readers then
  // run to their natural EOF.
  join_all();
  close_fds();
  started_ = false;
  draining_.store(false);
}

void SocketServer::stop() {
  if (!started_) return;
  stopping_.store(true);
  // Wake the acceptor's poll, then shut down every live connection so the
  // reader threads return immediately (buffered bytes are dropped).
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  join_all();
  close_fds();
  started_ = false;
  stopping_.store(false);
}

void SocketServer::join_all() {
  if (acceptor_.joinable()) acceptor_.join();
  // Reader threads may still be spawning from the acceptor until it joins;
  // only then is threads_ stable.
  std::vector<std::thread> readers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    readers.swap(threads_);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
}

void SocketServer::close_fds() {
  close_quietly(listen_fd_);
  close_quietly(wake_pipe_[0]);
  close_quietly(wake_pipe_[1]);
}

SocketServerStats SocketServer::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SocketServerStats stats;
  stats.connections = connections_;
  stats.events = events_.load(std::memory_order_relaxed);
  stats.decode_errors = decode_errors_;
  return stats;
}

void SocketServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 || stopping_.load() ||
        draining_.load()) {
      if (draining_.load() && !stopping_.load()) drain_backlog();
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    if (!accept_one(/*blocking=*/true)) break;
  }
}

/// Accepts connections already completed by the kernel until the backlog
/// is empty -- the graceful half of drain().
void SocketServer::drain_backlog() {
  while (true) {
    pollfd fd{listen_fd_, POLLIN, 0};
    if (::poll(&fd, 1, 0) <= 0 || (fd.revents & POLLIN) == 0) break;
    if (!accept_one(/*blocking=*/false)) break;
  }
}

bool SocketServer::accept_one(bool blocking) {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return blocking;
    return false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_.load()) {
    ::close(fd);
    return false;
  }
  ++connections_;
  conn_fds_.push_back(fd);
  threads_.emplace_back([this, fd] { connection_loop(fd); });
  return true;
}

void SocketServer::connection_loop(int fd) {
  StreamDecoder decoder;
  bool failed = false;
  std::unique_ptr<ConnectionSink> sink;
  // Delivered events are counted locally and published once per chunk:
  // every reader shares events_'s cache line.
  std::int64_t chunk_events = 0;
  const Sink forward = [&sink, &chunk_events](const ServeEvent& event) {
    // A throwing sink (e.g. the engine rejecting after stop()) poisons
    // this connection exactly like a decode error would.
    sink->on_event(event);
    ++chunk_events;
  };
  try {
    sink = factory_();
  } catch (const Error&) {
    failed = true;
  }
  char chunk[1 << 16];
  bool ended = false;
  while (!failed && !ended) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      failed = true;
      break;
    }
    ended = got == 0;  // clean EOF (or shutdown() from stop())
    try {
      if (ended) {
        decoder.finish(forward);
      } else {
        decoder.feed(std::string_view(chunk, static_cast<std::size_t>(got)),
                     forward);
      }
    } catch (const Error&) {
      failed = true;  // malformed or truncated input: drop only this one
    }
    events_.fetch_add(chunk_events, std::memory_order_relaxed);
    chunk_events = 0;
  }
  if (sink != nullptr) {
    // The connection's last partial batches go out at its own end, not at
    // the server's drain.
    try {
      sink->on_close();
    } catch (const Error&) {
      failed = true;
    }
  }
  ::shutdown(fd, SHUT_RDWR);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (failed) ++decode_errors_;
  std::erase(conn_fds_, fd);
  ::close(fd);
}

// -------------------------------------------------------- EngineConnection

EngineConnection::EngineConnection(ServeEngine& engine, HandoffTotals& totals,
                                   SocketServer::Sink tap)
    : totals_(totals), tap_(std::move(tap)), batcher_(engine) {}

void EngineConnection::on_event(const ServeEvent& event) {
  if (tap_) tap_(event);
  (void)batcher_.add(event);
}

void EngineConnection::on_close() {
  (void)batcher_.flush();
  totals_.accepted.fetch_add(batcher_.accepted_events(),
                             std::memory_order_relaxed);
  totals_.shed.fetch_add(batcher_.rejected_events(),
                         std::memory_order_relaxed);
}

// ------------------------------------------------------------ SocketClient

SocketClient::~SocketClient() { close(); }

SocketClient::SocketClient(SocketClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

SocketClient& SocketClient::operator=(SocketClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

SocketClient SocketClient::connect(const std::string& host, int port) {
  SocketClient client;
  client.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (client.fd_ < 0) socket_fail("socket");
  const sockaddr_in addr = make_addr(host, port);
  if (::connect(client.fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    socket_fail("connect to " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(client.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return client;
}

void SocketClient::send(std::string_view bytes) {
  if (fd_ < 0) throw IoError("serve socket: send on a closed client");
  while (!bytes.empty()) {
    const ssize_t sent = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      socket_fail("send");
    }
    bytes.remove_prefix(static_cast<std::size_t>(sent));
  }
}

void SocketClient::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_WR);
    close_quietly(fd_);
  }
}

}  // namespace mcs::serve
