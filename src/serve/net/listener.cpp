#include "serve/net/listener.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <iterator>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "serve/net/wire.hpp"

namespace ibrar::serve::net {

/// listen(2) queue depth: a connection burst queues in the kernel.
constexpr int kBacklog = 128;

/// One reply the writer owes the peer, in submission order. `bad` marks a
/// request the server refused at the door (no future exists for it).
struct PendingReply {
  std::uint64_t id = 0;
  bool bad = false;
  std::future<Reply> fut;
};

struct TcpFrontend::Connection {
  int fd = -1;
  /// The writer has closed fd. Guarded by TcpFrontend::mu_.
  bool closed = false;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<PendingReply> pending;
  bool reader_done = false;
  std::thread reader;  ///< joined by the writer
  std::thread writer;  ///< joined by whoever reaps the connection
};

TcpFrontend::TcpFrontend(Server& server, std::uint16_t port)
    : server_(server) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("TcpFrontend: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpFrontend: bind(127.0.0.1:" +
                             std::to_string(port) + ") failed");
  }
  if (::listen(listen_fd_, kBacklog) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpFrontend: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  acceptor_ = std::thread([this] { accept_loop(); });
}

TcpFrontend::~TcpFrontend() { stop(); }

void TcpFrontend::stop() {
  if (stopping_.exchange(true)) return;
  // Closing the listener makes the blocked accept() return with an error.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();

  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns.swap(conns_);
    // Wake every blocked reader; writers drain their pending futures (the
    // server resolves them — with replies, or rejection statuses if it is
    // shutting down too) and then end their connections. A closed
    // connection is skipped: its fd number may already name a new socket.
    for (const auto& c : conns) {
      if (!c->closed) ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  for (const auto& c : conns) c->writer.join();
}

void TcpFrontend::accept_loop() {
  auto& c_conns = obs::registry().counter("serve.net.connections");
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop) or unrecoverable
    }
    // One small frame per reply: latency wins over Nagle coalescing here.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    c_conns.inc();

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::vector<std::shared_ptr<Connection>> ended;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_.load(std::memory_order_relaxed)) {
        ::close(fd);
        return;
      }
      // Reap the connections whose writer has closed the fd since the last
      // accept; their writers are joined below, outside the lock.
      const auto live = std::partition(
          conns_.begin(), conns_.end(),
          [](const std::shared_ptr<Connection>& c) { return !c->closed; });
      ended.assign(std::make_move_iterator(live),
                   std::make_move_iterator(conns_.end()));
      conns_.erase(live, conns_.end());
      conns_.push_back(conn);
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
      conn->writer = std::thread([this, conn] { writer_loop(conn); });
    }
    for (const auto& c : ended) c->writer.join();
  }
}

void TcpFrontend::reader_loop(const std::shared_ptr<Connection>& conn) {
  auto& c_frames = obs::registry().counter("serve.net.frames_in");
  auto& c_bad = obs::registry().counter("serve.net.bad_requests");
  std::vector<std::uint8_t> payload;
  while (read_frame(conn->fd, payload)) {
    PendingReply pr;
    try {
      SubmitFrame frame = decode_submit(payload.data(), payload.size());
      pr.id = frame.id;
      c_frames.inc();
      try {
        pr.fut = server_.submit(std::move(frame.input), frame.client_id);
      } catch (const std::invalid_argument&) {
        // Well-framed but unservable (shape mismatch): answer, don't die.
        pr.bad = true;
        c_bad.inc();
      }
    } catch (const std::exception&) {
      break;  // malformed frame: the stream is garbage from here on
    }
    {
      std::lock_guard<std::mutex> lk(conn->mu);
      conn->pending.push_back(std::move(pr));
    }
    conn->cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    conn->reader_done = true;
  }
  conn->cv.notify_one();
}

void TcpFrontend::writer_loop(const std::shared_ptr<Connection>& conn) {
  auto& c_frames = obs::registry().counter("serve.net.frames_out");
  for (;;) {
    PendingReply pr;
    {
      std::unique_lock<std::mutex> lk(conn->mu);
      conn->cv.wait(lk, [&conn] {
        return !conn->pending.empty() || conn->reader_done;
      });
      if (conn->pending.empty()) break;  // reader done and drained
      pr = std::move(conn->pending.front());
      conn->pending.pop_front();
    }
    ReplyFrame frame;
    if (pr.bad) {
      frame.id = pr.id;
      frame.status = WireStatus::kBadRequest;
    } else {
      // Blocking on the future IS the pacing: replies leave in submission
      // order, and the deque stays bounded by the server's admission queue.
      frame = make_reply_frame(pr.id, pr.fut.get());
    }
    if (!write_frame(conn->fd, encode_reply(frame))) break;
    c_frames.inc();
  }
  // End the connection: unblock the reader if it is still parked in read()
  // (writer died first — e.g. the peer closed its receive side), join it,
  // and close the fd. Closing under mu_ orders it against stop(), which
  // shuts down only connections not yet closed.
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->reader.join();
  std::lock_guard<std::mutex> lk(mu_);
  ::close(conn->fd);
  conn->closed = true;
}

}  // namespace ibrar::serve::net
