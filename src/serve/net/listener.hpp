#pragma once
// TCP front-end for the serving runtime: deep-backlog listener + pipelined
// per-connection framing onto Server::submit.
//
// The in-process Server speaks std::future; this front-end makes the same
// contract reachable over a socket. One acceptor thread blocks in accept()
// on a loopback listener with a deep backlog (128, the same listen-queue
// depth long-lived daemons like cupsd use — a connection burst should queue
// in the kernel, not get RSTs). Each accepted connection gets a reader
// thread and a writer thread:
//
//   reader: read_frame -> decode_submit -> Server::submit -> enqueue the
//           returned future (FIFO) for the writer. A submit the server
//           throws on (bad shape) becomes an immediate kBadRequest reply
//           instead of a teardown; a malformed or oversized frame tears the
//           connection down (the stream cannot be resynchronized).
//   writer: pop futures in submission order, block on each, encode the
//           reply, write the frame. Only the writer writes the socket and
//           only the reader reads it, so neither needs a lock on the fd.
//
// The reader/writer split is what makes the connection PIPELINED: a client
// can keep many requests in flight on one socket (the open-loop bench's
// whole point) while replies flow back in submission order. Admission
// control stays where it always was — the server's bounded queue; the
// front-end adds no second buffer beyond the pending-future deque, whose
// length is already capped by the queue capacity plus in-flight batches.
//
// Connection lifetime: a connection owns its two threads. When the writer's
// loop ends (the reader hit EOF or a bad frame and the replies are drained,
// or a write failed), the writer shuts the socket down, joins its reader and
// closes the fd, so a finished connection holds no fd and no running
// thread. The acceptor reaps finished connections on its next accept and
// joins their writers. A front end that lives for days under connection
// churn therefore holds only its live connections.
//
// stop() (or the destructor) closes the listener, wakes every connection
// not yet closed, drains pending replies, and joins all threads. The
// front-end never owns the Server; stop the front-end first, then the
// server.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace ibrar::serve::net {

class TcpFrontend {
 public:
  /// Bind 127.0.0.1:port (0 = kernel-assigned), listen, and start
  /// accepting. Throws std::runtime_error when the socket cannot be set up.
  explicit TcpFrontend(Server& server, std::uint16_t port = 0);
  ~TcpFrontend();
  TcpFrontend(const TcpFrontend&) = delete;
  TcpFrontend& operator=(const TcpFrontend&) = delete;

  /// The bound port (the kernel's pick when the constructor got 0).
  std::uint16_t port() const { return port_; }

  /// Stop accepting, tear down every connection, join all threads.
  /// Idempotent.
  void stop();

 private:
  struct Connection;

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void writer_loop(const std::shared_ptr<Connection>& conn);

  Server& server_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex mu_;  // guards conns_ and each connection's fd close
  std::vector<std::shared_ptr<Connection>> conns_;  ///< live and unreaped
};

}  // namespace ibrar::serve::net
