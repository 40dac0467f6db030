#include "serve/net/admin.hpp"

#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "serve/net/wire.hpp"

namespace ibrar::serve::net {
namespace {

/// How long one read or write on an admin connection may wait on its peer.
/// A client that connects and sends nothing, or stops reading its reply, is
/// dropped after this instead of holding the one accept thread (and stop())
/// for as long as it stays connected.
constexpr timeval kConnectionIoTimeout{2, 0};

/// listen(2) queue depth: admin traffic is a scraper on a cadence.
constexpr int kBacklog = 16;

std::string http_response(int code, const char* reason,
                          const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string timeseries_json(const std::string& name) {
  const auto samples = obs::timeseries().series(name);
  std::string out = "{\"name\":\"" + name + "\",\"samples\":[";
  char buf[80];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s{\"t_ns\":%lld,\"v\":%.9g}",
                  i == 0 ? "" : ",",
                  static_cast<long long>(samples[i].t_ns), samples[i].value);
    out += buf;
  }
  out += "],\"dropped_samples\":" +
         std::to_string(obs::timeseries().dropped_samples()) + "}\n";
  return out;
}

std::string timeseries_listing() {
  const auto names = obs::timeseries().series_names();
  std::string out = "{\"series\":[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + names[i] + "\"";
  }
  out += "],\"ticks\":" + std::to_string(obs::timeseries().ticks()) + "}\n";
  return out;
}

}  // namespace

std::string render_admin_response(const std::string& target) {
  try {
    if (target == "/metrics") {
      return http_response(200, "OK",
                           "text/plain; version=0.0.4; charset=utf-8",
                           obs::registry().snapshot().to_prometheus());
    }
    if (target == "/registry") {
      return http_response(200, "OK", "application/json",
                           obs::registry().snapshot().to_json() + "\n");
    }
    if (target == "/slo") {
      return http_response(200, "OK", "application/json",
                           obs::slos().to_json());
    }
    if (target == "/profile") {
      return http_response(200, "OK", "application/json",
                           obs::profile_to_json());
    }
    if (target == "/timeseries") {
      return http_response(200, "OK", "application/json",
                           timeseries_listing());
    }
    const std::string ts_prefix = "/timeseries?name=";
    if (target.compare(0, ts_prefix.size(), ts_prefix) == 0) {
      return http_response(200, "OK", "application/json",
                           timeseries_json(target.substr(ts_prefix.size())));
    }
    return http_response(404, "Not Found", "text/plain",
                         "unknown admin route: " + target + "\n");
  } catch (const std::exception& e) {
    return http_response(500, "Internal Server Error", "text/plain",
                         std::string(e.what()) + "\n");
  }
}

AdminEndpoint::AdminEndpoint(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("AdminEndpoint: socket() failed");
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
    throw std::runtime_error("AdminEndpoint: bind(127.0.0.1:" +
                             std::to_string(port) + ") failed");
  }
  if (::listen(listen_fd_, kBacklog) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("AdminEndpoint: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  acceptor_ = std::thread([this] { accept_loop(); });
}

AdminEndpoint::~AdminEndpoint() { stop(); }

void AdminEndpoint::stop() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
}

void AdminEndpoint::accept_loop() {
  auto& c_requests = obs::registry().counter("obs.admin.requests");
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop) or unrecoverable
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &kConnectionIoTimeout,
                 sizeof kConnectionIoTimeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &kConnectionIoTimeout,
                 sizeof kConnectionIoTimeout);

    // Read until the end of the request head (or a small cap — admin
    // requests have no body, so anything bigger is garbage).
    std::string head;
    char buf[1024];
    while (head.size() < 8192 && head.find("\r\n\r\n") == std::string::npos &&
           head.find("\n\n") == std::string::npos) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;  // closed, failed, or idle past the timeout
      head.append(buf, static_cast<std::size_t>(n));
    }
    if (head.empty()) {
      ::close(fd);
      continue;
    }
    // Request line: METHOD SP TARGET SP VERSION. Only GET is served (the
    // endpoint is read-only by contract).
    std::string response;
    const auto sp1 = head.find(' ');
    const auto sp2 = sp1 == std::string::npos ? std::string::npos
                                              : head.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        head.compare(0, sp1, "GET") != 0) {
      response = http_response(405, "Method Not Allowed", "text/plain",
                               "admin endpoint is read-only: GET only\n");
    } else {
      c_requests.inc();
      response = render_admin_response(head.substr(sp1 + 1, sp2 - sp1 - 1));
    }
    // A scraper that hangs up early is only a failed write, not a SIGPIPE.
    write_all(fd, reinterpret_cast<const std::uint8_t*>(response.data()),
              response.size());
    ::close(fd);
  }
}

}  // namespace ibrar::serve::net
