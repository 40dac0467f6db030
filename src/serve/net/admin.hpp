#pragma once
// HTTP admin endpoint: the observability layer's scrape surface.
//
// A minimal HTTP/1.0 responder on a loopback listener (`ibrar_serve
// --admin-port`), READ-ONLY BY CONTRACT: every route renders existing
// observability state — nothing here can mutate the server, the model
// registry, or any knob. Routes:
//
//   GET /metrics             obs::registry() snapshot in Prometheus text
//                            exposition format 0.0.4 (counters, gauges,
//                            histogram `le` buckets) — point a scraper here
//   GET /registry            the same snapshot as the one-line JSON shape
//                            ibrar_serve --stats-every prints
//   GET /slo                 obs::slos() states + burn rates as JSON
//   GET /timeseries          JSON list of every series name in the store
//   GET /timeseries?name=X   samples of series X as JSON
//   GET /profile             obs::profile_to_json()
//
// Implementation intentionally stays at HTTP/1.0 semantics: read one
// request, write one `Connection: close` response, close. No keep-alive, no
// chunking, no request body — a curl / Prometheus scrape is exactly one
// round trip, and the accept loop handles connections inline (admin traffic
// is a scraper on a cadence, not a request path; a slow admin client can
// delay the next scrape, never a serving request). Each connection's reads
// and writes time out after two seconds, so an idle or non-reading client
// delays the next scrape, and stop(), by at most that. The responder shares no
// lock with the serving path — every route reads through the same
// lock-minimal snapshot calls the in-process samplers use.
//
// render_admin_response() is the pure request-target -> HTTP-response
// function underneath; tests drive it directly without sockets.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace ibrar::serve::net {

/// Full HTTP/1.0 response (status line, headers, body) for a request
/// target such as "/metrics" or "/timeseries?name=serve.accepted".
/// Unknown targets get 404; the function never throws.
std::string render_admin_response(const std::string& target);

class AdminEndpoint {
 public:
  /// Bind 127.0.0.1:port (0 = kernel-assigned), listen with a backlog of
  /// 16, serve. Throws std::runtime_error when the socket cannot be set up.
  explicit AdminEndpoint(std::uint16_t port = 0);
  ~AdminEndpoint();
  AdminEndpoint(const AdminEndpoint&) = delete;
  AdminEndpoint& operator=(const AdminEndpoint&) = delete;

  /// The bound port (the kernel's pick when the constructor got 0).
  std::uint16_t port() const { return port_; }

  /// Close the listener and join the accept thread. Idempotent.
  void stop();

 private:
  void accept_loop();

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
};

}  // namespace ibrar::serve::net
