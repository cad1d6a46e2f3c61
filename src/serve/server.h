#ifndef MOTSIM_SERVE_SERVER_H
#define MOTSIM_SERVE_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/framing.h"
#include "serve/http.h"
#include "serve/request_queue.h"
#include "serve/service.h"
#include "util/expected.h"
#include "util/net.h"

namespace motsim::obs {
struct Telemetry;
}

namespace motsim::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// Protocol port; 0 = ephemeral (read the bound port with port()).
  std::uint16_t port = 0;
  /// HTTP observability port (/metrics, /healthz); 0 = ephemeral.
  std::uint16_t http_port = 0;
  /// Queue worker threads; 0 = one per hardware thread.
  std::size_t threads = 0;
  /// Max requests in flight (queued + executing) before BUSY.
  std::size_t queue_capacity = 64;
  /// Max parsed circuits resident in the LRU cache.
  std::size_t cache_capacity = 32;
  /// Root directory for use_store campaign requests; empty = disabled.
  std::string store_root;
  /// Requests whose service time exceeds this get a serve.request.slow
  /// log record at Warn next to the normal access-log line.
  double slow_request_seconds = 1.0;
  /// Where SIGUSR1 / crash state dumps land (flight-recorder JSONL +
  /// one metrics-snapshot line). Empty disables dump-on-signal.
  std::string dump_path = "motsim_state.jsonl";
};

/// The motsim_served daemon core: accept loop + per-connection reader
/// threads + the bounded campaign queue + the HTTP observability
/// endpoint, owned as one object so tests can boot a real server on an
/// ephemeral loopback port inside the process.
///
/// Threading model (docs/SERVE.md): one reader thread per connection
/// parses frames and admits work; Service::handle runs on queue
/// workers; responses are written from the worker under the
/// connection's write mutex (frames leave in one write_full each, so
/// out-of-order completions never interleave). shutdown() — triggered
/// by SIGINT/SIGTERM via util/signals or programmatically — stops
/// admission, drains every admitted request, then closes connections.
class Server {
 public:
  Server(ServerConfig config, obs::Telemetry* telemetry);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds both listeners and spawns the accept + HTTP threads.
  [[nodiscard]] Expected<bool, std::string> start();

  /// Blocks until a stop is requested (signal or request_shutdown),
  /// then performs the graceful drain. Returns after shutdown.
  void run_until_stop();

  /// Programmatic stop (tests): unblocks run_until_stop.
  void request_shutdown();

  /// Stops accepting, drains the queue, closes connections, joins
  /// threads. Idempotent; called by the destructor as a backstop.
  void shutdown();

  /// Writes the current state dump — one metrics-snapshot JSONL line
  /// followed by the flight-recorder window — appended to `path`. The
  /// SIGUSR1 path of run_until_stop and the tests share this.
  [[nodiscard]] Expected<bool, std::string> dump_state(
      const std::string& path) const;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint16_t http_port() const noexcept {
    return http_port_;
  }
  [[nodiscard]] Service& service() noexcept { return service_; }
  [[nodiscard]] RequestQueue& queue() noexcept { return queue_; }

 private:
  /// Per-connection shared state: jobs capture it, so the socket stays
  /// open until the last queued response for it was written.
  struct Connection {
    OwnedFd fd;
    std::uint64_t id = 0;  ///< the "c<id>" half of request trace ids
    std::atomic<std::uint32_t> next_request{0};  ///< the "r<seq>" half
    std::mutex write_mutex;
    std::atomic<bool> broken{false};  ///< write failed; stop responding
  };

  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> conn);
  void http_loop();
  /// Writes one frame unless the connection already broke; a failed
  /// write marks it broken and logs serve.conn.write_error.
  void send_frame(Connection& conn, const Frame& frame);
  /// Encodes `response` and sends it (the replies that get no
  /// access-log line).
  void send_response(Connection& conn, const Response& response);

  ServerConfig config_;
  obs::Telemetry* const telemetry_;
  Service service_;
  RequestQueue queue_;
  HttpEndpoint http_;
  std::atomic<std::uint64_t> next_conn_id_{1};

  OwnedFd listen_fd_;
  OwnedFd http_fd_;
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> shut_down_{false};
  std::thread accept_thread_;
  std::thread http_thread_;
  std::mutex conns_mutex_;
  std::vector<std::thread> conn_threads_;          ///< guarded by conns_mutex_
  std::vector<std::weak_ptr<Connection>> conns_;   ///< guarded by conns_mutex_
};

}  // namespace motsim::serve

#endif  // MOTSIM_SERVE_SERVER_H
