#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "serve/framing.h"
#include "util/signals.h"
#include "util/stopwatch.h"
#include "util/version.h"

namespace motsim::serve {

namespace {

constexpr int kAcceptPollMs = 200;

/// Best-effort request id for error frames when the payload failed to
/// decode: every request payload leads with its u32 id, so if at least
/// four bytes arrived we can still echo the right id back.
std::uint32_t salvage_id(const std::string& payload) {
  if (payload.size() < 4) return 0;
  return static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(payload[0])) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(payload[1]))
          << 8) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(payload[2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(payload[3]))
          << 24);
}

/// Outcome tag of an access-log line, from the response frame type.
const char* outcome_of(const Response& response) noexcept {
  if (std::holds_alternative<ErrorResponse>(response)) return "error";
  if (std::holds_alternative<BusyResponse>(response)) return "busy";
  return "ok";
}

/// A response as it goes on the wire.
Frame to_frame(const Response& response) {
  return Frame{frame_type_of(response), encode_response(response)};
}

/// Frame header (length + type) plus payload — what the peer reads.
std::size_t wire_size(const Frame& frame) noexcept {
  return frame.payload.size() + 5;
}

/// Queue-wait histogram buckets — same shape as the service-time
/// histogram in serve/service.cpp so the two are comparable.
const std::vector<double>& queue_wait_bounds() {
  static const std::vector<double> kBounds = {
      1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03,
      0.1,  0.3,  1.0,  3.0,  10.0, 30.0, 100.0};
  return kBounds;
}

}  // namespace

Server::Server(ServerConfig config, obs::Telemetry* telemetry)
    : config_(std::move(config)),
      telemetry_(telemetry),
      service_(config_.cache_capacity, config_.store_root, telemetry),
      queue_(config_.threads, config_.queue_capacity, telemetry),
      http_(telemetry) {}

Server::~Server() { shutdown(); }

Expected<bool, std::string> Server::start() {
  auto listener = listen_tcp(config_.host, config_.port);
  if (!listener.has_value()) {
    return make_unexpected("serve: " + listener.error());
  }
  listen_fd_ = std::move(*listener);
  const auto bound = local_port(listen_fd_.get());
  if (!bound.has_value()) return make_unexpected(bound.error());
  port_ = *bound;

  auto http = listen_tcp(config_.host, config_.http_port);
  if (!http.has_value()) {
    return make_unexpected("serve http: " + http.error());
  }
  http_fd_ = std::move(*http);
  const auto http_bound = local_port(http_fd_.get());
  if (!http_bound.has_value()) return make_unexpected(http_bound.error());
  http_port_ = *http_bound;

  accept_thread_ = std::thread([this] { accept_loop(); });
  http_thread_ = std::thread([this] { http_loop(); });
  return true;
}

void Server::run_until_stop() {
  // Signal delivery writes the self-pipe (util/signals installs the
  // handlers without SA_RESTART), so the poll inside
  // accept_with_timeout-style waits wakes promptly; here a coarse
  // sleep-poll is enough because nothing latency-sensitive waits on it.
  // The same poll services SIGUSR1 state-dump requests — the handler
  // only latches a flag, the dump itself runs here on a normal thread.
  while (!stopping_.load(std::memory_order_acquire) && !stop_requested()) {
    if (take_dump_request() && !config_.dump_path.empty()) {
      const auto dumped = dump_state(config_.dump_path);
      obs::log_event(telemetry_, obs::LogLevel::Info, "serve.dump",
                     {obs::LogField::str("path", config_.dump_path),
                      obs::LogField::boolean("ok", dumped.has_value())});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  shutdown();
}

Expected<bool, std::string> Server::dump_state(
    const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    return make_unexpected("dump: cannot open for appending: " + path);
  }
  if (telemetry_ != nullptr) {
    out << telemetry_->metrics.snapshot().to_json_line() << "\n"
        << telemetry_->recorder.dump();
  } else {
    out << "{}\n";
  }
  out.flush();
  if (!out) return make_unexpected("dump: write failed: " + path);
  return true;
}

void Server::request_shutdown() {
  stopping_.store(true, std::memory_order_release);
}

void Server::shutdown() {
  if (shut_down_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);

  // Order matters: (1) stop accepting, (2) drain — every admitted
  // request finishes and its response is written, (3) only then tear
  // down sockets so readers blocked in read_frame wake up and exit.
  if (accept_thread_.joinable()) accept_thread_.join();
  obs::log_event(telemetry_, obs::LogLevel::Info, "serve.drain.begin",
                 {obs::LogField::u64("in_flight", queue_.in_flight())});
  queue_.drain();
  obs::log_event(telemetry_, obs::LogLevel::Info, "serve.drain.end");
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& weak : conns_) {
      if (const auto conn = weak.lock()) {
        ::shutdown(conn->fd.get(), SHUT_RDWR);
      }
    }
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    readers.swap(conn_threads_);
  }
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
  if (http_thread_.joinable()) http_thread_.join();
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire) && !stop_requested()) {
    auto accepted =
        accept_with_timeout(listen_fd_.get(), kAcceptPollMs, stop_wake_fd());
    if (!accepted.has_value()) {
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;  // transient accept error; keep serving
    }
    if (!accepted->valid()) continue;  // timeout or stop wake
    set_tcp_nodelay(accepted->get());
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(*accepted);
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry_ != nullptr) {
      telemetry_->metrics.counter("serve.connections.accepted").add();
    }
    obs::log_event(telemetry_, obs::LogLevel::Info, "serve.conn.accept",
                   {obs::LogField::u64("conn", conn->id)});
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn = std::move(conn)]() mutable {
          connection_loop(std::move(conn));
        });
    // Opportunistically compact expired entries so a long-lived server
    // with client churn does not grow the registry without bound.
    if (conns_.size() > 64) {
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const std::weak_ptr<Connection>& w) {
                                    return w.expired();
                                  }),
                   conns_.end());
    }
  }
}

void Server::send_frame(Connection& conn, const Frame& frame) {
  if (conn.broken.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  const auto wrote = write_frame(conn.fd.get(), frame.type, frame.payload);
  if (!wrote.has_value()) {
    conn.broken.store(true, std::memory_order_release);
    if (telemetry_ != nullptr) {
      telemetry_->metrics.counter("serve.write_errors").add();
    }
    obs::log_event(telemetry_, obs::LogLevel::Warn, "serve.conn.write_error",
                   {obs::LogField::u64("conn", conn.id)}, wrote.error());
  }
}

void Server::send_response(Connection& conn, const Response& response) {
  send_frame(conn, to_frame(response));
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  // Server speaks first: HELLO with protocol version + build string.
  const Hello ours{kHelloMagic, kProtocolVersion, build_info_string()};
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    const auto wrote =
        write_frame(conn->fd.get(), FrameType::Hello, encode_hello(ours));
    if (!wrote.has_value()) return;
  }

  // The client's first frame must be a compatible HELLO.
  {
    const ReadResult first = read_frame(conn->fd.get());
    if (first.status != ReadStatus::Ok) return;
    bool ok = first.frame.type == FrameType::Hello;
    Hello theirs;
    if (ok) {
      const auto decoded = decode_hello(first.frame.payload);
      ok = decoded.has_value();
      if (ok) theirs = *decoded;
    }
    if (!ok) {
      send_response(
          *conn, ErrorResponse{0, ErrorCode::BadFrame,
                               "handshake: expected a HELLO frame"});
      return;
    }
    if (theirs.protocol != kProtocolVersion) {
      send_response(
          *conn,
          ErrorResponse{0, ErrorCode::VersionMismatch,
                        "server speaks protocol " +
                            std::to_string(kProtocolVersion) +
                            ", client sent " +
                            std::to_string(theirs.protocol)});
      return;
    }
  }

  while (!conn->broken.load(std::memory_order_acquire)) {
    const ReadResult r = read_frame(conn->fd.get());
    if (r.status == ReadStatus::Eof) break;
    if (r.status == ReadStatus::Error) {
      // Framing-level damage (bad length, short read): the stream can
      // no longer be resynchronized, so answer once and hang up.
      if (telemetry_ != nullptr) {
        telemetry_->metrics.counter("serve.protocol_errors").add();
      }
      if (!stopping_.load(std::memory_order_acquire)) {
        send_response(*conn,
                      ErrorResponse{0, ErrorCode::BadFrame, r.error});
      }
      break;
    }
    auto decoded = decode_request(r.frame.type, r.frame.payload);
    if (!decoded.has_value()) {
      // Frame boundaries are intact, only this payload is malformed —
      // report it and keep the connection.
      if (telemetry_ != nullptr) {
        telemetry_->metrics.counter("serve.protocol_errors").add();
      }
      send_response(*conn,
                    ErrorResponse{salvage_id(r.frame.payload),
                                  ErrorCode::BadFrame, decoded.error()});
      continue;
    }
    const std::uint32_t id = request_id(*decoded);
    // Trace id for this request: connection id + per-connection
    // sequence number. Minted on the reader thread so rejection paths
    // (BUSY, draining) carry it too; propagated into the worker via
    // ScopedTraceId so engine spans and log records inherit it.
    const std::uint32_t seq =
        conn->next_request.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::string trace =
        "c" + std::to_string(conn->id) + "-r" + std::to_string(seq);
    const std::size_t bytes_in = r.frame.payload.size() + 5;
    const auto request = std::make_shared<Request>(std::move(*decoded));
    const char* type_name = to_cstring(r.frame.type);
    Stopwatch queued;  // admission → job start = queue wait
    const bool admitted = queue_.try_submit([this, conn, request, trace,
                                             type_name, bytes_in, queued] {
      const obs::ScopedTraceId scope(trace);
      const double queue_s = queued.elapsed_seconds();
      if (telemetry_ != nullptr) {
        telemetry_->metrics
            .histogram("serve.queue.wait_seconds", queue_wait_bounds())
            .observe(queue_s);
      }
      Stopwatch served;
      Response response = service_.handle(*request);
      const double service_s = served.elapsed_seconds();
      // Logged before the write: once the client holds the reply it
      // may send its next request, which must find this line logged.
      const Frame frame = to_frame(response);
      obs::log_event(
          telemetry_, obs::LogLevel::Info, "serve.request",
          {obs::LogField::str("type", type_name),
           obs::LogField::u64("id", response_id(response)),
           obs::LogField::u64("bytes_in", bytes_in),
           obs::LogField::u64("bytes_out", wire_size(frame)),
           obs::LogField::f64("queue_s", queue_s),
           obs::LogField::f64("service_s", service_s),
           obs::LogField::str("outcome", outcome_of(response))});
      send_frame(*conn, frame);
      if (service_s > config_.slow_request_seconds) {
        obs::log_event(telemetry_, obs::LogLevel::Warn,
                       "serve.request.slow",
                       {obs::LogField::str("type", type_name),
                        obs::LogField::f64("service_s", service_s),
                        obs::LogField::f64("threshold_s",
                                           config_.slow_request_seconds)});
      }
    });
    if (!admitted) {
      const obs::ScopedTraceId scope(trace);
      const bool draining = queue_.draining();
      Response rejected =
          draining ? Response{ErrorResponse{id, ErrorCode::ShuttingDown,
                                            "server is draining"}}
                   : Response{BusyResponse{id}};
      set_response_trace(rejected, trace);
      const Frame frame = to_frame(rejected);
      obs::log_event(telemetry_, obs::LogLevel::Warn, "serve.request",
                     {obs::LogField::str("type", type_name),
                      obs::LogField::u64("id", id),
                      obs::LogField::u64("bytes_in", bytes_in),
                      obs::LogField::u64("bytes_out", wire_size(frame)),
                      obs::LogField::str("outcome",
                                         draining ? "draining" : "busy")});
      send_frame(*conn, frame);
    }
  }
  obs::log_event(telemetry_, obs::LogLevel::Info, "serve.conn.close",
                 {obs::LogField::u64("conn", conn->id)});
}

void Server::http_loop() {
  while (!stopping_.load(std::memory_order_acquire) && !stop_requested()) {
    auto accepted =
        accept_with_timeout(http_fd_.get(), kAcceptPollMs, stop_wake_fd());
    if (!accepted.has_value() || !accepted->valid()) continue;

    // Requests are tiny ("GET /metrics HTTP/1.1" + headers); read until
    // the header terminator, a small cap, or EOF, then answer and close
    // (HTTP/1.0 semantics — scrape clients reconnect per scrape).
    std::string req;
    char buf[1024];
    while (req.size() < 8192 && req.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::read(accepted->get(), buf, sizeof(buf));
      if (n <= 0) break;
      req.append(buf, static_cast<std::size_t>(n));
    }
    // Routing and rendering live in HttpEndpoint (serve/http.h) so
    // tests exercise them without sockets; this loop only does I/O.
    const HttpReply reply = http_.handle(req);
    const std::string out = HttpEndpoint::render(reply);
    (void)write_full(accepted->get(), out.data(), out.size());
  }
}

}  // namespace motsim::serve
