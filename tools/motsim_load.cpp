// motsim_load — open-loop load generator for motsim_served.
//
// Open loop means requests are sent on an absolute schedule drawn from
// an interarrival distribution (exponential or lognormal), independent
// of when responses come back — a slow server cannot push back on the
// arrival process, so the measured latencies include queueing delay
// instead of being flattened by coordinated omission.
//
// Each connection runs one sender thread (sleeps until the next
// scheduled instant, writes the frame, records the send time by
// request id) and one reader thread (matches responses by id, records
// latency). The summary computes exact nearest-rank p50/p90/p99 from
// every latency sample and is written to BENCH_serve.json.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <memory>
#include <optional>
#include <utility>

#include "obs/log.h"
#include "obs/telemetry.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "util/cli_args.h"
#include "util/net.h"
#include "util/signals.h"
#include "util/version.h"

namespace {

using Clock = std::chrono::steady_clock;
using motsim::serve::FrameType;
using motsim::serve::Request;
using motsim::serve::Response;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7227;
  double duration_s = 5.0;
  double rate = 50.0;  ///< target requests/second, all connections
  std::size_t connections = 4;
  std::string interarrival = "exp";  ///< exp | lognormal
  std::string mix = "mixed";  ///< ping|lint|fault_sim|test_eval|mixed
  std::uint64_t vectors = 24;
  std::uint64_t seed = 1;
  std::string circuits = "s27,s298,s344,s386,s510";
  std::string out = "BENCH_serve.json";
  /// HTTP observability port of the server; 0 disables the server-side
  /// counter poll (the "server" object in the summary JSON).
  std::uint16_t http_port = 0;
  std::string log_path;
  std::string log_level;
};

/// Server-side counters scraped from GET /metrics?format=json before
/// and after the run; the summary records the delta, so a long-lived
/// daemon's history does not pollute one run's numbers.
struct ServerCounters {
  bool ok = false;
  std::uint64_t ping = 0;
  std::uint64_t lint = 0;
  std::uint64_t fault_sim = 0;
  std::uint64_t test_eval = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected = 0;  ///< queue BUSY rejections
  double queue_wait_p50 = 0.0;
  double queue_wait_p90 = 0.0;
  double queue_wait_p99 = 0.0;
};

/// Minimal HTTP/1.0 GET against the server's observability port.
/// Returns the response body (everything after the header terminator).
std::optional<std::string> http_get(const std::string& host,
                                    std::uint16_t port,
                                    const std::string& target) {
  auto sock = motsim::connect_tcp(host, port);
  if (!sock.has_value()) return std::nullopt;
  const int fd = sock->get();
  const std::string request = "GET " + target +
                              " HTTP/1.0\r\nConnection: close\r\n\r\n";
  if (!motsim::write_full(fd, request.data(), request.size()).has_value()) {
    return std::nullopt;
  }
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t split = reply.find("\r\n\r\n");
  if (split == std::string::npos) return std::nullopt;
  if (reply.compare(0, 9, "HTTP/1.0 ") == 0 &&
      reply.compare(9, 3, "200") != 0) {
    return std::nullopt;
  }
  return reply.substr(split + 4);
}

/// Value of `"name": <number>` in the metrics JSON, searching from
/// `from`; 0 when absent. Good enough for the renderer's own output —
/// names are JSON-escaped, so a literal quoted-name search is exact.
double find_metric_number(const std::string& body, const std::string& name,
                          std::size_t from = 0) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t at = body.find(needle, from);
  if (at == std::string::npos) return 0.0;
  return std::atof(body.c_str() + at + needle.size());
}

/// One /metrics?format=json scrape decoded into the counters the
/// summary reports. Histogram quantiles are read from the renderer's
/// precomputed p50/p90/p99 fields.
ServerCounters scrape_server(const Options& opt) {
  ServerCounters c;
  if (opt.http_port == 0) return c;
  const std::optional<std::string> body =
      http_get(opt.host, opt.http_port, "/metrics?format=json");
  if (!body.has_value()) return c;
  c.ok = true;
  const auto u64 = [&](const char* name) {
    return static_cast<std::uint64_t>(find_metric_number(*body, name));
  };
  c.ping = u64("serve.requests.ping");
  c.lint = u64("serve.requests.lint");
  c.fault_sim = u64("serve.requests.fault_sim");
  c.test_eval = u64("serve.requests.test_eval");
  c.completed = u64("serve.requests.completed");
  c.errors = u64("serve.requests.errors");
  c.rejected = u64("serve.queue.rejected");
  const std::size_t hist = body->find("\"serve.queue.wait_seconds\"");
  if (hist != std::string::npos) {
    c.queue_wait_p50 = find_metric_number(*body, "p50", hist);
    c.queue_wait_p90 = find_metric_number(*body, "p90", hist);
    c.queue_wait_p99 = find_metric_number(*body, "p99", hist);
  }
  return c;
}

/// Shared across every connection's sender/reader pair.
struct Stats {
  std::mutex mutex;
  std::vector<double> latencies;  ///< seconds, completed requests only
  std::uint64_t completed = 0;
  std::uint64_t busy = 0;
  std::uint64_t error_frames = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t sent = 0;
};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// One connection's open-loop worker: handshake, then send on the
/// schedule while a reader thread drains responses.
void run_connection(const Options& opt, std::size_t conn_index,
                    const std::vector<std::string>& circuits,
                    Clock::time_point start, Stats* stats) {
  using namespace motsim::serve;

  auto sock = motsim::connect_tcp(opt.host, opt.port);
  if (!sock.has_value()) {
    std::lock_guard<std::mutex> lock(stats->mutex);
    ++stats->protocol_errors;
    std::fprintf(stderr, "motsim_load: connection %zu: %s\n", conn_index,
                 sock.error().c_str());
    return;
  }
  const int fd = sock->get();

  // Handshake: server speaks first, we answer.
  {
    const ReadResult hello = read_frame(fd);
    if (hello.status != ReadStatus::Ok ||
        hello.frame.type != FrameType::Hello ||
        !decode_hello(hello.frame.payload).has_value()) {
      std::lock_guard<std::mutex> lock(stats->mutex);
      ++stats->protocol_errors;
      return;
    }
    const Hello ours{kHelloMagic, kProtocolVersion,
                     motsim::build_info_string()};
    if (!write_frame(fd, FrameType::Hello, encode_hello(ours))
             .has_value()) {
      std::lock_guard<std::mutex> lock(stats->mutex);
      ++stats->protocol_errors;
      return;
    }
  }

  std::mutex inflight_mutex;
  std::map<std::uint32_t, Clock::time_point> inflight;
  std::atomic<bool> sender_done{false};

  std::thread reader([&] {
    for (;;) {
      const ReadResult r = read_frame(fd);
      if (r.status == ReadStatus::Eof) break;
      if (r.status == ReadStatus::Error) {
        // The socket is shut down under the reader once the grace
        // period ends; only count errors before that as protocol ones.
        if (!sender_done.load(std::memory_order_acquire)) {
          std::lock_guard<std::mutex> lock(stats->mutex);
          ++stats->protocol_errors;
        }
        break;
      }
      const auto decoded = decode_response(r.frame.type, r.frame.payload);
      if (!decoded.has_value()) {
        std::lock_guard<std::mutex> lock(stats->mutex);
        ++stats->protocol_errors;
        continue;
      }
      const Clock::time_point now = Clock::now();
      const std::uint32_t id = response_id(*decoded);
      double latency = -1.0;
      {
        std::lock_guard<std::mutex> lock(inflight_mutex);
        const auto it = inflight.find(id);
        if (it != inflight.end()) {
          latency = std::chrono::duration<double>(now - it->second).count();
          inflight.erase(it);
        }
      }
      std::lock_guard<std::mutex> lock(stats->mutex);
      if (std::holds_alternative<BusyResponse>(*decoded)) {
        ++stats->busy;
      } else if (std::holds_alternative<ErrorResponse>(*decoded)) {
        ++stats->error_frames;
      } else {
        ++stats->completed;
        if (latency >= 0.0) stats->latencies.push_back(latency);
      }
    }
  });

  // Per-connection open-loop schedule at rate/connections. The next
  // send instant is accumulated in absolute time — a late wakeup makes
  // the next sleep shorter, it never stretches the schedule.
  std::mt19937_64 rng(opt.seed * 6364136223846793005ULL + conn_index);
  const double conn_rate =
      opt.rate / static_cast<double>(opt.connections > 0 ? opt.connections
                                                         : 1);
  const double mean_gap = conn_rate > 0 ? 1.0 / conn_rate : 0.02;
  std::exponential_distribution<double> exp_gap(conn_rate);
  // Lognormal with the same mean: mu = ln(mean) - sigma^2 / 2.
  const double sigma = 0.5;
  std::lognormal_distribution<double> logn_gap(
      std::log(mean_gap) - sigma * sigma / 2.0, sigma);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.duration_s));
  Clock::time_point next = start;
  std::uint32_t next_id = 1;

  while (!motsim::stop_requested()) {
    const double gap =
        opt.interarrival == "lognormal" ? logn_gap(rng) : exp_gap(rng);
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap));
    if (next >= deadline) break;
    std::this_thread::sleep_until(next);

    const std::string& circuit =
        circuits[(next_id + conn_index) % circuits.size()];
    CircuitRef ref{CircuitRef::Kind::Roster, circuit};
    const std::uint32_t id = next_id++;
    Request req;
    double pick = uniform(rng);
    if (opt.mix == "ping") {
      pick = -1.0;
    } else if (opt.mix == "lint") {
      pick = 0.3;
    } else if (opt.mix == "fault_sim") {
      pick = 0.6;
    } else if (opt.mix == "test_eval") {
      pick = 0.95;
    }
    if (pick < 0.15) {
      req = PingRequest{id};
    } else if (pick < 0.40) {
      req = LintRequest{id, ref};
    } else if (pick < 0.90) {
      FaultSimRequest fs;
      fs.id = id;
      fs.circuit = ref;
      fs.vectors = opt.vectors;
      fs.options.seed = opt.seed + id;
      req = std::move(fs);
    } else {
      TestEvalRequest te;
      te.id = id;
      // TEST_EVAL responses must be vectors * output_count values long;
      // s27 has exactly one output, so the client can build a
      // well-formed all-zero tester trace without knowing the roster
      // interfaces.
      te.circuit = CircuitRef{CircuitRef::Kind::Roster, "s27"};
      te.vectors = std::min<std::uint64_t>(opt.vectors, 8);
      te.seed = opt.seed + id;
      te.responses.emplace_back(static_cast<std::size_t>(te.vectors),
                                std::uint8_t{0});
      req = std::move(te);
    }

    {
      std::lock_guard<std::mutex> lock(inflight_mutex);
      inflight[id] = Clock::now();
    }
    const auto wrote =
        write_frame(fd, frame_type_of(req), encode_request(req));
    {
      std::lock_guard<std::mutex> lock(stats->mutex);
      ++stats->sent;
    }
    if (!wrote.has_value()) {
      std::lock_guard<std::mutex> lock(stats->mutex);
      ++stats->protocol_errors;
      break;
    }
  }

  // Grace period: let outstanding responses drain, then hang up.
  const Clock::time_point grace = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(inflight_mutex);
      if (inflight.empty()) break;
    }
    if (Clock::now() >= grace || motsim::stop_requested()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  sender_done.store(true, std::memory_order_release);
  ::shutdown(fd, SHUT_RDWR);
  reader.join();
}

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: motsim_load [options]\n"
      "\n"
      "  --host HOST          server address (default 127.0.0.1)\n"
      "  --port N             server protocol port (default 7227)\n"
      "  --duration S         seconds to generate load (default 5)\n"
      "  --rate R             target req/s across all connections "
      "(default 50)\n"
      "  --connections N      parallel connections (default 4)\n"
      "  --interarrival D     exp | lognormal (default exp)\n"
      "  --mix M              ping|lint|fault_sim|test_eval|mixed "
      "(default mixed)\n"
      "  --vectors N          fault-sim sequence length (default 24)\n"
      "  --circuits LIST      comma-separated roster names\n"
      "  --seed N             RNG seed (default 1)\n"
      "  --out FILE           summary JSON (default BENCH_serve.json)\n"
      "  --http-port N        server /metrics port: poll server-side\n"
      "                       counters into the summary (0 = off)\n"
      "  --log PATH           structured JSONL log ('-' = stderr; also "
      "MOTSIM_LOG)\n"
      "  --log-level LVL      trace|debug|info|warn|error|off (default "
      "info)\n"
      "  --version            print version and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "motsim_load: %s expects a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--version") {
      std::printf("%s\n", motsim::build_info_string());
      return 0;
    } else if (arg == "--host") {
      opt.host = value("--host");
    } else if (arg == "--port") {
      const auto parsed = motsim::parse_cli_u64("--port", value("--port"));
      if (!parsed.has_value() || *parsed > 65535) {
        std::fprintf(stderr, "motsim_load: --port expects a port\n");
        return 2;
      }
      opt.port = static_cast<std::uint16_t>(*parsed);
    } else if (arg == "--duration") {
      opt.duration_s = std::atof(value("--duration"));
      if (opt.duration_s <= 0) {
        std::fprintf(stderr, "motsim_load: --duration must be positive\n");
        return 2;
      }
    } else if (arg == "--rate") {
      opt.rate = std::atof(value("--rate"));
      if (opt.rate <= 0) {
        std::fprintf(stderr, "motsim_load: --rate must be positive\n");
        return 2;
      }
    } else if (arg == "--connections") {
      const auto parsed =
          motsim::parse_cli_size("--connections", value("--connections"));
      if (!parsed.has_value() || *parsed == 0) {
        std::fprintf(stderr,
                     "motsim_load: --connections expects a positive "
                     "integer\n");
        return 2;
      }
      opt.connections = *parsed;
    } else if (arg == "--interarrival") {
      opt.interarrival = value("--interarrival");
      if (opt.interarrival != "exp" && opt.interarrival != "lognormal") {
        std::fprintf(stderr,
                     "motsim_load: --interarrival must be exp or "
                     "lognormal\n");
        return 2;
      }
    } else if (arg == "--mix") {
      opt.mix = value("--mix");
    } else if (arg == "--vectors") {
      const auto parsed =
          motsim::parse_cli_u64("--vectors", value("--vectors"));
      if (!parsed.has_value() || *parsed == 0) {
        std::fprintf(stderr,
                     "motsim_load: --vectors expects a positive integer\n");
        return 2;
      }
      opt.vectors = *parsed;
    } else if (arg == "--circuits") {
      opt.circuits = value("--circuits");
    } else if (arg == "--seed") {
      const auto parsed = motsim::parse_cli_u64("--seed", value("--seed"));
      if (!parsed.has_value()) {
        std::fprintf(stderr, "motsim_load: %s\n", parsed.error().c_str());
        return 2;
      }
      opt.seed = *parsed;
    } else if (arg == "--out") {
      opt.out = value("--out");
    } else if (arg == "--http-port") {
      const auto parsed =
          motsim::parse_cli_u64("--http-port", value("--http-port"));
      if (!parsed.has_value() || *parsed > 65535) {
        std::fprintf(stderr, "motsim_load: --http-port expects a port\n");
        return 2;
      }
      opt.http_port = static_cast<std::uint16_t>(*parsed);
    } else if (arg == "--log") {
      opt.log_path = value("--log");
    } else if (arg == "--log-level") {
      opt.log_level = value("--log-level");
    } else {
      std::fprintf(stderr, "motsim_load: unknown option '%s'\n",
                   arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }

  const std::vector<std::string> circuits = split_csv(opt.circuits);
  if (circuits.empty()) {
    std::fprintf(stderr, "motsim_load: --circuits must name a circuit\n");
    return 2;
  }

  motsim::ignore_sigpipe();
  motsim::install_stop_handlers();

  // Logging surface shared with the other tools; the load generator's
  // own events are load.* records.
  const char* const env_log = std::getenv("MOTSIM_LOG");
  std::optional<motsim::obs::Telemetry> telemetry;
  std::unique_ptr<motsim::obs::Logger> logger;
  if (!opt.log_path.empty() ||
      (env_log != nullptr && env_log[0] != '\0')) {
    auto opened = motsim::obs::open_logger_from(opt.log_path, opt.log_level);
    if (!opened.has_value()) {
      std::fprintf(stderr, "motsim_load: %s\n", opened.error().c_str());
      return 2;
    }
    telemetry.emplace();
    logger = std::move(*opened);
    telemetry->attach_logger(logger.get());
  }
  motsim::obs::Telemetry* const tele =
      telemetry.has_value() ? &*telemetry : nullptr;

  const ServerCounters before = scrape_server(opt);
  if (opt.http_port != 0 && !before.ok) {
    std::fprintf(stderr,
                 "motsim_load: warning: could not scrape "
                 "http://%s:%u/metrics — no server counters recorded\n",
                 opt.host.c_str(), opt.http_port);
  }
  motsim::obs::log_event(tele, motsim::obs::LogLevel::Info, "load.start",
                         {motsim::obs::LogField::str("mix", opt.mix),
                          motsim::obs::LogField::f64("rate", opt.rate),
                          motsim::obs::LogField::u64("connections",
                                                     opt.connections)});

  Stats stats;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(opt.connections);
  for (std::size_t c = 0; c < opt.connections; ++c) {
    workers.emplace_back(
        [&, c] { run_connection(opt, c, circuits, start, &stats); });
  }
  for (auto& w : workers) w.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  const ServerCounters after = scrape_server(opt);
  motsim::obs::log_event(tele, motsim::obs::LogLevel::Info, "load.done",
                         {motsim::obs::LogField::u64("sent", stats.sent),
                          motsim::obs::LogField::u64("completed",
                                                     stats.completed),
                          motsim::obs::LogField::f64("wall_s", wall)});

  // Exact nearest-rank percentiles over every sample: the smallest
  // latency with at least q of the samples at or below it, so
  // p50 <= p90 <= p99 <= max always holds.
  std::vector<double>& sorted = stats.latencies;  // every thread joined
  std::sort(sorted.begin(), sorted.end());
  auto nearest_rank = [&sorted](double q) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
  };
  const double p50 = nearest_rank(0.50);
  const double p90 = nearest_rank(0.90);
  const double p99 = nearest_rank(0.99);
  const double max_latency = sorted.empty() ? 0.0 : sorted.back();
  double sum_latency = 0.0;
  for (const double l : sorted) sum_latency += l;
  const double mean = stats.latencies.empty()
                          ? 0.0
                          : sum_latency /
                                static_cast<double>(stats.latencies.size());
  const double sustained =
      wall > 0 ? static_cast<double>(stats.completed) / wall : 0.0;

  std::printf(
      "motsim_load: sent %llu, completed %llu, busy %llu, errors %llu, "
      "protocol errors %llu\n",
      static_cast<unsigned long long>(stats.sent),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.busy),
      static_cast<unsigned long long>(stats.error_frames),
      static_cast<unsigned long long>(stats.protocol_errors));
  std::printf("motsim_load: %.1f req/s sustained over %.2f s\n", sustained,
              wall);
  std::printf("motsim_load: latency p50 %.6f s  p90 %.6f s  p99 %.6f s  "
              "max %.6f s\n",
              p50, p90, p99, max_latency);

  std::FILE* out = std::fopen(opt.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "motsim_load: cannot write %s\n",
                 opt.out.c_str());
    return 1;
  }
  std::fprintf(
      out,
      "{\"tool\": \"motsim_load\", \"version\": \"%s\", "
      "\"interarrival\": \"%s\", \"mix\": \"%s\", "
      "\"target_rate\": %.3f, \"duration_s\": %.3f, \"wall_s\": %.3f, "
      "\"connections\": %zu, "
      "\"sent\": %llu, \"completed\": %llu, \"busy\": %llu, "
      "\"errors\": %llu, \"protocol_errors\": %llu, "
      "\"sustained_rps\": %.3f, "
      "\"latency_s\": {\"mean\": %.6f, \"p50\": %.6f, \"p90\": %.6f, "
      "\"p99\": %.6f, \"max\": %.6f}",
      motsim::version_string(), opt.interarrival.c_str(),
      opt.mix.c_str(), opt.rate, opt.duration_s, wall, opt.connections,
      static_cast<unsigned long long>(stats.sent),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.busy),
      static_cast<unsigned long long>(stats.error_frames),
      static_cast<unsigned long long>(stats.protocol_errors), sustained,
      mean, p50, p90, p99, max_latency);
  if (before.ok && after.ok) {
    // Server-side view of the same run: request counters are deltas
    // across the run; the queue-wait quantiles are the daemon's
    // lifetime histogram (buckets only accumulate, so a dedicated
    // bench run reads as its own distribution).
    const auto delta = [](std::uint64_t b, std::uint64_t a) {
      return static_cast<unsigned long long>(a >= b ? a - b : 0);
    };
    std::fprintf(
        out,
        ", \"server\": {\"requests\": {\"ping\": %llu, \"lint\": %llu, "
        "\"fault_sim\": %llu, \"test_eval\": %llu, \"completed\": %llu, "
        "\"errors\": %llu}, \"busy_rejected\": %llu, "
        "\"queue_wait_s\": {\"p50\": %.6f, \"p90\": %.6f, \"p99\": "
        "%.6f}}",
        delta(before.ping, after.ping), delta(before.lint, after.lint),
        delta(before.fault_sim, after.fault_sim),
        delta(before.test_eval, after.test_eval),
        delta(before.completed, after.completed),
        delta(before.errors, after.errors),
        delta(before.rejected, after.rejected), after.queue_wait_p50,
        after.queue_wait_p90, after.queue_wait_p99);
  }
  std::fprintf(out, "}\n");
  std::fclose(out);

  // A run that completed nothing (server down, all rejected) is a
  // failure for CI even though the file was written.
  return stats.completed > 0 && stats.protocol_errors == 0 ? 0 : 1;
}
