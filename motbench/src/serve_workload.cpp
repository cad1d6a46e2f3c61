// serve workload: a closed loop of two client connections against an
// in-process serve::Server on loopback whose single queue worker makes
// requests wait, driven by a fixed, seeded request script. The traced
// variant adds a telemetry-attached server (whose access log yields
// every request's queue wait) and replays the script straight through
// Service::handle to time execution without socket and queue.

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <variant>

#include "analysis/lint.h"
#include "bench.h"
#include "bench_data/registry.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "obs/telemetry.h"
#include "serve/framing.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim3/sim2.h"
#include "tpg/sequences.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace motbench {

namespace sv = motsim::serve;
using motsim::FaultStatus;
using motsim::Strategy;

namespace {

/// One scripted request plus what the answer check needs.
struct Item {
  sv::Request request;
  std::string name;
  /// fault_sim without the store: the front-door answer it must equal.
  std::optional<motsim::PipelineResult> reference;
  /// test_eval: indices of fault-free responses (must come back Pass).
  std::vector<std::size_t> good_responses;
  /// lint: expected (errors, warnings, notes).
  std::array<std::uint32_t, 3> lint_counts{};
};

/// Requests sent back to back on one connection (a use_store pair is
/// one unit: its second request must find the first one's campaign).
using Unit = std::vector<std::size_t>;

struct Script {
  std::vector<Item> items;
  std::array<std::vector<Unit>, 2> clients;
};

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::Sot: return "sot";
    case Strategy::Rmot: return "rmot";
    case Strategy::Mot: return "mot";
  }
  return "?";
}

sv::CircuitRef roster(const std::string& name) {
  return sv::CircuitRef{sv::CircuitRef::Kind::Roster, name};
}

/// Untraced seconds of one pass on the reference machine (4-core x86-64
/// container, Release build); sizes the number of passes.
constexpr double kNominalPassSeconds = 0.65;

const char* const kLintCircuits[] = {"s27", "s344", "s838.1", "s953"};

/// The requests of pass k: fault-sim, test-eval and store requests on
/// the pass's input seed, two lint requests, in a seeded order split
/// between the two clients.
Script make_script(std::uint64_t run_seed, std::size_t k, Size size) {
  const bool smoke = size == Size::Smoke;
  const std::uint64_t seed = input_seed(run_seed, k);
  const std::string tag = "/seed" + std::to_string(seed);
  Script script;
  std::vector<Unit> units;
  auto add = [&](sv::Request r, std::string name) {
    const auto id = static_cast<std::uint32_t>(script.items.size() + 1);
    std::visit([id](auto& m) { m.id = id; }, r);
    Item item;
    item.request = std::move(r);
    item.name = std::move(name) + tag;
    script.items.push_back(std::move(item));
    return script.items.size() - 1;
  };
  auto fault_sim = [&](const std::string& c, Strategy s, std::size_t threads,
                       bool store) {
    sv::FaultSimRequest r;
    r.circuit = roster(c);
    r.vectors = smoke ? 4 : 32;
    r.use_store = store;
    r.options.strategy = s;
    r.options.threads = threads;
    r.options.seed = seed;
    return sv::Request{r};
  };
  for (const char* c : {"s27", "s208.1", "s298", "s344", "s386", "s510"}) {
    for (const Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
      units.push_back({add(fault_sim(c, s, 1, false),
                           std::string("fault_sim/") + c + "/" +
                               strategy_name(s))});
    }
  }
  // Fault-sharded ParallelSymSim: these circuits keep more than one
  // 64-fault shard live after the X01 stage.
  for (const char* c : {"s298", "s510"}) {
    units.push_back({add(fault_sim(c, Strategy::Mot, 2, false),
                         std::string("fault_sim/") + c + "/mot/threads2")});
  }
  for (const auto& [c, s] : {std::pair{"s27", Strategy::Rmot},
                             std::pair{"s386", Strategy::Mot}}) {
    const std::string base =
        std::string("fault_sim/") + c + "/" + strategy_name(s) + "/store";
    const std::size_t a = add(fault_sim(c, s, 1, true), base + "/write");
    const std::size_t b = add(fault_sim(c, s, 1, true), base + "/read");
    units.push_back({a, b});
  }
  motsim::Rng rng(seed ^ 0x5e12'7e57'0000'0001ull);
  for (const char* c : {"s27", "s298", "s510"}) {
    const motsim::Netlist nl = motsim::make_benchmark(c);
    sv::TestEvalRequest r;
    r.circuit = roster(c);
    r.vectors = smoke ? 4 : 16;
    r.seed = seed;
    motsim::Rng seq_rng(r.seed);
    const auto bool_seq = motsim::to_bool_sequence(motsim::random_sequence(
        nl, static_cast<std::size_t>(r.vectors), seq_rng));
    std::vector<std::size_t> good;
    for (int j = 0; j < 8; ++j) {
      // Fault-free response from a random power-up state; odd j flip
      // one output bit of it.
      std::vector<bool> init(nl.dff_count());
      for (std::size_t b = 0; b < init.size(); ++b) init[b] = rng() & 1u;
      motsim::Sim2 sim(nl);
      std::vector<std::uint8_t> flat;
      for (const auto& frame : sim.run(init, bool_seq)) {
        for (const bool v : frame) flat.push_back(v ? 1 : 0);
      }
      if (j % 2 == 1 && !flat.empty()) {
        flat[rng() % flat.size()] ^= 1u;
      } else {
        good.push_back(r.responses.size());
      }
      r.responses.push_back(std::move(flat));
    }
    const std::size_t i = add(sv::Request{r}, std::string("test_eval/") + c);
    script.items[i].good_responses = good;
    units.push_back({i});
  }
  for (const std::size_t j : {2 * k % 4, (2 * k + 1) % 4}) {
    sv::LintRequest r;
    r.circuit = roster(kLintCircuits[j]);
    units.push_back(
        {add(sv::Request{r}, std::string("lint/") + kLintCircuits[j])});
  }
  for (std::size_t i = units.size(); i > 1; --i) {
    std::swap(units[i - 1], units[rng() % i]);
  }
  for (std::size_t u = 0; u < units.size(); ++u) {
    script.clients[u % 2].push_back(units[u]);
  }
  return script;
}

/// Computes every item's reference answer through the library's own
/// front doors (run_pipeline, run_lint), outside the timed loop.
void compute_references(Script& script) {
  for (Item& item : script.items) {
    if (auto* fs = std::get_if<sv::FaultSimRequest>(&item.request)) {
      if (fs->use_store) continue;
      const motsim::Netlist nl = motsim::make_benchmark(fs->circuit.text);
      const motsim::CollapsedFaultList faults(nl);
      motsim::Rng rng(fs->options.seed);
      const motsim::TestSequence seq = motsim::random_sequence(
          nl, static_cast<std::size_t>(fs->vectors), rng);
      item.reference =
          motsim::run_pipeline(nl, faults.faults(), seq, fs->options);
    } else if (auto* lr = std::get_if<sv::LintRequest>(&item.request)) {
      const motsim::DiagnosticReport rep =
          motsim::run_lint(motsim::make_benchmark(lr->circuit.text));
      item.lint_counts = {
          static_cast<std::uint32_t>(rep.count(motsim::Severity::Error)),
          static_cast<std::uint32_t>(rep.count(motsim::Severity::Warning)),
          static_cast<std::uint32_t>(rep.count(motsim::Severity::Note))};
    }
  }
}

std::vector<FaultStatus> statuses(const std::vector<std::uint8_t>& raw) {
  std::vector<FaultStatus> out;
  out.reserve(raw.size());
  for (const std::uint8_t b : raw) out.push_back(static_cast<FaultStatus>(b));
  return out;
}

/// Checks one response against its item; returns its digest, or an
/// error description.
std::variant<Digest, std::string> check(const Item& item,
                                        const sv::Response& resp) {
  if (const auto* e = std::get_if<sv::ErrorResponse>(&resp)) {
    return "ERROR " + std::string(sv::to_cstring(e->code)) + ": " + e->message;
  }
  if (std::holds_alternative<sv::BusyResponse>(resp)) return "BUSY";
  if (sv::response_id(resp) != sv::request_id(item.request)) {
    return "response id does not match the request";
  }
  Digest d;
  if (const auto* fs = std::get_if<sv::FaultSimResponse>(&resp)) {
    const std::vector<FaultStatus> st = statuses(fs->status);
    if (st.size() != fs->detect_frame.size()) return "ragged fault_sim answer";
    d.x01 = digest_status_subset(st, fs->detect_frame,
                                 FaultStatus::DetectedSim3);
    d.final = digest_verdicts(st, fs->detect_frame);
    d.x_redundant = fs->x_redundant;
    d.detected_3v = fs->detected_3v;
    d.detected_symbolic = fs->detected_symbolic;
    d.used_fallback = fs->used_fallback;
    const auto& req = std::get<sv::FaultSimRequest>(item.request);
    if (req.use_store != fs->from_store) return "from_store flag is wrong";
    if (item.reference) {
      const motsim::PipelineResult& ref = *item.reference;
      if (st != ref.status || fs->detect_frame != ref.detect_frame) {
        return "verdicts differ from run_pipeline";
      }
    }
    return d;
  }
  if (const auto* te = std::get_if<sv::TestEvalResponse>(&resp)) {
    const auto& req = std::get<sv::TestEvalRequest>(item.request);
    if (te->verdicts.size() != req.responses.size()) {
      return "test_eval verdict count differs";
    }
    for (const std::size_t g : item.good_responses) {
      if (te->verdicts[g] != 0) return "fault-free response judged Faulty";
    }
    d.final = digest_bytes(std::string(te->verdicts.begin(),
                                       te->verdicts.end()));
    return d;
  }
  if (const auto* lr = std::get_if<sv::LintResponse>(&resp)) {
    if (std::array<std::uint32_t, 3>{lr->errors, lr->warnings, lr->notes} !=
        item.lint_counts) {
      return "lint counts differ from run_lint";
    }
    d.final = digest_bytes(lr->json);
    return d;
  }
  return "unexpected response type";
}

/// One connection past the HELLO handshake.
motsim::OwnedFd connect_client(std::uint16_t port) {
  auto sock = motsim::connect_tcp("127.0.0.1", port);
  if (!sock.has_value()) throw std::runtime_error(sock.error());
  const sv::ReadResult hello = sv::read_frame(sock->get());
  if (hello.status != sv::ReadStatus::Ok ||
      hello.frame.type != sv::FrameType::Hello) {
    throw std::runtime_error("no HELLO from the server");
  }
  const sv::Hello ours{sv::kHelloMagic, sv::kProtocolVersion, "motbench"};
  if (!sv::write_frame(sock->get(), sv::FrameType::Hello, sv::encode_hello(ours))
           .has_value()) {
    throw std::runtime_error("cannot send HELLO");
  }
  return std::move(*sock);
}

sv::Response call(int fd, const sv::Request& req) {
  if (!sv::write_frame(fd, sv::frame_type_of(req), sv::encode_request(req))
           .has_value()) {
    return sv::ErrorResponse{0, sv::ErrorCode::Internal, "send failed"};
  }
  const sv::ReadResult r = sv::read_frame(fd);
  if (r.status != sv::ReadStatus::Ok) {
    return sv::ErrorResponse{0, sv::ErrorCode::Internal, "no response"};
  }
  auto resp = sv::decode_response(r.frame.type, r.frame.payload);
  if (!resp.has_value()) {
    return sv::ErrorResponse{0, sv::ErrorCode::BadFrame, resp.error()};
  }
  return std::move(*resp);
}

/// A started server with its two connected clients.
struct LiveServer {
  std::unique_ptr<sv::Server> server;
  std::array<motsim::OwnedFd, 2> fds;
  std::string store_root;
};

sv::ServerConfig server_config(const std::string& store_root) {
  sv::ServerConfig c;
  c.threads = 1;  // fewer queue workers than connections: requests queue
  c.queue_capacity = 4;
  c.cache_capacity = 32;
  c.store_root = store_root;
  c.dump_path.clear();
  return c;
}

LiveServer start_server(const std::string& store_root,
                     motsim::obs::Telemetry* tel) {
  LiveServer s;
  s.store_root = store_root;
  std::filesystem::remove_all(store_root);
  std::filesystem::create_directories(store_root);
  s.server = std::make_unique<sv::Server>(server_config(store_root), tel);
  const auto started = s.server->start();
  if (!started.has_value()) throw std::runtime_error(started.error());
  for (auto& fd : s.fds) fd = connect_client(s.server->port());
  return s;
}

/// Server start to a completed handshake: HELLO both ways, then a PING
/// answered (proof the server accepted the client's HELLO).
double measure_setup(const std::string& store_root) {
  motsim::Stopwatch t;
  sv::Server server(server_config(store_root), nullptr);
  const auto started = server.start();
  if (!started.has_value()) throw std::runtime_error(started.error());
  motsim::OwnedFd fd = connect_client(server.port());
  const sv::Response pong = call(fd.get(), sv::Request{sv::PingRequest{1}});
  if (!std::holds_alternative<sv::PongResponse>(pong)) {
    throw std::runtime_error("set-up PING was not answered");
  }
  const double s = t.elapsed_seconds();
  // Wake both accept loops so the shutdown does not wait out their
  // poll timeouts.
  server.request_shutdown();
  (void)motsim::connect_tcp("127.0.0.1", server.port());
  (void)motsim::connect_tcp("127.0.0.1", server.http_port());
  fd.reset();
  server.shutdown();
  return s;
}

struct SocketPass {
  double seconds = 0;
  std::vector<double> latency;                       ///< by item
  std::vector<std::optional<sv::Response>> answers;  ///< by item
};

/// Runs the script once: each client thread sends its units in order,
/// one request in flight per connection.
SocketPass socket_pass(LiveServer& s, const Script& script) {
  std::filesystem::remove_all(s.store_root);
  std::filesystem::create_directories(s.store_root);
  SocketPass pass;
  pass.answers.resize(script.items.size());
  pass.latency.resize(script.items.size());
  motsim::Stopwatch wall;
  std::array<std::thread, 2> threads;
  for (std::size_t c = 0; c < 2; ++c) {
    threads[c] = std::thread([&, c] {
      for (const Unit& unit : script.clients[c]) {
        for (const std::size_t i : unit) {
          motsim::Stopwatch t;
          pass.answers[i] = call(s.fds[c].get(), script.items[i].request);
          pass.latency[i] = t.elapsed_seconds();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  pass.seconds = wall.elapsed_seconds();
  return pass;
}

/// Checks every answer of a pass against cells first_cell...: the first
/// pass over a script fixes each cell's digest, a traced pass over the
/// same script must reproduce it.
void check_pass(const Script& script, const SocketPass& pass,
                std::size_t first_cell, Report& report) {
  for (std::size_t i = 0; i < script.items.size(); ++i) {
    CellReport& cr = report.cells[first_cell + i];
    ++cr.runs;
    if (!pass.answers[i]) {
      report.fail(cr, "no answer");
      continue;
    }
    const auto checked = check(script.items[i], *pass.answers[i]);
    if (const auto* why = std::get_if<std::string>(&checked)) {
      report.fail(cr, *why);
      continue;
    }
    const Digest& d = std::get<Digest>(checked);
    if (!cr.has_digest) {
      cr.digest = d;
      cr.has_digest = true;
    } else if (!(d == cr.digest)) {
      report.fail(cr, "traced answer differs from the untraced one");
    }
  }
  // A store read must return exactly what its write computed.
  for (std::size_t i = 0; i + 1 < script.items.size(); ++i) {
    const CellReport& write = report.cells[first_cell + i];
    CellReport& read = report.cells[first_cell + i + 1];
    if (write.name.find("/store/write") != std::string::npos &&
        write.has_digest && read.has_digest &&
        !(write.digest == read.digest)) {
      report.fail(read, "store read differs from its write");
    }
  }
}

std::uint64_t pass_detected(const SocketPass& pass) {
  std::uint64_t n = 0;
  for (const auto& a : pass.answers) {
    if (!a) continue;
    if (const auto* fs = std::get_if<sv::FaultSimResponse>(&*a)) {
      for (const std::uint8_t s : fs->status) {
        n += motsim::is_detected(static_cast<FaultStatus>(s));
      }
    }
  }
  return n;
}

/// Every `"key":<number>` value of `key` in the serve.request records
/// of a JSONL access log.
std::vector<double> log_values(const std::string& path, const std::string& key) {
  std::vector<double> out;
  std::ifstream in(path);
  std::string line;
  const std::string needle = "\"" + key + "\":";
  while (std::getline(in, line)) {
    if (line.find("\"serve.request\"") == std::string::npos) continue;
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) continue;
    out.push_back(std::strtod(line.c_str() + at + needle.size(), nullptr));
  }
  return out;
}

/// The traced part of pass k: the same script through the server with
/// telemetry and an access log attached, then straight through
/// Service::handle (one span per request) to time execution without
/// socket and queue. Returns the pass's per-layer values.
std::map<std::string, double> traced_serve_pass(
    const Script& script, const SocketPass& untraced, std::size_t first,
    LiveServer& traced, motsim::obs::Telemetry& server_tel, std::size_t k,
    const std::string& work_dir, SpanRecorder& spans, Report& report) {
  std::map<std::string, double> L;
  const motsim::obs::MetricsSnapshot before = server_tel.metrics.snapshot();
  const SocketPass tp = socket_pass(traced, script);
  check_pass(script, tp, first, report);
  const motsim::obs::MetricsSnapshot after = server_tel.metrics.snapshot();
  L["store.checkpoint_writes"] = counter(after, "store.checkpoint_writes") -
                                 counter(before, "store.checkpoint_writes");
  L["store.checkpoint_bytes"] = counter(after, "store.checkpoint_bytes") -
                                counter(before, "store.checkpoint_bytes");
  L["serve.busy_rejected"] = counter(after, "serve.queue.rejected") -
                             counter(before, "serve.queue.rejected");
  L["trace.overhead_frac"] = (tp.seconds - untraced.seconds) / untraced.seconds;
  for (std::size_t i = 0; i < script.items.size(); ++i) {
    const auto* fs = std::get_if<sv::FaultSimRequest>(&script.items[i].request);
    if (fs == nullptr || !tp.answers[i]) continue;
    const auto* r = std::get_if<sv::FaultSimResponse>(&*tp.answers[i]);
    if (r == nullptr) continue;
    L["store.from_store"] += r->from_store;
    if (fs->use_store) continue;
    // Default options run no static analysis, so every fault the X01
    // stage left enters the symbolic stage.
    L["symbolic.live_faults"] += static_cast<double>(std::count_if(
        r->status.begin(), r->status.end(), [](std::uint8_t s) {
          return static_cast<FaultStatus>(s) != FaultStatus::DetectedSim3;
        }));
  }

  motsim::obs::Telemetry tel;
  const std::string replay_root = work_dir + "/store-replay";
  std::filesystem::remove_all(replay_root);
  std::filesystem::create_directories(replay_root);
  sv::Service service(32, replay_root, &tel);
  std::vector<double> exec;
  const int root = spans.open("replay", "serve/pass" + std::to_string(k));
  double handled = 0;
  for (const auto& units : script.clients) {
    for (const Unit& unit : units) {
      for (const std::size_t i : unit) {
        const int id = spans.open("serve.handle", script.items[i].name, root);
        const sv::Response resp = service.handle(script.items[i].request);
        const double s = spans.close(id);
        exec.push_back(s);
        handled += s;
        CellReport& cr = report.cells[first + i];
        const auto checked = check(script.items[i], resp);
        if (const auto* why = std::get_if<std::string>(&checked)) {
          report.fail(cr, "replay: " + *why);
        } else if (cr.has_digest && !(std::get<Digest>(checked) == cr.digest)) {
          report.fail(cr, "replay answer differs from the socket answer");
        }
      }
    }
  }
  const double replay_s = spans.close(root);
  L["serve.exec_p50_s"] = nearest_rank(exec, 0.5);
  L["serve.exec_p90_s"] = nearest_rank(exec, 0.9);
  L["trace.unattributed_frac"] = (replay_s - handled) / replay_s;
  // Stage times come from the pipeline's own stage gauges here: the
  // service calls run_pipeline, not the layers one by one.
  const motsim::obs::MetricsSnapshot snap = tel.metrics.snapshot();
  L["xred.busy_s"] = gauge(snap, "pipeline.xred_seconds");
  L["sim3.busy_s"] = gauge(snap, "pipeline.sim3_seconds");
  L["symbolic.busy_s"] = gauge(snap, "pipeline.symbolic_seconds");
  add_engine_layers(snap, L);
  return L;
}

}  // namespace

Report run_serve_workload(const RunArgs& args) {
  Report report;
  report.args = args;
  const int setup_reps = args.size == Size::Smoke ? 1 : 15;
  for (int k = 0; k < setup_reps; ++k) {
    report.setup_s.push_back(measure_setup(args.work_dir + "/setup-store"));
  }

  LiveServer plain = start_server(args.work_dir + "/store", nullptr);
  motsim::obs::Telemetry server_tel;
  std::unique_ptr<motsim::obs::Logger> logger;
  LiveServer traced;
  const std::string log_path = args.work_dir + "/serve-access.jsonl";
  if (args.trace) {
    std::filesystem::remove(log_path);
    auto opened =
        motsim::obs::Logger::open(log_path, motsim::obs::LogLevel::Info);
    if (!opened.has_value()) throw std::runtime_error(opened.error());
    logger = std::move(*opened);
    server_tel.attach_logger(logger.get());
    traced = start_server(args.work_dir + "/store-traced", &server_tel);
  }
  // Warm-up: one lint request per circuit fills both circuit caches; it
  // is checked but not timed.
  {
    Script warm;
    std::size_t u = 0;
    for (const char* c : {"s27", "s208.1", "s298", "s344", "s386", "s510",
                          "s838.1", "s953"}) {
      sv::LintRequest r;
      r.id = static_cast<std::uint32_t>(warm.items.size() + 1);
      r.circuit = roster(c);
      Item item;
      item.request = r;
      item.name = std::string("warmup/lint/") + c;
      warm.items.push_back(std::move(item));
      warm.clients[u++ % 2].push_back({warm.items.size() - 1});
    }
    compute_references(warm);
    for (LiveServer* s : {&plain, &traced}) {
      if (!s->server) continue;
      const std::size_t first = report.cells.size();
      for (const Item& item : warm.items) {
        CellReport cr;
        cr.name = item.name;
        report.cells.push_back(std::move(cr));
      }
      check_pass(warm, socket_pass(*s, warm), first, report);
    }
  }

  // A traced pass also makes an untraced pass and a direct replay.
  const std::size_t passes = pass_count(args, kNominalPassSeconds *
                                                  (args.trace ? 3 : 1));
  SpanRecorder spans;
  std::map<std::string, std::vector<double>> layer_samples;
  for (std::size_t k = 0; k < passes; ++k) {
    Script script = make_script(args.seed, k, args.size);
    if (k == 0) compute_references(script);
    const std::size_t first = report.cells.size();
    for (const Item& item : script.items) {
      CellReport cr;
      cr.name = item.name;
      if (const auto* fs = std::get_if<sv::FaultSimRequest>(&item.request)) {
        cr.strategy = strategy_name(fs->options.strategy);
        report.defaults["vectors"] = std::to_string(fs->vectors);
      }
      report.cells.push_back(std::move(cr));
    }
    reset_peak_rss();
    const SocketPass pass = socket_pass(plain, script);
    report.rss_mb.push_back(peak_rss_mb());
    check_pass(script, pass, first, report);
    report.pass_s.push_back(pass.seconds);
    report.latency_s.insert(report.latency_s.end(), pass.latency.begin(),
                            pass.latency.end());
    for (std::size_t i = 0; i < script.items.size(); ++i) {
      report.cells[first + i].seconds.push_back(pass.latency[i]);
    }
    report.detected += pass_detected(pass);
    if (args.trace) {
      for (const auto& [name, v] :
           traced_serve_pass(script, pass, first, traced, server_tel, k,
                             args.work_dir, spans, report)) {
        layer_samples[name].push_back(v);
      }
    }
  }
  plain.fds = {};
  plain.server->shutdown();

  if (args.trace) {
    traced.fds = {};
    traced.server->shutdown();
    server_tel.attach_logger(nullptr);
    logger.reset();
    for (const auto& [k, v] : layer_samples) report.layers[k] = median(v);
    const std::vector<double> waits = log_values(log_path, "queue_s");
    const motsim::obs::MetricsSnapshot snap = server_tel.metrics.snapshot();
    const double hits = counter(snap, "serve.cache.hits");
    const double misses = counter(snap, "serve.cache.misses");
    report.layers["serve.queue_wait_p50_s"] = nearest_rank(waits, 0.5);
    report.layers["serve.cache_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    report.spans_file = args.work_dir + "/spans-serve.json";
    if (!spans.write_chrome_json(report.spans_file)) {
      throw std::runtime_error("cannot write " + report.spans_file);
    }
  }
  for (const char* dir : {"setup-store", "store", "store-traced",
                          "store-replay"}) {
    std::filesystem::remove_all(args.work_dir + "/" + dir);
  }
  return report;
}

}  // namespace motbench
