// The serve subsystem (src/serve/): protocol codec round-trips,
// malformed-frame robustness (truncation, garbage, lying length
// fields must yield typed errors — never crashes or hangs), the
// bounded request queue's BUSY backpressure and drain semantics, the
// circuit cache's sharing, and the contract the whole stack exists
// for: a FAULT_SIM answered by the service is bit-identical to the
// same SimOptions run through run_pipeline — including through a real
// socket against a live Server.
//
// tools/run_tsan.sh runs this binary under ThreadSanitizer; keep every
// test here TSan-clean.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "bench_data/registry.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "core/test_eval.h"
#include "faults/collapse.h"
#include "obs/telemetry.h"
#include "serve/circuit_cache.h"
#include "serve/framing.h"
#include "serve/http.h"
#include "serve/protocol.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "serve/service.h"
#include "tpg/sequences.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/signals.h"

namespace motsim::serve {
namespace {

// ---------------------------------------------------------------------------
// Codec round-trips
// ---------------------------------------------------------------------------

FaultSimRequest sample_fault_sim_request() {
  FaultSimRequest fs;
  fs.id = 7;
  fs.circuit = CircuitRef{CircuitRef::Kind::Roster, "s27"};
  fs.vectors = 64;
  fs.use_store = true;
  fs.options.seed = 99;
  fs.options.strategy = Strategy::Rmot;
  fs.options.node_limit = 12345;
  fs.options.analysis = true;
  fs.options.threads = 3;
  return fs;
}

std::vector<Request> sample_requests() {
  std::vector<Request> all;
  all.emplace_back(PingRequest{1});
  all.emplace_back(
      LintRequest{2, CircuitRef{CircuitRef::Kind::BenchText,
                                "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n"}});
  all.emplace_back(sample_fault_sim_request());
  TestEvalRequest te;
  te.id = 9;
  te.circuit = CircuitRef{CircuitRef::Kind::Roster, "s27"};
  te.vectors = 4;
  te.seed = 3;
  te.responses = {{0, 1, 0, 1}, {1, 1, 1, 1}};
  all.emplace_back(std::move(te));
  all.emplace_back(DumpStateRequest{12});
  return all;
}

std::vector<Response> sample_responses() {
  std::vector<Response> all;
  // Traces present on some responses and absent on others: both
  // encodings of the v2 trailing trace string must round-trip.
  all.emplace_back(PongResponse{1, "c1-r1"});
  all.emplace_back(LintResponse{2, 1, 2, 3, "{\"x\":1}"});
  FaultSimResponse fs;
  fs.id = 3;
  fs.x_redundant = 4;
  fs.static_x_redundant = 1;
  fs.static_untestable = 2;
  fs.detected_3v = 10;
  fs.detected_symbolic = 20;
  fs.used_fallback = true;
  fs.from_store = true;
  fs.status = {0, 1, 2, 3, 4};
  fs.detect_frame = {0, 5, 0, 7, 9};
  fs.trace = "c2-r19";
  all.emplace_back(std::move(fs));
  all.emplace_back(TestEvalResponse{4, {1, 0, 1}});
  all.emplace_back(ErrorResponse{5, ErrorCode::BadRequest, "nope", "c4-r2"});
  all.emplace_back(BusyResponse{6, "c9-r1"});
  DumpStateResponse ds;
  ds.id = 7;
  ds.metrics_json = "{\"counters\":{\"serve.requests.completed\":3}}";
  ds.recorder_jsonl = "{\"event\":\"a\"}\n{\"event\":\"b\"}\n";
  ds.trace = "c3-r3";
  all.emplace_back(std::move(ds));
  return all;
}

TEST(Protocol, RequestRoundTrip) {
  for (const Request& req : sample_requests()) {
    const std::string payload = encode_request(req);
    const auto back = decode_request(frame_type_of(req), payload);
    ASSERT_TRUE(back.has_value()) << back.error();
    ASSERT_EQ(back->index(), req.index());
    EXPECT_EQ(request_id(*back), request_id(req));
    // Spot-check the deep fields of the richest message.
    if (const auto* fs = std::get_if<FaultSimRequest>(&req)) {
      const auto& rt = std::get<FaultSimRequest>(*back);
      EXPECT_EQ(rt.circuit.text, fs->circuit.text);
      EXPECT_EQ(rt.vectors, fs->vectors);
      EXPECT_EQ(rt.use_store, fs->use_store);
      EXPECT_EQ(rt.options.seed, fs->options.seed);
      EXPECT_EQ(rt.options.strategy, fs->options.strategy);
      EXPECT_EQ(rt.options.node_limit, fs->options.node_limit);
      EXPECT_EQ(rt.options.analysis, fs->options.analysis);
      EXPECT_EQ(rt.options.threads, fs->options.threads);
    }
    if (const auto* te = std::get_if<TestEvalRequest>(&req)) {
      EXPECT_EQ(std::get<TestEvalRequest>(*back).responses, te->responses);
    }
  }
}

TEST(Protocol, ResponseRoundTrip) {
  for (const Response& resp : sample_responses()) {
    const std::string payload = encode_response(resp);
    const auto back = decode_response(frame_type_of(resp), payload);
    ASSERT_TRUE(back.has_value()) << back.error();
    ASSERT_EQ(back->index(), resp.index());
    EXPECT_EQ(response_id(*back), response_id(resp));
    EXPECT_EQ(response_trace(*back), response_trace(resp));
    if (const auto* ds = std::get_if<DumpStateResponse>(&resp)) {
      const auto& rt = std::get<DumpStateResponse>(*back);
      EXPECT_EQ(rt.metrics_json, ds->metrics_json);
      EXPECT_EQ(rt.recorder_jsonl, ds->recorder_jsonl);
    }
    if (const auto* fs = std::get_if<FaultSimResponse>(&resp)) {
      const auto& rt = std::get<FaultSimResponse>(*back);
      EXPECT_EQ(rt.status, fs->status);
      EXPECT_EQ(rt.detect_frame, fs->detect_frame);
      EXPECT_EQ(rt.used_fallback, fs->used_fallback);
      EXPECT_EQ(rt.from_store, fs->from_store);
    }
    if (const auto* er = std::get_if<ErrorResponse>(&resp)) {
      const auto& rt = std::get<ErrorResponse>(*back);
      EXPECT_EQ(rt.code, er->code);
      EXPECT_EQ(rt.message, er->message);
    }
  }
}

TEST(Protocol, HelloRoundTripAndBadMagic) {
  const Hello h{kHelloMagic, kProtocolVersion, "motsim test build"};
  const auto back = decode_hello(encode_hello(h));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->protocol, kProtocolVersion);
  EXPECT_EQ(back->build, h.build);

  Hello bad = h;
  bad.magic = 0xdeadbeef;
  EXPECT_FALSE(decode_hello(encode_hello(bad)).has_value());
}

// ---------------------------------------------------------------------------
// Malformed-input robustness: decoders must return errors, not crash.
// ---------------------------------------------------------------------------

TEST(Protocol, TruncatedPayloadsAreErrorsNotCrashes) {
  for (const Request& req : sample_requests()) {
    const std::string payload = encode_request(req);
    const FrameType type = frame_type_of(req);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const auto r = decode_request(type, payload.substr(0, cut));
      EXPECT_FALSE(r.has_value())
          << to_cstring(type) << " decoded from a " << cut
          << "-byte prefix of " << payload.size();
    }
  }
}

TEST(Protocol, TrailingGarbageIsRejected) {
  for (const Request& req : sample_requests()) {
    const std::string payload = encode_request(req) + '\0';
    EXPECT_FALSE(decode_request(frame_type_of(req), payload).has_value());
  }
}

TEST(Protocol, RandomGarbageNeverCrashesDecoders) {
  std::mt19937_64 rng(42);
  const FrameType kTypes[] = {FrameType::Ping,        FrameType::LintReq,
                              FrameType::FaultSimReq, FrameType::TestEvalReq,
                              FrameType::Hello,       FrameType::Error};
  for (int round = 0; round < 2000; ++round) {
    std::string junk(rng() % 64, '\0');
    for (char& c : junk) c = static_cast<char>(rng());
    for (const FrameType t : kTypes) {
      (void)decode_request(t, junk);   // must not crash
      (void)decode_response(t, junk);  // unknown response type: error
    }
    (void)decode_hello(junk);
  }
  SUCCEED();
}

/// A lying element count inside an otherwise valid frame must not
/// cause a giant allocation or a crash.
TEST(Protocol, LyingCountFieldIsRejected) {
  TestEvalRequest te;
  te.id = 1;
  te.circuit = CircuitRef{CircuitRef::Kind::Roster, "s27"};
  te.vectors = 2;
  te.responses = {{0, 0}};
  std::string payload = encode_request(Request{te});
  // The responses count is the u32 right after id + circuit + vectors
  // + seed; corrupt the last 4-byte count we can find by maxing every
  // u32-aligned window and requiring *some* decode failure — the exact
  // offset is a codec detail this test must not hard-code.
  bool rejected_any = false;
  for (std::size_t off = 0; off + 4 <= payload.size(); ++off) {
    std::string bent = payload;
    bent[off] = bent[off + 1] = bent[off + 2] = bent[off + 3] =
        static_cast<char>(0xff);
    const auto r = decode_request(FrameType::TestEvalReq, bent);
    if (!r.has_value()) rejected_any = true;
  }
  EXPECT_TRUE(rejected_any);
}

// ---------------------------------------------------------------------------
// Framing over a real socketpair-like loopback connection
// ---------------------------------------------------------------------------

struct LoopbackPair {
  OwnedFd a, b;
};

LoopbackPair make_loopback() {
  auto listener = listen_tcp("127.0.0.1", 0);
  EXPECT_TRUE(listener.has_value());
  const auto port = local_port(listener->get());
  EXPECT_TRUE(port.has_value());
  auto client = connect_tcp("127.0.0.1", *port);
  EXPECT_TRUE(client.has_value());
  auto served = accept_with_timeout(listener->get(), 2000, -1);
  EXPECT_TRUE(served.has_value() && served->valid());
  return LoopbackPair{std::move(*client), std::move(*served)};
}

TEST(Framing, RoundTripOverSocket) {
  LoopbackPair pair = make_loopback();
  const std::string payload = encode_request(Request{PingRequest{77}});
  ASSERT_TRUE(
      write_frame(pair.a.get(), FrameType::Ping, payload).has_value());
  const ReadResult r = read_frame(pair.b.get());
  ASSERT_EQ(r.status, ReadStatus::Ok);
  EXPECT_EQ(r.frame.type, FrameType::Ping);
  EXPECT_EQ(r.frame.payload, payload);
}

TEST(Framing, OversizedLengthIsRejectedBeforeAllocation) {
  LoopbackPair pair = make_loopback();
  // Header claiming a 1 GiB frame: must come back as Error without the
  // reader ever allocating that much.
  const std::uint32_t huge = 1u << 30;
  unsigned char header[4];
  std::memcpy(header, &huge, 4);
  ASSERT_TRUE(write_full(pair.a.get(),
                         reinterpret_cast<const char*>(header), 4)
                  .has_value());
  const ReadResult r = read_frame(pair.b.get());
  EXPECT_EQ(r.status, ReadStatus::Error);
}

TEST(Framing, TornFrameIsErrorCleanCloseIsEof) {
  {
    LoopbackPair pair = make_loopback();
    // Length says 10 bytes follow, but the peer hangs up after 3.
    const std::uint32_t len = 10;
    char partial[7];
    std::memcpy(partial, &len, 4);
    partial[4] = 2;
    partial[5] = partial[6] = 0;
    ASSERT_TRUE(write_full(pair.a.get(), partial, 7).has_value());
    pair.a.reset();
    EXPECT_EQ(read_frame(pair.b.get()).status, ReadStatus::Error);
  }
  {
    LoopbackPair pair = make_loopback();
    pair.a.reset();  // close at a frame boundary
    EXPECT_EQ(read_frame(pair.b.get()).status, ReadStatus::Eof);
  }
}

// ---------------------------------------------------------------------------
// Request queue: backpressure + drain
// ---------------------------------------------------------------------------

TEST(RequestQueue, RejectsWhenFullThenRecovers) {
  RequestQueue q(2, 2, nullptr);
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};
  auto blocker = [&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
    ++ran;
  };
  ASSERT_TRUE(q.try_submit(blocker));
  ASSERT_TRUE(q.try_submit(blocker));
  // Both slots taken (the jobs hold them until released): full queue
  // answers false immediately — BUSY, not blocking.
  EXPECT_FALSE(q.try_submit([] {}));
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  // Once a slot frees up, admission recovers.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool accepted = false;
  while (!accepted && std::chrono::steady_clock::now() < deadline) {
    accepted = q.try_submit([&] { ++ran; });
    if (!accepted) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(accepted);
  q.drain();
  EXPECT_EQ(ran.load(), 3);
}

TEST(RequestQueue, DrainWaitsForInFlightAndStopsAdmission) {
  RequestQueue q(2, 4, nullptr);
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++done;
    }));
  }
  q.drain();
  EXPECT_EQ(done.load(), 4);  // drain returned only after all finished
  EXPECT_FALSE(q.try_submit([] {}));  // draining: no new work, ever
}

// ---------------------------------------------------------------------------
// Circuit cache
// ---------------------------------------------------------------------------

TEST(CircuitCache, IdenticalRefsShareOneParse) {
  CircuitCache cache(4, nullptr);
  const CircuitRef ref{CircuitRef::Kind::Roster, "s27"};
  const auto a = cache.get_or_load(ref);
  const auto b = cache.get_or_load(ref);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->get(), b->get());  // same shared parsed circuit
  EXPECT_GT((*a)->faults.size(), 0u);
}

TEST(CircuitCache, EvictsLeastRecentlyUsed) {
  obs::Telemetry tele;
  CircuitCache cache(2, &tele);
  const CircuitRef r1{CircuitRef::Kind::Roster, "s27"};
  const CircuitRef r2{CircuitRef::Kind::Roster, "s298"};
  const CircuitRef r3{CircuitRef::Kind::Roster, "s344"};
  ASSERT_TRUE(cache.get_or_load(r1).has_value());
  ASSERT_TRUE(cache.get_or_load(r2).has_value());
  ASSERT_TRUE(cache.get_or_load(r3).has_value());  // evicts r1
  EXPECT_EQ(tele.metrics.counter("serve.cache.evictions").value(), 1u);
  EXPECT_EQ(tele.metrics.gauge("serve.cache.size").value(), 2.0);
}

TEST(CircuitCache, UnknownRosterAndBadBenchAreErrors) {
  CircuitCache cache(2, nullptr);
  EXPECT_FALSE(
      cache.get_or_load(CircuitRef{CircuitRef::Kind::Roster, "nope"})
          .has_value());
  EXPECT_FALSE(cache
                   .get_or_load(CircuitRef{CircuitRef::Kind::BenchText,
                                           "not a bench file"})
                   .has_value());
}

// ---------------------------------------------------------------------------
// Service semantics: bit identity with run_pipeline, test-eval parity
// ---------------------------------------------------------------------------

TEST(Service, FaultSimIsBitIdenticalToRunPipeline) {
  Service service(4, "", nullptr);
  FaultSimRequest req;
  req.id = 11;
  req.circuit = CircuitRef{CircuitRef::Kind::Roster, "s298"};
  req.vectors = 48;
  req.options.seed = 5;
  req.options.analysis = true;

  const Response resp = service.handle(Request{req});
  ASSERT_TRUE(std::holds_alternative<FaultSimResponse>(resp))
      << "got error: "
      << (std::holds_alternative<ErrorResponse>(resp)
              ? std::get<ErrorResponse>(resp).message
              : "wrong variant");
  const auto& served = std::get<FaultSimResponse>(resp);

  // The reference: same circuit instantiation, same sequence
  // generation, same validated options, straight through run_pipeline.
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList faults(nl);
  SimOptions opts = req.options;
  const auto checked = opts.validate();
  ASSERT_TRUE(checked.has_value());
  Rng rng(opts.seed);
  const TestSequence seq = random_sequence(nl, 48, rng);
  const PipelineResult ref =
      run_pipeline(nl, faults.faults(), seq, *checked);

  EXPECT_EQ(served.x_redundant, ref.x_redundant);
  EXPECT_EQ(served.static_x_redundant, ref.static_x_redundant);
  EXPECT_EQ(served.static_untestable, ref.static_untestable);
  EXPECT_EQ(served.detected_3v, ref.detected_3v);
  EXPECT_EQ(served.detected_symbolic, ref.detected_symbolic);
  EXPECT_EQ(served.used_fallback, ref.used_fallback);
  ASSERT_EQ(served.status.size(), ref.status.size());
  for (std::size_t i = 0; i < ref.status.size(); ++i) {
    EXPECT_EQ(served.status[i], static_cast<std::uint8_t>(ref.status[i]))
        << "fault " << i;
  }
  EXPECT_EQ(served.detect_frame, ref.detect_frame);
}

TEST(Service, TestEvalMatchesDirectEvaluator) {
  Service service(4, "", nullptr);
  const Netlist nl = make_benchmark("s27");
  const std::size_t frames = 6;

  TestEvalRequest req;
  req.id = 21;
  req.circuit = CircuitRef{CircuitRef::Kind::Roster, "s27"};
  req.vectors = frames;
  req.seed = 17;
  // Two synthetic tester traces: all-zero and all-one.
  req.responses = {std::vector<std::uint8_t>(frames * nl.output_count(), 0),
                   std::vector<std::uint8_t>(frames * nl.output_count(), 1)};
  const Response resp = service.handle(Request{req});
  ASSERT_TRUE(std::holds_alternative<TestEvalResponse>(resp));
  const auto& served = std::get<TestEvalResponse>(resp);
  ASSERT_EQ(served.verdicts.size(), 2u);

  Rng rng(req.seed);
  const TestSequence seq = random_sequence(nl, frames, rng);
  bdd::BddManager mgr;
  const SymbolicResponse symbolic(nl, mgr, seq);
  const TestEvaluator evaluator(symbolic);
  for (std::size_t k = 0; k < 2; ++k) {
    std::vector<std::vector<bool>> bits(
        frames, std::vector<bool>(nl.output_count()));
    for (std::size_t t = 0; t < frames; ++t) {
      for (std::size_t j = 0; j < nl.output_count(); ++j) {
        bits[t][j] = req.responses[k][t * nl.output_count() + j] != 0;
      }
    }
    const Verdict v = evaluator.evaluate(bits);
    EXPECT_EQ(served.verdicts[k], v == Verdict::Faulty ? 1 : 0);
  }
}

TEST(Service, SemanticErrorsComeBackTyped) {
  Service service(4, "", nullptr);
  // Unknown circuit.
  {
    FaultSimRequest req;
    req.id = 31;
    req.circuit = CircuitRef{CircuitRef::Kind::Roster, "sXXX"};
    const Response resp = service.handle(Request{req});
    ASSERT_TRUE(std::holds_alternative<ErrorResponse>(resp));
    EXPECT_EQ(std::get<ErrorResponse>(resp).code, ErrorCode::BadRequest);
    EXPECT_EQ(std::get<ErrorResponse>(resp).id, 31u);
  }
  // Invalid options (zero vectors).
  {
    FaultSimRequest req;
    req.id = 32;
    req.circuit = CircuitRef{CircuitRef::Kind::Roster, "s27"};
    req.vectors = 0;
    const Response resp = service.handle(Request{req});
    ASSERT_TRUE(std::holds_alternative<ErrorResponse>(resp));
    EXPECT_EQ(std::get<ErrorResponse>(resp).code, ErrorCode::BadRequest);
  }
  // A node limit whose hard limit cannot hold s298's 14 state
  // variables: an error frame naming the smallest limit, not an abort.
  {
    FaultSimRequest req;
    req.id = 34;
    req.circuit = CircuitRef{CircuitRef::Kind::Roster, "s298"};
    req.vectors = 16;
    req.options.node_limit = 1;
    const Response resp = service.handle(Request{req});
    ASSERT_TRUE(std::holds_alternative<ErrorResponse>(resp));
    EXPECT_EQ(std::get<ErrorResponse>(resp).code, ErrorCode::BadRequest);
    EXPECT_NE(std::get<ErrorResponse>(resp).message.find(
                  "the smallest node_limit that works is 2"),
              std::string::npos)
        << std::get<ErrorResponse>(resp).message;
  }
  // The same limit on the campaign path: rejected before any store
  // directory is created.
  {
    const std::filesystem::path root =
        std::filesystem::temp_directory_path() /
        ("motsim_serve_limit_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    std::filesystem::remove_all(root);
    Service store_service(4, root.string(), nullptr);
    FaultSimRequest req;
    req.id = 35;
    req.circuit = CircuitRef{CircuitRef::Kind::Roster, "s298"};
    req.vectors = 16;
    req.use_store = true;
    req.options.node_limit = 1;
    const Response resp = store_service.handle(Request{req});
    ASSERT_TRUE(std::holds_alternative<ErrorResponse>(resp));
    EXPECT_EQ(std::get<ErrorResponse>(resp).code, ErrorCode::BadRequest);
    EXPECT_FALSE(std::filesystem::exists(root));
    std::filesystem::remove_all(root);
  }
  // Mis-sized tester response.
  {
    TestEvalRequest req;
    req.id = 33;
    req.circuit = CircuitRef{CircuitRef::Kind::Roster, "s27"};
    req.vectors = 4;
    req.responses = {{0, 1}};  // wrong length
    const Response resp = service.handle(Request{req});
    ASSERT_TRUE(std::holds_alternative<ErrorResponse>(resp));
    EXPECT_EQ(std::get<ErrorResponse>(resp).code, ErrorCode::BadRequest);
  }
}

// ---------------------------------------------------------------------------
// Live server end-to-end over loopback
// ---------------------------------------------------------------------------

class LiveServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.threads = 2;
    config.queue_capacity = 8;
    server_ = std::make_unique<Server>(std::move(config), &telemetry_);
    const auto started = server_->start();
    ASSERT_TRUE(started.has_value()) << started.error();
  }

  void TearDown() override { server_->shutdown(); }

  /// Connects and completes the HELLO handshake.
  OwnedFd connect_client() {
    auto sock = connect_tcp("127.0.0.1", server_->port());
    EXPECT_TRUE(sock.has_value());
    const ReadResult hello = read_frame(sock->get());
    EXPECT_EQ(hello.status, ReadStatus::Ok);
    EXPECT_EQ(hello.frame.type, FrameType::Hello);
    const Hello ours{kHelloMagic, kProtocolVersion, "test client"};
    EXPECT_TRUE(write_frame(sock->get(), FrameType::Hello,
                            encode_hello(ours))
                    .has_value());
    return std::move(*sock);
  }

  Response call(int fd, const Request& req) {
    EXPECT_TRUE(write_frame(fd, frame_type_of(req), encode_request(req))
                    .has_value());
    const ReadResult r = read_frame(fd);
    EXPECT_EQ(r.status, ReadStatus::Ok);
    auto resp = decode_response(r.frame.type, r.frame.payload);
    EXPECT_TRUE(resp.has_value());
    return resp.has_value() ? *resp
                            : Response{ErrorResponse{0, ErrorCode::Internal,
                                                     "decode failed"}};
  }

  obs::Telemetry telemetry_;
  /// Optional log sink a test may attach. Declared before server_ so
  /// it is destroyed after the server joined its threads — the "sink
  /// outlives the last log_event" contract of attach_logger.
  std::unique_ptr<obs::Logger> logger_;
  std::unique_ptr<Server> server_;
};

TEST_F(LiveServerTest, PingAndFaultSimBitIdentityThroughSocket) {
  OwnedFd client = connect_client();
  const Response pong = call(client.get(), Request{PingRequest{1}});
  ASSERT_TRUE(std::holds_alternative<PongResponse>(pong));
  EXPECT_EQ(std::get<PongResponse>(pong).id, 1u);

  FaultSimRequest req;
  req.id = 2;
  req.circuit = CircuitRef{CircuitRef::Kind::Roster, "s27"};
  req.vectors = 32;
  req.options.seed = 4;
  const Response resp = call(client.get(), Request{req});
  ASSERT_TRUE(std::holds_alternative<FaultSimResponse>(resp));
  const auto& served = std::get<FaultSimResponse>(resp);

  const Netlist nl = make_benchmark("s27");
  const CollapsedFaultList faults(nl);
  SimOptions opts = req.options;
  const auto checked = opts.validate();
  ASSERT_TRUE(checked.has_value());
  Rng rng(opts.seed);
  const TestSequence seq = random_sequence(nl, 32, rng);
  const PipelineResult ref =
      run_pipeline(nl, faults.faults(), seq, *checked);
  ASSERT_EQ(served.status.size(), ref.status.size());
  for (std::size_t i = 0; i < ref.status.size(); ++i) {
    EXPECT_EQ(served.status[i], static_cast<std::uint8_t>(ref.status[i]));
  }
  EXPECT_EQ(served.detect_frame, ref.detect_frame);
}

TEST_F(LiveServerTest, MalformedPayloadGetsErrorFrameAndConnectionLives) {
  OwnedFd client = connect_client();
  // A FAULT_SIM frame whose payload is garbage: typed ERROR back.
  ASSERT_TRUE(write_frame(client.get(), FrameType::FaultSimReq, "garbage")
                  .has_value());
  const ReadResult r = read_frame(client.get());
  ASSERT_EQ(r.status, ReadStatus::Ok);
  ASSERT_EQ(r.frame.type, FrameType::Error);
  const auto err = decode_response(r.frame.type, r.frame.payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(std::get<ErrorResponse>(*err).code, ErrorCode::BadFrame);

  // The connection survives a malformed payload: a PING still works.
  const Response pong = call(client.get(), Request{PingRequest{5}});
  EXPECT_TRUE(std::holds_alternative<PongResponse>(pong));
}

TEST_F(LiveServerTest, UnknownFrameTypeGetsErrorFrame) {
  OwnedFd client = connect_client();
  ASSERT_TRUE(write_frame(client.get(), static_cast<FrameType>(200), "xx")
                  .has_value());
  const ReadResult r = read_frame(client.get());
  ASSERT_EQ(r.status, ReadStatus::Ok);
  EXPECT_EQ(r.frame.type, FrameType::Error);
}

TEST_F(LiveServerTest, VersionMismatchIsRejected) {
  auto sock = connect_tcp("127.0.0.1", server_->port());
  ASSERT_TRUE(sock.has_value());
  const ReadResult hello = read_frame(sock->get());
  ASSERT_EQ(hello.status, ReadStatus::Ok);
  const Hello wrong{kHelloMagic, kProtocolVersion + 1, "future client"};
  ASSERT_TRUE(write_frame(sock->get(), FrameType::Hello,
                          encode_hello(wrong))
                  .has_value());
  const ReadResult r = read_frame(sock->get());
  ASSERT_EQ(r.status, ReadStatus::Ok);
  ASSERT_EQ(r.frame.type, FrameType::Error);
  const auto err = decode_response(r.frame.type, r.frame.payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(std::get<ErrorResponse>(*err).code,
            ErrorCode::VersionMismatch);
  // ... and the server hangs up.
  EXPECT_EQ(read_frame(sock->get()).status, ReadStatus::Eof);
}

TEST_F(LiveServerTest, PipelinedRequestsAllAnswered) {
  OwnedFd client = connect_client();
  constexpr int kCount = 16;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(write_frame(client.get(), FrameType::Ping,
                            encode_request(Request{PingRequest{
                                static_cast<std::uint32_t>(i)}}))
                    .has_value());
  }
  // Responses may arrive out of order; collect ids until all are seen.
  std::vector<bool> seen(kCount, false);
  for (int i = 0; i < kCount; ++i) {
    const ReadResult r = read_frame(client.get());
    ASSERT_EQ(r.status, ReadStatus::Ok);
    const auto resp = decode_response(r.frame.type, r.frame.payload);
    ASSERT_TRUE(resp.has_value());
    const std::uint32_t id = response_id(*resp);
    ASSERT_LT(id, static_cast<std::uint32_t>(kCount));
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
  }
}

TEST_F(LiveServerTest, ShutdownDrainsInFlightRequests) {
  OwnedFd client = connect_client();
  // Kick off real work, then shut down immediately: the admitted
  // request must still be answered before the socket closes.
  FaultSimRequest req;
  req.id = 9;
  req.circuit = CircuitRef{CircuitRef::Kind::Roster, "s298"};
  req.vectors = 64;
  ASSERT_TRUE(write_frame(client.get(), FrameType::FaultSimReq,
                          encode_request(Request{req}))
                  .has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread stopper([&] { server_->shutdown(); });
  const ReadResult r = read_frame(client.get());
  stopper.join();
  ASSERT_EQ(r.status, ReadStatus::Ok);
  const auto resp = decode_response(r.frame.type, r.frame.payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(std::holds_alternative<FaultSimResponse>(*resp))
      << "in-flight request was dropped by shutdown";
}

TEST_F(LiveServerTest, MetricsEndpointServesPrometheusAndHealthz) {
  // Generate one request so serve.* series exist.
  OwnedFd client = connect_client();
  (void)call(client.get(), Request{PingRequest{1}});

  auto http = connect_tcp("127.0.0.1", server_->http_port());
  ASSERT_TRUE(http.has_value());
  const std::string get =
      "GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n";
  ASSERT_TRUE(write_full(http->get(), get.data(), get.size()).has_value());
  std::string body;
  char buf[4096];
  for (;;) {
    const auto n = read_full(http->get(), buf, 1);
    if (!n.has_value() || *n == 0) break;
    body.push_back(buf[0]);
  }
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("motsim_build_info{"), std::string::npos);
  EXPECT_NE(body.find("serve_requests_completed"), std::string::npos);
  EXPECT_NE(body.find("serve_request_seconds_bucket"), std::string::npos);
  EXPECT_NE(body.find("serve_queue_depth"), std::string::npos);

  auto health = connect_tcp("127.0.0.1", server_->http_port());
  ASSERT_TRUE(health.has_value());
  const std::string hz = "GET /healthz HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(
      write_full(health->get(), hz.data(), hz.size()).has_value());
  std::string hbody;
  for (;;) {
    const auto n = read_full(health->get(), buf, 1);
    if (!n.has_value() || *n == 0) break;
    hbody.push_back(buf[0]);
  }
  EXPECT_NE(hbody.find("200 OK"), std::string::npos);
  EXPECT_NE(hbody.find("ok"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Protocol v2: uniform trace accessors
// ---------------------------------------------------------------------------

TEST(Protocol, TraceAccessorsAreUniformAcrossVariants) {
  for (Response resp : sample_responses()) {
    set_response_trace(resp, "c7-r7");
    EXPECT_EQ(response_trace(resp), "c7-r7");
    // ... and the stamped trace survives the codec.
    const auto back =
        decode_response(frame_type_of(resp), encode_response(resp));
    ASSERT_TRUE(back.has_value()) << back.error();
    EXPECT_EQ(response_trace(*back), "c7-r7");
  }
}

// ---------------------------------------------------------------------------
// HttpEndpoint: pure request-text → reply routing
// ---------------------------------------------------------------------------

/// Every line of an NDJSON body is a non-empty JSON object (the full
/// syntax check lives in tests/test_obs.cpp; routing only needs the
/// object framing).
void expect_ndjson_lines(const std::string& body) {
  std::istringstream in(body);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    ++lines;
  }
  EXPECT_GE(lines, 1u);
}

TEST(HttpEndpointTest, HealthzIsPlainText) {
  obs::Telemetry tele;
  const HttpEndpoint http(&tele);
  const HttpReply reply = http.handle("GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.code, 200);
  EXPECT_EQ(reply.content_type, "text/plain; charset=utf-8");
  EXPECT_EQ(reply.body, "ok\n");
}

TEST(HttpEndpointTest, MetricsIsPrometheusTextExposition) {
  obs::Telemetry tele;
  tele.metrics.counter("serve.requests.completed").add(5);
  const HttpEndpoint http(&tele);
  const HttpReply reply = http.handle("GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.code, 200);
  // The exposition-format version marker matters: Prometheus scrapers
  // key parsing off it.
  EXPECT_EQ(reply.content_type,
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(reply.body.find("motsim_build_info{"), std::string::npos);
  EXPECT_NE(reply.body.find("serve_requests_completed 5"),
            std::string::npos);
}

TEST(HttpEndpointTest, MetricsFormatJsonIsApplicationJson) {
  obs::Telemetry tele;
  tele.metrics.counter("serve.requests.completed").add(2);
  tele.metrics.histogram("serve.queue.wait_seconds", {0.1, 1.0})
      .observe(0.05);
  const HttpEndpoint http(&tele);
  const HttpReply reply =
      http.handle("GET /metrics?format=json HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.code, 200);
  EXPECT_EQ(reply.content_type, "application/json; charset=utf-8");
  EXPECT_NE(reply.body.find("\"serve.requests.completed\": 2"),
            std::string::npos)
      << reply.body;
  // The quantile fields motsim_load's scraper reads are present.
  EXPECT_NE(reply.body.find("\"p50\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"p99\""), std::string::npos);
}

TEST(HttpEndpointTest, DebugStateIsNdjsonOfSnapshotPlusRecorder) {
  obs::Telemetry tele;
  tele.metrics.counter("serve.requests.completed").add(1);
  obs::log_event(&tele, obs::LogLevel::Info, "test.recorded",
                 {obs::LogField::i64("k", 1)});
  const HttpEndpoint http(&tele);
  const HttpReply reply = http.handle("GET /debug/state HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.code, 200);
  EXPECT_EQ(reply.content_type, "application/x-ndjson");
  expect_ndjson_lines(reply.body);
  EXPECT_NE(reply.body.find("\"counters\""), std::string::npos);
  EXPECT_NE(reply.body.find("test.recorded"), std::string::npos);
}

TEST(HttpEndpointTest, UnknownPathIs404AndNonGetIs405) {
  obs::Telemetry tele;
  const HttpEndpoint http(&tele);
  EXPECT_EQ(http.handle("GET /nope HTTP/1.0\r\n\r\n").code, 404);
  EXPECT_EQ(http.handle("POST /metrics HTTP/1.0\r\n\r\n").code, 405);
  EXPECT_EQ(http.handle("DELETE /healthz HTTP/1.0\r\n\r\n").code, 405);
}

TEST(HttpEndpointTest, NullTelemetryStillAnswersEveryRoute) {
  const HttpEndpoint http(nullptr);
  EXPECT_EQ(http.handle("GET /healthz HTTP/1.0\r\n\r\n").code, 200);
  EXPECT_EQ(http.handle("GET /metrics HTTP/1.0\r\n\r\n").code, 200);
  EXPECT_EQ(http.handle("GET /metrics?format=json HTTP/1.0\r\n\r\n").code,
            200);
  EXPECT_EQ(http.handle("GET /debug/state HTTP/1.0\r\n\r\n").code, 200);
}

TEST(HttpEndpointTest, RenderEmitsHttp10WithLengthAndClose) {
  HttpReply reply;
  reply.code = 404;
  reply.status = "Not Found";
  reply.body = "not found\n";
  const std::string out = HttpEndpoint::render(reply);
  EXPECT_EQ(out.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u) << out;
  EXPECT_NE(out.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_NE(out.find("Connection: close\r\n"), std::string::npos);
  const std::size_t split = out.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  EXPECT_EQ(out.substr(split + 4), reply.body);
}

// ---------------------------------------------------------------------------
// SIGUSR1 dump latch
// ---------------------------------------------------------------------------

TEST(Signals, DumpHandlerLatchesOneRequestPerSignal) {
  install_dump_handler();
  EXPECT_FALSE(take_dump_request());  // nothing pending yet
  ASSERT_EQ(::raise(SIGUSR1), 0);
  EXPECT_TRUE(take_dump_request());   // consumed exactly once
  EXPECT_FALSE(take_dump_request());
  ASSERT_EQ(::raise(SIGUSR1), 0);
  ASSERT_EQ(::raise(SIGUSR1), 0);     // coalesces, does not queue
  EXPECT_TRUE(take_dump_request());
  EXPECT_FALSE(take_dump_request());
}

// ---------------------------------------------------------------------------
// Live-server tracing and state dumps
// ---------------------------------------------------------------------------

namespace fs_std = std::filesystem;

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string temp_file(const std::string& tag) {
  return (fs_std::temp_directory_path() /
          ("motsim_serve_" + tag + "_" +
           std::to_string(
               ::testing::UnitTest::GetInstance()->random_seed()) +
           ".jsonl"))
      .string();
}

TEST_F(LiveServerTest, EveryResponseCarriesAFollowableTraceId) {
  const std::string log_file = temp_file("trace");
  fs_std::remove(log_file);
  auto logger = obs::Logger::open(log_file, obs::LogLevel::Info);
  ASSERT_TRUE(logger.has_value()) << logger.error();
  logger_ = std::move(*logger);
  telemetry_.attach_logger(logger_.get());

  OwnedFd client = connect_client();
  const Response pong = call(client.get(), Request{PingRequest{1}});
  ASSERT_TRUE(std::holds_alternative<PongResponse>(pong));
  FaultSimRequest req;
  req.id = 2;
  req.circuit = CircuitRef{CircuitRef::Kind::Roster, "s27"};
  req.vectors = 16;
  const Response resp = call(client.get(), Request{req});
  ASSERT_TRUE(std::holds_alternative<FaultSimResponse>(resp));

  // Both responses carry server-assigned "c<conn>-r<seq>" ids, distinct
  // per request on one connection.
  const std::string& t1 = response_trace(pong);
  const std::string& t2 = response_trace(resp);
  ASSERT_FALSE(t1.empty());
  ASSERT_FALSE(t2.empty());
  EXPECT_NE(t1, t2);
  EXPECT_EQ(t1.front(), 'c');
  EXPECT_NE(t1.find("-r"), std::string::npos);

  // The same id tags the access-log line of the FAULT_SIM request —
  // the grep an operator follows a request by. The worker writes that
  // line just after the response frame, so poll briefly.
  bool followed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!followed && std::chrono::steady_clock::now() < deadline) {
    for (const std::string& line : file_lines(log_file)) {
      if (line.find("\"event\":\"serve.request\"") != std::string::npos &&
          line.find("\"trace\":\"" + t2 + "\"") != std::string::npos &&
          line.find("FAULT_SIM") != std::string::npos) {
        followed = true;
      }
    }
    if (!followed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(followed) << "no serve.request access-log line for " << t2;
  fs_std::remove(log_file);
}

TEST_F(LiveServerTest, DumpStateRequestReturnsMetricsAndRecorderWindow) {
  OwnedFd client = connect_client();
  (void)call(client.get(), Request{PingRequest{1}});

  const Response resp = call(client.get(), Request{DumpStateRequest{42}});
  ASSERT_TRUE(std::holds_alternative<DumpStateResponse>(resp));
  const auto& dump = std::get<DumpStateResponse>(resp);
  EXPECT_EQ(dump.id, 42u);
  EXPECT_FALSE(dump.trace.empty());
  ASSERT_FALSE(dump.metrics_json.empty());
  EXPECT_EQ(dump.metrics_json.front(), '{');
  EXPECT_NE(dump.metrics_json.find("serve.requests.ping"),
            std::string::npos);
  // The recorder (always on, no logger attached) retained the access
  // log of the earlier PING.
  EXPECT_NE(dump.recorder_jsonl.find("serve.request"), std::string::npos);
}

TEST_F(LiveServerTest, DebugStateEndpointServesNdjson) {
  OwnedFd client = connect_client();
  (void)call(client.get(), Request{PingRequest{1}});

  auto http = connect_tcp("127.0.0.1", server_->http_port());
  ASSERT_TRUE(http.has_value());
  const std::string get = "GET /debug/state HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(write_full(http->get(), get.data(), get.size()).has_value());
  std::string text;
  char buf[1];
  for (;;) {
    const auto n = read_full(http->get(), buf, 1);
    if (!n.has_value() || *n == 0) break;
    text.push_back(buf[0]);
  }
  EXPECT_NE(text.find("200 OK"), std::string::npos);
  EXPECT_NE(text.find("Content-Type: application/x-ndjson"),
            std::string::npos);
  const std::size_t split = text.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  expect_ndjson_lines(text.substr(split + 4));
}

TEST_F(LiveServerTest, DumpStateWritesPerLineValidJsonl) {
  OwnedFd client = connect_client();
  (void)call(client.get(), Request{PingRequest{1}});

  const std::string dump_file = temp_file("dump");
  fs_std::remove(dump_file);
  const auto written = server_->dump_state(dump_file);
  ASSERT_TRUE(written.has_value()) << written.error();
  const std::vector<std::string> lines = file_lines(dump_file);
  ASSERT_GE(lines.size(), 2u);  // metrics snapshot + recorder window
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_NE(lines[0].find("\"counters\""), std::string::npos);
  // Appending semantics: a second dump extends the same file.
  ASSERT_TRUE(server_->dump_state(dump_file).has_value());
  EXPECT_GT(file_lines(dump_file).size(), lines.size());
  fs_std::remove(dump_file);
}

}  // namespace
}  // namespace motsim::serve
