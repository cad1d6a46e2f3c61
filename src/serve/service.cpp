#include "serve/service.h"

#include <exception>
#include <fstream>
#include <utility>

#include "analysis/lint.h"
#include "bdd/bdd.h"
#include "core/pipeline.h"
#include "core/test_eval.h"
#include "logic/val3.h"
#include "obs/telemetry.h"
#include "store/campaign.h"
#include "store/fingerprint.h"
#include "store/run_store.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace motsim::serve {

namespace {

ErrorResponse bad_request(std::uint32_t id, std::string message) {
  return ErrorResponse{id, ErrorCode::BadRequest, std::move(message)};
}

/// True when `dir` already holds a campaign manifest (a previous
/// request for the same workload fingerprint created it).
bool store_exists(const std::string& dir) {
  std::ifstream manifest(dir + "/manifest.txt");
  return static_cast<bool>(manifest);
}

}  // namespace

Service::Service(std::size_t cache_capacity, std::string store_root,
                 obs::Telemetry* telemetry)
    : cache_(cache_capacity, telemetry),
      store_root_(std::move(store_root)),
      telemetry_(telemetry) {}

Response Service::handle(const Request& request) noexcept {
  const std::uint32_t id = request_id(request);
  Stopwatch timer;
  Response response = ErrorResponse{id, ErrorCode::Internal, "unhandled"};
  try {
    struct Visitor {
      Service& s;
      Response operator()(const PingRequest& m) { return s.handle_ping(m); }
      Response operator()(const LintRequest& m) { return s.handle_lint(m); }
      Response operator()(const FaultSimRequest& m) {
        return s.handle_fault_sim(m);
      }
      Response operator()(const TestEvalRequest& m) {
        return s.handle_test_eval(m);
      }
      Response operator()(const DumpStateRequest& m) {
        return s.handle_dump_state(m);
      }
    };
    response = std::visit(Visitor{*this}, request);
  } catch (const std::exception& e) {
    // Queue workers run tasks bare (ThreadPool terminates on escaped
    // exceptions), so the catch-all lives here: any handler failure is
    // an ERROR frame, never a dead worker.
    response = ErrorResponse{id, ErrorCode::Internal, e.what()};
  } catch (...) {
    response =
        ErrorResponse{id, ErrorCode::Internal, "unknown handler exception"};
  }
  if (telemetry_ != nullptr) {
    static const std::vector<double> kLatencyBounds = {
        1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03,
        0.1,  0.3,  1.0,  3.0,  10.0, 30.0, 100.0};
    telemetry_->metrics
        .histogram("serve.request.seconds", kLatencyBounds)
        .observe(timer.elapsed_seconds());
    telemetry_->metrics.counter("serve.requests.completed").add();
    if (std::holds_alternative<ErrorResponse>(response)) {
      telemetry_->metrics.counter("serve.requests.errors").add();
    }
  }
  // Every response carries the request's trace id — whatever
  // ScopedTraceId the caller (a queue worker, or a test invoking
  // handle() directly) put in scope. Empty when untraced.
  set_response_trace(response, obs::current_trace_id());
  return response;
}

Response Service::handle_ping(const PingRequest& req) {
  if (telemetry_ != nullptr) {
    telemetry_->metrics.counter("serve.requests.ping").add();
  }
  return PongResponse{req.id};
}

Response Service::handle_lint(const LintRequest& req) {
  if (telemetry_ != nullptr) {
    telemetry_->metrics.counter("serve.requests.lint").add();
  }
  const auto circuit = cache_.get_or_load(req.circuit);
  if (!circuit.has_value()) return bad_request(req.id, circuit.error());
  const DiagnosticReport report = run_lint((*circuit)->netlist);
  LintResponse resp;
  resp.id = req.id;
  resp.errors = static_cast<std::uint32_t>(report.count(Severity::Error));
  resp.warnings =
      static_cast<std::uint32_t>(report.count(Severity::Warning));
  resp.notes = static_cast<std::uint32_t>(report.count(Severity::Note));
  resp.json = report.to_json();
  return resp;
}

Response Service::handle_fault_sim(const FaultSimRequest& req) {
  if (telemetry_ != nullptr) {
    telemetry_->metrics.counter("serve.requests.fault_sim").add();
  }
  const auto circuit = cache_.get_or_load(req.circuit);
  if (!circuit.has_value()) return bad_request(req.id, circuit.error());
  const Netlist& nl = (*circuit)->netlist;
  const std::vector<Fault>& faults = (*circuit)->faults.faults();

  if (req.vectors == 0) {
    return bad_request(req.id, "FAULT_SIM: vectors must be positive");
  }
  SimOptions options = req.options;
  options.telemetry = telemetry_;
  const auto checked = options.validate();
  if (!checked.has_value()) return bad_request(req.id, checked.error());
  // validate() cannot see the circuit; the engine's own check can.
  if (checked->run_symbolic) {
    const auto fits = check_hybrid_config(nl, checked->to_hybrid_config());
    if (!fits.has_value()) return bad_request(req.id, fits.error());
  }

  Rng rng(options.seed);
  const TestSequence sequence = random_sequence(
      nl, static_cast<std::size_t>(req.vectors), rng);

  FaultSimResponse resp;
  resp.id = req.id;

  if (req.use_store && !store_root_.empty()) {
    // Campaign path: one run-store per workload fingerprint, so the
    // same request served twice resumes (completed campaign = answer
    // from the store) instead of recomputing — and a long campaign
    // interrupted by a server restart continues from its checkpoints.
    Fnv1a64 key;
    key.update_u64((*circuit)->netlist_fingerprint);
    key.update_u64(fingerprint_faults(faults));
    key.update_u64(fingerprint_options(*checked));
    key.update_u64(fingerprint_sequence(sequence));
    const std::string dir =
        store_root_ + "/" + fingerprint_to_hex(key.digest());
    const bool resuming = store_exists(dir);
    const auto result =
        resuming ? resume_campaign(nl, faults, dir, std::nullopt, nullptr,
                                   nullptr, telemetry_)
                 : run_campaign(nl, faults, sequence, *checked, dir);
    if (!result.has_value()) {
      return ErrorResponse{req.id, ErrorCode::Internal, result.error()};
    }
    resp.from_store = true;
    resp.x_redundant = result->x_redundant;
    resp.static_x_redundant = result->static_x_redundant;
    resp.static_untestable = result->static_untestable;
    resp.detected_symbolic = result->summary().detected_total();
    resp.used_fallback = result->sym.used_fallback;
    resp.status.reserve(result->status.size());
    for (const FaultStatus s : result->status) {
      resp.status.push_back(static_cast<std::uint8_t>(s));
    }
    resp.detect_frame = result->detect_frame;
    return resp;
  }

  const PipelineResult result =
      run_pipeline(nl, faults, sequence, *checked);
  resp.x_redundant = result.x_redundant;
  resp.static_x_redundant = result.static_x_redundant;
  resp.static_untestable = result.static_untestable;
  resp.detected_3v = result.detected_3v;
  resp.detected_symbolic = result.detected_symbolic;
  resp.used_fallback = result.used_fallback;
  resp.status.reserve(result.status.size());
  for (const FaultStatus s : result.status) {
    resp.status.push_back(static_cast<std::uint8_t>(s));
  }
  resp.detect_frame = result.detect_frame;
  return resp;
}

Response Service::handle_test_eval(const TestEvalRequest& req) {
  if (telemetry_ != nullptr) {
    telemetry_->metrics.counter("serve.requests.test_eval").add();
  }
  const auto circuit = cache_.get_or_load(req.circuit);
  if (!circuit.has_value()) return bad_request(req.id, circuit.error());
  const Netlist& nl = (*circuit)->netlist;

  if (req.vectors == 0) {
    return bad_request(req.id, "TEST_EVAL: vectors must be positive");
  }
  const std::size_t frames = static_cast<std::size_t>(req.vectors);
  const std::size_t width = frames * nl.output_count();
  for (std::size_t i = 0; i < req.responses.size(); ++i) {
    if (req.responses[i].size() != width) {
      return bad_request(
          req.id, "TEST_EVAL: response " + std::to_string(i) + " has " +
                      std::to_string(req.responses[i].size()) +
                      " values, expected frames*outputs = " +
                      std::to_string(width));
    }
    for (const std::uint8_t v : req.responses[i]) {
      if (v > 1) {
        return bad_request(req.id, "TEST_EVAL: response " +
                                       std::to_string(i) +
                                       " carries a non-binary value");
      }
    }
  }

  // The expensive artifact — the symbolic fault-free response — is
  // built once per request and amortized over every tester response in
  // the batch (paper Section IV.B / Table IV).
  Rng rng(req.seed);
  const TestSequence sequence = random_sequence(nl, frames, rng);
  bdd::BddManager mgr;
  const SymbolicResponse symbolic(nl, mgr, sequence);
  const TestEvaluator evaluator(symbolic);

  TestEvalResponse resp;
  resp.id = req.id;
  resp.verdicts.reserve(req.responses.size());
  std::vector<std::vector<bool>> response_bits(
      frames, std::vector<bool>(nl.output_count()));
  for (const auto& flat : req.responses) {
    for (std::size_t t = 0; t < frames; ++t) {
      for (std::size_t j = 0; j < nl.output_count(); ++j) {
        response_bits[t][j] = flat[t * nl.output_count() + j] != 0;
      }
    }
    const Verdict v = evaluator.evaluate(response_bits);
    resp.verdicts.push_back(v == Verdict::Faulty ? 1 : 0);
  }
  return resp;
}

Response Service::handle_dump_state(const DumpStateRequest& req) {
  if (telemetry_ != nullptr) {
    telemetry_->metrics.counter("serve.requests.dump_state").add();
  }
  DumpStateResponse resp;
  resp.id = req.id;
  if (telemetry_ != nullptr) {
    resp.metrics_json = telemetry_->metrics.snapshot().to_json_line();
    resp.recorder_jsonl = telemetry_->recorder.dump();
  } else {
    resp.metrics_json = "{}";
  }
  return resp;
}

}  // namespace motsim::serve
