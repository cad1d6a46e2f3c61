#include "core/pipeline.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/implication.h"
#include "analysis/sgraph.h"
#include "analysis/static_xred.h"
#include "analysis/trim.h"
#include "core/parallel_sym_sim.h"
#include "core/xred.h"
#include "obs/telemetry.h"
#include "sim3/fault_simulator.h"
#include "util/stopwatch.h"

namespace motsim {

namespace {

/// Opens one pipeline stage: the structured-log record paired with the
/// span the call sites start themselves.
void begin_stage(obs::Telemetry* telemetry, const char* name) {
  obs::log_event(telemetry, obs::LogLevel::Debug, "pipeline.stage.begin",
                 {obs::LogField::str("stage", name)});
}

/// Closes out one pipeline stage: ends its trace span, reports it to
/// the progress sink, records its wall seconds as a pipeline.* gauge
/// (gauges add, so repeated runs into one context accumulate) and logs
/// the stage-end record.
void finish_stage(obs::Telemetry* telemetry, ProgressSink* progress,
                  std::optional<obs::SpanTracer::Span>& span,
                  const char* name, double seconds) {
  span.reset();
  if (telemetry != nullptr) {
    telemetry->metrics.gauge(std::string("pipeline.") + name + "_seconds")
        .add(seconds);
  }
  obs::log_event(telemetry, obs::LogLevel::Info, "pipeline.stage.end",
                 {obs::LogField::str("stage", name),
                  obs::LogField::f64("seconds", seconds)});
  if (progress != nullptr) {
    progress->on_stage((std::string("stage.") + name).c_str(), seconds);
  }
}

}  // namespace

PipelineResult run_pipeline(const Netlist& netlist,
                            const std::vector<Fault>& faults,
                            const TestSequence& sequence,
                            const PipelineConfig& config,
                            ProgressSink* progress,
                            CheckpointSink* checkpoint) {
  PipelineResult result;
  result.detect_frame.assign(faults.size(), 0);
  obs::Telemetry* const telemetry = config.telemetry;

  // ---- Stage 0: sequence-independent static analysis ---------------------
  std::vector<FaultStatus> status(faults.size(), FaultStatus::Undetected);
  std::vector<ConstVal> tied;  // nonempty => constants for the symbolic stage
  // Kept for the symbolic stage's implication-enriched trimming plan.
  std::optional<ImplicationEngine> eng;
  if (config.analysis) {
    std::optional<obs::SpanTracer::Span> span;
    if (telemetry != nullptr) span = telemetry->tracer.span("stage.analysis");
    begin_stage(telemetry, "analysis");
    Stopwatch timer;
    const StaticXRedAnalysis sa(netlist);
    status = sa.classify(faults);
    // The implication engine only upgrades faults the cheaper
    // structural pass left Undetected, so the two counts stay disjoint.
    eng.emplace(netlist);
    result.static_untestable = eng->classify(faults, status);
    if (eng->tied_constant_count() != 0) tied = eng->tied_constants();
    result.seconds_analysis = timer.elapsed_seconds();
    for (FaultStatus s : status) {
      if (s == FaultStatus::StaticXRed) ++result.static_x_redundant;
    }
    if (telemetry != nullptr) {
      telemetry->metrics.counter("analysis.implications_learned")
          .add(eng->stats().learned_implications);
      telemetry->metrics.counter("analysis.faults_pruned")
          .add(result.static_x_redundant + result.static_untestable);
      telemetry->metrics.counter("analysis.constants_tied")
          .add(eng->tied_constant_count());
    }
    finish_stage(telemetry, progress, span, "analysis",
                 result.seconds_analysis);
  }

  // ---- Stage 1: ID_X-red ------------------------------------------------
  if (config.run_xred) {
    std::optional<obs::SpanTracer::Span> span;
    if (telemetry != nullptr) span = telemetry->tracer.span("stage.xred");
    begin_stage(telemetry, "xred");
    Stopwatch timer;
    const XRedResult xr = run_id_x_red(netlist, sequence);
    const std::vector<FaultStatus> xs = xr.classify(faults);
    // Statically pruned faults keep their (stronger) verdict; the
    // x_redundant count therefore never overlaps static_x_redundant.
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (status[i] == FaultStatus::Undetected &&
          xs[i] == FaultStatus::XRedundant) {
        status[i] = FaultStatus::XRedundant;
        ++result.x_redundant;
      }
    }
    result.seconds_xred = timer.elapsed_seconds();
    finish_stage(telemetry, progress, span, "xred", result.seconds_xred);
  }

  // ---- Stage 2: three-valued simulation ----------------------------------
  {
    std::optional<obs::SpanTracer::Span> span;
    if (telemetry != nullptr) span = telemetry->tracer.span("stage.sim3");
    begin_stage(telemetry, "sim3");
    Stopwatch timer;
    Sim3EngineConfig ec;
    ec.threads = config.threads;
    ec.telemetry = telemetry;
    const std::unique_ptr<FaultSimulator3> sim =
        make_fault_simulator3(config.sim3_backend, netlist, faults, ec);
    sim->set_initial_status(status);
    const FaultSim3Result r3 = sim->run(sequence);
    result.seconds_3v = timer.elapsed_seconds();
    result.detected_3v = r3.detected_count;
    status = std::move(r3.status);
    result.detect_frame = std::move(r3.detect_frame);
    finish_stage(telemetry, progress, span, "sim3", result.seconds_3v);
  }

  // ---- Stage 3: symbolic simulation of the remainder ---------------------
  bool has_x_inputs = false;
  for (const auto& frame : sequence) {
    for (Val3 v : frame) has_x_inputs |= !is_binary(v);
  }
  if (config.run_symbolic && has_x_inputs) {
    result.symbolic_skipped_x_inputs = true;
  }
  if (config.run_symbolic && !has_x_inputs) {
    // X-redundant faults are *not* lost causes symbolically; re-enable
    // them alongside the three-valued leftovers.
    std::vector<FaultStatus> leftover = status;
    for (auto& s : leftover) {
      if (s == FaultStatus::XRedundant) s = FaultStatus::Undetected;
    }

    std::optional<obs::SpanTracer::Span> span;
    if (telemetry != nullptr) span = telemetry->tracer.span("stage.symbolic");
    begin_stage(telemetry, "symbolic");
    Stopwatch timer;
    // Implication-enriched trimming plan: its settled constants subsume
    // the structural ones the engines would otherwise derive
    // themselves. Only built when the analysis stage paid for the
    // engine anyway.
    std::optional<TrimPlan> trim_plan;
    if (eng && config.hybrid.trim) {
      const obs::SpanTracer::Span plan_span =
          obs::open_span(telemetry, "plan.trim");
      trim_plan = build_trim_plan(*eng, faults);
    }
    // S-graph plan for the MOT/rMOT -> SOT downgrade, built once here
    // so serial and parallel runs (and every shard) share it; either
    // engine would derive the identical plan on its own.
    std::optional<SgraphPlan> sgraph_plan;
    if (config.hybrid.sgraph) {
      const obs::SpanTracer::Span plan_span =
          obs::open_span(telemetry, "plan.sgraph");
      sgraph_plan = build_sgraph_plan(netlist, faults);
      result.sgraph_sccs = sgraph_plan->nontrivial_sccs;
      if (telemetry != nullptr) {
        telemetry->metrics.counter("analysis.sgraph_sccs")
            .add(sgraph_plan->nontrivial_sccs);
      }
      obs::log_event(
          telemetry, obs::LogLevel::Debug, "pipeline.sgraph",
          {obs::LogField::u64("nontrivial_sccs", sgraph_plan->nontrivial_sccs),
           obs::LogField::u64("finite_horizons",
                              sgraph_plan->finite_horizon_count()),
           obs::LogField::u64("faults", faults.size())});
    }
    HybridResult rs;
    if (config.threads == 1) {
      HybridFaultSim sym(netlist, faults, config.hybrid);
      sym.set_initial_status(leftover);
      sym.set_progress(progress);
      sym.set_checkpoint_sink(checkpoint);
      sym.set_telemetry(telemetry);
      if (!tied.empty()) sym.set_tied_constants(tied);
      if (trim_plan) sym.set_trim_plan(*trim_plan);
      if (sgraph_plan) sym.set_sgraph_plan(*sgraph_plan);
      rs = sym.run(sequence);
    } else {
      ParallelSymConfig pc;
      pc.hybrid = config.hybrid;
      pc.threads = config.threads;
      pc.chunk_size = config.chunk_size;
      ParallelSymSim sym(netlist, faults, pc);
      sym.set_initial_status(leftover);
      sym.set_progress(progress);
      sym.set_checkpoint_sink(checkpoint);
      sym.set_telemetry(telemetry);
      if (!tied.empty()) sym.set_tied_constants(tied);
      if (trim_plan) sym.set_trim_plan(*trim_plan);
      if (sgraph_plan) sym.set_sgraph_plan(*sgraph_plan);
      rs = sym.run(sequence);
    }
    result.seconds_symbolic = timer.elapsed_seconds();
    finish_stage(telemetry, progress, span, "symbolic",
                 result.seconds_symbolic);
    result.detected_symbolic = rs.detected_count;
    result.used_fallback = rs.used_fallback;
    result.frames_skipped = rs.frames_skipped;
    result.faults_terminated_early = rs.faults_terminated_early;
    result.faultfree_evals_shared = rs.faultfree_evals_shared;
    result.mot_downgrades = rs.mot_downgrades;
    // analysis.mot_downgrades is recorded by the engines themselves
    // (every shard adds into the shared telemetry); only the log record
    // belongs here, where the merged total is known.
    if (rs.mot_downgrades != 0) {
      obs::log_event(telemetry, obs::LogLevel::Debug, "pipeline.sgraph.done",
                     {obs::LogField::u64("mot_downgrades", rs.mot_downgrades)});
    }

    // Merge: symbolic detections override; everything else keeps its
    // stage-1/2 classification (and its three-valued detection frame).
    // A nonzero symbolic detect_frame identifies the faults the hybrid
    // stage itself detected — faults it merely inherited as detected
    // (DetectedSim3 pre-classifications) carry frame 0 and must keep
    // their stage-2 frame.
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (rs.detect_frame[i] != 0) {
        status[i] = rs.status[i];
        result.detect_frame[i] = rs.detect_frame[i];
      }
    }
  }

  result.status = std::move(status);
  return result;
}

PipelineResult run_pipeline(const Netlist& netlist,
                            const std::vector<Fault>& faults,
                            const TestSequence& sequence,
                            const SimOptions& options,
                            ProgressSink* progress,
                            CheckpointSink* checkpoint) {
  const Expected<SimOptions, std::string> checked = options.validate();
  if (!checked.has_value()) {
    throw std::invalid_argument("SimOptions: " + checked.error());
  }
  return run_pipeline(netlist, faults, sequence,
                      checked->to_pipeline_config(), progress, checkpoint);
}

}  // namespace motsim
