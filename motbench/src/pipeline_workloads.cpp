// Pipeline workloads (x01, strategies, mot_large): serial run_pipeline
// calls with a default SimOptions, timed per cell, answer-checked, and
// a traced variant that calls each layer's entry point itself.

#include <sched.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/sgraph.h"
#include "analysis/trim.h"
#include "bench.h"
#include "bench_data/registry.h"
#include "core/hybrid_sim.h"
#include "core/pipeline.h"
#include "core/xred.h"
#include "faults/collapse.h"
#include "obs/telemetry.h"
#include "sim3/fault_simulator.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace motbench {

using motsim::FaultStatus;
using motsim::Strategy;

namespace {

struct CellSpec {
  std::string circuit;
  std::optional<Strategy> strategy;  ///< nullopt = ID_X-red + X01 only
};

struct WorkloadSpec {
  std::vector<CellSpec> cells;
  std::size_t vectors = 0;
  /// Untraced seconds of one pass on the reference machine (4-core
  /// x86-64 container, Release build); sizes the number of passes.
  double nominal_pass_s = 0;
};

// Vector counts are shortened from the paper's 200 so that several
// passes fit the time budget; every cell still runs the same stages
// (and, for the fallback-heavy cells, the same fallback regime).
// mot_large is shortened least: with 20 vectors a cell's cost swings by
// 15-20% (s5378) and 16% (s9234.1) from one input to the next, with 150
// by 14% and 4%, which steadies its figures more than the extra passes
// that shorter inputs would fit.
WorkloadSpec workload_spec(const std::string& name, Size size) {
  WorkloadSpec w;
  if (name == "x01") {
    for (const char* c : {"s5378", "s9234.1", "s13207.1"}) {
      w.cells.push_back({c, std::nullopt});
    }
    w.vectors = 40;
    w.nominal_pass_s = 3.5;
  } else if (name == "strategies") {
    for (const char* c : {"s208.1", "s420.1", "s510", "s838.1", "s953"}) {
      for (const Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
        w.cells.push_back({c, s});
      }
    }
    w.vectors = 48;
    w.nominal_pass_s = 4.2;
  } else if (name == "mot_large") {
    for (const char* c : {"s5378", "s9234.1"}) {
      w.cells.push_back({c, Strategy::Mot});
    }
    w.vectors = 150;
    w.nominal_pass_s = 11.0;
  } else {
    throw std::invalid_argument("unknown pipeline workload " + name);
  }
  if (size == Size::Smoke) w.vectors = 4;
  return w;
}

std::string strategy_key(const std::optional<Strategy>& s) {
  if (!s) return "";
  switch (*s) {
    case Strategy::Sot: return "sot";
    case Strategy::Rmot: return "rmot";
    case Strategy::Mot: return "mot";
  }
  return "";
}

/// Set-up products of one (circuit, sequence seed): netlist, collapsed
/// faults, sequence.
struct Prepared {
  std::unique_ptr<motsim::Netlist> netlist;
  std::unique_ptr<motsim::CollapsedFaultList> faults;
  motsim::TestSequence sequence;
};

Prepared prepare(const std::string& circuit, std::size_t vectors,
                 std::uint64_t seed) {
  Prepared p;
  p.netlist =
      std::make_unique<motsim::Netlist>(motsim::make_benchmark(circuit));
  p.faults = std::make_unique<motsim::CollapsedFaultList>(*p.netlist);
  motsim::Rng rng(seed);
  p.sequence = motsim::random_sequence(*p.netlist, vectors, rng);
  return p;
}

/// The front door's options: a default SimOptions with only the
/// workload's strategy, run_symbolic and threads fields set.
motsim::SimOptions cell_options(const CellSpec& cell) {
  motsim::SimOptions o;
  if (cell.strategy) o.strategy = *cell.strategy;
  o.run_symbolic = cell.strategy.has_value();
  o.threads = 1;
  return o;
}

Digest digest_of(const std::vector<FaultStatus>& status,
                 const std::vector<std::uint32_t>& frames,
                 std::size_t x_redundant, std::size_t detected_3v,
                 std::size_t detected_symbolic, bool used_fallback) {
  Digest d;
  d.x01 = digest_status_subset(status, frames, FaultStatus::DetectedSim3);
  d.final = digest_verdicts(status, frames);
  d.x_redundant = x_redundant;
  d.detected_3v = detected_3v;
  d.detected_symbolic = detected_symbolic;
  d.used_fallback = used_fallback;
  return d;
}

Digest digest_of(const motsim::PipelineResult& r) {
  return digest_of(r.status, r.detect_frame, r.x_redundant, r.detected_3v,
                   r.detected_symbolic, r.used_fallback);
}

std::uint64_t detected_total(const std::vector<FaultStatus>& status) {
  return static_cast<std::uint64_t>(
      std::count_if(status.begin(), status.end(), motsim::is_detected));
}

/// Checks that hold for every answer of the pipeline, whatever the
/// seed: sizes, counts matching verdicts, detection frames in range.
std::string invariant_violation(const motsim::PipelineResult& r,
                                std::size_t faults, std::size_t frames) {
  if (r.status.size() != faults || r.detect_frame.size() != faults) {
    return "result size differs from the fault list";
  }
  std::size_t sim3 = 0;
  for (std::size_t i = 0; i < faults; ++i) {
    const bool det = motsim::is_detected(r.status[i]);
    if (det != (r.detect_frame[i] != 0) || r.detect_frame[i] > frames) {
      return "fault " + std::to_string(i) + " has detect_frame " +
             std::to_string(r.detect_frame[i]) + " for status " +
             motsim::to_cstring(r.status[i]);
    }
    sim3 += r.status[i] == FaultStatus::DetectedSim3;
  }
  if (sim3 != r.detected_3v) return "detected_3v disagrees with verdicts";
  return {};
}

/// One input of the run: every circuit's set-up products for one
/// sequence seed, and the report cells of this pass.
struct PassInput {
  std::uint64_t seed = 0;
  std::map<std::string, Prepared> prepared;
  std::size_t first_cell = 0;  ///< index of this pass's first report cell
};

struct PassResult {
  std::vector<motsim::PipelineResult> results;
  double seconds = 0;
};

/// Runs every cell once through run_pipeline, timing and checking each.
PassResult untraced_pass(const WorkloadSpec& spec, const PassInput& in,
                         Report& report) {
  PassResult pass;
  pass.results.resize(spec.cells.size());
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const CellSpec& cell = spec.cells[i];
    const Prepared& p = in.prepared.at(cell.circuit);
    CellReport& cr = report.cells[in.first_cell + i];
    ++cr.runs;
    motsim::Stopwatch t;
    try {
      pass.results[i] = motsim::run_pipeline(
          *p.netlist, p.faults->faults(), p.sequence, cell_options(cell));
    } catch (const std::exception& e) {
      report.fail(cr, std::string("run_pipeline threw: ") + e.what());
      continue;
    }
    const double s = t.elapsed_seconds();
    pass.seconds += s;
    cr.seconds.push_back(s);
    report.latency_s.push_back(s);
    const motsim::PipelineResult& r = pass.results[i];
    if (const std::string bad = invariant_violation(
            r, p.faults->size(), p.sequence.size());
        !bad.empty()) {
      report.fail(cr, bad);
      continue;
    }
    cr.digest = digest_of(r);
    cr.has_digest = true;
  }
  return pass;
}

/// Answer checks that hold at any seed. The X01 stage must equal the
/// one of the non-default sim3 backend (bit-identical by contract;
/// checked on the first input only, to bound its cost), and every SOT
/// detection must be an rMOT detection and every rMOT detection an MOT
/// one (paper Definitions 2/3; exact only when no fallback window ran).
void oracle_checks(const WorkloadSpec& spec, const PassInput& in,
                   const PassResult& pass, bool x01_oracle, Report& report) {
  if (x01_oracle) {
    const motsim::Sim3Backend other =
        motsim::default_sim3_backend() == motsim::Sim3Backend::Event
            ? motsim::Sim3Backend::BitPar
            : motsim::Sim3Backend::Event;
    std::map<std::string, Digest> oracle;
    for (const auto& [name, p] : in.prepared) {
      motsim::SimOptions o;
      o.run_symbolic = false;
      o.sim3_backend = other;
      oracle[name] = digest_of(motsim::run_pipeline(
          *p.netlist, p.faults->faults(), p.sequence, o));
    }
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
      CellReport& cr = report.cells[in.first_cell + i];
      const Digest& want = oracle.at(spec.cells[i].circuit);
      if (cr.has_digest &&
          (cr.digest.x01 != want.x01 ||
           cr.digest.x_redundant != want.x_redundant ||
           cr.digest.detected_3v != want.detected_3v)) {
        report.fail(cr, "X01 stage differs from the other sim3 backend");
      }
    }
  }
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    for (std::size_t j = 0; j < spec.cells.size(); ++j) {
      const CellSpec& a = spec.cells[i];
      const CellSpec& b = spec.cells[j];
      if (a.circuit != b.circuit || !a.strategy || !b.strategy ||
          static_cast<int>(*a.strategy) + 1 != static_cast<int>(*b.strategy)) {
        continue;
      }
      const motsim::PipelineResult& ra = pass.results[i];
      const motsim::PipelineResult& rb = pass.results[j];
      if (ra.status.empty() || rb.status.empty() || ra.used_fallback ||
          rb.used_fallback) {
        continue;
      }
      for (std::size_t f = 0; f < ra.status.size(); ++f) {
        if (motsim::is_detected(ra.status[f]) &&
            !motsim::is_detected(rb.status[f])) {
          report.fail(report.cells[in.first_cell + j],
                      "fault " + std::to_string(f) + " detected by " +
                          report.cells[in.first_cell + i].name +
                          " but not by this cell");
          break;
        }
      }
    }
  }
}

/// One traced pass: every cell re-runs set-up and the pipeline stages
/// through each layer's public entry point, one span per call, with an
/// obs::Telemetry attached. Returns the per-layer values of the pass.
std::map<std::string, double> traced_pass(const WorkloadSpec& spec,
                                          const RunArgs& args,
                                          const PassInput& in,
                                          const PassResult& untraced,
                                          SpanRecorder& spans,
                                          Report& report) {
  motsim::obs::Telemetry tel;
  std::map<std::string, double> L;
  double cells_s = 0;
  double attributed_s = 0;
  double pipeline_s = 0;
  double live_fault_frames = 0;
  double horizon_faults = 0;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const CellSpec& cell = spec.cells[i];
    CellReport& cr = report.cells[in.first_cell + i];
    const std::string tid = args.workload + "/" + cr.name;
    const motsim::PipelineConfig cfg =
        cell_options(cell).validate()->to_pipeline_config();
    const int root = spans.open("cell", tid);
    auto layer = [&](const char* name, int parent, auto&& fn) {
      const int id = spans.open(name, tid, parent);
      fn();
      const double s = spans.close(id);
      L[std::string(name) + "_s"] += s;
      attributed_s += s;
    };

    // 1. set-up.
    std::unique_ptr<motsim::Netlist> nl;
    std::unique_ptr<motsim::CollapsedFaultList> fl;
    motsim::TestSequence seq;
    layer("setup.circuit", root, [&] {
      nl = std::make_unique<motsim::Netlist>(
          motsim::make_benchmark(cell.circuit));
    });
    layer("setup.faults", root,
          [&] { fl = std::make_unique<motsim::CollapsedFaultList>(*nl); });
    layer("setup.sequence", root, [&] {
      motsim::Rng rng(in.seed);
      seq = motsim::random_sequence(*nl, spec.vectors, rng);
    });
    const std::vector<motsim::Fault>& faults = fl->faults();
    const std::size_t F = seq.size();

    const int pipe = spans.open("pipeline", tid, root);
    // 2. ID_X-red.
    std::vector<FaultStatus> status(faults.size(), FaultStatus::Undetected);
    std::size_t x_redundant = 0;
    layer("xred.busy", pipe, [&] {
      const motsim::XRedResult xr = motsim::run_id_x_red(*nl, seq);
      const std::vector<FaultStatus> xs = xr.classify(faults);
      for (std::size_t f = 0; f < faults.size(); ++f) {
        if (xs[f] == FaultStatus::XRedundant) {
          status[f] = FaultStatus::XRedundant;
          ++x_redundant;
        }
      }
    });
    L["xred.x_redundant"] += static_cast<double>(x_redundant);

    // 3. X01 stage.
    motsim::FaultSim3Result r3;
    layer("sim3.busy", pipe, [&] {
      const auto sim = motsim::make_fault_simulator3(
          cfg.sim3_backend, *nl, faults,
          motsim::Sim3EngineConfig{cfg.threads, &tel});
      sim->set_initial_status(status);
      r3 = sim->run(seq);
    });
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (status[f] != FaultStatus::Undetected) continue;
      L["sim3.fault_frames"] +=
          r3.detect_frame[f] != 0 ? r3.detect_frame[f] : F;
    }
    L["sim3.detected"] += static_cast<double>(r3.detected_count);
    status = r3.status;
    std::vector<std::uint32_t> frames = r3.detect_frame;

    // 4./5. plans and the symbolic stage.
    std::size_t detected_symbolic = 0;
    bool used_fallback = false;
    if (cfg.run_symbolic) {
      std::vector<FaultStatus> leftover = status;
      for (FaultStatus& s : leftover) {
        if (s == FaultStatus::XRedundant) s = FaultStatus::Undetected;
      }
      const double live = static_cast<double>(
          std::count(leftover.begin(), leftover.end(),
                     FaultStatus::Undetected));
      L["symbolic.live_faults"] += live;
      std::optional<motsim::TrimPlan> trim;
      std::optional<motsim::SgraphPlan> sgraph;
      if (cfg.hybrid.trim) {
        layer("analysis.trim_plan", pipe,
              [&] { trim = motsim::build_trim_plan(*nl, faults); });
      }
      if (cfg.hybrid.sgraph) {
        layer("analysis.sgraph_plan", pipe,
              [&] { sgraph = motsim::build_sgraph_plan(*nl, faults); });
        L["analysis.finite_horizons"] +=
            static_cast<double>(sgraph->finite_horizon_count());
        horizon_faults += static_cast<double>(faults.size());
      }
      motsim::HybridResult rs;
      layer("symbolic.busy", pipe, [&] {
        motsim::HybridFaultSim sym(*nl, faults, cfg.hybrid);
        sym.set_initial_status(leftover);
        sym.set_telemetry(&tel);
        if (trim) sym.set_trim_plan(*trim);
        if (sgraph) sym.set_sgraph_plan(*sgraph);
        rs = sym.run(seq);
      });
      for (std::size_t f = 0; f < faults.size(); ++f) {
        if (leftover[f] != FaultStatus::Undetected) continue;
        live_fault_frames += rs.detect_frame[f] != 0 ? rs.detect_frame[f] : F;
      }
      L["symbolic.frames_skipped"] += static_cast<double>(rs.frames_skipped);
      detected_symbolic = rs.detected_count;
      used_fallback = rs.used_fallback;
      for (std::size_t f = 0; f < faults.size(); ++f) {
        if (rs.detect_frame[f] != 0) {
          status[f] = rs.status[f];
          frames[f] = rs.detect_frame[f];
        }
      }
    }
    pipeline_s += spans.close(pipe);
    cells_s += spans.close(root);

    // The traced answer must equal the untraced one of this pass.
    const Digest d = digest_of(status, frames, x_redundant,
                               r3.detected_count, detected_symbolic,
                               used_fallback);
    if (!untraced.results[i].status.empty() &&
        !(d == digest_of(untraced.results[i]))) {
      report.fail(cr, "traced answer differs from the untraced run");
    }
  }

  add_engine_layers(tel.metrics.snapshot(), L);
  L["symbolic.skip_ratio"] =
      live_fault_frames > 0 ? L["symbolic.frames_skipped"] / live_fault_frames
                            : 0;
  L.erase("symbolic.frames_skipped");
  L["analysis.finite_horizon_ratio"] =
      horizon_faults > 0 ? L["analysis.finite_horizons"] / horizon_faults : 0;
  L.erase("analysis.finite_horizons");
  L["trace.unattributed_frac"] =
      cells_s > 0 ? (cells_s - attributed_s) / cells_s : 0;
  L["trace.overhead_frac"] =
      untraced.seconds > 0 ? (pipeline_s - untraced.seconds) / untraced.seconds
                           : 0;
  return L;
}

/// Pins the (serial) runner to the highest-numbered CPU it may use, so
/// the scheduler does not move the single compute thread between CPUs
/// mid-cell and refill its caches. Returns the CPU, or -1 when the
/// affinity cannot be read or set (the run then goes on unpinned).
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

}  // namespace

Report run_pipeline_workload(const RunArgs& args) {
  const WorkloadSpec spec = workload_spec(args.workload, args.size);
  Report report;
  report.args = args;
  report.defaults["vectors"] = std::to_string(spec.vectors);
  const int cpu = pin_to_one_cpu();
  report.defaults["pinned_cpu"] = cpu < 0 ? "none" : std::to_string(cpu);
  // A traced pass also makes an untraced one, so it costs two.
  const std::size_t passes =
      pass_count(args, spec.nominal_pass_s * (args.trace ? 2 : 1));
  SpanRecorder spans;
  std::map<std::string, std::vector<double>> layer_samples;
  for (std::size_t k = 0; k < passes; ++k) {
    PassInput in;
    in.seed = input_seed(args.seed, k);
    in.first_cell = report.cells.size();
    for (const CellSpec& c : spec.cells) {
      CellReport cr;
      cr.strategy = strategy_key(c.strategy);
      cr.name = c.circuit + "/" + (c.strategy ? cr.strategy : "x01") +
                "/seed" + std::to_string(in.seed);
      report.cells.push_back(std::move(cr));
    }
    // Set-up: instantiate every circuit, collapse its faults and
    // generate its sequence. It takes milliseconds, so it is repeated
    // and setup_s is a median over many samples; the last products are
    // the ones the pass uses.
    reset_peak_rss();
    const int setup_reps = args.size == Size::Smoke ? 1 : 5;
    for (int r = 0; r < setup_reps; ++r) {
      in.prepared.clear();
      motsim::Stopwatch setup;
      for (const CellSpec& c : spec.cells) {
        if (in.prepared.count(c.circuit) == 0) {
          in.prepared.emplace(c.circuit,
                              prepare(c.circuit, spec.vectors, in.seed));
        }
      }
      report.setup_s.push_back(setup.elapsed_seconds());
    }

    const PassResult pass = untraced_pass(spec, in, report);
    report.pass_s.push_back(pass.seconds);
    report.rss_mb.push_back(peak_rss_mb());
    for (const motsim::PipelineResult& r : pass.results) {
      report.detected += detected_total(r.status);
    }
    oracle_checks(spec, in, pass, k == 0, report);
    if (args.trace) {
      for (const auto& [name, v] :
           traced_pass(spec, args, in, pass, spans, report)) {
        layer_samples[name].push_back(v);
      }
    }
  }
  if (args.trace) {
    for (const auto& [k, v] : layer_samples) report.layers[k] = median(v);
    report.spans_file = args.work_dir + "/spans-" + args.workload + ".json";
    if (!spans.write_chrome_json(report.spans_file)) {
      throw std::runtime_error("cannot write " + report.spans_file);
    }
  }
  return report;
}

}  // namespace motbench
